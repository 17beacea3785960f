(** The durable site substrate every replica-control method embeds.

    The paper separates a site's "local message processing" — its local
    store, durable log and stable queues — from replica control, and the
    seven methods differ only in how they order and apply MSets.  This
    module is the first half: one {!Intf.site} per replica (id, store
    image, durable {!Esr_core.Hist} log, down flag) plus its lifecycle —
    logging, the stable-queue fabric, crash bookkeeping, checkpoint-aware
    replay on recovery, the checkpoint cut, the resource footprint and
    shard-aware convergence — and the volatile state every method keeps
    the same way: query contexts ({!query}) with their one outcome
    builder, the per-site wait contexts ({!Waits}), the origin-keyed
    tables a crash sweeps ({!Origin_table}) and a site's deferred
    same-site records ({!Deferred}).  A method adds only protocol steps
    around these calls (DESIGN.md §14 lists which). *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Hist = Esr_core.Hist
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Lock_counter = Esr_cc.Lock_counter
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type t = Intf.site = {
  id : int;
  mutable store : Store.t;
  mutable hist : Hist.t;
  mutable down : bool;
}

(** Stable-queue retransmission period, virtual ms. *)
let retry_interval = 50.0

(** Virtual ms between successive reads of a multi-key query, which lets
    update MSets interleave with it (ORDUP, COMMU, COMPE). *)
let query_step_delay = 1.0

(** Run [f ()], charged to the host-time profiler's [phase] at [site]
    when profiling is on. *)
let timed (env : Intf.env) ~site phase f =
  let prof = env.Intf.obs.Esr_obs.Obs.prof in
  if Prof.on prof then begin
    let t0 = Prof.start prof in
    let a0 = Prof.alloc0 prof in
    f ();
    Prof.record prof ~site phase ~t0 ~a0
  end
  else f ()

let empty_store (env : Intf.env) =
  Store.create ~size:env.Intf.store_hint ~keyspace:env.Intf.keyspace ()

(** Every site of the run, up, with empty stores and logs. *)
let create (env : Intf.env) =
  Array.init env.Intf.sites (fun id ->
      { id; store = empty_store env; hist = Hist.empty; down = false })

let log_action site ~et ~key op =
  site.hist <- Hist.append site.hist (Et.action ~et ~key op)

(** Trace an update ET's MSet entering the system at [origin].  [key]
    names an op; with a closed function nothing is allocated while
    tracing is off. *)
let trace_enqueued (env : Intf.env) ~et ~origin key ops =
  let trace = env.Intf.obs.Esr_obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace
      ~time:(Engine.now env.Intf.engine)
      (Trace.Mset_enqueued
         { et; origin; n_ops = List.length ops; keys = List.map key ops })

(** The method's stable-queue fabric over every site: fixed retry period,
    the run's backoff policy, counters in the run's registry. *)
let fabric (env : Intf.env) ~mode handler =
  Squeue.create ~mode ~retry_interval
    ?backoff:env.Intf.config.Intf.retry_backoff ~obs:env.Intf.obs env.Intf.net
    ~handler

(* --- query ETs --- *)

(** A query ET's volatile context: when it started, the client callback,
    its epsilon counter and the state of a stepped read.  [data] is what
    a method tracks per in-step query (ORDUP: serialization point and
    trace window; COMPE: the undecided ETs it observed). *)
type 'a query = {
  qsite : t;  (** the site the query reads *)
  engine : Engine.t;
  started_at : float;
  k : Intf.query_outcome -> unit;
  eps : Epsilon.counter;
  data : 'a;
  mutable gathered : (string * Value.t) list;  (** read so far, newest first *)
  mutable forced : int;  (** units force-charged past the spec (COMPE) *)
  mutable waited : bool;  (** parked at least once: the consistent path *)
  mutable killed : bool;  (** its site crashed mid-walk: answer degraded *)
}

let query (env : Intf.env) site epsilon data k =
  {
    qsite = site;
    engine = env.Intf.engine;
    started_at = Engine.now env.Intf.engine;
    k;
    eps = Epsilon.create epsilon;
    data;
    gathered = [];
    forced = 0;
    waited = false;
    killed = false;
  }

(** Answer the client: [charged] is the epsilon counter's value. *)
let answer q ~consistent values =
  q.k
    {
      Intf.values;
      charged = Epsilon.value q.eps;
      forced = q.forced;
      consistent_path = consistent;
      started_at = q.started_at;
      served_at = Engine.now q.engine;
    }

(** Graceful failure: a query whose site is down, or crashed while the
    query waited, answers from the site's last image, flagged degraded.
    Nothing is logged — the site is not executing. *)
let degraded q keys =
  answer q ~consistent:false
    (List.map (fun key -> (key, Store.get q.qsite.store key)) keys)

(** Read [keys] at [site] in one event, logging each read as [et]. *)
let read site ~et keys =
  List.map
    (fun key ->
      log_action site ~et ~key Op.Read;
      (key, Store.get site.store key))
    keys

(** One step of a stepped multi-key read: log and gather [key]. *)
let gather q ~et key =
  log_action q.qsite ~et ~key Op.Read;
  q.gathered <- (key, Store.get q.qsite.store key) :: q.gathered

(** Run the next step of a stepped read [query_step_delay] from now. *)
let next_step q f =
  ignore (Engine.schedule q.engine ~delay:query_step_delay f)

(** Volatile wait contexts at one site: continuations parked until the
    site's state changes, and in-step queries a crash must kill. *)
module Waits = struct
  type parked = {
    ready : unit -> bool;  (** only {!wake_ready} consults it *)
    resume : unit -> unit;
    fail : unit -> unit;  (** the site crashed: the wait context is lost *)
  }

  type 'a t = {
    mutable parked : parked list;  (** newest first *)
    mutable active : 'a query list;  (** newest first *)
  }

  let create () = { parked = []; active = [] }
  let always () = true

  let park w ?(ready = always) ~resume ~fail () =
    let p = { ready; resume; fail } in
    w.parked <- p :: w.parked;
    p

  let unpark w p = w.parked <- List.filter (fun x -> x != p) w.parked

  (** Resume every parked continuation, oldest first. *)
  let wake w =
    let waiting = List.rev w.parked in
    w.parked <- [];
    List.iter (fun p -> p.resume ()) waiting

  (** Resume the parked continuations that are [ready], newest first. *)
  let wake_ready w =
    let ready, still = List.partition (fun p -> p.ready ()) w.parked in
    w.parked <- still;
    List.iter (fun p -> p.resume ()) ready

  let start w q = w.active <- q :: w.active
  let stop w q = w.active <- List.filter (fun a -> a != q) w.active

  (** The crash: fail every parked continuation (newest first), then
      kill the in-step queries still registered — each answers degraded
      at its next step.  Returns how many were failed or killed. *)
  let drop w =
    let parked = w.parked in
    w.parked <- [];
    List.iter (fun p -> p.fail ()) parked;
    let active = w.active in
    w.active <- [];
    List.iter (fun q -> q.killed <- true) active;
    List.length parked + List.length active

  let size w = List.length w.parked + List.length w.active
end

(** What the counter-gated query walk of one site needs (COMMU, COMPE:
    §3.2's lock-counters bound a query's divergence): the site's
    counters and wait contexts, the method's tallies and its per-read
    and per-answer hooks. *)
type tally = { mutable charged : int; mutable parks : int }

type 'a gate = {
  counters : Lock_counter.t;
  waits : 'a Waits.t;
  tally : tally;  (** shared by every site of a method instance *)
  on_read : 'a query -> string -> unit;  (** after each admitted read *)
  on_done : 'a query -> unit;  (** before a finished walk answers *)
}

let gate (env : Intf.env) tally ?(on_read = fun _ _ -> ())
    ?(on_done = fun _ -> ()) () =
  {
    counters = Lock_counter.create ~hint:env.Intf.store_hint ();
    waits = Waits.create ();
    tally;
    on_read;
    on_done;
  }

let finish g q values =
  Waits.stop g.waits q;
  g.on_done q;
  answer q ~consistent:q.waited values

(* Park a gated query until completions drain the counters.  A walk woken
   only to block again on the same keys re-parks the record it was parked
   with, so re-parking after each wake allocates nothing but the cons. *)
let repark g q p =
  q.waited <- true;
  g.tally.parks <- g.tally.parks + 1;
  g.waits.parked <- p :: g.waits.parked

let unparked = { Waits.ready = Waits.always; resume = ignore; fail = ignore }

(** A strictly serializable query must see an atomic snapshot: since
    MSets apply atomically per site, it suffices to wait until every key
    is simultaneously free of in-flight updates and read them all in one
    event (stepping key by key would splice different serialization
    points together). *)
let rec strict_read ?(parked = unparked) g q ~et keys =
  if List.for_all (fun key -> Lock_counter.count g.counters key = 0) keys
  then finish g q (read q.qsite ~et keys)
  else if parked != unparked then repark g q parked
  else
    let rec p =
      {
        Waits.ready = Waits.always;
        resume = (fun () -> strict_read ~parked:p g q ~et keys);
        fail =
          (fun () ->
            Waits.stop g.waits q;
            degraded q keys);
      }
    in
    repark g q p

(** Any other query reads key by key, charging each key's counter to its
    epsilon; a refused charge parks it until completions drain the
    counter.  A crash mid-walk serves what was gathered, degraded. *)
let rec gated_read ?(parked = unparked) g q ~et keys =
  if q.killed then answer q ~consistent:false (List.rev q.gathered)
  else
    match keys with
    | [] -> finish g q (List.rev q.gathered)
    | key :: rest ->
        let pending = Lock_counter.count g.counters key in
        if pending = 0 || Epsilon.try_charge q.eps pending then begin
          g.tally.charged <- g.tally.charged + pending;
          gather q ~et key;
          g.on_read q key;
          if rest = [] then gated_read g q ~et []
          else next_step q (fun () -> gated_read g q ~et rest)
        end
        else if parked != unparked then repark g q parked
        else
          let rec p =
            {
              Waits.ready = Waits.always;
              resume = (fun () -> gated_read ~parked:p g q ~et keys);
              fail =
                (fun () ->
                  Waits.stop g.waits q;
                  answer q ~consistent:false (List.rev q.gathered));
            }
          in
          repark g q p

(* --- origin-side volatile state --- *)

(** Volatile state a site keeps as the origin (coordinator) of an ET or
    a round — outcome callbacks, coordinator records, quorum rounds —
    keyed by the ET or round id.  A crash of the origin sweeps its
    entries in ascending id order, so what the sweep does never depends
    on hash-table layout. *)
module Origin_table = struct
  type 'a t = { table : (int, 'a) Hashtbl.t; origin : 'a -> int }

  let create ~origin = { table = Hashtbl.create 32; origin }
  let add o id v = Hashtbl.replace o.table id v
  let find o id = Hashtbl.find_opt o.table id
  let remove o id = Hashtbl.remove o.table id
  let length o = Hashtbl.length o.table

  let entries o ~origin =
    Hashtbl.fold
      (fun id v acc -> if o.origin v = origin then (id, v) :: acc else acc)
      o.table []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  (** [origin]'s entries, ascending by id, left in the table. *)
  let at_origin o ~origin = List.map snd (entries o ~origin)

  (** [origin]'s entries, ascending by id, removed from the table. *)
  let take o ~origin =
    List.map
      (fun (id, v) ->
        Hashtbl.remove o.table id;
        v)
      (entries o ~origin)
end

(** A site's own protocol records (same-site messages, which bypass the
    stable queues) that landed while it was down.  Durable, like a
    coordinator log: {!replay} re-delivers them, in arrival order, at
    recovery. *)
module Deferred = struct
  type 'm t = 'm list array  (* per site, newest first *)

  let create (env : Intf.env) : 'm t = Array.make env.Intf.sites []
  let defer d ~site m = d.(site) <- m :: d.(site)

  let replay d ~site f =
    let records = List.rev d.(site) in
    d.(site) <- [];
    List.iter f records

  let size d = Array.fold_left (fun n l -> n + List.length l) 0 d
end

(** What a crash cost the method: volatile buffered MSets, failed queries
    and rejected update outcomes (traced as [Volatile_dropped]). *)
type dropped = { buffered : int; queries_failed : int; updates_rejected : int }

let nothing_dropped = { buffered = 0; queries_failed = 0; updates_rejected = 0 }

(** Mark an up site down, run the method's [drop] of its volatile state,
    and trace what was lost.  Idempotent: no-op on a site already down. *)
let crash (env : Intf.env) site drop =
  if not site.down then begin
    site.down <- true;
    let d = drop () in
    let trace = env.Intf.obs.Esr_obs.Obs.trace in
    if Trace.on trace then
      Trace.emit trace
        ~time:(Engine.now env.Intf.engine)
        (Trace.Volatile_dropped
           {
             site = site.id;
             buffered = d.buffered;
             queries_failed = d.queries_failed;
             updates_rejected = d.updates_rejected;
             log = Hist.length site.hist;
           })
  end

(** Bring a down site back up and rebuild its store image from the
    durable log: from a copy of the newest checkpoint snapshot plus the
    log tail when the run checkpoints, from an empty store otherwise.
    [rebuild] replaces the default fold for methods with extra images
    (RITU's version store).  The replay is profiled as [Replay], traced
    as [Recovery_replay] and its tail length recorded for the [ckpt/]
    gauges.  Returns [false], doing nothing, when the site was up; the
    caller then skips its own protocol recovery too. *)
let recover ?rebuild (env : Intf.env) site =
  if not site.down then false
  else begin
    site.down <- false;
    let ckpt = env.Intf.checkpoint in
    let replay () =
      match rebuild with
      | Some f -> f ()
      | None ->
          let base = Option.bind ckpt (fun c -> Checkpoint.base c ~site:site.id) in
          site.store <-
            Esr_core.Logmerge.apply ?base ~keyspace:env.Intf.keyspace
              ~size:env.Intf.store_hint site.hist
    in
    timed env ~site:site.id Prof.Replay replay;
    let n_actions = Hist.length site.hist in
    let trace = env.Intf.obs.Esr_obs.Obs.trace in
    if Trace.on trace then
      Trace.emit trace
        ~time:(Engine.now env.Intf.engine)
        (Trace.Recovery_replay { site = site.id; n_actions });
    Option.iter
      (fun c -> Checkpoint.note_tail_replay c ~site:site.id ~len:n_actions)
      ckpt;
    true
  end

(** Take a checkpoint cut at an up site (see {!Checkpoint.cut}): reclaim
    the stable-queue dedup records behind the delivery watermark plus
    whatever [reclaim] frees in the method's own journals, snapshot the
    store (and [mv], RITU's version store), and truncate the log behind
    the cut.  No-op when the run does not checkpoint or the site is down
    — a crashed site's next cut happens after it has recovered. *)
let checkpoint ?mv ?(reclaim = fun () -> 0) (env : Intf.env) site fabric =
  match env.Intf.checkpoint with
  | None -> ()
  | Some c ->
      if not site.down then begin
        let dedup = Squeue.gc_site fabric ~site:site.id in
        let reclaimed = dedup + reclaim () in
        site.hist <-
          Checkpoint.cut c ~engine:env.Intf.engine ~site:site.id ?mv
            ~store:site.store ~hist:site.hist ~reclaimed ()
      end

(** The site's footprint: its log, its sender-side stable-queue journal,
    its store image and — for methods that journal receipts — its
    {!Recovery.Wal}.  Pure reads. *)
let resources ?wal site fabric =
  let wal_entries, wal_appended, wal_high_water =
    match wal with
    | None -> (0, 0, 0)
    | Some w ->
        ( Recovery.Wal.size w ~site:site.id,
          Recovery.Wal.appended w ~site:site.id,
          Recovery.Wal.high_water w ~site:site.id )
  in
  {
    Intf.log_entries = Hist.length site.hist;
    log_bytes = Hist.approx_bytes site.hist;
    wal_entries;
    wal_appended;
    wal_high_water;
    journal_depth = Squeue.journal_depth fabric ~site:site.id;
    journal_enqueued = Squeue.journaled fabric ~site:site.id;
    store_words = Store.live_words site.store;
  }

let holds (env : Intf.env) ~site (key, _) =
  Sharding.replicates_id env.Intf.sharding ~site
    ~id:(Keyspace.find env.Intf.keyspace key)

let rec holds_all env ~site = function
  | [] -> true
  | op :: rest -> holds env ~site op && holds_all env ~site rest

(** The operations of an MSet on keys [site] replicates.  When it holds
    them all (always, under full placement) that is [ops] itself, not a
    copy: every replica's log entry then shares the MSet's list. *)
let replicated_ops env ~site ops =
  if holds_all env ~site ops then ops else List.filter (holds env ~site) ops

(** Shard-aware convergence: every key's replicas hold equal values (with
    full placement, every store equals every other). *)
let converged (env : Intf.env) sites =
  Sharding.converged env.Intf.sharding ~keyspace:env.Intf.keyspace
    ~store:(fun i -> sites.(i).store)
