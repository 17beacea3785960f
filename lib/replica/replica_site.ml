(** The durable site substrate every replica-control method embeds.

    The paper separates a site's "local message processing" — its local
    store, durable log and stable queues — from replica control, and the
    seven methods differ only in how they order and apply MSets.  This
    module is the first half: one {!Intf.site} per replica (id, store
    image, durable {!Esr_core.Hist} log, down flag) plus its lifecycle —
    logging, the stable-queue fabric, crash bookkeeping, checkpoint-aware
    replay on recovery, the checkpoint cut, the resource footprint and
    shard-aware convergence.  A method adds only protocol steps around
    these calls (DESIGN.md §14 lists which). *)

module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Hist = Esr_core.Hist
module Et = Esr_core.Et
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

(** The method's stable-queue fabric over every site: fixed retry period,
    the run's backoff policy, counters in the run's registry. *)
let fabric (env : Intf.env) ~mode handler =
  Squeue.create ~mode ~retry_interval
    ?backoff:env.Intf.config.Intf.retry_backoff ~obs:env.Intf.obs env.Intf.net
    ~handler

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
