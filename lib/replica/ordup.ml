(** ORDUP — ordered updates (paper §3.1).

    Update MSets carry a global order; every replica executes them in that
    order (asynchronously, buffering out-of-order arrivals), so update ETs
    are SR by construction.  Query ETs read local state freely; their
    inconsistency is the overlap with update ETs not yet executed locally
    (or executed past the query's serialization point), charged against
    the query's epsilon counter.  An exhausted counter forces the query
    onto the consistent path: it acquires its own slot in the global order
    and waits until the replica has executed exactly up to that slot —
    "the query ET is allowed to proceed only when it is running in the
    global order".

    Two ordering sources (ablation A1):
    - [`Sequencer]: an order server hands each replica a dense ticket
      stream; a replica can execute ticket [t+1] the moment it arrives.
    - [`Lamport]: decentralized timestamps; a replica may execute an MSet
      only once per-origin watermarks prove no earlier-stamped MSet can
      still arrive (the delivery-order cost the paper warns about). *)

module Op = Esr_store.Op
module Store = Esr_store.Store
module Sharding = Esr_store.Sharding
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Gtime = Esr_clock.Gtime
module Lamport = Esr_clock.Lamport
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

type order = Ticket of int | Stamp of Gtime.t

let order_leq a b =
  match (a, b) with
  | Ticket x, Ticket y -> x <= y
  | Stamp x, Stamp y -> Gtime.compare x y <= 0
  | Ticket _, Stamp _ | Stamp _, Ticket _ ->
      invalid_arg "Ordup: mixed order kinds"

(* MSet ops carry keys pre-interned at the origin ({!Intf.iop}), so the
   per-site apply loop is an array store, not a string hash. *)
type mset = {
  et : Et.id;
  order : order;
  ops : Intf.iop list;
  origin : int;
  commit_site : int;
      (* the site whose in-order execution commits the ET: the origin when
         it replicates a touched shard (always, under full replication),
         otherwise the lowest interested replica *)
}

type msg = Update of mset | Watermark of Gtime.t

(* No stream hands out ticket 0: the empty value of a submission's shared
   message (see [submit_update]). *)
let no_update =
  Update { et = 0; order = Ticket 0; ops = []; origin = 0; commit_site = 0 }

(* What an in-step query tracks: its serialization point, read set and
   trace window (the ordinal [w], traced for Ticket orders only). *)
type active = {
  aq_order : order;
  aq_keys : string list;
  mutable aq_failed : bool;  (* a charge was refused; fall back to SR path *)
  aq_w : int;
  aq_windowed : bool;
}

type site = {
  d : Replica_site.t;  (* the durable half: id, store, log, down flag *)
  (* sequencer mode *)
  mutable last_exec : int;
  seq_buffer : (int, mset) Hashtbl.t;
  (* lamport mode *)
  clock : Lamport.t;
  mutable lam_buffer : mset list;  (* ascending stamp order *)
  watermarks : Gtime.t array;
  waits : active Replica_site.Waits.t;  (* in-step queries, SR fallbacks *)
}

type t = {
  env : Intf.env;
  mode : [ `Sequencer | `Lamport ];
  dests : Sharding.Dests.t;  (* reusable routing cursor (submit path) *)
  streams : int array;
      (* sequencer mode: the order server's per-site dense ticket streams,
         each the last ticket issued (a site executes ITS OWN stream
         gap-free from ticket 1; cross-site order is inherited from
         submission order, which assigns every interested site its next
         ticket atomically) *)
  durable : Replica_site.t array;
  sites : site array;
  fabric : msg Squeue.t;
  (* origin site and commit callback; the callback is volatile origin-side
     state, dropped (with a rejection) when the origin crashes *)
  pending_commits :
    (int * (Intf.update_outcome -> unit)) Replica_site.Origin_table.t;
  wal : (Et.id, mset) Recovery.Wal.t;  (* durable MSet receipt journal *)
  mutable n_fallbacks : int;
  mutable n_charged_units : int;
  mutable n_updates : int;
  mutable n_queries : int;
}

let meta =
  {
    Intf.name = "ORDUP";
    family = Intf.Forward;
    restriction = "message delivery";
    async_propagation = "Query only";
    sorting_time = "at update";
  }

(* --- execution at a site --- *)

let apply_mset_inner t site mset =
  let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:(Engine.now t.env.engine)
      (Trace.Mset_applied
         {
           et = mset.et;
           site = site.d.id;
           n_ops = List.length mset.ops;
           order = (match mset.order with Ticket n -> Some n | Stamp _ -> None);
         });
  List.iter
    (fun (i : Intf.iop) ->
      (* Union routing delivers the whole MSet to every interested site;
         each site materializes only the shards it replicates. *)
      if Sharding.replicates_id t.env.Intf.sharding ~site:site.d.id ~id:i.Intf.id
      then begin
        (match Store.apply_id_unit site.d.store i.Intf.id i.Intf.op with
        | Ok () -> ()
        | Error _ ->
            (* ORDUP imposes no operation restriction; type errors are a
               workload bug, surfaced loudly. *)
            invalid_arg
              (Printf.sprintf "ORDUP: op %s failed on %s"
                 (Op.to_string i.Intf.op) i.Intf.key));
        Replica_site.log_action site.d ~et:mset.et ~key:i.Intf.key i.Intf.op
      end)
    mset.ops;
  (* Charge active queries that this update interleaves: it executes after
     the query's serialization point and touches its keys. *)
  List.iter
    (fun (q : active Replica_site.query) ->
      let aq = q.data in
      if
        (not aq.aq_failed)
        && (not (order_leq mset.order aq.aq_order))
        && List.exists
             (fun (i : Intf.iop) -> List.mem i.Intf.key aq.aq_keys)
             mset.ops
      then
        if Epsilon.try_charge q.eps 1 then
          t.n_charged_units <- t.n_charged_units + 1
        else aq.aq_failed <- true)
    site.waits.active;
  Recovery.Wal.consume t.wal ~site:site.d.id ~key:mset.et;
  if mset.commit_site = site.d.id then
    match Replica_site.Origin_table.find t.pending_commits mset.et with
    | Some (_, k) ->
        Replica_site.Origin_table.remove t.pending_commits mset.et;
        k (Intf.Committed { committed_at = Engine.now t.env.engine })
    | None -> ()

(* The thunk is built only while profiling: the unprofiled apply path
   stays allocation-free. *)
let apply_mset t site mset =
  if Prof.on t.env.Intf.obs.Esr_obs.Obs.prof then
    Replica_site.timed t.env ~site:site.d.id Prof.Apply (fun () ->
        apply_mset_inner t site mset)
  else apply_mset_inner t site mset

let order_reached site = function
  | Ticket n -> site.last_exec >= n
  | Stamp ts ->
      (* Every buffered MSet at or below the stamp is executed, and the
         watermarks prove nothing earlier can still arrive. *)
      Array.for_all (fun w -> Gtime.compare w ts >= 0) site.watermarks
      && not
           (List.exists (fun m ->
                match m.order with
                | Stamp s -> Gtime.compare s ts <= 0
                | Ticket _ -> false)
              site.lam_buffer)

let rec drain_sequencer t site =
  match Hashtbl.find_opt site.seq_buffer (site.last_exec + 1) with
  | None -> ()
  | Some mset ->
      Hashtbl.remove site.seq_buffer (site.last_exec + 1);
      site.last_exec <- site.last_exec + 1;
      apply_mset t site mset;
      drain_sequencer t site

let lam_executable site mset =
  match mset.order with
  | Stamp ts -> Array.for_all (fun w -> Gtime.compare ts w <= 0) site.watermarks
  | Ticket _ -> false

let rec drain_lamport t site =
  match site.lam_buffer with
  | head :: rest when lam_executable site head ->
      site.lam_buffer <- rest;
      apply_mset t site head;
      drain_lamport t site
  | _ :: _ | [] -> ()

let update_watermark site ~origin ts =
  if Gtime.compare ts site.watermarks.(origin) > 0 then
    site.watermarks.(origin) <- ts;
  (* The site's own watermark follows its clock: its next stamp will be
     strictly larger than the current peek. *)
  Gtime.witness site.clock ts;
  site.watermarks.(site.d.id) <-
    Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.d.id

let insert_sorted mset buffer =
  let stamp m =
    match m.order with Stamp s -> s | Ticket _ -> assert false
  in
  let rec insert = function
    | [] -> [ mset ]
    | head :: rest as all ->
        if Gtime.compare (stamp mset) (stamp head) < 0 then mset :: all
        else head :: insert rest
  in
  insert buffer

let receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  (match msg with
  | Update mset ->
      (* Journal the receipt before it enters the volatile order buffer:
         the transport acked it, so the journal is now the only durable
         copy the site holds until the MSet is applied. *)
      Recovery.Wal.append t.wal ~site:site_id ~key:mset.et mset;
      (match (t.mode, mset.order) with
      | `Sequencer, Ticket n ->
          Hashtbl.replace site.seq_buffer n mset;
          drain_sequencer t site
      | `Lamport, Stamp ts ->
          update_watermark site ~origin:mset.origin ts;
          site.lam_buffer <- insert_sorted mset site.lam_buffer;
          drain_lamport t site
      | (`Sequencer | `Lamport), _ -> assert false)
  | Watermark ts ->
      update_watermark site ~origin:ts.Gtime.site ts;
      drain_lamport t site);
  Replica_site.Waits.wake_ready site.waits

(* --- public interface --- *)

let create (env : Intf.env) =
  let durable = Replica_site.create env in
  let rec t =
    lazy
      {
        env;
        mode = env.Intf.config.Intf.ordup_ordering;
        dests = Sharding.Dests.cursor env.Intf.sharding;
        streams = Array.make env.Intf.sites 0;
        durable;
        sites =
          Array.map
            (fun d ->
              {
                d;
                last_exec = 0;
                seq_buffer = Hashtbl.create 32;
                clock = Lamport.create ();
                lam_buffer = [];
                watermarks = Array.make env.Intf.sites Gtime.zero;
                waits = Replica_site.Waits.create ();
              })
            durable;
        fabric =
          Replica_site.fabric env ~mode:Squeue.Fifo (fun ~site ~src:_ msg ->
              receive (Lazy.force t) ~site msg);
        pending_commits = Replica_site.Origin_table.create ~origin:fst;
        wal =
          Recovery.Wal.create ~prof:env.Intf.obs.Esr_obs.Obs.prof
            ~hint:env.Intf.store_hint ~sites:env.Intf.sites ();
        n_fallbacks = 0;
        n_charged_units = 0;
        n_updates = 0;
        n_queries = 0;
      }
  in
  Lazy.force t

let intent_to_op env intent =
  let key, op = Intf.op_of_intent intent in
  { Intf.id = Esr_store.Keyspace.intern env.Intf.keyspace key; key; op }

let submit_update t ~origin intents k =
  if t.durable.(origin).down then k (Intf.Rejected "origin site down")
  else if intents = [] then k (Intf.Rejected "empty update ET")
  else begin
    t.n_updates <- t.n_updates + 1;
    let et = t.env.Intf.next_et () in
    let ops = List.map (intent_to_op t.env) intents in
    let site = t.sites.(origin) in
    let c = t.dests in
    Sharding.Dests.reset c;
    List.iter (fun (i : Intf.iop) -> Sharding.Dests.add_id c i.Intf.id) ops;
    let commit_site =
      if Sharding.Dests.mem c origin then origin
      else begin
        let first = ref (-1) in
        Sharding.Dests.iter c (fun s -> if !first < 0 then first := s);
        !first
      end
    in
    Replica_site.trace_enqueued t.env ~et ~origin Intf.iop_key ops;
    Replica_site.Origin_table.add t.pending_commits et (origin, k);
    (* Remote replicas get the MSet through the stable queues; the origin
       buffers it directly (local enqueue is not subject to the network). *)
    match t.mode with
    | `Sequencer ->
        (* Per-site dense tickets: each interested site gets the next
           number of its own stream, assigned here in one atomic step so
           every stream lists concurrent ETs in the same (submission)
           order.  Consecutive destinations whose streams agree on the
           ticket share one message; under full placement every stream
           agrees, so an update allocates a single MSet. *)
        let local = ref None in
        let shared = ref no_update in
        let propagate () =
          Sharding.Dests.iter c (fun dst ->
              let ticket = t.streams.(dst) + 1 in
              t.streams.(dst) <- ticket;
              let msg =
                match !shared with
                | Update { order = Ticket n; _ } when n = ticket -> !shared
                | Update _ | Watermark _ ->
                    let msg =
                      Update { et; order = Ticket ticket; ops; origin; commit_site }
                    in
                    shared := msg;
                    msg
              in
              if dst = origin then local := Some msg
              else Squeue.send t.fabric ~src:origin ~dst msg)
        in
        Replica_site.timed t.env ~site:origin Prof.Propagate propagate;
        (match !local with Some msg -> receive t ~site:origin msg | None -> ())
    | `Lamport ->
        (* Interested sites get the MSet; everyone else still needs the
           stamp as a watermark, or their delivery-order proof (and any
           parked SR query) would stall until the final flush. *)
        let stamp = Gtime.next site.clock ~site:origin in
        let mset = { et; order = Stamp stamp; ops; origin; commit_site } in
        let propagate () =
          for dst = 0 to t.env.Intf.sites - 1 do
            if dst <> origin then
              if Sharding.Dests.mem c dst then
                Squeue.send t.fabric ~src:origin ~dst (Update mset)
              else Squeue.send t.fabric ~src:origin ~dst (Watermark stamp)
          done
        in
        Replica_site.timed t.env ~site:origin Prof.Propagate propagate;
        if Sharding.Dests.mem c origin then receive t ~site:origin (Update mset)
        else receive t ~site:origin (Watermark stamp)
  end

(* The query's serialization point: everything ordered at or before this
   is "the past" the query should see. *)
let query_order t site =
  match t.mode with
  | `Sequencer ->
      (* Each site executes its own dense stream, so the serialization
         point is the last ticket handed out FOR this site. *)
      Ticket t.streams.(site.d.id)
  | `Lamport ->
      Stamp (Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.d.id)

(* Updates ordered before the query's point but not yet executed locally:
   the query's initial overlap. *)
let missing_before site = function
  | Ticket n -> Stdlib.max 0 (n - site.last_exec)
  | Stamp ts ->
      List.length
        (List.filter
           (fun m ->
             match m.order with
             | Stamp s -> Gtime.compare s ts <= 0
             | Ticket _ -> false)
           site.lam_buffer)

(* Trace the close of a query's inconsistency window (see [submit_query]). *)
let close_window t (q : active Replica_site.query) outcome =
  if q.data.aq_windowed then
    Trace.emit t.env.Intf.obs.Esr_obs.Obs.trace
      ~time:(Engine.now t.env.engine)
      (Trace.Query_window_closed
         {
           w = q.data.aq_w;
           site = q.qsite.id;
           charged = Epsilon.value q.eps;
           outcome;
         })

(* The consistent path: take the query's own slot in the order and wait
   until the replica has executed exactly up to it. *)
let consistent_path t site q ~et =
  t.n_fallbacks <- t.n_fallbacks + 1;
  let target = query_order t site in
  let keys = q.Replica_site.data.aq_keys in
  let resume () =
    Replica_site.answer q ~consistent:true (Replica_site.read site.d ~et keys)
  in
  if order_reached site target then resume ()
  else
    ignore
      (Replica_site.Waits.park site.waits
         ~ready:(fun () -> order_reached site target)
         ~resume
         ~fail:(fun () -> Replica_site.degraded q keys)
         ())

let rec step t site (q : active Replica_site.query) ~et keys =
  if q.killed then begin
    (* Crash mid-query: the remaining reads cannot happen; serve what was
       gathered, marked as the degraded (non-SR) path. *)
    close_window t q `Killed;
    Replica_site.answer q ~consistent:false (List.rev q.gathered)
  end
  else if q.data.aq_failed then begin
    Replica_site.Waits.stop site.waits q;
    close_window t q `Fallback;
    consistent_path t site q ~et
  end
  else
    match keys with
    | [] ->
        Replica_site.Waits.stop site.waits q;
        close_window t q `Ok;
        Replica_site.answer q ~consistent:false (List.rev q.gathered)
    | key :: rest ->
        Replica_site.gather q ~et key;
        if rest = [] then step t site q ~et []
        else Replica_site.next_step q (fun () -> step t site q ~et rest)

let submit_query t ~site:site_id ~keys ~epsilon k =
  t.n_queries <- t.n_queries + 1;
  let site = t.sites.(site_id) in
  let et = t.env.Intf.next_et () in
  if site.d.down then
    Replica_site.degraded (Replica_site.query t.env site.d epsilon () k) keys
  else begin
    let order = query_order t site in
    (* The query's inconsistency window, for the auditor's overlap
       reconstruction: serialization point, lump charge, read set at open;
       final charge and exit path at close.  Ticket orders only — Lamport
       stamps have no integer point to reconstruct against. *)
    let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
    let windowed =
      Trace.on trace && match order with Ticket _ -> true | Stamp _ -> false
    in
    let q =
      Replica_site.query t.env site.d epsilon
        {
          aq_order = order;
          aq_keys = keys;
          aq_failed = false;
          aq_w = t.n_queries;
          aq_windowed = windowed;
        }
        k
    in
    let missing = missing_before site order in
    if not (missing = 0 || Epsilon.try_charge q.eps missing) then
      consistent_path t site q ~et
    else begin
      t.n_charged_units <- t.n_charged_units + missing;
      Replica_site.Waits.start site.waits q;
      (match order with
      | Ticket point when windowed ->
          Trace.emit trace ~time:(Engine.now t.env.engine)
            (Trace.Query_window
               { w = t.n_queries; site = site_id; point; missing; keys })
      | Ticket _ | Stamp _ -> ());
      step t site q ~et keys
    end
  end

let flush t =
  match t.mode with
  | `Sequencer -> ()
  | `Lamport ->
      Array.iter
        (fun site ->
          let ts =
            Gtime.make ~counter:(Lamport.peek site.clock) ~site:site.d.id
          in
          site.watermarks.(site.d.id) <- ts;
          Squeue.broadcast t.fabric ~src:site.d.id (Watermark ts);
          drain_lamport t site;
          Replica_site.Waits.wake_ready site.waits)
        t.sites

let on_crash t ~site:site_id =
  let site = t.sites.(site_id) in
  Replica_site.crash t.env site.d (fun () ->
      (* Volatile order buffers are gone; the receipt journal ([t.wal])
         keeps the only durable copy of what they held. *)
      let buffered =
        Hashtbl.length site.seq_buffer + List.length site.lam_buffer
      in
      Hashtbl.reset site.seq_buffer;
      site.lam_buffer <- [];
      (* Parked queries fail immediately with a degraded answer; active
         queries are killed and finish degraded at their next step. *)
      let queries_failed = Replica_site.Waits.drop site.waits in
      (* Origin-side commit callbacks are volatile: clients of this site
         get a rejection.  The MSets themselves are already in the stable
         fabric and still commit everywhere (including here, after
         recovery). *)
      let orphaned =
        Replica_site.Origin_table.take t.pending_commits ~origin:site_id
      in
      List.iter (fun (_, k) -> k (Intf.Rejected "origin site crashed")) orphaned;
      {
        Replica_site.buffered;
        queries_failed;
        updates_rejected = List.length orphaned;
      })

let on_recover t ~site:site_id =
  let site = t.sites.(site_id) in
  if Replica_site.recover t.env site.d then begin
    (* The image is back; re-ingest the journaled-but-unapplied MSets into
       the order buffers.  The stable-queue backlog redelivers the rest. *)
    List.iter
      (fun mset ->
        match (t.mode, mset.order) with
        | `Sequencer, Ticket n -> Hashtbl.replace site.seq_buffer n mset
        | `Lamport, Stamp ts ->
            update_watermark site ~origin:mset.origin ts;
            site.lam_buffer <- insert_sorted mset site.lam_buffer
        | (`Sequencer | `Lamport), _ -> assert false)
      (Recovery.Wal.entries t.wal ~site:site_id);
    (match t.mode with
    | `Sequencer -> drain_sequencer t site
    | `Lamport -> drain_lamport t site);
    Replica_site.Waits.wake_ready site.waits
  end

(* Unapplied MSets straddling a cut stay in the receipt journal
   ([t.wal]); only the stable-queue dedup records are reclaimable. *)
let checkpoint t ~site =
  Replica_site.checkpoint t.env t.durable.(site) t.fabric

let backlog t =
  Array.fold_left
    (fun acc site ->
      acc + Hashtbl.length site.seq_buffer + List.length site.lam_buffer
      + Replica_site.Waits.size site.waits)
    (Replica_site.Origin_table.length t.pending_commits)
    t.sites

let quiescent t = backlog t = 0

let sites t = t.durable
let mvstore _ ~site:_ = None
let converged t = Replica_site.converged t.env t.durable

let stats t =
  [
    ("updates", float_of_int t.n_updates);
    ("queries", float_of_int t.n_queries);
    ("consistent_fallbacks", float_of_int t.n_fallbacks);
    ("charged_units", float_of_int t.n_charged_units);
  ]

let resources t ~site =
  Replica_site.resources ~wal:t.wal t.durable.(site) t.fabric
