(** COMMU — commutative operations (paper §3.2).

    Update MSets contain only mutually commutative operations (additive
    deltas here), so replicas may apply them in any arrival order and
    still converge: updates are ordered "at their completion time".
    Both queries and updates propagate asynchronously (Table 1).

    Divergence bounding uses per-object lock-counters: a site increments
    an object's counter when it applies an update MSet and decrements it
    when the update ET *completes* globally (all replicas applied it — the
    origin collects acks and broadcasts a completion notice).  A non-zero
    counter is in-flight inconsistency: a query reading the object is
    charged that many units, and an exhausted epsilon makes it wait for
    the counters to drain.  An optional update-side limit (§3.2's "the
    update ET trying to write must either wait or abort") gives
    back-pressure, swept by experiment E7. *)

module Op = Esr_store.Op
module Store = Esr_store.Store
module Keyspace = Esr_store.Keyspace
module Sharding = Esr_store.Sharding
module Et = Esr_core.Et
module Epsilon = Esr_core.Epsilon
module Lock_counter = Esr_cc.Lock_counter
module Engine = Esr_sim.Engine
module Squeue = Esr_squeue.Squeue
module Trace = Esr_obs.Trace
module Prof = Esr_obs.Prof

(* Ops carry keys pre-interned at the origin ({!Intf.iop}); the string
   name rides along for the lock counters and the durable log. *)
type mset = { et : Et.id; ops : Intf.iop list; origin : int }

(* Pending |delta| an operation contributes to its object's weight. *)
let op_weight = function
  | Op.Incr d -> Float.abs (float_of_int d)
  | Op.Read | Op.Write _ | Op.Mult _ | Op.Div _ | Op.Timed_write _ | Op.Append _
    -> 0.0

type msg =
  | Apply of mset
  | Applied of { et : Et.id; by : int }  (** ack back to the origin *)
  | Complete of { et : Et.id; charges : (string * float) list }

type site = {
  d : Replica_site.t;  (* the durable half: id, store, log, down flag *)
  gate : unit Replica_site.gate;
      (* the lock counters and the counter-gated query walk's waits; the
         counters are derivable from the durable log (applied-but-
         uncompleted ETs), so recovery keeps them: modelled as durable *)
  parked_updates : unit Replica_site.Waits.t;
}

(* Origin-side record of an update ET awaiting acks from all replicas. *)
type inflight = { charges : (string * float) list; mutable waiting_acks : int }

type t = {
  env : Intf.env;
  durable : Replica_site.t array;
  sites : site array;
  fabric : msg Squeue.t;
  inflight : (Et.id, inflight) Hashtbl.t;
  dests : Sharding.Dests.t;  (* scratch interest cursor (routing only) *)
  mutable n_updates : int;
  mutable n_queries : int;
  mutable n_rejected : int;
  mutable n_update_waits : int;
  tally : Replica_site.tally;  (* query waits and charged units *)
}

let meta =
  {
    Intf.name = "COMMU";
    family = Intf.Forward;
    restriction = "operation semantics";
    async_propagation = "Query & Update";
    sorting_time = "doesn't matter";
  }

let apply_mset_inner t site mset =
  let trace = t.env.Intf.obs.Esr_obs.Obs.trace in
  if Trace.on trace then
    Trace.emit trace ~time:(Engine.now t.env.engine)
      (Trace.Mset_applied
         { et = mset.et; site = site.d.id; n_ops = List.length mset.ops; order = None });
  List.iter
    (fun (i : Intf.iop) ->
      (* Partial replication: a site executes only the ops on keys it
         replicates (with the full map every op qualifies). *)
      if Sharding.replicates_id t.env.Intf.sharding ~site:site.d.id ~id:i.Intf.id
      then begin
        let key = i.Intf.key in
        ignore (Lock_counter.incr site.gate.counters key);
        ignore
          (Lock_counter.add_weight site.gate.counters key (op_weight i.Intf.op));
        (match Store.apply_id_unit site.d.store i.Intf.id i.Intf.op with
        | Ok () -> ()
        | Error _ -> invalid_arg "COMMU: commutative op failed to apply");
        Replica_site.log_action site.d ~et:mset.et ~key i.Intf.op
      end)
    mset.ops

let apply_mset t site mset =
  if Prof.on t.env.Intf.obs.Esr_obs.Obs.prof then
    Replica_site.timed t.env ~site:site.d.id Prof.Apply (fun () ->
        apply_mset_inner t site mset)
  else apply_mset_inner t site mset

let charges_of ops =
  List.map (fun (i : Intf.iop) -> (i.Intf.key, op_weight i.Intf.op)) ops

let complete_at t site charges =
  List.iter
    (fun (key, w) ->
      (* Only counters this site actually raised (it applied only the
         replicated subset of the MSet). *)
      if
        Sharding.replicates_id t.env.Intf.sharding ~site:site.d.id
          ~id:(Keyspace.find t.env.Intf.keyspace key)
      then begin
        ignore (Lock_counter.decr site.gate.counters key);
        ignore (Lock_counter.remove_weight site.gate.counters key w)
      end)
    charges;
  Replica_site.Waits.wake site.gate.waits;
  Replica_site.Waits.wake site.parked_updates

(* Interest set of an ET, rebuilt from its charge keys: the sites that
   replicate at least one touched shard.  Shared scratch cursor — valid
   only until the next [interested] call. *)
let interested t charges =
  let c = t.dests in
  Sharding.Dests.reset c;
  List.iter
    (fun (key, _) ->
      Sharding.Dests.add_id c (Keyspace.find t.env.Intf.keyspace key))
    charges;
  c

let receive t ~site:site_id msg =
  let site = t.sites.(site_id) in
  match msg with
  | Apply mset ->
      apply_mset t site mset;
      Squeue.send t.fabric ~src:site_id ~dst:mset.origin
        (Applied { et = mset.et; by = site_id })
  | Applied { et; by = _ } -> (
      match Hashtbl.find_opt t.inflight et with
      | None -> ()
      | Some record ->
          record.waiting_acks <- record.waiting_acks - 1;
          if record.waiting_acks = 0 then begin
            Hashtbl.remove t.inflight et;
            Squeue.multicast t.fabric ~src:site_id
              ~dests:(interested t record.charges)
              (Complete { et; charges = record.charges });
            complete_at t site record.charges
          end)
  | Complete { et = _; charges } -> complete_at t site charges

let create (env : Intf.env) =
  let durable = Replica_site.create env in
  let tally = { Replica_site.charged = 0; parks = 0 } in
  let rec t =
    lazy
      {
        env;
        durable;
        sites =
          Array.map
            (fun d ->
              {
                d;
                gate = Replica_site.gate env tally ();
                parked_updates = Replica_site.Waits.create ();
              })
            durable;
        fabric =
          Replica_site.fabric env ~mode:Squeue.Unordered (fun ~site ~src:_ msg ->
              receive (Lazy.force t) ~site msg);
        inflight = Hashtbl.create 32;
        dests = Sharding.Dests.cursor env.Intf.sharding;
        n_updates = 0;
        n_queries = 0;
        n_rejected = 0;
        n_update_waits = 0;
        tally;
      }
  in
  Lazy.force t

let intent_to_op = function
  | Intf.Add (k, d) -> Ok (k, Op.Incr d)
  | Intf.Set (k, _) ->
      Error (Printf.sprintf "COMMU: Set on %s is not commutative" k)
  | Intf.Mul (k, _) ->
      Error
        (Printf.sprintf
           "COMMU: Mul on %s does not commute with the additive class" k)

let submit_update t ~origin intents k =
  if t.durable.(origin).down then k (Intf.Rejected "origin site down")
  else
  let translated = List.map intent_to_op intents in
  match List.find_opt Result.is_error translated with
  | Some (Error message) ->
      t.n_rejected <- t.n_rejected + 1;
      k (Intf.Rejected message)
  | Some (Ok _) | None ->
      if intents = [] then k (Intf.Rejected "empty update ET")
      else begin
        t.n_updates <- t.n_updates + 1;
        let ops =
          List.map
            (fun r ->
              let key, op = Result.get_ok r in
              {
                Intf.id = Esr_store.Keyspace.intern t.env.Intf.keyspace key;
                key;
                op;
              })
            translated
        in
        let et = t.env.Intf.next_et () in
        let site = t.sites.(origin) in
        let keys = List.map Intf.iop_key ops in
        let charges = charges_of ops in
        (* An ET whose own |delta| exceeds the value limit can never be
           admitted; waiting would hang it forever. *)
        let impossible =
          match t.env.Intf.config.Intf.commu_value_limit with
          | None -> false
          | Some limit -> List.exists (fun (_, w) -> w > limit +. 1e-9) charges
        in
        if impossible then begin
          t.n_rejected <- t.n_rejected + 1;
          k (Intf.Rejected "COMMU: update exceeds the value limit outright")
        end
        else
        let rec attempt () =
          let count_exceeds =
            match t.env.Intf.config.Intf.commu_update_limit with
            | None -> false
            | Some limit ->
                List.exists
                  (fun key ->
                    Lock_counter.would_exceed site.gate.counters key ~limit)
                  keys
          in
          let value_exceeds =
            match t.env.Intf.config.Intf.commu_value_limit with
            | None -> false
            | Some limit ->
                List.exists
                  (fun (key, w) ->
                    Lock_counter.weight_would_exceed site.gate.counters key
                      ~added:w
                      ~limit)
                  charges
          in
          if count_exceeds || value_exceeds then
            match t.env.Intf.config.Intf.commu_limit_policy with
            | `Abort ->
                t.n_rejected <- t.n_rejected + 1;
                k
                  (Intf.Rejected
                     (if value_exceeds then "COMMU: value limit reached"
                      else "COMMU: lock-counter limit reached"))
            | `Wait ->
                t.n_update_waits <- t.n_update_waits + 1;
                let fail () =
                  (* The site crashed while the update waited for its
                     counters; the wait context is volatile, so the client
                     gets a rejection (the ET never applied anywhere). *)
                  t.n_rejected <- t.n_rejected + 1;
                  k (Intf.Rejected "COMMU: origin site crashed while waiting")
                in
                ignore
                  (Replica_site.Waits.park site.parked_updates ~resume:attempt
                     ~fail ())
          else begin
            let mset = { et; ops; origin } in
            Replica_site.trace_enqueued t.env ~et ~origin Intf.iop_key ops;
            apply_mset t site mset;
            (* Interest routing: the MSet travels only to sites replicating
               a touched shard.  With the full map that is everybody. *)
            let n_remote =
              let c = interested t charges in
              if Sharding.Dests.mem c origin then Sharding.Dests.count c - 1
              else Sharding.Dests.count c
            in
            if n_remote > 0 then begin
              Hashtbl.replace t.inflight et { charges; waiting_acks = n_remote };
              let propagate () =
                Squeue.multicast t.fabric ~src:origin
                  ~dests:(interested t charges) (Apply mset)
              in
              Replica_site.timed t.env ~site:origin Prof.Propagate propagate
            end
            else complete_at t site charges;
            (* The update ET commits locally and propagates asynchronously. *)
            k (Intf.Committed { committed_at = Engine.now t.env.engine })
          end
        in
        attempt ()
      end

let submit_query t ~site:site_id ~keys ~epsilon k =
  t.n_queries <- t.n_queries + 1;
  let site = t.sites.(site_id) in
  let et = t.env.Intf.next_et () in
  let q = Replica_site.query t.env site.d epsilon () k in
  if site.d.down then Replica_site.degraded q keys
  else if epsilon = Epsilon.Limit 0 then
    Replica_site.strict_read site.gate q ~et keys
  else begin
    Replica_site.Waits.start site.gate.waits q;
    Replica_site.gated_read site.gate q ~et keys
  end

let flush _ = ()

let on_crash t ~site:site_id =
  let site = t.sites.(site_id) in
  Replica_site.crash t.env site.d (fun () ->
      (* COMMU applies MSets on receipt, so there is no order buffer to
         lose.  The lock counters and origin-side ack tables are derivable
         from the durable log (applied-but-uncompleted ETs) — classic
         coordinator-log state — so they survive; acks and completions
         blocked by the outage arrive through the stable-queue backlog
         after recovery.  What dies is the wait contexts: parked and
         in-step queries answer degraded, parked (never-applied) updates
         are rejected. *)
      let queries_failed = Replica_site.Waits.drop site.gate.waits in
      let updates_rejected = Replica_site.Waits.drop site.parked_updates in
      { Replica_site.buffered = 0; queries_failed; updates_rejected })

let on_recover t ~site = ignore (Replica_site.recover t.env t.durable.(site))
let checkpoint t ~site = Replica_site.checkpoint t.env t.durable.(site) t.fabric

let backlog t =
  Array.fold_left
    (fun acc site ->
      acc
      + Replica_site.Waits.size site.gate.waits
      + Replica_site.Waits.size site.parked_updates)
    (Hashtbl.length t.inflight)
    t.sites

let quiescent t =
  backlog t = 0
  && Array.for_all
       (fun site -> Lock_counter.total_nonzero site.gate.counters = 0)
       t.sites

let sites t = t.durable
let mvstore _ ~site:_ = None

(* Shard-aware: a site is only compared on the keys it replicates. *)
let converged t = Replica_site.converged t.env t.durable

let stats t =
  [
    ("updates", float_of_int t.n_updates);
    ("queries", float_of_int t.n_queries);
    ("rejected", float_of_int t.n_rejected);
    ("query_waits", float_of_int t.tally.parks);
    ("update_waits", float_of_int t.n_update_waits);
    ("charged_units", float_of_int t.tally.charged);
  ]

let resources t ~site = Replica_site.resources t.durable.(site) t.fabric
