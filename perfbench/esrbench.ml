(* The repository benchmark: drives the simulator through the public
   [Esr_replica.Harness] API on a few named workloads, checks every run,
   and prints the end-to-end metrics (or, with --trace 1, the per-layer
   metrics) as one JSON object on the last line of stdout.

     esrbench --workload NAME --seed N --seconds S --trace 0|1

   Everything runs in this one process on one domain.  Inputs (arrivals,
   intents, fault schedules) are generated from the seed before any
   timing starts.  README.md gives the workloads, the metric
   definitions and which layer metric should move which end-to-end one. *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Harness = Esr_replica.Harness
module Intf = Esr_replica.Intf
module Sharding = Esr_store.Sharding
module Keyspace = Esr_store.Keyspace
module Store = Esr_store.Store
module Value = Esr_store.Value
module Epsilon = Esr_core.Epsilon
module Metrics = Esr_obs.Metrics
module Obs = Esr_obs.Obs
module Nemesis = Esr_fault.Nemesis
module Schedule = Esr_fault.Schedule
module Stats = Esr_util.Stats

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  sites : int;
  n_keys : int;
  duration : float;  (** virtual ms of arrivals *)
  update_rate : float;  (** update ETs per virtual ms, whole system *)
  query_rate : float;
  ops_per_update : int;
  keys_per_query : int;
  epsilon : Epsilon.spec;
  net : Net.config;
  factor : int option;  (** ring placement with this factor; [None] = full *)
  faults : Nemesis.profile option;
  checkpoint : float option;  (** checkpoint interval, virtual ms *)
  config : Intf.config;
  methods : string list;
  inputs : int;  (** distinct seeded inputs per pass *)
}

let zipf_theta = 0.6

let faulty_net = { Net.wan_config with Net.duplicate_probability = 0.01 }

let nemesis =
  {
    Nemesis.max_faults = 6;
    crash_bias = 0.6;
    min_window = 150.0;
    max_window = 600.0;
  }

let faulty_config =
  {
    Intf.default_config with
    Intf.retry_backoff = Some Esr_squeue.Squeue.default_backoff;
    compe_abort_probability = 0.05;
  }

let workloads =
  [
    {
      name = "fanout";
      sites = 50;
      n_keys = 20_000;
      duration = 8_000.0;
      update_rate = 0.25;
      query_rate = 0.05;
      ops_per_update = 2;
      keys_per_query = 2;
      epsilon = Epsilon.Unlimited;
      net = Net.default_config;
      factor = None;
      faults = None;
      checkpoint = None;
      config = Intf.default_config;
      methods = [ "ORDUP"; "COMMU"; "RITU"; "QUASI" ];
      inputs = 1;
    };
    {
      name = "sharded_reads";
      sites = 100;
      n_keys = 20_000;
      duration = 4_000.0;
      update_rate = 0.5;
      query_rate = 2.0;
      ops_per_update = 2;
      keys_per_query = 4;
      epsilon = Epsilon.Limit 1;
      net = Net.default_config;
      factor = Some 3;
      faults = None;
      checkpoint = None;
      config = Intf.default_config;
      methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE" ];
      inputs = 2;
    };
    {
      name = "faulty_wan";
      sites = 12;
      n_keys = 5_000;
      duration = 8_000.0;
      update_rate = 1.0;
      query_rate = 0.5;
      ops_per_update = 2;
      keys_per_query = 2;
      epsilon = Epsilon.Limit 1;
      net = faulty_net;
      factor = None;
      faults = Some nemesis;
      checkpoint = Some 500.0;
      config = faulty_config;
      methods = [ "ORDUP"; "COMMU"; "RITU"; "COMPE" ];
      inputs = 2;
    };
    {
      name = "sync_contended";
      sites = 12;
      n_keys = 5_000;
      duration = 10_000.0;
      update_rate = 0.15;
      query_rate = 0.1;
      ops_per_update = 2;
      keys_per_query = 2;
      epsilon = Epsilon.Limit 1;
      net = faulty_net;
      factor = None;
      faults = Some nemesis;
      checkpoint = Some 500.0;
      config = faulty_config;
      methods = [ "2PC"; "QUORUM" ];
      inputs = 2;
    };
  ]

(* RITU and QUORUM accept only timestamped overwrites; QUORUM only
   single-key ones.  Every other method gets commutative increments, on
   which the final state must equal the sum of the committed updates. *)
type profile = Additive | Blind

let profile_of = function "RITU" | "QUORUM" -> Blind | _ -> Additive
let ops_of w = function "QUORUM" -> 1 | _ -> w.ops_per_update

(* ------------------------------------------------------------------ *)
(* Input generation (before any timing)                                *)
(* ------------------------------------------------------------------ *)

type arrival =
  | Update of { at : float; origin : int; keys : int array; amounts : int array }
  | Query of { at : float; site : int; keys : int array }

type input = { seed : int; arrivals : arrival array; schedule : Schedule.t option }

let at_of = function Update { at; _ } | Query { at; _ } -> at

let zipf_cdf n theta =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let zipf_sample cdf rs =
  let u = Random.State.float rs 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) >= u then hi := mid else lo := mid + 1
  done;
  !lo

(* [n] key ranks accepted by [ok], distinct unless the skew makes that
   hard (the methods tolerate a repeated key in one ET). *)
let pick_keys ?(ok = fun _ -> true) cdf rs n =
  let keys = Array.make n (-1) in
  let rec sample () =
    let k = zipf_sample cdf rs in
    if ok k then k else sample ()
  in
  for i = 0 to n - 1 do
    let rec draw attempts =
      let k = sample () in
      let dup = ref false in
      for j = 0 to i - 1 do
        if keys.(j) = k then dup := true
      done;
      if !dup && attempts < 8 then draw (attempts + 1) else k
    in
    keys.(i) <- draw 0
  done;
  keys

let poisson_times rs ~rate ~duration =
  let times = ref [] and t = ref 0.0 in
  if rate > 0.0 then begin
    let continue = ref true in
    while !continue do
      t := !t -. (log (1.0 -. Random.State.float rs 1.0) /. rate);
      if !t < duration then times := !t :: !times else continue := false
    done
  end;
  List.rev !times

(* Ring placement, as a pure function of the workload.  Keys are interned
   in rank order before a run starts, so a key's id is its rank. *)
let placement w =
  Option.map
    (fun factor -> Sharding.create ~policy:Sharding.Ring ~factor ~sites:w.sites ())
    w.factor

let generate w ~seed ~index =
  let rs = Random.State.make [| seed; index; Hashtbl.hash w.name |] in
  let cdf = zipf_cdf w.n_keys zipf_theta in
  let updates =
    List.map
      (fun at ->
        let origin = Random.State.int rs w.sites in
        let keys = pick_keys cdf rs w.ops_per_update in
        let amounts =
          Array.init w.ops_per_update (fun _ -> 1 + Random.State.int rs 10)
        in
        Update { at; origin; keys; amounts })
      (poisson_times rs ~rate:w.update_rate ~duration:w.duration)
  in
  (* Under partial replication a query is homed on a replica of its first
     key and reads only keys that site holds. *)
  let sharding = placement w in
  let queries =
    List.map
      (fun at ->
        let site = Random.State.int rs w.sites in
        match sharding with
        | None -> Query { at; site; keys = pick_keys cdf rs w.keys_per_query }
        | Some s ->
            let first = zipf_sample cdf rs in
            let site = Sharding.route_site s ~id:first ~site in
            let ok id = Sharding.replicates_id s ~site ~id in
            let rest = pick_keys ~ok cdf rs (w.keys_per_query - 1) in
            Query { at; site; keys = Array.append [| first |] rest })
      (poisson_times rs ~rate:w.query_rate ~duration:w.duration)
  in
  let arrivals = Array.of_list (updates @ queries) in
  Array.stable_sort (fun a b -> compare (at_of a) (at_of b)) arrivals;
  (* The fault schedule belongs to the workload, not to the seed: which
     site crashes when (site 0 is ORDUP's sequencer) would otherwise
     dominate the seed-to-seed spread of every simulated latency. *)
  let schedule =
    Option.map
      (fun profile ->
        Nemesis.generate ~profile ~seed:(Hashtbl.hash (w.name, index))
          ~sites:w.sites ~duration:(w.duration *. 0.9) ())
      w.faults
  in
  { seed = Random.State.bits rs; arrivals; schedule }

(* The highest of p99/p95/p90/p50 (in per cent) with at least ten samples
   beyond it. *)
let tail_quantile n =
  List.find_opt
    (fun q -> float_of_int n *. (1.0 -. (q /. 100.0)) >= 10.0)
    [ 99.0; 95.0; 90.0; 50.0 ]
  |> Option.value ~default:50.0

let median l =
  let s = Stats.create () in
  List.iter (Stats.add s) l;
  Stats.median s

(* ------------------------------------------------------------------ *)
(* Tracing: spans recorded by the benchmark around its calls          *)
(* ------------------------------------------------------------------ *)

(* Engine steps are classed by how [Net.counters] moved during them, or
   as [arrival] when the step ran the benchmark's own arrival event: a
   delivery that sent (an ack at least) is [deliver_data], one that sent
   nothing [deliver_ack]; a step that delivered nothing is a [timer], and
   a timer that sent is also counted as a [resend].  Resends get a count
   but no times of their own: on loss-free workloads there are none, and
   a time that reads 0 on every run measures nothing. *)
let classes = [| "deliver_data"; "deliver_ack"; "arrival"; "timer" |]
let c_arrival = 2
let c_timer = 3

type span = { run : int; sname : string; start : int; stop : int; parent : string }

type tracer = {
  mutable run_id : int;
  mutable in_arrival : bool;
  count : int array;
  ns : int array;
  mutable child_ns : int;  (** submit spans nested in arrival steps *)
  words : float array;
  mutable resends : int;
  mutable spans : span list;
}

let tracer () =
  let n = Array.length classes in
  {
    run_id = 0;
    in_arrival = false;
    count = Array.make n 0;
    ns = Array.make n 0;
    child_ns = 0;
    words = Array.make n 0.0;
    resends = 0;
    spans = [];
  }

let span tr sname ?(parent = "") start stop =
  tr.spans <- { run = tr.run_id; sname; start; stop; parent } :: tr.spans

(* ------------------------------------------------------------------ *)
(* One (method, input) run                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  meth : string;
  input_index : int;
  setup_s : float;
  create_s : float;
  dispatch_s : float;  (** first event to [settle_result = Drained] *)
  settle_s : float;
  verify_s : float;
  alloc_words : float;
  applied : int;
  submitted_u : int;
  committed : int;
  rejected : int;
  submitted_q : int;
  served : int;
  commit_lat : Stats.t;
  query_lat : Stats.t;
  query_err : Stats.t;
  counters : Net.counters;
  processed : int;
  scheduled : int;
  cancelled : int;
  settle_note : string;
  converged : bool;
  oracle_ok : bool;
  store_hash : int;
  ok : bool;
  submit_u : Stats.t;  (** ns per [Harness.submit_update] (traced runs only) *)
  submit_q : Stats.t;  (** ns per [Harness.submit_query] (traced runs only) *)
  stats : Metrics.entry list;  (** registry snapshot (traced runs only) *)
}

let key_names w = Array.init w.n_keys (fun i -> "k" ^ string_of_int i)

let gc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* The peak live heap is sampled after a full major collection at this
   many evenly spaced virtual instants up to a run's last arrival, and
   once more when the engine has drained.  Sampling after a collection
   keeps the figure free of the garbage earlier runs left behind; draining
   in chunks runs the same events in the same order as [Engine.run].  The
   forced collections shift the GC's allocation counters a little, so
   allocation is counted in runs that do not sample. *)
let live_samples = 8

(* ORDUP and QUASI document this one rejection as uncertain: the origin
   crashed and lost its volatile commit callback, but the update may
   already be in the stable fabric and still commit everywhere.  Every
   other rejection means the update took effect nowhere. *)
let in_doubt meth reason =
  (meth = "ORDUP" || meth = "QUASI") && reason = "origin site crashed"

(* Set up one (method, input) run.  The oracle tables and every arrival's
   intents and callbacks are built first; the clock then covers only the
   program's set-up: [Harness.create] and arming arrivals, checkpoints and
   faults.  Returns the set-up seconds and the function that drives the
   run to quiescence and checks it.  With [live_peak], the run also raises
   it to the peak live major heap in words, measured as described at
   [live_samples]. *)
let prepare ?obs ?tracer ?live_peak w ~names ~input_index (input : input) meth =
  let profile = profile_of meth and n_ops = ops_of w meth in
  let replicas = match w.factor with Some f -> f | None -> w.sites in
  let sum = Array.make w.n_keys 0 in
  let last = Array.make w.n_keys Value.zero in
  let doubt = Array.make w.n_keys 0 in
  let submitted_u = ref 0 and committed = ref 0 and rejected = ref 0 in
  let submitted_q = ref 0 and served = ref 0 and applied = ref 0 in
  let commit_lat = Stats.create () in
  let query_lat = Stats.create () in
  let query_err = Stats.create () in
  let submit_u = Stats.create () and submit_q = Stats.create () in
  let timed samples sname f =
    match tracer with
    | None -> f ()
    | Some tr ->
        tr.in_arrival <- true;
        let t0 = now_ns () in
        f ();
        let t1 = now_ns () in
        Stats.add samples (float_of_int (t1 - t0));
        tr.child_ns <- tr.child_ns + (t1 - t0);
        span tr sname ~parent:"engine.step.arrival" t0 t1
  in
  (* [fire a h] is the event that submits arrival [a] to harness [h]. *)
  let fire = function
    | Update { at; origin; keys; amounts } ->
        let keys = Array.sub keys 0 n_ops in
        let intents =
          List.init n_ops (fun i ->
              let key = names.(keys.(i)) in
              match profile with
              | Additive -> Intf.Add (key, amounts.(i))
              | Blind -> Intf.Set (key, Value.Int amounts.(i)))
        in
        let on_outcome = function
          | Intf.Committed { committed_at } ->
              incr committed;
              applied := !applied + (n_ops * replicas);
              Stats.add commit_lat (committed_at -. at);
              Array.iteri
                (fun i k ->
                  sum.(k) <- sum.(k) + amounts.(i);
                  last.(k) <- Value.Int amounts.(i))
                keys
          | Intf.Rejected reason ->
              incr rejected;
              if in_doubt meth reason then
                Array.iteri (fun i k -> doubt.(k) <- doubt.(k) + amounts.(i)) keys
        in
        fun h () ->
          incr submitted_u;
          timed submit_u "replica.submit_update" (fun () ->
              Harness.submit_update h ~origin intents on_outcome)
    | Query { at; site; keys } ->
        let key_names = List.map (fun k -> names.(k)) (Array.to_list keys) in
        let rank key =
          let rec find i = if names.(keys.(i)) = key then keys.(i) else find (i + 1) in
          find 0
        in
        let on_served (o : Intf.query_outcome) =
          incr served;
          Stats.add query_lat (o.Intf.served_at -. at);
          let err =
            List.fold_left
              (fun acc (key, v) ->
                let r = rank key in
                match (profile, v) with
                | Additive, Value.Int x -> acc +. float_of_int (abs (x - sum.(r)))
                | _ -> if Value.equal v last.(r) then acc else acc +. 1.0)
              0.0 o.Intf.values
          in
          Stats.add query_err err
        in
        fun h () ->
          incr submitted_q;
          timed submit_q "replica.submit_query" (fun () ->
              Harness.submit_query h ~site ~keys:key_names ~epsilon:w.epsilon
                on_served)
  in
  let fires = Array.map fire input.arrivals in
  let engine_hint = 4 * Array.length input.arrivals in
  let sharding = placement w in
  let checkpoint =
    Option.map
      (fun interval -> { Esr_replica.Checkpoint.interval; retain = 2 })
      w.checkpoint
  in
  Gc.full_major ();
  let t_setup = now_ns () in
  let h =
    Harness.create ~config:w.config ~net_config:w.net ~seed:input.seed
      ~store_hint:w.n_keys ~engine_hint ?sharding ?obs ?checkpoint
      ~sites:w.sites ~method_name:meth ()
  in
  let t_created = now_ns () in
  (* Interning the key names in rank order is the benchmark's own work,
     so the clock stops around it. *)
  let ks = (Harness.env h).Intf.keyspace in
  if sharding <> None then
    Array.iteri
      (fun r k ->
        if Keyspace.intern ks k <> r then failwith "esrbench: key ids must be ranks")
      names;
  let t_interned = now_ns () in
  let engine = Harness.engine h and net = Harness.net h in
  Array.iteri
    (fun i a -> ignore (Engine.schedule_at engine ~time:(at_of a) (fires.(i) h)))
    input.arrivals;
  Harness.arm_checkpoints h ~until:w.duration;
  Option.iter (Harness.inject_faults h) input.schedule;
  let t_armed = now_ns () in
  let setup_s = secs (t_created - t_setup + (t_armed - t_interned)) in
  ( setup_s,
    fun () ->
      let w0 = gc_words () in
      (* Drain the arrivals step by step, then let [settle_result] run the
         flush rounds; the untraced path runs the same events via
         [Engine.run], so both paths simulate identically. *)
      (match (tracer, live_peak) with
      | None, None -> Engine.run engine
      | None, Some peak ->
          let sample () =
            Gc.full_major ();
            peak := Stdlib.max !peak (Gc.quick_stat ()).Gc.live_words
          in
          let last = at_of input.arrivals.(Array.length input.arrivals - 1) in
          for k = 1 to live_samples do
            Engine.run engine
              ~until:(last *. float_of_int k /. float_of_int live_samples);
            sample ()
          done;
          Engine.run engine;
          sample ()
      | Some tr, _ ->
          let rec loop () =
            let c0 = Net.counters net in
            tr.in_arrival <- false;
            let m0 = Gc.minor_words () in
            let s0 = now_ns () in
            let more = Engine.step engine in
            let s1 = now_ns () in
            let m1 = Gc.minor_words () in
            if more then begin
              let c1 = Net.counters net in
              let sent = c1.Net.sent - c0.Net.sent
              and delivered = c1.Net.delivered - c0.Net.delivered in
              let c =
                if tr.in_arrival then c_arrival
                else if delivered > 0 then if sent > 0 then 0 else 1
                else begin
                  if sent > 0 then tr.resends <- tr.resends + 1;
                  c_timer
                end
              in
              tr.count.(c) <- tr.count.(c) + 1;
              tr.ns.(c) <- tr.ns.(c) + (s1 - s0);
              tr.words.(c) <- tr.words.(c) +. (m1 -. m0);
              loop ()
            end
          in
          loop ());
      let t_settle = now_ns () in
      let outcome = Harness.settle_result h in
      let t_done = now_ns () in
      let alloc_words = gc_words () -. w0 in
      (* Correctness gate: drained, converged, and on additive profiles every
         replica of every key holds the sum of the committed updates, plus at
         most the in-doubt ones. *)
      let converged = Harness.converged h in
      let oracle_ok = ref true and hash = ref 0 in
      let ids = Array.map (Keyspace.find ks) names in
      for site = 0 to w.sites - 1 do
        let store = Harness.store h ~site in
        for r = 0 to w.n_keys - 1 do
          let id = ids.(r) in
          let held =
            match sharding with
            | None -> true
            | Some s -> id >= 0 && Sharding.replicates_id s ~site ~id
          in
          if held then begin
            let v = if id < 0 then Value.zero else Store.get_id store id in
            (hash :=
               match v with
               | Value.Int x -> (!hash * 31) + x
               | Value.Str s -> (!hash * 31) + Hashtbl.hash s);
            if profile = Additive then
              match v with
              | Value.Int x when x >= sum.(r) && x <= sum.(r) + doubt.(r) -> ()
              | _ -> oracle_ok := false
          end
        done
      done;
      let t_verified = now_ns () in
      let drained, settle_note =
        match outcome with
        | Harness.Drained -> (true, "drained")
        | Harness.Stuck r -> (false, Harness.stuck_reason_to_string r)
      in
      let stats = match tracer with None -> [] | Some _ -> Harness.stats h in
      Option.iter
        (fun tr ->
          span tr "harness.create" t_setup t_created;
          span tr "replica.run" t_armed t_done;
          span tr "harness.settle" ~parent:"replica.run" t_settle t_done;
          span tr "verify" t_done t_verified)
        tracer;
      {
        meth;
        input_index;
        setup_s;
        create_s = secs (t_created - t_setup);
        dispatch_s = secs (t_done - t_armed);
        settle_s = secs (t_done - t_settle);
        verify_s = secs (t_verified - t_done);
        alloc_words;
        applied = !applied;
        submitted_u = !submitted_u;
        committed = !committed;
        rejected = !rejected;
        submitted_q = !submitted_q;
        served = !served;
        commit_lat;
        query_lat;
        query_err;
        counters = Net.counters net;
        processed = Engine.processed engine;
        scheduled = Engine.scheduled engine;
        cancelled = Engine.cancelled engine;
        settle_note;
        converged;
        oracle_ok = !oracle_ok;
        store_hash = !hash land 0xffffffff;
        ok = drained && converged && !oracle_ok;
        submit_u;
        submit_q;
        stats;
      } )

let run_one ?obs ?tracer ?live_peak w ~names ~input_index input meth =
  snd (prepare ?obs ?tracer ?live_peak w ~names ~input_index input meth) ()

(* ------------------------------------------------------------------ *)
(* Passes, digests and metrics                                         *)
(* ------------------------------------------------------------------ *)

(* One pass runs every method of the workload on every input. *)
let pass ?tracer ?live_peak w ~names inputs =
  List.concat
    (List.mapi
       (fun input_index input ->
         List.map
           (fun meth ->
             Option.iter (fun tr -> tr.run_id <- tr.run_id + 1) tracer;
             run_one ?tracer ?live_peak w ~names ~input_index input meth)
           w.methods)
       inputs)

(* The simulated statistics of a run: a speed-only change must leave
   every digest line unchanged. *)
let print_digest w r =
  let c = r.counters in
  Printf.printf
    "digest %s %s input=%d committed=%d rejected=%d served=%d/%d sent=%d \
     delivered=%d lost=%d blocked=%d duplicated=%d processed=%d store=%08x \
     gate=%s\n"
    w.name r.meth r.input_index r.committed r.rejected r.served r.submitted_q
    c.Net.sent c.Net.delivered c.Net.lost c.Net.blocked c.Net.duplicated
    r.processed r.store_hash
    (if r.ok then "ok"
     else
       Printf.sprintf "FAIL(%s%s%s)" r.settle_note
         (if r.converged then "" else ",diverged")
         (if r.oracle_ok then "" else ",oracle-mismatch"))

let print_summary r =
  let q = Stats.percentile in
  Printf.printf
    "  method %-7s setup_s=%.4f dispatch_s=%.4f applied=%d commit_p50/p99=%.1f/%.1f \
     query_p50/p99=%.1f/%.1f query_err_mean=%.4f (n=%d)\n"
    r.meth r.setup_s r.dispatch_s r.applied (q r.commit_lat 50.0) (q r.commit_lat 99.0)
    (q r.query_lat 50.0) (q r.query_lat 99.0) (Stats.mean r.query_err)
    (Stats.count r.query_err)

let sumi f l = List.fold_left (fun a x -> a + f x) 0 l

(* The samples of every run in [rs], pooled. *)
let pool f rs =
  List.fold_left (fun acc r -> Stats.merge acc (f r)) (Stats.create ()) rs
let sumf f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* An [info] metric is printed for people but left out of the JSON. *)
type metric = {
  mname : string;
  value : float;
  unit_ : string;
  note : string;
  info : bool;
}

let m ?(note = "") ?(info = false) mname unit_ value =
  { mname; value; unit_; note; info }

(* The (input, method) runs of one pass, in pass order. *)
let run_keys w =
  List.concat
    (List.init w.inputs (fun i -> List.map (fun meth -> (i, meth)) w.methods))

(* The end-to-end metrics.  Simulated ones and the peak live heap come
   from the first pass, which a fixed seed makes repeat exactly, and
   [alloc_words] (the words all runs of one pass allocated) from the first
   timed pass, which repeats exactly too.  Host times come from the timed
   passes: [dispatch] and
   [setups] hold each (input, method) run's samples, and each run
   contributes the median of its samples, which keeps a burst of machine
   noise in one pass out of the figure.  Throughput is printed but not
   part of the JSON: on a shared machine its run-to-run spread is wider
   than any bound a regression gate could use (see README.md). *)
let end_to_end w ~first ~dispatch ~setups ~alloc_words ~peak_heap_words =
  let commit = pool (fun r -> r.commit_lat) first in
  let query = pool (fun r -> r.query_lat) first in
  let medians samples = sumf (fun (_, l) -> median l) samples in
  let applied = sumi (fun r -> r.applied) first in
  let completed =
    sumi (fun r -> if r.ok then r.committed + r.served else 0) first
  in
  let submitted = sumi (fun r -> r.submitted_u + r.submitted_q) first in
  [
    m "setup_s" "s"
      (medians setups /. float_of_int w.inputs)
      ~note:
        (Printf.sprintf "per input; medians of %d set-ups"
           (List.length (snd (List.hd setups))));
    m "updates_per_s" "1/s" ~info:true
      (ratio (float_of_int applied) (medians dispatch))
      ~note:
        (Printf.sprintf "medians of %d timed passes; printed only"
           (List.length (snd (List.hd dispatch))));
    m "peak_heap_mb" "MB"
      (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    m "alloc_words_per_op" "words/op"
      (ratio alloc_words (float_of_int applied));
    m "commit_mean_vms" "vms" (Stats.mean commit)
      ~note:
        (Printf.sprintf "n=%d, p50=%g" (Stats.count commit) (Stats.median commit));
    m "commit_p90_vms" "vms" (Stats.percentile commit 90.0)
      ~note:
        (Printf.sprintf "n=%d, p95=%g, p%g=%g" (Stats.count commit)
           (Stats.percentile commit 95.0)
           (tail_quantile (Stats.count commit))
           (Stats.percentile commit (tail_quantile (Stats.count commit))));
    m "query_mean_vms" "vms" (Stats.mean query)
      ~note:
        (Printf.sprintf "n=%d, p50=%g, p%g=%g" (Stats.count query)
           (Stats.median query)
           (tail_quantile (Stats.count query))
           (Stats.percentile query (tail_quantile (Stats.count query))));
    m "msgs_per_update" "msgs"
      (ratio
         (float_of_int (sumi (fun r -> r.counters.Net.sent) first))
         (float_of_int (sumi (fun r -> r.committed) first)));
    m "completed_frac" "ratio"
      (ratio (float_of_int completed) (float_of_int submitted))
      ~note:(Printf.sprintf "%d of %d ETs" completed submitted);
  ]

(* A registry instrument of a run, combined over sites (summed by
   default). *)
let stat ?(combine = ( +. )) r group name =
  List.fold_left
    (fun acc (e : Metrics.entry) ->
      if e.Metrics.group = group && e.Metrics.name = name then
        match e.Metrics.view with
        | Metrics.Counter_v v | Metrics.Gauge_v v -> combine acc v
        | Metrics.Histogram_v _ -> acc
      else acc)
    0.0 r.stats

(* Per-layer metrics of one traced pass [rs]; [plain_s] is the dispatch
   time of the untraced pass on the same inputs. *)
let per_layer w tr rs ~plain_s =
  let sum_stat g n = sumf (fun r -> stat r g n) rs in
  let mean_runs f = sumf f rs /. float_of_int (List.length rs) in
  let max_runs f = List.fold_left (fun a r -> Float.max a (f r)) 0.0 rs in
  let of_meth meth = List.filter (fun r -> r.meth = meth) rs in
  let method_ratio meth num den =
    let runs = of_meth meth in
    ratio (sumf (fun r -> num r) runs) (sumf (fun r -> den r) runs)
  in
  let c f = float_of_int (sumi (fun r -> f r.counters) rs) in
  let sent = c (fun c -> c.Net.sent) in
  let applied = float_of_int (sumi (fun r -> r.applied) rs) in
  let median_of f = Stats.median (pool f rs) in
  let steps =
    List.concat
      (List.mapi
         (fun i cls ->
           let n = tr.count.(i) in
           let p = "engine.step." ^ cls in
           [
             m (p ^ ".count") "count" (float_of_int n);
             m (p ^ ".ns") "ns" (ratio (float_of_int tr.ns.(i)) (float_of_int n));
             m (p ^ ".s") "s"
               (secs (tr.ns.(i) - if i = c_arrival then tr.child_ns else 0));
             m (p ^ ".words") "words" (ratio tr.words.(i) (float_of_int n));
           ])
         (Array.to_list classes))
  in
  let traced_s = sumf (fun r -> r.dispatch_s) rs in
  [
    m "harness.create_s" "s" (median (List.map (fun r -> r.create_s) rs));
    m "harness.settle_s" "s" (sumf (fun r -> r.settle_s) rs);
    m "harness.flush_rounds" "count" (sum_stat "harness" "flush_rounds");
    m "harness.verify_s" "s" (sumf (fun r -> r.verify_s) rs);
    m "replica.run_s" "s" traced_s;
    m "replica.submit_update_ns" "ns" (median_of (fun r -> r.submit_u));
    m "replica.submit_query_ns" "ns" (median_of (fun r -> r.submit_q));
    m "esr.query_error_mean" "value" (Stats.mean (pool (fun r -> r.query_err) rs));
    m "engine.events_per_op" "events/op"
      (ratio (float_of_int (sumi (fun r -> r.processed) rs)) applied);
    m "engine.cancel_ratio" "ratio"
      (ratio
         (float_of_int (sumi (fun r -> r.cancelled) rs))
         (float_of_int (sumi (fun r -> r.scheduled) rs)));
  ]
  @ steps
  @ [
      m "engine.step.resend.count" "count" (float_of_int tr.resends);
      m "net.delivered_ratio" "ratio" (ratio (c (fun c -> c.Net.delivered)) sent);
      m "net.lost_ratio" "ratio" (ratio (c (fun c -> c.Net.lost)) sent);
      m "net.blocked_ratio" "ratio" (ratio (c (fun c -> c.Net.blocked)) sent);
      m "net.dup_ratio" "ratio" (ratio (c (fun c -> c.Net.duplicated)) sent);
      m "squeue.retransmit_ratio" "ratio"
        (ratio (sum_stat "squeue" "retransmissions") (sum_stat "squeue" "enqueued"));
      m "squeue.dup_suppressed_ratio" "ratio"
        (ratio
           (sum_stat "squeue" "duplicates_suppressed")
           (sum_stat "squeue" "delivered_first"
           +. sum_stat "squeue" "duplicates_suppressed"));
      m "squeue.acks_per_msg" "ratio"
        (ratio (sum_stat "squeue" "acks_received") (sum_stat "squeue" "enqueued"));
      m "store.words_per_site" "words"
        (mean_runs (fun r -> stat r "res" "store_words" /. float_of_int w.sites));
      m "log.entries_per_site" "count"
        (mean_runs (fun r -> stat r "res" "log_entries" /. float_of_int w.sites));
      m "wal.high_water" "count"
        (max_runs (fun r -> stat ~combine:Float.max r "res" "wal_high_water"));
      m "ckpt.cuts" "count" (mean_runs (fun r -> stat r "ckpt" "cuts"));
      m "ckpt.max_tail" "count"
        (max_runs (fun r -> stat ~combine:Float.max r "ckpt" "max_tail"));
      m "twopc.lock_waits_per_update" "ratio"
        (method_ratio "2PC"
           (fun r -> stat r "method" "lock_waits")
           (fun r -> float_of_int r.submitted_u));
      m "twopc.abort_ratio" "ratio"
        (method_ratio "2PC"
           (fun r -> stat r "method" "aborted")
           (fun r -> float_of_int r.submitted_u));
      m "commu.waits_per_update" "ratio"
        (method_ratio "COMMU"
           (fun r -> stat r "method" "update_waits" +. stat r "method" "query_waits")
           (fun r -> float_of_int r.submitted_u));
      m "bench.trace_overhead" "ratio" (ratio traced_s plain_s);
    ]

(* Host-time ratio of the same run with the program's own tracing or
   profiler on, against off: median over [reps] interleaved triples. *)
let obs_overheads w ~names input meth ~reps =
  let time obs = (run_one ?obs w ~names ~input_index:0 input meth).dispatch_s in
  let tr = ref [] and pr = ref [] in
  for _ = 1 to reps do
    let plain = time None in
    let traced = time (Some (Obs.create ~tracing:true ~trace_capacity:65_536 ())) in
    let profiled = time (Some (Obs.create ~profiling:true ())) in
    tr := (traced /. plain) :: !tr;
    pr := (profiled /. plain) :: !pr
  done;
  [
    m "obs.trace_overhead" "ratio" (median !tr);
    m "obs.prof_overhead" "ratio" (median !pr);
  ]

let write_spans path w tr rs =
  let oc = open_out path in
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "{\"type\":\"run\",\"run\":%d,\"workload\":%S,\"method\":%S,\"input\":%d}\n"
        (i + 1) w.name r.meth r.input_index)
    rs;
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"type\":\"span\",\"run\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%S}\n"
        s.run s.sname s.start s.stop s.parent)
    (List.rev tr.spans);
  Array.iteri
    (fun i cls ->
      Printf.fprintf oc
        "{\"type\":\"step_class\",\"name\":\"engine.step.%s\",\"count\":%d,\"total_ns\":%d,\"child_ns\":%d,\"minor_words\":%.0f}\n"
        cls tr.count.(i) tr.ns.(i)
        (if i = c_arrival then tr.child_ns else 0)
        tr.words.(i))
    classes;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if not (Float.is_finite v) then failwith "esrbench: non-finite metric"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x ->
      Printf.printf "  %-36s %18.6f %-9s %s\n" x.mname x.value x.unit_ x.note)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.filter_map
          (fun x ->
            if x.info then None
            else
              Some
                (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.mname
                   (json_number x.value) x.unit_))
          metrics))

(* Set-ups each timed pass adds per run beyond the one it drives. *)
let extra_setups = 10

let usage () =
  prerr_endline
    "usage: esrbench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: fanout sharded_reads faulty_wan sync_contended";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w =
    match List.find_opt (fun w -> w.name = get "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let trace =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let names = key_names w in
  let inputs = List.init w.inputs (fun index -> generate w ~seed ~index) in
  let start = now_ns () in
  let elapsed () = secs (now_ns () - start) in
  let gate rs =
    let failed = List.length (List.filter (fun r -> not r.ok) rs) in
    (List.length rs, failed)
  in
  if not trace then begin
    let live_peak = ref 0 in
    let first = pass ~live_peak w ~names inputs in
    List.iter (print_digest w) first;
    List.iter print_summary first;
    let keys = run_keys w in
    let dispatch = Hashtbl.create 16 and setups = Hashtbl.create 16 in
    let add tbl key v =
      Hashtbl.replace tbl key (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[])
    in
    let attempted = ref (List.length first) and failed = ref 0 in
    let alloc_words = ref 0.0 in
    let passes = ref 0 in
    while !passes = 0 || elapsed () < seconds do
      incr passes;
      let line =
        List.map
          (fun ((input_index, meth) as key) ->
            let input = List.nth inputs input_index in
            for _ = 1 to extra_setups do
              add setups key (fst (prepare w ~names ~input_index input meth))
            done;
            let setup_s, run = prepare w ~names ~input_index input meth in
            let r = run () in
            add setups key setup_s;
            add dispatch key r.dispatch_s;
            if !passes = 1 then alloc_words := !alloc_words +. r.alloc_words;
            incr attempted;
            if not r.ok then incr failed;
            Printf.sprintf "%s=%.3fs" meth r.dispatch_s)
          keys
      in
      Printf.printf "  pass %d: %s\n%!" !passes (String.concat " " line)
    done;
    let samples tbl = List.map (fun k -> (k, Hashtbl.find tbl k)) keys in
    let failed = !failed + List.length (List.filter (fun r -> not r.ok) first) in
    print_result ~correct:(failed = 0) ~attempted:!attempted ~failed
      (end_to_end w ~first ~dispatch:(samples dispatch) ~setups:(samples setups)
         ~alloc_words:!alloc_words ~peak_heap_words:!live_peak)
  end
  else begin
    let pairs = ref [] in
    while !pairs = [] || elapsed () < seconds do
      let plain = pass w ~names inputs in
      let tr = tracer () in
      let traced = pass ~tracer:tr w ~names inputs in
      pairs := (plain, tr, traced) :: !pairs
    done;
    let _, tr, traced = List.hd !pairs in
    List.iter (print_digest w) traced;
    let layers =
      List.map
        (fun (plain, tr, traced) ->
          per_layer w tr traced ~plain_s:(sumf (fun r -> r.dispatch_s) plain))
        !pairs
    in
    let layer_metrics =
      List.mapi
        (fun i x ->
          { x with value = median (List.map (fun l -> (List.nth l i).value) layers) })
        (List.hd layers)
    in
    let obs =
      obs_overheads w ~names (List.hd inputs) (List.hd w.methods) ~reps:3
    in
    let dir = ".bench_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir w.name seed in
    write_spans path w tr traced;
    Printf.printf "spans -> %s\n" path;
    List.iter
      (fun r ->
        Printf.printf "  method %-7s run_s=%.4f submit_update_ns(p50)=%.0f submit_query_ns(p50)=%.0f\n"
          r.meth r.dispatch_s
          (Stats.median r.submit_u) (Stats.median r.submit_q))
      traced;
    let attempted, failed =
      gate (List.concat_map (fun (p, _, t) -> p @ t) !pairs)
    in
    print_result ~correct:(failed = 0) ~attempted ~failed (layer_metrics @ obs)
  end
