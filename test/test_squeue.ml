(* Tests for Esr_squeue: reliable, exactly-once-to-the-handler delivery on
   top of the lossy network. *)

module Engine = Esr_sim.Engine
module Net = Esr_sim.Net
module Squeue = Esr_squeue.Squeue
module Prng = Esr_util.Prng
module Dist = Esr_util.Dist

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let mk ?(config = Net.default_config) ?(sites = 2) ?(mode = Squeue.Unordered)
    ?(retry = 50.0) seed =
  let e = Engine.create () in
  let net = Net.create ~config e ~sites ~prng:(Prng.create seed) in
  let received = Array.make sites [] in
  let q =
    Squeue.create ~mode ~retry_interval:retry net ~handler:(fun ~site ~src msg ->
        received.(site) <- (src, msg) :: received.(site))
  in
  (e, net, q, received)

let test_basic_delivery () =
  let e, _, q, received = mk 1 in
  Squeue.send q ~src:0 ~dst:1 "hello";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ (0, "hello") ] received.(1);
  checki "no pending" 0 (Squeue.pending q)

let test_lossy_link_retries () =
  let config = { Net.default_config with drop_probability = 0.4 } in
  let e, _, q, received = mk ~config 7 in
  for i = 0 to 49 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  checki "all 50 delivered" 50 (List.length received.(1));
  checki "no pending" 0 (Squeue.pending q);
  let c = Squeue.counters q in
  checkb "retransmissions happened" true (c.Squeue.retransmissions > 0)

let test_exactly_once_under_duplication () =
  let config = { Net.default_config with duplicate_probability = 0.5 } in
  let e, _, q, received = mk ~config 3 in
  for i = 0 to 29 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  checki "exactly once each" 30 (List.length received.(1));
  let sorted = List.sort compare (List.map snd received.(1)) in
  Alcotest.(check (list int)) "each message once" (List.init 30 Fun.id) sorted;
  checkb "duplicates suppressed" true
    ((Squeue.counters q).Squeue.duplicates_suppressed > 0)

let test_fifo_ordering_under_chaos () =
  let config =
    {
      Net.latency = Dist.Uniform (1.0, 50.0);
      drop_probability = 0.2;
      duplicate_probability = 0.2;
    }
  in
  let e, _, q, received = mk ~config ~mode:Squeue.Fifo 11 in
  for i = 0 to 99 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO order preserved" (List.init 100 Fun.id)
    (List.rev_map snd received.(1))

let test_unordered_may_reorder () =
  let config = { Net.default_config with latency = Dist.Uniform (1.0, 100.0) } in
  let e, _, q, received = mk ~config ~mode:Squeue.Unordered 5 in
  for i = 0 to 49 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  checki "all delivered" 50 (List.length received.(1));
  let arrival_order = List.rev_map snd received.(1) in
  checkb "some reordering observed" true (arrival_order <> List.init 50 Fun.id)

let test_broadcast () =
  let e, _, q, received = mk ~sites:4 1 in
  Squeue.broadcast q ~src:2 "b";
  Engine.run e;
  checki "site0" 1 (List.length received.(0));
  checki "site1" 1 (List.length received.(1));
  checki "self excluded" 0 (List.length received.(2));
  checki "site3" 1 (List.length received.(3))

let test_crash_recovery_redelivers () =
  let e, net, q, received = mk ~retry:20.0 9 in
  Net.crash net 1;
  Squeue.send q ~src:0 ~dst:1 "persistent";
  (* While the destination is down, retries keep the message pending. *)
  Engine.run ~until:500.0 e;
  checki "not delivered while down" 0 (List.length received.(1));
  checkb "still pending" true (Squeue.pending q > 0);
  Net.recover net 1;
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered after recovery"
    [ (0, "persistent") ] received.(1);
  checki "drained" 0 (Squeue.pending q)

let test_partition_heals_and_delivers () =
  let e, net, q, received = mk ~sites:4 ~retry:20.0 13 in
  Net.partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  Squeue.send q ~src:0 ~dst:3 "across";
  Engine.run ~until:300.0 e;
  checki "blocked during partition" 0 (List.length received.(3));
  Net.heal net;
  Engine.run e;
  checki "delivered after heal" 1 (List.length received.(3));
  checki "drained" 0 (Squeue.pending q)

let test_bidirectional_channels_independent () =
  let e, _, q, received = mk 15 in
  Squeue.send q ~src:0 ~dst:1 "a";
  Squeue.send q ~src:1 ~dst:0 "b";
  Engine.run e;
  Alcotest.(check (list (pair int string))) "0 got b" [ (1, "b") ] received.(0);
  Alcotest.(check (list (pair int string))) "1 got a" [ (0, "a") ] received.(1)

let test_counters_consistency () =
  let config = { Net.default_config with drop_probability = 0.3 } in
  let e, _, q, _ = mk ~config 21 in
  for i = 0 to 19 do
    Squeue.send q ~src:0 ~dst:1 i
  done;
  Engine.run e;
  let c = Squeue.counters q in
  checki "enqueued" 20 c.Squeue.enqueued;
  checki "first deliveries" 20 c.Squeue.delivered_first;
  checki "acks" 20 c.Squeue.acks_received

let prop_exactly_once_under_random_crashes =
  QCheck.Test.make
    ~name:"exactly-once delivery under random crash/recover schedules"
    ~count:40
    QCheck.(triple (int_range 1 100_000) (int_range 1 25) (list_of_size Gen.(int_range 1 6) (pair (int_range 0 800) (int_range 0 1))))
    (fun (seed, n, outages) ->
      let config =
        { Net.default_config with drop_probability = 0.15; duplicate_probability = 0.1 }
      in
      let e, net, q, received = mk ~config ~sites:3 ~retry:25.0 seed in
      (* Random crash windows on the destination site. *)
      List.iter
        (fun (start, len_factor) ->
          let start = float_of_int start in
          let duration = float_of_int ((len_factor + 1) * 100) in
          ignore (Engine.schedule e ~delay:start (fun () -> Net.crash net 1));
          ignore
            (Engine.schedule e ~delay:(start +. duration) (fun () ->
                 Net.recover net 1)))
        outages;
      for i = 0 to n - 1 do
        ignore
          (Engine.schedule e ~delay:(float_of_int (i * 10)) (fun () ->
               Squeue.send q ~src:0 ~dst:1 i))
      done;
      (* Make sure the final recovery is scheduled after every outage. *)
      ignore (Engine.schedule e ~delay:5_000.0 (fun () -> Net.recover net 1));
      Engine.run e;
      let got = List.sort compare (List.map snd received.(1)) in
      got = List.init n Fun.id && Squeue.pending q = 0)

let prop_lossy_fifo_always_delivers_in_order =
  QCheck.Test.make ~name:"fifo delivers everything in order under loss"
    ~count:30
    QCheck.(pair (int_range 1 1000) (int_range 1 40))
    (fun (seed, n) ->
      let config = { Net.default_config with drop_probability = 0.35 } in
      let e, _, q, received = mk ~config ~mode:Squeue.Fifo seed in
      for i = 0 to n - 1 do
        Squeue.send q ~src:0 ~dst:1 i
      done;
      Engine.run e;
      List.rev_map snd received.(1) = List.init n Fun.id
      && Squeue.pending q = 0)

(* A duplicate storm on channel 0 -> 1 of a 3-site fabric: [n] messages
   10 ms apart over links with 20% loss, 40% duplication and wide latency
   spread, while the receiver crashes once and recovers.  Returns how
   often each message reached the handler and how many duplicates arrived
   *late*: while the sender's journal was empty, so the duplicate's seq
   was certainly acked and its journal slot released.  Such a duplicate
   must be dropped by the dedup check alone — a journal lookup for it
   would hand up whatever payload the slot holds now.  Also returns the
   sender's peak journal depth, the largest window its ring had to hold. *)
let dup_storm ~mode ~seed ~n ~crash_at ~down_for =
  let config =
    {
      Net.latency = Dist.Uniform (1.0, 80.0);
      drop_probability = 0.2;
      duplicate_probability = 0.4;
    }
  in
  let e = Engine.create () in
  let obs = Esr_obs.Obs.create ~tracing:true ~trace_capacity:16 () in
  let net = Net.create ~config ~obs e ~sites:3 ~prng:(Prng.create seed) in
  let got = Array.make n 0 in
  let q =
    Squeue.create ~mode ~retry_interval:40.0 ~obs net ~handler:(fun ~site ~src i ->
        if site = 1 && src = 0 then got.(i) <- got.(i) + 1)
  in
  let late = ref 0 and peak = ref 0 in
  Esr_obs.Trace.attach obs.Esr_obs.Obs.trace (fun r ->
      peak := max !peak (Squeue.journal_depth q ~site:0);
      match r.Esr_obs.Trace.ev with
      | Esr_obs.Trace.Squeue_dup { src; _ } when Squeue.journal_depth q ~site:src = 0
        ->
          incr late
      | _ -> ());
  ignore (Engine.schedule e ~delay:(float_of_int crash_at) (fun () -> Net.crash net 1));
  ignore
    (Engine.schedule e
       ~delay:(float_of_int (crash_at + down_for))
       (fun () -> Net.recover net 1));
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule e ~delay:(float_of_int (i * 10)) (fun () ->
           Squeue.send q ~src:0 ~dst:1 i))
  done;
  Engine.run e;
  (got, !late, !peak, q)

let exactly_once (got, late, _, q) =
  Array.for_all (( = ) 1) got
  && Squeue.pending q = 0
  && (Squeue.counters q).Squeue.duplicates_suppressed >= late

let prop_exactly_once_duplicate_storm =
  QCheck.Test.make
    ~name:"exactly-once under duplication, loss and a crash, both modes"
    ~count:40
    QCheck.(
      quad (int_range 1 100_000) (int_range 1 30) (int_range 0 400)
        (int_range 50 600))
    (fun (seed, n, crash_at, down_for) ->
      List.for_all
        (fun mode -> exactly_once (dup_storm ~mode ~seed ~n ~crash_at ~down_for))
        [ Squeue.Unordered; Squeue.Fifo ])

let test_late_duplicates_suppressed () =
  (* The storm does produce late duplicates, so the property above is not
     vacuous about them. *)
  List.iter
    (fun (name, mode) ->
      let got, late, _, _ = dup_storm ~mode ~seed:17 ~n:30 ~crash_at:100 ~down_for:200 in
      checkb (name ^ ": exactly once") true (Array.for_all (( = ) 1) got);
      checkb (Printf.sprintf "%s: %d late duplicates" name late) true (late > 0))
    [ ("Unordered", Squeue.Unordered); ("Fifo", Squeue.Fifo) ]

(* The same storm with a backlog: 600 messages, the receiver down from
   t=500 to t=4000, so the sender's ring — one slot at first — grows past
   300 outstanding messages, then wraps as the window slides on. *)
let test_backlog_storm () =
  List.iter
    (fun (name, mode) ->
      let ((_, _, peak, _) as storm) =
        dup_storm ~mode ~seed:29 ~n:600 ~crash_at:500 ~down_for:3_500
      in
      checkb (name ^ ": exactly once") true (exactly_once storm);
      checkb (Printf.sprintf "%s: journal peaked at %d >= 300" name peak) true (peak >= 300))
    [ ("Unordered", Squeue.Unordered); ("Fifo", Squeue.Fifo) ]

(* A retry tick retransmits in sequence order, skipping acked seqs.  Seqs
   0-9 and 30-39 go out on a healthy link and are acked; 10-29 are sent
   into a partition that is lifted (without the heal hook's immediate
   kick) before the first tick, so the tick at t=100 is what delivers
   them.  Constant latency keeps arrival order equal to send order. *)
let test_retry_in_seq_order () =
  let e, net, q, received = mk 3 in
  let send_range lo hi =
    for i = lo to hi do
      Squeue.send q ~src:0 ~dst:1 i
    done
  in
  send_range 0 9;
  ignore
    (Engine.schedule e ~delay:1.0 (fun () ->
         Net.partition net [ [ 0 ]; [ 1 ] ];
         send_range 10 29;
         Net.partition net [ [ 0; 1 ] ]));
  ignore (Engine.schedule e ~delay:5.0 (fun () -> send_range 30 39));
  Engine.run e;
  Alcotest.(check (list int)) "arrival order"
    (List.init 10 Fun.id @ List.init 10 (( + ) 30) @ List.init 20 (( + ) 10))
    (List.rev_map snd received.(1));
  checki "one retransmission each" 20 (Squeue.counters q).Squeue.retransmissions

(* An acked slot lets go of its payload: of eight acked messages, at most
   one (the channel's filler) is still reachable from the fabric. *)
let send_probes q probes =
  for i = 0 to Weak.length probes - 1 do
    let payload = Bytes.make 64 (Char.chr (65 + i)) in
    Weak.set probes i (Some payload);
    Squeue.send q ~src:0 ~dst:1 payload
  done
[@@inline never]

let test_acked_payload_collectable () =
  let e = Engine.create () in
  let net = Net.create e ~sites:2 ~prng:(Prng.create 5) in
  let q = Squeue.create net ~handler:(fun ~site:_ ~src:_ (_ : Bytes.t) -> ()) in
  let probes = Weak.create 8 in
  send_probes q probes;
  Engine.run e;
  checki "all acked" 0 (Squeue.pending q);
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to Weak.length probes - 1 do
    if Weak.check probes i then incr alive
  done;
  checkb (Printf.sprintf "%d of 8 acked payloads still reachable" !alive) true (!alive <= 1);
  checki "fabric still live" 8 (Squeue.counters (Sys.opaque_identity q)).Squeue.enqueued

(* Allocation budget of the transport: words per stable-queue message on
   a 50-site broadcast with a no-op handler.  A message costs ~8.1
   (Unordered) and ~8.0 (Fifo) words, nearly all of it the data and ack
   sends through the engine: the journal ring and the dedup window are
   per-channel arrays, allocated on first use and grown by doubling.  A
   per-message hash-table entry (4+ words, plus table growth) breaks the
   budget. *)
let test_alloc_budget () =
  List.iter
    (fun (name, mode, budget) ->
      let w = Esr_bench.Msg_cost.words_per_message mode in
      checkb (Printf.sprintf "%s: %.1f words/msg <= %.0f" name w budget) true
        (w <= budget))
    [ ("Unordered", Squeue.Unordered, 11.0); ("Fifo", Squeue.Fifo, 11.0) ]

let () =
  Alcotest.run "esr_squeue"
    [
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_basic_delivery;
          Alcotest.test_case "lossy link retries" `Quick test_lossy_link_retries;
          Alcotest.test_case "exactly once under duplication" `Quick
            test_exactly_once_under_duplication;
          Alcotest.test_case "fifo order under chaos" `Quick
            test_fifo_ordering_under_chaos;
          Alcotest.test_case "unordered may reorder" `Quick
            test_unordered_may_reorder;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "bidirectional channels" `Quick
            test_bidirectional_channels_independent;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash recovery redelivers" `Quick
            test_crash_recovery_redelivers;
          Alcotest.test_case "partition heals" `Quick
            test_partition_heals_and_delivers;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "counters" `Quick test_counters_consistency;
          Alcotest.test_case "allocation budget" `Quick test_alloc_budget;
          Alcotest.test_case "late duplicates suppressed" `Quick
            test_late_duplicates_suppressed;
          Alcotest.test_case "backlog grows and wraps the ring" `Quick
            test_backlog_storm;
          Alcotest.test_case "retries in sequence order" `Quick
            test_retry_in_seq_order;
          Alcotest.test_case "acked payloads collectable" `Quick
            test_acked_payload_collectable;
          QCheck_alcotest.to_alcotest prop_exactly_once_duplicate_storm;
          QCheck_alcotest.to_alcotest prop_lossy_fifo_always_delivers_in_order;
          QCheck_alcotest.to_alcotest prop_exactly_once_under_random_crashes;
        ] );
    ]
