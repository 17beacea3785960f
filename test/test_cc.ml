(* Tests for Esr_cc: the paper's lock compatibility tables (Tables 2 and 3)
   verified entry by entry, the lock manager, lock-counters, timestamp
   ordering, and the wait-for graph. *)

module Op = Esr_store.Op
module Value = Esr_store.Value
module Lock_table = Esr_cc.Lock_table
module Lock_mgr = Esr_cc.Lock_mgr
module Lock_counter = Esr_cc.Lock_counter
module Tso = Esr_cc.Tso
module Waitfor = Esr_cc.Waitfor
module Prng = Esr_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let verdict_t =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Lock_table.verdict_to_string v))
    ( = )

(* --- Lock tables: the paper's Tables 2 and 3, entry by entry --- *)

let test_standard_table () =
  let check_entry held requested expected =
    Alcotest.check verdict_t "entry" expected
      (Lock_table.check Lock_table.standard ~held ~requested)
  in
  check_entry Lock_table.R Lock_table.R Lock_table.Compatible;
  check_entry Lock_table.R Lock_table.W Lock_table.Conflict;
  check_entry Lock_table.W Lock_table.R Lock_table.Conflict;
  check_entry Lock_table.W Lock_table.W Lock_table.Conflict

(* Paper Table 2: rows/columns RU, WU, RQ.
       RU  WU  RQ
   RU  OK      OK
   WU          OK
   RQ  OK  OK  OK  *)
let test_table2_ordup () =
  let entry held requested =
    Lock_table.check Lock_table.ordup ~held ~requested
  in
  let ok = Lock_table.Compatible and no = Lock_table.Conflict in
  Alcotest.check verdict_t "RU/RU" ok (entry Lock_table.R_u Lock_table.R_u);
  Alcotest.check verdict_t "RU/WU" no (entry Lock_table.R_u Lock_table.W_u);
  Alcotest.check verdict_t "RU/RQ" ok (entry Lock_table.R_u Lock_table.R_q);
  Alcotest.check verdict_t "WU/RU" no (entry Lock_table.W_u Lock_table.R_u);
  Alcotest.check verdict_t "WU/WU" no (entry Lock_table.W_u Lock_table.W_u);
  Alcotest.check verdict_t "WU/RQ" ok (entry Lock_table.W_u Lock_table.R_q);
  Alcotest.check verdict_t "RQ/RU" ok (entry Lock_table.R_q Lock_table.R_u);
  Alcotest.check verdict_t "RQ/WU" ok (entry Lock_table.R_q Lock_table.W_u);
  Alcotest.check verdict_t "RQ/RQ" ok (entry Lock_table.R_q Lock_table.R_q)

(* Paper Table 3:
       RU    WU    RQ
   RU  OK    Comm  OK
   WU  Comm  Comm  OK
   RQ  OK    OK    OK  *)
let test_table3_commu () =
  let entry held requested =
    Lock_table.check Lock_table.commu ~held ~requested
  in
  let ok = Lock_table.Compatible and comm = Lock_table.If_commutes in
  Alcotest.check verdict_t "RU/RU" ok (entry Lock_table.R_u Lock_table.R_u);
  Alcotest.check verdict_t "RU/WU" comm (entry Lock_table.R_u Lock_table.W_u);
  Alcotest.check verdict_t "RU/RQ" ok (entry Lock_table.R_u Lock_table.R_q);
  Alcotest.check verdict_t "WU/RU" comm (entry Lock_table.W_u Lock_table.R_u);
  Alcotest.check verdict_t "WU/WU" comm (entry Lock_table.W_u Lock_table.W_u);
  Alcotest.check verdict_t "WU/RQ" ok (entry Lock_table.W_u Lock_table.R_q);
  Alcotest.check verdict_t "RQ/RU" ok (entry Lock_table.R_q Lock_table.R_u);
  Alcotest.check verdict_t "RQ/WU" ok (entry Lock_table.R_q Lock_table.W_u);
  Alcotest.check verdict_t "RQ/RQ" ok (entry Lock_table.R_q Lock_table.R_q)

let test_table_mode_domain () =
  checkb "ordup rejects plain R" true
    (try
       ignore (Lock_table.check Lock_table.ordup ~held:Lock_table.R ~requested:Lock_table.R_u);
       false
     with Invalid_argument _ -> true)

let test_resolve_commutativity () =
  let incr = Op.Incr 1 and mult = Op.Mult 2 in
  checkb "commuting WU/WU compatible" true
    (Lock_table.resolve Lock_table.commu
       ~held:(Lock_table.W_u, Some incr)
       ~requested:(Lock_table.W_u, Some (Op.Incr 5)));
  checkb "non-commuting WU/WU conflicts" false
    (Lock_table.resolve Lock_table.commu
       ~held:(Lock_table.W_u, Some incr)
       ~requested:(Lock_table.W_u, Some mult));
  checkb "missing op is conservative" false
    (Lock_table.resolve Lock_table.commu
       ~held:(Lock_table.W_u, None)
       ~requested:(Lock_table.W_u, Some incr));
  (* "few examples of commutativity between WU and RU": a read never
     commutes with an increment, so the Comm entry degenerates to
     conflict exactly as the paper notes. *)
  checkb "WU/RU comm degenerates" false
    (Lock_table.resolve Lock_table.commu
       ~held:(Lock_table.W_u, Some incr)
       ~requested:(Lock_table.R_u, Some Op.Read))

(* --- Lock manager --- *)

let test_mgr_grant_and_conflict () =
  let m = Lock_mgr.create () in
  checkb "grant" true (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W () = Lock_mgr.Granted);
  checkb "conflicting blocks" true
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Blocked);
  checkb "holds" true (Lock_mgr.holds m ~txn:1 ~key:"x");
  checki "queue length" 1 (Lock_mgr.queue_length m ~key:"x")

let test_mgr_shared_reads () =
  let m = Lock_mgr.create () in
  checkb "r1" true (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Granted);
  checkb "r2" true (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Granted);
  checki "two holders" 2 (List.length (Lock_mgr.holders m ~key:"x"))

let test_mgr_reentrant () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  checkb "own lock compatible" true
    (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Granted)

let test_mgr_release_wakes_fifo () =
  let m = Lock_mgr.create () in
  let woken = ref [] in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  ignore
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W
       ~on_grant:(fun () -> woken := 2 :: !woken)
       ());
  ignore
    (Lock_mgr.acquire m ~txn:3 ~key:"x" ~mode:Lock_table.W
       ~on_grant:(fun () -> woken := 3 :: !woken)
       ());
  Lock_mgr.release_all m ~txn:1;
  Alcotest.(check (list int)) "only head granted" [ 2 ] !woken;
  Lock_mgr.release_all m ~txn:2;
  Alcotest.(check (list int)) "then next" [ 3; 2 ] !woken

let test_mgr_release_grants_compatible_prefix () =
  let m = Lock_mgr.create () in
  let woken = ref [] in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  ignore
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.R
       ~on_grant:(fun () -> woken := 2 :: !woken) ());
  ignore
    (Lock_mgr.acquire m ~txn:3 ~key:"x" ~mode:Lock_table.R
       ~on_grant:(fun () -> woken := 3 :: !woken) ());
  Lock_mgr.release_all m ~txn:1;
  Alcotest.(check (list int)) "both readers granted" [ 3; 2 ] !woken

let test_mgr_deadlock_detection () =
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  ignore (Lock_mgr.acquire m ~txn:2 ~key:"y" ~mode:Lock_table.W ());
  checkb "t1 waits for y" true
    (Lock_mgr.acquire m ~txn:1 ~key:"y" ~mode:Lock_table.W () = Lock_mgr.Blocked);
  checkb "t2 asking x would deadlock" true
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W () = Lock_mgr.Deadlock);
  checki "deadlocks counted" 1 (Lock_mgr.counters m).Lock_mgr.deadlocks

let test_mgr_deadlock_victim_can_release () =
  let m = Lock_mgr.create () in
  let t1_got_y = ref false in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W ());
  ignore (Lock_mgr.acquire m ~txn:2 ~key:"y" ~mode:Lock_table.W ());
  ignore
    (Lock_mgr.acquire m ~txn:1 ~key:"y" ~mode:Lock_table.W
       ~on_grant:(fun () -> t1_got_y := true) ());
  ignore (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W ());
  (* txn 2 aborts: its y lock is released and txn 1 proceeds. *)
  Lock_mgr.release_all m ~txn:2;
  checkb "t1 unblocked" true !t1_got_y

let test_mgr_commu_table_commuting_writes () =
  let m = Lock_mgr.create ~table:Lock_table.commu () in
  checkb "wu incr" true
    (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W_u ~op:(Op.Incr 1) ()
     = Lock_mgr.Granted);
  checkb "second commuting incr granted" true
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W_u ~op:(Op.Incr 2) ()
     = Lock_mgr.Granted);
  checkb "non-commuting mult blocks" true
    (Lock_mgr.acquire m ~txn:3 ~key:"x" ~mode:Lock_table.W_u ~op:(Op.Mult 2) ()
     = Lock_mgr.Blocked)

let test_mgr_ordup_table_query_never_blocks () =
  let m = Lock_mgr.create ~table:Lock_table.ordup () in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.W_u ~op:(Op.Incr 1) ());
  checkb "query read sails through" true
    (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.R_q ~op:Op.Read ()
     = Lock_mgr.Granted)

let test_mgr_queued_fairness_blocks_new_compatible () =
  (* A new request compatible with holders but behind a queued writer must
     not jump the queue (no starvation). *)
  let m = Lock_mgr.create () in
  ignore (Lock_mgr.acquire m ~txn:1 ~key:"x" ~mode:Lock_table.R ());
  ignore (Lock_mgr.acquire m ~txn:2 ~key:"x" ~mode:Lock_table.W ());
  checkb "late reader queues behind writer" true
    (Lock_mgr.acquire m ~txn:3 ~key:"x" ~mode:Lock_table.R () = Lock_mgr.Blocked)

(* Safety invariant under random traffic: at no point do two transactions
   hold incompatible locks on the same key, and releasing everything
   always drains every queue. *)
let prop_mgr_holders_always_compatible =
  let table_gen =
    QCheck.Gen.oneofl [ Lock_table.standard; Lock_table.ordup; Lock_table.commu ]
  in
  let gen = QCheck.make QCheck.Gen.(pair table_gen (pair int (int_range 10 60))) in
  QCheck.Test.make ~name:"no incompatible co-holders, queues drain" ~count:150 gen
    (fun (table, (seed, steps)) ->
      let prng = Prng.create seed in
      let m = Lock_mgr.create ~table () in
      let keys = [| "a"; "b"; "c" |] in
      let et_modes = List.mem Lock_table.R_q (Lock_table.modes table) in
      let live = ref [] in
      let ok = ref true in
      let check_invariant () =
        Array.iter
          (fun key ->
            let holders = Lock_mgr.holders m ~key in
            List.iter
              (fun (t1, m1) ->
                List.iter
                  (fun (t2, m2) ->
                    if t1 < t2 then begin
                      (* Modes must be pairwise non-Conflict; If_commutes
                         entries were discharged at grant time, so only a
                         hard Conflict verdict is a violation. *)
                      let v = Lock_table.check table ~held:m1 ~requested:m2 in
                      if v = Lock_table.Conflict then ok := false
                    end)
                  holders)
              holders)
          keys
      in
      for txn = 1 to steps do
        let key = keys.(Prng.int prng 3) in
        let mode, op =
          if et_modes then
            match Prng.int prng 3 with
            | 0 -> (Lock_table.R_u, Some Op.Read)
            | 1 -> (Lock_table.W_u, Some (Op.Incr 1))
            | _ -> (Lock_table.R_q, Some Op.Read)
          else if Prng.int prng 2 = 0 then (Lock_table.R, Some Op.Read)
          else (Lock_table.W, Some (Op.Incr 1))
        in
        (match Lock_mgr.acquire m ~txn ~key ~mode ?op () with
        | Lock_mgr.Granted | Lock_mgr.Blocked -> live := txn :: !live
        | Lock_mgr.Deadlock -> ());
        check_invariant ();
        (* Occasionally finish a random live transaction. *)
        if Prng.int prng 3 = 0 && !live <> [] then begin
          let victim = List.nth !live (Prng.int prng (List.length !live)) in
          live := List.filter (fun t -> t <> victim) !live;
          Lock_mgr.release_all m ~txn:victim;
          check_invariant ()
        end
      done;
      List.iter (fun txn -> Lock_mgr.release_all m ~txn) !live;
      Array.iter
        (fun key ->
          if Lock_mgr.queue_length m ~key <> 0 then ok := false)
        keys;
      !ok)

(* Reference model: the full-scan lock manager that predates the
   transaction index.  Its [release_all] visits every key ever locked (in
   hash order) and pumps any key that lost a holder or still has a queue;
   the real manager must end every step in the same per-key state. *)
module Ref_mgr = struct
  type request = {
    txn : int;
    mode : Lock_table.mode;
    op : Op.t option;
    on_grant : unit -> unit;
  }

  type key_state = { mutable holders : request list; mutable queue : request list }

  type t = {
    table : Lock_table.t;
    keys : (string, key_state) Hashtbl.t;
    waitfor : Waitfor.t;
  }

  let create table = { table; keys = Hashtbl.create 64; waitfor = Waitfor.create () }

  let key_state t key =
    match Hashtbl.find_opt t.keys key with
    | Some s -> s
    | None ->
        let s = { holders = []; queue = [] } in
        Hashtbl.replace t.keys key s;
        s

  let compatible t ~held ~requested =
    Lock_table.resolve t.table ~held:(held.mode, held.op)
      ~requested:(requested.mode, requested.op)

  let admissible t state request =
    List.for_all
      (fun held -> held.txn = request.txn || compatible t ~held ~requested:request)
      state.holders

  let blockers t state request =
    let conflicting r = r.txn <> request.txn && not (compatible t ~held:r ~requested:request) in
    List.sort_uniq compare
      (List.map (fun r -> r.txn)
         (List.filter conflicting state.holders @ List.filter conflicting state.queue))

  let acquire t ~txn ~key ~mode ?op ~on_grant () =
    let state = key_state t key in
    let request = { txn; mode; op; on_grant } in
    let already_queued = List.exists (fun r -> r.txn = txn) state.queue in
    let jumps_queue =
      List.for_all
        (fun w ->
          w.txn = txn
          || (compatible t ~held:w ~requested:request
             && compatible t ~held:request ~requested:w))
        state.queue
    in
    if (not already_queued) && jumps_queue && admissible t state request then begin
      state.holders <- state.holders @ [ request ];
      Lock_mgr.Granted
    end
    else if
      List.for_all
        (fun holder -> Waitfor.add_edge t.waitfor ~waiter:txn ~holder)
        (blockers t state request)
    then begin
      state.queue <- state.queue @ [ request ];
      Lock_mgr.Blocked
    end
    else begin
      Waitfor.remove_edges_from t.waitfor ~waiter:txn;
      Lock_mgr.Deadlock
    end

  let pump t state =
    let rec loop () =
      match state.queue with
      | next :: rest when admissible t state next ->
          state.queue <- rest;
          state.holders <- state.holders @ [ next ];
          Waitfor.remove_edges_from t.waitfor ~waiter:next.txn;
          next.on_grant ();
          loop ()
      | _ -> ()
    in
    loop ()

  let release_all t ~txn =
    Waitfor.remove_node t.waitfor txn;
    Hashtbl.iter
      (fun _ state ->
        let had = List.exists (fun r -> r.txn = txn) state.holders in
        state.holders <- List.filter (fun r -> r.txn <> txn) state.holders;
        state.queue <- List.filter (fun r -> r.txn <> txn) state.queue;
        if had || state.queue <> [] then pump t state)
      t.keys

  let view rs = List.map (fun r -> (r.txn, r.mode)) rs

  let holders t ~key =
    match Hashtbl.find_opt t.keys key with None -> [] | Some s -> view s.holders

  let waiters t ~key =
    match Hashtbl.find_opt t.keys key with None -> [] | Some s -> view s.queue

  (* The invariant that makes pumping only touched keys enough. *)
  let heads_inadmissible t =
    Hashtbl.fold
      (fun _ state ok ->
        ok && match state.queue with [] -> true | head :: _ -> not (admissible t state head))
      t.keys true
end

let mode_gen table prng =
  if List.mem Lock_table.R_q (Lock_table.modes table) then
    match Prng.int prng 4 with
    | 0 -> (Lock_table.R_u, Some Op.Read)
    | 1 -> (Lock_table.W_u, Some (Op.Incr 1))
    | 2 -> (Lock_table.W_u, Some (Op.Mult 2))
    | _ -> (Lock_table.R_q, Some Op.Read)
  else if Prng.int prng 2 = 0 then (Lock_table.R, Some Op.Read)
  else (Lock_table.W, Some (Op.Incr 1))

(* Model check: random acquire / release / deadlock-abort sequences drive
   the indexed manager and the full-scan reference side by side.  After
   every step each key has the same holders and queue, both managers have
   granted the same multiset of (txn, key) requests, and no non-empty
   queue has an admissible head.  At the end, releasing everyone leaves
   no active key. *)
let prop_mgr_matches_full_scan_model =
  let table_gen = QCheck.Gen.oneofl Lock_table.all in
  let gen = QCheck.make QCheck.Gen.(pair table_gen (pair int (int_range 10 80))) in
  QCheck.Test.make ~name:"indexed release_all matches the full-scan model" ~count:300 gen
    (fun (table, (seed, steps)) ->
      let prng = Prng.create seed in
      let m = Lock_mgr.create ~table () in
      let r = Ref_mgr.create table in
      let keys = [| "a"; "b"; "c"; "d" |] in
      let got_m = ref [] and got_r = ref [] in
      let ok = ref true in
      let agree () =
        Array.iter
          (fun key ->
            if Lock_mgr.holders m ~key <> Ref_mgr.holders r ~key
               || Lock_mgr.waiters m ~key <> Ref_mgr.waiters r ~key
            then ok := false)
          keys;
        if List.sort compare !got_m <> List.sort compare !got_r then ok := false;
        if not (Ref_mgr.heads_inadmissible r) then ok := false
      in
      let release txn =
        Lock_mgr.release_all m ~txn;
        Ref_mgr.release_all r ~txn
      in
      for _ = 1 to steps do
        let txn = 1 + Prng.int prng 6 in
        if Prng.int prng 4 = 0 then release txn
        else begin
          let key = keys.(Prng.int prng (Array.length keys)) in
          let mode, op = mode_gen table prng in
          let om =
            Lock_mgr.acquire m ~txn ~key ~mode ?op
              ~on_grant:(fun () -> got_m := (txn, key) :: !got_m)
              ()
          in
          let orf =
            Ref_mgr.acquire r ~txn ~key ~mode ?op
              ~on_grant:(fun () -> got_r := (txn, key) :: !got_r)
              ()
          in
          if om <> orf then ok := false;
          if om = Lock_mgr.Granted then got_m := (txn, key) :: !got_m;
          if orf = Lock_mgr.Granted then got_r := (txn, key) :: !got_r;
          (* A deadlock victim aborts. *)
          if om = Lock_mgr.Deadlock then release txn
        end;
        agree ()
      done;
      for txn = 1 to 6 do
        release txn
      done;
      agree ();
      !ok && Lock_mgr.active_keys m = 0)

(* [release_all] pumps the releasing transaction's keys in the order it
   first touched them, whatever the hash layout. *)
let test_mgr_release_in_acquisition_order () =
  let m = Lock_mgr.create () in
  let order = [ "zeta"; "alpha"; "mu"; "beta"; "omega" ] in
  let woken = ref [] in
  List.iter (fun key -> ignore (Lock_mgr.acquire m ~txn:1 ~key ~mode:Lock_table.W ())) order;
  List.iteri
    (fun i key ->
      ignore
        (Lock_mgr.acquire m ~txn:(10 + i) ~key ~mode:Lock_table.W
           ~on_grant:(fun () -> woken := key :: !woken)
           ()))
    order;
  Lock_mgr.release_all m ~txn:1;
  Alcotest.(check (list string)) "grants follow acquisition order" order (List.rev !woken)

(* Grant sequences must not depend on the key table's history: two
   managers that have seen 1,000 filler keys in opposite orders (so their
   hash tables differ in size and layout) grant identically. *)
let test_mgr_grants_independent_of_history () =
  let run fillers =
    let m = Lock_mgr.create () in
    List.iter
      (fun i ->
        ignore (Lock_mgr.acquire m ~txn:i ~key:(Printf.sprintf "filler%d" i) ~mode:Lock_table.W ());
        Lock_mgr.release_all m ~txn:i)
      fillers;
    checki "fillers forgotten" 0 (Lock_mgr.active_keys m);
    let grants = ref [] in
    let keys = List.init 12 (Printf.sprintf "k%d") in
    List.iter (fun key -> ignore (Lock_mgr.acquire m ~txn:5000 ~key ~mode:Lock_table.W ())) keys;
    List.iteri
      (fun i key ->
        let txn = 5001 + (i mod 4) in
        ignore
          (Lock_mgr.acquire m ~txn ~key ~mode:Lock_table.R
             ~on_grant:(fun () -> grants := (txn, key) :: !grants)
             ()))
      (List.rev keys);
    Lock_mgr.release_all m ~txn:5000;
    for txn = 5001 to 5004 do
      Lock_mgr.release_all m ~txn
    done;
    checki "no active keys at quiescence" 0 (Lock_mgr.active_keys m);
    List.rev !grants
  in
  let ascending = run (List.init 1000 Fun.id) in
  let descending = run (List.init 1000 (fun i -> 999 - i)) in
  checki "every waiter granted" 12 (List.length ascending);
  checkb "identical grant sequences" true (ascending = descending)

(* [on_grant] callbacks re-enter the manager, as 2PC's sequential
   acquisition does: each grant acquires the next key, and one grant
   releases its own transaction mid-release.  FIFO holds across the
   nesting and everything drains. *)
let test_mgr_reentrant_release () =
  let m = Lock_mgr.create () in
  let rec chain txn = function
    | [] -> ()
    | key :: rest -> (
        match
          Lock_mgr.acquire m ~txn ~key ~mode:Lock_table.W
            ~on_grant:(fun () -> chain txn rest)
            ()
        with
        | Lock_mgr.Granted -> chain txn rest
        | Lock_mgr.Blocked | Lock_mgr.Deadlock -> ())
  in
  let reader_done = ref false in
  chain 1 [ "a"; "b"; "c" ];
  chain 2 [ "a"; "b"; "c" ];
  chain 3 [ "b"; "c" ];
  ignore
    (Lock_mgr.acquire m ~txn:4 ~key:"c" ~mode:Lock_table.R
       ~on_grant:(fun () ->
         reader_done := true;
         Lock_mgr.release_all m ~txn:4)
       ());
  (* Releasing 1 grants a to 2, whose next request queues behind 3 on b;
     3 gets b, then c once the reader has come and gone. *)
  Lock_mgr.release_all m ~txn:1;
  checkb "reader ran and left" true !reader_done;
  checkb "txn 2 holds a" true (Lock_mgr.holds m ~txn:2 ~key:"a");
  checkb "txn 3 holds b and c" true
    (Lock_mgr.holds m ~txn:3 ~key:"b" && Lock_mgr.holds m ~txn:3 ~key:"c");
  Alcotest.(check (list int)) "txn 2 waits on b" [ 2 ] (List.map fst (Lock_mgr.waiters m ~key:"b"));
  Lock_mgr.release_all m ~txn:3;
  checkb "txn 2 holds all three" true
    (List.for_all (fun key -> Lock_mgr.holds m ~txn:2 ~key) [ "a"; "b"; "c" ]);
  Lock_mgr.release_all m ~txn:2;
  checki "drained" 0 (Lock_mgr.active_keys m)

(* --- Lock counters --- *)

let test_counter_basic () =
  let c = Lock_counter.create () in
  checki "zero" 0 (Lock_counter.count c "x");
  checki "one" 1 (Lock_counter.incr c "x");
  checki "two" 2 (Lock_counter.incr c "x");
  checki "one again" 1 (Lock_counter.decr c "x");
  checki "zero again" 0 (Lock_counter.decr c "x");
  checkb "underflow raises" true
    (try
       ignore (Lock_counter.decr c "x");
       false
     with Invalid_argument _ -> true)

let test_counter_nonzero_tracking () =
  let c = Lock_counter.create () in
  ignore (Lock_counter.incr c "x");
  ignore (Lock_counter.incr c "y");
  checki "two nonzero" 2 (Lock_counter.total_nonzero c);
  ignore (Lock_counter.decr c "x");
  checki "one nonzero" 1 (Lock_counter.total_nonzero c)

let test_counter_limit () =
  let c = Lock_counter.create () in
  ignore (Lock_counter.incr c "x");
  checkb "at limit" true (Lock_counter.would_exceed c "x" ~limit:1);
  checkb "below limit" false (Lock_counter.would_exceed c "x" ~limit:2)

let test_counter_weights () =
  let c = Lock_counter.create () in
  Alcotest.check (Alcotest.float 1e-9) "zero" 0.0 (Lock_counter.weight c "x");
  Alcotest.check (Alcotest.float 1e-9) "add" 5.0 (Lock_counter.add_weight c "x" 5.0);
  Alcotest.check (Alcotest.float 1e-9) "abs of negative" 8.0
    (Lock_counter.add_weight c "x" (-3.0));
  Alcotest.check (Alcotest.float 1e-9) "remove" 3.0
    (Lock_counter.remove_weight c "x" 5.0);
  Alcotest.check (Alcotest.float 1e-9) "clamped at zero" 0.0
    (Lock_counter.remove_weight c "x" 100.0);
  checkb "exceed check" true
    (Lock_counter.weight_would_exceed c "x" ~added:2.0 ~limit:1.5);
  checkb "within check" false
    (Lock_counter.weight_would_exceed c "x" ~added:1.0 ~limit:1.5)

let prop_counter_weight_never_negative =
  QCheck.Test.make ~name:"pending weight never negative" ~count:300
    QCheck.(list (pair bool (float_range (-50.) 50.)))
    (fun events ->
      let c = Lock_counter.create () in
      List.iter
        (fun (add, w) ->
          if add then ignore (Lock_counter.add_weight c "k" w)
          else ignore (Lock_counter.remove_weight c "k" w))
        events;
      Lock_counter.weight c "k" >= 0.0)

(* --- Tso --- *)

let test_tso_update_rules () =
  let t = Tso.create () in
  checkb "write ts5" true (Tso.check_update_write t ~key:"x" ~ts:5 = Tso.Accept);
  checkb "older write rejected" true
    (Tso.check_update_write t ~key:"x" ~ts:3 = Tso.Reject_stale);
  checkb "older read rejected" true
    (Tso.check_update_read t ~key:"x" ~ts:3 = Tso.Reject_stale);
  checkb "newer read ok" true (Tso.check_update_read t ~key:"x" ~ts:7 = Tso.Accept);
  checkb "write below read rejected" true
    (Tso.check_update_write t ~key:"x" ~ts:6 = Tso.Reject_stale);
  checkb "write above read ok" true
    (Tso.check_update_write t ~key:"x" ~ts:8 = Tso.Accept)

let test_tso_query_reads_dont_constrain () =
  let t = Tso.create () in
  ignore (Tso.check_update_write t ~key:"x" ~ts:10);
  checkb "stale query read flagged" true
    (Tso.check_query_read t ~key:"x" ~ts:5 = Tso.Out_of_order);
  checkb "fresh query read in order" true
    (Tso.check_query_read t ~key:"x" ~ts:15 = Tso.In_order);
  (* Unlike an update read, the query read must not have bumped the read
     timestamp: a ts-12 write is still admissible. *)
  checkb "updates unconstrained by query" true
    (Tso.check_update_write t ~key:"x" ~ts:12 = Tso.Accept)

(* --- Waitfor --- *)

let test_waitfor_cycle_rejected () =
  let g = Waitfor.create () in
  checkb "1->2" true (Waitfor.add_edge g ~waiter:1 ~holder:2);
  checkb "2->3" true (Waitfor.add_edge g ~waiter:2 ~holder:3);
  checkb "3->1 closes cycle" false (Waitfor.add_edge g ~waiter:3 ~holder:1);
  checkb "self edge rejected" false (Waitfor.add_edge g ~waiter:1 ~holder:1)

let test_waitfor_remove_unblocks () =
  let g = Waitfor.create () in
  ignore (Waitfor.add_edge g ~waiter:1 ~holder:2);
  ignore (Waitfor.add_edge g ~waiter:2 ~holder:3);
  Waitfor.remove_node g 2;
  checkb "edge through removed node gone" false (Waitfor.reachable g ~src:1 ~dst:3);
  checkb "cycle now allowed" true (Waitfor.add_edge g ~waiter:3 ~holder:1)

let test_waitfor_reachability () =
  let g = Waitfor.create () in
  ignore (Waitfor.add_edge g ~waiter:1 ~holder:2);
  ignore (Waitfor.add_edge g ~waiter:2 ~holder:3);
  ignore (Waitfor.add_edge g ~waiter:2 ~holder:4);
  checkb "transitive" true (Waitfor.reachable g ~src:1 ~dst:4);
  checkb "no back path" false (Waitfor.reachable g ~src:4 ~dst:1);
  Alcotest.(check (list int)) "waits_on" [ 3; 4 ] (Waitfor.waits_on g ~waiter:2)

(* qcheck: random edge insertions never create a cycle. *)
let prop_waitfor_stays_acyclic =
  QCheck.Test.make ~name:"waitfor graph stays acyclic" ~count:200
    QCheck.(list (pair (int_range 0 8) (int_range 0 8)))
    (fun edges ->
      let g = Waitfor.create () in
      List.iter
        (fun (a, b) -> ignore (Waitfor.add_edge g ~waiter:a ~holder:b))
        edges;
      (* Acyclicity: no node reaches itself through at least one edge. *)
      List.for_all
        (fun n ->
          List.for_all
            (fun next -> not (Waitfor.reachable g ~src:next ~dst:n))
            (Waitfor.waits_on g ~waiter:n))
        (List.init 9 Fun.id))

let () =
  ignore (Value.zero);
  Alcotest.run "esr_cc"
    [
      ( "lock tables",
        [
          Alcotest.test_case "standard 2PL" `Quick test_standard_table;
          Alcotest.test_case "Table 2 (ORDUP)" `Quick test_table2_ordup;
          Alcotest.test_case "Table 3 (COMMU)" `Quick test_table3_commu;
          Alcotest.test_case "mode domain" `Quick test_table_mode_domain;
          Alcotest.test_case "resolve commutativity" `Quick test_resolve_commutativity;
        ] );
      ( "lock manager",
        [
          Alcotest.test_case "grant/conflict" `Quick test_mgr_grant_and_conflict;
          Alcotest.test_case "shared reads" `Quick test_mgr_shared_reads;
          Alcotest.test_case "reentrant" `Quick test_mgr_reentrant;
          Alcotest.test_case "release wakes FIFO" `Quick test_mgr_release_wakes_fifo;
          Alcotest.test_case "grants compatible prefix" `Quick
            test_mgr_release_grants_compatible_prefix;
          Alcotest.test_case "deadlock detection" `Quick test_mgr_deadlock_detection;
          Alcotest.test_case "victim release unblocks" `Quick
            test_mgr_deadlock_victim_can_release;
          Alcotest.test_case "commu commuting writes" `Quick
            test_mgr_commu_table_commuting_writes;
          Alcotest.test_case "ordup query never blocks" `Quick
            test_mgr_ordup_table_query_never_blocks;
          Alcotest.test_case "FIFO fairness" `Quick
            test_mgr_queued_fairness_blocks_new_compatible;
          QCheck_alcotest.to_alcotest prop_mgr_holders_always_compatible;
          Alcotest.test_case "release in acquisition order" `Quick
            test_mgr_release_in_acquisition_order;
          Alcotest.test_case "grants independent of history" `Quick
            test_mgr_grants_independent_of_history;
          Alcotest.test_case "re-entrant release drains" `Quick
            test_mgr_reentrant_release;
          QCheck_alcotest.to_alcotest prop_mgr_matches_full_scan_model;
        ] );
      ( "lock counters",
        [
          Alcotest.test_case "basic" `Quick test_counter_basic;
          Alcotest.test_case "nonzero tracking" `Quick test_counter_nonzero_tracking;
          Alcotest.test_case "limit" `Quick test_counter_limit;
          Alcotest.test_case "weights" `Quick test_counter_weights;
          QCheck_alcotest.to_alcotest prop_counter_weight_never_negative;
        ] );
      ( "tso",
        [
          Alcotest.test_case "update rules" `Quick test_tso_update_rules;
          Alcotest.test_case "query reads free" `Quick
            test_tso_query_reads_dont_constrain;
        ] );
      ( "waitfor",
        [
          Alcotest.test_case "cycle rejected" `Quick test_waitfor_cycle_rejected;
          Alcotest.test_case "remove unblocks" `Quick test_waitfor_remove_unblocks;
          Alcotest.test_case "reachability" `Quick test_waitfor_reachability;
          QCheck_alcotest.to_alcotest prop_waitfor_stays_acyclic;
        ] );
    ]
