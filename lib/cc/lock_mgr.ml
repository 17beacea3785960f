module Op = Esr_store.Op

type request = {
  txn : int;
  mode : Lock_table.mode;
  op : Op.t option;
  on_grant : unit -> unit;
}

type key_state = {
  key : string;
  mutable holders : request list;
  mutable queue : request list;
}

type counters = { granted : int; blocked : int; deadlocks : int }

type t = {
  table : Lock_table.t;
  keys : (string, key_state) Hashtbl.t;  (* only keys held or waited on *)
  txns : (int, key_state list) Hashtbl.t;
      (* per transaction, the states it holds or waits on, newest first *)
  waitfor : Waitfor.t;
  mutable n_granted : int;
  mutable n_blocked : int;
  mutable n_deadlocks : int;
}

let create ?(table = Lock_table.standard) () =
  {
    table;
    keys = Hashtbl.create 64;
    txns = Hashtbl.create 64;
    waitfor = Waitfor.create ();
    n_granted = 0;
    n_blocked = 0;
    n_deadlocks = 0;
  }

let table t = t.table

type outcome = Granted | Blocked | Deadlock

let key_state t key =
  match Hashtbl.find_opt t.keys key with
  | Some s -> s
  | None ->
      let s = { key; holders = []; queue = [] } in
      Hashtbl.replace t.keys key s;
      s

let compatible t ~held ~requested =
  Lock_table.resolve t.table
    ~held:(held.mode, held.op)
    ~requested:(requested.mode, requested.op)

(* A request can run iff it is compatible with every holder owned by a
   different transaction. *)
let admissible t state request =
  List.for_all
    (fun held -> held.txn = request.txn || compatible t ~held ~requested:request)
    state.holders

(* Transactions blocking [request]: incompatible holders plus incompatible
   earlier waiters (FIFO order is part of the wait). *)
let blockers t state request =
  let holding =
    List.filter
      (fun held -> held.txn <> request.txn && not (compatible t ~held ~requested:request))
      state.holders
  in
  let queued =
    List.filter
      (fun waiting ->
        waiting.txn <> request.txn
        && not (compatible t ~held:waiting ~requested:request))
      state.queue
  in
  List.sort_uniq compare (List.map (fun r -> r.txn) (holding @ queued))

(* Forget an idle state, unless the table already holds a newer one. *)
let forget_if_idle t state =
  if state.holders = [] && state.queue = [] then
    match Hashtbl.find_opt t.keys state.key with
    | Some s when s == state -> Hashtbl.remove t.keys state.key
    | _ -> ()

let touch t ~txn state =
  let touched = Option.value (Hashtbl.find_opt t.txns txn) ~default:[] in
  Hashtbl.replace t.txns txn (state :: touched)

let acquire t ~txn ~key ~mode ?op ?(on_grant = fun () -> ()) () =
  let state = key_state t key in
  let request = { txn; mode; op; on_grant } in
  let already_queued = List.exists (fun r -> r.txn = txn) state.queue in
  let first_touch =
    (not already_queued) && not (List.exists (fun r -> r.txn = txn) state.holders)
  in
  (* A request compatible with every holder may still have to respect the
     FIFO queue — except when it is also compatible with every waiter, in
     which case letting it through can block nobody (this is what makes
     R_q locks of Tables 2/3 truly never wait). *)
  let jumps_queue =
    state.queue = []
    || List.for_all
         (fun waiting ->
           waiting.txn = txn
           || (compatible t ~held:waiting ~requested:request
              && compatible t ~held:request ~requested:waiting))
         state.queue
  in
  if (not already_queued) && jumps_queue && admissible t state request then begin
    state.holders <- state.holders @ [ request ];
    if first_touch then touch t ~txn state;
    t.n_granted <- t.n_granted + 1;
    Granted
  end
  else begin
    let blocking = blockers t state request in
    (* Try to install all wait edges; roll back and refuse on a cycle. *)
    let rec install added = function
      | [] -> Ok ()
      | holder :: rest ->
          if Waitfor.add_edge t.waitfor ~waiter:txn ~holder then
            install (holder :: added) rest
          else Error added
    in
    match install [] blocking with
    | Ok () ->
        state.queue <- state.queue @ [ request ];
        if first_touch then touch t ~txn state;
        t.n_blocked <- t.n_blocked + 1;
        Blocked
    | Error _added ->
        (* Clear any edges we just added (and any stale ones): the caller
           aborts, so all its waits are void. *)
        Waitfor.remove_edges_from t.waitfor ~waiter:txn;
        forget_if_idle t state;
        t.n_deadlocks <- t.n_deadlocks + 1;
        Deadlock
  end

(* Grant the longest admissible FIFO prefix of the queue. *)
let pump t state =
  let rec loop () =
    match state.queue with
    | [] -> ()
    | next :: rest ->
        if admissible t state next then begin
          state.queue <- rest;
          state.holders <- state.holders @ [ next ];
          Waitfor.remove_edges_from t.waitfor ~waiter:next.txn;
          t.n_granted <- t.n_granted + 1;
          next.on_grant ();
          loop ()
        end
  in
  loop ()

(* Only the keys [txn] touched can change: admissibility depends on a
   key's own holders, and after every call the head of every non-empty
   queue is inadmissible, so pumping any other key would grant nothing.
   [on_grant] callbacks may re-enter (acquire, release other txns): the
   list is detached first, and a state is forgotten only while idle and
   still current. *)
let release_all t ~txn =
  Waitfor.remove_node t.waitfor txn;
  match Hashtbl.find_opt t.txns txn with
  | None -> ()
  | Some newest_first ->
      Hashtbl.remove t.txns txn;
      let touched = List.rev newest_first in
      let mine r = r.txn = txn in
      List.iter
        (fun state ->
          if List.exists mine state.holders then
            state.holders <- List.filter (fun r -> not (mine r)) state.holders;
          if List.exists mine state.queue then
            state.queue <- List.filter (fun r -> not (mine r)) state.queue)
        touched;
      List.iter
        (fun state ->
          pump t state;
          forget_if_idle t state)
        touched

let holds t ~txn ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> false
  | Some state -> List.exists (fun r -> r.txn = txn) state.holders

let holders t ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> []
  | Some state -> List.map (fun r -> (r.txn, r.mode)) state.holders

let queue_length t ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> 0
  | Some state -> List.length state.queue

let waiters t ~key =
  match Hashtbl.find_opt t.keys key with
  | None -> []
  | Some state -> List.map (fun r -> (r.txn, r.mode)) state.queue

let active_keys t = Hashtbl.length t.keys

let counters t =
  { granted = t.n_granted; blocked = t.n_blocked; deadlocks = t.n_deadlocks }
