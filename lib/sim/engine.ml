module Prof = Esr_obs.Prof

type state = Pending | Cancelled | Fired

(* A heap entry's payload.  A closure event owns its body and its
   cancellation flag.  A port is one handler registered up front and
   shared by all of its events: each event's argument rides in the heap's
   int column, so scheduling one allocates nothing.  Ports cannot be
   cancelled. *)
type event =
  | Closure of { body : unit -> unit; mutable state : state }
  | Port of (int -> unit)

type t = {
  heap : event Heap.t;
  mutable clock : float;
      (* boxed: [now] hands it out without allocating, and dispatch boxes
         a new value only when the time actually advances *)
  mutable next_seq : int;
  mutable live : int;
  mutable executed : int;
  mutable cancelled : int;
  mutable prof : Prof.t;
      (* host-time profiler around every dispatched event body; the shared
         disabled instance until the harness installs a live one *)
}

type event_id = event
type port = event

let create ?(hint = 64) () =
  {
    heap = Heap.create ~hint ();
    clock = 0.0;
    next_seq = 0;
    live = 0;
    executed = 0;
    cancelled = 0;
    prof = Prof.disabled;
  }

let set_prof t prof = t.prof <- prof

let now t = t.clock

let schedule_at t ~time body =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
         t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let ev = Closure { body; state = Pending } in
  Heap.push t.heap ~time ~seq ev;
  t.live <- t.live + 1;
  ev

let schedule t ~delay body =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock +. delay) body

let port handler = Port handler

let schedule_port t ~delay port arg =
  if delay < 0.0 then invalid_arg "Engine.schedule_port: negative delay";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push_after t.heap ~base:t.clock ~delay ~seq ~arg port;
  t.live <- t.live + 1

let cancel t ev =
  (* Lazy deletion: the entry stays in the heap and is skipped at pop.
     Only a still-pending event counts against [live]; cancelling a fired
     or already-cancelled event is a true no-op. *)
  match ev with
  | Closure ({ state = Pending; _ } as c) ->
      c.state <- Cancelled;
      t.live <- t.live - 1;
      t.cancelled <- t.cancelled + 1
  | Closure _ | Port _ -> ()

let[@inline] fire ev arg =
  match ev with
  | Closure c ->
      c.state <- Fired;
      c.body ()
  | Port handler -> handler arg

(* Remove the heap minimum and run it unless it was cancelled.  Every
   drain path goes through here, reading the minimum in place, so a warm
   event loop allocates nothing per event: the clock is re-boxed only
   when the time advances.  Returns [false] for a cancelled entry, which
   is simply discarded. *)
let pop_and_fire t =
  let h = t.heap in
  let ev = Heap.min_payload h in
  match ev with
  | Closure { state = Cancelled; _ } ->
      Heap.drop_min h;
      false
  | Closure _ | Port _ ->
      let arg = Heap.min_arg h in
      if Heap.compare_min_time h t.clock <> 0 then t.clock <- Heap.min_time h;
      Heap.drop_min h;
      t.live <- t.live - 1;
      t.executed <- t.executed + 1;
      (* Profiling off is the common case and must stay allocation-free on
         this path: one load-and-branch, then the direct call. *)
      if Prof.on t.prof then begin
        let t0 = Prof.start t.prof in
        let a0 = Prof.alloc0 t.prof in
        fire ev arg;
        Prof.record t.prof Prof.Engine_dispatch ~t0 ~a0
      end
      else fire ev arg;
      true

let rec step t = (not (Heap.is_empty t.heap)) && (pop_and_fire t || step t)

let run ?until t =
  match until with
  | None ->
      while not (Heap.is_empty t.heap) do
        ignore (pop_and_fire t)
      done
  | Some limit ->
      (* Peek before removing: an event past the limit never leaves the
         heap, so its (time, seq) ordering is untouched. *)
      while
        (not (Heap.is_empty t.heap)) && Heap.compare_min_time t.heap limit <= 0
      do
        ignore (pop_and_fire t)
      done;
      if t.clock < limit then t.clock <- limit

let pending t = t.live
let processed t = t.executed
let scheduled t = t.next_seq
let cancelled t = t.cancelled
