(** Discrete-event simulation engine.

    Virtual time is a [float] in abstract milliseconds.  [run] executes
    scheduled events in timestamp order (FIFO among ties), which makes
    whole-system executions deterministic given deterministic event
    bodies.  An event is one of two kinds, sharing one sequence counter
    and one ordering:

    - a {e closure} event ({!schedule}) carries its own body and can be
      cancelled — method timers and workload arrivals use these;
    - a {e port} event ({!schedule_port}) names a handler registered once
      with {!port} and carries an [int] argument stored unboxed in the
      event heap, so scheduling and dispatching it allocate nothing — the
      per-message transport (net delivery, stable-queue acks and retry
      ticks) runs entirely on ports.

    The engine replaces a real async runtime (the container has no Lwt):
    the paper's protocols only care about message *ordering and delay*,
    which virtual time models exactly. *)

type t

type event_id
(** Handle for cancellation. *)

val create : ?hint:int -> unit -> t
(** [hint] pre-sizes the event heap (default 64); workload drivers that
    know their arrival volume pass it to skip the growth cascade. *)

val set_prof : t -> Esr_obs.Prof.t -> unit
(** Install a host-time profiler: every dispatched event body is then
    recorded as an [Engine_dispatch] phase span (inclusive of nested
    phases).  The engine starts with {!Esr_obs.Prof.disabled}, which
    keeps dispatch allocation-free — the harness installs the run's
    profiler when one is enabled. *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay].  Negative delays
    raise [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant; times in the past raise [Invalid_argument]. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or unknown event is a no-op. *)

type port
(** A handler shared by every event scheduled on it. *)

val port : (int -> unit) -> port
(** [port handler] registers [handler]; allocate it once, up front. *)

val schedule_port : t -> delay:float -> port -> int -> unit
(** [schedule_port t ~delay p arg] runs [p]'s handler on [arg] at
    [now t +. delay].  It consumes one sequence number exactly like
    {!schedule}, but allocates nothing and cannot be cancelled.  Negative
    delays raise [Invalid_argument]. *)

val step : t -> bool
(** Execute the next event.  [false] when the queue is empty.  Like
    {!run}, it allocates nothing of its own except a fresh boxed clock
    value when virtual time advances. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stops (leaving events queued)
    once the next event would fire strictly after [until] and advances the
    clock to [until]. *)

val pending : t -> int
(** Number of scheduled (uncancelled) events. *)

val processed : t -> int
(** Total events executed so far. *)

val scheduled : t -> int
(** Total events ever scheduled (fired, cancelled, or still pending). *)

val cancelled : t -> int
(** Total events cancelled before firing. *)
