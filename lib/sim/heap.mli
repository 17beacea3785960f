(** Binary min-heap keyed by [(time, sequence)].

    The sequence number makes the ordering of simultaneous events stable
    (FIFO among equal timestamps), which the simulator needs for
    determinism.

    Internally a structure-of-arrays: times in a flat float array, seqs
    and int arguments in int arrays, payloads in their own array.  [push] and [drop_min]
    allocate nothing once the backing arrays are warm, which is what the
    engine's event loop relies on at million-event scale. *)

type 'a t

val create : ?hint:int -> unit -> 'a t
(** [hint] pre-sizes the first backing-array allocation (default 16) so a
    caller that knows its event volume avoids the doubling cascade. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> unit
(** Push with int argument 0. *)

val push_after :
  'a t -> base:float -> delay:float -> seq:int -> arg:int -> 'a -> unit
(** [push_after t ~base ~delay ~seq ~arg p] pushes [p] at time
    [base +. delay], with [arg] stored in the int column so a payload
    shared by many entries needs no per-entry allocation.  The sum is
    formed inside, so callers passing floats they already hold boxed
    allocate nothing. *)

val min_time : 'a t -> float
(** Time of the minimum element.  @raise Invalid_argument on an empty
    heap — guard with {!is_empty}. *)

val compare_min_time : 'a t -> float -> int
(** [compare_min_time t x] is [Float.compare (min_time t) x] without
    boxing the minimum's time.  @raise Invalid_argument on an empty
    heap. *)

val min_seq : 'a t -> int
(** Sequence number of the minimum element.  @raise Invalid_argument on
    an empty heap. *)

val min_arg : 'a t -> int
(** Int argument of the minimum element.  @raise Invalid_argument on an
    empty heap. *)

val min_payload : 'a t -> 'a
(** Payload of the minimum element, without removing it.
    @raise Invalid_argument on an empty heap. *)

val drop_min : 'a t -> unit
(** Remove the minimum element.  Combined with {!min_time} and
    {!min_payload} (and {!min_arg}) this is the allocation-free
    alternative to {!pop}.
    @raise Invalid_argument on an empty heap. *)

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element. *)

val peek : 'a t -> (float * int * 'a) option
