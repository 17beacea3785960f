(** Lock manager parameterised by a {!Lock_table}.

    This is the site-local divergence control engine: instantiate it with
    {!Lock_table.standard} for a classic 2PL scheduler, with
    {!Lock_table.ordup} or {!Lock_table.commu} for the paper's ET
    disciplines.  Commutativity-conditional entries ([If_commutes]) are
    discharged against the actual operations carried by the requests.

    Requests are granted FIFO per key (no starvation).  Deadlocks are
    detected eagerly on a wait-for graph; the requester whose wait would
    close a cycle is rejected ([Deadlock]) and is expected to abort. *)

type t

val create : ?table:Lock_table.t -> unit -> t
(** [table] defaults to {!Lock_table.standard}. *)

val table : t -> Lock_table.t

type outcome =
  | Granted
  | Blocked  (** queued; [on_grant] fires when the lock is acquired *)
  | Deadlock  (** refused — waiting would create a deadlock cycle *)

val acquire :
  t ->
  txn:int ->
  key:string ->
  mode:Lock_table.mode ->
  ?op:Esr_store.Op.t ->
  ?on_grant:(unit -> unit) ->
  unit ->
  outcome
(** A transaction's own locks never conflict with its new requests. *)

val release_all : t -> txn:int -> unit
(** Drop all locks held by [txn], cancel its queued requests, and grant
    any now-compatible waiters (their [on_grant] callbacks run inside this
    call: FIFO per key, keys in the order [txn] first touched them).
    Costs work in the keys [txn] touched, not in the keys ever seen; keys
    left with no holder and no waiter are forgotten. *)

val holds : t -> txn:int -> key:string -> bool
val holders : t -> key:string -> (int * Lock_table.mode) list
val queue_length : t -> key:string -> int

val waiters : t -> key:string -> (int * Lock_table.mode) list
(** Queued requests on [key], FIFO. *)

val active_keys : t -> int
(** Keys currently held or waited on; 0 once every transaction has
    released. *)

type counters = { granted : int; blocked : int; deadlocks : int }

val counters : t -> counters
