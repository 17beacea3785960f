(** TWOPC — synchronous 1SR baseline: primary-site 2PL (a global lock
    service at site 0, sorted-key acquisition, hence no update/update
    deadlocks) plus two-phase commit across all replicas, with
    presumed-abort coordinator timeouts.  Queries lock and read the local
    copy (read-one/write-all).  The "traditional coherency control" the
    paper positions ESR against (§2.4). *)

type t

val meta : Intf.meta
val create : Intf.env -> t

val submit_update :
  t -> origin:int -> Intf.intent list -> (Intf.update_outcome -> unit) -> unit

val submit_query :
  t ->
  site:int ->
  keys:string list ->
  epsilon:Esr_core.Epsilon.spec ->
  (Intf.query_outcome -> unit) ->
  unit

val flush : t -> unit

val on_crash : t -> site:int -> unit
(** Volatile state at the site is lost: wait contexts fail degraded,
    buffered work is dropped, and in-doubt coordination this site led is
    presumed aborted.  Durable state (the log and protocol journals)
    survives.  Idempotent while the site stays down. *)

val on_recover : t -> site:int -> unit
(** Rebuild the volatile image by replaying the durable log, re-ingest
    journaled protocol state, and resume.  Idempotent while up. *)

val checkpoint : t -> site:int -> unit
(** Asynchronous checkpoint cut at the site (see {!Checkpoint.cut}):
    snapshot the image, truncate the durable log, and reclaim journal
    records behind the watermark.  No-op when the run does not
    checkpoint or the site is down. *)

val quiescent : t -> bool
val backlog : t -> int
val store : t -> site:int -> Esr_store.Store.t
val mvstore : t -> site:int -> Esr_store.Mvstore.t option
val history : t -> site:int -> Esr_core.Hist.t
val converged : t -> bool
val stats : t -> (string * float) list

val resources : t -> site:int -> Intf.resources
(** Per-site durable/volatile footprint.  No receipt journal here, so
    the WAL fields are zero. *)

val tombstones : t -> int
(** Abort tombstones and unmatched no-votes, summed over sites: 0 once
    every decision has met its prepare. *)

val locked_keys : t -> int
(** Keys held or waited on, summed over every site's lock table and the
    global lock service: 0 once every transaction has finished. *)
