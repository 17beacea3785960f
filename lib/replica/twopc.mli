(** TWOPC — synchronous 1SR baseline: primary-site 2PL (a global lock
    service at site 0, sorted-key acquisition, hence no update/update
    deadlocks) plus two-phase commit across all replicas, with
    presumed-abort coordinator timeouts.  Queries lock and read the local
    copy (read-one/write-all).  The "traditional coherency control" the
    paper positions ESR against (§2.4).

    Prepared transactions and their W-locks are durable; the site's own
    2PC records that land while it is down are replayed at recovery. *)

include Intf.S

val tombstones : t -> int
(** Abort tombstones and unmatched no-votes, summed over sites: 0 once
    every decision has met its prepare. *)

val locked_keys : t -> int
(** Keys held or waited on, summed over every site's lock table and the
    global lock service: 0 once every transaction has finished. *)
