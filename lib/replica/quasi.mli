(** QUASI — quasi-copies comparator (paper §5.2): all updates 1SR at a
    primary site; replicas refresh under a closeness condition
    ([quasi_refresh]: immediate, periodic, or value-drift).  Queries read
    the local quasi-copy uncharged; [epsilon = Limit 0] routes to the
    primary.

    A recovered primary re-pushes its whole image (its dirty set and
    last-pushed images are volatile), and {!converged} compares each
    quasi-copy with the primary on the shards it replicates. *)

include Intf.S
