(** Greedy merging of adjacent supersteps.

    Merging superstep [s+1] into [s] re-labels assignments only, so it is
    valid exactly when no cross-processor edge connects the two steps;
    it saves one latency term and often communication too. Both the
    HDagg-style baseline (its "hybrid aggregation") and the framework's
    local-search stage use this pass: single-node hill climbing cannot
    cross this plateau because each individual relabeling is
    cost-neutral until the whole superstep empties.

    Operates on the assignment with lazy communication; the result
    carries a fresh lazy schedule. One left-to-right pass in
    O(n + m + S·p) for S supersteps: each merge attempt is costed in
    O(p) from the per-superstep work, send and receive rows. *)

val greedy : Machine.t -> Schedule.t -> Schedule.t
(** Repeatedly merge a superstep into its predecessor while this is
    valid and strictly decreases total cost; never worse than input.
    Raises [Invalid_argument] on a replicated schedule: the merge
    reasons about single placements only, so replication (a final
    polish) must run after it. *)
