(** The BSPg greedy initialisation heuristic (Section 4.2, Algorithm 1).

    BSPg develops a BSP schedule directly, superstep by superstep, while
    still tracking concrete start/finish times inside each computation
    phase to balance work across processors. Within the current
    superstep a processor [p] may only be assigned a node whose
    predecessors are all already available on [p] — computed on [p], or
    in an earlier superstep. Nodes that become ready with predecessors
    on several processors of the current superstep go to a global
    [ready_all] pool that opens up in the next superstep.

    When a processor frees up it receives a node from its private ready
    set, falling back to [ready_all]; ties are broken by the ChooseNode
    score: the sum over predecessors [u] (with [u] or one of [u]'s direct
    successors already on [p]) of [c u / outdeg u] — an estimate of the
    communication the assignment may save in the future. Once at least
    half of the processors are idle and the global pool is empty, the
    computation phase closes and a new superstep begins.

    The output is the assignment [(pi, tau)] completed with the lazy
    communication schedule.

    {b Complexity.} Scores are maintained incrementally rather than
    rescanned. A flat [n * P] byte map holds [near u q] ("[u] or a
    direct successor of [u] is on [q]"), which only ever turns on, when
    a node is assigned. Assigning [v] to [q] turns it on for [v]'s
    predecessors [u], and only the ready successors of a [u] whose flag
    flipped are rescored, for [q] alone. Candidates sit in per-processor
    binary max-heaps over flat arrays ordered by (score descending, id
    ascending), with lazy deletion: one heap per private pool, one per
    processor over the [ready_all] members it scores positively, and a
    shared one over all of [ready_all], ordered by id, for the
    zero-score rest. A run sums O(P * sum_v indeg(v)^2) score terms
    and pushes O((n + m) P) heap entries of O(log n) each, which is
    linear for bounded degrees. Its extra memory is O(n) words, the
    [n * P] bytes of the map, and the heap entries pushed since the
    current superstep opened (the quadratic rescan it replaced is kept
    as a test oracle). A rescore sums the predecessor terms from
    scratch in ascending id order, so every float, every tie-break and
    hence every schedule is identical to the full rescan. *)

val schedule : Machine.t -> Dag.t -> Schedule.t
