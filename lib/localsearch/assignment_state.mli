(** Shared incremental state for assignment-space local search.

    The hill climber ({!Hc}) explores one neighbourhood — move one node
    to another processor and/or an adjacent superstep — and needs the
    cost of each candidate in (near-)constant time. This module owns that
    machinery: the assignment arrays, the per-(node, processor)
    first-need table pinning the lazy communication events, and the
    incremental {!Cost_table}.

    The state is a pure function of the assignment [(pi, tau)], so any
    applied move can be rolled back exactly by applying the inverse
    move.

    {b Replication} (DESIGN.md Section 5g). The state also supports a
    second move family: place an extra {e replica} of a node on another
    processor (in the node's own superstep), or drop one again. A
    replica duplicates the node's work on its processor, makes the node
    local to that processor's consumers, and receives every predecessor
    input the processor does not already hold; events ship from the
    nearest placement by [lambda] (primary first, then ascending replica
    processors on ties). Replication moves and single-node moves do not
    interleave: once the state holds a replica, the move entry points
    ({!delta_cost}, {!delta_cost_row}, {!delta_cost_cached},
    {!apply_move}) raise [Invalid_argument] — the search runs its move
    phase to convergence first and replicates afterwards. *)

type t

val init : Machine.t -> Schedule.t -> t
(** Build the state from a schedule (its communication schedule is
    replaced by the lazy one). The number of supersteps is fixed for the
    lifetime of the state. Replicated schedules are accepted as long as
    every replica shares its node's superstep — the only shape the
    search itself produces; anything else raises [Invalid_argument].

    States draw their scratch arrays from a per-domain pool fed by
    {!release}, so a search loop that releases its states runs
    allocation-free across iterations — the point of the pooling is to
    keep the parallel candidate fan-out off the minor heap (DESIGN.md
    Section 5f). *)

val release : t -> unit
(** Return the state's backing arrays to the calling domain's pool for
    reuse by a later {!init}, and invalidate the state — the caller must
    not touch it afterwards. Optional: a state that is never released
    (e.g. because an exception unwound past it) is reclaimed by the GC
    like any other value. *)

val prewarm : Machine.t -> Dag.t -> num_steps:int -> unit
(** Park one max-capacity state in the calling domain's pool so that
    every later {!init} for this machine/DAG at up to [num_steps]
    supersteps reuses its arrays instead of allocating fresh ones. The
    multilevel driver calls this once with the finest level's
    dimensions before uncoarsening: level sizes only grow on the way
    up, so without it each level's [init] finds the previous (smaller)
    level's arrays too small and falls back to allocation. No-op when
    the pool already holds a state of sufficient capacity. *)

val machine : t -> Machine.t
val num_steps : t -> int
val proc : t -> int -> int
val step : t -> int -> int
val total_cost : t -> int

val valid_move : t -> int -> int -> int -> bool
(** [valid_move st v p' s'] — would reassigning [v] to [(p', s')] keep
    the schedule valid (under lazy communication)? *)

val move_window : t -> int -> int * int * int * int
(** [(last_pred, last_pred_proc, first_succ, first_succ_proc)] for one
    node: the latest predecessor superstep (or [-1]) and the earliest
    successor superstep (or {!num_steps}), each with the common
    processor of the nodes attaining it ([-1] if they disagree). A
    candidate [(p', s')] is valid iff [s'] is in range and

    {[ (s' > last_pred || (s' = last_pred && p' = last_pred_proc))
       && (s' < first_succ || (s' = first_succ && p' = first_succ_proc)) ]}

    Equivalent to {!valid_move} but O(1) per candidate once the window
    is computed, which lets {!Hc}'s scan amortise the pred/succ scan
    over a node's whole neighbourhood. *)

val delta_cost : t -> int -> int -> int -> int
(** [delta_cost st v p' s'] is the exact signed change of {!total_cost}
    that {!apply_move}[ st v p' s'] would produce, computed {e without
    mutating} the state: the touched [(step, proc)] cells (work cells,
    the lazy events of [v], and the events of [v]'s predecessors towards
    the old and new processor) are collected into a scratch overlay and
    the superstep maxima are re-derived only over the touched supersteps.
    Rejected candidates therefore cost a single read-only pass instead of
    an apply/rollback cycle. Requires {!valid_move}[ st v p' s'];
    returns [0] for the identity move. *)

val delta_cost_row : t -> int -> s2:int -> int array -> unit
(** [delta_cost_row st v ~s2 out] fills [out.(p')] with
    [delta_cost st v p' s2] for {e every} processor [p'] at once
    ([out] must have length [p]). The removal side of the move — [v]
    leaving its current cell, its producer events, its predecessors'
    events towards the old processor — is identical for all targets and
    is accumulated once; only the per-target addition overlay is applied
    and retracted per processor. This is the hill climber's hot path:
    inside a node's validity window every processor is a valid target,
    so a whole row costs one removal plus [p] cheap additions instead of
    [p] full evaluations. Requires every [(p', s2)] to be a valid move;
    the identity entry (same processor and superstep) is set to [0]. *)

val delta_cost_cached : t -> int -> int -> int -> int
(** Same value as {!delta_cost}, but computed as one addition column
    against the removal base of [v], building it only when no base for
    [v] is resident from a recent {!delta_cost_row}. Cheaper than
    {!delta_cost} whenever [v]'s base can be shared between superstep
    rows — e.g. the single valid candidate at a window-boundary
    superstep right after a full row of the same node. Requires
    {!valid_move}[ st v p' s']. *)

val apply_move : t -> int -> int -> int -> unit
(** Apply unconditionally (caller must have checked validity); updates
    the cost tables incrementally. *)

val iter_last_touched_steps : t -> (int -> unit) -> unit
(** Iterate over the supersteps touched by the most recent
    {!delta_cost} call (each exactly once, unspecified order). The
    record survives a subsequent {!apply_move} of the same candidate, so
    a worklist can re-enqueue the nodes resident on the disturbed
    supersteps after accepting a move. Invalidated by the next
    {!delta_cost}. *)

val num_replicas_total : t -> int
(** Number of replicas currently held across all nodes; [0] until an
    {!apply_replicate} (or an {!init} from a replicated schedule). *)

val node_replicas : t -> int -> int list
(** The replica processors of one node, ascending; [[]] for most. *)

val iter_event_destinations : t -> int -> (int -> int -> unit) -> unit
(** [iter_event_destinations st u f] calls [f q vol] for every
    destination processor [q] that currently receives the value of [u]
    by a lazy event, with [vol] the event's weighted volume
    [comm(u) * lambda(nearest placement, q)] — the per-event granularity
    of {!Profile}'s traffic matrix. Ascending [q]; used to seed
    replication candidates with the heaviest traffic first. *)

val valid_replicate : t -> int -> int -> bool
(** [valid_replicate st v q] — may a replica of [v] be placed on [q]?
    True iff [q] is a real processor holding no placement of [v] yet and
    every predecessor of [v] is either placed on [q] (so the input is
    local) or computed strictly before [v]'s superstep (so a lazy event
    can deliver it in time). *)

val delta_cost_replicate : t -> int -> int -> int
(** Exact signed change of {!total_cost} that {!apply_replicate} would
    produce, computed without mutating (same scratch-overlay scheme as
    {!delta_cost}). Requires {!valid_replicate}. *)

val apply_replicate : t -> int -> int -> unit
(** Place the replica unconditionally (caller checks validity); updates
    the placement, first-need and cost bookkeeping incrementally. *)

val valid_drop_replica : t -> int -> int -> bool
(** [valid_drop_replica st v q] — may the replica of [v] on [q] be
    removed again? True iff it exists and no consumer on [q] needs [v]
    in [v]'s own superstep (the replacement event would arrive too
    late). Dropping is the exact inverse of {!apply_replicate} when that
    replication was itself valid. *)

val delta_cost_drop_replica : t -> int -> int -> int
(** Exact signed cost change of {!apply_drop_replica}, computed without
    mutating. Requires {!valid_drop_replica}. *)

val apply_drop_replica : t -> int -> int -> unit
(** Remove the replica unconditionally (caller checks validity). *)

val check_consistent : t -> unit
(** Debug helper: verifies the incremental cost table against a
    from-scratch recomputation, the [first_need]/minimiser-count
    bookkeeping against the successor lists (placement-aware), and the
    placement/replica-list agreement; raises on any mismatch. *)

val snapshot : t -> Schedule.t
(** The current placement as a schedule with lazy communication —
    replicated ({!Schedule.lazy_comm_replicated}) when the state holds
    replicas, plain otherwise. *)
