(** HC: hill-climbing local search over the assignment (Section 4.3).

    Starting from a valid BSP schedule, HC repeatedly applies the first
    single-node move that strictly decreases the total cost, until a
    local minimum is reached or the budget runs out. The neighbourhood of
    a node [v] currently on [(p, s)] consists of every [(p', s')] with
    [p'] any processor and [s' ∈ {s-1, s, s+1}] (within the existing
    superstep range), all other assignments unchanged (Appendix A.3).

    HC assumes and maintains the {e lazy} communication schedule: for
    every node [u] and processor [q] it stores the first superstep in
    which [q] needs the value of [u], which pins the (unique) lazy
    communication event to phase [first_need - 1] and lets a move update
    only the affected supersteps of the incremental {!Cost_table}.

    Candidate moves are costed with the read-only
    {!Assignment_state.delta_cost}; the state is mutated only for
    accepted moves. Instead of sweeping the whole DAG until a pass finds
    nothing, {!improve} keeps a dirty-node worklist: all nodes are
    seeded, and an accepted move re-enqueues only the nodes whose
    neighbourhood costs it can have disturbed (the moved node, its
    predecessors and successors, their other successors, and the nodes
    resident on the touched supersteps). A final full verification sweep
    confirms the fixpoint, so the result is a genuine local minimum of
    the same neighbourhood as the exhaustive sweep.

    The number of supersteps is fixed during the search; supersteps that
    become empty are removed by a final {!Schedule.compact}, which can
    only decrease the cost further. *)

type stats = {
  moves_applied : int;
  moves_evaluated : int;
  initial_cost : int;
  final_cost : int;
}

val improve :
  ?check:bool ->
  ?budget:Budget.t ->
  ?max_moves:int ->
  ?shards:int ->
  Machine.t ->
  Schedule.t ->
  Schedule.t * stats
(** Run the greedy first-improvement search. The input communication
    schedule is replaced by the lazy one (HC is specified over lazy
    schedules — Appendix A); the output cost is therefore measured on the
    lazy schedule too and never exceeds the input's lazy cost. Both
    costs in the stats are read from the search state's cost table. The
    input must be replica-free (raises [Invalid_argument] otherwise).

    [check] (default [false]) cross-validates every read-only delta
    against an apply/rollback round-trip of the mutating path — the
    debug-assertion mode the test suite runs in; release and benchmark
    runs leave it off so rejected candidates stay read-only. It also
    holds the stats' costs to [Bsp_cost.total] of the lazy input and of
    the result.

    [budget] is ticked once per evaluated candidate move (use it for
    wall-clock limits); [max_moves] caps the number of {e applied}
    improvement moves, which is how the multilevel refinement phase
    bounds its per-level work (Appendix A.5).

    [shards] must be [1], its default; any other value raises
    [Invalid_argument]. It is kept only for the benchmark mirror
    ([perfbench/layers]), which still passes
    [Pipeline.limits.hc_shards], and goes with that field under
    ROADMAP item 8. *)

val improve_assignment :
  ?check:bool ->
  ?budget:Budget.t ->
  ?max_moves:int ->
  Machine.t ->
  Dag.t ->
  proc:int array ->
  step:int array ->
  stats
(** {!improve} on a replica-free assignment, in place: the search runs
    on [proc]/[step] themselves ({!Assignment_state.of_assignment}), so
    when it returns they hold the same assignment as {!improve}'s
    result on [Schedule.of_assignment dag ~proc ~step] (before
    compaction), with the same stats and [hc.*] counters. No schedule
    and no communication list is built; when [moves_applied = 0] the
    arrays are untouched. This is the multilevel refinement's entry
    point. *)

val replicate_schedule :
  ?check:bool -> ?budget:Budget.t -> Machine.t -> Schedule.t -> Schedule.t
(** Node replication (DESIGN.md Section 5g), the one way to it: no
    single-node moves, so the input node-to-processor placement survives
    verbatim and only replicas are added where they strictly reduce the
    lazy cost. Candidate replications are seeded from the live event
    traffic (the per-event granularity of {!Profile}'s traffic matrix),
    evaluated heaviest-first, and applied on strict improvement, with
    existing replicas reconsidered for dropping, until a full round
    changes nothing. Run it on {!improve}'s result to replicate a
    move-phase local minimum. The input communication schedule is
    replaced by the lazy one, which can undo a hand-optimised event
    placement — compare the result's cost against the input's and keep
    the cheaper, as {!Pipeline.run} does. The input must be
    replica-free. *)
