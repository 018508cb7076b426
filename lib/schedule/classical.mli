(** Conversion of classical schedules into BSP schedules.

    Cilk, BL-EST and ETF produce {e classical} schedules, assigning each
    node to a processor and a concrete execution slot in time. Appendix
    A.1 describes how such a schedule is organised into supersteps: while
    nodes remain, find the earliest executed node [v] that has a
    not-yet-assigned predecessor on a different processor; everything
    executed strictly before [v] forms the next superstep. This cuts the
    timeline exactly where a communication becomes unavoidable.

    Execution slots are represented here as a {e sequence}: a permutation
    index per node, consistent with precedence (a node's predecessors all
    have smaller sequence numbers) and with each processor's local
    execution order. Simulators assign sequence numbers in event order,
    which sidesteps ties between zero-work nodes that a raw time stamp
    could not break. Both functions below order the nodes by inverting
    the permutation, without a sort, and raise [Invalid_argument] when
    [seq] is not a permutation of [0 .. n-1]. *)

type t = {
  proc : int array;  (** node -> processor *)
  seq : int array;  (** node -> global execution sequence index, a permutation of [0 .. n-1] *)
}

val to_bsp : Dag.t -> t -> Schedule.t
(** Cut the classical schedule into supersteps per Appendix A.1 and
    attach the lazy communication schedule. The result is always a valid
    BSP schedule when the input respects precedence. *)

val makespan : Dag.t -> t -> int
(** Classical makespan ignoring communication: finishing time of the last
    node when each processor executes its nodes in sequence order and a
    node may only start once all predecessors finished. Useful for tests
    and diagnostics. *)
