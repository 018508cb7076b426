(** Computation budgets for the iterative algorithms.

    The paper controls its iterative stages (hill climbing, ILP solving,
    multilevel refinement) with wall-clock limits. Wall-clock limits make
    experiments non-deterministic, so every stage in this framework
    accepts a {!t} combining an optional step budget with an optional
    wall-clock budget; tests and benchmarks use step budgets for
    reproducibility while the CLI exposes seconds. *)

type t

val unlimited : unit -> t
(** A fresh never-exhausted budget. Each call returns an independent
    value, so {!used_steps} counts only this consumer's ticks — a shared
    unlimited budget would silently sum unrelated stages. *)

val steps : int -> t
(** [steps n] is exhausted after [n] calls to {!tick} succeed. *)

val seconds : float -> t
(** [seconds s] is exhausted [s] seconds after its creation. The
    deadline is held in whole nanoseconds of {!Time_source.now_ns},
    saturating, so a deadline beyond the int range (say [seconds 1e300])
    never fires. *)

val combine : t -> t -> t
(** Exhausted as soon as either component is exhausted. Ticks are
    forwarded to both. *)

val tick : t -> bool
(** Consume one unit of work; [true] if the budget still allows more
    work, [false] once exhausted. Once exhausted, stays exhausted. *)

val capacity : t -> int
(** Units the step components still admit: [max_int] when only a
    deadline (or nothing) limits the budget, [0] once exhausted. A
    consumer that has just probed {!exhausted} can read this once and
    then do up to that many units of work without probing again. *)

val charge : t -> int -> unit
(** [charge t k] consumes up to [k] units at once, for consumers whose
    per-unit work is far cheaper than a tick (the hill climber decides
    whole blocks of candidates in O(1)). Consumption is clamped to
    {!capacity}, so a {!steps} budget never goes negative and
    {!used_steps} never over-reports. It does not probe the deadline:
    it is for consumers that probed {!exhausted} right before the work
    they now account for, so a scan costs one clock reading, not two. *)

val exhausted : t -> bool
(** Non-consuming check. Under the real clock it allocates nothing, so
    consumers can probe once per scan. *)

val used_steps : t -> int
(** Units successfully consumed through this budget value. For a
    {!combine} pair this counts units forwarded through the pair itself;
    the components also see those units in their own counters. *)
