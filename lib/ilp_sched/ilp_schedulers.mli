(** The four ILP-based scheduling methods (Section 4.4).

    All methods are improvement operators with the CBC contract of the
    paper's pipeline (Section 6): they receive the current schedule,
    search under a budget, and return a strictly better schedule or the
    input unchanged. Acceptance always compares the {e true} BSP cost of
    the extracted candidate (after compaction and lazy re-derivation of
    the communication schedule), so a method can never make the pipeline
    worse.

    Variable caps replace the paper's 4000-variable rule of thumb for
    CBC: the pure-OCaml branch-and-bound substrate is weaker than CBC, so
    the defaults are smaller (DESIGN.md, substitution 1), but they play
    the same role — they size the superstep intervals of {!part}, the
    batches of {!init}, and gate {!full}. *)

type report = {
  improved : bool;
  cost_before : int;  (** {!Bsp_cost.total} of the input *)
  cost_after : int;  (** {!Bsp_cost.total} of the returned schedule *)
  bb_nodes : int;  (** branch-and-bound nodes over all sub-solves *)
  sub_solves : int;  (** number of ILP models solved *)
  proven_optimal : bool;
      (** every sub-solve exhausted its tree with sound bounds — for
          {!full} this certifies optimality over the modelled superstep
          count *)
}

val full :
  ?budget:Budget.t ->
  ?max_vars:int ->
  ?max_nodes:int ->
  Machine.t ->
  Schedule.t ->
  Schedule.t * report
(** ILPfull: model the whole problem over the input schedule's superstep
    range. Returns the input untouched (with [sub_solves = 0]) when the
    estimated variable count exceeds [max_vars] (default 2000, the
    analogue of the paper's 20000-variable CBC gate). *)

val full_is_noop : ?max_vars:int -> Machine.t -> Schedule.t -> bool
(** Whether {!full} with this [max_vars] (same default) would run no
    sub-solve and return its input: the schedule has no superstep, or
    its [n * S * P^2] variable estimate exceeds the cap. Decided from
    the node and superstep counts; reads only the assignment, so a
    schedule and its {!Schedule.with_lazy_comm} copy answer alike. *)

val part_is_noop : ?max_vars:int -> Machine.t -> Schedule.t -> bool
(** Whether {!part} with this [max_vars] (same default), given the
    schedule's {!Schedule.with_lazy_comm} copy, would run no sub-solve
    and return that copy: no interval would be solved and no superstep
    is empty (compaction would otherwise change the result). Decided
    from per-superstep node counts as prefix sums, in O(n + S) time and
    O(S) words; false for a replicated schedule. *)

val part :
  ?budget:Budget.t ->
  ?max_vars:int ->
  ?max_nodes:int ->
  Machine.t ->
  Schedule.t ->
  Schedule.t * report
(** ILPpart: split the supersteps into disjoint intervals from back to
    front, growing each interval until the variable estimate
    [|V0| * |S0| * P^2] exceeds [max_vars] (default 600), and re-optimise
    each interval in place. *)

val init :
  ?budget:Budget.t ->
  ?max_vars:int ->
  ?max_nodes:int ->
  Machine.t ->
  Dag.t ->
  Schedule.t
(** ILPinit: build an initial schedule by batching a topological order;
    each batch is assigned within 3 fresh supersteps by an interval ILP
    ([|V0| * 3 * P^2 <= max_vars], default 400); a batch whose solve
    yields nothing falls back to a single processor. Once [budget] is
    exhausted, every remaining batch takes that fallback without
    building its model. The result is compacted. *)

val comm_schedule :
  ?budget:Budget.t ->
  ?max_vars:int ->
  ?max_nodes:int ->
  Machine.t ->
  Schedule.t ->
  Schedule.t * report
(** ILPcs: optimise the communication schedule with the assignment
    fixed, over the same decision space as {!Hccs} (one direct send per
    required (node, destination) pair, anywhere in its feasible phase
    window). Pairs are modelled as one binary per feasible phase; when
    the model would exceed [max_vars] (default 1500), windows are
    trimmed towards the lazy end and low-volume pairs are frozen at
    their current phase (entering the h-relation rows as constants). *)
