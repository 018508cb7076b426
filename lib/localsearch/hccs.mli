(** HCcs: hill climbing on the communication schedule (Section 4.3).

    With the assignment [(pi, tau)] fixed, the only remaining freedom is
    {e when} to send each required value: if processor [q] first needs
    the value of [u] in superstep [s0], the transfer may use any
    communication phase in the window [[tau u, s0 - 1]]. Like the
    paper's HCcs, this assumes each value is sent directly from the
    processor that computed it (no relaying), so the communication
    schedule is exactly one event per required (node, destination) pair.

    The search greedily moves single events to a different phase of
    their window while this strictly decreases the total cost, reusing
    the incremental {!Cost_table}. Spreading transfers over earlier,
    underused phases flattens h-relation peaks — the gain the lazy
    schedule leaves on the table.

    Candidates are costed read-only, and the table is mutated only for
    accepted moves. A candidate's cost change has two halves:
    - the {e addition half} (putting the event into phase [s]) only
      raises [send.(s).(src)] and [recv.(s).(dst)], so it follows in
      O(1) from the phase's cached h-relation maximum and those two
      cells;
    - the {e removal half} (taking it out of its current phase) does
      not depend on [s], so it is computed once per pair and again
      after each applied move, rescanning the phase's row only when
      one of the two lowered cells was the phase's maximum.

    The budget is probed once per pair: the pair's window is evaluated
    up to the step capacity the budget has left, and its evaluations
    are charged in one go, so the budget's consumption still equals
    [moves_evaluated]. A deadline is therefore checked between pairs,
    not between the candidates of one window. *)

type stats = {
  moves_applied : int;
  moves_evaluated : int;
  initial_cost : int;
  final_cost : int;
}

type pair = {
  node : int;
  src : int;  (** the producing processor, [pi node] *)
  dst : int;
  vol : int;  (** [c node * lambda src dst] *)
  lo : int;  (** earliest usable phase, [tau node] *)
  hi : int;  (** latest usable phase, [first_need - 1] *)
  mutable cur : int;  (** currently chosen phase *)
}

val required_pairs : Machine.t -> Schedule.t -> pair list
(** One entry per event of the assignment's lazy schedule
    ({!Schedule.lazy_comm}), in its ascending (node, destination) order:
    the window ends at the lazy phase. Each pair starts from the input
    schedule's direct event where one fits the window, and at the lazy
    phase otherwise. Shared with the ILPcs formulation, which optimises
    the same decision space exactly. *)

val improve :
  ?budget:Budget.t -> Machine.t -> Schedule.t -> Schedule.t * stats
(** The input's communication events are kept where the window permits
    (direct events only); everything else starts from the lazy position.
    The result carries the optimised explicit communication schedule. *)
