(** The multilevel scheduling framework (Sections 4.5, 6; Figure 4).

    Designed for instances dominated by communication costs, where
    single-node methods fail because only moving whole well-connected
    clusters between processors pays off. Three phases:

    + {b Coarsen} the DAG with {!Coarsen} to a fraction of its size;
    + {b Solve} the coarse instance with the base scheduling pipeline
      (passed in as a callback, so this library does not depend on the
      pipeline assembly);
    + {b Uncoarsen and refine}: undo the contractions a few at a time,
      projecting the schedule onto the finer level (every restored node
      inherits the processor and superstep of its cluster, which keeps
      the schedule valid) and running a bounded number of HC improvement
      moves at each level.

    As in the paper, HCcs is not run during refinement — the coarse DAG
    over-estimates communication because cluster weights are summed —
    and the caller is expected to run the communication-schedule
    optimisers (HCcs, ILPcs) on the final fully-uncoarsened schedule.
    The standard configuration tries coarsening ratios 0.15 and 0.30 and
    keeps the cheaper result (Appendix A.5). *)

type config = {
  ratios : float list;  (** coarsening targets as fractions of [n] *)
  refine_interval : int;  (** uncontractions between refinement rounds *)
  refine_moves : int;  (** max HC moves per refinement round *)
  strategy : Coarsen.strategy;  (** edge-selection rule for coarsening *)
}

val default_config : config
(** [ratios = [0.3; 0.15]], [refine_interval = 5], [refine_moves = 100],
    the paper's edge-selection rule. *)

val run_ratio :
  ?budget:Budget.t ->
  ?strategy:Coarsen.strategy ->
  refine_interval:int ->
  refine_moves:int ->
  solver:(Machine.t -> Dag.t -> Schedule.t) ->
  ratio:float ->
  Machine.t ->
  Dag.t ->
  Schedule.t
(** One coarsen-solve-refine pass at a single ratio, returning the
    refined schedule without the final HCcs/ILPcs polish, which the
    caller owns ({!Pipeline.run_multilevel} runs one pass per ratio of
    its config and keeps the cheapest). [budget] bounds the HC
    refinement work across all levels; once it is spent, the remaining
    levels are only projected, with no quotient and no HC run, which
    gives the same schedule as refining them on a spent budget. *)
