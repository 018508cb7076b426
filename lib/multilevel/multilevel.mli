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
  strategy : Coarsen.strategy;
      (** always [Paper_rule]; read only by the benchmark mirror (see
          {!Coarsen.strategy}) *)
}

val default_config : config
(** [ratios = [0.3; 0.15]], [refine_interval = 5], [refine_moves = 100]. *)

val coarsening : ratios:float list -> Dag.t -> Coarsen.contraction list
(** The contraction history of one coarsening of the DAG to the
    smallest target of [ratios] (each ratio's target is
    [max 2 (ratio * n)]). By {!Coarsen.history}'s prefix property it
    holds every ratio's level: pass it to {!run_ratio} as
    [contractions] for each ratio. Runs in a ["coarsen"] span. *)

val run_ratio :
  ?budget:Budget.t ->
  contractions:Coarsen.contraction list ->
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
    its config and keeps the cheapest). [contractions] is a
    {!coarsening} of the same DAG to this ratio's target or a smaller
    one; the pass takes the domain's pooled session ({!Coarsen.take}),
    rebuilds its level there by {!Coarsen.replay}, which by the prefix
    property is the level a coarsening to this ratio's own target
    reaches, and releases the session when it returns. [budget] bounds the HC
    refinement work across all levels; once it is spent, the remaining
    levels are only projected, with no quotient and no HC run, which
    gives the same schedule as refining them on a spent budget. Each
    refinement runs {!Hc.improve_assignment} in place on the level
    view ({!Coarsen.view}) and on assignment buffers sized for the
    finest level. *)
