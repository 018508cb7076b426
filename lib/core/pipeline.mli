(** The combined scheduling framework (Section 6, Figures 3 and 4).

    The base pipeline runs every applicable initialisation heuristic
    (BSPg, Source, and optionally ILPinit), improves each with HC + HCcs
    and keeps the best; it then applies the ILP stages: ILPfull when the
    model is small enough, and — unless ILPfull proved its answer optimal
    — ILPpart followed by ILPcs. Every stage is an improvement operator,
    so the pipeline's cost is monotonically non-increasing across stages,
    and the per-stage costs are reported for the experiment tables
    (Table 7, Figure 5).

    The multilevel pipeline (Figure 4) wraps the base pipeline in the
    coarsen-solve-refine scheme of {!Multilevel}, running the
    communication-schedule optimisers only on the final uncoarsened
    schedule.

    Budgets are given as specs ({!limits}) rather than live
    {!Budget.t} values because each stage consumes a fresh budget; step
    limits keep results deterministic, and an optional per-stage
    wall-clock cap mirrors the paper's per-stage minute limits. *)

type limits = {
  hc_evals : int;  (** candidate evaluations per HC run *)
  hccs_evals : int;
  ilp_full_max_vars : int;  (** gate for attempting ILPfull at all *)
  ilp_full_nodes : int;  (** branch-and-bound node cap *)
  ilp_part_max_vars : int;  (** interval sizing, the 4000-variable analogue *)
  ilp_part_nodes : int;
  ilp_init_max_vars : int;
  ilp_init_nodes : int;
  ilp_cs_max_vars : int;
  ilp_cs_nodes : int;
  use_ilp : bool;  (** disable all ILP stages (huge dataset runs) *)
  use_ilp_init : bool;
      (** run the ILPinit initialiser; the experiments and the CLI
          enable it only where {!ilp_init_pays} ([P = 4], small DAGs),
          where the training runs showed it competitive (Appendix C.1) *)
  stage_seconds : float option;  (** optional wall-clock cap per stage *)
  hc_check : bool;
      (** run HC with its delta-vs-apply cross-validation assertions
          (see {!Hc.improve}); off in {!thorough_limits}, so rejected
          candidate moves stay read-only *)
  replicate : bool;
      (** run {!Hc.replicate_schedule} as a final stage and keep its
          result when strictly cheaper (DESIGN.md Section 5g); off in
          {!thorough_limits}, so baseline costs stay bit-identical. The
          CLI's [--replicate] flag turns it on. *)
  hc_shards : int;
      (** must be [1], as in {!thorough_limits}. The library reads it
          nowhere; it is kept only for the benchmark mirror
          ([perfbench/layers]), which passes it to {!Hc.improve}'s
          [?shards] (any other value raises [Invalid_argument] there),
          and goes with that argument under ROADMAP item 8. *)
}

val ilp_init_pays : Machine.t -> Dag.t -> bool
(** The ILPinit policy: [true] when [P = 4] and the DAG has at most 600
    nodes, where the paper runs ILPinit (Appendix C.1, Tables 4-5).
    [Engine.schedule] sets [use_ilp_init] from it for the
    top-level pipeline. Multilevel coarse solves do not consult it:
    they run without the trivial candidate, and ILPinit's near-serial
    result is often their best start (DESIGN.md Section 5). *)

val thorough_limits : limits
(** The one preset: the budgets the CLI and the serve daemon start
    from (they replace [stage_seconds] with a share of the run's
    [--seconds]). Every other caller spells out its overrides from
    it. *)

type stage_costs = {
  best_init_name : string;
      (** "bspg", "source", "trivial" or "ilp-init"; the trivial
          single-processor schedule rides along as a safety net so the
          framework never returns anything costlier than it
          (Section 7.3 motivates this for communication-dominated
          instances) *)
  init_cost : int;  (** best initialisation, before local search *)
  after_local_search : int;  (** after HC + HCcs (the paper's "HCcs") *)
  after_ilp_part : int;  (** after ILPfull + ILPpart (the "ILPpart" column) *)
  final_cost : int;  (** after ILPcs *)
  ilp_full_optimal : bool;
}

val run :
  limits:limits ->
  ?with_trivial_init:bool ->
  Machine.t ->
  Dag.t ->
  Schedule.t * stage_costs
(** The base pipeline of Figure 3. The returned schedule is valid and
    compacted, with an explicit (optimised) communication schedule.
    [with_trivial_init] (default [true]) includes the trivial
    single-processor schedule among the initial candidates; the
    multilevel coarse-solving phase turns it off (see
    {!stage_costs.best_init_name}). When an {!Obs.Metrics} registry is
    installed, the winning schedule's {!Profile} summary is recorded as
    [profile.*] gauges (supersteps, work/comm/latency split, lower-bound
    gap, peak work imbalance, bottleneck processor and its
    utilisation). *)

val run_warm :
  limits:limits ->
  ?with_trivial_init:bool ->
  warm:Schedule.t ->
  Machine.t ->
  Dag.t ->
  Schedule.t * stage_costs
(** {!run} with one extra initial candidate: an existing schedule for
    the same DAG (typically a cached best from the serve daemon's
    content-addressed cache, re-optimised under a larger budget —
    DESIGN.md Section 5h). The warm schedule is re-lazified and
    stripped of replicas before joining the candidate set; with the
    warm candidate appended after the standard initialisers, a run
    where the warm schedule never wins is bit-identical to {!run}.
    Raises [Invalid_argument] if the warm schedule's DAG has a
    different node count. *)

val run_multilevel :
  limits:limits ->
  ?solver_limits:limits ->
  ?config:Multilevel.config ->
  Machine.t ->
  Dag.t ->
  Schedule.t
(** The multilevel pipeline of Figure 4: coarsen, solve with the base
    pipeline (without ILPcs), refine, then HCcs + ILPcs on the result.
    Tries every ratio in [config] and keeps the cheapest.
    [solver_limits] (default [limits]) governs the base pipeline run on
    the coarse DAG; the benchmark harness passes a cheaper configuration
    there to bound total sweep time. *)

val run_multilevel_ratio :
  limits:limits -> ?solver_limits:limits -> ratio:float -> Machine.t -> Dag.t -> Schedule.t
(** Single-ratio variant for the C15/C30 ablation (Tables 13, 14). *)
