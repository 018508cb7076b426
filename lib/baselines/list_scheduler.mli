(** Communication-volume-aware list schedulers: BL-EST and ETF.

    Both schedulers build a classical schedule by repeatedly assigning a
    ready node to a processor, pricing cross-processor data movement into
    the Earliest Start Time (EST): if predecessor [u] was scheduled on a
    different processor than candidate [p], its value arrives at
    [finish u + g * c u * avg_lambda] (the paper's baselines use the
    average NUMA coefficient rather than the exact pairwise one —
    Appendix A.1). [EST(v, p)] is the maximum of [p]'s availability and
    all predecessor arrival times.

    - {b BL-EST} always picks the ready node with the largest bottom
      level (longest outgoing weighted path) and places it on the
      processor with the earliest start time.
    - {b ETF} (Earliest Task First) examines every (ready node,
      processor) pair and commits the pair with the globally earliest
      start time, breaking ties towards the larger bottom level.

    The classical result is converted to BSP via {!Classical.to_bsp}. *)

type variant = Bl_est | Etf

val run : variant -> Machine.t -> Dag.t -> Classical.t
val schedule : variant -> Machine.t -> Dag.t -> Schedule.t
