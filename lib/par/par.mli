(** Fixed-size domain pool with deterministic reduction (DESIGN.md
    Section 5e).

    The paper's framework is an embarrassingly parallel portfolio:
    independent initialiser→HC→HCcs chains, a multilevel sweep over
    coarsening ratios, and an experiment runner over many (DAG,
    machine) instances. This module is the single substrate all three
    fan-out sites share.

    {b Determinism contract.} Tasks may run on any domain in any
    order, but results are always combined in {i submission order}
    with index tie-breaking: {!map} returns results positionally,
    {!map_reduce} folds left-to-right over the submission order, and
    {!best_of} returns the minimum with ties broken towards the lowest
    submission index. If every task is itself a deterministic function
    of its input, any jobs count therefore produces bit-identical
    values to [jobs = 1]. Exceptions follow the same rule: when
    several tasks raise, the submitter re-raises the one with the
    lowest index.

    {b Pool.} Worker domains are spawned once, lazily, on the first
    batch that needs them, and fed from a shared batch queue
    (atomic-counter work claiming). The submitting domain also
    executes tasks, so a batch always makes progress even with zero
    workers; the pool is torn down via [at_exit]. Nested calls from
    inside a worker-run task degrade to sequential execution (no
    domain ever blocks waiting for pool capacity), so fan-out sites
    can be composed freely — e.g. an experiment sweep whose tasks each
    run the pipeline's own candidate fan-out.

    {b Observability.} When the submitting domain has an ambient
    {!Obs.Metrics} registry installed, each parallel task runs under a
    fresh child registry (seeded with the parent's open-span context)
    and the children are merged back in submission order —
    see {!Obs.Metrics.merge_into} for the exact semantics. With
    [jobs = 1] tasks record straight into the ambient registry,
    exactly as sequential code always did.

    {b Budgets.} {!Budget.t} values are not domain-safe; create each
    stage budget {i inside} the task that consumes it (the pipeline
    already does), which also makes wall-clock caps per-task.

    {b Flight recording.} When {!Obs.Events} is enabled, every batch
    records into the per-domain rings: a "batch" instant at
    submission, a "claim" instant per work-claim, a "queue_wait" span
    from submission to each task's start, a "task" span per task run
    (arg = submission index), "idle" spans while workers wait for
    work, and gc_minor_words / gc_minor_collections /
    gc_major_collections counter samples from the per-drain
    [Gc.quick_stat] deltas — so a Perfetto timeline shows run vs wait
    vs GC per domain. Independently, when a metrics registry is
    installed, per-task wall-clock runtimes are observed into the
    "par.task_seconds" histogram (at {i every} jobs setting, so counts
    are comparable) and parallel-path queue waits into
    "par.queue_wait_seconds". With both disabled the hot path reads no
    clocks. *)

val default_jobs : unit -> int
(** The initial jobs setting: the value of the [BSP_JOBS] environment
    variable when it parses as a positive integer, else 1. *)

val jobs : unit -> int
(** The current jobs setting (>= 1). [1] means: run everything
    sequentially on the calling domain, spawn nothing. *)

val set_jobs : int -> unit
(** Set the jobs count (clamped to >= 1). [set_jobs n] with [n > 1]
    allows batches to run on up to [n] domains (the submitter plus
    [n - 1] pool workers); workers are spawned lazily on first use and
    reused across batches. Call this once from the main domain (the
    CLI [--jobs] flag does). *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** Run the callback with the jobs setting temporarily replaced
    (exception-safe restore). Used by the bench harness to time the
    same sweep at [jobs = 1] and [jobs = N] in one process. *)

val chunk_size : factor:int -> jobs:int -> count:int -> int
(** The number of task indices one work-claim takes from a batch of
    [count] tasks drained by up to [jobs] domains:
    [max 1 (count / (factor * jobs))]. The oversubscription [factor] is
    the target number of claims per drainer per batch — higher factors
    re-balance better under skewed task runtimes, lower factors
    amortise the atomic claim over more tasks. Tiny batches
    ([count <= factor * jobs], e.g. a 4-ratio portfolio at [jobs = 4])
    degenerate to chunk 1 so no drainer hoards tasks another domain
    could run. Pure; exposed for tests. *)

val chunk_factor : int
(** The oversubscription factor every batch is sized with: 4. *)

val minor_heap_words : int
(** The per-domain minor heap size (in words) applied to every domain
    that participates in a parallel batch: 2M words (16 MiB). In
    OCaml 5 a minor collection
    stops {e all} domains, so allocation-heavy tasks on a default-sized
    minor heap (256k words) serialise the pool through stop-the-world
    pauses; a larger nursery makes them proportionally rarer. Applied
    by each domain to itself — workers at spawn, the submitter on its
    first parallel batch — and never shrinks a larger configured
    heap, so [OCAMLRUNPARAM=s=] can set one. *)

(** {1 Per-domain statistics}

    Every domain that drains batch work accumulates, per {!stats}
    window: how many tasks and batches it ran, and the GC activity
    those tasks caused. Word counts come from [Gc.counters] deltas
    around each drain, which read only the draining domain's own
    allocation counters — [Gc.quick_stat] would be wrong here, because
    in OCaml 5 it samples every live domain, so each domain would
    report roughly the whole process's allocation and summing the
    stats would multi-count it. This is the measurement layer behind
    the bench harness's parallel block — minor-GC-bound parallelism
    shows up as high [minor_collections] with low speedup, granularity
    problems as skewed [tasks_run]. *)

type domain_stats = {
  domain_index : int;  (** registration order; the submitter is usually 0 *)
  is_worker : bool;  (** false for domains that submit batches *)
  tasks_run : int;
  batches_drained : int;  (** drain sessions with >= 1 task run *)
  last_chunk : int;
      (** chunk size (indices per work-claim) of the most recent batch
          this domain drained; [0] until it drains one *)
  minor_words : float;
      (** words this domain allocated in its minor heap while draining
          (domain-local, safe to sum across domains) *)
  promoted_words : float;
      (** approximate under parallel minor GC: promotion work can be
          shared across domains during a global minor cycle *)
  minor_collections : int;
      (** global minor cycles observed during this domain's drains —
          minor collections involve every domain, so these overlap
          across domains and must not be summed *)
  major_collections : int;  (** same caveat as [minor_collections] *)
}

val reset_stats : unit -> unit
(** Zero every domain's accumulators (typically right before a timed
    section). *)

val stats : unit -> domain_stats list
(** Snapshot of every participating domain's accumulators since the
    last {!reset_stats}, ordered by [domain_index]. Domains that never
    drained a task are absent. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] computes [List.map f xs], evaluating the elements in
    parallel on the pool. Results are returned in submission order. *)

val map_reduce : map:('a -> 'b) -> reduce:('c -> 'b -> 'c) -> init:'c -> 'a list -> 'c
(** [map_reduce ~map ~reduce ~init xs] is
    [List.fold_left reduce init (List.map map xs)] with the map phase
    parallel; the reduction is applied left-to-right in submission
    order, so non-commutative reductions are safe. *)

val best_of : cmp:('b -> 'b -> int) -> ('a -> 'b) -> 'a list -> 'b
(** [best_of ~cmp f xs] maps in parallel and returns the minimum
    result under [cmp], ties broken towards the lowest submission
    index — the deterministic "portfolio winner" reduction.
    @raise Invalid_argument on the empty list. *)
