(** Zero-dependency metrics substrate (DESIGN.md Sections 5c, 5i).

    A registry holds five metric families:

    - {b counters} — monotone integers ("hc.moves_evaluated");
    - {b gauges} — last-writer-wins floats ("multilevel.coarse_nodes"),
      with a max-keeping variant for peaks ("hc.worklist_peak");
    - {b series} — ordered (label, value) points, used for the
      pipeline's best-so-far cost trajectory. Retention is bounded per
      series ({!series_cap}, default 10k points): appends beyond the
      cap evict the oldest point and increment a per-series drop
      counter that is part of every snapshot, so a long-running daemon
      cannot grow its registry without limit and the truncation is
      never silent;
    - {b histograms} — log-bucketed (base-2, 64 buckets) value
      distributions with p50/p90/p99 summaries, used for per-task
      runtimes and request latencies. Buckets are a fixed flat array,
      so recording is allocation-free and the child-registry merge is
      element-wise addition — bucket contents are bit-deterministic
      regardless of recording order;
    - {b spans} — wall-clock timers keyed by a slash-joined path that
      reflects dynamic nesting ("pipeline/hc:bspg"). A span opened with
      its stage's {!Budget.t} also records the steps that budget
      consumed inside the span, so per-stage step accounting and timing
      come from a single source of truth. The same {!with_span} also
      feeds the flight recorder ({!Events}) while it is enabled.
      Wall-clock time is read through [Time_source], so tests can make
      span durations exact.

    Instrumented modules record through the ambient entry points
    ({!counter}, {!gauge}, {!histogram}, {!with_span}, ...), which are
    no-ops unless a registry is {!install}ed (or, for spans, the
    recorder is enabled) — default runs pay one pointer load and one
    atomic load per stage and nothing per inner-loop iteration. *)

type t

type span_stats = { path : string; calls : int; seconds : float; steps_used : int }

type histogram_stats = {
  count : int;
  sum : float;
  min_value : float;
  max_value : float;
  p50 : float;  (** interpolated within the crossing bucket, clamped to [min,max] *)
  p90 : float;
  p99 : float;
}

val create : ?series_cap:int -> unit -> t
(** [series_cap] bounds every series in this registry (default 10_000,
    clamped to >= 1). *)

(** {1 Recording against an explicit registry} *)

val add : t -> string -> int -> unit
(** [add t name by] increments counter [name]. *)

val set : t -> string -> float -> unit
(** Set gauge [name]. *)

val set_max : t -> string -> float -> unit
(** Set gauge [name] to the maximum of its current value and [v]. *)

val point : t -> string -> label:string -> float -> unit
(** Append a labelled point to series [name]. Once the series holds
    {!series_cap} points, each append evicts the oldest point and
    increments the series' drop counter (see {!series_dropped}). *)

val observe : t -> string -> float -> unit
(** Record one value into histogram [name]. Non-positive values land in
    the lowest bucket, oversized ones in the highest; [min]/[max]/[sum]
    always reflect the exact values observed. *)

val on_span_close : t -> (path:string -> seconds:float -> steps:int -> unit) -> unit
(** Invoke a callback every time a span closes — the [--trace] CLI flag
    uses this for live per-stage summary lines. *)

val series_cap : t -> int

(** {1 The ambient registry}

    The ambient handle is {b domain-local} ([Domain.DLS]): [install]
    and [with_registry] affect only the calling domain, so parallel
    tasks run by {!Par} each record into their own child registry
    without racing. A registry itself is single-writer — never record
    into the same registry from two domains concurrently; use
    {!create_child} + {!merge_into} instead. *)

val install : t -> unit
val clear : unit -> unit
val current : unit -> t option

val with_registry : t -> (unit -> 'a) -> 'a
(** Install [t] for the duration of the callback, restoring the previous
    ambient registry of the calling domain afterwards
    (exception-safe). *)

(** {1 Parallel fan-out: child registries}

    The deterministic-merge contract (DESIGN.md Section 5e): a parent
    registry plus children merged in submission order yields the same
    counters, gauges, series, histograms and span stats as running the
    same tasks sequentially against the parent — modulo wall-clock
    seconds, which are genuinely measured. In particular the exact
    Σ-steps invariant (sum of span [steps_used] equals the engine
    evaluation counters) survives the merge, because both sides are
    additive; histogram buckets merge by element-wise addition, so
    their contents are bit-identical to sequential recording. *)

val create_child : t -> t
(** A fresh registry for one parallel task. It inherits the parent's
    currently-open span context, so spans recorded inside the task keep
    the slash-joined paths they would have had sequentially, and the
    parent's {!series_cap}; it does {i not} inherit the [on_span_close]
    callback (live trace lines cover only the submitting domain). *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into child] folds a child registry into [into]:
    counters, histograms and span calls/seconds/steps add, [set] gauges
    overwrite (last merged child wins), [set_max] gauges keep the
    maximum, series points append after [into]'s existing points
    (through the capped push, so the retention bound applies) and drop
    counters add. Iteration is over sorted keys, so merging the same
    children in the same order is bit-deterministic. *)

val counter : string -> int -> unit
val gauge : string -> float -> unit
val gauge_max : string -> float -> unit
val series_point : string -> label:string -> float -> unit

val histogram : string -> float -> unit
(** Ambient {!observe}; no-op without an installed registry. *)

val with_span : ?budget:Budget.t -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] as a span named [name] — the one span
    entry point, with two sinks:

    - the ambient registry, when one is installed: wall-clock time
      (and, when [budget] is given, the budget steps consumed by [f])
      accumulates under the path formed by the enclosing spans and
      [name];
    - the flight recorder, while {!Events.enabled}: a begin/end pair
      under the kind interned for [name] ({!Events.register_kind}), on
      the calling domain's track.

    Both sinks share one clock reading at each end, so a slice's
    duration equals the seconds the registry adds. Exceptions
    propagate; the span still closes in both. With neither sink the
    callback just runs. With the recorder as the only sink (no
    registry installed) the span allocates nothing beyond what the
    callback does. *)

(** {1 Reading and reporting} *)

val counter_value : t -> string -> int
(** 0 for unknown counters. *)

val gauge_value : t -> string -> float option
val series_values : t -> string -> (string * float) list

val series_dropped : t -> string -> int
(** How many oldest points the retention cap evicted from this series
    (0 for unknown series). *)

val histogram_stats : t -> string -> histogram_stats option

val histogram_buckets : t -> string -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)] pairs in increasing
    bound order; counts are per-bucket, not cumulative. *)

val histogram_names : t -> string list
(** Sorted. *)

val span_list : t -> span_stats list
(** Sorted by path. *)

val to_json : t -> Json.t
(** Snapshot — see DESIGN.md Section 5c for the shape. Histograms
    appear under ["histograms"] with count/sum/min/max, p50/p90/p99 and
    the non-empty buckets; per-series eviction counts under
    ["series_dropped"] (only series that actually dropped points). *)

val write_json_file : t -> string -> unit

val to_prometheus : t -> string
(** The snapshot in Prometheus text exposition format (0.0.4): counters
    as [<name>_total], gauges as-is, histograms as the cumulative
    [_bucket{le=...}]/[_sum]/[_count] triple (observed buckets plus the
    mandatory [+Inf]), spans as [bsp_span_seconds_total]/
    [bsp_span_calls_total] labelled by path, and series drop counts as
    [obs_series_dropped_points_total] labelled by series. Series points
    themselves are JSON-only. Dots in metric names become
    underscores. *)

val write_prometheus_file : t -> string -> unit
(** {!to_prometheus} through [Atomic_file] (temp + fsync + rename), so
    scrapers never see a partial snapshot. *)

val log_summary : t -> unit
(** Emit the snapshot as [Logs] app-level lines on the ["bsp.obs"]
    source (the caller is responsible for installing a Logs reporter). *)

val src : Logs.src
