(** Algorithm dispatch and the cache protocol (DESIGN.md Section 5h).

    This is the single scheduling entry point shared by the one-shot
    CLI and the serve daemon, so a cached answer is bit-identical to
    what the same request would have produced one-shot. *)

val algorithm_names : string list
(** Every scheduler the framework exposes, pipeline first — the source
    of truth for the CLI's [--algorithm] enum and request validation. *)

val budget_sensitive : string -> bool
(** [true] for the search-based methods ([pipeline], [multilevel])
    whose answer can improve under a larger [seconds] budget. Cached
    answers for budget-insensitive algorithms are final: any budget is
    a hit. *)

val schedule :
  ?warm:Schedule.t ->
  seconds:float ->
  seed:int ->
  replicate:bool ->
  algorithm:string ->
  Machine.t ->
  Dag.t ->
  Schedule.t
(** Run one algorithm under a wall-clock budget ([seconds] is split
    across pipeline stages exactly as the CLI always did). [warm]
    seeds the base pipeline with an existing schedule
    ({!Pipeline.run_warm}); it is ignored by every other algorithm.
    With [replicate] set, every algorithm's schedule gets the
    replication post-pass ({!Hc.replicate_schedule} on the budget of one
    HC stage: [hc_evals] steps and the stage share of [seconds]), kept
    only when strictly cheaper. The top-level pipeline
    runs ILPinit only where {!Pipeline.ilp_init_pays}; multilevel's
    coarse solves always run it. Raises [Failure] on an unknown
    algorithm name, on a [seconds] that is not finite and positive, and
    on an instance whose {!Bsp_cost.cost_bound} is above [max_int / 4]
    (its costs could overflow [int]); the message names the bound. *)

val request_key : ?memo:Memo.t -> Request.t -> string
(** The request's content address ({!Cache.key}) — what the daemon uses
    to coalesce duplicate requests inside one batch. With [memo], the
    structural hash of a DAG that {!Memo.parse_body} returned is not
    computed again. *)

type status =
  | Hit  (** served from cache, pipeline not run *)
  | Miss  (** computed and cached *)
  | Refresh
      (** cached entry existed but under a smaller budget: re-optimised
          (warm-started for the pipeline), best of old and new kept,
          recorded budget topped up *)

val status_label : status -> string
(** ["hit"] / ["miss"] / ["refresh"] — the wire form in responses and
    metric names. *)

type result = {
  status : status;
  key : string;
  cost : int;
  schedule : Schedule.t;  (** bound to the request's DAG *)
  escaped : string;  (** the schedule as a reply carries it, see {!Memo.warm} *)
}

type store
(** A computed entry not yet written: its two cache files and its
    write-through to the session's {!Memo}. *)

val answer : ?memo:Memo.t -> cache_dir:string -> Request.t -> result * store option
(** Serve one request through the cache, short of writing it: look up
    the content address and return the cached schedule on a hit;
    otherwise compute, check and cost the schedule, render its text
    once, and return the result with the {!store} that makes it an
    entry ([None] on a hit). [memo] is the session's table (a fresh one
    when absent): an entry warm in it is served while its files keep
    the identity it was stored with ({!Cache.ident}); any other entry is
    read from disk, and one whose schedule is invalid on the request's
    machine or does not cost what its meta file says is a miss. Every
    entry read is left warm. Raises [Failure] on an unknown algorithm, a
    [seconds] that is not finite and positive (both checked before the
    cache, so a hit cannot hide them), an instance whose costs could
    overflow (checked before any schedule is computed or read from
    disk, so no entry is ever warm for one) or an internal validity
    failure; IO errors of the lookup propagate. *)

val commit : store -> unit
(** Write the entry atomically ({!Cache.store_text}: the schedule file
    with the text the reply was escaped from, then the meta file) and
    leave it warm in the memo under its files' new identity. IO errors
    propagate; the memo is then not changed. *)

val handle : ?memo:Memo.t -> cache_dir:string -> Request.t -> result
(** {!answer}, then {!commit} of its store: one request served and
    stored. Every entry read or stored is left warm. Raises as
    {!answer} and {!commit} do. *)
