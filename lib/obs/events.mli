(** Per-domain flight recorder (DESIGN.md Section 5i).

    A fixed-capacity ring buffer per domain holding timestamped
    begin/end/instant/sample events in three preallocated flat arrays.
    The record path takes no lock and touches no shared cache line:
    one atomic load of the enable state, one [Domain.DLS] load, three
    array stores, one head bump. It is not allocation-free: the float
    clock reading it stores is boxed, 2 minor words per event, until
    [Time_source] gains an integer clock (ROADMAP item 11). When a ring
    wraps, the oldest events are overwritten and counted as
    {!dropped} — recording never blocks.

    The recorder answers the question the abstract-cost schedule trace
    (PR 3) cannot: what did the {i solver} actually do on each domain,
    in wall-clock time — task runs split from queue waits, batch
    claims, GC pressure at batch boundaries. {!write_chrome_trace}
    exports one Perfetto track per domain.

    Typical flow:
    {v
    Obs.Events.enable ();
    Obs.Events.set_dump_on_exit "flight.json";   (* crash insurance *)
    ... run ...
    Obs.Events.write_chrome_trace "flight.json"
    v}

    Event kinds are small integers interned through {!register_kind}:
    instrumented modules intern fixed kinds once at module-init time,
    and [Obs.Metrics.with_span] interns each span name on first use.
    Timestamps come from [Time_source.now]. *)

type kind
(** An interned event-kind identifier. *)

val register_kind : string -> kind
(** Intern a kind by name (idempotent: the same name yields the same
    kind). A known name is a lock-free map lookup; only a name's first
    registration takes a lock. Keep it off inner loops all the same. *)

val kind_name : kind -> string

(** {1 Control} *)

val enable : ?capacity:int -> unit -> unit
(** Start a fresh recording generation. [capacity] is the per-domain
    ring size in events (default 65536), rounded up to a power of two
    with a floor of 1024. Buffers from earlier generations are
    abandoned; every domain lazily registers a fresh ring on its first
    event. *)

val disable : unit -> unit
(** Stop recording and drop the buffers. *)

val enabled : unit -> bool

(** {1 Recording}

    All no-ops while the recorder is disabled. [arg] is a free-form
    integer attached to the event (task index, claim size, ...). [ts]
    stamps a begin or end with a clock reading the caller already took
    (default: [Time_source.now ()]), so a span timed for another sink
    records the same bounds here. *)

val begin_ : ?arg:int -> ?ts:float -> kind -> unit
val end_ : ?arg:int -> ?ts:float -> kind -> unit
val instant : ?arg:int -> kind -> unit

val sample : kind -> int -> unit
(** A counter sample ([value] over time) — exported as a Chrome
    counter track per domain, used for GC statistics deltas. *)

val span_at : ?arg:int -> kind -> start:float -> stop:float -> unit
(** Record an already-measured span: a begin at [start] and an end at
    [stop], both with [arg]. Lets callers that know a span's bounds
    after the fact (queue-wait measured at task start) backfill it with
    exact timestamps. *)

(** {1 Draining} *)

type phase = Begin | End | Instant | Sample

type event = {
  ev_domain : int;  (** ring registration order within the generation *)
  ev_ts : float;
  ev_kind : kind;
  ev_phase : phase;
  ev_arg : int;
}

val dump : unit -> event list
(** Every retained event, grouped by domain, oldest first within each
    domain; [[]] while disabled. *)

val recorded : unit -> int
(** Total events recorded in this generation, including overwritten
    ones. *)

val dropped : unit -> int
(** Events lost to ring wrap-around. *)

val write_chrome_trace : string -> unit
(** Export the retained events as a Chrome trace_event file (written
    via [Atomic_file]): one track per domain ([d0], [d1], ...),
    wall-clock microseconds since {!enable}; begin/end pairs become
    complete ("X") slices, instants "i" marks, samples "C" counter
    tracks. Spans still open (or whose end was lost to wrap-around)
    close at the track's last timestamp. Open in ui.perfetto.dev.
    @raise Invalid_argument when the recorder is not enabled. *)

val set_dump_on_exit : string -> unit
(** Write {!write_chrome_trace} to this path when the process exits —
    including on uncaught exceptions, which run [at_exit] — so crashed
    or interrupted runs still leave a loadable trace. The last call
    wins; errors during the dump are swallowed. *)

val clear_dump_on_exit : unit -> unit
