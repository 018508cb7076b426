(** The pluggable wall-clock source behind every timing measurement
    (DESIGN.md Section 5i).

    [Budget.seconds] deadlines (set through {!now}, probed through
    {!now_ns}), [Obs.Metrics.with_span] timing, the flight-recorder
    timestamps (through {!now_ns}), [Par]'s task timing and the daemon's
    uptime/latency all read the clock through this source,
    so swapping the source swaps what "time" means for the whole
    process — tests install a deterministic fake clock and assert exact
    span durations instead of sleeping.

    The source is a process-wide atomic: {!set}/{!with_source} are
    meant for single-threaded test setup, not for concurrent
    replacement mid-run. It lives in bsp_util, below the obs layer,
    so that [Budget] can share it. *)

val real : unit -> float
(** The default source: [Unix.gettimeofday]. *)

val now : unit -> float
(** The current time according to the installed source. *)

val now_ns : unit -> int
(** {!now} in whole nanoseconds, rounded. Under {!real} it allocates
    nothing, which is what the flight recorder's record path and
    [Budget.exhausted]'s deadline probe need; a fake source is read
    through its closure as {!now} is. *)

val ns_of_seconds : float -> int
(** A {!now} reading in {!now_ns}'s units. *)

val set : (unit -> float) -> unit
(** Replace the process-wide time source. *)

val reset : unit -> unit
(** Restore {!real}. *)

val with_source : (unit -> float) -> (unit -> 'a) -> 'a
(** Run the callback with the source temporarily replaced
    (exception-safe restore of the previous source). *)
