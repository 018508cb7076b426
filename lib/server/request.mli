(** Scheduling requests (DESIGN.md Section 5h).

    A request is a small line-oriented text document naming a workload
    (hyperDAG + machine) and how hard to optimise it. Lines before the
    optional [hyperdag] marker form the header; [%] comments and blank
    lines are ignored, and words are separated by spaces or tabs
    ({!Text_codec}):

    {v
    % any comment
    id job-42                    (defaults to the queue file name)
    algorithm pipeline           (any scheduler the CLI accepts)
    seconds 5                    (optimisation budget, default 10)
    seed 1                       (Cilk stealing seed, default 1)
    replicate true               (node replication, default false)
    p 4                          (machine, CLI-style, p <= max_p ...)
    g 1
    l 5
    numa-delta 3
    machine path/to/m.machine    (... or a Machine_io file instead)
    dag path/to/instance.hdag    (text or binary, sniffed)
    hyperdag                     (... or the instance inline:)
    <hyperDAG text until end of file>
    v}

    Exactly one of [dag <path>] / inline [hyperdag] must be present.
    Relative paths resolve against [base_dir] (the daemon passes the
    queue's incoming directory). *)

type t = {
  id : string;
  algorithm : string;  (** not validated here; {!Engine.handle} rejects unknowns *)
  seconds : float;  (** optimisation budget; the cache's refresh threshold *)
  seed : int;
  replicate : bool;
  machine : Machine.t;
  dag : Dag.t;
}

val max_p : int
(** The largest processor count a request may name, {!Machine.max_p}:
    a [p] line or a machine file above it is rejected before any matrix
    is built. *)

val parse :
  ?base_dir:string -> ?memo:Memo.t -> ?stop:int -> id:string -> string -> t
(** Parse a request document. [id] is the fallback identity (the queue
    file name) used when the document has no [id] line. The document is
    the string's first [stop] bytes (default: all of it), read in place
    ({!Text_codec.scanner}): the stdio daemon passes the front of its
    session buffer. The result holds no string that aliases the
    document (header words are copied, and {!Memo.parse_body} copies a
    body it keeps), so the caller may overwrite the bytes once this
    returns. With [memo] (a daemon session's table), an inline hyperDAG
    body goes through {!Memo.parse_body}, so a body seen before is not
    parsed again; a [dag <path>] file is always read. Raises [Failure]
    with a descriptive message on malformed input, unreadable
    referenced files, or a malformed embedded hyperDAG. *)

type stats_request = { stats_id : string }

type parsed = Schedule of t | Stats of stats_request
(** The daemon accepts one more request type over the same transports:
    a {b stats probe} — a header-only document whose first directive is
    the bare word [stats] (an [id] line, comments and blank lines may
    precede it):

    {v
    id probe-1
    stats
    v}

    It is answered with a live telemetry snapshot instead of a
    schedule; see {!Daemon}. *)

val parse_any :
  ?base_dir:string -> ?memo:Memo.t -> ?stop:int -> id:string -> string -> parsed
(** Like {!parse} (the same [stop] bound and no-alias rule), but
    recognises stats probes. Anything that is not a
    stats probe is parsed as a scheduling request (with the scheduling
    parser's error messages). *)
