(** The long-running batch scheduler — [scheduler serve] (DESIGN.md
    Sections 5h, 5i).

    {b Directory queue.} A queue directory holds:

    {v
    <queue>/incoming/NAME.req     dropped requests (Request format)
    <queue>/done/NAME.resp.json   response, written atomically
    <queue>/done/NAME.schedule    the schedule (Schedule_io format)
    <queue>/stop                  touch to request clean shutdown
    <queue>/metrics.json          Obs.Metrics snapshot (configurable)
    <queue>/metrics.prom          Prometheus text exposition (configurable)
    v}

    The loop scans [incoming/] (lexicographic order), treats everything
    pending as one batch, coalesces requests with equal content
    addresses, runs one {!Engine.answer} task per distinct address on
    the {!Par} domain pool (each task commits its own store), and
    answers each request with the response JSON plus schedule file.
    Responses are written before the request file is removed and every
    write is atomic, so a killed daemon leaves each request either fully
    answered or still queued — and a requeued request is answered from
    the cache. Producers should
    write-then-rename their request files into [incoming/] so the
    daemon never sees a partial request.

    The response JSON carries [id], [status] ("ok"/"error"),
    [cache] ("hit" | "miss" | "refresh" | "coalesced"), [key], [cost],
    [supersteps], [seconds] (handling latency; [0] for coalesced
    followers) and [schedule_file] (queue-relative), or [error] with a
    message.

    {b Session memory.} Each {!run} or {!run_stdio} call is one session
    and owns one {!Memo}, bounded by {!Memo.default_budget} bytes: an
    inline hyperDAG body the session has parsed is not parsed again, and
    a cache entry it has read or written is answered from memory while
    the entry's files keep their [stat] identity. The cache directory
    stays the authority: an entry deleted, replaced or corrupted on disk
    is seen by the next request.

    {b Stats probes.} A request whose first directive is the bare word
    [stats] (see {!Request.parsed}) is answered inline — no scheduling
    work, no cache — with a live telemetry snapshot: [uptime_seconds],
    [cache_hit_ratio] (hits over actual cache lookups), the registry's
    [counters], [gauges] and [histograms] (each histogram with
    count/sum/min/max, p50/p90/p99 quantiles and its non-empty
    buckets), [series_dropped], and [pool] — the jobs setting plus
    per-domain {!Par.stats} accumulators (tasks, batches, GC pressure).
    Works identically over the directory queue and the stdio framing.

    {b Observability.} Counters [server.requests] (scheduling requests
    and errors), [server.stats_requests], [server.batches],
    [server.cache_hits]/[_misses]/[_refreshes]/[_coalesced],
    [server.errors], [server.store_errors] (cache stores that failed:
    the request is still answered, and its next repeat computes
    again); the session table's ({!Memo}) counters
    [server.memo_hits], [server.memo_misses] (inline bodies parsed and
    cache entries read from disk) and [server.memo_evictions], with its
    size as the gauge [server.memo_bytes]; gauges [server.queue_depth],
    [server.queue_depth_peak] ([set_max]: the deepest queue ever
    scanned, also bumped per batch) and [server.uptime_seconds];
    per-request latency as the [server.request_seconds] {b histogram}
    (bounded memory — coalesced followers observe their leader's
    handling time, since that is the wall time they waited). Snapshots
    are written through the ambient {!Obs.Metrics} registry (one is
    installed if absent) after every batch and at shutdown:
    [metrics_file] as JSON, [prometheus_file] as Prometheus text
    exposition — both via [Atomic_file], so scrapers never read a
    partial file. Each scheduling request's handling runs inside one
    [server:request] span ({!Obs.Metrics.with_span}), on both
    transports: in the registry it aggregates per-stage time under
    [server:request/scheduler:*/...]; with the flight recorder enabled
    ([serve --flight-record]) it is a slice on the domain that handled
    it, with the pipeline's stage slices nested inside. A cache hit's
    slice has no nested [scheduler:*] slice; stats probes and coalesced
    followers open no span. Beside it, each request's parse runs in a
    [server:parse] span and each answer's encoding (schedule text and
    JSON, and for the queue their write-out) in a [server:encode] span.
    A computed answer's cache store ({!Engine.commit}) runs in a
    [server:store] span and feeds the [server.store_seconds]
    histogram; over stdio it runs after the reply is sent and before
    the next frame is read.
    All daemon timing reads [Time_source].

    {b Shutdown.} Touching [<queue>/stop], SIGTERM or SIGINT all stop
    the loop after the in-flight batch; remaining metrics are flushed
    and the stop marker is consumed. *)

type config = {
  queue_dir : string;
  cache_dir : string;  (** the content-addressed cache ({!Cache}) *)
  poll_seconds : float;  (** sleep between empty scans *)
  once : bool;  (** drain the queue, then exit instead of polling *)
  metrics_file : string option;
  prometheus_file : string option;
      (** Prometheus text-exposition snapshot, refreshed with
          [metrics_file] *)
}

val default_config : queue_dir:string -> config
(** Cache in [<queue>/cache], 50 ms poll, metrics to
    [<queue>/metrics.json], Prometheus to [<queue>/metrics.prom],
    [once = false]. *)

val run : ?memo:Memo.t -> config -> unit
(** Run the daemon until a shutdown condition. Creates the queue and
    cache directories as needed. [memo] is the session's table, as for
    {!run_stdio}. *)

(** {1 Length-framed stdio protocol}

    For socket-style embedding ([scheduler serve --stdio]): each frame
    is a 4-byte big-endian payload length followed by the payload. A
    request frame carries a {!Request} document; the reply frame
    carries the response JSON with the schedule inlined under
    ["schedule"], or the stats snapshot for a stats probe. EOF at a
    frame boundary ends the session; a truncated frame raises
    [Failure]. *)

val read_frame : in_channel -> string option
val write_frame : out_channel -> string -> unit

val retained_frame : int
(** 4 MiB: the largest payload a {!run_stdio} session keeps a buffer
    for. *)

val run_stdio : ?memo:Memo.t -> cache_dir:string -> in_channel -> out_channel -> unit
(** Serve frames from the input channel until EOF, answering on the
    output channel. [memo] is the session's table, a fresh
    {!Memo.create} [()] when absent; a caller passes one only to bound
    it by another budget or to inspect it. Requests are handled one at a time in arrival
    order (batching happens across the {!Par} pool only in the
    directory queue).

    Each payload is read into one buffer the session owns and parsed
    there in place ({!Request.parse_any} with [~stop]): a frame costs
    no copy of its bytes, and a warm hit hashes and compares its inline
    body where it lies ({!Memo.parse_body}). No string that aliases the
    buffer outlives its request; the next frame overwrites it. The
    buffer grows to fit a payload of up to {!retained_frame} bytes; a
    larger payload is read into a buffer of its own, dropped once its
    request is answered, so one huge request does not pin its size for
    the rest of the session. A miss is answered before it is stored: the reply
    is sent, then the entry is written, then the next frame is read, so
    a repeat of the request in that frame is a hit. A request that
    fails to parse or that the engine rejects gets an error reply and
    the session goes on; a truncated or oversized frame gets one error
    reply and ends the session. *)
