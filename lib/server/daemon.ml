type config = {
  queue_dir : string;
  cache_dir : string;
  poll_seconds : float;
  once : bool;
  metrics_file : string option;
  prometheus_file : string option;
}

let default_config ~queue_dir =
  {
    queue_dir;
    cache_dir = Filename.concat queue_dir "cache";
    poll_seconds = 0.05;
    once = false;
    metrics_file = Some (Filename.concat queue_dir "metrics.json");
    prometheus_file = Some (Filename.concat queue_dir "metrics.prom");
  }

let incoming_dir cfg = Filename.concat cfg.queue_dir "incoming"
let done_dir cfg = Filename.concat cfg.queue_dir "done"
let stop_path cfg = Filename.concat cfg.queue_dir "stop"

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Responses. *)

let error_json ~id msg =
  Obs.Json.Obj
    [
      ("id", Obs.Json.String id);
      ("status", Obs.Json.String "error");
      ("error", Obs.Json.String msg);
    ]

let ok_json ~id ~cache ~key ~cost ~supersteps ~seconds extra =
  Obs.Json.Obj
    ([
       ("id", Obs.Json.String id);
       ("status", Obs.Json.String "ok");
       ("cache", Obs.Json.String cache);
       ("key", Obs.Json.String key);
       ("cost", Obs.Json.Int cost);
       ("supersteps", Obs.Json.Int supersteps);
       ("seconds", Obs.Json.Float seconds);
     ]
    @ extra)

(* The live telemetry snapshot a [stats] probe is answered with:
   counters/gauges/histograms straight from the metrics registry (the
   histogram members carry count/sum/min/max and p50/p90/p99), the
   cache hit ratio over actual cache lookups (hits vs misses and
   refreshes; coalesced followers never looked up), uptime, and the
   per-domain Par pool accumulators — tasks, batches, GC pressure. *)
let stats_json ~registry ~t0 ~id =
  let snapshot = Obs.Metrics.to_json registry in
  let section k =
    Option.value ~default:(Obs.Json.Obj []) (Obs.Json.member k snapshot)
  in
  let c name = Obs.Metrics.counter_value registry name in
  let hits = c "server.cache_hits" in
  let lookups = hits + c "server.cache_misses" + c "server.cache_refreshes" in
  let hit_ratio =
    if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups
  in
  let domain (d : Par.domain_stats) =
    Obs.Json.Obj
      [
        ("domain", Obs.Json.Int d.Par.domain_index);
        ("worker", Obs.Json.Bool d.Par.is_worker);
        ("tasks_run", Obs.Json.Int d.Par.tasks_run);
        ("batches_drained", Obs.Json.Int d.Par.batches_drained);
        ("last_chunk", Obs.Json.Int d.Par.last_chunk);
        ("minor_words", Obs.Json.Float d.Par.minor_words);
        ("promoted_words", Obs.Json.Float d.Par.promoted_words);
        ("minor_collections", Obs.Json.Int d.Par.minor_collections);
        ("major_collections", Obs.Json.Int d.Par.major_collections);
      ]
  in
  Obs.Json.Obj
    [
      ("id", Obs.Json.String id);
      ("status", Obs.Json.String "ok");
      ("type", Obs.Json.String "stats");
      ("uptime_seconds", Obs.Json.Float (Time_source.now () -. t0));
      ("cache_hit_ratio", Obs.Json.Float hit_ratio);
      ("counters", section "counters");
      ("gauges", section "gauges");
      ("histograms", section "histograms");
      ("series_dropped", section "series_dropped");
      ( "pool",
        Obs.Json.Obj
          [
            ("jobs", Obs.Json.Int (Par.jobs ()));
            ("domains", Obs.Json.List (List.map domain (Par.stats ())));
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Directory queue. *)

let scan cfg =
  Sys.readdir (incoming_dir cfg)
  |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".req")
  |> List.sort compare

let counter_of_label = function
  | "hit" -> "server.cache_hits"
  | "miss" -> "server.cache_misses"
  | "refresh" -> "server.cache_refreshes"
  | "coalesced" -> "server.cache_coalesced"
  | other -> "server.cache_" ^ other

(* One scheduling request as both transports handle it: the
   [server:request] span (a flight-recorder slice when the recorder is
   on) around [Engine.answer], and the latency [dt] that feeds the
   [server.request_seconds] histogram. A computed answer comes with the
   store that makes it a cache entry; the caller commits it with
   [store]. *)
let handle ~memo ~cache_dir req =
  let t_start = Time_source.now () in
  let outcome =
    match
      Obs.Metrics.with_span "server:request" (fun () -> Engine.answer ~memo ~cache_dir req)
    with
    | r -> Ok r
    | exception (Failure msg | Sys_error msg) -> Error msg
  in
  (outcome, Time_source.now () -. t_start)

(* A computed answer's cache write, in its own [server:store] span and
   [server.store_seconds] histogram. The answer stands without it: a
   failed store is counted as [server.store_errors], and the next
   request for the key computes it again. *)
let store pending =
  let t_start = Time_source.now () in
  (try Obs.Metrics.with_span "server:store" (fun () -> Engine.commit pending)
   with Failure _ | Sys_error _ | Unix.Unix_error _ ->
     Obs.Metrics.counter "server.store_errors" 1);
  Obs.Metrics.histogram "server.store_seconds" (Time_source.now () -. t_start)

let memo_gauge memo = Obs.Metrics.gauge "server.memo_bytes" (float_of_int (Memo.bytes memo))

(* One queue batch: parse everything, coalesce duplicate content
   addresses, run one Engine task per distinct address on the Par pool,
   then write every response (schedule first, response JSON second,
   request file removed last — a crash at any point either leaves the
   request queued for reprocessing, which the cache then answers, or
   fully answered; never half-answered). Stats probes are answered
   inline from the live registry before the scheduling work runs. *)
let process_batch cfg ~memo ~registry ~t0 names =
  Obs.Metrics.counter "server.batches" 1;
  Obs.Metrics.gauge_max "server.queue_depth_peak" (float_of_int (List.length names));
  let incoming = incoming_dir cfg and finished = done_dir cfg in
  let parsed =
    List.map
      (fun name ->
        let base = Filename.chop_suffix name ".req" in
        let path = Filename.concat incoming name in
        match
          Obs.Metrics.with_span "server:parse" (fun () ->
              let text = In_channel.with_open_bin path In_channel.input_all in
              Request.parse_any ~base_dir:incoming ~memo ~id:base text)
        with
        | req -> (name, base, Ok req)
        | exception (Failure msg | Sys_error msg) -> (name, base, Error msg))
      names
  in
  let leaders = ref [] in
  let leader_of = Hashtbl.create 16 in
  List.iter
    (fun (name, _base, r) ->
      match r with
      | Error _ | Ok (Request.Stats _) -> ()
      | Ok (Request.Schedule req) ->
        let key = Engine.request_key ~memo req in
        if not (Hashtbl.mem leader_of key) then begin
          Hashtbl.add leader_of key name;
          leaders := (key, req) :: !leaders
        end)
    parsed;
  let results =
    Par.map
      (fun (key, req) ->
        let outcome, dt = handle ~memo ~cache_dir:cfg.cache_dir req in
        (match outcome with Ok (_, Some pending) -> store pending | _ -> ());
        (key, (Result.map fst outcome, dt)))
      (List.rev !leaders)
  in
  let result_of_key = Hashtbl.create 16 in
  List.iter (fun (key, result) -> Hashtbl.replace result_of_key key result) results;
  let respond_error ~base ~id msg =
    Obs.Metrics.counter "server.errors" 1;
    Atomic_file.write_string
      (Filename.concat finished (base ^ ".resp.json"))
      (Obs.Json.to_string (error_json ~id msg) ^ "\n")
  in
  List.iter
    (fun (name, base, r) ->
      (match r with
       | Error msg ->
         Obs.Metrics.counter "server.requests" 1;
         respond_error ~base ~id:base msg
       | Ok (Request.Stats { Request.stats_id }) ->
         Obs.Metrics.counter "server.stats_requests" 1;
         Atomic_file.write_string
           (Filename.concat finished (base ^ ".resp.json"))
           (Obs.Json.to_string (stats_json ~registry ~t0 ~id:stats_id) ^ "\n")
       | Ok (Request.Schedule req) ->
         Obs.Metrics.counter "server.requests" 1;
         let key = Engine.request_key ~memo req in
         let outcome, dt = Hashtbl.find result_of_key key in
         (match outcome with
          | Error msg -> respond_error ~base ~id:req.Request.id msg
          | Ok (res : Engine.result) ->
            let is_leader = Hashtbl.find leader_of key = name in
            let cache_label =
              if is_leader then Engine.status_label res.Engine.status
              else "coalesced"
            in
            Obs.Metrics.counter (counter_of_label cache_label) 1;
            let seconds = if is_leader then dt else 0.0 in
            (* Latency distribution, not an unbounded per-request
               series: coalesced followers waited out the same handling
               as their leader, so they observe the leader's [dt]. *)
            Obs.Metrics.histogram "server.request_seconds" dt;
            let sched_rel = Filename.concat "done" (base ^ ".schedule") in
            Obs.Metrics.with_span "server:encode" (fun () ->
                Schedule_io.write_file
                  (Filename.concat finished (base ^ ".schedule"))
                  res.Engine.schedule;
                Atomic_file.write_string
                  (Filename.concat finished (base ^ ".resp.json"))
                  (Obs.Json.to_string
                     (ok_json ~id:req.Request.id ~cache:cache_label ~key:res.Engine.key
                        ~cost:res.Engine.cost
                        ~supersteps:(Schedule.num_supersteps res.Engine.schedule)
                        ~seconds
                        [ ("schedule_file", Obs.Json.String sched_rel) ])
                  ^ "\n"))));
      try Sys.remove (Filename.concat incoming name) with Sys_error _ -> ())
    parsed;
  memo_gauge memo

let run ?(memo = Memo.create ()) cfg =
  mkdir_p (incoming_dir cfg);
  mkdir_p (done_dir cfg);
  mkdir_p cfg.cache_dir;
  (* The loop records through the ambient registry; install one if the
     caller did not, so the metrics file is always meaningful. *)
  let registry =
    match Obs.Metrics.current () with
    | Some r -> r
    | None ->
      let r = Obs.Metrics.create () in
      Obs.Metrics.install r;
      r
  in
  let t0 = Time_source.now () in
  (* Both snapshot formats refresh together, after every batch and at
     shutdown, each through Atomic_file — a scraper reading
     metrics.prom never sees a partial exposition. *)
  let write_metrics () =
    Obs.Metrics.gauge "server.uptime_seconds" (Time_source.now () -. t0);
    Option.iter (Obs.Metrics.write_json_file registry) cfg.metrics_file;
    Option.iter (Obs.Metrics.write_prometheus_file registry) cfg.prometheus_file
  in
  let interrupted = ref false in
  let old_term = ref None and old_int = ref None in
  (try
     old_term :=
       Some (Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> interrupted := true)));
     old_int :=
       Some (Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> interrupted := true)))
   with Invalid_argument _ | Sys_error _ -> ());
  let restore () =
    (try Option.iter (Sys.set_signal Sys.sigterm) !old_term with _ -> ());
    try Option.iter (Sys.set_signal Sys.sigint) !old_int with _ -> ()
  in
  Fun.protect ~finally:restore (fun () ->
      let rec loop () =
        let pending = scan cfg in
        let depth = float_of_int (List.length pending) in
        Obs.Metrics.gauge "server.queue_depth" depth;
        Obs.Metrics.gauge_max "server.queue_depth_peak" depth;
        if pending <> [] && not !interrupted then begin
          process_batch cfg ~memo ~registry ~t0 pending;
          write_metrics ();
          loop ()
        end
        else if
          !interrupted || cfg.once || Sys.file_exists (stop_path cfg)
        then ()
        else begin
          Unix.sleepf cfg.poll_seconds;
          loop ()
        end
      in
      loop ();
      write_metrics ();
      (* Consume the stop marker so the next daemon on this queue does
         not exit immediately. *)
      try Sys.remove (stop_path cfg) with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Length-framed stdin/stdout protocol: 4-byte big-endian payload
   length, then the payload — a request document in a frame, a
   compact-JSON response (schedule inline) in the reply frame. Clean
   EOF is only legal at a frame boundary; a partial header or payload
   fails loudly. *)

let max_frame = 256 * 1024 * 1024

(* The largest frame a stdio session's buffer grows to hold; a larger
   frame is read into a buffer of its own, dropped with its request. *)
let retained_frame = 4 * 1024 * 1024

let header_byte ic =
  try Char.code (input_char ic) with End_of_file -> failwith "Daemon: truncated frame header"

(* The payload length from a frame header, or -1 at a clean EOF. *)
let frame_length ic =
  match input_char ic with
  | exception End_of_file -> -1
  | b0 ->
    let b1 = header_byte ic in
    let b2 = header_byte ic in
    let b3 = header_byte ic in
    let len = (Char.code b0 lsl 24) lor (b1 lsl 16) lor (b2 lsl 8) lor b3 in
    if len > max_frame then
      failwith (Printf.sprintf "Daemon: frame length %d exceeds the %d limit" len max_frame);
    len

let truncated_payload () = failwith "Daemon: truncated frame payload"

let read_frame ic =
  match frame_length ic with
  | -1 -> None
  | len -> (
    match really_input_string ic len with
    | payload -> Some payload
    | exception End_of_file -> truncated_payload ())

let write_header oc len =
  if len > max_frame then failwith "Daemon: response exceeds the frame limit";
  output_char oc (Char.chr ((len lsr 24) land 0xff));
  output_char oc (Char.chr ((len lsr 16) land 0xff));
  output_char oc (Char.chr ((len lsr 8) land 0xff));
  output_char oc (Char.chr (len land 0xff))

let write_frame oc payload =
  write_header oc (String.length payload);
  output_string oc payload;
  flush oc

(* A stdio ok reply: [ok_json]'s compact form with the schedule text as
   its last member, already escaped by the engine ({!Engine.result});
   the reply bytes equal those of rendering the member as a [String]. *)
let add_ok_reply buf ~id ~cache ~key ~cost ~supersteps ~seconds escaped =
  Obs.Json.to_buffer_compact buf (ok_json ~id ~cache ~key ~cost ~supersteps ~seconds []);
  Buffer.truncate buf (Buffer.length buf - 1);
  Buffer.add_string buf {|,"schedule":"|};
  Buffer.add_string buf escaped;
  Buffer.add_string buf {|"}|}

let run_stdio ?(memo = Memo.create ()) ~cache_dir ic oc =
  set_binary_mode_in ic true;
  set_binary_mode_out oc true;
  mkdir_p cache_dir;
  let registry =
    match Obs.Metrics.current () with
    | Some r -> r
    | None ->
      let r = Obs.Metrics.create () in
      Obs.Metrics.install r;
      r
  in
  let t0 = Time_source.now () in
  let count = ref 0 in
  let error_reply ~id msg =
    Obs.Metrics.counter "server.errors" 1;
    error_json ~id msg
  in
  (* One reply buffer for the session: each reply is written into it
     once and framed straight from it. *)
  let buf = Buffer.create 65536 in
  let send () =
    write_header oc (Buffer.length buf);
    Buffer.output_buffer oc buf;
    flush oc;
    Buffer.clear buf
  in
  (* One frame buffer for the session, parsed in place
     (Request.parse_any ~stop). Nothing that outlives the request may
     alias it: the parser copies what it keeps and the memo copies a
     body it stores. *)
  let frame = ref (Bytes.create 65536) in
  (* The bytes of the current payload: [!frame], or a one-off buffer. *)
  let payload = ref !frame in
  let read_payload () =
    match frame_length ic with
    | -1 -> -1
    | len ->
      let cap = Bytes.length !frame in
      if len > cap && len <= retained_frame then
        frame := Bytes.create (min retained_frame (max len (2 * cap)));
      payload := if len <= Bytes.length !frame then !frame else Bytes.create len;
      (try really_input ic !payload 0 len with End_of_file -> truncated_payload ());
      len
  in
  let rec loop () =
    match read_payload () with
    | -1 -> ()
    | exception Failure msg ->
      (* A truncated or oversized frame leaves no frame boundary to
         resynchronise on: answer it once and end the session. *)
      incr count;
      Obs.Metrics.counter "server.requests" 1;
      let id = Printf.sprintf "stdio-%d" !count in
      Obs.Json.to_buffer_compact buf (error_reply ~id msg);
      send ()
    | len ->
      incr count;
      let fallback_id = "stdio-" ^ string_of_int !count in
      let text = Bytes.unsafe_to_string !payload in
      (* What runs after the reply is sent: a miss's store. It runs
         before the next frame is read, so a repeat of the key in that
         frame finds the entry. *)
      let pending =
        match
          Obs.Metrics.with_span "server:parse" (fun () ->
              Request.parse_any ~memo ~stop:len ~id:fallback_id text)
        with
        | Request.Stats { Request.stats_id } ->
          Obs.Metrics.counter "server.stats_requests" 1;
          Obs.Json.to_buffer_compact buf (stats_json ~registry ~t0 ~id:stats_id);
          None
        | Request.Schedule req -> (
          Obs.Metrics.counter "server.requests" 1;
          match handle ~memo ~cache_dir req with
          | Error msg, _ ->
            Obs.Json.to_buffer_compact buf (error_reply ~id:req.Request.id msg);
            None
          | Ok (res, pending), dt ->
            Obs.Metrics.counter (counter_of_label (Engine.status_label res.Engine.status)) 1;
            Obs.Metrics.histogram "server.request_seconds" dt;
            Obs.Metrics.with_span "server:encode" (fun () ->
                add_ok_reply buf ~id:req.Request.id
                  ~cache:(Engine.status_label res.Engine.status)
                  ~key:res.Engine.key ~cost:res.Engine.cost
                  ~supersteps:(Schedule.num_supersteps res.Engine.schedule)
                  ~seconds:dt res.Engine.escaped);
            pending)
        | exception (Failure msg | Sys_error msg) ->
          Obs.Metrics.counter "server.requests" 1;
          Obs.Json.to_buffer_compact buf (error_reply ~id:fallback_id msg);
          None
      in
      payload := !frame;
      send ();
      Option.iter store pending;
      memo_gauge memo;
      loop ()
  in
  loop ()
