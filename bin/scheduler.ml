(* CLI: schedule a hyperDAG file on a described BSP(+NUMA) machine,
   one-shot or as a long-running batch daemon.

   Examples:
     scheduler input.hdag -p 8 -g 3 -l 5
     scheduler input.hdag -p 16 --numa-delta 4 --algorithm multilevel \
       --seconds 30 --output out.schedule
     scheduler serve /var/bsp/queue --cache /var/bsp/cache --jobs 4 *)

open Cmdliner

let install_trace ?(app = Format.std_formatter) registry =
  Logs.set_reporter (Logs.format_reporter ~app ());
  Logs.set_level (Some Logs.Info);
  Obs.Metrics.on_span_close registry (fun ~path ~seconds ~steps ->
      Logs.app ~src:Obs.Metrics.src (fun m ->
          m "stage %-24s %8.3fs %10d steps" path seconds steps))

let run input p g l delta machine_file algorithm seconds output seed quiet show metrics
    trace profile chrome_trace flight_record jobs replicate =
  Par.set_jobs jobs;
  (match flight_record with
   | None -> ()
   | Some path ->
     Obs.Events.enable ();
     (* Crash insurance: if the run dies, at_exit still dumps the trace. *)
     Obs.Events.set_dump_on_exit path);
  let registry =
    if metrics <> None || trace then begin
      let r = Obs.Metrics.create () in
      Obs.Metrics.install r;
      Some r
    end
    else None
  in
  if trace then Option.iter install_trace registry;
  let dag, machine =
    Obs.Metrics.with_span "cli:parse" (fun () ->
        (* Input the files or the parameters cannot describe (a
           malformed or unreadable file, p above Machine.max_p, a NUMA p
           not a power of two) is a usage error, not an internal one. *)
        try
          let dag = Hyperdag_io.read_file_auto input in
          let machine =
            match machine_file with
            | Some path -> Machine_io.read_file path
            | None ->
              (match delta with
               | None -> Machine.uniform ~p ~g ~l
               | Some delta -> Machine.numa_tree ~p ~g ~l ~delta)
          in
          (dag, machine)
        with Invalid_argument msg | Failure msg | Sys_error msg ->
          Printf.eprintf "scheduler: %s\n%!" msg;
          exit Cmd.Exit.cli_error)
  in
  let schedule =
    Server.Engine.schedule ~seconds ~seed ~replicate ~algorithm machine dag
  in
  (match Obs.Metrics.with_span "cli:validity" (fun () -> Validity.check machine schedule) with
   | Ok () -> ()
   | Error errs ->
     List.iter prerr_endline errs;
     failwith "internal error: scheduler produced an invalid schedule");
  let b = Obs.Metrics.with_span "cli:cost" (fun () -> Bsp_cost.breakdown machine schedule) in
  Pipeline.publish_result machine schedule ~cost:b.Bsp_cost.total;
  if not quiet then begin
    Printf.printf "instance:   %s (%d nodes, %d edges)\n" input (Dag.n dag)
      (Dag.num_edges dag);
    Printf.printf "machine:    %s\n" (Format.asprintf "%a" Machine.pp machine);
    Printf.printf "algorithm:  %s\n" algorithm;
    Printf.printf "supersteps: %d\n" (Schedule.num_supersteps schedule);
    Printf.printf "cost:       %d (work %d + comm %d + latency %d)\n" b.Bsp_cost.total
      b.Bsp_cost.work_total b.Bsp_cost.comm_total b.Bsp_cost.latency_total
  end
  else Printf.printf "%d\n" b.Bsp_cost.total;
  if show then print_string (Schedule_render.to_string machine schedule);
  if profile then begin
    let prof = Profile.compute machine schedule in
    (match Profile.reconcile prof b with
     | Ok () -> ()
     | Error msg -> failwith ("internal error: profile does not reconcile: " ^ msg));
    Format.printf "%a%!" Profile.pp prof
  end;
  (match chrome_trace with
   | None -> ()
   | Some path ->
     Trace_export.write_file path machine schedule;
     if not quiet then
       Printf.printf "chrome trace written to %s (open in ui.perfetto.dev)\n" path);
  (match flight_record with
   | None -> ()
   | Some path ->
     Obs.Events.write_chrome_trace path;
     Obs.Events.clear_dump_on_exit ();
     if not quiet then
       Printf.printf "flight recording written to %s (open in ui.perfetto.dev)\n" path);
  (match output with
   | None -> ()
   | Some path ->
     Obs.Metrics.with_span "cli:write" (fun () -> Schedule_io.write_file path schedule);
     if not quiet then Printf.printf "schedule written to %s\n" path);
  match registry with
  | None -> ()
  | Some r ->
    if trace then Obs.Metrics.log_summary r;
    (match metrics with
     | None -> ()
     | Some path ->
       Obs.Metrics.write_json_file r path;
       if not quiet then Printf.printf "metrics written to %s\n" path)

let input =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT" ~doc:"HyperDAG input file (text or binary, auto-detected).")

let p = Arg.(value & opt int 4 & info [ "p"; "procs" ] ~doc:"Number of processors.")
let g = Arg.(value & opt int 1 & info [ "g"; "comm-cost" ] ~doc:"Per-unit communication cost.")
let l = Arg.(value & opt int 5 & info [ "l"; "latency" ] ~doc:"Latency per superstep.")

let delta =
  Arg.(
    value
    & opt (some int) None
    & info [ "numa-delta" ]
        ~doc:
          "Enable NUMA: processors form a binary tree and each level multiplies the unit \
           cost by $(docv). Requires --p to be a power of two." ~docv:"DELTA")

let algorithm =
  Arg.(
    value
    & opt (enum (List.map (fun n -> (n, n)) Server.Engine.algorithm_names)) "pipeline"
    & info [ "algorithm"; "a" ]
        ~doc:
          "Scheduler to run: $(b,pipeline) (the full framework), $(b,multilevel), or a \
           baseline ($(b,cilk), $(b,hdagg), $(b,bl-est), $(b,etf), $(b,bspg), \
           $(b,source), $(b,trivial)).")

let seconds =
  Arg.(
    value & opt float 60.0
    & info [ "seconds" ] ~doc:"Approximate total optimisation time budget.")

let output =
  Arg.(
    value
    & opt (some string) None
    & info [ "output"; "o" ] ~doc:"Write the schedule to this file.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed (Cilk stealing).")
let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Print only the total cost.")

let machine_file =
  Arg.(
    value
    & opt (some file) None
    & info [ "machine" ]
        ~doc:
          "Read the machine from a description file (overrides -p/-g/-l/--numa-delta); \
           supports arbitrary explicit NUMA matrices, see Machine_io.")

let show =
  Arg.(value & flag & info [ "show" ] ~doc:"Print a per-superstep schedule rendering.")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write an observability snapshot (counters, gauges, cost trajectory, per-stage \
           spans with budget steps) as JSON to $(docv).")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Log a summary line as each pipeline stage finishes (wall-clock seconds and \
           budget steps consumed), plus a final metrics summary.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print a cost-attribution report for the produced schedule: per-processor \
           utilisation, bottleneck processors and imbalance per superstep, the NUMA \
           traffic matrix, and the lower-bound gap.")

let chrome_trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Write the schedule as a Chrome trace_event timeline to $(docv): one track per \
           processor with compute and communication slices per superstep. Open in \
           ui.perfetto.dev or chrome://tracing.")

let flight_record =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-record" ] ~docv:"FILE"
        ~doc:
          "Enable the per-domain flight recorder (Obs.Events) and write its wall-clock \
           Chrome trace_event timeline to $(docv): one track per domain with task runs \
           split from queue waits, batch claims, GC counter samples, and a slice per \
           pipeline stage span (under $(b,serve), also one $(b,server:request) slice \
           per scheduling request). Written on completion and, as crash insurance, \
           from an at_exit hook. Open in ui.perfetto.dev.")

let jobs =
  Arg.(
    value
    & opt int (Par.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run the pipeline's candidate chains and the multilevel ratio sweep on $(docv) \
           domains (default from \\$BSP_JOBS, else 1). Results are bit-identical for \
           every $(docv); only wall-clock time changes.")

let replicate =
  Arg.(
    value & flag
    & info [ "replicate" ]
        ~doc:
          "Allow node replication: after the chosen algorithm finishes, greedily place \
           extra copies of nodes on processors whose incoming traffic they eliminate, \
           and keep the replicated schedule when it is strictly cheaper. Off by \
           default; without this flag all results are bit-identical to the \
           replication-free scheduler.")

(* ------------------------------------------------------------------ *)
(* serve subcommand *)

let serve queue_dir cache_dir poll once stdio metrics_file no_metrics prometheus_file
    flight_record trace jobs =
  Par.set_jobs jobs;
  let registry = Obs.Metrics.create () in
  Obs.Metrics.install registry;
  (* stdout may carry the --stdio frames, so the daemon logs to stderr *)
  if trace then install_trace ~app:Format.err_formatter registry;
  (match flight_record with
   | None -> ()
   | Some path ->
     Obs.Events.enable ();
     (* at_exit dump covers SIGINT/crash; a clean shutdown writes below. *)
     Obs.Events.set_dump_on_exit path);
  let finish_flight () =
    match flight_record with
    | None -> ()
    | Some path ->
      Obs.Events.write_chrome_trace path;
      Obs.Events.clear_dump_on_exit ();
      (* stderr: in --stdio mode stdout carries the reply frames. *)
      Printf.eprintf "flight recording written to %s (open in ui.perfetto.dev)\n%!"
        path
  in
  if stdio then begin
    let cache_dir =
      match (cache_dir, queue_dir) with
      | Some dir, _ -> dir
      | None, Some q -> Filename.concat q "cache"
      | None, None -> "bsp-schedule-cache"
    in
    Server.Daemon.run_stdio ~cache_dir stdin stdout;
    finish_flight ()
  end
  else begin
    let queue_dir =
      match queue_dir with
      | Some q -> q
      | None ->
        prerr_endline "scheduler serve: a QUEUE directory is required (or --stdio)";
        exit 2
    in
    let default = Server.Daemon.default_config ~queue_dir in
    let config =
      {
        default with
        Server.Daemon.cache_dir =
          Option.value ~default:default.Server.Daemon.cache_dir cache_dir;
        poll_seconds = poll;
        once;
        metrics_file =
          (if no_metrics then None
           else
             Some
               (Option.value ~default:(Filename.concat queue_dir "metrics.json")
                  metrics_file));
        prometheus_file =
          (if no_metrics then None
           else
             Some
               (Option.value ~default:(Filename.concat queue_dir "metrics.prom")
                  prometheus_file));
      }
    in
    Server.Daemon.run config;
    finish_flight ()
  end

let queue_dir =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"QUEUE"
        ~doc:
          "Queue directory: requests are read from $(docv)/incoming/*.req, responses \
           and schedules written to $(docv)/done/, and touching $(docv)/stop shuts the \
           daemon down cleanly. Created if absent. Not needed with $(b,--stdio).")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Content-addressed schedule cache directory (default $(i,QUEUE)/cache). \
           Entries are keyed by a structural hash of (DAG, machine, algorithm, seed, \
           replicate); sharing one cache across daemons is safe — all writes are \
           atomic.")

let poll =
  Arg.(
    value & opt float 0.05
    & info [ "poll" ] ~docv:"SECONDS" ~doc:"Sleep between empty queue scans.")

let once =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:"Drain the queue (processing everything pending), then exit instead of \
              polling — useful for cron-style batch runs and tests.")

let stdio =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:
          "Serve length-framed requests from stdin and answer on stdout (4-byte \
           big-endian length prefix per frame) instead of watching a queue directory.")

let serve_metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Metrics snapshot location (default $(i,QUEUE)/metrics.json), refreshed \
           atomically after every batch: request/hit/miss/refresh counters, queue \
           depth, per-request latency series.")

let no_metrics =
  Arg.(
    value & flag
    & info [ "no-metrics" ]
        ~doc:"Disable the metrics snapshot files (both JSON and Prometheus).")

let serve_prometheus =
  Arg.(
    value
    & opt (some string) None
    & info [ "prometheus" ] ~docv:"FILE"
        ~doc:
          "Prometheus text-exposition snapshot location (default \
           $(i,QUEUE)/metrics.prom), refreshed atomically alongside the JSON metrics \
           after every batch — point a node_exporter textfile collector or any \
           file-scraping agent at it.")

let serve_trace =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Log per-stage span summaries as requests are processed.")

let serve_cmd =
  let doc = "run as a long-running batch scheduling daemon with a schedule cache" in
  Cmd.v
    (Cmd.info "scheduler serve" ~doc)
    Term.(
      const serve $ queue_dir $ cache_dir_arg $ poll $ once $ stdio $ serve_metrics
      $ no_metrics $ serve_prometheus $ flight_record $ serve_trace
      $ jobs)

let run_cmd =
  let doc = "schedule a computational DAG in the BSP+NUMA model" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Schedules one hyperDAG instance and exits. Run $(b,scheduler serve) instead \
         to start the long-running batch daemon with its content-addressed schedule \
         cache ($(b,scheduler serve --help)).";
    ]
  in
  Cmd.v
    (Cmd.info "scheduler" ~doc ~man)
    Term.(
      const run $ input $ p $ g $ l $ delta $ machine_file $ algorithm $ seconds
      $ output $ seed $ quiet $ show $ metrics $ trace $ profile $ chrome_trace
      $ flight_record $ jobs $ replicate)

(* cmdliner groups route the first positional to a sub-command name, which
   would swallow the INPUT argument of the plain one-shot form — dispatch on
   argv.(1) ourselves so both [scheduler input.hdag] and [scheduler serve]
   keep working. *)
let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "serve" then
    let argv =
      Array.append [| argv.(0) |] (Array.sub argv 2 (Array.length argv - 2))
    in
    exit (Cmd.eval ~argv serve_cmd)
  else exit (Cmd.eval run_cmd)
