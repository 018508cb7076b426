(* CLI: validate a schedule file against its DAG and report its exact
   BSP(+NUMA) cost.

   Example:
     evaluate input.hdag out.schedule -p 8 -g 3 -l 5 --verbose *)

open Cmdliner

(* Input the files or the parameters cannot describe (a malformed or
   unreadable file, p above Machine.max_p, a NUMA p not a power of two)
   is a usage error, not an internal one. *)
let usage_error_on f =
  try f ()
  with Invalid_argument msg | Failure msg | Sys_error msg ->
    Printf.eprintf "evaluate: %s\n%!" msg;
    exit Cmd.Exit.cli_error

let run dag_file schedule_file p g l delta verbose =
  let machine, schedule =
    usage_error_on (fun () ->
        let dag = Hyperdag_io.read_file_auto dag_file in
        let machine =
          match delta with
          | None -> Machine.uniform ~p ~g ~l
          | Some delta -> Machine.numa_tree ~p ~g ~l ~delta
        in
        (machine, Schedule_io.read_file dag schedule_file))
  in
  match Validity.check machine schedule with
  | Error errs ->
    Printf.printf "INVALID schedule (%d violations):\n" (List.length errs);
    List.iter (fun e -> Printf.printf "  %s\n" e) errs;
    exit 1
  | Ok () ->
    let b = Bsp_cost.breakdown machine schedule in
    Printf.printf "valid schedule: %d supersteps, cost %d (work %d + comm %d + latency %d)\n"
      (Schedule.num_supersteps schedule)
      b.Bsp_cost.total b.Bsp_cost.work_total b.Bsp_cost.comm_total b.Bsp_cost.latency_total;
    if verbose then
      Array.iteri
        (fun s (c : Bsp_cost.superstep) ->
          Printf.printf "  superstep %3d: work %6d, h-relation %6d, cost %6d\n" s
            c.Bsp_cost.work_max c.Bsp_cost.comm_max c.Bsp_cost.cost)
        b.Bsp_cost.supersteps

let dag_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DAG" ~doc:"HyperDAG input file (text or binary, auto-detected).")

let schedule_file =
  Arg.(
    required & pos 1 (some file) None & info [] ~docv:"SCHEDULE" ~doc:"Schedule file.")

let p = Arg.(value & opt int 4 & info [ "p"; "procs" ] ~doc:"Number of processors.")
let g = Arg.(value & opt int 1 & info [ "g"; "comm-cost" ] ~doc:"Per-unit communication cost.")
let l = Arg.(value & opt int 5 & info [ "l"; "latency" ] ~doc:"Latency per superstep.")

let delta =
  Arg.(
    value
    & opt (some int) None
    & info [ "numa-delta" ] ~doc:"Binary-tree NUMA multiplier." ~docv:"DELTA")

let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-superstep breakdown.")

let cmd =
  let doc = "validate and cost a BSP schedule" in
  Cmd.v (Cmd.info "evaluate" ~doc)
    Term.(const run $ dag_file $ schedule_file $ p $ g $ l $ delta $ verbose)

let () = exit (Cmd.eval cmd)
