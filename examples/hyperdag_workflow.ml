(* End-to-end file workflow: generate a computational DAG, store it in
   the HyperDAG_DB format, read it back, schedule it, and store the
   schedule — the flow a user of the CLI tools (bin/generate.exe,
   bin/scheduler.exe, bin/evaluate.exe) goes through, driven as a
   library.

   Run with:  dune exec examples/hyperdag_workflow.exe *)

let () =
  let dir = Filename.temp_file "hyperdag" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let dag_path = Filename.concat dir "pagerank.hdag" in
  let sched_path = Filename.concat dir "pagerank.schedule" in

  (* 1. Generate the coarse-grained op-level DAG of 40 PageRank
     iterations and write it out. *)
  let dag = Coarsegrained.generate Coarsegrained.Pagerank ~iterations:40 in
  Hyperdag_io.write_file dag_path dag;
  Printf.printf "wrote %s (%d nodes, %d edges, hyperDAG format)\n" dag_path (Dag.n dag)
    (Dag.num_edges dag);

  (* 2. Read it back — this is exactly what the scheduler CLI does. *)
  let dag = Hyperdag_io.read_file dag_path in

  (* 3. Schedule on a NUMA machine and persist the schedule. *)
  let machine = Machine.numa_tree ~p:8 ~g:2 ~l:5 ~delta:2 in
  let limits =
    {
      Pipeline.thorough_limits with
      Pipeline.stage_seconds = Some 1.0;
      use_ilp_init = Pipeline.ilp_init_pays machine dag;
    }
  in
  let schedule, stages = Pipeline.run ~limits machine dag in
  Schedule_io.write_file sched_path schedule;
  Printf.printf "wrote %s (cost %d, %d supersteps, init=%s)\n" sched_path
    stages.Pipeline.final_cost
    (Schedule.num_supersteps schedule)
    stages.Pipeline.best_init_name;

  (* 4. Reload and re-validate, as bin/evaluate.exe would. *)
  let reloaded = Schedule_io.read_file dag sched_path in
  (match Validity.check machine reloaded with
   | Ok () -> Printf.printf "reloaded schedule is valid; cost matches: %b\n"
                (Bsp_cost.total machine reloaded = stages.Pipeline.final_cost)
   | Error errs ->
     List.iter prerr_endline errs;
     failwith "reloaded schedule invalid");

  Sys.remove dag_path;
  Sys.remove sched_path;
  Unix.rmdir dir
