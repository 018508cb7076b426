(* Quickstart: build a small computational DAG by hand, describe a BSP
   machine, run the full scheduling pipeline, and inspect the result.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* A little diamond-shaped computation: node 0 produces an input that
     nodes 1 and 2 process independently; node 3 combines them. Work
     weights are the execution times, communication weights the output
     sizes. *)
  let dag =
    Dag.of_edges ~n:4
      ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
      ~work:[| 2; 6; 6; 3 |]
      ~comm:[| 1; 2; 2; 1 |]
  in

  (* A classical BSP machine: 2 processors, per-unit communication cost
     g = 2, latency l = 3 per superstep. *)
  let machine = Machine.uniform ~p:2 ~g:2 ~l:3 in

  (* Run the paper's combined pipeline: initialisation heuristics,
     hill-climbing local search, and the ILP-based refinement stages.
     The limits cap each stage at one second, and run the ILPinit
     initialiser only where it pays, as the CLI does. *)
  let limits =
    {
      Pipeline.thorough_limits with
      Pipeline.stage_seconds = Some 1.0;
      use_ilp_init = Pipeline.ilp_init_pays machine dag;
    }
  in
  let schedule, stages = Pipeline.run ~limits machine dag in

  Printf.printf "schedule found (valid = %b):\n" (Validity.is_valid machine schedule);
  Array.iteri
    (fun v p ->
      Printf.printf "  node %d -> processor %d, superstep %d\n" v p
        schedule.Schedule.step.(v))
    schedule.Schedule.proc;
  List.iter
    (fun (e : Schedule.comm_event) ->
      Printf.printf "  send output of %d: proc %d -> proc %d in phase %d\n" e.node e.src
        e.dst e.step)
    schedule.Schedule.comm;

  let b = Bsp_cost.breakdown machine schedule in
  Printf.printf "\ncost: %d  (work %d + communication %d + latency %d)\n" b.Bsp_cost.total
    b.Bsp_cost.work_total b.Bsp_cost.comm_total b.Bsp_cost.latency_total;
  Printf.printf "pipeline stages: init(%s)=%d, after local search=%d, final=%d\n"
    stages.Pipeline.best_init_name stages.Pipeline.init_cost
    stages.Pipeline.after_local_search stages.Pipeline.final_cost;

  (* Compare against executing everything on one processor. *)
  let trivial = Bsp_cost.total machine (Schedule.trivial dag) in
  Printf.printf "trivial single-processor cost: %d\n" trivial
