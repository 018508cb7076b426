(* Compare every scheduler on the paper's motivating workload: the
   fine-grained DAG of an iterated sparse matrix - vector product
   (Appendix B.2), on a classical BSP machine.

   Run with:  dune exec examples/spmv_comparison.exe *)

let () =
  let rng = Rng.create 2024 in
  let matrix = Sparse_matrix.random rng ~n:40 ~q:0.08 in
  let dag = Finegrained.exp matrix ~k:4 in
  Printf.printf "workload: A^4 u over a %dx%d sparse matrix -> DAG with %d nodes, %d edges\n"
    (Sparse_matrix.n matrix) (Sparse_matrix.n matrix) (Dag.n dag) (Dag.num_edges dag);

  let machine = Machine.uniform ~p:8 ~g:3 ~l:5 in
  Printf.printf "machine: %d processors, g=%d, l=%d (uniform BSP)\n\n" machine.Machine.p
    machine.Machine.g machine.Machine.l;

  let evaluate name schedule =
    assert (Validity.is_valid machine schedule);
    let cost = Bsp_cost.total machine schedule in
    (name, cost, Schedule.num_supersteps schedule)
  in
  let limits =
    {
      Pipeline.thorough_limits with
      Pipeline.stage_seconds = Some 1.0;
      use_ilp_init = Pipeline.ilp_init_pays machine dag;
    }
  in
  let pipeline_schedule, stages = Pipeline.run ~limits machine dag in
  let rows =
    [
      evaluate "trivial (1 proc)" (Schedule.trivial dag);
      evaluate "cilk" (Cilk.schedule dag ~p:machine.Machine.p ~seed:1);
      evaluate "bl-est" (List_scheduler.schedule List_scheduler.Bl_est machine dag);
      evaluate "etf" (List_scheduler.schedule List_scheduler.Etf machine dag);
      evaluate "hdagg" (Hdagg.schedule machine dag);
      evaluate "bspg" (Bspg.schedule machine dag);
      evaluate "source" (Source_heuristic.schedule machine dag);
      evaluate "pipeline (ours)" pipeline_schedule;
    ]
  in
  let _, best, _ =
    List.fold_left
      (fun ((_, bc, _) as acc) ((_, c, _) as row) -> if c < bc then row else acc)
      (List.hd rows) (List.tl rows)
  in
  Printf.printf "%-18s %10s %12s %8s\n" "scheduler" "cost" "supersteps" "ratio";
  List.iter
    (fun (name, cost, steps) ->
      Printf.printf "%-18s %10d %12d %8.2f%s\n" name cost steps
        (float_of_int cost /. float_of_int best)
        (if cost = best then "  <- best" else ""))
    rows;
  Printf.printf
    "\npipeline detail: best init = %s (%d), after HC+HCcs = %d, after ILP = %d\n"
    stages.Pipeline.best_init_name stages.Pipeline.init_cost
    stages.Pipeline.after_local_search stages.Pipeline.final_cost
