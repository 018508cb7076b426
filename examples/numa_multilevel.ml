(* The communication-dominated regime (Section 7.3): on a hierarchical
   NUMA machine with a steep cost gradient, per-node schedulers struggle
   to beat the trivial single-processor schedule, while the multilevel
   coarsen-solve-refine pipeline finds genuinely parallel schedules.

   Run with:  dune exec examples/numa_multilevel.exe *)

let () =
  let rng = Rng.create 7 in
  let matrix = Sparse_matrix.random rng ~n:60 ~q:0.06 in
  let dag = Finegrained.exp matrix ~k:4 in
  Printf.printf "workload: A^4 u over a 60x60 sparse matrix -> %d nodes, %d edges\n"
    (Dag.n dag) (Dag.num_edges dag);

  (* 16 processors in a binary-tree hierarchy; each level up multiplies
     the unit communication cost by delta = 3, so the farthest pairs pay
     lambda = 3^3 = 27 per unit (Section 6). *)
  let machine = Machine.numa_tree ~p:16 ~g:1 ~l:5 ~delta:3 in
  Printf.printf "machine: P=16 binary NUMA tree, delta=3 (lambda in [1, %d]), g=%d, l=%d\n\n"
    (Machine.max_lambda machine) machine.Machine.g machine.Machine.l;

  let trivial = Bsp_cost.total machine (Schedule.trivial dag) in
  let cilk = Bsp_cost.total machine (Cilk.schedule dag ~p:16 ~seed:1) in
  let hdagg = Bsp_cost.total machine (Hdagg.schedule machine dag) in
  let limits =
    {
      Pipeline.thorough_limits with
      Pipeline.stage_seconds = Some 1.0;
      use_ilp_init = Pipeline.ilp_init_pays machine dag;
    }
  in
  let base, _ = Pipeline.run ~limits machine dag in
  let base_cost = Bsp_cost.total machine base in
  (* One coarsening to the smaller ratio's target holds both levels. *)
  let contractions = Multilevel.coarsening ~ratios:[ 0.15; 0.3 ] dag in
  let ml15 = Pipeline.run_multilevel_ratio ~limits ~contractions ~ratio:0.15 machine dag in
  let ml30 = Pipeline.run_multilevel_ratio ~limits ~contractions ~ratio:0.3 machine dag in
  let ml15_cost = Bsp_cost.total machine ml15 in
  let ml30_cost = Bsp_cost.total machine ml30 in

  let show name cost =
    Printf.printf "%-22s %10d   (%.2fx trivial)\n" name cost
      (float_of_int cost /. float_of_int trivial)
  in
  show "trivial (1 proc)" trivial;
  show "cilk" cilk;
  show "hdagg" hdagg;
  show "base pipeline" base_cost;
  show "multilevel C15" ml15_cost;
  show "multilevel C30" ml30_cost;

  let best_ml = min ml15_cost ml30_cost in
  if best_ml < min base_cost trivial then
    Printf.printf
      "\nthe multilevel scheduler is the only method that profitably parallelises this \
       instance (%.0f%% below trivial)\n"
      ((1.0 -. (float_of_int best_ml /. float_of_int trivial)) *. 100.0)
  else
    Printf.printf "\nmultilevel best: %d vs base %d vs trivial %d\n" best_ml base_cost
      trivial
