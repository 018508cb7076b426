type config = {
  ratios : float list;
  refine_interval : int;
  refine_moves : int;
  strategy : Coarsen.strategy;
}

let default_config =
  {
    ratios = [ 0.3; 0.15 ];
    refine_interval = 5;
    refine_moves = 100;
    strategy = Coarsen.Paper_rule;
  }

(* Project the per-representative assignment onto the current level of
   the coarsening session as a schedule on its quotient DAG, refine with
   HC, and write the result back into the per-representative arrays. *)
let refine_level ?budget ~refine_moves session machine ~proc_of ~step_of =
  let qdag, rep_of_id = Coarsen.quotient session in
  let nq = Dag.n qdag in
  let proc = Array.init nq (fun i -> proc_of.(rep_of_id.(i))) in
  let step = Array.init nq (fun i -> step_of.(rep_of_id.(i))) in
  let sched = Schedule.of_assignment qdag ~proc ~step in
  let improved, stats = Hc.improve ?budget ~max_moves:refine_moves machine sched in
  Obs.Metrics.counter "multilevel.refine_passes" 1;
  Obs.Metrics.counter "multilevel.refine_moves_applied" stats.Hc.moves_applied;
  Array.iteri
    (fun i r ->
      proc_of.(r) <- improved.Schedule.proc.(i);
      step_of.(r) <- improved.Schedule.step.(i))
    rep_of_id

let run_ratio ?budget ?(strategy = Coarsen.Paper_rule) ~refine_interval ~refine_moves
    ~solver ~ratio machine dag =
  let n = Dag.n dag in
  let target = max 2 (int_of_float (ratio *. float_of_int n)) in
  let session = Coarsen.start dag in
  let qdag, rep_of_id =
    Obs.Metrics.with_span "coarsen" (fun () ->
        Coarsen.coarsen_to ~strategy session ~target;
        Coarsen.quotient session)
  in
  Obs.Metrics.counter "multilevel.runs" 1;
  Obs.Metrics.counter "multilevel.contractions" (Coarsen.num_contractions session);
  Obs.Metrics.gauge "multilevel.coarse_nodes" (float_of_int (Dag.n qdag));
  let coarse = solver machine qdag in
  (* Per-representative assignment, indexed by original node ids. *)
  let proc_of = Array.make n 0 in
  let step_of = Array.make n 0 in
  Array.iteri
    (fun i r ->
      proc_of.(r) <- coarse.Schedule.proc.(i);
      step_of.(r) <- coarse.Schedule.step.(i))
    rep_of_id;
  (* Uncoarsen in chunks, refining after each chunk. A spent budget
     stays spent, and HC on a spent budget returns its input's
     assignment, so once the budget is gone the remaining levels are
     only projected: no quotient, no HC state. *)
  Obs.Metrics.with_span "refine" (fun () ->
      let spent () = match budget with Some b -> Budget.exhausted b | None -> false in
      (* Level sizes only grow during uncoarsening, so without
         intervention every level's refinement state would find the
         previous (smaller) level's pooled arrays too small and allocate
         fresh ones. Parking one state at the finest level's capacity up
         front makes every refinement init below draw from the pool. The
         superstep count is fixed by the coarse solve: refinement moves
         within the existing range and compaction only happens at the
         very end. *)
      if not (spent ()) then
        Assignment_state.prewarm machine dag ~num_steps:(Schedule.num_supersteps coarse);
      let remaining = ref (Coarsen.num_contractions session) in
      let skipped = ref 0 in
      while !remaining > 0 do
        let chunk = min refine_interval !remaining in
        for _ = 1 to chunk do
          match Coarsen.undo_last session with
          | Some { Coarsen.kept; removed } ->
            proc_of.(removed) <- proc_of.(kept);
            step_of.(removed) <- step_of.(kept)
          | None -> ()
        done;
        remaining := !remaining - chunk;
        if spent () then incr skipped
        else refine_level ?budget ~refine_moves session machine ~proc_of ~step_of
      done;
      Obs.Metrics.counter "multilevel.refine_levels_skipped" !skipped);
  Schedule.compact (Schedule.of_assignment dag ~proc:proc_of ~step:step_of)
