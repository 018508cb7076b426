(* The O(S * (n + m)) superstep merge of the first implementation, kept
   verbatim as the oracle for the differential property in
   test_util_modules.ml: the incremental Superstep_merge.greedy must
   reproduce its schedules byte for byte. Every attempt scans all edges,
   copies the step array and recosts the whole schedule, so it is only
   fit for the small DAGs of the tests. *)

let greedy machine (sched : Schedule.t) =
  if Schedule.has_replicas sched then
    invalid_arg
      "Superstep_merge.greedy: replicated schedules are not supported \
       (merge before replicating, or drop the replicas first)";
  let dag = sched.Schedule.dag in
  let lazy_sched = Schedule.with_lazy_comm sched in
  let cost_of step = Bsp_cost.total machine (Schedule.of_assignment dag ~proc:sched.Schedule.proc ~step) in
  let num_steps arr = if Dag.n dag = 0 then 0 else 1 + Array.fold_left max 0 arr in
  let current = ref (Array.copy sched.Schedule.step) in
  let current_cost = ref (cost_of !current) in
  let s = ref 0 in
  while !s < num_steps !current - 1 do
    let blocked = ref false in
    Dag.iter_edges dag (fun u v ->
        if
          !current.(u) = !s
          && !current.(v) = !s + 1
          && sched.Schedule.proc.(u) <> sched.Schedule.proc.(v)
        then blocked := true);
    if !blocked then incr s
    else begin
      let merged = Array.map (fun x -> if x > !s then x - 1 else x) !current in
      let c = cost_of merged in
      if c < !current_cost then begin
        current := merged;
        current_cost := c
        (* stay on the same index: further merges may now be possible *)
      end
      else incr s
    end
  done;
  if !current_cost < Bsp_cost.total machine lazy_sched then
    Schedule.of_assignment dag ~proc:sched.Schedule.proc ~step:!current
  else lazy_sched
