(* The per-candidate HCcs loop of the first implementation, kept as the
   oracle for the differential properties in test_localsearch.ml: every
   candidate phase probes the budget, ticks one step and re-derives both
   touched superstep maxima by scanning their O(p) rows. Hccs.improve
   must reproduce its communication events, its stats and its budget
   consumption exactly. *)

open Hccs

(* The first implementation's pair derivation, kept as the oracle for
   Hccs.required_pairs (which reads its pairs off Schedule.lazy_comm):
   one first-need pass over every edge, then one pair per (node,
   destination) need in ascending (node, dst) order, started from the
   input's direct event when it fits the window. *)
let required_pairs machine (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let proc = sched.Schedule.proc and step = sched.Schedule.step in
  let no_need = max_int in
  let first_need = Array.make (max (n * p) 1) no_need in
  for v = 0 to n - 1 do
    Dag.iter_pred dag v (fun u ->
        if proc.(u) <> proc.(v) then begin
          let idx = (u * p) + proc.(v) in
          if step.(v) < first_need.(idx) then first_need.(idx) <- step.(v)
        end)
  done;
  let initial = Array.make (max (n * p) 1) no_need in
  List.iter
    (fun (e : Schedule.comm_event) ->
      if e.src = proc.(e.node) then begin
        let idx = (e.node * p) + e.dst in
        if e.step < initial.(idx) then initial.(idx) <- e.step
      end)
    sched.Schedule.comm;
  let acc = ref [] in
  for u = n - 1 downto 0 do
    for dst = p - 1 downto 0 do
      let s0 = first_need.((u * p) + dst) in
      if s0 <> no_need then begin
        let src = proc.(u) in
        let lo = step.(u) and hi = s0 - 1 in
        let cur =
          let s = initial.((u * p) + dst) in
          if s >= lo && s <= hi then s else hi
        in
        acc :=
          { node = u; src; dst; vol = Dag.comm dag u * Machine.lambda machine src dst; lo; hi; cur }
          :: !acc
      end
    done
  done;
  !acc

let improve ?(budget = Budget.unlimited ()) machine (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let num_steps = Schedule.num_supersteps sched in
  (* required_pairs emits in ascending (node, dst) order already. *)
  let pairs = Array.of_list (required_pairs machine sched) in
  let table = Cost_table.create machine ~num_steps in
  for v = 0 to Dag.n dag - 1 do
    Cost_table.add_work table ~step:sched.Schedule.step.(v)
      ~proc:sched.Schedule.proc.(v) (Dag.work dag v)
  done;
  let place pair sign =
    Cost_table.add_send table ~step:pair.cur ~proc:pair.src (sign * pair.vol);
    Cost_table.add_recv table ~step:pair.cur ~proc:pair.dst (sign * pair.vol)
  in
  Array.iter (fun pair -> place pair 1) pairs;
  Cost_table.refresh table;
  let to_schedule () =
    let comm =
      Array.to_list pairs
      |> List.map (fun pair ->
             { Schedule.node = pair.node; src = pair.src; dst = pair.dst; step = pair.cur })
    in
    Schedule.make dag ~proc:sched.Schedule.proc ~step:sched.Schedule.step ~comm
  in
  let initial_cost = Cost_table.total table in
  (* Read-only delta of moving an event to phase [s]: only the source's
     send column and the destination's receive column of the two touched
     phases change, so re-derive those two superstep maxima against the
     cached per-step costs without mutating the table. *)
  let p = machine.Machine.p in
  let step_cost_with ~s ~src ~dst dvol =
    let work_m = Cost_table.work_matrix table in
    let send_m = Cost_table.send_matrix table in
    let recv_m = Cost_table.recv_matrix table in
    let work_row = work_m.(s) and send_row = send_m.(s) and recv_row = recv_m.(s) in
    let work_max = ref 0 and comm_max = ref 0 in
    for q = 0 to p - 1 do
      if work_row.(q) > !work_max then work_max := work_row.(q);
      let snd = send_row.(q) + if q = src then dvol else 0 in
      let rcv = recv_row.(q) + if q = dst then dvol else 0 in
      let h = if snd > rcv then snd else rcv in
      if h > !comm_max then comm_max := h
    done;
    Bsp_cost.superstep_cost machine ~work_max:!work_max ~comm_max:!comm_max
  in
  let delta_of pair s =
    step_cost_with ~s:pair.cur ~src:pair.src ~dst:pair.dst (-pair.vol)
    + step_cost_with ~s ~src:pair.src ~dst:pair.dst pair.vol
    - Cost_table.step_cost table pair.cur
    - Cost_table.step_cost table s
  in
  let moves_applied = ref 0 and moves_evaluated = ref 0 in
  let improved_any = ref true in
  while !improved_any && not (Budget.exhausted budget) do
    improved_any := false;
    Array.iter
      (fun pair ->
        if not (Budget.exhausted budget) then begin
          let s = ref pair.lo in
          (* The exhaustion re-probe keeps every evaluation paired with a
             successful tick, so the stage's budget consumption equals
             its [moves_evaluated]. *)
          while !s <= pair.hi && not (Budget.exhausted budget) do
            if !s <> pair.cur then begin
              ignore (Budget.tick budget : bool);
              incr moves_evaluated;
              if delta_of pair !s < 0 then begin
                place pair (-1);
                pair.cur <- !s;
                place pair 1;
                Cost_table.refresh table;
                incr moves_applied;
                improved_any := true
              end
            end;
            incr s
          done
        end)
      pairs
  done;
  Obs.Metrics.counter "hccs.runs" 1;
  Obs.Metrics.counter "hccs.moves_evaluated" !moves_evaluated;
  Obs.Metrics.counter "hccs.moves_applied" !moves_applied;
  Obs.Metrics.gauge_max "hccs.pairs_peak" (float_of_int (Array.length pairs));
  let result = to_schedule () in
  let final_cost = Bsp_cost.total machine result in
  ( result,
    {
      moves_applied = !moves_applied;
      moves_evaluated = !moves_evaluated;
      initial_cost;
      final_cost;
    } )
