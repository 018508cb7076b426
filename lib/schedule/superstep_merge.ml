(* One left-to-right pass over the input's supersteps. The groups left of
   the cursor are final; the current group A may still absorb the next
   input superstep B, which is always an original, unmerged one because
   a merge only ever absorbs the group to its right. So each input
   superstep is tested exactly once: O(n + m + S * p) overall.

   Under lazy communication, A's communication phase holds exactly the
   values first needed at B. Merging B into A moves those needs one
   superstep earlier, so A's phase folds into that of the group P before
   A; the merged group's phase is B's old one, and its work row is the
   sum of A's and B's. Every other superstep keeps its rows, so the cost
   change touches only P, A and B. A group's rows live at the index of
   its last input superstep. When A is the first group its phase is
   empty: a value first needed at B and produced in A would make the
   merge invalid. *)
let greedy machine (sched : Schedule.t) =
  if Schedule.has_replicas sched then
    invalid_arg
      "Superstep_merge.greedy: replicated schedules are not supported \
       (merge before replicating, or drop the replicas first)";
  let dag = sched.Schedule.dag in
  let proc = sched.Schedule.proc and step = sched.Schedule.step in
  let lazy_sched = Schedule.with_lazy_comm sched in
  let num_steps = Schedule.num_supersteps lazy_sched in
  if num_steps <= 1 then lazy_sched
  else begin
    let p = machine.Machine.p in
    let work, send, recv = Bsp_cost.tables machine lazy_sched ~num_steps in
    (* [last_cross.(s)]: the latest superstep holding the source of a
       cross-processor edge into [s]. Such an edge from inside A pins B
       after A. *)
    let last_cross = Array.make num_steps (-1) in
    Dag.iter_edges dag (fun u v ->
        let su = step.(u) and sv = step.(v) in
        if proc.(u) <> proc.(v) && su < sv && su > last_cross.(sv) then last_cross.(sv) <- su);
    let zero = Array.make p 0 in
    (* Cost of a superstep with work row [wa + wb] whose phase sends
       [sa + sb] and receives [ra + rb]. *)
    let cost wa wb sa sb ra rb =
      let work_max = ref 0 and comm_max = ref 0 in
      for q = 0 to p - 1 do
        let w = wa.(q) + wb.(q) in
        if w > !work_max then work_max := w;
        let h = max (sa.(q) + sb.(q)) (ra.(q) + rb.(q)) in
        if h > !comm_max then comm_max := h
      done;
      Bsp_cost.superstep_cost machine ~work_max:!work_max ~comm_max:!comm_max
    in
    let row_cost r = cost work.(r) zero send.(r) zero recv.(r) zero in
    (* [label.(s)] is the output superstep of input superstep [s]. A is
       [a_first .. b - 1]; P's rows are at [p_last]. *)
    let label = Array.make num_steps 0 in
    let groups = ref 1 in
    let a_first = ref 0 and p_last = ref (-1) in
    for b = 1 to num_steps - 1 do
      let a = b - 1 and pr = !p_last in
      let pays =
        last_cross.(b) < !a_first
        &&
        let before = row_cost a + row_cost b + if pr >= 0 then row_cost pr else 0 in
        let after =
          cost work.(a) work.(b) send.(b) zero recv.(b) zero
          + if pr >= 0 then cost work.(pr) zero send.(pr) send.(a) recv.(pr) recv.(a) else 0
        in
        after < before
      in
      if pays then
        for q = 0 to p - 1 do
          work.(b).(q) <- work.(b).(q) + work.(a).(q);
          if pr >= 0 then begin
            send.(pr).(q) <- send.(pr).(q) + send.(a).(q);
            recv.(pr).(q) <- recv.(pr).(q) + recv.(a).(q)
          end
        done
      else begin
        incr groups;
        p_last := a;
        a_first := b
      end;
      label.(b) <- !groups - 1
    done;
    if !groups < num_steps then
      Schedule.of_assignment dag ~proc ~step:(Array.map (fun s -> label.(s)) step)
    else lazy_sched
  end
