(* The seed hill climber: exhaustive sweeps over all nodes until a full
   pass finds no improvement, with every candidate costed by mutating
   the state and rolling back on rejection. The differential-testing
   oracle for [Hc.improve]: same neighbourhood, first-improvement rule
   and candidate order, so both engines end in local minima of the same
   neighbourhood. [check] re-verifies every rollback. *)

let improve ?(check = false) machine sched =
  let try_move_rollback st v p2 s2 =
    let p1 = Assignment_state.proc st v and s1 = Assignment_state.step st v in
    let before = Assignment_state.total_cost st in
    Assignment_state.apply_move st v p2 s2;
    if Assignment_state.total_cost st < before then true
    else begin
      Assignment_state.apply_move st v p1 s1;
      if check && Assignment_state.total_cost st <> before then
        failwith "Hc_reference: rollback did not restore the total cost";
      false
    end
  in
  let dag = sched.Schedule.dag in
  let n = Dag.n dag in
  let initial = Schedule.with_lazy_comm sched in
  let initial_cost = Bsp_cost.total machine initial in
  if n = 0 || Schedule.num_supersteps sched = 0 then
    ( initial,
      { Hc.moves_applied = 0; moves_evaluated = 0; initial_cost; final_cost = initial_cost }
    )
  else begin
    let st = Assignment_state.init machine initial in
    let p = machine.Machine.p in
    let moves_applied = ref 0 in
    let moves_evaluated = ref 0 in
    let improved_any = ref true in
    while !improved_any do
      improved_any := false;
      let v = ref 0 in
      while !v < n do
        let s1 = Assignment_state.step st !v in
        let moved = ref false in
        let ds = ref (-1) in
        while (not !moved) && !ds <= 1 do
          let s2 = s1 + !ds in
          let p2 = ref 0 in
          while (not !moved) && !p2 < p do
            if not (!p2 = Assignment_state.proc st !v && s2 = s1) then begin
              incr moves_evaluated;
              if Assignment_state.valid_move st !v !p2 s2 && try_move_rollback st !v !p2 s2
              then begin
                incr moves_applied;
                improved_any := true;
                moved := true
              end
            end;
            incr p2
          done;
          incr ds
        done;
        incr v
      done
    done;
    let result = Assignment_state.snapshot st in
    let final_cost = Bsp_cost.total machine result in
    Assignment_state.release st;
    ( result,
      {
        Hc.moves_applied = !moves_applied;
        moves_evaluated = !moves_evaluated;
        initial_cost;
        final_cost;
      } )
  end
