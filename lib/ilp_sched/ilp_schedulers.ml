type report = {
  improved : bool;
  cost_before : int;
  cost_after : int;
  bb_nodes : int;
  sub_solves : int;
  proven_optimal : bool;
}

let no_op_report cost =
  {
    improved = false;
    cost_before = cost;
    cost_after = cost;
    bb_nodes = 0;
    sub_solves = 0;
    proven_optimal = false;
  }

(* Solve one interval spec against the current assignment and apply the
   update when the resulting full schedule is strictly cheaper. *)
let solve_interval ?budget ?max_nodes machine dag ~proc ~step spec =
  let model, built = Ilp_interval.build spec in
  let cutoff = float_of_int (Ilp_interval.current_scope_cost spec) +. 1e-6 in
  let outcome = Branch_bound.solve ?budget ?max_nodes ~cutoff model in
  let applied =
    match outcome.Branch_bound.solution with
    | None -> false
    | Some x ->
      let updates = Ilp_interval.extract built x in
      let proc' = Array.copy proc and step' = Array.copy step in
      List.iter
        (fun (v, q, s) ->
          proc'.(v) <- q;
          step'.(v) <- s)
        updates;
      if not (Schedule.assignment_valid dag ~proc:proc' ~step:step') then false
      else begin
        let before =
          Bsp_cost.total machine (Schedule.of_assignment dag ~proc ~step)
        in
        let after =
          Bsp_cost.total machine (Schedule.of_assignment dag ~proc:proc' ~step:step')
        in
        if after < before then begin
          Array.blit proc' 0 proc 0 (Array.length proc);
          Array.blit step' 0 step 0 (Array.length step);
          true
        end
        else false
      end
  in
  (applied, outcome)

(* ILPfull models every node over every superstep: [estimate_vars] of
   that spec, from counts alone. *)
let full_is_noop ?(max_vars = 2000) machine (sched : Schedule.t) =
  let num_steps = Schedule.num_supersteps sched in
  let p = machine.Machine.p in
  num_steps = 0 || Dag.n sched.Schedule.dag * num_steps * p * p > max_vars

let full ?budget ?(max_vars = 2000) ?max_nodes machine (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let cost_before = Bsp_cost.total machine sched in
  if full_is_noop ~max_vars machine sched then (sched, no_op_report cost_before)
  else begin
    let num_steps = Schedule.num_supersteps sched in
    let spec =
      {
        Ilp_interval.dag;
        machine;
        proc = Array.copy sched.Schedule.proc;
        step = Array.copy sched.Schedule.step;
        v0 = List.init (Dag.n dag) Fun.id;
        s_lo = 0;
        s_hi = num_steps - 1;
      }
    in
    let proc = spec.Ilp_interval.proc and step = spec.Ilp_interval.step in
    let applied, outcome =
      solve_interval ?budget ?max_nodes machine dag ~proc ~step spec
    in
    let result =
      if applied then Schedule.compact (Schedule.of_assignment dag ~proc ~step)
      else sched
    in
    let cost_after = Bsp_cost.total machine result in
    ( result,
      {
        improved = cost_after < cost_before;
        cost_before;
        cost_after;
        bb_nodes = outcome.Branch_bound.nodes_explored;
        sub_solves = 1;
        proven_optimal = outcome.Branch_bound.proven_optimal;
      } )
  end

(* ILPpart's intervals are sized from per-superstep node counts kept as
   prefix sums: [pre.(s)] nodes sit in supersteps [0 .. s - 1]. Steps
   outside [0, num_steps) are in no interval. *)
let count_steps pre step =
  let num_steps = Array.length pre - 1 in
  Array.fill pre 0 (num_steps + 1) 0;
  for v = 0 to Array.length step - 1 do
    let s = step.(v) in
    if s >= 0 && s < num_steps then pre.(s + 1) <- pre.(s + 1) + 1
  done;
  for s = 1 to num_steps do
    pre.(s) <- pre.(s) + pre.(s - 1)
  done

(* The variable estimate [|V0| * |S0| * P^2] of the interval [s1, s2]. *)
let interval_size pre ~p s1 s2 = (pre.(s2 + 1) - pre.(s1)) * (s2 - s1 + 1) * p * p

(* The interval ending at [s2], grown back until the estimate exceeds
   the cap (always covering at least one superstep): its first step. *)
let grow_interval pre ~p ~max_vars s2 =
  let s1 = ref s2 in
  while !s1 > 0 && interval_size pre ~p (!s1 - 1) s2 <= max_vars do
    decr s1
  done;
  !s1

(* Whether the interval gets a sub-solve: it holds a node and its model
   stays within four times the cap. *)
let interval_solves pre ~p ~max_vars s1 s2 =
  pre.(s2 + 1) > pre.(s1) && interval_size pre ~p s1 s2 <= max_vars * 4

let part_is_noop ?(max_vars = 600) machine (sched : Schedule.t) =
  let num_steps = Schedule.num_supersteps sched in
  if Schedule.has_replicas sched then false
  else if num_steps = 0 then true
  else begin
    let p = machine.Machine.p in
    let pre = Array.make (num_steps + 1) 0 in
    count_steps pre sched.Schedule.step;
    (* An empty superstep would make the final compaction change the
       result. Otherwise, until a sub-solve moves a node the intervals
       are those of the counts as they are now. *)
    let empty = ref false in
    for s = 0 to num_steps - 1 do
      if pre.(s + 1) = pre.(s) then empty := true
    done;
    let solves = ref false in
    let s2 = ref (num_steps - 1) in
    while (not !solves) && !s2 >= 0 do
      let s1 = grow_interval pre ~p ~max_vars !s2 in
      if interval_solves pre ~p ~max_vars s1 !s2 then solves := true;
      s2 := s1 - 1
    done;
    not (!empty || !solves)
  end

let part ?budget ?(max_vars = 600) ?max_nodes machine (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let p = machine.Machine.p in
  let cost_before = Bsp_cost.total machine sched in
  let num_steps = Schedule.num_supersteps sched in
  if num_steps = 0 then (sched, no_op_report cost_before)
  else begin
    let proc = Array.copy sched.Schedule.proc in
    let step = Array.copy sched.Schedule.step in
    let pre = Array.make (num_steps + 1) 0 in
    count_steps pre step;
    let nodes_of_interval s1 s2 =
      let acc = ref [] in
      for v = Dag.n dag - 1 downto 0 do
        if step.(v) >= s1 && step.(v) <= s2 then acc := v :: !acc
      done;
      !acc
    in
    let bb_nodes = ref 0 and sub_solves = ref 0 in
    let all_optimal = ref true in
    (* Intervals from back to front. An applied sub-solve moves nodes, so
       the counts are taken again after it. *)
    let s2 = ref (num_steps - 1) in
    while !s2 >= 0 do
      let s1 = grow_interval pre ~p ~max_vars !s2 in
      if interval_solves pre ~p ~max_vars s1 !s2 then begin
        let v0 = nodes_of_interval s1 !s2 in
        let spec = { Ilp_interval.dag; machine; proc; step; v0; s_lo = s1; s_hi = !s2 } in
        let applied, outcome = solve_interval ?budget ?max_nodes machine dag ~proc ~step spec in
        if applied then count_steps pre step;
        incr sub_solves;
        bb_nodes := !bb_nodes + outcome.Branch_bound.nodes_explored;
        if not outcome.Branch_bound.proven_optimal then all_optimal := false
      end
      else if pre.(!s2 + 1) > pre.(s1) then all_optimal := false;
      s2 := s1 - 1
    done;
    let result = Schedule.compact (Schedule.of_assignment dag ~proc ~step) in
    let result = if Bsp_cost.total machine result < cost_before then result else sched in
    let cost_after = Bsp_cost.total machine result in
    ( result,
      {
        improved = cost_after < cost_before;
        cost_before;
        cost_after;
        bb_nodes = !bb_nodes;
        sub_solves = !sub_solves;
        proven_optimal = !all_optimal;
      } )
  end

let init ?budget ?(max_vars = 400) ?max_nodes machine dag =
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let proc = Array.make n (-1) in
  let step = Array.make n (-1) in
  let order = Dag.topological_order dag in
  let batch_size = max 1 (max_vars / (3 * p * p)) in
  let base = ref 0 in
  let idx = ref 0 in
  while !idx < n do
    let batch =
      List.init (min batch_size (n - !idx)) (fun i -> order.(!idx + i))
    in
    idx := !idx + List.length batch;
    let s_lo = !base and s_hi = !base + 2 in
    (* Once the budget is spent the solve could only return [None], so
       skip the O(n) model build and go straight to the fallback. *)
    let solution =
      if Option.fold ~none:false ~some:Budget.exhausted budget then None
      else begin
        let spec = { Ilp_interval.dag; machine; proc; step; v0 = batch; s_lo; s_hi } in
        let model, built = Ilp_interval.build spec in
        let outcome = Branch_bound.solve ?budget ?max_nodes model in
        Option.map (Ilp_interval.extract built) outcome.Branch_bound.solution
      end
    in
    (match solution with
     | Some updates ->
       List.iter
         (fun (v, q, s) ->
           proc.(v) <- q;
           step.(v) <- s)
         updates
     | None ->
       (* Fallback: the whole batch on one processor in one superstep is
          always feasible (cross-batch predecessors sit strictly
          earlier). *)
       List.iter
         (fun v ->
           proc.(v) <- 0;
           step.(v) <- s_lo)
         batch);
    let max_used =
      List.fold_left (fun acc v -> max acc step.(v)) !base batch
    in
    base := max_used + 1
  done;
  Schedule.compact (Schedule.of_assignment dag ~proc ~step)

let comm_schedule ?budget ?(max_vars = 1500) ?max_nodes machine (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let cost_before = Bsp_cost.total machine sched in
  let num_steps = Schedule.num_supersteps sched in
  let pairs = Array.of_list (Hccs.required_pairs machine sched) in
  (* Integer comparisons: a tuple key would allocate two pairs per
     comparison. *)
  Array.sort
    (fun (a : Hccs.pair) (b : Hccs.pair) ->
      if a.node <> b.node then Int.compare a.node b.node else Int.compare a.dst b.dst)
    pairs;
  if num_steps = 0 || Array.length pairs = 0 then (sched, no_op_report cost_before)
  else begin
    (* Shrink the model under the cap: trim every window to its last
       [w] phases with the largest [w] that fits, freezing pairs whose
       trimmed window is a single phase. *)
    let model_size w =
      Array.fold_left
        (fun acc (pr : Hccs.pair) -> acc + min w (pr.hi - pr.lo + 1))
        num_steps pairs
    in
    let w = ref num_steps in
    while !w > 1 && model_size !w > max_vars do
      decr w
    done;
    let window (pr : Hccs.pair) =
      let lo = max pr.lo (pr.hi - !w + 1) in
      (lo, pr.hi)
    in
    let model = Ilp.create () in
    let send_const = Array.make_matrix num_steps machine.Machine.p 0 in
    let recv_const = Array.make_matrix num_steps machine.Machine.p 0 in
    let choice = Hashtbl.create 256 in
    let movable_step = Array.make num_steps false in
    Array.iteri
      (fun i (pr : Hccs.pair) ->
        let lo, hi = window pr in
        if lo >= hi then begin
          (* Frozen: keep the current phase when it lies inside the
             trimmed window, otherwise normalise to the lazy phase so the
             model constants match the extracted schedule exactly. *)
          let s = if pr.cur >= lo then pr.cur else hi in
          pr.cur <- s;
          send_const.(s).(pr.src) <- send_const.(s).(pr.src) + pr.vol;
          recv_const.(s).(pr.dst) <- recv_const.(s).(pr.dst) + pr.vol
        end
        else begin
          let vars =
            List.init (hi - lo + 1) (fun k ->
                movable_step.(lo + k) <- true;
                (lo + k, Ilp.binary model (Printf.sprintf "x_%d_%d" i (lo + k))))
          in
          Hashtbl.add choice i vars;
          Ilp.add_eq model (List.map (fun (_, v) -> (v, 1.0)) vars) 1.0
        end)
      pairs;
    (* Supersteps no movable pair can use have a constant h-relation;
       only the movable ones get an H variable and rows, keeping the LP
       small even for schedules with many supersteps. *)
    let hvar = Hashtbl.create 16 in
    for s = 0 to num_steps - 1 do
      if movable_step.(s) then
        Hashtbl.add hvar s (Ilp.continuous model (Printf.sprintf "H_%d" s))
    done;
    Hashtbl.iter
      (fun s h ->
        for q = 0 to machine.Machine.p - 1 do
          let send_terms = ref [] and recv_terms = ref [] in
          Hashtbl.iter
            (fun i vars ->
              let pr = pairs.(i) in
              List.iter
                (fun (s', var) ->
                  if s' = s then begin
                    if pr.Hccs.src = q then
                      send_terms := (var, -.float_of_int pr.Hccs.vol) :: !send_terms;
                    if pr.Hccs.dst = q then
                      recv_terms := (var, -.float_of_int pr.Hccs.vol) :: !recv_terms
                  end)
                vars)
            choice;
          Ilp.add_ge model ((h, 1.0) :: !send_terms) (float_of_int send_const.(s).(q));
          Ilp.add_ge model ((h, 1.0) :: !recv_terms) (float_of_int recv_const.(s).(q))
        done)
      hvar;
    Ilp.set_objective model
      (Hashtbl.fold (fun _ h acc -> (h, float_of_int machine.Machine.g) :: acc) hvar []);
    (* Warm-start cutoff: the communication objective of the current
       choices, restricted to the supersteps the model prices. *)
    let cutoff =
      let send = Array.make_matrix num_steps machine.Machine.p 0 in
      let recv = Array.make_matrix num_steps machine.Machine.p 0 in
      Array.iter
        (fun (pr : Hccs.pair) ->
          send.(pr.cur).(pr.src) <- send.(pr.cur).(pr.src) + pr.vol;
          recv.(pr.cur).(pr.dst) <- recv.(pr.cur).(pr.dst) + pr.vol)
        pairs;
      let total = ref 0 in
      for s = 0 to num_steps - 1 do
        if movable_step.(s) then begin
          let h = ref 0 in
          for q = 0 to machine.Machine.p - 1 do
            if max send.(s).(q) recv.(s).(q) > !h then h := max send.(s).(q) recv.(s).(q)
          done;
          total := !total + (machine.Machine.g * !h)
        end
      done;
      float_of_int !total +. 1e-6
    in
    let outcome = Branch_bound.solve ?budget ?max_nodes ~cutoff model in
    let result =
      match outcome.Branch_bound.solution with
      | None -> sched
      | Some x ->
        Hashtbl.iter
          (fun i vars ->
            List.iter
              (fun (s, var) -> if x.(var) > 0.5 then pairs.(i).Hccs.cur <- s)
              vars)
          choice;
        let comm =
          Array.to_list pairs
          |> List.map (fun (pr : Hccs.pair) ->
                 { Schedule.node = pr.node; src = pr.src; dst = pr.dst; step = pr.cur })
        in
        let candidate =
          Schedule.make dag ~proc:sched.Schedule.proc ~step:sched.Schedule.step ~comm
        in
        if Bsp_cost.total machine candidate < cost_before then candidate else sched
    in
    let cost_after = Bsp_cost.total machine result in
    ( result,
      {
        improved = cost_after < cost_before;
        cost_before;
        cost_after;
        bb_nodes = outcome.Branch_bound.nodes_explored;
        sub_solves = 1;
        proven_optimal = outcome.Branch_bound.proven_optimal;
      } )
  end
