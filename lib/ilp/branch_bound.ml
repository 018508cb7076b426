type outcome = {
  solution : float array option;
  objective : float;
  proven_optimal : bool;
  nodes_explored : int;
  lp_failures : int;
}

let int_tol = 1e-6

let solve ?(budget = Budget.unlimited ()) ?(cutoff = infinity) ?(max_nodes = 20000)
    ?(max_pivots = 1200) model =
  let nbin_vars =
    let acc = ref [] in
    for v = Ilp.num_vars model - 1 downto 0 do
      if Ilp.is_binary model v then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  let incumbent = ref None in
  let incumbent_obj = ref cutoff in
  let nodes = ref 0 in
  let lp_failures = ref 0 in
  let incumbent_updates = ref 0 in
  let complete = ref true in
  let rec explore fix =
    if !nodes >= max_nodes || Budget.exhausted budget then complete := false
    else begin
      incr nodes;
      ignore (Budget.tick budget : bool);
      match Ilp.lp_relaxation ~max_pivots ~fix model with
      | Ilp.Infeasible -> ()
      | Ilp.Unbounded ->
        (* A bounded-cost scheduling model is never unbounded; treat as a
           node we cannot reason about. *)
        complete := false
      | Ilp.Iteration_limit ->
        (* No bound available. Branching blindly here would explore an
           unbounded subtree whose every node repeats the expensive
           failing LP, so give the subtree up instead; the result is
           simply not proven optimal (the same contract as CBC hitting
           its limits). *)
        incr lp_failures;
        complete := false
      | Ilp.Optimal obj ->
        if obj >= !incumbent_obj -. 1e-9 then ()
        else begin
          (* Most fractional unfixed binary, read from the relaxation's
             scratch; the solution is copied out only for an incumbent,
             before the next relaxation overwrites it. *)
          let branch_var = ref (-1) in
          let best_frac = ref int_tol in
          for k = 0 to Array.length nbin_vars - 1 do
            let v = nbin_vars.(k) in
            let xv = Ilp.relaxation_value model v in
            let f = Float.abs (xv -. Float.round xv) in
            if f > !best_frac then begin
              best_frac := f;
              branch_var := v
            end
          done;
          if !branch_var < 0 then begin
            (* Integral: record incumbent with binaries snapped exactly. *)
            let sol = Array.init (Ilp.num_vars model) (Ilp.relaxation_value model) in
            Array.iter (fun v -> sol.(v) <- Float.round sol.(v)) nbin_vars;
            incumbent := Some sol;
            incumbent_obj := obj;
            incr incumbent_updates
          end
          else begin
            let v = !branch_var in
            let first = Float.round (Ilp.relaxation_value model v) in
            explore ((v, first) :: fix);
            explore ((v, 1.0 -. first) :: fix)
          end
        end
    end
  in
  explore [];
  Obs.Metrics.counter "bb.solves" 1;
  Obs.Metrics.counter "bb.nodes_explored" !nodes;
  Obs.Metrics.counter "bb.lp_failures" !lp_failures;
  Obs.Metrics.counter "bb.incumbent_updates" !incumbent_updates;
  {
    solution = !incumbent;
    objective = !incumbent_obj;
    proven_optimal = !complete;
    nodes_explored = !nodes;
    lp_failures = !lp_failures;
  }

let solve_exhaustive model =
  let nbin_vars =
    let acc = ref [] in
    for v = Ilp.num_vars model - 1 downto 0 do
      if Ilp.is_binary model v then acc := v :: !acc
    done;
    Array.of_list !acc
  in
  let k = Array.length nbin_vars in
  if k > 24 then invalid_arg "Branch_bound.solve_exhaustive: too many binaries";
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let nodes = ref 0 in
  for mask = 0 to (1 lsl k) - 1 do
    incr nodes;
    let fix =
      List.init k (fun i ->
          (nbin_vars.(i), if mask land (1 lsl i) <> 0 then 1.0 else 0.0))
    in
    match Ilp.lp_relaxation ~fix model with
    | Ilp.Optimal obj when obj < !incumbent_obj -. 1e-9 ->
      let sol = Array.init (Ilp.num_vars model) (Ilp.relaxation_value model) in
      List.iter (fun (v, value) -> sol.(v) <- value) fix;
      incumbent := Some sol;
      incumbent_obj := obj
    | _ -> ()
  done;
  {
    solution = !incumbent;
    objective = !incumbent_obj;
    proven_optimal = true;
    nodes_explored = !nodes;
    lp_failures = 0;
  }
