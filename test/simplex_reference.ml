(* The dense two-phase simplex of the first implementation, kept as the
   oracle for the differential properties in test_lp.ml: it takes the LP
   as lists of (variable, coefficient) terms and its [pivot] updates
   every column of every row. Simplex.minimize, which reads a flat LP
   and updates only the pivot row's nonzero columns on pooled rows, must
   reproduce its status, objective, solution and pivot count exactly.
   [lp_relaxation] below is the list-based Ilp.lp_relaxation of the same
   implementation, the oracle for the flat, pooled one. *)

type sense = Simplex.sense = Le | Ge | Eq

type result = Simplex.result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

let eps = 1e-9
let feas_eps = 1e-7

(* Tableau layout: [m] constraint rows over columns
   [0 .. total_cols - 1] plus the right-hand side in column [total_cols].
   [basis.(i)] is the column basic in row [i]. The objective row is kept
   separately in [zrow] (reduced costs) with its value in [zval]. *)
type tableau = {
  m : int;
  total_cols : int;
  t : float array array;  (* m rows, total_cols + 1 entries each *)
  basis : int array;
  zrow : float array;
  mutable zval : float;
}

let pivot tab ~row ~col =
  let piv = tab.t.(row).(col) in
  let r = tab.t.(row) in
  for j = 0 to tab.total_cols do
    r.(j) <- r.(j) /. piv
  done;
  for i = 0 to tab.m - 1 do
    if i <> row then begin
      let f = tab.t.(i).(col) in
      if Float.abs f > eps then begin
        let ri = tab.t.(i) in
        for j = 0 to tab.total_cols do
          ri.(j) <- ri.(j) -. (f *. r.(j))
        done;
        ri.(col) <- 0.0
      end
    end
  done;
  let f = tab.zrow.(col) in
  if Float.abs f > eps then begin
    for j = 0 to tab.total_cols - 1 do
      tab.zrow.(j) <- tab.zrow.(j) -. (f *. r.(j))
    done;
    tab.zval <- tab.zval -. (f *. r.(tab.total_cols));
    tab.zrow.(col) <- 0.0
  end;
  tab.basis.(row) <- col

(* One simplex phase on the current zrow; [allowed col] filters entering
   candidates (used to keep artificials out in phase 2). Returns [`Opt],
   [`Unbounded] or [`Limit]. *)
let run_phase tab ~allowed ~max_pivots pivots =
  let status = ref `Run in
  let degenerate_run = ref 0 in
  while !status = `Run do
    if !pivots >= max_pivots then status := `Limit
    else begin
      (* Entering column: Dantzig rule (most negative reduced cost),
         Bland (first negative) after a degenerate streak. *)
      let bland = !degenerate_run > 2 * (tab.m + tab.total_cols) in
      let enter = ref (-1) in
      let best = ref (-.eps) in
      (try
         for j = 0 to tab.total_cols - 1 do
           if allowed j && tab.zrow.(j) < -.eps then
             if bland then begin
               enter := j;
               raise Exit
             end
             else if tab.zrow.(j) < !best then begin
               best := tab.zrow.(j);
               enter := j
             end
         done
       with Exit -> ());
      if !enter < 0 then status := `Opt
      else begin
        let col = !enter in
        (* Ratio test; ties towards the smallest basis column index
           (lexicographic flavour that pairs well with Bland). *)
        let row = ref (-1) in
        let best_ratio = ref infinity in
        for i = 0 to tab.m - 1 do
          let a = tab.t.(i).(col) in
          if a > eps then begin
            let ratio = tab.t.(i).(tab.total_cols) /. a in
            if
              ratio < !best_ratio -. eps
              || (ratio < !best_ratio +. eps
                  && (!row < 0 || tab.basis.(i) < tab.basis.(!row)))
            then begin
              best_ratio := ratio;
              row := i
            end
          end
        done;
        if !row < 0 then status := `Unbounded
        else begin
          if !best_ratio < eps then incr degenerate_run else degenerate_run := 0;
          pivot tab ~row:!row ~col;
          incr pivots
        end
      end
    end
  done;
  (!status :> [ `Opt | `Unbounded | `Limit | `Run ])

let minimize ?max_pivots ~num_vars ~obj ~rows ~lb ~ub () =
  if Array.length lb <> num_vars || Array.length ub <> num_vars then
    invalid_arg "Simplex.minimize: bound array length mismatch";
  Array.iteri
    (fun j l ->
      if not (Float.is_finite l) then
        invalid_arg "Simplex.minimize: lower bounds must be finite";
      if l > ub.(j) +. eps then invalid_arg "Simplex.minimize: lb > ub")
    lb;
  (* Shift x = lb + y with y >= 0; finite upper bounds become rows. *)
  let ub_rows =
    let acc = ref [] in
    for j = num_vars - 1 downto 0 do
      if Float.is_finite ub.(j) then acc := ([ (j, 1.0) ], Le, ub.(j) -. lb.(j)) :: !acc
    done;
    !acc
  in
  let shift_row (coeffs, sense, b) =
    let b' =
      List.fold_left (fun acc (j, a) -> acc -. (a *. lb.(j))) b coeffs
    in
    (coeffs, sense, b')
  in
  let all_rows = Array.of_list (List.map shift_row (Array.to_list rows) @ ub_rows) in
  let m = Array.length all_rows in
  (* Column layout: y variables, then one slack/surplus or artificial
     per row as needed. First pass counts extra columns. *)
  let extra = ref 0 in
  let row_info =
    Array.map
      (fun (coeffs, sense, b) ->
        let flip = b < 0.0 in
        let sense =
          if not flip then sense
          else match sense with Le -> Ge | Ge -> Le | Eq -> Eq
        in
        let slots = match sense with Le -> 1 | Ge -> 2 | Eq -> 1 in
        extra := !extra + slots;
        (coeffs, sense, b, flip))
      all_rows
  in
  let total_cols = num_vars + !extra in
  let t = Array.make_matrix m (total_cols + 1) 0.0 in
  let basis = Array.make m (-1) in
  let artificial = Array.make total_cols false in
  let next_col = ref num_vars in
  Array.iteri
    (fun i (coeffs, sense, b, flip) ->
      let sign = if flip then -1.0 else 1.0 in
      List.iter (fun (j, a) -> t.(i).(j) <- t.(i).(j) +. (sign *. a)) coeffs;
      t.(i).(total_cols) <- sign *. b;
      (match sense with
       | Le ->
         let s = !next_col in
         incr next_col;
         t.(i).(s) <- 1.0;
         basis.(i) <- s
       | Ge ->
         let s = !next_col in
         incr next_col;
         t.(i).(s) <- -1.0;
         let a = !next_col in
         incr next_col;
         t.(i).(a) <- 1.0;
         artificial.(a) <- true;
         basis.(i) <- a
       | Eq ->
         let a = !next_col in
         incr next_col;
         t.(i).(a) <- 1.0;
         artificial.(a) <- true;
         basis.(i) <- a);
      ())
    row_info;
  let tab = { m; total_cols; t; basis; zrow = Array.make total_cols 0.0; zval = 0.0 } in
  let pivots = ref 0 in
  let max_pivots =
    match max_pivots with Some k -> k | None -> 200 * (m + total_cols) + 2000
  in
  (* Phase 1: minimise the sum of artificials. Reduced costs = price the
     unit costs on artificials through the initial basis, i.e. subtract
     every artificial-basic row. *)
  let has_artificial = Array.exists (fun b -> b) artificial in
  let phase2 () =
    (* Load the real objective and price out basic columns. *)
    Array.fill tab.zrow 0 total_cols 0.0;
    tab.zval <- 0.0;
    List.iter (fun (j, c) -> tab.zrow.(j) <- tab.zrow.(j) +. c) obj;
    (* Objective constant from the lb shift: c . lb. *)
    let shift_const = List.fold_left (fun acc (j, c) -> acc +. (c *. lb.(j))) 0.0 obj in
    for i = 0 to m - 1 do
      let b = tab.basis.(i) in
      let cb = if b < total_cols then tab.zrow.(b) else 0.0 in
      if Float.abs cb > eps then begin
        for j = 0 to total_cols - 1 do
          tab.zrow.(j) <- tab.zrow.(j) -. (cb *. tab.t.(i).(j))
        done;
        tab.zval <- tab.zval -. (cb *. tab.t.(i).(total_cols));
        tab.zrow.(b) <- 0.0
      end
    done;
    match run_phase tab ~allowed:(fun j -> not artificial.(j)) ~max_pivots pivots with
    | `Unbounded -> Unbounded
    | `Limit -> Iteration_limit
    | `Opt | `Run ->
      let x = Array.copy lb in
      for i = 0 to m - 1 do
        if tab.basis.(i) < num_vars then
          x.(tab.basis.(i)) <- lb.(tab.basis.(i)) +. tab.t.(i).(total_cols)
      done;
      (* zval tracks -(objective of the shifted problem). *)
      Optimal { obj = -.tab.zval +. shift_const; x }
  in
  let result =
    if not has_artificial then phase2 ()
    else begin
      for i = 0 to m - 1 do
        if artificial.(tab.basis.(i)) then begin
          for j = 0 to total_cols - 1 do
            tab.zrow.(j) <- tab.zrow.(j) -. tab.t.(i).(j)
          done;
          tab.zval <- tab.zval -. tab.t.(i).(total_cols)
        end
      done;
      (* Artificial columns themselves cost 1. *)
      Array.iteri
        (fun j is_a -> if is_a then tab.zrow.(j) <- tab.zrow.(j) +. 1.0)
        artificial;
      match run_phase tab ~allowed:(fun _ -> true) ~max_pivots pivots with
      | `Unbounded -> Infeasible (* phase-1 objective is bounded below by 0 *)
      | `Limit -> Iteration_limit
      | `Opt | `Run ->
        if -.tab.zval > feas_eps then Infeasible
        else begin
          (* Drive remaining artificials out of the basis where possible;
             a row with only artificial support is redundant and harmless
             (its artificial stays basic at value ~0 and phase 2 never
             selects artificial columns). *)
          for i = 0 to m - 1 do
            if artificial.(tab.basis.(i)) then begin
              let col = ref (-1) in
              for j = 0 to total_cols - 1 do
                if !col < 0 && (not artificial.(j)) && Float.abs tab.t.(i).(j) > feas_eps
                then col := j
              done;
              if !col >= 0 then pivot tab ~row:i ~col:!col
            end
          done;
          phase2 ()
        end
    end
  in
  Obs.Metrics.counter "lp.solves" 1;
  Obs.Metrics.counter "lp.pivots" !pivots;
  result

(* The flat LP of a list-form one, for calling Simplex.minimize on the
   inputs of the list-form [minimize]. *)
let flat ~num_vars ~obj ~rows ~lb ~ub =
  let rows = Array.to_list rows in
  let terms = List.concat_map (fun (coeffs, _, _) -> coeffs) rows in
  let row_start = Array.make (List.length rows + 1) 0 in
  List.iteri
    (fun i (coeffs, _, _) -> row_start.(i + 1) <- row_start.(i) + List.length coeffs)
    rows;
  {
    Simplex.num_vars;
    lb;
    ub;
    obj_len = List.length obj;
    obj_col = Array.of_list (List.map fst obj);
    obj_coef = Array.of_list (List.map snd obj);
    num_rows = List.length rows;
    row_start;
    row_col = Array.of_list (List.map fst terms);
    row_coef = Array.of_list (List.map snd terms);
    row_sense = Array.of_list (List.map (fun (_, sense, _) -> sense) rows);
    row_rhs = Array.of_list (List.map (fun (_, _, b) -> b) rows);
  }

(* The LP relaxation of a model given as its variables' bounds, its rows
   in insertion order and its objective, with the variables in [fix]
   fixed: fixed variables are eliminated into the right-hand sides and
   the objective constant, and rows left without terms are checked and
   dropped, before the list-form [minimize] runs. *)
let lp_relaxation ?max_pivots ?(fix = []) ~bounds ~rows ~obj () =
  let nvars = Array.length bounds in
  let lb = Array.map fst bounds in
  let ub = Array.map snd bounds in
  List.iter
    (fun (v, value) ->
      lb.(v) <- value;
      ub.(v) <- value)
    fix;
  let fixed = Array.init nvars (fun j -> lb.(j) = ub.(j)) in
  let dense = Array.make nvars (-1) in
  let free_count = ref 0 in
  for j = 0 to nvars - 1 do
    if not fixed.(j) then begin
      dense.(j) <- !free_count;
      incr free_count
    end
  done;
  let reduce coeffs =
    let const = ref 0.0 in
    let terms =
      List.filter_map
        (fun (v, c) ->
          if fixed.(v) then begin
            const := !const +. (c *. lb.(v));
            None
          end
          else Some (dense.(v), c))
        coeffs
    in
    (terms, !const)
  in
  let rows =
    Array.of_list
      (List.map
         (fun (coeffs, sense, b) ->
           let terms, const = reduce coeffs in
           (terms, sense, b -. const))
         rows)
  in
  let tol = 1e-7 in
  let infeasible_constant =
    Array.exists
      (fun (terms, sense, b) ->
        terms = []
        &&
        match sense with
        | Le -> b < -.tol
        | Ge -> b > tol
        | Eq -> Float.abs b > tol)
      rows
  in
  if infeasible_constant then Infeasible
  else begin
    let rows = Array.of_list (List.filter (fun (terms, _, _) -> terms <> []) (Array.to_list rows)) in
    let obj_terms, obj_const = reduce obj in
    let lb' = Array.make !free_count 0.0 and ub' = Array.make !free_count infinity in
    for j = 0 to nvars - 1 do
      if not fixed.(j) then begin
        lb'.(dense.(j)) <- lb.(j);
        ub'.(dense.(j)) <- ub.(j)
      end
    done;
    match minimize ?max_pivots ~num_vars:!free_count ~obj:obj_terms ~rows ~lb:lb' ~ub:ub' () with
    | Optimal { obj; x } ->
      let full = Array.copy lb in
      for j = 0 to nvars - 1 do
        if not fixed.(j) then full.(j) <- x.(dense.(j))
      done;
      Optimal { obj = obj +. obj_const; x = full }
    | other -> other
  end
