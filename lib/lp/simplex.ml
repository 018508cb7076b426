type sense = Le | Ge | Eq

type lp = {
  mutable num_vars : int;
  mutable lb : float array;
  mutable ub : float array;
  mutable obj_len : int;
  mutable obj_col : int array;
  mutable obj_coef : float array;
  mutable num_rows : int;
  mutable row_start : int array;
  mutable row_col : int array;
  mutable row_coef : float array;
  mutable row_sense : sense array;
  mutable row_rhs : float array;
}

type result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

let eps = 1e-9
let feas_eps = 1e-7

(* Tableau layout: [m] constraint rows over columns
   [0 .. total_cols - 1] plus the right-hand side in column [total_cols].
   [basis.(i)] is the column basic in row [i]. The objective row is kept
   separately in [zrow] (reduced costs), with its value in
   [zrow.(total_cols)]. [nz] is the pivot's index buffer for the pivot
   row's nonzero columns. [artificial] flags the artificial columns,
   which phase 2 never lets enter. Every array can be longer than the
   solve's shape (a pooled workspace); only the solve's own prefix is
   read. *)
type tableau = {
  mutable m : int;
  mutable total_cols : int;
  mutable t : float array array;  (* m rows of total_cols + 1 entries *)
  mutable basis : int array;  (* m *)
  mutable artificial : bool array;  (* total_cols *)
  mutable zrow : float array;  (* total_cols + 1 *)
  mutable nz : int array;  (* total_cols + 1 *)
  mutable pivots : int;  (* this solve's, both phases *)
}

(* Normalise the pivot row and note its nonzero columns; every other
   row then changes only at those columns. Skipping a column where the
   pivot row is zero leaves [x] where the dense update computed
   [x -. f *. 0.0]: for finite entries the two differ at most in the
   sign of a zero, which no comparison sees. *)
let pivot tab ~row ~col =
  let piv = tab.t.(row).(col) in
  let r = tab.t.(row) in
  let nz = tab.nz in
  let k = ref 0 in
  for j = 0 to tab.total_cols do
    let v = r.(j) /. piv in
    r.(j) <- v;
    if v <> 0.0 then begin
      nz.(!k) <- j;
      incr k
    end
  done;
  let k = !k in
  for i = 0 to tab.m - 1 do
    if i <> row then begin
      let ri = tab.t.(i) in
      let f = ri.(col) in
      if Float.abs f > eps then begin
        for e = 0 to k - 1 do
          let j = nz.(e) in
          ri.(j) <- ri.(j) -. (f *. r.(j))
        done;
        ri.(col) <- 0.0
      end
    end
  done;
  let f = tab.zrow.(col) in
  if Float.abs f > eps then begin
    for e = 0 to k - 1 do
      let j = nz.(e) in
      if j < tab.total_cols then tab.zrow.(j) <- tab.zrow.(j) -. (f *. r.(j))
    done;
    tab.zrow.(tab.total_cols) <- tab.zrow.(tab.total_cols) -. (f *. r.(tab.total_cols));
    tab.zrow.(col) <- 0.0
  end;
  tab.basis.(row) <- col

(* One simplex phase on the current zrow; [no_artificial] keeps the
   artificial columns from entering (phase 2). Returns [`Opt],
   [`Unbounded] or [`Limit]. *)
let run_phase tab ~no_artificial ~max_pivots =
  let status = ref `Run in
  let degenerate_run = ref 0 in
  while !status = `Run do
    if tab.pivots >= max_pivots then status := `Limit
    else begin
      (* Entering column: Dantzig rule (most negative reduced cost),
         Bland (first negative) after a degenerate streak. *)
      let bland = !degenerate_run > 2 * (tab.m + tab.total_cols) in
      let enter = ref (-1) in
      let best = ref (-.eps) in
      (try
         for j = 0 to tab.total_cols - 1 do
           if tab.zrow.(j) < -.eps && not (no_artificial && tab.artificial.(j)) then
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
          tab.pivots <- tab.pivots + 1
        end
      end
    end
  done;
  (!status :> [ `Opt | `Unbounded | `Limit | `Run ])

(* Tableau rows and the per-solve arrays come from a per-domain pool:
   ILPinit's branch-and-bound solves hundreds of LPs of similar shape,
   and a fresh dense tableau per solve was most of the words it
   allocated. The pool keeps one rectangle of rows, grown to the union
   of the shapes it has served while that stays within [pool_cap]
   floats; a solve that needs more allocates its own workspace, as
   every solve once did. Domain-local, so parallel solves never share
   rows; a solve never re-enters itself. *)
let pool_cap = 1 lsl 18

let fresh m total_cols =
  {
    m;
    total_cols;
    t = Array.make_matrix m (total_cols + 1) 0.0;
    basis = Array.make m (-1);
    artificial = Array.make total_cols false;
    zrow = Array.make (total_cols + 1) 0.0;
    nz = Array.make (total_cols + 1) 0;
    pivots = 0;
  }

let pool_key : tableau Domain.DLS.key = Domain.DLS.new_key (fun () -> fresh 0 0)

(* A workspace for [m] rows over [total_cols] columns: the first
   [total_cols + 1] entries of each of the [m] rows, of [zrow] and the
   first [total_cols] of [artificial] are cleared. *)
let workspace m total_cols =
  let width = total_cols + 1 in
  let tab =
    if m * width > pool_cap then fresh m total_cols
    else begin
      let w = Domain.DLS.get pool_key in
      let have = Array.length w.t in
      let have_width = if have = 0 then 0 else Array.length w.t.(0) in
      if have < m || have_width < width then begin
        let rows = max m have and cols = max width have_width in
        let rows, cols = if rows * cols > pool_cap then (m, width) else (rows, cols) in
        w.t <- Array.make_matrix rows cols 0.0;
        w.basis <- Array.make rows (-1);
        w.artificial <- Array.make (cols - 1) false;
        w.zrow <- Array.make cols 0.0;
        w.nz <- Array.make cols 0
      end;
      w
    end
  in
  tab.m <- m;
  tab.total_cols <- total_cols;
  tab.pivots <- 0;
  for i = 0 to m - 1 do
    Array.fill tab.t.(i) 0 width 0.0
  done;
  Array.fill tab.artificial 0 total_cols false;
  Array.fill tab.zrow 0 width 0.0;
  tab

(* Put row [i]'s slack/surplus/artificial columns from [next_col] on
   (its coefficients and right-hand side already in, negated when
   [flip]); returns the next free column. A flipped row trades Le for
   Ge. *)
let place_row tab i sense ~flip next_col =
  let ti = tab.t.(i) in
  let sense = if not flip then sense else match sense with Le -> Ge | Ge -> Le | Eq -> Eq in
  match sense with
  | Le ->
    ti.(next_col) <- 1.0;
    tab.basis.(i) <- next_col;
    next_col + 1
  | Ge ->
    ti.(next_col) <- -1.0;
    let a = next_col + 1 in
    ti.(a) <- 1.0;
    tab.artificial.(a) <- true;
    tab.basis.(i) <- a;
    next_col + 2
  | Eq ->
    ti.(next_col) <- 1.0;
    tab.artificial.(next_col) <- true;
    tab.basis.(i) <- next_col;
    next_col + 1

(* Columns [place_row] gives a row. *)
let columns_of sense ~flip =
  match sense with Le -> if flip then 2 else 1 | Ge -> if flip then 1 else 2 | Eq -> 1

(* Load the real objective, price out the basic columns and run phase
   2; [x] is read off the final basis. *)
let phase2 tab lp ~x ~max_pivots =
  let tc = tab.total_cols and z = tab.zrow and lb = lp.lb in
  Array.fill z 0 (tc + 1) 0.0;
  for e = 0 to lp.obj_len - 1 do
    let j = lp.obj_col.(e) in
    z.(j) <- z.(j) +. lp.obj_coef.(e)
  done;
  (* Objective constant from the lb shift: c . lb. *)
  let shift_const = ref 0.0 in
  for e = 0 to lp.obj_len - 1 do
    shift_const := !shift_const +. (lp.obj_coef.(e) *. lb.(lp.obj_col.(e)))
  done;
  for i = 0 to tab.m - 1 do
    let b = tab.basis.(i) in
    let cb = if b < tc then z.(b) else 0.0 in
    if Float.abs cb > eps then begin
      let ti = tab.t.(i) in
      for j = 0 to tc - 1 do
        z.(j) <- z.(j) -. (cb *. ti.(j))
      done;
      z.(tc) <- z.(tc) -. (cb *. ti.(tc));
      z.(b) <- 0.0
    end
  done;
  match run_phase tab ~no_artificial:true ~max_pivots with
  | `Unbounded -> Unbounded
  | `Limit -> Iteration_limit
  | `Opt | `Run ->
    let n = lp.num_vars in
    Array.blit lb 0 x 0 n;
    for i = 0 to tab.m - 1 do
      let b = tab.basis.(i) in
      if b < n then x.(b) <- lb.(b) +. tab.t.(i).(tc)
    done;
    (* zrow.(tc) tracks -(objective of the shifted problem). *)
    Optimal { obj = -.z.(tc) +. !shift_const; x }

(* Phase 1 minimises the sum of artificials: price the unit costs on
   artificials through the initial basis (subtract every
   artificial-basic row), run, and drive the artificials left in the
   basis out where possible. [None] when phase 2 may start. *)
let phase1 tab ~max_pivots =
  let tc = tab.total_cols and z = tab.zrow and artificial = tab.artificial in
  for i = 0 to tab.m - 1 do
    if artificial.(tab.basis.(i)) then begin
      let ti = tab.t.(i) in
      for j = 0 to tc - 1 do
        z.(j) <- z.(j) -. ti.(j)
      done;
      z.(tc) <- z.(tc) -. ti.(tc)
    end
  done;
  (* Artificial columns themselves cost 1. *)
  for j = 0 to tc - 1 do
    if artificial.(j) then z.(j) <- z.(j) +. 1.0
  done;
  match run_phase tab ~no_artificial:false ~max_pivots with
  | `Unbounded -> Some Infeasible (* phase-1 objective is bounded below by 0 *)
  | `Limit -> Some Iteration_limit
  | `Opt | `Run ->
    if -.z.(tc) > feas_eps then Some Infeasible
    else begin
      (* A row with only artificial support is redundant and harmless:
         its artificial stays basic at value ~0 and phase 2 never
         selects artificial columns. *)
      for i = 0 to tab.m - 1 do
        if artificial.(tab.basis.(i)) then begin
          let ti = tab.t.(i) in
          let col = ref (-1) in
          for j = 0 to tc - 1 do
            if !col < 0 && (not artificial.(j)) && Float.abs ti.(j) > feas_eps then col := j
          done;
          if !col >= 0 then pivot tab ~row:i ~col:!col
        end
      done;
      None
    end

let minimize_into ?max_pivots lp x =
  let n = lp.num_vars and lb = lp.lb and ub = lp.ub in
  if Array.length x < n then invalid_arg "Simplex.minimize_into: short solution array";
  for j = 0 to n - 1 do
    if not (Float.is_finite lb.(j)) then
      invalid_arg "Simplex.minimize: lower bounds must be finite";
    if lb.(j) > ub.(j) +. eps then invalid_arg "Simplex.minimize: lb > ub"
  done;
  (* Shift x = lb + y with y >= 0, so row i's right-hand side becomes
     rhs.(i) - sum a * lb (written out twice below: a float-returning
     helper would box its result); finite upper bounds become rows after
     the model's, in ascending variable order. Column layout: y
     variables, then the slack/surplus/artificial columns row by row;
     the first pass counts them. *)
  let rows = lp.num_rows in
  let m = ref rows and total_cols = ref n in
  for i = 0 to rows - 1 do
    let b = ref lp.row_rhs.(i) in
    for e = lp.row_start.(i) to lp.row_start.(i + 1) - 1 do
      b := !b -. (lp.row_coef.(e) *. lb.(lp.row_col.(e)))
    done;
    total_cols := !total_cols + columns_of lp.row_sense.(i) ~flip:(!b < 0.0)
  done;
  for j = 0 to n - 1 do
    if Float.is_finite ub.(j) then begin
      incr m;
      total_cols := !total_cols + columns_of Le ~flip:(ub.(j) -. lb.(j) < 0.0)
    end
  done;
  let m = !m and total_cols = !total_cols in
  let tab = workspace m total_cols in
  let next_col = ref n in
  for i = 0 to rows - 1 do
    let b = ref lp.row_rhs.(i) in
    for e = lp.row_start.(i) to lp.row_start.(i + 1) - 1 do
      b := !b -. (lp.row_coef.(e) *. lb.(lp.row_col.(e)))
    done;
    let flip = !b < 0.0 in
    let sign = if flip then -1.0 else 1.0 in
    let ti = tab.t.(i) in
    for e = lp.row_start.(i) to lp.row_start.(i + 1) - 1 do
      let j = lp.row_col.(e) in
      ti.(j) <- ti.(j) +. (sign *. lp.row_coef.(e))
    done;
    ti.(total_cols) <- sign *. !b;
    next_col := place_row tab i lp.row_sense.(i) ~flip !next_col
  done;
  let i = ref rows in
  for j = 0 to n - 1 do
    if Float.is_finite ub.(j) then begin
      let b = ub.(j) -. lb.(j) in
      let flip = b < 0.0 in
      let sign = if flip then -1.0 else 1.0 in
      let ti = tab.t.(!i) in
      ti.(j) <- ti.(j) +. (sign *. 1.0);
      ti.(total_cols) <- sign *. b;
      next_col := place_row tab !i Le ~flip !next_col;
      incr i
    end
  done;
  let max_pivots =
    match max_pivots with Some k -> k | None -> 200 * (m + total_cols) + 2000
  in
  let has_artificial = ref false in
  for j = 0 to total_cols - 1 do
    if tab.artificial.(j) then has_artificial := true
  done;
  let result =
    if not !has_artificial then phase2 tab lp ~x ~max_pivots
    else match phase1 tab ~max_pivots with Some r -> r | None -> phase2 tab lp ~x ~max_pivots
  in
  Obs.Metrics.counter "lp.solves" 1;
  Obs.Metrics.counter "lp.pivots" tab.pivots;
  result

let minimize ?max_pivots lp = minimize_into ?max_pivots lp (Array.make lp.num_vars 0.0)
