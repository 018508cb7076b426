type var = int

(* The model is kept as the flat LP it relaxes to: every row is appended
   to the CSR arrays of [lp] as it is added, the objective likewise, and
   [lp.lb]/[lp.ub] hold the variables' own bounds. Every array grows by
   doubling; only the prefixes the counts name are meaningful. *)
(* Scratch for [lp_relaxation]: the bounds after fixing ([lb]/[ub]), the
   dense index of every free variable ([dense], -1 for a fixed one), the
   reduced LP handed to the simplex and its solution [x]. Per domain and
   pooled like the simplex tableau (see [scratch_for] below). *)
type scratch = {
  mutable lb : float array;
  mutable ub : float array;
  mutable dense : int array;
  mutable x : float array;
  reduced : Simplex.lp;
}

(* [last] is the scratch of the model's latest relaxation, which
   [relaxation_value] reads. *)
type t = {
  lp : Simplex.lp;
  mutable names : string array;
  mutable binary : bool array;
  mutable nbin : int;
  mutable last : scratch;
}

let empty_lp () =
  {
    Simplex.num_vars = 0;
    lb = [||];
    ub = [||];
    obj_len = 0;
    obj_col = [||];
    obj_coef = [||];
    num_rows = 0;
    row_start = [| 0 |];
    row_col = [||];
    row_coef = [||];
    row_sense = [||];
    row_rhs = [||];
  }

let fresh_scratch () = { lb = [||]; ub = [||]; dense = [||]; x = [||]; reduced = empty_lp () }

let create () =
  { lp = empty_lp (); names = [||]; binary = [||]; nbin = 0; last = fresh_scratch () }

(* [a] with room for [need] entries, its contents kept; [fill] is any
   value of the element type (it decides the float representation). *)
let grow a need fill =
  let have = Array.length a in
  if need <= have then a
  else begin
    let b = Array.make (max need (max 16 (2 * have))) fill in
    Array.blit a 0 b 0 have;
    b
  end

let add_var t name binary lb ub =
  let lp = t.lp in
  let id = lp.num_vars in
  lp.lb <- grow lp.lb (id + 1) 0.0;
  lp.ub <- grow lp.ub (id + 1) 0.0;
  t.names <- grow t.names (id + 1) "";
  t.binary <- grow t.binary (id + 1) false;
  lp.lb.(id) <- lb;
  lp.ub.(id) <- ub;
  t.names.(id) <- name;
  t.binary.(id) <- binary;
  lp.num_vars <- id + 1;
  if binary then t.nbin <- t.nbin + 1;
  id

let binary t name = add_var t name true 0.0 1.0

let continuous t ?(lb = 0.0) ?(ub = infinity) name =
  if not (Float.is_finite lb) then invalid_arg "Ilp.continuous: lb must be finite";
  add_var t name false lb ub

let num_vars t = t.lp.num_vars
let num_binaries t = t.nbin

let is_binary t v =
  if v < 0 || v >= t.lp.num_vars then invalid_arg "Ilp.is_binary: variable out of range";
  t.binary.(v)

let check_row t coeffs =
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= t.lp.num_vars then invalid_arg "Ilp: variable out of range")
    coeffs

let add_row t coeffs sense b =
  check_row t coeffs;
  let lp = t.lp in
  let r = lp.num_rows in
  let start = lp.row_start.(r) in
  let stop = start + List.length coeffs in
  lp.row_col <- grow lp.row_col stop 0;
  lp.row_coef <- grow lp.row_coef stop 0.0;
  List.iteri
    (fun k (v, c) ->
      lp.row_col.(start + k) <- v;
      lp.row_coef.(start + k) <- c)
    coeffs;
  lp.row_sense <- grow lp.row_sense (r + 1) Simplex.Le;
  lp.row_rhs <- grow lp.row_rhs (r + 1) 0.0;
  lp.row_start <- grow lp.row_start (r + 2) 0;
  lp.row_sense.(r) <- sense;
  lp.row_rhs.(r) <- b;
  lp.row_start.(r + 1) <- stop;
  lp.num_rows <- r + 1

let add_le t coeffs b = add_row t coeffs Simplex.Le b
let add_ge t coeffs b = add_row t coeffs Simplex.Ge b
let add_eq t coeffs b = add_row t coeffs Simplex.Eq b

let set_objective t coeffs =
  check_row t coeffs;
  let lp = t.lp in
  let len = List.length coeffs in
  lp.obj_col <- grow lp.obj_col len 0;
  lp.obj_coef <- grow lp.obj_coef len 0.0;
  List.iteri
    (fun k (v, c) ->
      lp.obj_col.(k) <- v;
      lp.obj_coef.(k) <- c)
    coeffs;
  lp.obj_len <- len

let constraints_satisfied ?(tol = 1e-6) t x =
  let lp = t.lp in
  let ok = ref true in
  for j = 0 to lp.num_vars - 1 do
    if not (x.(j) >= lp.lb.(j) -. tol && x.(j) <= lp.ub.(j) +. tol) then ok := false
  done;
  for i = 0 to lp.num_rows - 1 do
    let lhs = ref 0.0 in
    for e = lp.row_start.(i) to lp.row_start.(i + 1) - 1 do
      lhs := !lhs +. (lp.row_coef.(e) *. x.(lp.row_col.(e)))
    done;
    let b = lp.row_rhs.(i) in
    let holds =
      match lp.row_sense.(i) with
      | Simplex.Le -> !lhs <= b +. tol
      | Simplex.Ge -> !lhs >= b -. tol
      | Simplex.Eq -> Float.abs (!lhs -. b) <= tol
    in
    if not holds then ok := false
  done;
  !ok

(* The per-domain scratch grows to the union of the models served
   while that stays within [pool_cap] words; a model past it gets
   scratch of its own. *)
let pool_cap = 1 lsl 18

let scratch_key : scratch Domain.DLS.key = Domain.DLS.new_key fresh_scratch

(* Give every scratch dimension exactly these lengths. *)
let resize s ~vars ~rows ~nnz ~obj =
  let r = s.reduced in
  if Array.length s.lb <> vars then begin
    s.lb <- Array.make vars 0.0;
    s.ub <- Array.make vars 0.0;
    s.dense <- Array.make vars 0;
    s.x <- Array.make vars 0.0;
    r.lb <- Array.make vars 0.0;
    r.ub <- Array.make vars 0.0
  end;
  if Array.length r.row_rhs <> rows then begin
    r.row_rhs <- Array.make rows 0.0;
    r.row_sense <- Array.make rows Simplex.Le;
    r.row_start <- Array.make (rows + 1) 0
  end;
  if Array.length r.row_col <> nnz then begin
    r.row_col <- Array.make nnz 0;
    r.row_coef <- Array.make nnz 0.0
  end;
  if Array.length r.obj_col <> obj then begin
    r.obj_col <- Array.make obj 0;
    r.obj_coef <- Array.make obj 0.0
  end

let words ~vars ~rows ~nnz ~obj = (6 * vars) + (3 * rows) + 1 + (2 * nnz) + (2 * obj)

let scratch_for t =
  let lp = t.lp in
  let vars = lp.num_vars and rows = lp.num_rows in
  let nnz = lp.row_start.(rows) and obj = lp.obj_len in
  if words ~vars ~rows ~nnz ~obj > pool_cap then begin
    let s = fresh_scratch () in
    resize s ~vars ~rows ~nnz ~obj;
    s
  end
  else begin
    let s = Domain.DLS.get scratch_key in
    let r = s.reduced in
    let vars' = max vars (Array.length s.lb) and rows' = max rows (Array.length r.row_rhs) in
    let nnz' = max nnz (Array.length r.row_col) and obj' = max obj (Array.length r.obj_col) in
    if words ~vars:vars' ~rows:rows' ~nnz:nnz' ~obj:obj' <= pool_cap then
      resize s ~vars:vars' ~rows:rows' ~nnz:nnz' ~obj:obj'
    else resize s ~vars ~rows ~nnz ~obj;
    s
  end

(* Clamp both bounds of each fixed variable, in list order (a repeated
   variable takes its last value). *)
let rec apply_fix n lb ub = function
  | [] -> ()
  | (v, value) :: rest ->
    if v < 0 || v >= n then invalid_arg "Ilp.lp_relaxation: variable out of range";
    lb.(v) <- value;
    ub.(v) <- value;
    apply_fix n lb ub rest

type relaxation = Optimal of float | Infeasible | Unbounded | Iteration_limit

let lp_relaxation ?max_pivots ?(fix = []) t =
  let m = t.lp in
  let n = m.num_vars in
  let s = scratch_for t in
  t.last <- s;
  let lb = s.lb and ub = s.ub and dense = s.dense and r = s.reduced in
  Array.blit m.lb 0 lb 0 n;
  Array.blit m.ub 0 ub 0 n;
  apply_fix n lb ub fix;
  (* Eliminate fixed variables before handing the LP to the simplex:
     their contribution moves into the right-hand sides and the objective
     constant. Deep branch-and-bound nodes fix many binaries, so this
     shrinks their LPs substantially. *)
  let free = ref 0 in
  for j = 0 to n - 1 do
    if lb.(j) = ub.(j) then dense.(j) <- -1
    else begin
      dense.(j) <- !free;
      r.lb.(!free) <- lb.(j);
      r.ub.(!free) <- ub.(j);
      incr free
    end
  done;
  r.num_vars <- !free;
  (* Rows keep their order and their terms' order; a row left without
     free terms is dropped once its constant is known to hold. *)
  let tol = 1e-7 in
  let infeasible = ref false in
  let rows = ref 0 and k = ref 0 in
  r.row_start.(0) <- 0;
  for i = 0 to m.num_rows - 1 do
    let const = ref 0.0 in
    let start = !k in
    for e = m.row_start.(i) to m.row_start.(i + 1) - 1 do
      let v = m.row_col.(e) in
      let d = dense.(v) in
      if d < 0 then const := !const +. (m.row_coef.(e) *. lb.(v))
      else begin
        r.row_col.(!k) <- d;
        r.row_coef.(!k) <- m.row_coef.(e);
        incr k
      end
    done;
    let b = m.row_rhs.(i) -. !const in
    if !k = start then begin
      if
        match m.row_sense.(i) with
        | Simplex.Le -> b < -.tol
        | Simplex.Ge -> b > tol
        | Simplex.Eq -> Float.abs b > tol
      then infeasible := true
    end
    else begin
      r.row_sense.(!rows) <- m.row_sense.(i);
      r.row_rhs.(!rows) <- b;
      incr rows;
      r.row_start.(!rows) <- !k
    end
  done;
  r.num_rows <- !rows;
  if !infeasible then Infeasible
  else begin
    let obj_const = ref 0.0 and k = ref 0 in
    for e = 0 to m.obj_len - 1 do
      let v = m.obj_col.(e) in
      let d = dense.(v) in
      if d < 0 then obj_const := !obj_const +. (m.obj_coef.(e) *. lb.(v))
      else begin
        r.obj_col.(!k) <- d;
        r.obj_coef.(!k) <- m.obj_coef.(e);
        incr k
      end
    done;
    r.obj_len <- !k;
    match Simplex.minimize_into ?max_pivots r s.x with
    | Simplex.Optimal { obj; _ } -> Optimal (obj +. !obj_const)
    | Simplex.Infeasible -> Infeasible
    | Simplex.Unbounded -> Unbounded
    | Simplex.Iteration_limit -> Iteration_limit
  end

(* A fixed variable's value is its clamped bound, a free one's the
   reduced solution's entry. *)
let relaxation_value t v =
  let s = t.last in
  if v < 0 || v >= t.lp.num_vars then invalid_arg "Ilp.relaxation_value: variable out of range";
  let d = s.dense.(v) in
  if d < 0 then s.lb.(v) else s.x.(d)
