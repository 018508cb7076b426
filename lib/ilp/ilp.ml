type var = int

type var_info = { name : string; binary : bool; lb : float; ub : float }

type t = {
  mutable vars : var_info array;  (* the first [nvars] are the model's; grows by doubling *)
  mutable nvars : int;
  mutable nbin : int;
  mutable rows : ((var * float) list * Simplex.sense * float) list;  (* reversed *)
  mutable nrows : int;
  mutable obj : (var * float) list;
}

let create () = { vars = [||]; nvars = 0; nbin = 0; rows = []; nrows = 0; obj = [] }

let add_var t info =
  let id = t.nvars in
  if id = Array.length t.vars then begin
    let grown = Array.make (max 16 (2 * id)) info in
    Array.blit t.vars 0 grown 0 id;
    t.vars <- grown
  end;
  t.vars.(id) <- info;
  t.nvars <- t.nvars + 1;
  if info.binary then t.nbin <- t.nbin + 1;
  id

let binary t name = add_var t { name; binary = true; lb = 0.0; ub = 1.0 }

let continuous t ?(lb = 0.0) ?(ub = infinity) name =
  if not (Float.is_finite lb) then invalid_arg "Ilp.continuous: lb must be finite";
  add_var t { name; binary = false; lb; ub }

let num_vars t = t.nvars
let num_binaries t = t.nbin
let var_array t = Array.sub t.vars 0 t.nvars

let is_binary t v =
  if v < 0 || v >= t.nvars then invalid_arg "Ilp.is_binary: variable out of range";
  t.vars.(v).binary

let check_row t coeffs =
  List.iter
    (fun (v, _) ->
      if v < 0 || v >= t.nvars then invalid_arg "Ilp: variable out of range")
    coeffs

let add_row t coeffs sense b =
  check_row t coeffs;
  t.rows <- (coeffs, sense, b) :: t.rows;
  t.nrows <- t.nrows + 1

let add_le t coeffs b = add_row t coeffs Simplex.Le b
let add_ge t coeffs b = add_row t coeffs Simplex.Ge b
let add_eq t coeffs b = add_row t coeffs Simplex.Eq b

let set_objective t coeffs =
  check_row t coeffs;
  t.obj <- coeffs

let constraints_satisfied ?(tol = 1e-6) t x =
  let vars = var_array t in
  Array.for_all
    (fun ok -> ok)
    (Array.mapi
       (fun j info -> x.(j) >= info.lb -. tol && x.(j) <= info.ub +. tol)
       vars)
  && List.for_all
       (fun (coeffs, sense, b) ->
         let lhs = List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0.0 coeffs in
         match sense with
         | Simplex.Le -> lhs <= b +. tol
         | Simplex.Ge -> lhs >= b -. tol
         | Simplex.Eq -> Float.abs (lhs -. b) <= tol)
       t.rows

let lp_relaxation ?max_pivots ?(fix = []) t =
  let vars = var_array t in
  let lb = Array.map (fun i -> i.lb) vars in
  let ub = Array.map (fun i -> i.ub) vars in
  List.iter
    (fun (v, value) ->
      lb.(v) <- value;
      ub.(v) <- value)
    fix;
  (* Eliminate fixed variables before handing the LP to the simplex:
     their contribution moves into the right-hand sides and the objective
     constant. Deep branch-and-bound nodes fix many binaries, so this
     shrinks their LPs substantially. *)
  let fixed = Array.init t.nvars (fun j -> lb.(j) = ub.(j)) in
  let dense = Array.make t.nvars (-1) in
  let free_count = ref 0 in
  for j = 0 to t.nvars - 1 do
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
    List.rev_map
      (fun (coeffs, sense, b) ->
        let terms, const = reduce coeffs in
        (terms, sense, b -. const))
      t.rows
    |> Array.of_list
  in
  (* A fixed-variable row with an empty left-hand side must still hold. *)
  let tol = 1e-7 in
  let infeasible_constant =
    Array.exists
      (fun (terms, sense, b) ->
        terms = []
        &&
        match (sense : Simplex.sense) with
        | Simplex.Le -> b < -.tol
        | Simplex.Ge -> b > tol
        | Simplex.Eq -> Float.abs b > tol)
      rows
  in
  if infeasible_constant then Simplex.Infeasible
  else begin
    let rows = Array.of_list (List.filter (fun (terms, _, _) -> terms <> []) (Array.to_list rows)) in
    let obj_terms, obj_const = reduce t.obj in
    let lb' = Array.make !free_count 0.0 and ub' = Array.make !free_count infinity in
    for j = 0 to t.nvars - 1 do
      if not fixed.(j) then begin
        lb'.(dense.(j)) <- lb.(j);
        ub'.(dense.(j)) <- ub.(j)
      end
    done;
    match
      Simplex.minimize ?max_pivots ~num_vars:!free_count ~obj:obj_terms ~rows ~lb:lb'
        ~ub:ub' ()
    with
    | Simplex.Optimal { obj; x } ->
      let full = Array.copy lb in
      for j = 0 to t.nvars - 1 do
        if not fixed.(j) then full.(j) <- x.(dense.(j))
      done;
      Simplex.Optimal { obj = obj +. obj_const; x = full }
    | other -> other
  end
