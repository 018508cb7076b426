type t = { p : int; g : int; l : int; lambda : int array array }

let max_p = 1024

(* Runs before any array is built, so an outside [p] far above the
   limit costs nothing. *)
let validate_params ~p ~g ~l =
  if p < 1 then invalid_arg "Machine: need at least one processor";
  if p > max_p then
    invalid_arg (Printf.sprintf "Machine: p %d exceeds the limit of %d processors" p max_p);
  if g < 0 then invalid_arg "Machine: negative g";
  if l < 0 then invalid_arg "Machine: negative latency"

let uniform ~p ~g ~l =
  validate_params ~p ~g ~l;
  let lambda = Array.init p (fun i -> Array.init p (fun j -> if i = j then 0 else 1)) in
  { p; g; l; lambda }

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let numa_tree ~p ~g ~l ~delta =
  validate_params ~p ~g ~l;
  if delta < 1 then invalid_arg "Machine.numa_tree: delta must be >= 1";
  if p < 2 || not (is_power_of_two p) then
    invalid_arg "Machine.numa_tree: p must be a power of two, >= 2";
  (* The lowest common ancestor of leaves i and j in a complete binary
     tree sits [bits (i lxor j)] levels up; siblings (one level up) cost
     delta^0 = 1, and each further level multiplies by delta. *)
  let levels_up i j =
    let x = i lxor j in
    let rec bits acc x = if x = 0 then acc else bits (acc + 1) (x lsr 1) in
    bits 0 x
  in
  (* Checked: delta^k wraps around silently from delta = 2^7 at
     p = 1024, and a wrapped coefficient is a wrong (even negative)
     cost. *)
  let pow base e =
    let rec go acc k =
      if k = e then acc
      else if acc > max_int / base then
        invalid_arg
          (Printf.sprintf "Machine.numa_tree: delta^%d overflows int (delta %d, p %d)" e
             delta p)
      else go (acc * base) (k + 1)
    in
    go 1 0
  in
  let lambda =
    Array.init p (fun i ->
        Array.init p (fun j -> if i = j then 0 else pow delta (levels_up i j - 1)))
  in
  { p; g; l; lambda }

let explicit ~g ~l ~lambda =
  let p = Array.length lambda in
  validate_params ~p ~g ~l;
  Array.iteri
    (fun i row ->
      if Array.length row <> p then invalid_arg "Machine.explicit: non-square matrix";
      Array.iteri
        (fun j x ->
          if x < 0 then invalid_arg "Machine.explicit: negative coefficient";
          if i = j && x <> 0 then invalid_arg "Machine.explicit: non-zero diagonal")
        row)
    lambda;
  { p; g; l; lambda = Array.map Array.copy lambda }

let lambda m p1 p2 = m.lambda.(p1).(p2)

let average_lambda m =
  if m.p <= 1 then 0.0
  else begin
    let sum = ref 0 in
    for i = 0 to m.p - 1 do
      for j = 0 to m.p - 1 do
        if i <> j then sum := !sum + m.lambda.(i).(j)
      done
    done;
    float_of_int !sum /. float_of_int (m.p * (m.p - 1))
  end

let is_uniform m =
  let ok = ref true in
  for i = 0 to m.p - 1 do
    for j = 0 to m.p - 1 do
      if i <> j && m.lambda.(i).(j) <> 1 then ok := false
    done
  done;
  !ok

(* An int comparison, not the polymorphic [max]: at p = 1024 this scans
   a million entries for every request's cost bound. *)
let max_lambda m =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc (x : int) -> if x > acc then x else acc) acc row)
    0 m.lambda

let pp fmt m =
  Format.fprintf fmt "machine{p=%d; g=%d; l=%d; %s}" m.p m.g m.l
    (if is_uniform m then "uniform" else Printf.sprintf "numa(max=%d)" (max_lambda m))
