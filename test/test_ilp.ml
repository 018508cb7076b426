let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let knapsack () =
  (* max 10a + 6b + 4c s.t. 5a + 4b + 3c <= 8 -> a, c. *)
  let m = Ilp.create () in
  let a = Ilp.binary m "a" and b = Ilp.binary m "b" and c = Ilp.binary m "c" in
  Ilp.add_le m [ (a, 5.0); (b, 4.0); (c, 3.0) ] 8.0;
  Ilp.set_objective m [ (a, -10.0); (b, -6.0); (c, -4.0) ];
  (m, a, b, c)

let test_knapsack () =
  let m, a, b, c = knapsack () in
  let r = Branch_bound.solve m in
  check_bool "optimal" true r.Branch_bound.proven_optimal;
  check_float "obj" (-14.0) r.Branch_bound.objective;
  match r.Branch_bound.solution with
  | Some x ->
    check_float "a" 1.0 x.(a);
    check_float "b" 0.0 x.(b);
    check_float "c" 1.0 x.(c)
  | None -> Alcotest.fail "no solution"

let test_cutoff_blocks_equal_solutions () =
  let m, _, _, _ = knapsack () in
  (* With the optimum as cutoff, nothing strictly better exists. *)
  let r = Branch_bound.solve ~cutoff:(-14.0) m in
  check_bool "no solution" true (r.Branch_bound.solution = None);
  check_float "objective = cutoff" (-14.0) r.Branch_bound.objective;
  (* With a looser cutoff the optimum is found again. *)
  let r2 = Branch_bound.solve ~cutoff:(-13.0) m in
  check_bool "found" true (r2.Branch_bound.solution <> None)

let test_infeasible_model () =
  let m = Ilp.create () in
  let a = Ilp.binary m "a" in
  Ilp.add_ge m [ (a, 1.0) ] 2.0;
  Ilp.set_objective m [ (a, 1.0) ];
  let r = Branch_bound.solve m in
  check_bool "no solution" true (r.Branch_bound.solution = None);
  check_bool "proven" true r.Branch_bound.proven_optimal

let test_mixed_continuous () =
  (* min w s.t. w >= 2a + b, w >= 3 - a, a + b >= 1: a=1 -> w = 2. *)
  let m = Ilp.create () in
  let a = Ilp.binary m "a" and b = Ilp.binary m "b" in
  let w = Ilp.continuous m "w" in
  Ilp.add_ge m [ (w, 1.0); (a, -2.0); (b, -1.0) ] 0.0;
  Ilp.add_ge m [ (w, 1.0); (a, 1.0) ] 3.0;
  Ilp.add_ge m [ (a, 1.0); (b, 1.0) ] 1.0;
  Ilp.set_objective m [ (w, 1.0) ];
  let r = Branch_bound.solve m in
  check_float "obj" 2.0 r.Branch_bound.objective;
  check_bool "optimal" true r.Branch_bound.proven_optimal

let test_budget_stops_search () =
  let m, _, _, _ = knapsack () in
  let r = Branch_bound.solve ~budget:(Budget.steps 1) m in
  check_bool "not proven" true (not r.Branch_bound.proven_optimal);
  check_bool "at most one node" true (r.Branch_bound.nodes_explored <= 1)

let test_node_cap () =
  let m, _, _, _ = knapsack () in
  let r = Branch_bound.solve ~max_nodes:2 m in
  check_bool "caps nodes" true (r.Branch_bound.nodes_explored <= 2)

let test_constraints_satisfied_helper () =
  let m, a, b, c = knapsack () in
  let x = Array.make (Ilp.num_vars m) 0.0 in
  x.(a) <- 1.0;
  check_bool "feasible" true (Ilp.constraints_satisfied m x);
  x.(b) <- 1.0;
  x.(c) <- 1.0;
  check_bool "infeasible" false (Ilp.constraints_satisfied m x);
  check "binaries" 3 (Ilp.num_binaries m);
  check_bool "is_binary" true (Ilp.is_binary m a)

(* The binary flags survive the variable table's growth and are read by
   index; an index outside the model is an error. *)
let test_is_binary_flags () =
  let m = Ilp.create () in
  let vars =
    List.init 100 (fun i ->
        if i mod 3 = 0 then (Ilp.binary m "b", true) else (Ilp.continuous m "c", false))
  in
  List.iter (fun (v, bin) -> check_bool "flag" bin (Ilp.is_binary m v)) vars;
  check "binaries" 34 (Ilp.num_binaries m);
  List.iter
    (fun v ->
      check_bool "out of range" true
        (match Ilp.is_binary m v with _ -> false | exception Invalid_argument _ -> true))
    [ -1; 100 ]

(* Property: branch-and-bound matches exhaustive enumeration on random
   tiny 0/1 models with a continuous max-style variable. *)
let prop_bb_matches_exhaustive =
  let gen =
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      let* nb = int_range 1 8 in
      let* nc = int_range 1 4 in
      return (seed, nb, nc))
  in
  Test_util.qtest ~count:120 "b&b = exhaustive" gen (fun (seed, nb, nc) ->
      let rng = Rng.create seed in
      let m = Ilp.create () in
      let bins = Array.init nb (fun i -> Ilp.binary m (Printf.sprintf "b%d" i)) in
      let w = Ilp.continuous m "w" in
      (* Knapsack-style rows keep the model feasible (all-zero works). *)
      for _ = 1 to nc do
        let coeffs =
          Array.to_list bins
          |> List.map (fun v -> (v, float_of_int (Rng.int rng 6)))
          |> List.filter (fun (_, c) -> c > 0.0)
        in
        Ilp.add_le m coeffs (float_of_int (2 + Rng.int rng 10))
      done;
      (* w must dominate two random linear forms of the binaries. *)
      let form () =
        (w, 1.0)
        :: (Array.to_list bins
           |> List.map (fun v -> (v, -.float_of_int (Rng.int rng 4)))
           |> List.filter (fun (_, c) -> c <> 0.0))
      in
      Ilp.add_ge m (form ()) 0.0;
      Ilp.add_ge m (form ()) 0.0;
      let obj =
        (w, 1.0)
        :: (Array.to_list bins
           |> List.map (fun v -> (v, float_of_int (Rng.int rng 9 - 4)))
           |> List.filter (fun (_, c) -> c <> 0.0))
      in
      Ilp.set_objective m obj;
      let bb = Branch_bound.solve m in
      let ex = Branch_bound.solve_exhaustive m in
      bb.Branch_bound.proven_optimal
      && Float.abs (bb.Branch_bound.objective -. ex.Branch_bound.objective) < 1e-5)

(* Differential check of the flat, pooled LP relaxation against the
   list-based one of the first implementation (simplex_reference.ml):
   status, objective, every coordinate of [x] (by [Float.equal]) and
   the pivot count must agree. Models mix binaries and bounded, free and
   fixed continuous variables; rows carry duplicate and zero terms, some
   are empty, and fixing all of a row's variables leaves a constant that
   may fail. Fix lists may repeat a variable. Each case solves a large,
   a small and a large model in turn on the same domain, so scratch left
   stale by a larger model reaches a smaller one. *)
let random_model rng ~n ~m =
  let bounds =
    Array.init n (fun _ ->
        let l = float_of_int (Rng.int rng 3 - 1) in
        match Rng.int rng 4 with
        | 0 -> `Binary
        | 1 -> `Continuous (l, l)
        | 2 -> `Continuous (l, infinity)
        | _ -> `Continuous (l, l +. float_of_int (1 + Rng.int rng 4)))
  in
  (* Most rows hold at an integer point inside the bounds, which most
     fixes keep; the rest are random and may make the model, or a
     constant left by fixing, infeasible. *)
  let x0 =
    Array.map
      (function
        | `Binary -> float_of_int (Rng.int rng 2)
        | `Continuous (l, u) ->
          let span = if Float.is_finite u then u -. l else 3.0 in
          l +. float_of_int (Rng.int rng (int_of_float span + 1)))
      bounds
  in
  let coeff () = float_of_int (if Rng.bernoulli rng 0.3 then 0 else Rng.int rng 7 - 3) in
  let terms () =
    if Rng.bernoulli rng 0.1 then []
    else
      List.filter_map
        (fun j -> if Rng.bernoulli rng 0.5 then Some (j, coeff ()) else None)
        (List.init n Fun.id)
      @ List.init (Rng.int rng 3) (fun _ -> (Rng.int rng n, coeff ()))
  in
  let rows =
    List.init m (fun _ ->
        let coeffs = terms () in
        let at_x0 = List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0.0 coeffs in
        let slack = float_of_int (if Rng.bernoulli rng 0.3 then 0 else Rng.int rng 4) in
        match Rng.int rng 7 with
        | 0 | 1 -> (coeffs, Simplex.Le, at_x0 +. slack)
        | 2 | 3 -> (coeffs, Simplex.Ge, at_x0 -. slack)
        | 4 | 5 -> (coeffs, Simplex.Eq, at_x0)
        | _ ->
          let sense =
            match Rng.int rng 3 with 0 -> Simplex.Le | 1 -> Simplex.Ge | _ -> Simplex.Eq
          in
          (coeffs, sense, float_of_int (Rng.int rng 11 - 3)))
  in
  let obj = terms () in
  let fix =
    List.init (Rng.int rng (n + 2)) (fun _ ->
        let v = Rng.int rng n in
        if Rng.bernoulli rng 0.8 then (v, x0.(v))
        else
          (v, match bounds.(v) with
            | `Binary -> float_of_int (Rng.int rng 2)
            | `Continuous _ -> float_of_int (Rng.int rng 4 - 1)))
  in
  let max_pivots = if Rng.bernoulli rng 0.2 then Some (Rng.int rng 12) else None in
  (bounds, rows, obj, fix, max_pivots)

let build_model (bounds, rows, obj, _, _) =
  let m = Ilp.create () in
  Array.iter
    (function
      | `Binary -> ignore (Ilp.binary m "b" : Ilp.var)
      | `Continuous (lb, ub) -> ignore (Ilp.continuous m ~lb ~ub "c" : Ilp.var))
    bounds;
  List.iter
    (fun (coeffs, sense, b) ->
      match sense with
      | Simplex.Le -> Ilp.add_le m coeffs b
      | Simplex.Ge -> Ilp.add_ge m coeffs b
      | Simplex.Eq -> Ilp.add_eq m coeffs b)
    rows;
  Ilp.set_objective m obj;
  m

let counting_pivots f =
  let reg = Obs.Metrics.create () in
  let r = Obs.Metrics.with_registry reg f in
  (r, Obs.Metrics.counter_value reg "lp.pivots")

let relaxation_matches_reference ((bounds, rows, obj, fix, max_pivots) as spec) =
  let model = build_model spec in
  let r, pivots = counting_pivots (fun () -> Ilp.lp_relaxation ?max_pivots ~fix model) in
  let bounds =
    Array.map (function `Binary -> (0.0, 1.0) | `Continuous (lb, ub) -> (lb, ub)) bounds
  in
  let r', pivots' =
    counting_pivots (fun () ->
        Simplex_reference.lp_relaxation ?max_pivots ~fix ~bounds ~rows ~obj ())
  in
  pivots = pivots'
  &&
  match (r, r') with
  | Ilp.Optimal obj, Simplex.Optimal b ->
    let x = Array.init (Ilp.num_vars model) (Ilp.relaxation_value model) in
    Float.equal obj b.obj && Array.for_all2 Float.equal x b.x
  | Ilp.Infeasible, Simplex.Infeasible
  | Ilp.Unbounded, Simplex.Unbounded
  | Ilp.Iteration_limit, Simplex.Iteration_limit -> true
  | _ -> false

let prop_relaxation_matches_reference =
  Test_util.qtest ~count:300 "lp relaxation matches list reference"
    QCheck2.Gen.(
      let size lo hi = pair (int_range lo hi) (int_range lo hi) in
      let* large1 = size 8 24 and* small = size 1 4 and* large2 = size 8 24 in
      let* seed = int_bound 1_000_000 in
      return
        (List.mapi
           (fun i (n, m) -> random_model (Rng.create (seed + i)) ~n ~m)
           [ large1; small; large2 ]))
    (List.for_all relaxation_matches_reference)

(* Once its scratch is warm, a relaxation allocates only its result:
   the simplex's result block with its boxed objective (5 words), the
   relaxation's with the shifted objective (4), and the optional
   argument's box (2). The solution stays in the scratch, so nothing
   grows with the model. *)
let test_warm_relaxation_allocation () =
  let n = 40 in
  let m = Ilp.create () in
  let bins = Array.init n (fun i -> Ilp.binary m (Printf.sprintf "b%d" i)) in
  let w = Ilp.continuous m "w" in
  Array.iteri
    (fun i v -> Ilp.add_le m [ (v, 1.0); (bins.((i + 1) mod n), 1.0) ] 1.0)
    bins;
  Ilp.add_ge m ((w, 1.0) :: Array.to_list (Array.map (fun v -> (v, -1.0)) bins)) 0.0;
  Ilp.set_objective m ((w, 1.0) :: Array.to_list (Array.map (fun v -> (v, -2.0)) bins));
  let fix = [ (bins.(0), 1.0); (bins.(5), 0.0) ] in
  let solve () =
    match Ilp.lp_relaxation ~fix m with
    | Ilp.Optimal _ -> ()
    | _ -> Alcotest.fail "expected an optimal relaxation"
  in
  solve ();
  let words = Test_util.min_allocated_words solve in
  Alcotest.(check int) "warm relaxation words" 11 words

let () =
  Alcotest.run "ilp"
    [
      ( "unit",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "cutoff" `Quick test_cutoff_blocks_equal_solutions;
          Alcotest.test_case "infeasible model" `Quick test_infeasible_model;
          Alcotest.test_case "mixed continuous" `Quick test_mixed_continuous;
          Alcotest.test_case "budget stops" `Quick test_budget_stops_search;
          Alcotest.test_case "node cap" `Quick test_node_cap;
          Alcotest.test_case "constraint checker" `Quick test_constraints_satisfied_helper;
          Alcotest.test_case "binary flags" `Quick test_is_binary_flags;
          Alcotest.test_case "warm relaxation allocation" `Quick test_warm_relaxation_allocation;
        ] );
      ("property", [ prop_bb_matches_exhaustive; prop_relaxation_matches_reference ]);
    ]
