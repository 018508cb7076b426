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
        ] );
      ("property", [ prop_bb_matches_exhaustive ]);
    ]
