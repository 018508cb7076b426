let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

let opt = function
  | Simplex.Optimal { obj; x } -> (obj, x)
  | Simplex.Infeasible -> Alcotest.fail "unexpected Infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected Unbounded"
  | Simplex.Iteration_limit -> Alcotest.fail "unexpected Iteration_limit"

(* Simplex.minimize on an LP given in the list form of the reference. *)
let minimize ?max_pivots ~num_vars ~obj ~rows ~lb ~ub () =
  Simplex.minimize ?max_pivots (Simplex_reference.flat ~num_vars ~obj ~rows ~lb ~ub)

let test_textbook_max () =
  (* max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> (8/5, 6/5). *)
  let r =
    minimize ~num_vars:2
      ~obj:[ (0, -1.0); (1, -1.0) ]
      ~rows:
        [|
          ([ (0, 1.0); (1, 2.0) ], Simplex.Le, 4.0);
          ([ (0, 3.0); (1, 1.0) ], Simplex.Le, 6.0);
        |]
      ~lb:[| 0.0; 0.0 |] ~ub:[| infinity; infinity |] ()
  in
  let obj, x = opt r in
  check_float "obj" (-2.8) obj;
  check_float "x" 1.6 x.(0);
  check_float "y" 1.2 x.(1)

let test_infeasible () =
  let r =
    minimize ~num_vars:1 ~obj:[ (0, 1.0) ]
      ~rows:[| ([ (0, 1.0) ], Simplex.Le, -1.0) |]
      ~lb:[| 0.0 |] ~ub:[| infinity |] ()
  in
  check_bool "infeasible" true (r = Simplex.Infeasible)

let test_unbounded () =
  let r =
    minimize ~num_vars:1 ~obj:[ (0, -1.0) ] ~rows:[||] ~lb:[| 0.0 |]
      ~ub:[| infinity |] ()
  in
  check_bool "unbounded" true (r = Simplex.Unbounded)

let test_equality_and_bounds () =
  (* min x - y s.t. x + y = 3, 0 <= x <= 1 -> x = 0, y = 3. *)
  let r =
    minimize ~num_vars:2
      ~obj:[ (0, 1.0); (1, -1.0) ]
      ~rows:[| ([ (0, 1.0); (1, 1.0) ], Simplex.Eq, 3.0) |]
      ~lb:[| 0.0; 0.0 |] ~ub:[| 1.0; infinity |] ()
  in
  let obj, x = opt r in
  check_float "obj" (-3.0) obj;
  check_float "x" 0.0 x.(0);
  check_float "y" 3.0 x.(1)

let test_ge_constraints () =
  (* min 2x + 3y s.t. x + y >= 4, x >= 1 -> (4, 0) obj 8. *)
  let r =
    minimize ~num_vars:2
      ~obj:[ (0, 2.0); (1, 3.0) ]
      ~rows:
        [|
          ([ (0, 1.0); (1, 1.0) ], Simplex.Ge, 4.0);
          ([ (0, 1.0) ], Simplex.Ge, 1.0);
        |]
      ~lb:[| 0.0; 0.0 |] ~ub:[| infinity; infinity |] ()
  in
  let obj, x = opt r in
  check_float "obj" 8.0 obj;
  check_float "x" 4.0 x.(0)

let test_shifted_lower_bounds () =
  (* min x + y with x >= 2, y >= 3 and x + y >= 7 -> obj 7. *)
  let r =
    minimize ~num_vars:2
      ~obj:[ (0, 1.0); (1, 1.0) ]
      ~rows:[| ([ (0, 1.0); (1, 1.0) ], Simplex.Ge, 7.0) |]
      ~lb:[| 2.0; 3.0 |] ~ub:[| infinity; infinity |] ()
  in
  let obj, x = opt r in
  check_float "obj" 7.0 obj;
  check_bool "x >= lb" true (x.(0) >= 2.0 -. 1e-9);
  check_bool "y >= lb" true (x.(1) >= 3.0 -. 1e-9)

let test_negative_rhs_flip () =
  (* -x <= -2 is x >= 2. *)
  let r =
    minimize ~num_vars:1 ~obj:[ (0, 1.0) ]
      ~rows:[| ([ (0, -1.0) ], Simplex.Le, -2.0) |]
      ~lb:[| 0.0 |] ~ub:[| infinity |] ()
  in
  let obj, _ = opt r in
  check_float "obj" 2.0 obj

let test_degenerate () =
  (* Multiple redundant constraints through the optimum; exercises the
     Bland fallback without cycling. *)
  let r =
    minimize ~num_vars:2
      ~obj:[ (0, -1.0) ]
      ~rows:
        [|
          ([ (0, 1.0) ], Simplex.Le, 1.0);
          ([ (0, 1.0); (1, 0.0) ], Simplex.Le, 1.0);
          ([ (0, 1.0); (1, 1.0) ], Simplex.Le, 1.0);
          ([ (0, 2.0); (1, 2.0) ], Simplex.Le, 2.0);
        |]
      ~lb:[| 0.0; 0.0 |] ~ub:[| infinity; infinity |] ()
  in
  let obj, _ = opt r in
  check_float "obj" (-1.0) obj

(* Property: on random feasible-by-construction LPs, the simplex result
   is feasible and no random feasible point beats it. *)
let prop_simplex_optimality =
  let gen =
    QCheck2.Gen.(
      let* seed = int_bound 1_000_000 in
      let* n = int_range 1 6 in
      let* m = int_range 1 6 in
      return (seed, n, m))
  in
  Test_util.qtest ~count:200 "simplex optimal vs sampled points" gen
    (fun (seed, n, m) ->
      let rng = Rng.create seed in
      (* Constraints a . x <= b with a >= 0 and b > 0: the box near the
         origin is feasible and the LP is bounded when c >= 0 is
         minimised... we minimise c . x with c possibly negative but add
         a cap sum x <= 10 to keep it bounded. *)
      let rows =
        Array.init m (fun _ ->
            let coeffs =
              List.init n (fun j -> (j, float_of_int (Rng.int rng 5)))
              |> List.filter (fun (_, c) -> c > 0.0)
            in
            (coeffs, Simplex.Le, float_of_int (1 + Rng.int rng 20)))
      in
      let cap = (List.init n (fun j -> (j, 1.0)), Simplex.Le, 10.0) in
      let rows = Array.append rows [| cap |] in
      let obj = List.init n (fun j -> (j, float_of_int (Rng.int rng 9 - 4))) in
      let lb = Array.make n 0.0 and ub = Array.make n infinity in
      match minimize ~num_vars:n ~obj ~rows ~lb ~ub () with
      | Simplex.Infeasible | Simplex.Unbounded | Simplex.Iteration_limit -> false
      | Simplex.Optimal { obj = v; x } ->
        let feasible pt =
          Array.for_all
            (fun (coeffs, _, b) ->
              List.fold_left (fun acc (j, c) -> acc +. (c *. pt.(j))) 0.0 coeffs
              <= b +. 1e-6)
            rows
          && Array.for_all (fun xi -> xi >= -1e-9) pt
        in
        let value pt = List.fold_left (fun acc (j, c) -> acc +. (c *. pt.(j))) 0.0 obj in
        if not (feasible x) then false
        else if Float.abs (value x -. v) > 1e-6 then false
        else begin
          (* Sample feasible points by scaling random directions. *)
          let ok = ref true in
          for _ = 1 to 50 do
            let pt = Array.init n (fun _ -> Rng.float rng 3.0) in
            if feasible pt && value pt < v -. 1e-6 then ok := false
          done;
          !ok
        end)

(* Differential check of the pivot over the pivot row's nonzeros
   against the dense pivot of the first implementation
   (simplex_reference.ml): status, objective, every coordinate of [x]
   (compared with [Float.equal]) and the pivot count must agree. Small
   integer coefficients with many zeros, zero right-hand sides,
   duplicate indices, all three senses, shifted, bounded and fixed
   variables make degenerate pivots, phase 1 and the Bland fallback
   common; a tight pivot cap sometimes ends both mid-solve. *)
let random_lp rng ~n ~m =
  let lb = Array.init n (fun _ -> float_of_int (Rng.int rng 3 - 1)) in
  let ub =
    Array.map
      (fun l ->
        match Rng.int rng 3 with
        | 0 -> infinity
        | 1 -> l
        | _ -> l +. float_of_int (1 + Rng.int rng 4))
      lb
  in
  (* Most rows hold at an integer point inside the bounds, a third of
     them tightly (a degenerate vertex); the rest are random and may
     make the LP infeasible. *)
  let x0 =
    Array.init n (fun j ->
        let span = if Float.is_finite ub.(j) then ub.(j) -. lb.(j) else 3.0 in
        lb.(j) +. float_of_int (Rng.int rng (int_of_float span + 1)))
  in
  let coeff () = float_of_int (if Rng.bernoulli rng 0.5 then 0 else Rng.int rng 7 - 3) in
  let terms () =
    List.filter_map
      (fun j -> if Rng.bernoulli rng 0.6 then Some (j, coeff ()) else None)
      (List.init n Fun.id)
    @ if Rng.bernoulli rng 0.2 then [ (Rng.int rng n, coeff ()) ] else []
  in
  let rows =
    Array.init m (fun _ ->
        let coeffs = terms () in
        let at_x0 = List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0.0 coeffs in
        let slack = float_of_int (if Rng.bernoulli rng 0.3 then 0 else Rng.int rng 5) in
        match Rng.int rng 7 with
        | 0 | 1 -> (coeffs, Simplex.Le, at_x0 +. slack)
        | 2 | 3 -> (coeffs, Simplex.Ge, at_x0 -. slack)
        | 4 | 5 -> (coeffs, Simplex.Eq, at_x0)
        | _ ->
          let sense =
            match Rng.int rng 3 with 0 -> Simplex.Le | 1 -> Simplex.Ge | _ -> Simplex.Eq
          in
          (coeffs, sense, float_of_int (Rng.int rng 13 - 4)))
  in
  (terms (), rows, lb, ub)

let arb_lp =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 10 in
    let* m = int_range 0 10 in
    let* max_pivots = oneofl [ None; None; Some 3; Some 12 ] in
    let obj, rows, lb, ub = random_lp (Rng.create seed) ~n ~m in
    return (n, obj, rows, lb, ub, max_pivots))

let solve_counting minimize (n, obj, rows, lb, ub, max_pivots) =
  let reg = Obs.Metrics.create () in
  let r =
    Obs.Metrics.with_registry reg (fun () ->
        minimize ?max_pivots ~num_vars:n ~obj ~rows ~lb ~ub ())
  in
  (r, Obs.Metrics.counter_value reg "lp.pivots")

let same_answer r r' =
  match (r, r') with
  | Simplex.Optimal a, Simplex.Optimal b ->
    Float.equal a.obj b.obj && Array.for_all2 Float.equal a.x b.x
  | Simplex.Infeasible, Simplex.Infeasible
  | Simplex.Unbounded, Simplex.Unbounded
  | Simplex.Iteration_limit, Simplex.Iteration_limit -> true
  | _ -> false

let matches_reference lp =
  let r, pivots = solve_counting minimize lp in
  let r', pivots' = solve_counting Simplex_reference.minimize lp in
  pivots = pivots' && same_answer r r'

let prop_matches_dense_reference =
  Test_util.qtest ~count:1000 "simplex matches dense reference" arb_lp matches_reference

(* Tableau rows come from a per-domain pool, zero-filled to each solve's
   width and grown to the union of the shapes served. A solve after a
   larger one reads a prefix of longer, dirtier rows; a solve after a
   smaller one grows the pool. Interleaving the sizes must not change a
   pivot. *)
let lp_of_seed ?max_pivots ~n ~m seed =
  let obj, rows, lb, ub = random_lp (Rng.create seed) ~n ~m in
  (n, obj, rows, lb, ub, max_pivots)

let arb_pool_sequence =
  QCheck2.Gen.(
    let size lo hi = pair (int_range lo hi) (int_range lo hi) in
    let* large1 = size 15 40 and* small = size 1 6 and* large2 = size 15 40 in
    let* seed = int_bound 1_000_000 in
    return
      (List.mapi
         (fun i (n, m) -> lp_of_seed ~n ~m (seed + i))
         [ large1; small; large2 ]))

let prop_pooled_rows_match_reference =
  Test_util.qtest ~count:40 "pooled rows: large, small, large match reference"
    arb_pool_sequence (List.for_all matches_reference)

(* 400 x 400 has at least 400 rows of at least 801 entries: more than
   the pool keeps, so it takes rows of its own; the pivot cap bounds
   the reference's dense pivots. *)
let over_cap = lp_of_seed ~max_pivots:60 ~n:400 ~m:400 7

let test_over_cap_interleaved () =
  List.iteri
    (fun i lp ->
      Alcotest.(check bool) (Printf.sprintf "model %d matches reference" i) true
        (matches_reference lp))
    [ over_cap; lp_of_seed ~n:5 ~m:4 3; lp_of_seed ~n:30 ~m:30 4; over_cap ]

(* Each domain has its own pool: two domains solving interleaved
   sequences at once must each get the reference's answers. *)
let test_two_domains () =
  let seq k =
    List.init 6 (fun i ->
        lp_of_seed ~n:(if i mod 2 = 0 then 30 + k else 3) ~m:(25 + i) ((100 * k) + i))
  in
  let solve minimize (n, obj, rows, lb, ub, max_pivots) =
    minimize ?max_pivots ~num_vars:n ~obj ~rows ~lb ~ub ()
  in
  let expected k = List.map (solve Simplex_reference.minimize) (seq k) in
  let run k () = List.map (solve minimize) (seq k) in
  let d1 = Domain.spawn (run 1) and d2 = Domain.spawn (run 2) in
  let got1 = Domain.join d1 and got2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1" true (List.for_all2 same_answer got1 (expected 1));
  Alcotest.(check bool) "domain 2" true (List.for_all2 same_answer got2 (expected 2))

(* A fresh workspace for this model is about 20k words (a hundred rows
   of about 200 floats, each below the major-heap threshold, so minor
   words see it); a warm solve of the flat LP allocates only its
   result: [x] and the result's own few words. Seed 13 gives an
   optimal LP, so [x] is built. *)
let test_warm_solve_allocation () =
  let n, obj, rows, lb, ub, _ = lp_of_seed ~n:60 ~m:60 13 in
  let lp = Simplex_reference.flat ~num_vars:n ~obj ~rows ~lb ~ub in
  let solve () =
    match Simplex.minimize lp with
    | Simplex.Optimal _ -> ()
    | _ -> Alcotest.fail "expected an optimal LP"
  in
  solve ();
  let words = Test_util.min_allocated_words solve in
  if words > n + 8 then Alcotest.failf "warm solve allocated %d words" words

let () =
  Alcotest.run "lp"
    [
      ( "unit",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "equality and bounds" `Quick test_equality_and_bounds;
          Alcotest.test_case "ge constraints" `Quick test_ge_constraints;
          Alcotest.test_case "shifted lower bounds" `Quick test_shifted_lower_bounds;
          Alcotest.test_case "negative rhs flip" `Quick test_negative_rhs_flip;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
        ] );
      ( "pool",
        [
          Alcotest.test_case "over the cap, interleaved" `Quick test_over_cap_interleaved;
          Alcotest.test_case "two domains" `Quick test_two_domains;
          Alcotest.test_case "warm solve allocation" `Quick test_warm_solve_allocation;
        ] );
      ( "property",
        [
          prop_simplex_optimality;
          prop_matches_dense_reference;
          prop_pooled_rows_match_reference;
        ] );
    ]
