let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let x = Rng.int child 1_000_000 in
  (* Re-deriving from the same parent state gives a different child. *)
  let child2 = Rng.split parent in
  check_bool "children differ" true (x <> Rng.int child2 1_000_000 || x <> Rng.int child2 1_000_000)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 7 in
    check_bool "in range" true (x >= 0 && x < 7);
    let f = Rng.float rng 2.5 in
    check_bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 9 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 1 in
  for _ = 1 to 50 do
    check_bool "p=0 never" false (Rng.bernoulli rng 0.0);
    check_bool "p=1 always" true (Rng.bernoulli rng 1.0)
  done

(* Budget *)

let test_budget_steps () =
  let b = Budget.steps 3 in
  check_bool "1" true (Budget.tick b);
  check_bool "2" true (Budget.tick b);
  check_bool "3" true (Budget.tick b);
  check_bool "exhausted" false (Budget.tick b);
  check_bool "stays exhausted" true (Budget.exhausted b);
  check "used" 3 (Budget.used_steps b)

let test_budget_unlimited () =
  for _ = 1 to 100 do
    check_bool "never exhausted" true (Budget.tick (Budget.unlimited ()))
  done

let test_budget_unlimited_independent () =
  (* Each [unlimited ()] is a fresh value: consumption by one consumer
     must not leak into another's [used_steps]. *)
  let a = Budget.unlimited () and b = Budget.unlimited () in
  Budget.charge a 500;
  check "a used" 500 (Budget.used_steps a);
  check "b untouched" 0 (Budget.used_steps b);
  check_bool "b ticks" true (Budget.tick b);
  check "b used" 1 (Budget.used_steps b);
  check "a unchanged" 500 (Budget.used_steps a)

let test_budget_combine () =
  let b = Budget.combine (Budget.steps 2) (Budget.steps 10) in
  check_bool "1" true (Budget.tick b);
  check_bool "2" true (Budget.tick b);
  check_bool "first limits" false (Budget.tick b)

let test_budget_combine_used_steps () =
  let inner = Budget.steps 100 and clock = Budget.seconds 60.0 in
  let b = Budget.combine inner clock in
  Budget.charge b 7;
  check_bool "one" true (Budget.tick b);
  (* The pair and both components all saw the same 8 units. *)
  check "pair used" 8 (Budget.used_steps b);
  check "steps component used" 8 (Budget.used_steps inner);
  check "deadline component used" 8 (Budget.used_steps clock)

(* [charge] clamps at the step capacity and never reads the clock, so
   a consumer that probed right before its work pays one clock reading,
   not two; [tick] probes the deadline first. *)
let test_budget_charge () =
  let reads = ref 0 in
  Time_source.with_source
    (fun () ->
      incr reads;
      0.0)
    (fun () ->
      let inner = Budget.steps 5 in
      let b = Budget.combine inner (Budget.seconds 60.0) in
      reads := 0;
      check "capacity" 5 (Budget.capacity b);
      Budget.charge b 3;
      check "charge reads no clock" 0 !reads;
      check "charged" 3 (Budget.used_steps b);
      check "forwarded" 3 (Budget.used_steps inner);
      check "capacity left" 2 (Budget.capacity b);
      Budget.charge b 10;
      check "clamped at capacity" 5 (Budget.used_steps b);
      check "still no clock" 0 !reads;
      check_bool "exhausted" true (Budget.exhausted b);
      check "exhausted capacity" 0 (Budget.capacity b);
      ignore (Budget.tick (Budget.seconds 60.0) : bool);
      check "tick probes the deadline" 2 !reads);
  check "deadline only: unbounded capacity" max_int (Budget.capacity (Budget.seconds 60.0))

let test_budget_deadline () =
  let b = Budget.seconds 0.02 in
  check_bool "fresh" false (Budget.exhausted b);
  Unix.sleepf 0.05;
  check_bool "expired" true (Budget.exhausted b)

(* Deque *)

let test_deque_lifo_fifo () =
  let d = Deque.create () in
  check_bool "empty" true (Deque.is_empty d);
  List.iter (Deque.push_top d) [ 1; 2; 3; 4 ];
  check "length" 4 (Deque.length d);
  Alcotest.(check (option int)) "top" (Some 4) (Deque.pop_top d);
  Alcotest.(check (option int)) "bottom" (Some 1) (Deque.pop_bottom d);
  Alcotest.(check (option int)) "peek top" (Some 3) (Deque.peek_top d);
  Alcotest.(check (option int)) "peek bottom" (Some 2) (Deque.peek_bottom d);
  Alcotest.(check (option int)) "pop" (Some 3) (Deque.pop_top d);
  Alcotest.(check (option int)) "pop" (Some 2) (Deque.pop_top d);
  Alcotest.(check (option int)) "empty pop" None (Deque.pop_top d);
  Alcotest.(check (option int)) "empty pop bottom" None (Deque.pop_bottom d)

let test_deque_growth_wraparound () =
  let d = Deque.create () in
  (* Force several growth cycles with mixed operations. *)
  for round = 1 to 5 do
    for i = 1 to 100 do
      Deque.push_top d (round * 1000 + i)
    done;
    for _ = 1 to 50 do
      ignore (Deque.pop_bottom d : int option)
    done
  done;
  check "length" 250 (Deque.length d);
  (* Drain and confirm count. *)
  let count = ref 0 in
  while not (Deque.is_empty d) do
    ignore (Deque.pop_top d : int option);
    incr count
  done;
  check "drained" 250 !count

(* Statistics *)

let test_statistics () =
  Alcotest.(check (float 1e-9)) "geo" 4.0 (Statistics.geometric_mean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "geo singleton" 3.0 (Statistics.geometric_mean [ 3.0 ]);
  check_bool "geo empty nan" true (Float.is_nan (Statistics.geometric_mean []));
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Statistics.mean [ 4.0; 6.0 ]);
  Alcotest.(check (float 1e-9)) "reduction" 25.0 (Statistics.percent_reduction 0.75)

let test_statistics_geomean_rejects_nonpositive () =
  let expect_invalid label xs =
    try
      ignore (Statistics.geometric_mean xs : float);
      Alcotest.fail (label ^ " accepted")
    with Invalid_argument _ -> ()
  in
  expect_invalid "zero" [ 1.0; 0.0; 2.0 ];
  expect_invalid "negative" [ 3.0; -1.0 ];
  expect_invalid "nan" [ 1.0; Float.nan ]

(* Schedule_io *)

let test_schedule_io_roundtrip () =
  let dag = Test_util.diamond () in
  let s =
    Schedule.make dag ~proc:[| 0; 1; 0; 1 |] ~step:[| 0; 1; 0; 2 |]
      ~comm:
        [
          { Schedule.node = 0; src = 0; dst = 1; step = 0 };
          { Schedule.node = 2; src = 0; dst = 1; step = 1 };
        ]
  in
  let s2 = Schedule_io.of_string dag (Schedule_io.to_string s) in
  Alcotest.(check (array int)) "proc" s.Schedule.proc s2.Schedule.proc;
  Alcotest.(check (array int)) "step" s.Schedule.step s2.Schedule.step;
  check "events" 2 (List.length s2.Schedule.comm);
  let m = Machine.uniform ~p:2 ~g:2 ~l:1 in
  check "same cost" (Bsp_cost.total m s) (Bsp_cost.total m s2)

let test_schedule_io_rejects_mismatch () =
  let dag = Test_util.diamond () in
  let other = Test_util.chain 3 in
  let s = Schedule.trivial dag in
  (try
     ignore (Schedule_io.of_string other (Schedule_io.to_string s));
     Alcotest.fail "node-count mismatch accepted"
   with Failure _ -> ())

(* Superstep_merge *)

let test_superstep_merge_collapses_chain () =
  (* A chain on one processor spread over many supersteps merges into
     one. *)
  let dag = Test_util.chain 5 in
  let m = Machine.uniform ~p:2 ~g:1 ~l:5 in
  let s = Schedule.of_assignment dag ~proc:(Array.make 5 0) ~step:[| 0; 1; 2; 3; 4 |] in
  let merged = Superstep_merge.greedy m s in
  check "one superstep" 1 (Schedule.num_supersteps merged);
  check_bool "valid" true (Validity.is_valid m merged)

let test_superstep_merge_blocked_by_cross_edge () =
  let dag = Test_util.chain 2 in
  let m = Machine.uniform ~p:2 ~g:1 ~l:5 in
  let s = Schedule.of_assignment dag ~proc:[| 0; 1 |] ~step:[| 0; 1 |] in
  let merged = Superstep_merge.greedy m s in
  check "still two supersteps" 2 (Schedule.num_supersteps merged);
  check_bool "valid" true (Validity.is_valid m merged)

let prop_superstep_merge_never_worse =
  Test_util.qtest ~count:60 "merge monotone"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (pair (Test_util.arb_machine ()) (int_bound 10_000)))
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let level = Dag.wavefronts dag in
      let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng m.Machine.p) in
      let s = Schedule.of_assignment dag ~proc ~step:level in
      let merged = Superstep_merge.greedy m s in
      Validity.is_valid m merged && Bsp_cost.total m merged <= Bsp_cost.total m s)

(* Differential property: the single-pass incremental merge must give
   the very schedule of the old recost-every-attempt merge, kept as
   [Superstep_merge_reference]. Schedules come in three shapes: one
   superstep per wavefront, one per node in topological order
   (near-serial, many supersteps), and the tightest valid steps plus
   random gaps, now and then or at every node, so empty supersteps,
   same-processor edges inside a superstep and values first needed long
   after they are computed occur too. *)
let arb_merge_machine =
  QCheck2.Gen.(
    let* p = oneofl [ 2; 4; 8 ] in
    let* g = int_range 0 4 in
    let* l = int_range 0 20 in
    let* numa = oneofl [ None; Some 2; Some 3 ] in
    return
      (match numa with
      | None -> Machine.uniform ~p ~g ~l
      | Some delta -> Machine.numa_tree ~p ~g ~l ~delta))

let random_valid_schedule rng m dag ~shape =
  let n = Dag.n dag in
  let p = m.Machine.p in
  let procs = 1 + Rng.int rng p in
  let proc = Array.init n (fun _ -> Rng.int rng procs) in
  let step =
    match shape with
    | 0 -> Dag.wavefronts dag
    | 1 -> Dag.topological_rank dag
    | _ ->
      let step = Array.make n 0 in
      Array.iter
        (fun v ->
          let lo =
            Dag.fold_pred dag v ~init:0 (fun acc u ->
                max acc (step.(u) + if proc.(u) <> proc.(v) then 1 else 0))
          in
          step.(v) <- lo + if shape = 3 || Rng.int rng 4 = 0 then Rng.int rng 3 else 0)
        (Dag.topological_order dag);
      step
  in
  Schedule.of_assignment dag ~proc ~step

let prop_superstep_merge_matches_reference =
  Test_util.qtest ~count:1000 "merge matches reference"
    QCheck2.Gen.(
      pair (Test_util.arb_dag ~max_n:40 ())
        (triple arb_merge_machine (int_bound 1_000_000) (int_bound 3)))
    (fun (dag, (m, seed, shape)) ->
      let s = random_valid_schedule (Rng.create seed) m dag ~shape in
      let a = Superstep_merge.greedy m s and b = Superstep_merge_reference.greedy m s in
      a.Schedule.proc = b.Schedule.proc
      && a.Schedule.step = b.Schedule.step
      && a.Schedule.comm = b.Schedule.comm)

(* Superstep 2's phase carries values computed at step 0 and first
   needed at step 3: u_a fanned out from processor 0 to three readers
   ("fan-out"), or a1-a3 fanned in from processors 1-3 to one reader on
   processor 0 ("fan-in"). Merging 3 into 2 folds that phase into the
   non-empty phase of superstep 1 (y -> z). Merging 4 in as well would
   fold the same fan of u_b (or b1-b3) onto the send (or receive) row
   of processor 0, which the first fold already made the phase's
   maximum: at l = 0 that costs exactly what it saves, so the merge must
   be refused. The merges of 1 into 0 and of 2 into 1 are blocked by the
   cross-processor edges x0 -> y and y -> z. *)
let test_superstep_merge_folds_phase () =
  let m = Machine.uniform ~p:4 ~g:1 ~l:0 in
  List.iter
    (fun (name, edges, proc, step, expect) ->
      let dag =
        Dag.of_edges ~n:11 ~edges ~work:(Array.make 11 1) ~comm:(Array.make 11 1)
      in
      let s = Schedule.of_assignment dag ~proc ~step in
      let merged = Superstep_merge.greedy m s in
      let reference = Superstep_merge_reference.greedy m s in
      Alcotest.(check (array int)) (name ^ " steps") expect merged.Schedule.step;
      check_bool (name ^ " step-0 values sent in phase 1") true
        (List.exists
           (fun (e : Schedule.comm_event) -> step.(e.node) = 0 && e.step = 1)
           merged.Schedule.comm);
      check_bool (name ^ " same as reference") true
        (merged.Schedule.step = reference.Schedule.step
        && merged.Schedule.comm = reference.Schedule.comm))
    [
      (* x0 u_a u_b y z, readers of u_a, readers of u_b *)
      ( "fan-out",
        [ (0, 3); (3, 4); (1, 5); (1, 6); (1, 7); (2, 8); (2, 9); (2, 10) ],
        [| 0; 0; 0; 1; 0; 1; 2; 3; 1; 2; 3 |],
        [| 0; 0; 0; 1; 2; 3; 3; 3; 4; 4; 4 |],
        [| 0; 0; 0; 1; 2; 2; 2; 2; 3; 3; 3 |] );
      (* x0 y z, a1-a3 and their reader, b1-b3 and their reader *)
      ( "fan-in",
        [ (0, 1); (1, 2); (3, 6); (4, 6); (5, 6); (7, 10); (8, 10); (9, 10) ],
        [| 0; 1; 2; 1; 2; 3; 0; 1; 2; 3; 0 |],
        [| 0; 1; 2; 0; 0; 0; 3; 0; 0; 0; 4 |],
        [| 0; 1; 2; 0; 0; 0; 2; 0; 0; 0; 3 |] );
    ]

let () =
  Alcotest.run "util_modules"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        ] );
      ( "budget",
        [
          Alcotest.test_case "steps" `Quick test_budget_steps;
          Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "unlimited independent" `Quick
            test_budget_unlimited_independent;
          Alcotest.test_case "combine" `Quick test_budget_combine;
          Alcotest.test_case "combine used_steps" `Quick test_budget_combine_used_steps;
          Alcotest.test_case "charge without probing" `Quick test_budget_charge;
          Alcotest.test_case "deadline" `Quick test_budget_deadline;
        ] );
      ( "deque",
        [
          Alcotest.test_case "lifo/fifo" `Quick test_deque_lifo_fifo;
          Alcotest.test_case "growth + wraparound" `Quick test_deque_growth_wraparound;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "aggregates" `Quick test_statistics;
          Alcotest.test_case "geomean rejects non-positive" `Quick
            test_statistics_geomean_rejects_nonpositive;
        ] );
      ( "schedule_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_schedule_io_roundtrip;
          Alcotest.test_case "mismatch rejected" `Quick test_schedule_io_rejects_mismatch;
        ] );
      ( "superstep_merge",
        [
          Alcotest.test_case "collapses chain" `Quick test_superstep_merge_collapses_chain;
          Alcotest.test_case "blocked by cross edge" `Quick
            test_superstep_merge_blocked_by_cross_edge;
          Alcotest.test_case "folds a non-empty phase" `Quick test_superstep_merge_folds_phase;
          prop_superstep_merge_never_worse;
          prop_superstep_merge_matches_reference;
        ] );
    ]
