let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let budget () = Budget.combine (Budget.steps 400) (Budget.seconds 10.0)

let small_machine = Machine.uniform ~p:2 ~g:2 ~l:3

let small_instance seed =
  let rng = Rng.create seed in
  Finegrained.spmv (Sparse_matrix.random rng ~n:5 ~q:0.3)

let test_full_improves_or_keeps () =
  let dag = small_instance 11 in
  let m = small_machine in
  let init = Bspg.schedule m dag in
  let improved, report =
    Ilp_schedulers.full ~budget:(budget ()) ~max_vars:2000 ~max_nodes:400 m init
  in
  check_bool "valid" true (Validity.is_valid m improved);
  check_bool "never worse" true
    (report.Ilp_schedulers.cost_after <= report.Ilp_schedulers.cost_before);
  check_bool "solved something" true (report.Ilp_schedulers.sub_solves = 1)

let test_full_gate_on_size () =
  let dag = small_instance 11 in
  let m = small_machine in
  let init = Bspg.schedule m dag in
  let same, report = Ilp_schedulers.full ~max_vars:10 m init in
  check "no solves" 0 report.Ilp_schedulers.sub_solves;
  check_bool "unchanged" true (same == init)

let test_part_monotone () =
  let rng = Rng.create 23 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:8 ~q:0.2) ~k:2 in
  let m = small_machine in
  let init = Bspg.schedule m dag in
  let improved, report =
    Ilp_schedulers.part ~budget:(budget ()) ~max_vars:200 ~max_nodes:120 m init
  in
  check_bool "valid" true (Validity.is_valid m improved);
  check_bool "never worse" true
    (report.Ilp_schedulers.cost_after <= report.Ilp_schedulers.cost_before);
  check_bool "covered intervals" true (report.Ilp_schedulers.sub_solves >= 1)

let test_init_valid () =
  let dag = small_instance 7 in
  let m = small_machine in
  let s = Ilp_schedulers.init ~budget:(budget ()) ~max_vars:160 ~max_nodes:120 m dag in
  check_bool "valid" true (Validity.is_valid m s);
  check_bool "all assigned" true (Array.for_all (fun q -> q >= 0) s.Schedule.proc)

let test_init_zero_budget_fallback () =
  (* With an exhausted budget every batch falls back; the result is the
     trivial-per-batch schedule, still valid. *)
  let dag = small_instance 7 in
  let m = small_machine in
  let s = Ilp_schedulers.init ~budget:(Budget.steps 0) m dag in
  check_bool "valid" true (Validity.is_valid m s)

(* Golden outputs of ILPinit: the exact [Schedule_io.to_string] text,
   pinned as an MD5 digest next to the BSP cost, for step budgets that
   run out at once (0), after one or a few B&B nodes (1, 6) or
   part-way through (120), and for one that never runs out (10,000, on
   40-node DAGs with one B&B node per batch: on 400 nodes it takes
   minutes). Once the budget is spent every later batch must take the
   same fallback whether or not its model is built. *)
let golden_dag family target =
  Finegrained.generate_sized (Rng.create 16) ~family ~shape:Finegrained.Wide ~target

let golden_dags =
  [
    ("spmv-400", golden_dag Finegrained.Spmv 400);
    ("exp-400", golden_dag Finegrained.Exp 400);
    ("spmv-40", golden_dag Finegrained.Spmv 40);
    ("exp-40", golden_dag Finegrained.Exp 40);
  ]

let golden_machines =
  [
    ("p4", Machine.uniform ~p:4 ~g:3 ~l:5);
    ("p8-numa", Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:2);
  ]

(* (dag, machine, step budget, B&B nodes per batch, cost, digest) *)
let golden =
  [
    ("spmv-400", "p4", 0, 120, 1112, "2c862064aa32bc9dac92a9db14c7c67d");
    ("spmv-400", "p4", 1, 120, 1112, "2c862064aa32bc9dac92a9db14c7c67d");
    ("spmv-400", "p4", 120, 120, 1128, "29a4ede0143d0dcab67e605ddf776c8f");
    ("spmv-400", "p8-numa", 0, 120, 2437, "c0da74a50cbcc87ee05c01201a3f934e");
    ("spmv-400", "p8-numa", 1, 120, 2437, "c0da74a50cbcc87ee05c01201a3f934e");
    ("spmv-400", "p8-numa", 6, 120, 2437, "c0da74a50cbcc87ee05c01201a3f934e");
    ("exp-400", "p4", 0, 120, 1216, "35b3094e25006f5b38adb4cd9be454da");
    ("exp-400", "p4", 1, 120, 1216, "35b3094e25006f5b38adb4cd9be454da");
    ("exp-400", "p4", 120, 120, 1222, "fc38fec6c4fa84f23266eabbb5393833");
    ("exp-400", "p8-numa", 0, 120, 2636, "02c48a417e77036346c94cab87b34e74");
    ("exp-400", "p8-numa", 1, 120, 2636, "02c48a417e77036346c94cab87b34e74");
    ("exp-400", "p8-numa", 6, 120, 2636, "02c48a417e77036346c94cab87b34e74");
    ("spmv-40", "p4", 10_000, 1, 112, "986904eb18d963f4d146bf7b6a60d73b");
    ("exp-40", "p4", 10_000, 1, 111, "252742a7070357385c84f79c487b3030");
  ]

let test_init_golden () =
  List.iter
    (fun (dn, mn, steps, max_nodes, cost, digest) ->
      let dag = List.assoc dn golden_dags and m = List.assoc mn golden_machines in
      let s =
        Ilp_schedulers.init ~budget:(Budget.steps steps) ~max_vars:160 ~max_nodes m dag
      in
      let name = Printf.sprintf "%s %s budget %d" dn mn steps in
      check (name ^ " cost") cost (Bsp_cost.total m s);
      Alcotest.(check string)
        (name ^ " schedule digest") digest
        (Digest.to_hex (Digest.string (Schedule_io.to_string s))))
    golden

(* A spent budget skips every batch's model: not one B&B solve runs. *)
let test_init_spent_budget_solves_nothing () =
  let r = Obs.Metrics.create () in
  let _ =
    Obs.Metrics.with_registry r (fun () ->
        Ilp_schedulers.init ~budget:(Budget.steps 0) ~max_vars:160 ~max_nodes:120
          (List.assoc "p8-numa" golden_machines)
          (List.assoc "exp-400" golden_dags))
  in
  check "no solves" 0 (Obs.Metrics.counter_value r "bb.solves")

let test_comm_schedule_monotone () =
  let rng = Rng.create 31 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:10 ~q:0.2) ~k:3 in
  let m = Machine.uniform ~p:4 ~g:3 ~l:2 in
  let level = Dag.wavefronts dag in
  let proc = Array.init (Dag.n dag) (fun v -> v mod 4) in
  let sched = Schedule.of_assignment dag ~proc ~step:level in
  let improved, report =
    Ilp_schedulers.comm_schedule ~budget:(budget ()) ~max_vars:300 ~max_nodes:300 m sched
  in
  check_bool "valid" true (Validity.is_valid m improved);
  check_bool "never worse" true
    (report.Ilp_schedulers.cost_after <= report.Ilp_schedulers.cost_before)

let test_comm_schedule_matches_hccs_space () =
  (* On the HCcs unit example, ILPcs must find at least the same gain. *)
  let dag =
    Dag.of_edges ~n:6
      ~edges:[ (0, 3); (1, 4); (2, 5) ]
      ~work:(Array.make 6 1) ~comm:[| 4; 1; 4; 1; 1; 1 |]
  in
  let m = Machine.uniform ~p:4 ~g:2 ~l:1 in
  let s =
    Schedule.of_assignment dag ~proc:[| 0; 0; 2; 1; 1; 3 |] ~step:[| 0; 0; 0; 2; 2; 1 |]
  in
  let improved, report = Ilp_schedulers.comm_schedule ~budget:(budget ()) m s in
  check_bool "valid" true (Validity.is_valid m improved);
  check_bool "found the gain" true
    (report.Ilp_schedulers.cost_before - report.Ilp_schedulers.cost_after >= 2)

(* Property: the interval engine never invalidates or worsens a schedule
   regardless of DAG/machine (acceptance is checked on true cost). *)
let prop_part_safe =
  Test_util.qtest ~count:25 "ilppart safe"
    QCheck2.Gen.(pair (Test_util.arb_dag ~max_n:14 ()) (pair (Test_util.arb_machine ~max_p:4 ()) (int_bound 10_000)))
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let level = Dag.wavefronts dag in
      let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng m.Machine.p) in
      let s = Schedule.of_assignment dag ~proc ~step:level in
      let improved, report =
        Ilp_schedulers.part ~budget:(Budget.steps 60) ~max_vars:150 ~max_nodes:40 m s
      in
      Validity.is_valid m improved
      && report.Ilp_schedulers.cost_after <= report.Ilp_schedulers.cost_before)

(* The count-based gates decide exactly what the stages do: ILPfull is
   idle iff it runs no sub-solve, and ILPpart is idle iff it runs no
   sub-solve and returns its (lazy) input, which it does unless a
   compaction changes the schedule. Steps with and without gaps and
   caps from tiny to ample put cases on both sides of each gate. *)
let prop_noop_gates_match_stages =
  Test_util.qtest ~count:60 "ilp stage gates = stage behaviour"
    QCheck2.Gen.(
      pair (Test_util.arb_dag ~max_n:14 ())
        (pair (Test_util.arb_machine ~max_p:4 ()) (pair (int_bound 10_000) (int_bound 3))))
    (fun (dag, (m, (seed, cap))) ->
      let rng = Rng.create seed in
      let level = Dag.wavefronts dag in
      let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng m.Machine.p) in
      let gaps = Rng.bool rng in
      let step =
        if gaps then Array.map (fun l -> (l * (1 + Rng.int rng 2)) + Rng.int rng 2) level
        else level
      in
      let s = Schedule.of_assignment dag ~proc ~step in
      let max_vars = List.nth [ 1; 4; 40; 400 ] cap in
      let part_result, part_report =
        Ilp_schedulers.part ~budget:(Budget.steps 4) ~max_vars ~max_nodes:2 m s
      in
      let _, full_report =
        Ilp_schedulers.full ~budget:(Budget.steps 4) ~max_vars ~max_nodes:2 m s
      in
      Ilp_schedulers.full_is_noop ~max_vars m s = (full_report.Ilp_schedulers.sub_solves = 0)
      && Ilp_schedulers.part_is_noop ~max_vars m s
         = (part_report.Ilp_schedulers.sub_solves = 0
           && Schedule.used_supersteps s = Schedule.num_supersteps s)
      && ((not (Ilp_schedulers.part_is_noop ~max_vars m s)) || part_result == s))

let prop_comm_schedule_safe =
  Test_util.qtest ~count:25 "ilpcs safe"
    QCheck2.Gen.(pair (Test_util.arb_dag ~max_n:16 ()) (pair (Test_util.arb_machine ~max_p:4 ()) (int_bound 10_000)))
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let level = Dag.wavefronts dag in
      let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng m.Machine.p) in
      let s = Schedule.of_assignment dag ~proc ~step:level in
      let improved, report =
        Ilp_schedulers.comm_schedule ~budget:(Budget.steps 80) ~max_vars:120
          ~max_nodes:60 m s
      in
      Validity.is_valid m improved
      && report.Ilp_schedulers.cost_after <= report.Ilp_schedulers.cost_before)

let () =
  Alcotest.run "ilp_sched"
    [
      ( "unit",
        [
          Alcotest.test_case "ilpfull improves or keeps" `Quick test_full_improves_or_keeps;
          Alcotest.test_case "ilpfull size gate" `Quick test_full_gate_on_size;
          Alcotest.test_case "ilppart monotone" `Quick test_part_monotone;
          Alcotest.test_case "ilpinit valid" `Quick test_init_valid;
          Alcotest.test_case "ilpinit fallback" `Quick test_init_zero_budget_fallback;
          Alcotest.test_case "ilpcs monotone" `Quick test_comm_schedule_monotone;
          Alcotest.test_case "ilpcs finds hccs gain" `Quick
            test_comm_schedule_matches_hccs_space;
        ] );
      ( "golden",
        [
          Alcotest.test_case "ilpinit schedule text pinned" `Quick test_init_golden;
          Alcotest.test_case "ilpinit spent budget solves nothing" `Quick
            test_init_spent_budget_solves_nothing;
        ] );
      ( "property",
        [ prop_part_safe; prop_noop_gates_match_stages; prop_comm_schedule_safe ] );
    ]
