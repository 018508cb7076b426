let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let test_bspg_diamond () =
  let dag = Test_util.diamond () in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  let s = Bspg.schedule m dag in
  check_bool "valid" true (Validity.is_valid m s);
  (* All four nodes must be assigned. *)
  Array.iter (fun q -> check_bool "assigned" true (q >= 0)) s.Schedule.proc

let test_bspg_single_proc () =
  let dag = Test_util.chain 5 in
  let m = Machine.uniform ~p:1 ~g:1 ~l:5 in
  let s = Bspg.schedule m dag in
  check "single superstep" 1 (Schedule.num_supersteps s);
  check "cost = work + l" (5 + 5) (Bsp_cost.total m s)

let test_bspg_independent_nodes_balanced () =
  (* 8 equal independent nodes on 4 processors: a single superstep with
     balanced work is reachable greedily. *)
  let dag =
    Dag.of_edges ~n:8 ~edges:[] ~work:(Array.make 8 3) ~comm:(Array.make 8 1)
  in
  let m = Machine.uniform ~p:4 ~g:1 ~l:2 in
  let s = Bspg.schedule m dag in
  check "one superstep" 1 (Schedule.num_supersteps s);
  check "cost" (6 + 2) (Bsp_cost.total m s)

let test_source_first_superstep_clusters () =
  (* Sources 0 and 1 share the successor 2; source 3 is independent with
     successor 4. Clustering must co-locate 0 and 1. *)
  let dag =
    Dag.of_edges ~n:5
      ~edges:[ (0, 2); (1, 2); (3, 4) ]
      ~work:(Array.make 5 1) ~comm:(Array.make 5 1)
  in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  let s = Source_heuristic.schedule m dag in
  check_bool "valid" true (Validity.is_valid m s);
  check "clustered" s.Schedule.proc.(0) s.Schedule.proc.(1)

let test_source_absorbs_successors () =
  (* On a chain, each superstep absorbs exactly one direct successor of
     its source (absorption does not cascade further), so a 6-chain
     needs 3 supersteps of two processor-local nodes each instead of 6
     singleton supersteps. *)
  let dag = Test_util.chain 6 in
  let m = Machine.uniform ~p:4 ~g:1 ~l:1 in
  let s = Source_heuristic.schedule m dag in
  check "three supersteps" 3 (Schedule.num_supersteps s);
  check "pairs co-located" s.Schedule.proc.(0) s.Schedule.proc.(1);
  check "pairs co-located" s.Schedule.proc.(2) s.Schedule.proc.(3)

let test_source_round_robin_balances () =
  let dag =
    Dag.of_edges ~n:6 ~edges:[] ~work:[| 6; 5; 4; 3; 2; 1 |] ~comm:(Array.make 6 1)
  in
  let m = Machine.uniform ~p:2 ~g:1 ~l:0 in
  let s = Source_heuristic.schedule m dag in
  (* Clustering is trivial (no shared successors): round-robin by
     decreasing weight gives loads 6+4+2 vs 5+3+1 -> work max 12. *)
  check "balanced-ish" 12 (Bsp_cost.total m s)

(* Properties: both heuristics always produce valid schedules, and
   assign every node exactly once. *)
let prop_heuristics_valid =
  Test_util.qtest ~count:80 "heuristics valid"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (Test_util.arb_machine ()))
    (fun (dag, m) ->
      let check_sched s =
        Validity.is_valid m s
        && Array.for_all (fun q -> q >= 0 && q < m.Machine.p) s.Schedule.proc
        && Array.for_all (fun st -> st >= 0) s.Schedule.step
      in
      check_sched (Bspg.schedule m dag) && check_sched (Source_heuristic.schedule m dag))

(* BSPg should never be worse than executing everything sequentially
   with a superstep per node (a very weak but absolute sanity bound). *)
let prop_bspg_sane_cost =
  Test_util.qtest ~count:60 "bspg cost sane"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (Test_util.arb_machine ()))
    (fun (dag, m) ->
      let s = Bspg.schedule m dag in
      let worst = Dag.total_work dag + (Dag.n dag * m.Machine.l) + (m.Machine.g * Dag.total_comm dag * Machine.max_lambda m * m.Machine.p) in
      Bsp_cost.total m s <= max worst 1)

(* Differential check of the incremental BSPg against the first,
   quadratic implementation (bspg_reference.ml): the schedule text must
   be identical on tie-heavy DAGs (Test_util.arb_tie_dag). *)
let prop_bspg_matches_reference =
  Test_util.qtest ~count:400 "bspg matches reference"
    QCheck2.Gen.(pair Test_util.arb_tie_dag Test_util.arb_diff_machine)
    (fun (dag, m) ->
      Schedule_io.to_string (Bspg.schedule m dag)
      = Schedule_io.to_string (Bspg_reference.schedule m dag))

(* Differential check of the array-based Source against the first
   implementation (source_reference.ml): the schedule text must be
   identical. Besides the tie DAGs above, deep DAGs whose edges mostly
   join near ids give long chains and so many supersteps, with
   absorption (a successor whose predecessors share a processor) on
   most of them. *)
let arb_deep_dag =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 200 in
    let* reach = int_range 1 4 in
    let rng = Rng.create seed in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to min (n - 1) (u + reach) do
        if Rng.bernoulli rng 0.5 then edges := (u, v) :: !edges
      done;
      if u + 1 < n && Rng.bernoulli rng 0.05 then
        edges := (u, u + 1 + Rng.int rng (n - u - 1)) :: !edges
    done;
    let work = Array.init n (fun _ -> Rng.int rng 5) in
    let comm = Array.init n (fun _ -> Rng.int rng 4) in
    return (Dag.of_edges ~n ~edges:!edges ~work ~comm))

let prop_source_matches_reference =
  Test_util.qtest ~count:400 "source matches reference"
    QCheck2.Gen.(pair (oneof [ Test_util.arb_tie_dag; arb_deep_dag ]) Test_util.arb_diff_machine)
    (fun (dag, m) ->
      Schedule_io.to_string (Source_heuristic.schedule m dag)
      = Schedule_io.to_string (Source_reference.schedule m dag))

(* Golden outputs: the exact [Schedule_io.to_string] text of every
   initialiser and baseline on two generated DAGs, pinned as an MD5
   digest next to the BSP cost. Adjacency must be visited in ascending
   id order: BSPg's score sums floats in predecessor order and its
   tie-break depends on the exact sum, so a change of visiting order or
   of any tie-break shows up here. *)
let golden_dags =
  [
    ( "spmv",
      Finegrained.generate_sized (Rng.create 16) ~family:Finegrained.Spmv
        ~shape:Finegrained.Wide ~target:400 );
    ( "exp",
      Finegrained.generate_sized (Rng.create 16) ~family:Finegrained.Exp
        ~shape:Finegrained.Wide ~target:400 );
  ]

let golden_machines =
  [
    ("p4", Machine.uniform ~p:4 ~g:3 ~l:5);
    ("p8-numa", Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:2);
  ]

let golden_algorithms =
  [
    ("bspg", Bspg.schedule);
    ("source", Source_heuristic.schedule);
    ("cilk", fun m dag -> Cilk.schedule dag ~p:m.Machine.p ~seed:1);
    ("hdagg", fun m dag -> Hdagg.schedule m dag);
    ("bl-est", List_scheduler.schedule List_scheduler.Bl_est);
    ("etf", List_scheduler.schedule List_scheduler.Etf);
  ]

let golden =
  [
    ("spmv", "p4", "bspg", 277, "067a650674b93941482b6cb6a0bd9048");
    ("spmv", "p4", "source", 235, "ab65e4983039d51982a7c6cdc7c90be9");
    ("spmv", "p4", "cilk", 460, "7f68aca4f4c5c02a0da8434e7591e8c2");
    ("spmv", "p4", "hdagg", 285, "b384cb050ef3332ad2679428448b9a26");
    ("spmv", "p4", "bl-est", 427, "6e026f125d33b1d20bc8ab4e28340e65");
    ("spmv", "p4", "etf", 402, "8c6e3ba66f3991a75d8d216e5db9a7b2");
    ("spmv", "p8-numa", "bspg", 178, "da385c90b9ae503804be4ae1c22fa0d2");
    ("spmv", "p8-numa", "source", 155, "237d5b068ff47782546622706e313f3b");
    ("spmv", "p8-numa", "cilk", 370, "a318e98df585ee90bc360bd7a71d705d");
    ("spmv", "p8-numa", "hdagg", 177, "d293d332fd11df09eb694add5ac75a71");
    ("spmv", "p8-numa", "bl-est", 283, "55231297740a216c4fab1a6f6944dae7");
    ("spmv", "p8-numa", "etf", 296, "701110aa6f8a98e7e585c2fc669f3eff");
    ("exp", "p4", "bspg", 361, "41fe68ecf1a5d8367eec78823eeab932");
    ("exp", "p4", "source", 394, "d6c78b60a2827c8926f0b238c392a726");
    ("exp", "p4", "cilk", 615, "4a5d8fd29d64c9e6317520ca7443afc0");
    ("exp", "p4", "hdagg", 389, "90e3eef5aa201cf4c69aa01d59f029ec");
    ("exp", "p4", "bl-est", 537, "bb796a136aa1264a973a5808395e8612");
    ("exp", "p4", "etf", 577, "adad9e00ad0a2e079f6d2762841252b0");
    ("exp", "p8-numa", "bspg", 261, "5c4a8ca6b90c1f072c44ae49e24527ef");
    ("exp", "p8-numa", "source", 279, "d9810bc4e82fc6ccf71da0b2461ad3ca");
    ("exp", "p8-numa", "cilk", 462, "ed51c75021640d0b9ddcc1dfa115d519");
    ("exp", "p8-numa", "hdagg", 248, "01b1d5f96d20b4449841c5cdeb51b420");
    ("exp", "p8-numa", "bl-est", 406, "1d7e6cd0a97e479298b13ad9c6226424");
    ("exp", "p8-numa", "etf", 424, "fde8d50644ab58efc9712bbd21283052");
  ]

let check_golden algorithms rows =
  List.iter
    (fun (dn, mn, an, cost, digest) ->
      let dag = List.assoc dn golden_dags and m = List.assoc mn golden_machines in
      let s = (List.assoc an algorithms) m dag in
      let name = Printf.sprintf "%s %s %s" dn mn an in
      check (name ^ " cost") cost (Bsp_cost.total m s);
      Alcotest.(check string)
        (name ^ " schedule digest") digest
        (Digest.to_hex (Digest.string (Schedule_io.to_string s))))
    rows

let test_golden_schedules () = check_golden golden_algorithms golden

(* The same pinning for two stages whose inner loops are tuned for
   speed: HCcs on the lazy BSPg schedule (unlimited budget), and the
   multilevel pipeline under step-only limits (no wall-clock cap, so the
   result is deterministic). Its coarse solves run ILPinit, and its
   polish runs ILPcs, on the simplex; ILPfull and ILPpart are gated off
   because at these sizes they take seconds. *)
let golden_ml_limits =
  {
    Pipeline.thorough_limits with
    Pipeline.hc_evals = 100_000;
    hccs_evals = 20_000;
    ilp_full_max_vars = 0;
    ilp_part_max_vars = 0;
    ilp_init_nodes = 20;
    ilp_cs_nodes = 10;
    stage_seconds = None;
  }

let golden_stages =
  [
    ( "hccs",
      fun m dag ->
        fst (Hccs.improve m (Schedule.with_lazy_comm (Bspg.schedule m dag))) );
    ("multilevel", fun m dag -> Pipeline.run_multilevel ~limits:golden_ml_limits m dag);
  ]

let golden_stage_results =
  [
    ("spmv", "p4", "hccs", 277, "067a650674b93941482b6cb6a0bd9048");
    ("spmv", "p4", "multilevel", 445, "aff7069203582641ee8d6f49a57e236d");
    ("spmv", "p8-numa", "hccs", 178, "da385c90b9ae503804be4ae1c22fa0d2");
    ("spmv", "p8-numa", "multilevel", 318, "06883041d3843c1f6ea3b61c1bc10c3e");
    ("exp", "p4", "hccs", 355, "4070bbca68b4c68be8b807611dc4e140");
    ("exp", "p4", "multilevel", 509, "bc3145762232888c931d561c3c5e0f21");
    ("exp", "p8-numa", "hccs", 246, "92594fa872652d891dbf249ebb35e5ed");
    ("exp", "p8-numa", "multilevel", 509, "3e7c564b237f42cdd83110ff66d7f937");
  ]

let test_golden_stages () = check_golden golden_stages golden_stage_results

let () =
  Alcotest.run "heuristics"
    [
      ( "bspg",
        [
          Alcotest.test_case "diamond" `Quick test_bspg_diamond;
          Alcotest.test_case "single processor" `Quick test_bspg_single_proc;
          Alcotest.test_case "independent nodes balanced" `Quick
            test_bspg_independent_nodes_balanced;
        ] );
      ( "source",
        [
          Alcotest.test_case "first superstep clusters" `Quick
            test_source_first_superstep_clusters;
          Alcotest.test_case "absorbs successors" `Quick test_source_absorbs_successors;
          Alcotest.test_case "round robin balances" `Quick test_source_round_robin_balances;
        ] );
      ( "property",
        [
          prop_heuristics_valid;
          prop_bspg_sane_cost;
          prop_bspg_matches_reference;
          prop_source_matches_reference;
        ] );
      ( "golden",
        [
          Alcotest.test_case "schedule text pinned" `Quick test_golden_schedules;
          Alcotest.test_case "hccs and multilevel pinned" `Quick test_golden_stages;
        ] );
    ]
