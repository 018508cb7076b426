let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let machine_p p = Machine.uniform ~p ~g:2 ~l:3

let test_cilk_deterministic () =
  let rng = Rng.create 5 in
  let dag = Test_util.random_dag rng ~n:40 ~edge_prob:0.15 ~max_w:4 ~max_c:3 in
  let a = Cilk.run dag ~p:4 ~seed:42 in
  let b = Cilk.run dag ~p:4 ~seed:42 in
  Alcotest.(check (array int)) "same procs" a.Classical.proc b.Classical.proc;
  Alcotest.(check (array int)) "same seq" a.Classical.seq b.Classical.seq

let test_cilk_single_proc () =
  let dag = Test_util.diamond () in
  let s = Cilk.schedule dag ~p:1 ~seed:0 in
  check "one superstep" 1 (Schedule.num_supersteps s);
  check_bool "valid" true (Validity.is_valid (machine_p 1) s)

let test_cilk_uses_all_processors () =
  (* 16 independent nodes on 4 processors: stealing must spread work. *)
  let dag =
    Dag.of_edges ~n:16 ~edges:[] ~work:(Array.make 16 10) ~comm:(Array.make 16 1)
  in
  let cl = Cilk.run dag ~p:4 ~seed:7 in
  let used = Array.make 4 false in
  Array.iter (fun q -> used.(q) <- true) cl.Classical.proc;
  check_bool "all processors used" true (Array.for_all Fun.id used)

let test_cilk_seq_respects_precedence () =
  let rng = Rng.create 9 in
  let dag = Test_util.random_dag rng ~n:30 ~edge_prob:0.2 ~max_w:3 ~max_c:3 in
  let cl = Cilk.run dag ~p:3 ~seed:1 in
  Dag.iter_edges dag (fun u v ->
      check_bool "pred first" true (cl.Classical.seq.(u) < cl.Classical.seq.(v)))

let test_list_schedulers_chain () =
  (* A chain must stay on one processor under both list schedulers: any
     migration only delays the start. *)
  let dag = Test_util.chain 6 in
  let m = machine_p 4 in
  List.iter
    (fun variant ->
      let cl = List_scheduler.run variant m dag in
      let q = cl.Classical.proc.(0) in
      Array.iter (fun q' -> check "chain stays put" q q') cl.Classical.proc)
    [ List_scheduler.Bl_est; List_scheduler.Etf ]

let test_list_scheduler_parallel_work () =
  (* Independent heavy nodes spread across processors. *)
  let dag =
    Dag.of_edges ~n:8 ~edges:[] ~work:(Array.make 8 10) ~comm:(Array.make 8 1)
  in
  let m = machine_p 4 in
  List.iter
    (fun variant ->
      let cl = List_scheduler.run variant m dag in
      let loads = Array.make 4 0 in
      Array.iteri (fun v q -> loads.(q) <- loads.(q) + Dag.work dag v) cl.Classical.proc;
      Array.iter (fun load -> check "balanced" 20 load) loads)
    [ List_scheduler.Bl_est; List_scheduler.Etf ]

let test_hdagg_respects_wavefronts () =
  let dag = Test_util.diamond () in
  let m = machine_p 2 in
  let s = Hdagg.schedule ~aggregate:false m dag in
  Alcotest.(check (array int)) "steps = wavefronts" (Dag.wavefronts dag) s.Schedule.step;
  check_bool "valid" true (Validity.is_valid m s)

let test_hdagg_aggregation_never_worse () =
  let rng = Rng.create 17 in
  let dag = Test_util.random_dag rng ~n:40 ~edge_prob:0.1 ~max_w:4 ~max_c:3 in
  let m = machine_p 4 in
  let plain = Hdagg.schedule ~aggregate:false m dag in
  let agg = Hdagg.schedule ~aggregate:true m dag in
  check_bool "aggregate <= plain" true
    (Bsp_cost.total m agg <= Bsp_cost.total m plain);
  check_bool "valid" true (Validity.is_valid m agg)

(* Property: every baseline produces a valid BSP schedule on random
   DAGs and machines. *)
let prop_baselines_valid =
  Test_util.qtest ~count:60 "baselines valid"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (pair (Test_util.arb_machine ()) (int_bound 1000)))
    (fun (dag, (m, seed)) ->
      let p = m.Machine.p in
      Validity.is_valid m (Cilk.schedule dag ~p ~seed)
      && Validity.is_valid m (List_scheduler.schedule List_scheduler.Bl_est m dag)
      && Validity.is_valid m (List_scheduler.schedule List_scheduler.Etf m dag)
      && Validity.is_valid m (Hdagg.schedule m dag)
      && Validity.is_valid m (Schedule.trivial dag))

(* Differential checks against the first implementation
   (baselines_reference.ml): the flat-array Cilk, HDagg and classical
   conversion must give the same schedule text on tie-heavy DAGs. *)
let text = Schedule_io.to_string

let prop_cilk_matches_reference =
  Test_util.qtest ~count:300 "cilk matches reference"
    QCheck2.Gen.(pair Test_util.arb_tie_dag (pair Test_util.arb_diff_machine (int_bound 1000)))
    (fun (dag, (m, seed)) ->
      let p = m.Machine.p in
      List.for_all
        (fun seed ->
          text (Cilk.schedule dag ~p ~seed)
          = text (Baselines_reference.Cilk.schedule dag ~p ~seed))
        [ seed; seed + 1; seed + 2 ])

(* HDagg orders each wavefront by work one byte at a time, so the same
   DAGs also run with their works scaled to three bytes. *)
let prop_hdagg_matches_reference =
  Test_util.qtest ~count:300 "hdagg matches reference"
    QCheck2.Gen.(pair Test_util.arb_tie_dag Test_util.arb_diff_machine)
    (fun (dag, m) ->
      let scaled =
        Dag.map_weights dag ~work:(fun v -> Dag.work dag v * 100_003) ~comm:(Dag.comm dag)
      in
      List.for_all
        (fun (dag, aggregate) ->
          text (Hdagg.schedule ~aggregate m dag)
          = text (Baselines_reference.Hdagg.schedule ~aggregate m dag))
        [ (dag, true); (dag, false); (scaled, true); (scaled, false) ])

(* ETF and BL-EST reach BSP through the conversion alone. *)
let prop_list_schedulers_match_reference =
  Test_util.qtest ~count:300 "etf and bl-est conversion matches reference"
    QCheck2.Gen.(pair Test_util.arb_tie_dag Test_util.arb_diff_machine)
    (fun (dag, m) ->
      List.for_all
        (fun variant ->
          let cl = List_scheduler.run variant m dag in
          text (Classical.to_bsp dag cl) = text (Baselines_reference.Classical.to_bsp dag cl))
        [ List_scheduler.Bl_est; List_scheduler.Etf ])

(* Allocation on spmv-1500 (generator seed 7) at p = 8, the size of the
   serve benchmark's inputs, as the least of a few warm calls: a fixed
   number of words per node, the returned schedule (about 11,000)
   included. Cilk reads about 20,900 words on its 1,524 nodes and HDagg
   24,600 (the first implementation: 74,000 and 90,800). *)
let alloc_dag =
  lazy
    (Finegrained.generate_sized (Rng.create 7) ~family:Finegrained.Spmv
       ~shape:Finegrained.Wide ~target:1500)

let check_alloc name ~per_node run =
  let dag = Lazy.force alloc_dag in
  let n = Dag.n dag in
  let words = Test_util.min_allocated_words (fun () -> ignore (run dag : Schedule.t)) in
  check_bool
    (Printf.sprintf "%s allocates %d words on %d nodes, bound %d per node" name words n
       per_node)
    true (words <= per_node * n)

let test_cilk_alloc () =
  check_alloc "Cilk.schedule" ~per_node:16 (fun dag -> Cilk.schedule dag ~p:8 ~seed:1)

let test_hdagg_alloc () =
  let m = Machine.uniform ~p:8 ~g:3 ~l:5 in
  check_alloc "Hdagg.schedule" ~per_node:19 (fun dag -> Hdagg.schedule m dag)

let () =
  Alcotest.run "baselines"
    [
      ( "cilk",
        [
          Alcotest.test_case "deterministic" `Quick test_cilk_deterministic;
          Alcotest.test_case "single processor" `Quick test_cilk_single_proc;
          Alcotest.test_case "stealing spreads work" `Quick test_cilk_uses_all_processors;
          Alcotest.test_case "sequence respects precedence" `Quick
            test_cilk_seq_respects_precedence;
        ] );
      ( "list",
        [
          Alcotest.test_case "chain stays put" `Quick test_list_schedulers_chain;
          Alcotest.test_case "independent work spreads" `Quick
            test_list_scheduler_parallel_work;
        ] );
      ( "hdagg",
        [
          Alcotest.test_case "wavefront steps" `Quick test_hdagg_respects_wavefronts;
          Alcotest.test_case "aggregation never worse" `Quick
            test_hdagg_aggregation_never_worse;
        ] );
      ("property", [ prop_baselines_valid ]);
      ( "reference",
        [
          prop_cilk_matches_reference;
          prop_hdagg_matches_reference;
          prop_list_schedulers_match_reference;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "Cilk.schedule words linear in n" `Quick test_cilk_alloc;
          Alcotest.test_case "Hdagg.schedule words linear in n" `Quick test_hdagg_alloc;
        ] );
    ]
