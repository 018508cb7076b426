let check_bool = Alcotest.(check bool)

let fast_test_limits =
  {
    Experiment.default_options.Experiment.limits with
    Pipeline.hc_evals = 50_000;
    hccs_evals = 20_000;
    ilp_full_nodes = 200;
    ilp_part_nodes = 60;
    ilp_cs_nodes = 60;
  }

let test_pipeline_monotone_stages () =
  let rng = Rng.create 2 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:12 ~q:0.2) ~k:3 in
  let m = Machine.uniform ~p:4 ~g:3 ~l:5 in
  let sched, st = Pipeline.run ~limits:fast_test_limits m dag in
  check_bool "valid" true (Validity.is_valid m sched);
  check_bool "ls <= init" true (st.Pipeline.after_local_search <= st.Pipeline.init_cost);
  check_bool "ilp <= ls" true (st.Pipeline.after_ilp_part <= st.Pipeline.after_local_search);
  check_bool "final <= ilp" true (st.Pipeline.final_cost <= st.Pipeline.after_ilp_part);
  check_bool "final matches schedule" true
    (Bsp_cost.total m sched = st.Pipeline.final_cost)

let test_pipeline_beats_baselines_usually () =
  (* Not a universal theorem, but on this fixed seed/instance the
     framework must beat Cilk (the paper's headline behaviour). *)
  let rng = Rng.create 5 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:20 ~q:0.15) ~k:4 in
  let m = Machine.uniform ~p:4 ~g:3 ~l:5 in
  let _, st = Pipeline.run ~limits:fast_test_limits m dag in
  let cilk = Bsp_cost.total m (Cilk.schedule dag ~p:4 ~seed:1) in
  check_bool "beats cilk" true (st.Pipeline.final_cost < cilk)

let test_pipeline_single_processor () =
  let dag = Test_util.chain 6 in
  let m = Machine.uniform ~p:1 ~g:5 ~l:3 in
  let sched, st = Pipeline.run ~limits:fast_test_limits m dag in
  check_bool "valid" true (Validity.is_valid m sched);
  (* One processor: total work + one latency is optimal. *)
  Alcotest.(check int) "optimal" (6 + 3) st.Pipeline.final_cost

let test_pipeline_ilp_init_enabled () =
  let rng = Rng.create 7 in
  let dag = Finegrained.spmv (Sparse_matrix.random rng ~n:6 ~q:0.3) in
  let m = Machine.uniform ~p:4 ~g:1 ~l:5 in
  let limits = { fast_test_limits with Pipeline.use_ilp_init = true } in
  let sched, _ = Pipeline.run ~limits m dag in
  check_bool "valid" true (Validity.is_valid m sched)

let test_multilevel_pipeline () =
  let rng = Rng.create 9 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:15 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:4 in
  let ml = Pipeline.run_multilevel ~limits:fast_test_limits m dag in
  check_bool "valid" true (Validity.is_valid m ml);
  let contractions = Multilevel.coarsening ~ratios:[ 0.3 ] dag in
  let single =
    Pipeline.run_multilevel_ratio ~limits:fast_test_limits ~contractions ~ratio:0.3 m dag
  in
  check_bool "single ratio valid" true (Validity.is_valid m single)

(* A coarse solve is the pipeline without ILPcs: no ILPcs span opens
   below a ratio's coarse pipeline, while the polish of the uncoarsened
   schedule still runs it. *)
let test_multilevel_coarse_solves_skip_ilp_cs () =
  let rng = Rng.create 9 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:15 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:4 in
  let r = Obs.Metrics.create () in
  let ml =
    Obs.Metrics.with_registry r (fun () ->
        Pipeline.run_multilevel ~limits:fast_test_limits m dag)
  in
  check_bool "valid" true (Validity.is_valid m ml);
  let paths =
    List.map (fun (s : Obs.Metrics.span_stats) -> s.Obs.Metrics.path) (Obs.Metrics.span_list r)
  in
  let below_ratio p = Test_util.contains_substring p "multilevel:" in
  check_bool "coarse pipelines ran" true
    (List.exists (fun p -> below_ratio p && String.ends_with ~suffix:"/pipeline" p) paths);
  check_bool "no ILPcs in a coarse solve" false
    (List.exists
       (fun p -> below_ratio p && Test_util.contains_substring p "/pipeline/ilp_cs")
       paths);
  check_bool "ILPcs polish ran" true (List.mem "ilp_cs:polish" paths)

(* [ratios] replaces the default list: a single ratio runs exactly the
   single-ratio pipeline, and an empty list is refused. *)
let test_multilevel_ratios () =
  let rng = Rng.create 9 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:12 ~q:0.2) ~k:3 in
  let m = Machine.numa_tree ~p:4 ~g:1 ~l:5 ~delta:3 in
  let limits = { fast_test_limits with Pipeline.stage_seconds = None } in
  let contractions = Multilevel.coarsening ~ratios:[ 0.3 ] dag in
  Alcotest.(check string)
    "one ratio = run_multilevel_ratio"
    (Schedule_io.to_string
       (Pipeline.run_multilevel_ratio ~limits ~contractions ~ratio:0.3 m dag))
    (Schedule_io.to_string (Pipeline.run_multilevel ~limits ~ratios:[ 0.3 ] m dag));
  Alcotest.check_raises "no ratios"
    (Invalid_argument "Pipeline.run_multilevel: no ratios configured") (fun () ->
      ignore (Pipeline.run_multilevel ~limits ~ratios:[] m dag))

let test_experiment_evaluate () =
  let rng = Rng.create 11 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:10 ~q:0.2) ~k:2 in
  let m = Machine.uniform ~p:2 ~g:2 ~l:5 in
  let options =
    {
      Experiment.default_options with
      Experiment.limits = fast_test_limits;
      with_list_baselines = true;
      with_multilevel = true;
    }
  in
  let r = Experiment.evaluate options m dag in
  check_bool "ours <= hdagg or close" true (r.Experiment.ours > 0);
  check_bool "has list baselines" true
    (r.Experiment.bl_est <> None && r.Experiment.etf <> None);
  check_bool "has ml" true (Experiment.ml_best r <> None);
  check_bool "ml per ratio" true
    (List.length r.Experiment.multilevel
    = List.length Experiment.default_options.Experiment.ml_ratios);
  check_bool "stage final = ours" true
    (r.Experiment.stage.Pipeline.final_cost = r.Experiment.ours)

let test_aggregation_math () =
  Alcotest.(check (float 1e-9)) "ratio" 0.5 (Experiment.ratio 5 10);
  Alcotest.(check (float 1e-9)) "zero baseline" 1.0 (Experiment.ratio 0 0);
  Alcotest.(check (float 1e-9)) "reduction" 44.0 (Experiment.reduction_percent 0.56);
  Alcotest.(check (float 1e-9)) "geo mean" 2.0
    (Statistics.geometric_mean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Statistics.mean [ 1.0; 4.0 ])

let prop_pipeline_valid_and_never_worse_than_inits =
  Test_util.qtest ~count:12 "pipeline valid"
    QCheck2.Gen.(pair (Test_util.arb_dag ~max_n:18 ()) (Test_util.arb_machine ~max_p:4 ()))
    (fun (dag, m) ->
      let sched, st = Pipeline.run ~limits:fast_test_limits m dag in
      Validity.is_valid m sched && st.Pipeline.final_cost <= st.Pipeline.init_cost)

let () =
  Alcotest.run "pipeline"
    [
      ( "unit",
        [
          Alcotest.test_case "stage monotonicity" `Quick test_pipeline_monotone_stages;
          Alcotest.test_case "beats cilk on fixed instance" `Quick
            test_pipeline_beats_baselines_usually;
          Alcotest.test_case "single processor optimal" `Quick test_pipeline_single_processor;
          Alcotest.test_case "ilp-init enabled" `Quick test_pipeline_ilp_init_enabled;
          Alcotest.test_case "multilevel pipeline" `Quick test_multilevel_pipeline;
          Alcotest.test_case "multilevel ratios" `Quick test_multilevel_ratios;
          Alcotest.test_case "multilevel coarse solves skip ILPcs" `Quick
            test_multilevel_coarse_solves_skip_ilp_cs;
          Alcotest.test_case "experiment evaluate" `Quick test_experiment_evaluate;
          Alcotest.test_case "aggregation math" `Quick test_aggregation_math;
        ] );
      ("property", [ prop_pipeline_valid_and_never_worse_than_inits ]);
    ]
