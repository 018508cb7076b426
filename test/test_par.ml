let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Par primitives: the deterministic-reduction contract must hold at
   every jobs count, so each test exercises jobs = 1 and jobs = 4. *)

let at_jobs j f = Par.with_jobs j f

let test_map_matches_list_map () =
  List.iter
    (fun j ->
      List.iter
        (fun n ->
          let xs = List.init n (fun i -> i) in
          let expected = List.map (fun i -> (i * i) + 1) xs in
          let got = at_jobs j (fun () -> Par.map (fun i -> (i * i) + 1) xs) in
          check_bool
            (Printf.sprintf "map = List.map (jobs=%d, n=%d)" j n)
            true (got = expected))
        [ 0; 1; 2; 7; 64 ])
    [ 1; 4 ]

let test_map_results_positional () =
  (* Tasks may execute in any order; the returned list must still be in
     submission order. Record execution order to show the two differ at
     least sometimes without making the test depend on scheduling. *)
  let order = Atomic.make [] in
  let bump i =
    let rec loop () =
      let old = Atomic.get order in
      if not (Atomic.compare_and_set order old (i :: old)) then loop ()
    in
    loop ();
    i * 10
  in
  let xs = List.init 32 (fun i -> i) in
  let got = at_jobs 4 (fun () -> Par.map bump xs) in
  check_bool "results positional" true (got = List.map (fun i -> i * 10) xs);
  check "every task ran exactly once" 32 (List.length (Atomic.get order))

let test_nested_map () =
  (* A task that itself fans out must not deadlock and must stay
     deterministic: inner calls from worker domains degrade to
     sequential execution. *)
  let f i =
    let inner = Par.map (fun k -> k + i) [ 1; 2; 3 ] in
    List.fold_left ( + ) 0 inner
  in
  let expected = List.map f [ 0; 1; 2; 3; 4; 5 ] in
  let got = at_jobs 4 (fun () -> Par.map f [ 0; 1; 2; 3; 4; 5 ]) in
  check_bool "nested fan-out" true (got = expected)

let test_exception_lowest_index_wins () =
  List.iter
    (fun j ->
      let raised =
        try
          ignore
            (at_jobs j (fun () ->
                 Par.map
                   (fun i -> if i >= 3 then failwith (string_of_int i) else i)
                   [ 0; 1; 2; 3; 4; 5; 6; 7 ]));
          "no exception"
        with Failure msg -> msg
      in
      check_str (Printf.sprintf "first raiser by index (jobs=%d)" j) "3" raised)
    [ 1; 4 ]

let test_map_reduce_non_commutative () =
  (* String concatenation is non-commutative: left-to-right reduction in
     submission order is observable. *)
  List.iter
    (fun j ->
      let got =
        at_jobs j (fun () ->
            Par.map_reduce ~map:string_of_int
              ~reduce:(fun acc s -> acc ^ "," ^ s)
              ~init:"start"
              [ 3; 1; 4; 1; 5; 9; 2; 6 ])
      in
      check_str (Printf.sprintf "ordered reduce (jobs=%d)" j) "start,3,1,4,1,5,9,2,6" got)
    [ 1; 4 ]

let test_best_of_index_tie_break () =
  List.iter
    (fun j ->
      let got =
        at_jobs j (fun () ->
            Par.best_of
              ~cmp:(fun (a, _) (b, _) -> compare a b)
              (fun x -> x)
              [ (5, "a"); (3, "b"); (3, "c"); (7, "d"); (3, "e") ])
      in
      check_bool
        (Printf.sprintf "tie -> lowest submission index (jobs=%d)" j)
        true
        (got = (3, "b")))
    [ 1; 4 ];
  (try
     ignore (Par.best_of ~cmp:compare (fun x -> x) ([] : int list));
     Alcotest.fail "best_of accepted an empty list"
   with Invalid_argument _ -> ())

let test_chunk_size () =
  (* Tiny batches degenerate to chunk 1 so no drainer hoards tasks
     another domain could run. *)
  check "portfolio-sized batch -> 1" 1 (Par.chunk_size ~factor:4 ~jobs:4 ~count:4);
  check "count <= factor*jobs -> 1" 1 (Par.chunk_size ~factor:4 ~jobs:4 ~count:16);
  check "just above the knee" 1 (Par.chunk_size ~factor:4 ~jobs:4 ~count:17);
  check "exact division" 2 (Par.chunk_size ~factor:4 ~jobs:4 ~count:32);
  check "large batch" 62 (Par.chunk_size ~factor:4 ~jobs:4 ~count:1000);
  check "factor 1 = even split" 250 (Par.chunk_size ~factor:1 ~jobs:4 ~count:1000);
  check "factor clamped to >= 1" 10 (Par.chunk_size ~factor:0 ~jobs:1 ~count:10);
  check "jobs clamped to >= 1" 5 (Par.chunk_size ~factor:2 ~jobs:0 ~count:10);
  check "empty batch still >= 1" 1 (Par.chunk_size ~factor:4 ~jobs:4 ~count:0)

let test_last_chunk_recorded () =
  (* Every domain that drained the batch must report the batch's chunk
     size in its stats block. *)
  Par.reset_stats ();
  let expected = Par.chunk_size ~factor:Par.chunk_factor ~jobs:2 ~count:64 in
  ignore (at_jobs 2 (fun () -> Par.map (fun i -> i) (List.init 64 (fun i -> i))));
  let ds = Par.stats () in
  check_bool "some domain drained" true (ds <> []);
  List.iter
    (fun (d : Par.domain_stats) ->
      if d.Par.tasks_run > 0 then
        check
          (Printf.sprintf "last_chunk of domain %d" d.Par.domain_index)
          expected d.Par.last_chunk)
    ds

let test_with_jobs_restores () =
  Par.set_jobs 1;
  check "starts at 1" 1 (Par.jobs ());
  at_jobs 4 (fun () -> check "raised inside" 4 (Par.jobs ()));
  check "restored" 1 (Par.jobs ());
  (try at_jobs 4 (fun () -> failwith "boom") with Failure _ -> ());
  check "restored after exception" 1 (Par.jobs ());
  Par.set_jobs 0;
  check "set_jobs clamps to >= 1" 1 (Par.jobs ())

(* ------------------------------------------------------------------ *)
(* Par + Obs: child registries merge back deterministically. *)

let test_parallel_counters_merge () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.with_registry r (fun () ->
      at_jobs 4 (fun () ->
          ignore
            (Par.map
               (fun i ->
                 Obs.Metrics.counter "t.work" i;
                 i)
               (List.init 16 (fun i -> i)))));
  check "counters sum across children" (16 * 15 / 2)
    (Obs.Metrics.counter_value r "t.work")

let test_parallel_series_submission_order () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.with_registry r (fun () ->
      at_jobs 4 (fun () ->
          ignore
            (Par.map
               (fun i ->
                 Obs.Metrics.series_point "t.series" ~label:(string_of_int i)
                   (float_of_int i);
                 i)
               (List.init 12 (fun i -> i)))));
  let labels = List.map fst (Obs.Metrics.series_values r "t.series") in
  check_bool "series points in submission order" true
    (labels = List.init 12 string_of_int)

let test_parallel_spans_inherit_parent_path () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.with_registry r (fun () ->
      Obs.Metrics.with_span "outer" (fun () ->
          at_jobs 4 (fun () ->
              ignore
                (Par.map
                   (fun i -> Obs.Metrics.with_span "task" (fun () -> i))
                   [ 0; 1; 2; 3; 4; 5 ]))));
  let spans = Obs.Metrics.span_list r in
  let calls p =
    match List.find_opt (fun (s : Obs.Metrics.span_stats) -> s.path = p) spans with
    | Some s -> s.Obs.Metrics.calls
    | None -> 0
  in
  check "task spans nest under the open parent span" 6 (calls "outer/task");
  check "outer span closed once" 1 (calls "outer")

(* ------------------------------------------------------------------ *)
(* The pipeline at jobs = 1 vs jobs = 4: bit-identical results, and the
   observability accounting invariant survives the parallel merge. *)

(* Deterministic (no wall-clock caps) and cheap enough for QCheck. *)
let par_limits =
  {
    Experiment.default_options.Experiment.limits with
    Pipeline.hc_evals = 4_000;
    hccs_evals = 1_000;
    use_ilp = false;
    stage_seconds = None;
  }

let instance_of_seed seed =
  let rng = Rng.create seed in
  let n = 4 + (seed mod 5) in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n ~q:0.3) ~k:2 in
  let machine = Machine.uniform ~p:3 ~g:2 ~l:4 in
  (machine, dag)

let prop_pipeline_jobs_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8
       ~name:"Pipeline.run: jobs=4 returns identical stage costs to jobs=1"
       QCheck2.Gen.(int_range 1 1000)
       (fun seed ->
         let machine, dag = instance_of_seed seed in
         let s1, c1 = Par.with_jobs 1 (fun () -> Pipeline.run ~limits:par_limits machine dag) in
         let s4, c4 = Par.with_jobs 4 (fun () -> Pipeline.run ~limits:par_limits machine dag) in
         c1 = c4 && Bsp_cost.total machine s1 = Bsp_cost.total machine s4))

let prop_multilevel_jobs_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:6
       ~name:"Pipeline.run_multilevel: jobs=4 returns identical cost to jobs=1"
       QCheck2.Gen.(int_range 1 1000)
       (fun seed ->
         let machine, dag = instance_of_seed seed in
         let config = { Multilevel.default_config with Multilevel.ratios = [ 0.5; 0.3 ] } in
         let run () =
           Bsp_cost.total machine
             (Pipeline.run_multilevel ~limits:par_limits ~config machine dag)
         in
         Par.with_jobs 1 run = Par.with_jobs 4 run))

(* Mirrors test_obs's exact accounting test, but with the candidate
   chains fanned out over 4 domains: the per-span [steps_used] must
   still sum to exactly the engine counters after the child-registry
   merge. *)
let accounting_limits =
  {
    Experiment.default_options.Experiment.limits with
    Pipeline.hc_evals = 5_000_000;
    hccs_evals = 5_000_000;
    ilp_full_nodes = 1_500;
    ilp_cs_nodes = 200;
    stage_seconds = None;
  }

let accounting_instance () =
  let rng = Rng.create 7 in
  ( Machine.uniform ~p:3 ~g:2 ~l:4,
    Finegrained.exp (Sparse_matrix.random rng ~n:5 ~q:0.3) ~k:2 )

let test_parallel_steps_accounting () =
  let machine, dag = accounting_instance () in
  let r = Obs.Metrics.create () in
  let _ =
    Obs.Metrics.with_registry r (fun () ->
        at_jobs 4 (fun () -> Pipeline.run ~limits:accounting_limits machine dag))
  in
  let span_total =
    List.fold_left
      (fun acc (s : Obs.Metrics.span_stats) -> acc + s.Obs.Metrics.steps_used)
      0 (Obs.Metrics.span_list r)
  in
  let counter_total =
    Obs.Metrics.counter_value r "hc.moves_evaluated"
    + Obs.Metrics.counter_value r "hccs.moves_evaluated"
    + Obs.Metrics.counter_value r "bb.nodes_explored"
  in
  check_bool "pipeline did work" true (span_total > 0);
  check "span steps match engine counters under jobs=4" counter_total span_total

let test_registry_merge_matches_sequential () =
  (* Everything except wall-clock seconds must be identical between a
     sequential run and a parallel run merged from child registries. *)
  let machine, dag = accounting_instance () in
  let run j =
    let r = Obs.Metrics.create () in
    let _ =
      Obs.Metrics.with_registry r (fun () ->
          at_jobs j (fun () -> Pipeline.run ~limits:accounting_limits machine dag))
    in
    r
  in
  let r1 = run 1 and r4 = run 4 in
  let spans r =
    List.map
      (fun (s : Obs.Metrics.span_stats) -> (s.path, s.calls, s.steps_used))
      (Obs.Metrics.span_list r)
    |> List.sort compare
  in
  check_bool "span paths, calls and steps equal" true (spans r1 = spans r4);
  List.iter
    (fun c ->
      check (Printf.sprintf "counter %s equal" c) (Obs.Metrics.counter_value r1 c)
        (Obs.Metrics.counter_value r4 c))
    [ "hc.moves_evaluated"; "hccs.moves_evaluated"; "bb.nodes_explored" ];
  check_bool "best-cost trajectory equal" true
    (Obs.Metrics.series_values r1 "pipeline.best_cost"
    = Obs.Metrics.series_values r4 "pipeline.best_cost")

let () =
  Par.set_jobs 1;
  Alcotest.run "par"
    [
      ( "primitives",
        [
          Alcotest.test_case "map = List.map" `Quick test_map_matches_list_map;
          Alcotest.test_case "results positional" `Quick test_map_results_positional;
          Alcotest.test_case "nested fan-out" `Quick test_nested_map;
          Alcotest.test_case "exception: lowest index wins" `Quick
            test_exception_lowest_index_wins;
          Alcotest.test_case "map_reduce non-commutative" `Quick
            test_map_reduce_non_commutative;
          Alcotest.test_case "best_of index tie-break" `Quick
            test_best_of_index_tie_break;
          Alcotest.test_case "chunk sizing" `Quick test_chunk_size;
          Alcotest.test_case "last_chunk in stats" `Quick test_last_chunk_recorded;
          Alcotest.test_case "with_jobs restores" `Quick test_with_jobs_restores;
        ] );
      ( "obs-merge",
        [
          Alcotest.test_case "counters merge" `Quick test_parallel_counters_merge;
          Alcotest.test_case "series submission order" `Quick
            test_parallel_series_submission_order;
          Alcotest.test_case "spans inherit parent path" `Quick
            test_parallel_spans_inherit_parent_path;
        ] );
      ( "pipeline",
        [
          prop_pipeline_jobs_invariant;
          prop_multilevel_jobs_invariant;
          Alcotest.test_case "steps accounting exact under jobs=4" `Quick
            test_parallel_steps_accounting;
          Alcotest.test_case "registry merge matches sequential" `Quick
            test_registry_merge_matches_sequential;
        ] );
    ]
