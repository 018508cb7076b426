(* Tests for the dataset materialisation and the alternative
   coarsening strategy. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_write_dataset () =
  let dir = Filename.temp_file "dagdb" "" in
  Sys.remove dir;
  let ds = Datasets.tiny ~scale:Datasets.Smoke ~seed:1 in
  let files = Datasets.write_dataset ~dir ds in
  check "one file per instance" (List.length ds.Datasets.instances) (List.length files);
  (* Every written file parses back to the same DAG. *)
  List.iter2
    (fun inst path ->
      let dag = Hyperdag_io.read_file path in
      check "same n" (Dag.n inst.Datasets.dag) (Dag.n dag);
      check "same edges" (Dag.num_edges inst.Datasets.dag) (Dag.num_edges dag))
    ds.Datasets.instances files;
  List.iter Sys.remove files;
  Unix.rmdir (Filename.concat dir "tiny");
  Unix.rmdir dir

let test_comm_matching_strategy () =
  let rng = Rng.create 15 in
  let dag = Test_util.random_dag rng ~n:30 ~edge_prob:0.15 ~max_w:4 ~max_c:4 in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to ~strategy:Coarsen.Comm_matching session ~target:10;
  let qdag, _ = Coarsen.quotient session in
  check_bool "reached target-ish" true (Dag.n qdag <= Dag.n dag);
  check_bool "acyclic" true (Dag.is_acyclic_edges ~n:(Dag.n qdag) (Dag.edges qdag));
  check "weights preserved" (Dag.total_work dag) (Dag.total_work qdag)

let prop_comm_matching_safe =
  Test_util.qtest ~count:40 "comm-matching coarsening safe"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (int_range 1 10))
    (fun (dag, target) ->
      let session = Coarsen.start dag in
      Coarsen.coarsen_to ~strategy:Coarsen.Comm_matching session ~target;
      let qdag, _ = Coarsen.quotient session in
      Dag.is_acyclic_edges ~n:(Dag.n qdag) (Dag.edges qdag)
      && Dag.total_work qdag = Dag.total_work dag
      && Dag.total_comm qdag = Dag.total_comm dag)

let test_multilevel_with_matching_strategy () =
  let rng = Rng.create 16 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:15 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:4 ~g:2 ~l:5 ~delta:4 in
  let solver mach d = Bspg.schedule mach d in
  let s =
    Multilevel.run_ratio ~strategy:Coarsen.Comm_matching ~refine_interval:5
      ~refine_moves:100 ~solver ~ratio:0.3 m dag
  in
  check_bool "valid" true (Validity.is_valid m s)

let () =
  Alcotest.run "export_db"
    [
      ("database", [ Alcotest.test_case "write dataset" `Quick test_write_dataset ]);
      ( "coarsen strategy",
        [
          Alcotest.test_case "matching" `Quick test_comm_matching_strategy;
          prop_comm_matching_safe;
          Alcotest.test_case "multilevel with matching" `Quick
            test_multilevel_with_matching_strategy;
        ] );
    ]
