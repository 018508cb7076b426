(* Tests for the dataset materialisation and the multilevel driver on a
   shared coarsening. *)

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
      let dag = Hyperdag_io.read_file_auto path in
      check "same n" (Dag.n inst.Datasets.dag) (Dag.n dag);
      check "same edges" (Dag.num_edges inst.Datasets.dag) (Dag.num_edges dag))
    ds.Datasets.instances files;
  List.iter Sys.remove files;
  Unix.rmdir (Filename.concat dir "tiny");
  Unix.rmdir dir

(* The multilevel driver on one coarsening shared by both default
   ratios gives, per ratio, the schedule of the reference pass that
   coarsens to its own target. *)
let test_multilevel_shared_coarsening () =
  let rng = Rng.create 16 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:15 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:4 ~g:2 ~l:5 ~delta:4 in
  let solver mach d = Bspg.schedule mach d in
  let ratios = Multilevel.default_config.Multilevel.ratios in
  let contractions = Multilevel.coarsening ~ratios dag in
  List.iter
    (fun ratio ->
      let s =
        Multilevel.run_ratio ~contractions ~refine_interval:5 ~refine_moves:100 ~solver ~ratio
          m dag
      in
      check_bool "valid" true (Validity.is_valid m s);
      Alcotest.(check string)
        (Printf.sprintf "ratio %g = reference" ratio)
        (Schedule_io.to_string
           (Multilevel_reference.run_ratio ~refine_interval:5 ~refine_moves:100 ~solver ~ratio
              m dag))
        (Schedule_io.to_string s))
    ratios

let () =
  Alcotest.run "export_db"
    [
      ("database", [ Alcotest.test_case "write dataset" `Quick test_write_dataset ]);
      ( "multilevel",
        [
          Alcotest.test_case "shared coarsening = reference" `Quick
            test_multilevel_shared_coarsening;
        ] );
    ]
