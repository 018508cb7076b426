let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

(* Schedule_render *)

let test_render_contains_structure () =
  let dag = Test_util.diamond () in
  let m = Machine.uniform ~p:2 ~g:2 ~l:1 in
  let s = Schedule.of_assignment dag ~proc:[| 0; 0; 1; 1 |] ~step:[| 0; 1; 1; 2 |] in
  let text = Schedule_render.to_string m s in
  check_bool "mentions supersteps" true
    (Test_util.contains_substring text "superstep 0" && Test_util.contains_substring text "superstep 2");
  check_bool "mentions comm" true (Test_util.contains_substring text "comm:")

(* Machine_io *)

let test_machine_io_roundtrip () =
  let m = Machine.numa_tree ~p:8 ~g:3 ~l:7 ~delta:2 in
  let m2 = Machine_io.of_string (Machine_io.to_string m) in
  check "p" m.Machine.p m2.Machine.p;
  check "g" m.Machine.g m2.Machine.g;
  check "l" m.Machine.l m2.Machine.l;
  for i = 0 to 7 do
    for j = 0 to 7 do
      check "lambda" (Machine.lambda m i j) (Machine.lambda m2 i j)
    done
  done

let test_machine_io_presets () =
  let m = Machine_io.of_string "p 4\ng 2\nl 3\n" in
  check_bool "uniform" true (Machine.is_uniform m);
  let m2 = Machine_io.of_string "% tree\np 8\ng 1\nl 5\nnuma-tree 3\n" in
  check "tree coefficient" 9 (Machine.lambda m2 0 7)

let test_machine_io_errors () =
  let fails s = try ignore (Machine_io.of_string s); false with Failure _ -> true in
  check_bool "missing p" true (fails "g 1\n");
  check_bool "bad line" true (fails "processors 4\n");
  check_bool "both presets" true (fails "p 4\nnuma-tree 2\nlambda\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 1 0\n");
  check_bool "p mismatch" true (fails "p 3\nlambda\n0 1\n1 0\n");
  check_bool "nonzero diagonal" true (fails "lambda\n1 1\n1 0\n")

(* Random bytes and one-byte mutations of valid machine files: the
   parser only ever raises [Failure], and allocates in proportion to its
   input. *)
let prop_machine_io_fuzz =
  let valid =
    QCheck2.Gen.(
      oneof
        [
          map Machine_io.to_string (Test_util.arb_machine ());
          (let* p = int_range 1 8 and* g = int_range 0 4 and* l = int_range 0 6
           and* delta = int_range 0 4 in
           let tree = if delta = 0 then "" else Printf.sprintf "numa-tree %d\n" delta in
           return (Printf.sprintf "p %d\ng %d\nl %d\n%s" p g l tree));
        ])
  in
  Test_util.qtest ~count:1000 "hostile input: only Failure, allocation O(input)"
    (Test_util.arb_hostile valid)
    (Test_util.decodes_within ~words_per_byte:16 Machine_io.of_string)

let () =
  Alcotest.run "extensions"
    [
      ("render", [ Alcotest.test_case "structure" `Quick test_render_contains_structure ]);
      ( "machine_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_machine_io_roundtrip;
          Alcotest.test_case "presets" `Quick test_machine_io_presets;
          Alcotest.test_case "errors" `Quick test_machine_io_errors;
          prop_machine_io_fuzz;
        ] );
    ]
