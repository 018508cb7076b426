let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_basic_accessors () =
  let g = Test_util.diamond () in
  check "n" 4 (Dag.n g);
  check "edges" 4 (Dag.num_edges g);
  check "work" 3 (Dag.work g 2);
  check "comm" 2 (Dag.comm g 2);
  check "total work" 10 (Dag.total_work g);
  check "total comm" 5 (Dag.total_comm g);
  check "indeg sink" 2 (Dag.in_degree g 3);
  check "outdeg source" 2 (Dag.out_degree g 0);
  Alcotest.(check (list int)) "sources" [ 0 ] (Dag.sources g)

let test_duplicate_edges_collapse () =
  let g =
    Dag.of_edges ~n:2 ~edges:[ (0, 1); (0, 1); (0, 1) ] ~work:[| 1; 1 |] ~comm:[| 1; 1 |]
  in
  check "edges deduped" 1 (Dag.num_edges g)

let test_cycle_rejected () =
  Alcotest.check_raises "cycle" (Invalid_argument "Dag.of_edges: edge set contains a directed cycle")
    (fun () ->
      ignore
        (Dag.of_edges ~n:3 ~edges:[ (0, 1); (1, 2); (2, 0) ] ~work:[| 1; 1; 1 |]
           ~comm:[| 1; 1; 1 |]))

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Dag: self-loop") (fun () ->
      ignore (Dag.of_edges ~n:1 ~edges:[ (0, 0) ] ~work:[| 1 |] ~comm:[| 1 |]))

let test_negative_weight_rejected () =
  Alcotest.check_raises "negative work" (Invalid_argument "Dag: negative work weight")
    (fun () -> ignore (Dag.of_edges ~n:1 ~edges:[] ~work:[| -1 |] ~comm:[| 1 |]))

let test_topological_order () =
  let g = Test_util.diamond () in
  let order = Dag.topological_order g in
  let rank = Dag.topological_rank g in
  check "first" 0 order.(0);
  check "last" 3 order.(3);
  Dag.iter_edges g (fun u v ->
      check_bool "edge respects order" true (rank.(u) < rank.(v)))

let test_wavefronts () =
  let g = Test_util.diamond () in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2 |] (Dag.wavefronts g);
  check "count" 3 (Dag.num_wavefronts g);
  let c = Test_util.chain 5 in
  check "chain wavefronts" 5 (Dag.num_wavefronts c)

let test_bottom_level () =
  let g = Test_util.diamond () in
  (* Without communication: bl(3)=4, bl(1)=2+4=6, bl(2)=3+4=7, bl(0)=1+7=8. *)
  let bl = Dag.bottom_level g ~comm_factor:0 in
  Alcotest.(check (array int)) "plain" [| 8; 6; 7; 4 |] bl;
  (* With comm factor 2: bl(1)=2+2*1+4=8, bl(2)=3+2*2+4=11, bl(0)=1+2+11=14. *)
  let blc = Dag.bottom_level g ~comm_factor:2 in
  Alcotest.(check (array int)) "with comm" [| 14; 8; 11; 4 |] blc;
  check "critical path" 8 (Dag.critical_path_work g)

let test_paper_weights () =
  let g = Test_util.diamond () in
  let w = Dag.assign_paper_weights g in
  check "source w" 1 (Dag.work w 0);
  check "indeg1 w" 0 (Dag.work w 1);
  check "indeg2 w" 1 (Dag.work w 3);
  check "comm all 1" 1 (Dag.comm w 2)

let test_builder () =
  let b = Dag_builder.create () in
  let a = Dag_builder.add_node b ~work:2 ~comm:3 in
  let c = Dag_builder.add_node b ~work:1 ~comm:1 in
  Dag_builder.add_edge b a c;
  Dag_builder.set_work b c 7;
  let g = Dag_builder.finish b in
  check "n" 2 (Dag.n g);
  check "override" 7 (Dag.work g c);
  check "kept" 2 (Dag.work g a);
  Alcotest.check_raises "builder self loop" (Invalid_argument "Dag_builder.add_edge: self-loop")
    (fun () -> Dag_builder.add_edge b a a)

let test_hyperdag_roundtrip () =
  let g = Test_util.diamond () in
  let g2 = Hyperdag_io.of_string (Hyperdag_io.to_string g) in
  check "n" (Dag.n g) (Dag.n g2);
  Alcotest.(check (list (pair int int))) "edges" (Dag.edges g) (Dag.edges g2);
  check "work preserved" (Dag.work g 2) (Dag.work g2 2);
  check "comm preserved" (Dag.comm g 2) (Dag.comm g2 2)

let test_hyperdag_parse_errors () =
  Alcotest.check_raises "empty" (Failure "Hyperdag_io: empty input") (fun () ->
      ignore (Hyperdag_io.of_string "% only comments\n"));
  (try
     ignore (Hyperdag_io.of_string "1 2 2\n0 0\n0 5\n0 1 1\n1 1 1\n");
     Alcotest.fail "out-of-range pin accepted"
   with Failure _ -> ())

let test_hyperdag_tabs_and_crlf () =
  (* Real HyperDAG_DB files mix tabs and CRLF line endings. *)
  let g = Test_util.diamond () in
  let mangled =
    Hyperdag_io.to_string g
    |> String.split_on_char '\n'
    |> List.map (String.map (fun c -> if c = ' ' then '\t' else c))
    |> String.concat "\r\n"
  in
  let g2 = Hyperdag_io.of_string mangled in
  check "n" (Dag.n g) (Dag.n g2);
  Alcotest.(check (list (pair int int))) "edges" (Dag.edges g) (Dag.edges g2);
  check "work preserved" (Dag.work g 2) (Dag.work g2 2)

let test_hyperdag_excess_weight_lines_rejected () =
  let g = Test_util.diamond () in
  let text = Hyperdag_io.to_string g ^ "0 9 9\n1 9 9\n" in
  try
    ignore (Hyperdag_io.of_string text : Dag.t);
    Alcotest.fail "excess weight lines accepted"
  with Failure msg ->
    check_bool "names the surplus" true
      (msg = "Hyperdag_io: 2 lines after the 4 declared weight lines")

(* Hostile headers fail with [Failure] (the error the CLI and the
   daemon report) before any allocation is sized by a declared count.
   Each header is followed by two well-formed weight lines. *)
let raises_failure header =
  match Hyperdag_io.of_string (header ^ "\n0 1 1\n1 1 1\n") with
  | _ -> false
  | exception Failure _ -> true

let test_hyperdag_negative_count () =
  check_bool "negative hyperedge count" true (raises_failure "-5 2 0");
  check_bool "negative node count" true (raises_failure "0 -2 0");
  check_bool "negative pin count" true (raises_failure "0 2 -1")

let test_hyperdag_oversized_count () =
  check_bool "more hyperedges than pins" true (raises_failure "4000000000000 2 0");
  check_bool "more pins than lines" true (raises_failure "1 2 4000000000000");
  check_bool "more nodes than lines" true (raises_failure "0 4000000000000 0")

(* The topological order and rank are computed eagerly at
   construction, so a freshly built DAG is safe to read from another
   domain without any warm-up call, and every domain sees the same
   caches. *)
let test_eager_topo_cross_domain () =
  let g = Test_util.diamond () in
  let d =
    Domain.spawn (fun () ->
        (Array.copy (Dag.topological_order g), Array.copy (Dag.topological_rank g)))
  in
  let topo, rank = Domain.join d in
  Alcotest.(check (array int)) "topo seen cross-domain" (Dag.topological_order g) topo;
  Alcotest.(check (array int)) "rank seen cross-domain" (Dag.topological_rank g) rank;
  let c = Test_util.chain 6 in
  let d = Domain.spawn (fun () -> (Dag.topological_order c).(5)) in
  check "eager topo readable cross-domain" 5 (Domain.join d)

let test_is_acyclic_edges () =
  check_bool "acyclic" true (Dag.is_acyclic_edges ~n:3 [ (0, 1); (1, 2) ]);
  check_bool "cyclic" false (Dag.is_acyclic_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ])

(* Property: topological order is a permutation respecting all edges. *)
let prop_topo_valid =
  Test_util.qtest "topological order valid" (Test_util.arb_dag ()) (fun g ->
      let order = Dag.topological_order g in
      let rank = Dag.topological_rank g in
      Array.length order = Dag.n g
      && Array.for_all (fun v -> order.(rank.(v)) = v) (Array.init (Dag.n g) Fun.id)
      &&
      let ok = ref true in
      Dag.iter_edges g (fun u v -> if rank.(u) >= rank.(v) then ok := false);
      !ok)

(* Property: hyperDAG serialisation round-trips structure and weights. *)
let prop_roundtrip =
  Test_util.qtest "hyperdag roundtrip" (Test_util.arb_dag ()) (fun g ->
      let g2 = Hyperdag_io.of_string (Hyperdag_io.to_string g) in
      Dag.n g = Dag.n g2
      && Dag.edges g = Dag.edges g2
      && Array.for_all
           (fun v -> Dag.work g v = Dag.work g2 v && Dag.comm g v = Dag.comm g2 v)
           (Array.init (Dag.n g) Fun.id))

(* Property: parsing is whitespace- and comment-insensitive — a
   serialisation mangled with tabs, CRLF endings and injected comment
   lines parses to the same DAG as the clean text. *)
let prop_roundtrip_mangled =
  Test_util.qtest ~count:60 "hyperdag roundtrip (tabs, CRLF, comments)"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (int_bound 10_000))
    (fun (g, seed) ->
      let rng = Rng.create seed in
      let buf = Buffer.create 4096 in
      List.iter
        (fun line ->
          if Rng.bernoulli rng 0.3 then Buffer.add_string buf "%\tnoise comment\r\n";
          let line =
            if Rng.bernoulli rng 0.5 then
              String.map (fun c -> if c = ' ' then '\t' else c) line
            else line
          in
          Buffer.add_string buf line;
          Buffer.add_string buf (if Rng.bernoulli rng 0.5 then "\r\n" else "\n"))
        (String.split_on_char '\n' (Hyperdag_io.to_string g));
      let g2 = Hyperdag_io.of_string (Buffer.contents buf) in
      Dag.n g = Dag.n g2
      && Dag.edges g = Dag.edges g2
      && Array.for_all
           (fun v -> Dag.work g v = Dag.work g2 v && Dag.comm g v = Dag.comm g2 v)
           (Array.init (Dag.n g) Fun.id))

let same_dag g g2 =
  Dag.n g = Dag.n g2
  && Dag.edges g = Dag.edges g2
  && Array.for_all
       (fun v -> Dag.work g v = Dag.work g2 v && Dag.comm g v = Dag.comm g2 v)
       (Array.init (Dag.n g) Fun.id)

(* Differential: the in-place scanner against the split-based parser it
   replaced (Text_io_reference), on clean and mutated text. Both must
   accept and reject the same inputs, fail with the same [Failure]
   message, and build the same DAG; parsing from an offset behind a
   junk prefix must change nothing. *)
let prop_text_oracle =
  Test_util.qtest ~count:400 "hyperdag scanner = split-based oracle"
    QCheck2.Gen.(
      triple (Test_util.arb_dag ()) (int_bound 1_000_000) (oneofl [ 0.0; 0.02; 0.1; 0.3 ]))
    (fun (g, seed, rate) ->
      let text =
        Text_io_reference.mutate (Rng.create seed) ~rate (Hyperdag_io.to_string g)
      in
      let expected =
        Text_io_reference.outcome (fun () -> Text_io_reference.hyperdag_of_string text)
      in
      let got = Text_io_reference.outcome (fun () -> Hyperdag_io.of_string text) in
      let prefix = "junk before the offset\n1 2 3\n" in
      let got_at =
        Text_io_reference.outcome (fun () ->
            Hyperdag_io.of_string ~pos:(String.length prefix) (prefix ^ text))
      in
      let agree a b =
        match (a, b) with
        | Ok x, Ok y -> same_dag x y
        | Error x, Error y -> x = y && Text_io_reference.is_failure b
        | _ -> false
      in
      agree expected got && agree expected got_at)

(* Lines at the edges of the fused reader's plain case (digits, '-',
   spaces): a '-' or a letter inside a token, a bare '-', 18 and 19
   digits, leading zeros, blanks at either end, tabs, CRs, signs and
   prefixes. In a pin line and in a weight line, each must read, or
   fail with the message, exactly as the split-based oracle does. *)
let test_hyperdag_fused_reader_edges () =
  let pins =
    [ "0 1"; " 0 1"; "0  1 "; "0\t1"; "0 1\r"; "\0120 1"; "-0 1"; "0 1-"; "0-1"; "0 -";
      "0 --1"; "0 1a"; "0 +1"; "0 0x1"; "0 1_"; "0000000000000000000 1"; "0 1 2" ]
  in
  let weights =
    [ "1 5 1"; "1 5-3 1"; "1 999999999999999999 1"; "1 9999999999999999999 1";
      "1 -5 1"; "1 5 -"; "1 5"; "  1   5   1  " ]
  in
  let texts =
    List.map (fun pin -> "1 2 2\n0 0\n" ^ pin ^ "\n0 1 1\n1 1 1") pins
    @ List.map (fun w -> "1 2 2\n0 0\n0 1\n0 1 1\n" ^ w ^ "\n") weights
  in
  List.iter
    (fun text ->
      let expected =
        Text_io_reference.outcome (fun () -> Text_io_reference.hyperdag_of_string text)
      in
      let got = Text_io_reference.outcome (fun () -> Hyperdag_io.of_string text) in
      check_bool (String.escaped text) true
        (match (expected, got) with
         | Ok a, Ok b -> same_dag a b
         | Error a, Error b -> a = b
         | _ -> false))
    texts

(* Generator of raw (n, edge list) inputs for the CSR-vs-model property:
   edges go low id -> high id (acyclic by construction), arrive in a
   shuffled order, and a fraction are duplicated so the dedup path is
   exercised. *)
let arb_raw_edges =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 20 in
    let* dense = bool in
    let rng = Rng.create seed in
    let p = if dense then 0.35 else 0.12 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Rng.bernoulli rng p then begin
          edges := (u, v) :: !edges;
          if Rng.bernoulli rng 0.25 then edges := (u, v) :: !edges
        end
      done
    done;
    let shuffled =
      List.map (fun e -> (Rng.int rng 1_000_000, e)) !edges
      |> List.sort compare |> List.map snd
    in
    return (n, shuffled))

(* Property: the CSR representation built by of_edges is semantically
   identical to a naive adjacency model of the same edge list — edge
   count after dedup, sorted succ/pred sets, degrees, the zero-alloc
   iterators, the raw offset/target arrays, has_edge, and topological
   order validity all agree. *)
let prop_csr_matches_model =
  Test_util.qtest ~count:200 "CSR structure matches edge-list model" arb_raw_edges
    (fun (n, edges) ->
      let g = Dag.of_edges ~n ~edges ~work:(Array.make n 1) ~comm:(Array.make n 1) in
      let dedup = List.sort_uniq compare edges in
      let succ_ref = Array.make n [] and pred_ref = Array.make n [] in
      List.iter
        (fun (u, v) ->
          succ_ref.(u) <- v :: succ_ref.(u);
          pred_ref.(v) <- u :: pred_ref.(v))
        (List.rev dedup);
      Array.iteri (fun v l -> pred_ref.(v) <- List.sort compare l) pred_ref;
      let ok = ref (Dag.num_edges g = List.length dedup) in
      let soff = Dag.succ_offsets g and stgt = Dag.succ_targets g in
      let poff = Dag.pred_offsets g and ptgt = Dag.pred_targets g in
      ok :=
        !ok
        && Array.length soff = n + 1
        && Array.length poff = n + 1
        && soff.(0) = 0
        && poff.(0) = 0
        && soff.(n) = Array.length stgt
        && poff.(n) = Array.length ptgt
        && Array.length stgt = Dag.num_edges g
        && Array.length ptgt = Dag.num_edges g;
      for v = 0 to n - 1 do
        ok := !ok && Dag.out_degree g v = List.length succ_ref.(v);
        ok := !ok && Dag.in_degree g v = List.length pred_ref.(v);
        (* Zero-allocation iterators visit the reference neighbours in
           ascending order, in both directions. *)
        let via_iter = ref [] in
        Dag.iter_succ g v (fun w -> via_iter := w :: !via_iter);
        ok := !ok && List.rev !via_iter = succ_ref.(v);
        let via_iter = ref [] in
        Dag.iter_pred g v (fun u -> via_iter := u :: !via_iter);
        ok := !ok && List.rev !via_iter = pred_ref.(v);
        let via_fold = Dag.fold_succ g v ~init:[] (fun acc w -> w :: acc) in
        ok := !ok && List.rev via_fold = succ_ref.(v);
        let via_fold = Dag.fold_pred g v ~init:[] (fun acc u -> u :: acc) in
        ok := !ok && List.rev via_fold = pred_ref.(v);
        (* Raw CSR segments are the same slices. *)
        ok :=
          !ok
          && Array.to_list (Array.sub stgt soff.(v) (soff.(v + 1) - soff.(v)))
             = succ_ref.(v)
          && Array.to_list (Array.sub ptgt poff.(v) (poff.(v + 1) - poff.(v)))
             = pred_ref.(v)
      done;
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          ok := !ok && Dag.has_edge g u v = List.mem (u, v) dedup
        done
      done;
      let rank = Dag.topological_rank g in
      let order = Dag.topological_order g in
      ok := !ok && Array.for_all (fun v -> order.(rank.(v)) = v) (Array.init n Fun.id);
      List.iter (fun (u, v) -> ok := !ok && rank.(u) < rank.(v)) dedup;
      !ok)

(* Raw builder inputs for the differential property against
   Dag_reference: edges oriented along a random permutation of the ids
   (acyclic, with a topological order far from the id order), with
   duplicates, and each kind of defect at a small rate: a self-loop, an
   out-of-range endpoint, a back edge closing a cycle, a negative or
   missing weight, an edge count beyond the arrays. One case in eight
   has 4k to 9k nodes, so the ready bitmap spans several summary
   words. *)
let arb_builder_input =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let rng = Rng.create seed in
    let n = if Rng.int rng 8 = 0 then 4000 + Rng.int rng 5000 else Rng.int rng 40 in
    let m = if n = 0 then Rng.int rng 2 else Rng.int rng (3 * n) in
    let pos = Array.init n Fun.id in
    Rng.shuffle rng pos;
    let defect = Rng.int rng 10 in
    let pick () = if n = 0 then 0 else Rng.int rng n in
    let src = Array.make (m + Rng.int rng 3) 0 and dst = Array.make (m + Rng.int rng 3) 0 in
    for i = 0 to m - 1 do
      let u = pick () in
      (* v differs from u; with fewer than two nodes every edge is bad *)
      let v = if n < 2 then 1 else (u + 1 + Rng.int rng (n - 1)) mod n in
      let u, v = if n < 2 || pos.(u) < pos.(v) then (u, v) else (v, u) in
      if i > 0 && Rng.int rng 5 = 0 then begin
        src.(i) <- src.(i - 1);
        dst.(i) <- dst.(i - 1)
      end
      else begin
        src.(i) <- u;
        dst.(i) <- v
      end
    done;
    let at () = Rng.int rng (max m 1) in
    let m =
      match defect with
      | 0 when m > 0 ->
        let i = at () in
        dst.(i) <- src.(i);
        m
      | 1 when m > 0 ->
        let i = at () in
        if Rng.bool rng then src.(i) <- (if Rng.bool rng then -1 else n) else dst.(i) <- n + 3;
        m
      | 2 when m > 0 ->
        let i = at () in
        let j = at () in
        (* a back edge: reverse an existing one, possibly behind others *)
        src.(j) <- dst.(i);
        dst.(j) <- src.(i);
        m
      | 3 -> Array.length src + 1
      | _ -> m
    in
    let work = Array.init n (fun _ -> Rng.int rng 6) in
    let comm = Array.init n (fun _ -> Rng.int rng 6) in
    if n > 0 && defect = 4 then work.(Rng.int rng n) <- -1;
    if n > 0 && defect = 5 then comm.(Rng.int rng n) <- -2;
    let comm = if defect = 6 then Array.make (n + 1) 1 else comm in
    return (n, src, dst, m, work, comm))

let prop_builder_oracle =
  Test_util.qtest ~count:300 "array builder + bitmap topo = closure builder + heap"
    arb_builder_input (fun (n, src, dst, m, work, comm) ->
      let outcome = Text_io_reference.outcome in
      let agree expected got =
        match (expected, got) with
        | Ok a, Ok b -> a = Dag_reference.of_dag b
        | Error a, Error b -> a = b
        | _ -> false
      in
      let arrays =
        agree
          (outcome (fun () -> Dag_reference.of_edge_arrays ~n ~src ~dst ~m ~work ~comm))
          (outcome (fun () -> Dag.of_edge_arrays ~n ~src ~dst ~m ~work ~comm))
      in
      let k = min m (min (Array.length src) (Array.length dst)) in
      let edges = List.init k (fun i -> (src.(i), dst.(i))) in
      arrays
      && agree
           (outcome (fun () -> Dag_reference.of_edges ~n ~edges ~work ~comm))
           (outcome (fun () -> Dag.of_edges ~n ~edges ~work ~comm)))

let () =
  Alcotest.run "dag"
    [
      ( "unit",
        [
          Alcotest.test_case "basic accessors" `Quick test_basic_accessors;
          Alcotest.test_case "duplicate edges collapse" `Quick test_duplicate_edges_collapse;
          Alcotest.test_case "cycle rejected" `Quick test_cycle_rejected;
          Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "negative weight rejected" `Quick test_negative_weight_rejected;
          Alcotest.test_case "topological order" `Quick test_topological_order;
          Alcotest.test_case "wavefronts" `Quick test_wavefronts;
          Alcotest.test_case "bottom level" `Quick test_bottom_level;
          Alcotest.test_case "paper weights" `Quick test_paper_weights;
          Alcotest.test_case "builder" `Quick test_builder;
          Alcotest.test_case "hyperdag roundtrip" `Quick test_hyperdag_roundtrip;
          Alcotest.test_case "hyperdag parse errors" `Quick test_hyperdag_parse_errors;
          Alcotest.test_case "hyperdag tabs + CRLF" `Quick test_hyperdag_tabs_and_crlf;
          Alcotest.test_case "hyperdag fused reader edges" `Quick
            test_hyperdag_fused_reader_edges;
          Alcotest.test_case "hyperdag excess weight lines" `Quick
            test_hyperdag_excess_weight_lines_rejected;
          Alcotest.test_case "hyperdag negative header count" `Quick
            test_hyperdag_negative_count;
          Alcotest.test_case "hyperdag header count beyond the input" `Quick
            test_hyperdag_oversized_count;
          Alcotest.test_case "is_acyclic_edges" `Quick test_is_acyclic_edges;
          Alcotest.test_case "eager topo order shared across domains" `Quick
            test_eager_topo_cross_domain;
        ] );
      ( "property",
        [
          prop_topo_valid;
          prop_roundtrip;
          prop_roundtrip_mangled;
          prop_text_oracle;
          prop_csr_matches_model;
          prop_builder_oracle;
        ] );
    ]
