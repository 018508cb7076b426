(* Tests for the serving stack (DESIGN.md Section 5h): the binary
   hyperDAG format, crash-safe atomic writes, the content-addressed
   schedule cache, the engine's hit/miss/refresh protocol, the stdio
   framing, and the directory-queue daemon. *)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let tmp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s.%d.%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_tmp_dir prefix f =
  let dir = tmp_dir prefix in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let fails f =
  match f () with
  | _ -> false
  | exception Failure _ -> true

(* ------------------------------------------------------------------ *)
(* Binary hyperDAG format.                                             *)

(* Text -> binary -> text must be the identity: the binary decoder ends
   in Dag.of_edge_arrays exactly like the text parser, so the canonical CSR —
   and hence the canonical text rendering — survives unchanged. *)
let prop_binary_roundtrip =
  Test_util.qtest ~count:200 "binary round-trip preserves the canonical text form"
    (Test_util.arb_dag ~max_n:40 ()) (fun g ->
      let text = Hyperdag_io.to_string g in
      let g2 = Hyperdag_io.of_binary_string (Hyperdag_io.to_binary_string g) in
      Hyperdag_io.to_string g2 = text)

let prop_binary_structural =
  Test_util.qtest ~count:200 "binary round-trip preserves the structural hash"
    (Test_util.arb_dag ~max_n:40 ()) (fun g ->
      let g2 = Hyperdag_io.of_binary_string (Hyperdag_io.to_binary_string g) in
      Dag.structural_hash g2 = Dag.structural_hash g)

let test_binary_file_roundtrip () =
  with_tmp_dir "bhdg" (fun dir ->
      let g = Test_util.diamond () in
      let path = Filename.concat dir "d.bhdag" in
      Hyperdag_io.write_binary_file path g;
      (* the one reader sniffs the magic ... *)
      let g2 = Hyperdag_io.read_file_auto path in
      check_str "auto reads binary" (Hyperdag_io.to_string g) (Hyperdag_io.to_string g2);
      (* ... and still reads text *)
      let tpath = Filename.concat dir "d.hdag" in
      Hyperdag_io.write_file tpath g;
      let g3 = Hyperdag_io.read_file_auto tpath in
      check_str "auto reads text" (Hyperdag_io.to_string g) (Hyperdag_io.to_string g3);
      check_bool "one structural hash" true
        (Dag.structural_hash g2 = Dag.structural_hash g3
        && Dag.structural_hash g2 = Dag.structural_hash g))

(* Every strict prefix of a valid encoding must be rejected loudly —
   never silently decoded to a smaller DAG. *)
let prop_binary_truncation =
  Test_util.qtest ~count:60 "every truncation is rejected with Failure"
    (Test_util.arb_dag ~max_n:16 ()) (fun g ->
      let b = Hyperdag_io.to_binary_string g in
      let ok = ref true in
      for len = 0 to String.length b - 1 do
        if not (fails (fun () -> Hyperdag_io.of_binary_string (String.sub b 0 len)))
        then ok := false
      done;
      !ok)

(* Random bytes and one-byte mutations of valid encodings: the decoder
   only ever raises [Failure], and its allocation is bounded by the
   input, since every declared count is checked against the bytes left
   before an array is sized by it. *)
let prop_binary_fuzz =
  Test_util.qtest ~count:1000 "hostile input: only Failure, allocation O(input)"
    (Test_util.arb_hostile ~prefix:Hyperdag_io.binary_magic
       (QCheck2.Gen.map Hyperdag_io.to_binary_string (Test_util.arb_dag ~max_n:24 ())))
    (Test_util.decodes_within ~words_per_byte:8 Hyperdag_io.of_binary_string)

let test_binary_garbage () =
  check_bool "bad magic" true
    (fails (fun () -> Hyperdag_io.of_binary_string "NOTADAG\x00\x01"));
  check_bool "empty input" true (fails (fun () -> Hyperdag_io.of_binary_string ""));
  let b = Hyperdag_io.to_binary_string (Test_util.diamond ()) in
  check_bool "trailing bytes" true
    (fails (fun () -> Hyperdag_io.of_binary_string (b ^ "\x00")));
  (* flip a byte in the payload: must either fail or change the DAG,
     never quietly produce the same DAG *)
  let payload_pos = String.length Hyperdag_io.binary_magic in
  let corrupted = Bytes.of_string b in
  Bytes.set corrupted payload_pos
    (Char.chr (Char.code (Bytes.get corrupted payload_pos) lxor 0xff));
  let same =
    match Hyperdag_io.of_binary_string (Bytes.to_string corrupted) with
    | g -> Hyperdag_io.to_string g = Hyperdag_io.to_string (Test_util.diamond ())
    | exception Failure _ -> false
  in
  check_bool "corrupted header is not silently accepted" false same

(* A header declaring 2^40 nodes over one byte of payload must fail on
   the missing bytes, having allocated in proportion to what it read
   rather than to the declared count. *)
let test_binary_huge_node_count () =
  let b = Hyperdag_io.binary_magic ^ "\x80\x80\x80\x80\x80\x20" ^ "\x00" ^ "\x01" in
  check_bool "rejected" true (fails (fun () -> Hyperdag_io.of_binary_string b));
  check_bool "allocation bounded by the input" true
    (Test_util.min_allocated_bytes (fun () ->
         ignore (fails (fun () -> Hyperdag_io.of_binary_string b)))
     < 1e6)

(* The text analogue: headers declaring 2^40 nodes, pins or hyperedges
   over a few bytes fail before any allocation is sized by them, in the
   text parser and in a request's inline body alike. *)
let test_text_huge_declared_count () =
  List.iter
    (fun header ->
      let text = header ^ "\n0 1\n0 1 1\n1 1 1\n" in
      let request = "id big\nhyperdag\n" ^ text in
      check_bool ("rejected: " ^ header) true (fails (fun () -> Hyperdag_io.of_string text));
      check_bool ("request rejected: " ^ header) true
        (fails (fun () -> Server.Request.parse ~id:"x" request));
      check_bool ("allocation bounded by the input: " ^ header) true
        (Test_util.min_allocated_bytes (fun () ->
             ignore (fails (fun () -> Hyperdag_io.of_string text));
             ignore (fails (fun () -> Server.Request.parse ~id:"x" request)))
         < 1e6))
    [ "0 1099511627776 0"; "1 2 1099511627776"; "1099511627776 2 1099511627776" ]

let test_binary_compact () =
  (* sanity: the binary form of a chain is much smaller than the text *)
  let g = Test_util.chain 500 in
  let b = String.length (Hyperdag_io.to_binary_string g) in
  let t = String.length (Hyperdag_io.to_string g) in
  check_bool (Printf.sprintf "binary (%d) < text (%d) / 3" b t) true (b * 3 < t)

(* ------------------------------------------------------------------ *)
(* Atomic writes.                                                      *)

exception Boom

let no_temp_leftovers dir =
  Array.for_all
    (fun e -> not (Test_util.contains_substring e ".tmp."))
    (Sys.readdir dir)

let test_atomic_write_crash () =
  with_tmp_dir "atomic" (fun dir ->
      let path = Filename.concat dir "target" in
      Atomic_file.write_string path "previous complete version";
      (* a writer that dies mid-write must leave the old version intact *)
      (match
         Atomic_file.write path (fun oc ->
             output_string oc "partial new conte";
             flush oc;
             raise Boom)
       with
      | () -> Alcotest.fail "exception was swallowed"
      | exception Boom -> ());
      check_str "previous version intact" "previous complete version"
        (In_channel.with_open_bin path In_channel.input_all);
      check_bool "no temp leftovers" true (no_temp_leftovers dir))

let test_atomic_write_fresh_crash () =
  with_tmp_dir "atomic" (fun dir ->
      let path = Filename.concat dir "fresh" in
      (match Atomic_file.write path (fun _ -> raise Boom) with
      | () -> Alcotest.fail "exception was swallowed"
      | exception Boom -> ());
      check_bool "target never appeared" false (Sys.file_exists path);
      check_bool "no temp leftovers" true (no_temp_leftovers dir))

let test_atomic_write_replaces () =
  with_tmp_dir "atomic" (fun dir ->
      let path = Filename.concat dir "target" in
      Atomic_file.write_string path "v1";
      Atomic_file.write_string path "v2";
      check_str "replaced" "v2" (In_channel.with_open_bin path In_channel.input_all);
      check_bool "no temp leftovers" true (no_temp_leftovers dir))

(* ------------------------------------------------------------------ *)
(* Cache + engine protocol.                                            *)

let small_machine = Machine.uniform ~p:2 ~g:1 ~l:2

let request ?(algorithm = "pipeline") ?(seconds = 0.2) ?(seed = 1)
    ?(replicate = false) ?(machine = small_machine) ~id dag =
  { Server.Request.id; algorithm; seconds; seed; replicate; machine; dag }

let sched_bytes s = Schedule_io.to_string s

let test_engine_miss_then_hit () =
  with_tmp_dir "cache" (fun cache_dir ->
      let dag = Test_util.diamond () in
      let run jobs =
        Par.with_jobs jobs (fun () ->
            let r1 = Server.Engine.handle ~cache_dir (request ~id:"a" dag) in
            let r2 = Server.Engine.handle ~cache_dir (request ~id:"b" dag) in
            (r1, r2))
      in
      let r1, r2 = run 1 in
      check_bool "first is a miss" true (r1.Server.Engine.status = Server.Engine.Miss);
      check_bool "second is a hit" true (r2.Server.Engine.status = Server.Engine.Hit);
      check "same cost" r1.Server.Engine.cost r2.Server.Engine.cost;
      check_str "bit-identical schedule"
        (sched_bytes r1.Server.Engine.schedule)
        (sched_bytes r2.Server.Engine.schedule);
      check_str "same key" r1.Server.Engine.key r2.Server.Engine.key;
      (* jobs must not change the answer: re-run against a fresh cache
         at jobs 4 and compare bytes with the jobs-1 answer *)
      with_tmp_dir "cache4" (fun cache_dir4 ->
          let r1', r2' =
            Par.with_jobs 4 (fun () ->
                let a =
                  Server.Engine.handle ~cache_dir:cache_dir4 (request ~id:"a" dag)
                in
                let b =
                  Server.Engine.handle ~cache_dir:cache_dir4 (request ~id:"b" dag)
                in
                (a, b))
          in
          check_str "jobs 4 miss matches jobs 1 miss"
            (sched_bytes r1.Server.Engine.schedule)
            (sched_bytes r1'.Server.Engine.schedule);
          check_str "jobs 4 hit matches jobs 1 hit"
            (sched_bytes r2.Server.Engine.schedule)
            (sched_bytes r2'.Server.Engine.schedule)))

let test_engine_refresh_tops_budget () =
  with_tmp_dir "cache" (fun cache_dir ->
      let dag = Test_util.random_dag (Rng.create 7) ~n:14 ~edge_prob:0.25 ~max_w:4 ~max_c:3 in
      let r1 = Server.Engine.handle ~cache_dir (request ~id:"a" ~seconds:0.1 dag) in
      check_bool "miss first" true (r1.Server.Engine.status = Server.Engine.Miss);
      (* same budget again: hit *)
      let r2 = Server.Engine.handle ~cache_dir (request ~id:"b" ~seconds:0.1 dag) in
      check_bool "same budget hits" true (r2.Server.Engine.status = Server.Engine.Hit);
      (* larger budget: refresh, never worse, budget topped up *)
      let r3 = Server.Engine.handle ~cache_dir (request ~id:"c" ~seconds:0.3 dag) in
      check_bool "larger budget refreshes" true
        (r3.Server.Engine.status = Server.Engine.Refresh);
      check_bool "refresh never worse" true
        (r3.Server.Engine.cost <= r1.Server.Engine.cost);
      (* the topped-up budget is recorded: same larger budget now hits *)
      let r4 = Server.Engine.handle ~cache_dir (request ~id:"d" ~seconds:0.3 dag) in
      check_bool "topped-up budget hits" true
        (r4.Server.Engine.status = Server.Engine.Hit))

let test_engine_budget_insensitive () =
  with_tmp_dir "cache" (fun cache_dir ->
      let dag = Test_util.diamond () in
      let r1 =
        Server.Engine.handle ~cache_dir
          (request ~id:"a" ~algorithm:"source" ~seconds:0.1 dag)
      in
      let r2 =
        Server.Engine.handle ~cache_dir
          (request ~id:"b" ~algorithm:"source" ~seconds:100.0 dag)
      in
      check_bool "baseline never refreshes" true
        (r2.Server.Engine.status = Server.Engine.Hit);
      check "same cost" r1.Server.Engine.cost r2.Server.Engine.cost)

let test_engine_distinct_keys () =
  let dag = Test_util.diamond () in
  let k r = Server.Engine.request_key r in
  let base = request ~id:"x" dag in
  check_bool "machine changes the key" true
    (k base <> k (request ~id:"x" ~machine:(Machine.uniform ~p:4 ~g:1 ~l:2) dag));
  check_bool "algorithm changes the key" true
    (k base <> k (request ~id:"x" ~algorithm:"source" dag));
  check_bool "replicate changes the key" true
    (k base <> k (request ~id:"x" ~replicate:true dag));
  check_bool "budget does NOT change the key" true
    (k base = k (request ~id:"x" ~seconds:999.0 dag));
  check_bool "dag changes the key" true
    (k base <> k (request ~id:"x" (Test_util.chain 4)))

let test_cache_self_heals () =
  with_tmp_dir "cache" (fun cache_dir ->
      let dag = Test_util.diamond () in
      let r1 = Server.Engine.handle ~cache_dir (request ~id:"a" dag) in
      (* corrupt the stored schedule: the entry must degrade to a miss,
         not crash the server *)
      Atomic_file.write_string
        (Server.Cache.schedule_path ~dir:cache_dir r1.Server.Engine.key)
        "garbage, not a schedule";
      check_bool "corrupt entry is a miss" true
        (Option.is_none
           (Server.Cache.lookup ~dir:cache_dir ~dag r1.Server.Engine.key));
      let r2 = Server.Engine.handle ~cache_dir (request ~id:"b" dag) in
      check_bool "recomputed" true (r2.Server.Engine.status = Server.Engine.Miss);
      check_str "self-healed to the same schedule"
        (sched_bytes r1.Server.Engine.schedule)
        (sched_bytes r2.Server.Engine.schedule))

let test_engine_rejects_unknown_algorithm () =
  with_tmp_dir "cache" (fun cache_dir ->
      check_bool "unknown algorithm" true
        (fails (fun () ->
             Server.Engine.handle ~cache_dir
               (request ~id:"a" ~algorithm:"simulated-annealing"
                  (Test_util.diamond ())))))

(* A NaN budget never expires, so the engine refuses every seconds that
   is not finite and positive, before the cache as well. *)
let test_engine_rejects_bad_seconds () =
  let dag = Test_util.diamond () in
  List.iter
    (fun seconds ->
      check_bool
        (Printf.sprintf "schedule rejects %g" seconds)
        true
        (fails (fun () ->
             Server.Engine.schedule ~seconds ~seed:1 ~replicate:false
               ~algorithm:"bspg" small_machine dag)))
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.0; -1.0 ];
  with_tmp_dir "cache" (fun cache_dir ->
      let req = request ~id:"a" ~algorithm:"source" dag in
      ignore (Server.Engine.handle ~cache_dir req : Server.Engine.result);
      check_bool "a cache hit does not hide an infinite budget" true
        (fails (fun () ->
             Server.Engine.handle ~cache_dir { req with Server.Request.seconds = infinity })))

(* Replication is one post-pass for every algorithm: the replicated
   answer is the plain one followed by [Hc.replicate_schedule], the
   cheaper of the two kept. On this NUMA broadcast the pipeline's
   replicas pay. *)
let test_engine_replicate_post_pass () =
  let machine = Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:4 in
  let dag =
    Dag.of_edges ~n:9
      ~edges:(List.init 8 (fun q -> (0, q + 1)))
      ~work:(Array.init 9 (fun v -> if v = 0 then 1 else 300))
      ~comm:(Array.init 9 (fun v -> if v = 0 then 8 else 1))
  in
  List.iter
    (fun algorithm ->
      let run replicate =
        Server.Engine.schedule ~seconds:600.0 ~seed:1 ~replicate ~algorithm machine dag
      in
      let plain = run false in
      let cand = Hc.replicate_schedule machine plain in
      let expected =
        if Bsp_cost.total machine cand < Bsp_cost.total machine plain then cand else plain
      in
      let replicated = run true in
      check_str (algorithm ^ ": plain, then the post-pass") (sched_bytes expected)
        (sched_bytes replicated);
      if algorithm = "pipeline" then
        check_bool "pipeline: replicas kept" true (Schedule.has_replicas replicated))
    [ "pipeline"; "bspg" ]

(* Golden pipeline outputs above ILPinit's 600-node limit, at p=4 and at
   p=8: the [Schedule_io.to_string] digests are those of the pipeline
   that still ran ILPinit there, whose candidate tied and so lost. *)
let test_engine_pipeline_golden () =
  List.iter
    (fun (p, cost, digest) ->
      let dag =
        Finegrained.generate_sized (Rng.create 16) ~family:Finegrained.Spmv
          ~shape:Finegrained.Wide ~target:700
      in
      let m = Machine.uniform ~p ~g:3 ~l:5 in
      let s =
        Server.Engine.schedule ~seconds:600.0 ~seed:1 ~replicate:false
          ~algorithm:"pipeline" m dag
      in
      let name = Printf.sprintf "spmv-%d p=%d" (Dag.n dag) p in
      check (name ^ " cost") cost (Bsp_cost.total m s);
      check_str (name ^ " schedule digest") digest
        (Digest.to_hex (Digest.string (sched_bytes s))))
    [
      (4, 374, "ec2f50aade6b32d090b4e3d9c3fae8d3");
      (8, 244, "3224f6236963aa98222ba7d508bf7ef9");
    ]

(* Multilevel's coarse solves keep ILPinit at every p: they run without
   the trivial candidate, and ILPinit's near-serial schedule is often
   their best start. *)
let test_engine_multilevel_keeps_ilp_init () =
  let dag = Test_util.random_dag (Rng.create 5) ~n:40 ~edge_prob:0.15 ~max_w:4 ~max_c:3 in
  let r = Obs.Metrics.create () in
  let _ =
    Obs.Metrics.with_registry r (fun () ->
        Server.Engine.schedule ~seconds:0.6 ~seed:1 ~replicate:false
          ~algorithm:"multilevel" (Machine.uniform ~p:8 ~g:3 ~l:5) dag)
  in
  let ilp_init_calls =
    List.fold_left
      (fun acc (s : Obs.Metrics.span_stats) ->
        if String.ends_with ~suffix:"init:ilp-init" s.Obs.Metrics.path then
          acc + s.Obs.Metrics.calls
        else acc)
      0 (Obs.Metrics.span_list r)
  in
  check_bool "coarse solves open init:ilp-init spans" true (ilp_init_calls > 0);
  (* Coarsening and uncoarsening are one span each per ratio. *)
  List.iter
    (fun stage ->
      check_bool (stage ^ " span per ratio") true
        (List.exists
           (fun (s : Obs.Metrics.span_stats) ->
             String.ends_with ~suffix:("/" ^ stage) s.Obs.Metrics.path
             && Test_util.contains_substring s.Obs.Metrics.path "multilevel:"
             && s.Obs.Metrics.calls = 1)
           (Obs.Metrics.span_list r)))
    [ "coarsen"; "refine" ]

(* Cache keys name directories that outlive the binary, so their
   values are pinned: a uniform and a NUMA machine, each with its DAG,
   algorithm, seed and replication flag. *)
let test_cache_key_golden () =
  let dag = Test_util.random_dag (Rng.create 7) ~n:30 ~edge_prob:0.2 ~max_w:5 ~max_c:4 in
  check_str "diamond structural hash" "c72c1e0e7cc50280"
    (Fnv.to_hex (Dag.structural_hash (Test_util.diamond ())));
  check_str "random structural hash" "f38b0f6f02dfa08b" (Fnv.to_hex (Dag.structural_hash dag));
  check_str "uniform key" "846d5e7358901e84"
    (Server.Cache.key ~dag:(Test_util.diamond ()) ~machine:(Machine.uniform ~p:4 ~g:1 ~l:5)
       ~algorithm:"bspg" ~seed:1 ~replicate:false);
  check_str "NUMA key" "1f32ca4b75a25277"
    (Server.Cache.key ~dag ~machine:(Machine.numa_tree ~p:8 ~g:2 ~l:3 ~delta:3)
       ~algorithm:"pipeline" ~seed:2 ~replicate:true)

(* The hash folds the CSR arrays in unboxed loops: what a call
   allocates is its boxed 64-bit results, the same for 4 nodes as for
   1.5k, not a box per folded int. The minimum over repeats leaves out
   a minor collection landing in the window. *)
let test_structural_hash_allocation () =
  let minor_words g =
    let best = ref infinity in
    for _ = 1 to 5 do
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (Dag.structural_hash g));
      best := Float.min !best (Gc.minor_words () -. before)
    done;
    !best
  in
  let big =
    Finegrained.generate_sized (Rng.create 1) ~family:Finegrained.Spmv
      ~shape:Finegrained.Wide ~target:1500
  in
  let small = minor_words (Test_util.diamond ()) and large = minor_words big in
  check_bool "independent of the DAG" true (large = small);
  check_bool "a few boxed results at most" true (large <= 24.0)

(* ------------------------------------------------------------------ *)
(* Request parsing.                                                    *)

let test_request_parse_inline () =
  let doc =
    "% a request\nid job-1\nalgorithm source\nseconds 2.5\np 2\ng 3\nl 4\nhyperdag\n"
    ^ Hyperdag_io.to_string (Test_util.diamond ())
  in
  let r = Server.Request.parse ~id:"fallback" doc in
  check_str "id" "job-1" r.Server.Request.id;
  check_str "algorithm" "source" r.Server.Request.algorithm;
  check "p" 2 r.Server.Request.machine.Machine.p;
  check "nodes" 4 (Dag.n r.Server.Request.dag);
  check_bool "seconds" true (r.Server.Request.seconds = 2.5)

let test_request_parse_errors () =
  let dag_text = Hyperdag_io.to_string (Test_util.diamond ()) in
  check_bool "missing dag" true
    (fails (fun () -> Server.Request.parse ~id:"x" "p 2\n"));
  check_bool "negative seconds" true
    (fails (fun () ->
         Server.Request.parse ~id:"x" ("seconds -1\nhyperdag\n" ^ dag_text)));
  check_bool "dag path and inline together" true
    (fails (fun () ->
         Server.Request.parse ~id:"x" ("dag /nonexistent\nhyperdag\n" ^ dag_text)));
  check_bool "unknown header key" true
    (fails (fun () ->
         Server.Request.parse ~id:"x" ("frobnicate 3\nhyperdag\n" ^ dag_text)))

(* A request may name at most [max_p] processors: a 42-byte request
   asking for 3000 would otherwise build a 72 MB matrix. *)
let test_request_p_limit () =
  let dag_text = Hyperdag_io.to_string (Test_util.diamond ()) in
  let doc p = Printf.sprintf "p %d\nhyperdag\n%s" p dag_text in
  check "the limit" 1024 Server.Request.max_p;
  check "p at the limit accepted" 1024
    (Server.Request.parse ~id:"x" (doc 1024)).Server.Request.machine.Machine.p;
  (match Server.Request.parse ~id:"x" (doc 3000) with
   | _ -> Alcotest.fail "p 3000 accepted"
   | exception Failure msg ->
     check_bool "message names the limit" true (Test_util.contains_substring msg "1024"));
  check_bool "rejected before the matrix is built" true
    (Test_util.min_allocated_bytes (fun () -> ignore (fails (fun () ->
         Server.Request.parse ~id:"x" (doc 3000))))
     < 1e6)

(* A machine file is held to the same limit as a [p] line: the check
   is in [Machine], so a uniform or NUMA-tree file asking for 3000
   processors fails before its matrix is built. *)
let test_request_machine_file_p_limit () =
  let dag_text = Hyperdag_io.to_string (Test_util.diamond ()) in
  with_tmp_dir "machine-limit" (fun dir ->
      List.iter
        (fun (name, body) ->
          let path = Filename.concat dir name in
          Out_channel.with_open_bin path (fun oc -> output_string oc body);
          let doc = Printf.sprintf "machine %s\nhyperdag\n%s" path dag_text in
          (match Server.Request.parse ~id:"x" doc with
           | _ -> Alcotest.fail (name ^ ": p 3000 accepted")
           | exception Failure msg ->
             check_bool (name ^ ": message names the limit") true
               (Test_util.contains_substring msg "1024"));
          check_bool (name ^ ": rejected before the matrix is built") true
            (Test_util.min_allocated_bytes (fun () ->
                 ignore (fails (fun () -> Server.Request.parse ~id:"x" doc)))
             < 1e6))
        [ ("uniform.machine", "p 3000\ng 1\nl 5\n");
          ("tree.machine", "p 3000\ng 1\nl 5\nnuma-tree 2\n") ])

let cli_bin name =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name ("bin/" ^ name ^ ".exe"))

(* The CLIs share the limit: [-p 3000] (uniform or NUMA) and a machine
   file asking for 3000 processors are usage errors naming 1024, with
   nothing on stdout, not an uncaught exception. *)
let test_cli_p_limit () =
  with_tmp_dir "cli-limit" (fun dir ->
      let file = Filename.concat dir in
      Hyperdag_io.write_file (file "d.hdag") (Test_util.diamond ());
      Out_channel.with_open_bin (file "big.machine") (fun oc ->
          output_string oc "p 3000\ng 1\nl 5\n");
      Out_channel.with_open_bin (file "d.schedule") (fun oc -> output_string oc "");
      List.iter
        (fun (what, exe, args) ->
          let cmd =
            Filename.quote_command (cli_bin exe) ~stdout:(file "stdout") ~stderr:(file "stderr")
              args
          in
          check (what ^ ": usage error exit") 124 (Sys.command cmd);
          check_str (what ^ ": nothing on stdout") ""
            (In_channel.with_open_bin (file "stdout") In_channel.input_all);
          check_bool (what ^ ": message names the limit") true
            (Test_util.contains_substring
               (In_channel.with_open_bin (file "stderr") In_channel.input_all)
               "1024"))
        [
          ("scheduler -p", "scheduler", [ file "d.hdag"; "-p"; "3000"; "-q" ]);
          ( "scheduler -p --numa-delta",
            "scheduler",
            [ file "d.hdag"; "-p"; "3000"; "--numa-delta"; "2"; "-q" ] );
          ( "scheduler --machine",
            "scheduler",
            [ file "d.hdag"; "--machine"; file "big.machine"; "-q" ] );
          ("evaluate -p", "evaluate", [ file "d.hdag"; file "d.schedule"; "-p"; "3000" ]);
        ])

(* [evaluate] reads DAG files through the one reader: the text and the
   binary form of one instance give the same line. *)
let test_cli_evaluate_binary () =
  with_tmp_dir "cli-binary" (fun dir ->
      let file = Filename.concat dir in
      let dag =
        Finegrained.generate_sized (Rng.create 7) ~family:Finegrained.Spmv
          ~shape:Finegrained.Wide ~target:200
      in
      Hyperdag_io.write_file (file "a.hdag") dag;
      Hyperdag_io.write_binary_file (file "a.bhdag") dag;
      let machine = [ "-p"; "4"; "-g"; "2"; "-l"; "3" ] in
      let schedule =
        Filename.quote_command (cli_bin "scheduler") ~stdout:(file "cost")
          ([ file "a.bhdag"; "-a"; "bspg"; "-q"; "-o"; file "a.schedule" ] @ machine)
      in
      check "scheduler exit code" 0 (Sys.command schedule);
      let evaluate input =
        let cmd =
          Filename.quote_command (cli_bin "evaluate") ~stdout:(file "out")
            ([ file input; file "a.schedule" ] @ machine)
        in
        check (input ^ ": evaluate exit code") 0 (Sys.command cmd);
        In_channel.with_open_bin (file "out") In_channel.input_all
      in
      let text = evaluate "a.hdag" in
      check_bool "a valid schedule" true (Test_util.contains_substring text "valid schedule");
      check_str "binary reads as text" text (evaluate "a.bhdag"))

(* A file that cannot be read or parsed is a usage error: one line
   naming the program on stderr, nothing on stdout, exit 124 -- not an
   uncaught exception. *)
let test_cli_malformed_input () =
  with_tmp_dir "cli-malformed" (fun dir ->
      let file = Filename.concat dir in
      let write name text = Out_channel.with_open_bin (file name) (fun oc -> output_string oc text) in
      Hyperdag_io.write_file (file "d.hdag") (Test_util.diamond ());
      Schedule_io.write_file (file "d.schedule") (Schedule.trivial (Test_util.diamond ()));
      write "garbage.hdag" "not a hyperDAG\n";
      write "garbage.bhdag" (Hyperdag_io.binary_magic ^ "\xff");
      write "garbage.schedule" "4 0\n0 0 0\n";
      write "garbage.machine" "p four\n";
      Unix.mkdir (file "a-directory") 0o755;
      List.iter
        (fun (what, exe, args) ->
          let cmd =
            Filename.quote_command (cli_bin exe) ~stdout:(file "stdout") ~stderr:(file "stderr")
              args
          in
          check (what ^ ": usage error exit") 124 (Sys.command cmd);
          check_str (what ^ ": nothing on stdout") ""
            (In_channel.with_open_bin (file "stdout") In_channel.input_all);
          let err = In_channel.with_open_bin (file "stderr") In_channel.input_all in
          check_bool (what ^ ": one line naming the program") true
            (String.starts_with ~prefix:(exe ^ ": ") err
            && String.index_opt err '\n' = Some (String.length err - 1)))
        [
          ("scheduler: text DAG", "scheduler", [ file "garbage.hdag"; "-q" ]);
          ("scheduler: binary DAG", "scheduler", [ file "garbage.bhdag"; "-q" ]);
          ("scheduler: unreadable DAG", "scheduler", [ file "a-directory"; "-q" ]);
          ( "scheduler: machine file",
            "scheduler",
            [ file "d.hdag"; "--machine"; file "garbage.machine"; "-q" ] );
          ("evaluate: DAG", "evaluate", [ file "garbage.bhdag"; file "d.schedule" ]);
          ("evaluate: schedule", "evaluate", [ file "d.hdag"; file "garbage.schedule" ]);
          ("evaluate: unreadable schedule", "evaluate", [ file "d.hdag"; file "a-directory" ]);
        ])

(* Differential: the scanner-based request parser against the
   split-based one it replaced (Text_io_reference), on stats probes and
   scheduling requests with an inline hyperDAG, clean and mutated; the
   oracle reads the text through [Text_io_reference.spaced]. Header
   mutations draw from small junk words only: a request may name any
   machine size, and a junk processor count of 2^40 would ask for a
   2^80-entry NUMA matrix. *)
let header_junk =
  [| "x"; "stats"; "id"; "hyperdag"; "replicate"; "-1"; "0"; "+3"; "1_0"; "2" |]

let request_doc rng dag =
  let lines =
    List.filter
      (fun _ -> Rng.int rng 4 > 0)
      [ "% a request"; "id job-7"; "algorithm bspg"; "seconds 2.5"; "seed 3"; "replicate" ]
  in
  let machine =
    match Rng.int rng 3 with
    | 0 -> [ "p 4"; "g 2"; "l 3" ]
    | 1 -> [ "p 4"; "numa-delta 2" ]
    | _ -> []
  in
  let header = if Rng.int rng 5 = 0 then [ "id probe"; "stats" ] else lines @ machine in
  (String.concat "\n" header ^ "\n", "hyperdag\n" ^ Hyperdag_io.to_string dag)

let prop_request_oracle =
  Test_util.qtest ~count:300 "request scanner = split-based oracle"
    QCheck2.Gen.(
      triple (Test_util.arb_dag ~max_n:12 ()) (int_bound 1_000_000)
        (oneofl [ 0.0; 0.05; 0.2 ]))
    (fun (dag, seed, rate) ->
      let rng = Rng.create seed in
      let header, body = request_doc rng dag in
      let text =
        Text_io_reference.mutate rng ~junk:header_junk ~rate header
        ^ Text_io_reference.mutate rng ~rate body
      in
      let expected =
        Text_io_reference.outcome (fun () ->
            Text_io_reference.request_parse_any ~id:"fallback" (Text_io_reference.spaced text))
      in
      let got =
        Text_io_reference.outcome (fun () -> Server.Request.parse_any ~id:"fallback" text)
      in
      match (expected, got) with
      | Ok (Server.Request.Stats a), Ok (Server.Request.Stats b) -> a = b
      | Ok (Server.Request.Schedule a), Ok (Server.Request.Schedule b) -> a = b
      | Error _, Error _ -> Text_io_reference.is_failure got
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Framing.                                                            *)

let test_framing_roundtrip () =
  with_tmp_dir "frames" (fun dir ->
      let path = Filename.concat dir "frames.bin" in
      let payloads = [ ""; "x"; String.make 70_000 'q'; "last \x00 frame" ] in
      Out_channel.with_open_bin path (fun oc ->
          List.iter (Server.Daemon.write_frame oc) payloads);
      In_channel.with_open_bin path (fun ic ->
          List.iter
            (fun expect ->
              match Server.Daemon.read_frame ic with
              | Some got -> check_str "frame" expect got
              | None -> Alcotest.fail "premature EOF")
            payloads;
          check_bool "clean EOF" true (Server.Daemon.read_frame ic = None)))

let test_framing_truncation () =
  with_tmp_dir "frames" (fun dir ->
      let path = Filename.concat dir "frames.bin" in
      Out_channel.with_open_bin path (fun oc ->
          Server.Daemon.write_frame oc "hello world");
      let whole = In_channel.with_open_bin path In_channel.input_all in
      (* cut inside the header and inside the payload: both must raise *)
      List.iter
        (fun len ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc (String.sub whole 0 len));
          check_bool
            (Printf.sprintf "truncated at %d rejected" len)
            true
            (fails (fun () ->
                 In_channel.with_open_bin path Server.Daemon.read_frame)))
        [ 2; 7 ])

(* ------------------------------------------------------------------ *)
(* Directory-queue daemon.                                             *)

let field name json =
  match json with
  | Obs.Json.Obj kvs -> List.assoc name kvs
  | _ -> Alcotest.fail "response is not an object"

let str_field name json =
  match field name json with
  | Obs.Json.String s -> s
  | _ -> Alcotest.failf "field %s is not a string" name

let int_field name json =
  match field name json with
  | Obs.Json.Int i -> i
  | _ -> Alcotest.failf "field %s is not an int" name

let read_json path = Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all)

let write_request queue name ~seconds =
  let body =
    Printf.sprintf "algorithm pipeline\nseconds %g\np 2\ng 1\nl 2\nhyperdag\n%s"
      seconds
      (Hyperdag_io.to_string (Test_util.diamond ()))
  in
  Atomic_file.write_string
    (Filename.concat (Filename.concat queue "incoming") (name ^ ".req"))
    body

let test_daemon_once () =
  with_tmp_dir "queue" (fun queue ->
      Unix.mkdir (Filename.concat queue "incoming") 0o755;
      (* batch 1: two identical requests -> one miss, one coalesced *)
      write_request queue "a" ~seconds:0.2;
      write_request queue "b" ~seconds:0.2;
      let config =
        { (Server.Daemon.default_config ~queue_dir:queue) with Server.Daemon.once = true }
      in
      Server.Daemon.run config;
      let resp name = read_json (Filename.concat queue ("done/" ^ name ^ ".resp.json")) in
      let a = resp "a" and b = resp "b" in
      check_str "a ok" "ok" (str_field "status" a);
      check_str "a is the miss" "miss" (str_field "cache" a);
      check_str "b coalesced onto a" "coalesced" (str_field "cache" b);
      check "same cost" (int_field "cost" a) (int_field "cost" b);
      let sched name =
        In_channel.with_open_bin
          (Filename.concat queue ("done/" ^ name ^ ".schedule"))
          In_channel.input_all
      in
      check_str "identical schedule files" (sched "a") (sched "b");
      check_bool "requests consumed" true
        (Sys.readdir (Filename.concat queue "incoming") = [||]);
      (* batch 2 (fresh daemon run): same instance -> cache hit,
         bit-identical to the miss *)
      write_request queue "c" ~seconds:0.2;
      Server.Daemon.run config;
      let c = resp "c" in
      check_str "c is a hit" "hit" (str_field "cache" c);
      check "hit cost equals miss cost" (int_field "cost" a) (int_field "cost" c);
      check_str "hit schedule is bit-identical" (sched "a") (sched "c");
      (* a malformed request is answered with an error, not a crash *)
      Atomic_file.write_string
        (Filename.concat queue "incoming/bad.req")
        "algorithm no-such-scheduler\np 2\nhyperdag\nnot a dag";
      Server.Daemon.run config;
      let bad = resp "bad" in
      check_str "bad request errors" "error" (str_field "status" bad);
      (* metrics snapshot: 1 miss, 1 coalesced, 1 hit, 1 error over the
         three batches *)
      let metrics = read_json (Filename.concat queue "metrics.json") in
      let counters = field "counters" metrics in
      check "one miss" 1 (int_field "server.cache_misses" counters);
      check "one coalesced" 1 (int_field "server.cache_coalesced" counters);
      check "one hit" 1 (int_field "server.cache_hits" counters);
      check "one error" 1 (int_field "server.errors" counters);
      check "four requests" 4 (int_field "server.requests" counters))

let test_daemon_stdio () =
  with_tmp_dir "stdio" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let req =
        "algorithm pipeline\nseconds 0.2\np 2\ng 1\nl 2\nhyperdag\n"
        ^ Hyperdag_io.to_string (Test_util.diamond ())
      in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      Out_channel.with_open_bin inp (fun oc ->
          Server.Daemon.write_frame oc req;
          Server.Daemon.write_frame oc req);
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Server.Daemon.run_stdio ~cache_dir ic oc));
      In_channel.with_open_bin out (fun ic ->
          let r1 = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          let r2 = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          check_bool "no third frame" true (Server.Daemon.read_frame ic = None);
          check_str "first misses" "miss" (str_field "cache" r1);
          check_str "second hits" "hit" (str_field "cache" r2);
          check_str "identical inline schedules" (str_field "schedule" r1)
            (str_field "schedule" r2)))

(* The same request twice over stdio, on a fixed ~1.5k-node spmv
   instance: a miss, then a hit read back from the cache. The schedule
   text each reply carries and the key are pinned, each frame is the
   compact JSON rendering of its value byte for byte, and the two
   replies differ only in id, cache label and seconds. *)
let test_daemon_stdio_reply_golden () =
  with_tmp_dir "stdio-golden" (fun dir ->
      let dag =
        Finegrained.generate_sized (Rng.create 1) ~family:Finegrained.Spmv
          ~shape:Finegrained.Wide ~target:1500
      in
      check "instance size" 1474 (Dag.n dag);
      let req = "algorithm bspg\np 4\ng 2\nl 5\nhyperdag\n" ^ Hyperdag_io.to_string dag in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      Out_channel.with_open_bin inp (fun oc ->
          Server.Daemon.write_frame oc req;
          Server.Daemon.write_frame oc req);
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Server.Daemon.run_stdio ~cache_dir:(Filename.concat dir "cache") ic oc));
      In_channel.with_open_bin out (fun ic ->
          (* Each frame is exactly the compact rendering of its value:
             escapes, member order and number forms included. *)
          let read () =
            let frame = Option.get (Server.Daemon.read_frame ic) in
            let r = Obs.Json.of_string frame in
            check_str "frame = compact rendering" (Obs.Json.to_string_compact r) frame;
            r
          in
          let r1 = read () in
          let r2 = read () in
          List.iter
            (fun (r, cache) ->
              check_str "cache" cache (str_field "cache" r);
              check_str (cache ^ " key") "78689a31c4fbb043" (str_field "key" r);
              check_str (cache ^ " schedule digest") "f518425862c65fcb5240b94dad54bfc6"
                (Digest.to_hex (Digest.string (str_field "schedule" r))))
            [ (r1, "miss"); (r2, "hit") ];
          let rest = function
            | Obs.Json.Obj kvs ->
              List.filter (fun (k, _) -> not (List.mem k [ "id"; "cache"; "seconds" ])) kvs
            | _ -> Alcotest.fail "reply is not an object"
          in
          check_bool "only id, cache and seconds differ" true (rest r1 = rest r2)))

(* A request whose inline hyperDAG has a hostile header is answered with
   an error frame, and the session goes on to answer the next request. *)
let test_daemon_stdio_survives_hostile_header () =
  with_tmp_dir "stdio-hostile" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let request dag = "algorithm bspg\np 2\ng 1\nl 2\nhyperdag\n" ^ dag in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      Out_channel.with_open_bin inp (fun oc ->
          Server.Daemon.write_frame oc (request "-5 2 0\n0 1 1\n1 1 1\n");
          Server.Daemon.write_frame oc (request "4000000000000 2 0\n0 1 1\n1 1 1\n");
          Server.Daemon.write_frame oc
            (request (Hyperdag_io.to_string (Test_util.diamond ()))));
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Server.Daemon.run_stdio ~cache_dir ic oc));
      In_channel.with_open_bin out (fun ic ->
          let next () = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          let r1 = next () in
          let r2 = next () in
          let r3 = next () in
          check_str "negative count errors" "error" (str_field "status" r1);
          check_str "oversized count errors" "error" (str_field "status" r2);
          check_str "next request answered" "ok" (str_field "status" r3)))

(* A request the engine rejects (here an unknown algorithm, which the
   parser accepts) is answered with an error frame, and the next request
   is still served. *)
let test_daemon_stdio_survives_engine_error () =
  with_tmp_dir "stdio-engine" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let request algo =
        Printf.sprintf "algorithm %s\np 2\ng 1\nl 2\nhyperdag\n%s" algo
          (Hyperdag_io.to_string (Test_util.diamond ()))
      in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      Out_channel.with_open_bin inp (fun oc ->
          Server.Daemon.write_frame oc (request "nosuch");
          Server.Daemon.write_frame oc (request "bspg"));
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Server.Daemon.run_stdio ~cache_dir ic oc));
      In_channel.with_open_bin out (fun ic ->
          let next () = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          let r1 = next () in
          let r2 = next () in
          check_bool "no third frame" true (Server.Daemon.read_frame ic = None);
          check_str "unknown algorithm errors" "error" (str_field "status" r1);
          check_str "next request answered" "ok" (str_field "status" r2)))

(* A request whose budget the engine refuses ([Request.parse] accepts
   [inf]) gets an error frame, and the next request is still served. *)
let test_daemon_stdio_survives_bad_seconds () =
  with_tmp_dir "stdio-seconds" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let request seconds =
        Printf.sprintf "algorithm bspg\nseconds %s\np 2\ng 1\nl 2\nhyperdag\n%s" seconds
          (Hyperdag_io.to_string (Test_util.diamond ()))
      in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      Out_channel.with_open_bin inp (fun oc ->
          Server.Daemon.write_frame oc (request "inf");
          Server.Daemon.write_frame oc (request "1"));
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Server.Daemon.run_stdio ~cache_dir ic oc));
      In_channel.with_open_bin out (fun ic ->
          let next () = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          let r1 = next () in
          let r2 = next () in
          check_bool "no third frame" true (Server.Daemon.read_frame ic = None);
          check_str "infinite seconds errors" "error" (str_field "status" r1);
          check_str "next request answered" "ok" (str_field "status" r2)))

(* A frame header announcing 4 bytes with no payload behind it gets one
   error reply, and the session ends without raising. *)
let test_daemon_stdio_truncated_frame () =
  with_tmp_dir "stdio-truncated" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      Out_channel.with_open_bin inp (fun oc -> output_string oc "\x00\x00\x00\x04");
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Server.Daemon.run_stdio ~cache_dir ic oc));
      In_channel.with_open_bin out (fun ic ->
          let r = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          check_bool "one reply only" true (Server.Daemon.read_frame ic = None);
          check_str "truncated frame errors" "error" (str_field "status" r)))

(* ------------------------------------------------------------------ *)
(* Stats probes: live telemetry over both transports.                   *)

(* A fresh registry per test keeps the counter assertions absolute —
   the ambient registry is process-wide and other daemon tests in this
   binary already incremented it. *)
let run_stats_roundtrip ~jobs () =
  with_tmp_dir "stats" (fun queue ->
      Unix.mkdir (Filename.concat queue "incoming") 0o755;
      Obs.Metrics.install (Obs.Metrics.create ());
      let request p =
        Printf.sprintf "algorithm pipeline\nseconds 0.2\np %d\ng 1\nl 2\nhyperdag\n%s" p
          (Hyperdag_io.to_string (Test_util.diamond ()))
      in
      let drop name body =
        Atomic_file.write_string
          (Filename.concat (Filename.concat queue "incoming") (name ^ ".req"))
          body
      in
      (* Two distinct workloads (different machines) so the batch runs
         two leader tasks on the pool, plus the probe. *)
      drop "a" (request 2);
      drop "b" (request 3);
      drop "probe" "id probe-1\nstats\n";
      let config =
        { (Server.Daemon.default_config ~queue_dir:queue) with Server.Daemon.once = true }
      in
      Par.with_jobs jobs (fun () -> Server.Daemon.run config);
      let resp name = read_json (Filename.concat queue ("done/" ^ name ^ ".resp.json")) in
      check_str "a scheduled" "ok" (str_field "status" (resp "a"));
      check_str "b scheduled" "ok" (str_field "status" (resp "b"));
      let stats = resp "probe" in
      check_str "probe ok" "ok" (str_field "status" stats);
      check_str "probe typed" "stats" (str_field "type" stats);
      check_str "probe id from the id line" "probe-1" (str_field "id" stats);
      let counters = field "counters" stats in
      check "two scheduling requests" 2 (int_field "server.requests" counters);
      check "one stats request, not counted as scheduling" 1
        (int_field "server.stats_requests" counters);
      check "one batch" 1 (int_field "server.batches" counters);
      (* The probe is answered after the batch's scheduling work, so the
         latency histogram already covers both requests. *)
      let hist = field "server.request_seconds" (field "histograms" stats) in
      check "latency histogram count" 2 (int_field "count" hist);
      check_bool "histogram carries quantiles" true
        (Obs.Json.member "p99" hist <> None && Obs.Json.member "buckets" hist <> None);
      (match Obs.Json.member "server.queue_depth_peak" (field "gauges" stats) with
       | Some (Obs.Json.Float d) -> check_bool "peak depth covers the batch" true (d >= 3.0)
       | Some (Obs.Json.Int d) -> check_bool "peak depth covers the batch" true (d >= 3)
       | _ -> Alcotest.fail "no queue_depth_peak gauge");
      (match Obs.Json.member "uptime_seconds" stats with
       | Some (Obs.Json.Float u) -> check_bool "uptime non-negative" true (u >= 0.0)
       | Some (Obs.Json.Int u) -> check_bool "uptime non-negative" true (u >= 0)
       | _ -> Alcotest.fail "no uptime");
      check_bool "hit ratio present" true (Obs.Json.member "cache_hit_ratio" stats <> None);
      let pool = field "pool" stats in
      check "pool jobs echoes the setting" jobs (int_field "jobs" pool);
      match Obs.Json.member "domains" pool with
      | Some (Obs.Json.List ds) ->
        if jobs > 1 then begin
          check_bool "parallel batch engaged pool domains" true (ds <> []);
          List.iter
            (fun d ->
              check_bool "domain stats complete" true
                (Obs.Json.member "tasks_run" d <> None
                && Obs.Json.member "minor_words" d <> None))
            ds
        end
      | _ -> Alcotest.fail "no pool.domains list")

(* For each closed [server:request] slice in a flight-recorder dump,
   the names of the slices nested inside it on the same domain. *)
let request_slices evs =
  let by_domain = Hashtbl.create 4 in
  List.iter
    (fun (e : Obs.Events.event) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_domain e.ev_domain) in
      Hashtbl.replace by_domain e.ev_domain (e :: prev))
    evs;
  let slices = ref [] in
  Hashtbl.iter
    (fun _ rev_evs ->
      (* open slices, innermost first: name plus, for requests, the
         names begun inside so far *)
      let stack = ref [] in
      List.iter
        (fun (e : Obs.Events.event) ->
          let name = Obs.Events.kind_name e.ev_kind in
          match e.ev_phase with
          | Obs.Events.Begin ->
            List.iter (fun (_, inner) -> inner := name :: !inner) !stack;
            stack := (name, ref []) :: !stack
          | Obs.Events.End -> (
            (* A worker idle since before [enable] ends a slice it never
               began in this recording: skip such ends. *)
            match !stack with
            | (open_name, inner) :: rest when open_name = name ->
              if name = "server:request" then slices := !inner :: !slices;
              stack := rest
            | _ ->
              if List.mem_assoc name !stack then
                Alcotest.failf "%s ends across an open inner slice" name)
          | Obs.Events.Instant | Obs.Events.Sample -> ())
        (List.rev rev_evs))
    by_domain;
  !slices

(* serve --flight-record: one batch with a computed miss, a cache hit
   and a stats probe shows exactly the two scheduling requests as
   [server:request] slices, and only the miss has the pipeline's
   [scheduler:pipeline] slice nested inside. *)
let test_daemon_flight_spans () =
  with_tmp_dir "flight" (fun queue ->
      Unix.mkdir (Filename.concat queue "incoming") 0o755;
      Obs.Metrics.install (Obs.Metrics.create ());
      let config =
        { (Server.Daemon.default_config ~queue_dir:queue) with Server.Daemon.once = true }
      in
      (* warm the cache so that a repeat of this request is a hit *)
      write_request queue "warm" ~seconds:0.2;
      Server.Daemon.run config;
      Obs.Events.enable ();
      Fun.protect ~finally:Obs.Events.disable (fun () ->
          write_request queue "repeat" ~seconds:0.2;
          Atomic_file.write_string
            (Filename.concat queue "incoming/miss.req")
            ("algorithm pipeline\nseconds 0.2\np 3\ng 1\nl 2\nhyperdag\n"
            ^ Hyperdag_io.to_string (Test_util.diamond ()));
          Atomic_file.write_string
            (Filename.concat queue "incoming/probe.req")
            "id probe-1\nstats\n";
          Server.Daemon.run config;
          let resp name =
            read_json (Filename.concat queue ("done/" ^ name ^ ".resp.json"))
          in
          check_str "repeat is a hit" "hit" (str_field "cache" (resp "repeat"));
          check_str "miss computed" "miss" (str_field "cache" (resp "miss"));
          check_str "probe answered" "stats" (str_field "type" (resp "probe"));
          let slices = request_slices (Obs.Events.dump ()) in
          check "one slice per scheduling request, none for the probe" 2
            (List.length slices);
          let computed = List.filter (List.mem "scheduler:pipeline") slices in
          check "scheduler:pipeline only under the miss" 1 (List.length computed);
          check_bool "the hit computes nothing" true
            (List.exists
               (List.for_all (fun n -> not (String.starts_with ~prefix:"scheduler:" n)))
               slices)))

let test_daemon_stdio_stats () =
  with_tmp_dir "stdio-stats" (fun dir ->
      Obs.Metrics.install (Obs.Metrics.create ());
      let cache_dir = Filename.concat dir "cache" in
      let sched_req =
        "algorithm pipeline\nseconds 0.2\np 2\ng 1\nl 2\nhyperdag\n"
        ^ Hyperdag_io.to_string (Test_util.diamond ())
      in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      Out_channel.with_open_bin inp (fun oc ->
          Server.Daemon.write_frame oc sched_req;
          Server.Daemon.write_frame oc "stats\n");
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Server.Daemon.run_stdio ~cache_dir ic oc));
      In_channel.with_open_bin out (fun ic ->
          let r1 = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          let r2 = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          check_str "schedule frame ok" "miss" (str_field "cache" r1);
          check_str "stats frame typed" "stats" (str_field "type" r2);
          check_bool "stats frame carries no schedule" true
            (Obs.Json.member "schedule" r2 = None);
          let counters = field "counters" r2 in
          check "stdio scheduling request counted" 1
            (int_field "server.requests" counters);
          check "stdio stats request counted" 1
            (int_field "server.stats_requests" counters);
          check "stdio latency histogram count" 1
            (int_field "count"
               (field "server.request_seconds" (field "histograms" r2)))))

(* ------------------------------------------------------------------ *)
(* The disk stays the authority over a session's memory.                *)

(* A stdio session on pipes, served by [run_stdio] on a second domain,
   so that the test can change the cache between requests. [f] gets a
   function sending one request document and returning the reply. *)
let with_stdio_session ?memo ~cache_dir f =
  let req_r, req_w = Unix.pipe () and rep_r, rep_w = Unix.pipe () in
  let daemon =
    Domain.spawn (fun () ->
        let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr rep_w in
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            close_out oc)
          (fun () -> Server.Daemon.run_stdio ?memo ~cache_dir ic oc))
  in
  let oc = Unix.out_channel_of_descr req_w and ic = Unix.in_channel_of_descr rep_r in
  let ask doc =
    Server.Daemon.write_frame oc doc;
    Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic))
  in
  Fun.protect
    ~finally:(fun () ->
      close_out oc;
      Domain.join daemon;
      close_in ic)
    (fun () -> f ask)

let memo_dag () = Test_util.random_dag (Rng.create 11) ~n:24 ~edge_prob:0.2 ~max_w:5 ~max_c:3

let memo_request ?(algorithm = "bspg") ?(comment = "") dag =
  Printf.sprintf "algorithm %s\np 2\ng 1\nl 2\nhyperdag\n%s%s" algorithm comment
    (Hyperdag_io.to_string dag)

(* In one session, after a hit: deleting the entry or the cache
   directory gives a miss and then a hit; an entry replaced by another
   valid one is served as it is now; a corrupted entry is a miss that
   heals the cache; and a body that differs only in its comments shares
   the key and the schedule bytes. *)
let test_memo_disk_authority () =
  with_tmp_dir "memo-disk" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let dag = memo_dag () in
      let req = memo_request dag in
      with_stdio_session ~cache_dir (fun ask ->
          let expect label r = check_str label label (str_field "cache" r) in
          let r1 = ask req in
          expect "miss" r1;
          let r2 = ask req in
          expect "hit" r2;
          check_str "hit schedule" (str_field "schedule" r1) (str_field "schedule" r2);
          let key = str_field "key" r1 in
          let meta = Server.Cache.meta_path ~dir:cache_dir key
          and sched = Server.Cache.schedule_path ~dir:cache_dir key in
          (* deleted, as an entry or with the whole directory:
             recomputed, then warm again *)
          Sys.remove meta;
          Sys.remove sched;
          expect "miss" (ask req);
          expect "hit" (ask req);
          rm_rf cache_dir;
          expect "miss" (ask req);
          expect "hit" (ask req);
          (* replaced by another valid entry: that entry is served *)
          let trivial = Schedule.trivial dag in
          let trivial_cost = Bsp_cost.total small_machine trivial in
          check_bool "the replacement differs" true (trivial_cost <> int_field "cost" r1);
          Server.Cache.store ~dir:cache_dir ~key ~algorithm:"bspg" ~cost:trivial_cost
            ~seconds_budget:10.0 trivial;
          let r3 = ask req in
          expect "hit" r3;
          check "replacement cost" trivial_cost (int_field "cost" r3);
          check_str "replacement schedule" (Schedule_io.to_string trivial)
            (str_field "schedule" r3);
          (* corrupted: a miss that rewrites the entry, then a hit *)
          Atomic_file.write_string sched "garbage, not a schedule";
          let r4 = ask req in
          expect "miss" r4;
          check_str "healed schedule" (str_field "schedule" r1) (str_field "schedule" r4);
          (* the miss stores after its reply and before the next frame is
             read: that frame is a hit only if the store landed *)
          expect "hit" (ask req);
          check_str "healed file" (str_field "schedule" r1)
            (In_channel.with_open_bin sched In_channel.input_all);
          (* another body for the same DAG: same key, same bytes *)
          let r5 = ask (memo_request ~comment:"% the same instance\n" dag) in
          expect "hit" r5;
          check_str "same key" key (str_field "key" r5);
          check_str "same schedule" (str_field "schedule" r1) (str_field "schedule" r5);
          let counters = field "counters" (ask "stats\n") in
          check_bool "memo hits counted" true (int_field "server.memo_hits" counters > 0);
          check_bool "memo misses counted" true (int_field "server.memo_misses" counters > 0)))

(* A miss replies before it stores; once one more frame is answered,
   the entry's files hold the miss's schedule bytes and its meta. *)
let test_stdio_stores_after_reply () =
  with_tmp_dir "store-after-reply" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      with_stdio_session ~cache_dir (fun ask ->
          let r = ask (memo_request (memo_dag ())) in
          check_str "miss" "miss" (str_field "cache" r);
          ignore (ask "stats\n");
          let key = str_field "key" r in
          check_str "schedule file" (str_field "schedule" r)
            (In_channel.with_open_bin (Server.Cache.schedule_path ~dir:cache_dir key)
               In_channel.input_all);
          let meta = read_json (Server.Cache.meta_path ~dir:cache_dir key) in
          check_str "meta key" key (str_field "key" meta);
          check_str "meta algorithm" "bspg" (str_field "algorithm" meta);
          check "meta cost" (int_field "cost" r) (int_field "cost" meta);
          check "meta supersteps" (int_field "supersteps" r) (int_field "supersteps" meta)))

(* A store that fails does not fail its request: with the cache
   directory replaced by a regular file, a miss is still answered, and
   the failure is counted. *)
let test_stdio_store_failure () =
  with_tmp_dir "store-failure" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let dag = memo_dag () in
      with_stdio_session ~cache_dir (fun ask ->
          let r1 = ask (memo_request dag) in
          check_str "first ok" "ok" (str_field "status" r1);
          ignore (ask "stats\n");
          rm_rf cache_dir;
          Out_channel.with_open_bin cache_dir (fun oc -> output_string oc "not a directory");
          let r2 = ask (memo_request ~algorithm:"source" dag) in
          check_str "second ok" "ok" (str_field "status" r2);
          check_str "second computed" "miss" (str_field "cache" r2);
          let stats = ask "stats\n" in
          check "store errors" 1 (int_field "server.store_errors" (field "counters" stats));
          check "stores timed" 2
            (int_field "count" (field "server.store_seconds" (field "histograms" stats)))))

(* ------------------------------------------------------------------ *)
(* The stdio session buffer.                                            *)

(* Serve [frames] in one in-process stdio session (input and output
   files [name].in/.out in [dir]) and return the replies. *)
let stdio_replies ?memo ~cache_dir dir name frames =
  let inp = Filename.concat dir (name ^ ".in") and out = Filename.concat dir (name ^ ".out") in
  Out_channel.with_open_bin inp (fun oc -> List.iter (Server.Daemon.write_frame oc) frames);
  In_channel.with_open_bin inp (fun ic ->
      Out_channel.with_open_bin out (fun oc -> Server.Daemon.run_stdio ?memo ~cache_dir ic oc));
  In_channel.with_open_bin out (fun ic ->
      let rec go acc =
        match Server.Daemon.read_frame ic with
        | Some f -> go (Obs.Json.of_string f :: acc)
        | None -> List.rev acc
      in
      go [])

(* A warm hit reads its ~40 KB frame into the session buffer and finds
   its body in the memo there, so it allocates no copy of it: a session
   of one miss and 2k hits reads k hits' worth of words more than one of
   one miss and k hits, at most 2,000 a hit (a copy of the frame alone
   is about 5,000). Each session gets a fresh cache, so both begin with
   the same miss. *)
let test_stdio_hit_allocation () =
  with_tmp_dir "stdio-hit-words" (fun dir ->
      Obs.Metrics.install (Obs.Metrics.create ());
      let dag =
        Finegrained.generate_sized (Rng.create 1) ~family:Finegrained.Spmv
          ~shape:Finegrained.Wide ~target:1500
      in
      let req = "algorithm bspg\np 4\ng 2\nl 5\nhyperdag\n" ^ Hyperdag_io.to_string dag in
      check_bool "a ~40 KB frame" true (String.length req > 35_000);
      let sessions = ref 0 in
      let words hits =
        let inp = Filename.concat dir (Printf.sprintf "hits%d.in" hits) in
        let out = Filename.concat dir "hits.out" in
        Out_channel.with_open_bin inp (fun oc ->
            for _ = 0 to hits do
              Server.Daemon.write_frame oc req
            done);
        let session () =
          incr sessions;
          let cache_dir = Filename.concat dir (Printf.sprintf "cache%d" !sessions) in
          In_channel.with_open_bin inp (fun ic ->
              Out_channel.with_open_bin out (fun oc -> Server.Daemon.run_stdio ~cache_dir ic oc))
        in
        let words = Test_util.min_allocated_words ~repeats:3 session in
        let labels =
          In_channel.with_open_bin out (fun ic ->
              List.init (hits + 1) (fun _ ->
                  str_field "cache" (Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)))))
        in
        check_bool "one miss, then hits" true (labels = "miss" :: List.init hits (fun _ -> "hit"));
        words
      in
      let k = 20 in
      let per_hit = (words (2 * k) - words k) / k in
      check_bool (Printf.sprintf "a warm hit allocates %d words" per_hit) true (per_hit <= 2_000))

(* A frame shorter than the one before it leaves that one's bytes in
   the buffer past its end: it must be parsed and memoised as itself.
   Its reply equals the one a fresh session gives it, its repeat is a
   hit, and once a longer frame has overwritten the buffer again the
   memo still holds its body (a lookup of it does not parse). *)
let test_stdio_shorter_frame_after_longer () =
  with_tmp_dir "stdio-shorter" (fun dir ->
      let long_dag =
        Finegrained.generate_sized (Rng.create 1) ~family:Finegrained.Spmv
          ~shape:Finegrained.Wide ~target:300
      in
      let short_dag = memo_dag () in
      let long_req = memo_request long_dag and short_req = memo_request short_dag in
      check_bool "shorter" true (String.length short_req < String.length long_req);
      let memo = Server.Memo.create () in
      let cache_dir = Filename.concat dir "cache" in
      let replies =
        stdio_replies ~memo ~cache_dir dir "session" [ long_req; short_req; short_req; long_req ]
      in
      let alone =
        stdio_replies ~cache_dir:(Filename.concat dir "cache-alone") dir "alone" [ short_req ]
      in
      match (replies, alone) with
      | [ r_long; r_short; r_again; r_long_again ], [ r_alone ] ->
        check_str "the longer frame misses" "miss" (str_field "cache" r_long);
        check_str "and hits again" "hit" (str_field "cache" r_long_again);
        check_str "the shorter frame misses" "miss" (str_field "cache" r_short);
        check_str "its own key" (str_field "key" r_alone) (str_field "key" r_short);
        check_str "its own schedule" (str_field "schedule" r_alone) (str_field "schedule" r_short);
        check_str "its repeat hits" "hit" (str_field "cache" r_again);
        let pos = String.length short_req - String.length (Hyperdag_io.to_string short_dag) in
        ignore
          (Server.Memo.parse_body memo short_req ~pos (fun () ->
               Alcotest.fail "the shorter body was not memoised")
            : Dag.t)
      | _ -> Alcotest.fail "expected four replies and one")

(* A frame above the retained size is read into a buffer of its own and
   served like any other; the session buffer then serves the next
   frame. The huge frame is a small request whose body starts with a
   comment line of [retained_frame] bytes: the same DAG, so the same
   key and schedule. *)
let test_stdio_frame_above_retained () =
  with_tmp_dir "stdio-huge" (fun dir ->
      let dag = memo_dag () in
      let req = memo_request dag in
      let pad = "% " ^ String.make Server.Daemon.retained_frame 'x' ^ "\n" in
      let huge = memo_request ~comment:pad dag in
      check_bool "above the retained size" true (String.length huge > Server.Daemon.retained_frame);
      let replies =
        stdio_replies ~cache_dir:(Filename.concat dir "cache") dir "session" [ req; huge; req ]
      in
      let alone =
        stdio_replies ~cache_dir:(Filename.concat dir "cache-alone") dir "alone" [ huge ]
      in
      match (replies, alone) with
      | [ r1; r_huge; r3 ], [ r_alone ] ->
        check_str "miss" "miss" (str_field "cache" r1);
        check_str "the huge frame hits" "hit" (str_field "cache" r_huge);
        check_str "then the small one" "hit" (str_field "cache" r3);
        check_str "alone, the huge frame misses" "miss" (str_field "cache" r_alone);
        List.iter
          (fun r ->
            check_str "same key" (str_field "key" r1) (str_field "key" r);
            check_str "same schedule" (str_field "schedule" r1) (str_field "schedule" r))
          [ r_huge; r3; r_alone ]
      | _ -> Alcotest.fail "expected three replies and one")

(* The table's sizes come from array lengths; they equal what
   [Obj.reachable_words] counts for bodies and for entries with and
   without communication events and replicas. A body counts its own
   bytes, the copy the table keeps, not the request's header. *)
let test_memo_sizes () =
  let words x = Obj.reachable_words (Obj.repr x) in
  let dag = memo_dag () in
  List.iter
    (fun d -> check "DAG words" (words d) (Dag.heap_words d))
    [
      dag;
      Test_util.diamond ();
      Dag.of_edges ~n:3 ~edges:[] ~work:[| 1; 2; 3 |] ~comm:[| 1; 1; 1 |];
      Dag.of_edges ~n:0 ~edges:[] ~work:[||] ~comm:[||];
    ];
  let memo = Server.Memo.create () in
  let header = "p 2\nhyperdag\n" in
  let doc = header ^ Hyperdag_io.to_string dag in
  let pos = String.length header in
  let d = Server.Memo.parse_body memo doc ~pos (fun () -> Hyperdag_io.of_string ~pos doc) in
  check "body bytes" (String.length doc - pos + (8 * words d)) (Server.Memo.bytes memo);
  let chain = Test_util.chain 2 in
  let plain = Schedule.trivial dag in
  let with_comm = Schedule.with_lazy_comm (Bspg.schedule small_machine dag) in
  let replicated =
    Schedule.make_replicated chain ~proc:[| 0; 0 |] ~step:[| 0; 1 |]
      ~comm:[ { Schedule.node = 0; src = 0; dst = 1; step = 0 } ]
      ~replicas:[ (1, 1, 1) ]
  in
  check_bool "events" true (with_comm.Schedule.comm <> []);
  check_bool "replicas" true (Schedule.has_replicas replicated);
  List.iter
    (fun schedule ->
      let memo = Server.Memo.create () in
      let entry = { Server.Cache.cost = 1; seconds_budget = Unix.gettimeofday (); schedule } in
      let ident =
        let f = { Server.Cache.ino = 1; size = 1; mtime = 1.0 } in
        { Server.Cache.meta = f; sched = f }
      in
      Server.Memo.add_entry memo "k" ~ident { Server.Memo.entry; escaped = "escaped" };
      check "entry bytes" (7 + (8 * words entry)) (Server.Memo.bytes memo))
    [ plain; with_comm; replicated ]

(* A warm entry serves the DAG object it was stored for and any
   structurally equal one, rebound to it, but never another DAG that
   reached the same content address, and only while its files keep the
   identity it was stored with. *)
let test_memo_entry_binding () =
  let dag = memo_dag () in
  let schedule = Schedule.trivial dag in
  let entry = { Server.Cache.cost = 1; seconds_budget = 1.0; schedule } in
  let file ino = { Server.Cache.ino; size = 10; mtime = 1.0 } in
  let ident = { Server.Cache.meta = file 1; sched = file 2 } in
  let memo = Server.Memo.create () in
  Server.Memo.add_entry memo "k" ~ident { Server.Memo.entry; escaped = "" };
  let find ?(ident = ident) d = Server.Memo.find_entry memo "k" ~ident ~dag:d in
  (match find dag with
   | Some w -> check_bool "same object" true (w.Server.Memo.entry.Server.Cache.schedule == schedule)
   | None -> Alcotest.fail "no hit for the stored DAG");
  let copy = Hyperdag_io.of_string (Hyperdag_io.to_string dag) in
  (match find copy with
   | Some w ->
     check_bool "rebound" true (w.Server.Memo.entry.Server.Cache.schedule.Schedule.dag == copy)
   | None -> Alcotest.fail "no hit for an equal DAG");
  check_bool "another DAG misses" true (find (Test_util.chain (Dag.n dag)) = None);
  check_bool "another identity misses" true
    (find ~ident:{ ident with Server.Cache.sched = file 3 } dag = None)

(* An entry read from disk is checked on the request's machine: a bspg
   entry for p = 2 whose line "0 0 0" was rewritten to "0 99 7" (a
   processor the machine lacks), or whose meta file records another
   cost, is a miss, and the recompute rewrites it. *)
let test_cache_validates_loaded_entries () =
  with_tmp_dir "cache-validate" (fun cache_dir ->
      let dag = memo_dag () in
      let req = request ~id:"a" ~algorithm:"bspg" dag in
      let r1 = Server.Engine.handle ~cache_dir req in
      let key = r1.Server.Engine.key in
      let sched = Server.Cache.schedule_path ~dir:cache_dir key
      and meta = Server.Cache.meta_path ~dir:cache_dir key in
      let good = In_channel.with_open_bin sched In_channel.input_all in
      let lines = String.split_on_char '\n' good in
      check_bool "node 0 on processor 0 in superstep 0" true (List.mem "0 0 0" lines);
      Atomic_file.write_string sched
        (String.concat "\n" (List.map (fun l -> if l = "0 0 0" then "0 99 7" else l) lines));
      check_bool "the rewritten entry still parses" true
        (Option.is_some (Server.Cache.lookup ~dir:cache_dir ~dag key));
      let r2 = Server.Engine.handle ~cache_dir req in
      check_bool "invalid schedule is a miss" true (r2.Server.Engine.status = Server.Engine.Miss);
      check "recomputed cost" r1.Server.Engine.cost r2.Server.Engine.cost;
      check_str "entry rewritten" good (In_channel.with_open_bin sched In_channel.input_all);
      let recorded_cost () = int_field "cost" (read_json meta) in
      check "meta records the cost" r1.Server.Engine.cost (recorded_cost ());
      (match read_json meta with
       | Obs.Json.Obj kvs ->
         let kvs =
           List.map
             (fun (k, v) ->
               if k = "cost" then (k, Obs.Json.Int (r1.Server.Engine.cost + 1)) else (k, v))
             kvs
         in
         Atomic_file.write_string meta (Obs.Json.to_string (Obs.Json.Obj kvs) ^ "\n")
       | _ -> Alcotest.fail "meta is not an object");
      let r3 = Server.Engine.handle ~cache_dir req in
      check_bool "mis-costed entry is a miss" true
        (r3.Server.Engine.status = Server.Engine.Miss);
      check "recomputed cost again" r1.Server.Engine.cost r3.Server.Engine.cost;
      check "meta rewritten" r1.Server.Engine.cost (recorded_cost ()))

(* A session fed more distinct bodies than its budget holds keeps its
   table, as the gauge reports it, within the budget, and still answers
   every request. *)
let test_memo_budget () =
  with_tmp_dir "memo-budget" (fun dir ->
      let registry = Obs.Metrics.create () in
      Obs.Metrics.install registry;
      let budget = 16 * 1024 in
      let memo = Server.Memo.create ~budget () in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      let bodies = 12 in
      Out_channel.with_open_bin inp (fun oc ->
          for i = 1 to bodies do
            let dag =
              Test_util.random_dag (Rng.create i) ~n:30 ~edge_prob:0.2 ~max_w:5 ~max_c:3
            in
            Server.Daemon.write_frame oc (memo_request dag);
            Server.Daemon.write_frame oc "stats\n"
          done);
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc ->
              Server.Daemon.run_stdio ~memo ~cache_dir:(Filename.concat dir "cache") ic oc));
      In_channel.with_open_bin out (fun ic ->
          for _ = 1 to bodies do
            let r = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
            check_str "answered" "miss" (str_field "cache" r);
            let stats = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
            match Obs.Json.member "server.memo_bytes" (field "gauges" stats) with
            | Some (Obs.Json.Float b) ->
              check_bool "gauge within the budget" true (b > 0.0 && b <= float_of_int budget)
            | _ -> Alcotest.fail "no server.memo_bytes gauge"
          done);
      check_bool "table within the budget" true (Server.Memo.bytes memo <= budget);
      check_bool "evicted" true
        (Obs.Metrics.counter_value registry "server.memo_evictions" > 0);
      (* an item larger than the whole budget is not stored *)
      let tiny = Server.Memo.create ~budget:64 () in
      let header = "p 2\nhyperdag\n" in
      let doc = header ^ Hyperdag_io.to_string (memo_dag ()) in
      let pos = String.length header in
      ignore (Server.Memo.parse_body tiny doc ~pos (fun () -> Hyperdag_io.of_string ~pos doc));
      check "oversized body not stored" 0 (Server.Memo.bytes tiny))

(* The same two queue batches at -j 1 and -j 2, one session each: warm
   hits, a rebound hit, misses, a coalesced follower and an error get
   the same responses and schedule files. *)
let test_memo_queue_jobs () =
  let dag = memo_dag () and other = Test_util.diamond () in
  let batch1 = [ ("a", memo_request dag); ("b", memo_request ~algorithm:"source" other) ] in
  let batch2 =
    [
      ("c", memo_request dag);
      ("d", memo_request ~comment:"% again\n" ~algorithm:"source" other);
      ("e", memo_request ~algorithm:"hdagg" dag);
      ("f", memo_request ~algorithm:"hdagg" dag);
      ("g", memo_request ~algorithm:"cilk" other);
      ("h", memo_request ~algorithm:"nosuch" dag);
    ]
  in
  let run jobs =
    with_tmp_dir "memo-queue" (fun queue ->
        Unix.mkdir (Filename.concat queue "incoming") 0o755;
        let config =
          { (Server.Daemon.default_config ~queue_dir:queue) with Server.Daemon.once = true }
        in
        let memo = Server.Memo.create () in
        let batch reqs =
          List.iter
            (fun (name, body) ->
              Atomic_file.write_string
                (Filename.concat queue ("incoming/" ^ name ^ ".req"))
                body)
            reqs;
          Par.with_jobs jobs (fun () -> Server.Daemon.run ~memo config)
        in
        batch batch1;
        batch batch2;
        List.map
          (fun (name, _) ->
            let resp =
              match read_json (Filename.concat queue ("done/" ^ name ^ ".resp.json")) with
              | Obs.Json.Obj kvs -> Obs.Json.Obj (List.remove_assoc "seconds" kvs)
              | j -> j
            in
            let sched = Filename.concat queue ("done/" ^ name ^ ".schedule") in
            ( name,
              Obs.Json.to_string_compact resp,
              if Sys.file_exists sched then In_channel.with_open_bin sched In_channel.input_all
              else "" ))
          (batch1 @ batch2))
  in
  let one = run 1 and two = run 2 in
  List.iter2
    (fun (name, resp1, sched1) (_, resp2, sched2) ->
      check_str (name ^ " response") resp1 resp2;
      check_str (name ^ " schedule") sched1 sched2)
    one two;
  let label name =
    let _, resp, _ = List.find (fun (n, _, _) -> n = name) one in
    match Obs.Json.member "cache" (Obs.Json.of_string resp) with
    | Some (Obs.Json.String s) -> s
    | _ -> "error"
  in
  List.iter
    (fun (name, expected) -> check_str name expected (label name))
    [
      ("a", "miss"); ("b", "miss"); ("c", "hit"); ("d", "hit"); ("e", "miss");
      ("f", "coalesced"); ("g", "miss"); ("h", "error");
    ]

(* [serve --stdio --trace] logs its span summaries to stderr: on stdout
   they would break the framing. *)
let test_stdio_trace_keeps_frames () =
  with_tmp_dir "stdio-trace" (fun dir ->
      let file = Filename.concat dir in
      Out_channel.with_open_bin (file "in") (fun oc ->
          Server.Daemon.write_frame oc (memo_request (memo_dag ())));
      let cmd =
        Filename.quote_command (cli_bin "scheduler") ~stdin:(file "in") ~stdout:(file "out")
          ~stderr:(file "err")
          [ "serve"; "--stdio"; "--trace"; "--cache"; file "cache" ]
      in
      check "exit code" 0 (Sys.command cmd);
      In_channel.with_open_bin (file "out") (fun ic ->
          let r = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          check_str "reply" "miss" (str_field "cache" r);
          check_bool "one frame only" true (Server.Daemon.read_frame ic = None));
      check_bool "spans on stderr" true
        (Test_util.contains_substring
           (In_channel.with_open_bin (file "err") In_channel.input_all)
           "server:request"))

(* ------------------------------------------------------------------ *)
(* Instances whose costs would overflow [int] are refused.              *)

let huge_work_dag () =
  Dag.map_weights (Test_util.chain 4) ~work:(fun _ -> 1 lsl 61) ~comm:(fun _ -> 1)

let test_cost_overflow_refused () =
  let refused f =
    match f () with
    | _ -> false
    | exception Failure msg -> Test_util.contains_substring msg "cost bound"
  in
  check_bool "work 2^61 per node" true
    (refused (fun () ->
         Server.Engine.schedule ~seconds:1.0 ~seed:1 ~replicate:false ~algorithm:"bspg"
           (Machine.uniform ~p:2 ~g:1 ~l:1) (huge_work_dag ())));
  check_bool "lambda 10^18 at p = 1024" true
    (refused (fun () ->
         Server.Engine.schedule ~seconds:1.0 ~seed:1 ~replicate:false ~algorithm:"bspg"
           (Machine.numa_tree ~p:1024 ~g:1 ~l:5 ~delta:100) (Test_util.diamond ())));
  check_bool "delta^9 past max_int" true
    (match Machine.numa_tree ~p:1024 ~g:1 ~l:5 ~delta:200 with
     | _ -> false
     | exception Invalid_argument _ -> true);
  check_bool "ordinary instances pass" true
    (Bsp_cost.cost_bound small_machine (memo_dag ()) <> None);
  (* the daemon answers an error, stores nothing, and goes on *)
  with_tmp_dir "overflow" (fun dir ->
      let cache_dir = Filename.concat dir "cache" in
      let inp = Filename.concat dir "in" and out = Filename.concat dir "out" in
      let numa delta =
        Printf.sprintf "algorithm bspg\np 1024\nnuma-delta %d\nhyperdag\n%s" delta
          (Hyperdag_io.to_string (Test_util.diamond ()))
      in
      Out_channel.with_open_bin inp (fun oc ->
          Server.Daemon.write_frame oc (numa 100);
          Server.Daemon.write_frame oc (numa 200);
          Server.Daemon.write_frame oc
            ("algorithm bspg\np 2\nhyperdag\n" ^ Hyperdag_io.to_string (huge_work_dag ()));
          Server.Daemon.write_frame oc (memo_request (memo_dag ())));
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc -> Server.Daemon.run_stdio ~cache_dir ic oc));
      In_channel.with_open_bin out (fun ic ->
          let next () = Obs.Json.of_string (Option.get (Server.Daemon.read_frame ic)) in
          List.iter
            (fun what -> check_str what "error" (str_field "status" (next ())))
            [ "numa-delta 100"; "numa-delta 200"; "work 2^61" ];
          check_str "next request answered" "ok" (str_field "status" (next ())));
      check "one entry stored, for the last request" 2 (Array.length (Sys.readdir cache_dir)));
  (* the CLI exits non-zero instead of printing a wrapped cost *)
  with_tmp_dir "overflow-cli" (fun dir ->
      let file = Filename.concat dir in
      Hyperdag_io.write_file (file "huge.hdag") (huge_work_dag ());
      let cmd =
        Filename.quote_command (cli_bin "scheduler") ~stdout:(file "stdout") ~stderr:(file "stderr")
          [ file "huge.hdag"; "-a"; "bspg"; "-p"; "2"; "-q" ]
      in
      check_bool "non-zero exit" true (Sys.command cmd <> 0);
      check_str "no cost printed" "" (In_channel.with_open_bin (file "stdout") In_channel.input_all))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "server"
    [
      ( "binary-format",
        [
          prop_binary_roundtrip;
          prop_binary_structural;
          Alcotest.test_case "file round-trip and sniffing" `Quick
            test_binary_file_roundtrip;
          prop_binary_truncation;
          prop_binary_fuzz;
          Alcotest.test_case "garbage rejected" `Quick test_binary_garbage;
          Alcotest.test_case "huge declared node count rejected" `Quick
            test_binary_huge_node_count;
          Alcotest.test_case "text: huge declared counts rejected" `Quick
            test_text_huge_declared_count;
          Alcotest.test_case "binary is compact" `Quick test_binary_compact;
        ] );
      ( "atomic-write",
        [
          Alcotest.test_case "crash mid-write keeps old version" `Quick
            test_atomic_write_crash;
          Alcotest.test_case "crash on fresh file leaves nothing" `Quick
            test_atomic_write_fresh_crash;
          Alcotest.test_case "successful write replaces" `Quick
            test_atomic_write_replaces;
        ] );
      ( "engine",
        [
          Alcotest.test_case "miss then bit-identical hit, jobs 1 and 4" `Quick
            test_engine_miss_then_hit;
          Alcotest.test_case "refresh tops up the budget" `Quick
            test_engine_refresh_tops_budget;
          Alcotest.test_case "baselines never refresh" `Quick
            test_engine_budget_insensitive;
          Alcotest.test_case "key separates workloads, ignores budget" `Quick
            test_engine_distinct_keys;
          Alcotest.test_case "corrupt cache entries self-heal" `Quick
            test_cache_self_heals;
          Alcotest.test_case "unknown algorithm rejected" `Quick
            test_engine_rejects_unknown_algorithm;
          Alcotest.test_case "non-finite or non-positive seconds rejected" `Quick
            test_engine_rejects_bad_seconds;
          Alcotest.test_case "pipeline above the ILPinit limit pinned" `Quick
            test_engine_pipeline_golden;
          Alcotest.test_case "replication is one post-pass" `Quick
            test_engine_replicate_post_pass;
          Alcotest.test_case "multilevel coarse solves keep ILPinit" `Quick
            test_engine_multilevel_keeps_ilp_init;
          Alcotest.test_case "cache keys pinned" `Quick test_cache_key_golden;
          Alcotest.test_case "structural hash allocation is constant" `Quick
            test_structural_hash_allocation;
        ] );
      ( "request",
        [
          Alcotest.test_case "inline parse" `Quick test_request_parse_inline;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_parse_errors;
          Alcotest.test_case "p above the limit rejected" `Quick test_request_p_limit;
          Alcotest.test_case "machine file above the limit rejected" `Quick
            test_request_machine_file_p_limit;
          Alcotest.test_case "CLI p above the limit is a usage error" `Quick
            test_cli_p_limit;
          Alcotest.test_case "evaluate reads text and binary DAGs alike" `Quick
            test_cli_evaluate_binary;
          Alcotest.test_case "CLI malformed input file is a usage error" `Quick
            test_cli_malformed_input;
          prop_request_oracle;
        ] );
      ( "framing",
        [
          Alcotest.test_case "round-trip" `Quick test_framing_roundtrip;
          Alcotest.test_case "truncation rejected" `Quick test_framing_truncation;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "queue: miss, coalesce, hit, error, metrics" `Quick
            test_daemon_once;
          Alcotest.test_case "stdio session" `Quick test_daemon_stdio;
          Alcotest.test_case "stdio replies pinned: miss then hit" `Quick
            test_daemon_stdio_reply_golden;
          Alcotest.test_case "stdio session survives a hostile header" `Quick
            test_daemon_stdio_survives_hostile_header;
          Alcotest.test_case "stdio session survives an engine error" `Quick
            test_daemon_stdio_survives_engine_error;
          Alcotest.test_case "stdio session survives a refused budget" `Quick
            test_daemon_stdio_survives_bad_seconds;
          Alcotest.test_case "stdio truncated frame gets an error reply" `Quick
            test_daemon_stdio_truncated_frame;
          Alcotest.test_case "stats round-trip, jobs 1" `Quick
            (run_stats_roundtrip ~jobs:1);
          Alcotest.test_case "stats round-trip, jobs 4" `Quick
            (run_stats_roundtrip ~jobs:4);
          Alcotest.test_case "stdio stats frame" `Quick test_daemon_stdio_stats;
          Alcotest.test_case "flight recorder: request and stage slices" `Quick
            test_daemon_flight_spans;
          Alcotest.test_case "stdio trace keeps stdout to frames" `Quick
            test_stdio_trace_keeps_frames;
          Alcotest.test_case "stdio warm hit copies no frame" `Quick test_stdio_hit_allocation;
          Alcotest.test_case "stdio shorter frame after a longer one" `Quick
            test_stdio_shorter_frame_after_longer;
          Alcotest.test_case "stdio frame above the retained size" `Quick
            test_stdio_frame_above_retained;
        ] );
      ( "memo",
        [
          Alcotest.test_case "the disk stays the authority" `Quick test_memo_disk_authority;
          Alcotest.test_case "warm entries bind to their DAG" `Quick test_memo_entry_binding;
          Alcotest.test_case "loaded entries are validated" `Quick
            test_cache_validates_loaded_entries;
          Alcotest.test_case "bounded by its budget" `Quick test_memo_budget;
          Alcotest.test_case "queue batches equal at -j 1 and -j 2" `Quick
            test_memo_queue_jobs;
          Alcotest.test_case "overflowing costs refused" `Quick test_cost_overflow_refused;
          Alcotest.test_case "a miss stores after its reply" `Quick
            test_stdio_stores_after_reply;
          Alcotest.test_case "a failed store keeps the reply" `Quick test_stdio_store_failure;
          Alcotest.test_case "sizes from array lengths" `Quick test_memo_sizes;
        ] );
    ]
