let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let quotient_is_dag session =
  let qdag, _ = Coarsen.quotient session in
  (* of_edges validates acyclicity; quotient uses the unchecked builder,
     so run the check explicitly. *)
  Dag.is_acyclic_edges ~n:(Dag.n qdag) (Dag.edges qdag)

let test_contract_chain () =
  let dag = Test_util.chain 4 in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:2;
  check "alive" 2 (Coarsen.num_alive session);
  check_bool "still a dag" true (quotient_is_dag session);
  let qdag, _ = Coarsen.quotient session in
  check "quotient work preserved" (Dag.total_work dag) (Dag.total_work qdag);
  check "quotient comm preserved" (Dag.total_comm dag) (Dag.total_comm qdag)

let test_uncontractable_edge_skipped () =
  (* Edge (0,2) has the alternative path 0 -> 1 -> 2, so contracting the
     whole triangle to 2 nodes must never produce a cycle. *)
  let dag =
    Dag.of_edges ~n:3 ~edges:[ (0, 1); (1, 2); (0, 2) ] ~work:[| 1; 1; 1 |]
      ~comm:[| 1; 1; 1 |]
  in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:2;
  check "alive" 2 (Coarsen.num_alive session);
  check_bool "still a dag" true (quotient_is_dag session)

let test_undo_restores_structure () =
  let rng = Rng.create 13 in
  let dag = Test_util.random_dag rng ~n:20 ~edge_prob:0.2 ~max_w:4 ~max_c:3 in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:6;
  let contracted = List.length (Coarsen.history session) in
  check_bool "did contract" true (contracted > 0);
  for _ = 1 to contracted do
    match Coarsen.undo_last session with
    | Some _ -> ()
    | None -> Alcotest.fail "history exhausted early"
  done;
  check "fully restored count" (Dag.n dag) (Coarsen.num_alive session);
  check_bool "no more history" true (Coarsen.undo_last session = None);
  let qdag, rep_of_id = Coarsen.quotient session in
  check "same n" (Dag.n dag) (Dag.n qdag);
  (* After full undo the quotient must be the original graph (up to the
     identity id map). *)
  Array.iteri (fun i r -> check "identity map" i r) rep_of_id;
  Alcotest.(check (list (pair int int))) "same edges" (Dag.edges dag) (Dag.edges qdag);
  Array.iteri
    (fun v _ ->
      check "same work" (Dag.work dag v) (Dag.work qdag v);
      check "same comm" (Dag.comm dag v) (Dag.comm qdag v))
    (Array.make (Dag.n dag) ())

let test_owner_tracking () =
  let dag = Test_util.chain 3 in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:1;
  let root = Coarsen.owner session 0 in
  check "all merged to one owner" root (Coarsen.owner session 1);
  check "all merged to one owner" root (Coarsen.owner session 2);
  check_bool "owner alive" true (Coarsen.alive session root)

(* One [run_ratio] pass per ratio of the default config on one shared
   coarsening, keeping the cheapest (the earlier ratio on ties), as
   [Pipeline.run_multilevel] does before its final polish. *)
let best_over_ratios ~solver m dag =
  let config = Multilevel.default_config in
  let contractions = Multilevel.coarsening ~ratios:config.Multilevel.ratios dag in
  let pass ratio =
    Multilevel.run_ratio ~contractions ~refine_interval:config.Multilevel.refine_interval
      ~refine_moves:config.Multilevel.refine_moves ~solver ~ratio m dag
  in
  match List.map pass config.Multilevel.ratios with
  | [] -> Alcotest.fail "no ratios configured"
  | first :: rest ->
    List.fold_left
      (fun best cand -> if Bsp_cost.total m cand < Bsp_cost.total m best then cand else best)
      first rest

let test_multilevel_run_valid () =
  let rng = Rng.create 19 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:15 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:4 ~g:2 ~l:5 ~delta:4 in
  let solver mach d = Bspg.schedule mach d in
  let s = best_over_ratios ~solver m dag in
  check_bool "valid" true (Validity.is_valid m s);
  let contractions = Multilevel.coarsening ~ratios:[ 0.3 ] dag in
  let single =
    Multilevel.run_ratio ~contractions ~refine_interval:5 ~refine_moves:100 ~solver ~ratio:0.3
      m dag
  in
  check_bool "single ratio valid" true (Validity.is_valid m single)

let test_multilevel_beats_trivial_on_comm_heavy () =
  (* A wide communication-heavy instance: the multilevel result should
     at least match the trivial single-processor schedule, which plain
     per-node schedulers often fail to do here (Section 7.3). *)
  let rng = Rng.create 21 in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:20 ~q:0.15) ~k:3 in
  let m = Machine.numa_tree ~p:8 ~g:2 ~l:5 ~delta:4 in
  let solver mach d = fst (Hc.improve mach (Bspg.schedule mach d)) in
  let ml = best_over_ratios ~solver m dag in
  let trivial = Bsp_cost.total m (Schedule.trivial dag) in
  check_bool "no worse than 1.2x trivial" true
    (float_of_int (Bsp_cost.total m ml) <= 1.2 *. float_of_int trivial)

(* Properties: coarsening preserves acyclicity and total weights at every
   target; undo round-trips. *)
let prop_coarsen_acyclic_and_weights =
  Test_util.qtest ~count:60 "coarsen safe"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (int_range 1 10))
    (fun (dag, target) ->
      let session = Coarsen.start dag in
      Coarsen.coarsen_to session ~target;
      let qdag, _ = Coarsen.quotient session in
      Dag.is_acyclic_edges ~n:(Dag.n qdag) (Dag.edges qdag)
      && Dag.total_work qdag = Dag.total_work dag
      && Dag.total_comm qdag = Dag.total_comm dag)

let prop_undo_roundtrip =
  Test_util.qtest ~count:60 "undo roundtrip" (Test_util.arb_dag ()) (fun dag ->
      let session = Coarsen.start dag in
      Coarsen.coarsen_to session ~target:(max 1 (Dag.n dag / 3));
      let k = List.length (Coarsen.history session) in
      for _ = 1 to k do
        ignore (Coarsen.undo_last session : Coarsen.contraction option)
      done;
      let qdag, _ = Coarsen.quotient session in
      Dag.n qdag = Dag.n dag
      && Dag.edges qdag = Dag.edges dag
      && Array.for_all
           (fun v -> Dag.work qdag v = Dag.work dag v && Dag.comm qdag v = Dag.comm dag v)
           (Array.init (Dag.n dag) Fun.id))

let prop_multilevel_valid =
  Test_util.qtest ~count:20 "multilevel valid"
    QCheck2.Gen.(pair (Test_util.arb_dag ~max_n:20 ()) (Test_util.arb_machine ~max_p:4 ()))
    (fun (dag, m) ->
      let solver mach d = Bspg.schedule mach d in
      let s = best_over_ratios ~solver m dag in
      Validity.is_valid m s)

(* Refinement ends with its budget: under any step budget, and without
   one, run_ratio gives the bytes of the old loop that refined after
   every chunk, and HC runs only for the passes made before the budget
   ran out. *)
let prop_refine_skip_matches_reference =
  Test_util.qtest ~count:40 "refine skip matches reference"
    QCheck2.Gen.(
      triple (Test_util.arb_dag ~max_n:60 ()) (oneofl [ 4; 8 ])
        (oneofl [ Some 0; Some 1; Some 1_000; Some 50_000; None ]))
    (fun (dag, p, steps) ->
      let m = Machine.numa_tree ~p ~g:3 ~l:5 ~delta:2 in
      let budget () =
        match steps with Some k -> Budget.steps k | None -> Budget.unlimited ()
      in
      let solver mach d = Bspg.schedule mach d in
      let run f =
        let r = Obs.Metrics.create () in
        let s = Obs.Metrics.with_registry r (fun () -> f (budget ())) in
        (Schedule_io.to_string s, r)
      in
      let contractions = Multilevel.coarsening ~ratios:[ 0.3 ] dag in
      let bytes, r =
        run (fun budget ->
            Multilevel.run_ratio ~budget ~contractions ~refine_interval:2 ~refine_moves:5
              ~solver ~ratio:0.3 m dag)
      in
      let ref_bytes, ref_r =
        run (fun budget ->
            Multilevel_reference.run_ratio ~budget ~refine_interval:2 ~refine_moves:5 ~solver
              ~ratio:0.3 m dag)
      in
      let runs = Obs.Metrics.counter_value r "hc.runs" in
      let skipped = Obs.Metrics.counter_value r "multilevel.refine_levels_skipped" in
      bytes = ref_bytes
      && runs + skipped = Obs.Metrics.counter_value ref_r "hc.runs"
      && runs = Obs.Metrics.counter_value r "multilevel.refine_passes"
      && (steps <> Some 0 || runs = 0)
      && (steps <> None || skipped = 0))

(* One coarsening serves every ratio: replaying the first n - t1
   contractions of a run to t2 <= t1 must rebuild the level a run to t1
   reaches from scratch, down to the quotient's CSR, weights and
   representative map and the order undo_last restores the nodes in.
   Sparse DAGs leave edgeless components, where both runs stop short of
   their target. *)
let arb_replay =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 40 in
    let* edge_prob = oneofl [ 0.0; 0.03; 0.1; 0.3 ] in
    let* t2 = int_range 1 n in
    let* t1 = int_range t2 n in
    let dag = Test_util.random_dag (Rng.create seed) ~n ~edge_prob ~max_w:5 ~max_c:4 in
    return (dag, t1, t2))

let level_of session =
  let qdag, rep_of_id = Coarsen.quotient session in
  ( ( Dag.succ_offsets qdag,
      Dag.succ_targets qdag,
      Array.init (Dag.n qdag) (Dag.work qdag),
      Array.init (Dag.n qdag) (Dag.comm qdag) ),
    rep_of_id )

let undo_all session =
  let rec go acc =
    match Coarsen.undo_last session with Some c -> go (c :: acc) | None -> List.rev acc
  in
  go []

let prop_replay_matches_coarsen =
  Test_util.qtest ~count:200 "replayed prefix = coarsen to the larger target" arb_replay
    (fun (dag, t1, t2) ->
      let deep = Coarsen.start dag in
      Coarsen.coarsen_to deep ~target:t2;
      let replayed = Coarsen.start dag in
      Coarsen.replay replayed (Coarsen.history deep) ~target:t1;
      let direct = Coarsen.start dag in
      Coarsen.coarsen_to direct ~target:t1;
      Coarsen.num_contractions replayed = Coarsen.num_contractions direct
      && Coarsen.num_contractions replayed
         = min (Dag.n dag - t1) (Coarsen.num_contractions deep)
      && level_of replayed = level_of direct
      && undo_all replayed = undo_all direct)

let test_replay_rejects_foreign_history () =
  let dag = Test_util.chain 4 in
  let session = Coarsen.start dag in
  Alcotest.check_raises "not an edge"
    (Invalid_argument "Coarsen.replay: contraction is not an edge of the current level")
    (fun () ->
      Coarsen.replay session [ { Coarsen.kept = 0; removed = 2 } ] ~target:1)

(* The pipeline's one-coarsening path: every ratio's pass on one shared
   history gives the bytes and the HC work of the reference pass, which
   coarsens to its own target. *)
let prop_shared_coarsening_matches_reference =
  Test_util.qtest ~count:40 "shared coarsening = reference's own"
    QCheck2.Gen.(pair (Test_util.arb_dag ~max_n:60 ()) (oneofl [ 4; 8 ]))
    (fun (dag, p) ->
      let m = Machine.numa_tree ~p ~g:3 ~l:5 ~delta:2 in
      let ratios = Multilevel.default_config.Multilevel.ratios in
      let contractions = Multilevel.coarsening ~ratios dag in
      let solver mach d = Bspg.schedule mach d in
      let run f =
        let r = Obs.Metrics.create () in
        let s = Obs.Metrics.with_registry r f in
        ( Schedule_io.to_string s,
          List.map (Obs.Metrics.counter_value r) [ "hc.runs"; "hc.moves_evaluated" ] )
      in
      List.for_all
        (fun ratio ->
          run (fun () ->
              Multilevel.run_ratio ~contractions ~refine_interval:2 ~refine_moves:5 ~solver
                ~ratio m dag)
          = run (fun () ->
                Multilevel_reference.run_ratio ~refine_interval:2 ~refine_moves:5 ~solver
                  ~ratio m dag))
        ratios)

(* The contractability test searches only the window between u and v in
   the session's topological order, repaired after every contraction and
   rebuilt now and then. It must pick the contractions of the unbounded
   search (test/coarsen_reference.ml) on random DAGs and on the exp and
   spmv generators, from a fresh session and from a pooled one, and the
   order must stay topological, also in a run resumed after a
   replay. *)
let arb_coarsen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* kind = int_bound 2 in
    let* size = int_range 2 40 in
    let rng = Rng.create seed in
    let dag =
      match kind with
      | 0 ->
        Test_util.random_dag rng ~n:size ~edge_prob:(float_of_int (seed mod 4) *. 0.1)
          ~max_w:5 ~max_c:4
      | 1 -> Finegrained.exp (Sparse_matrix.random rng ~n:(4 + (size / 3)) ~q:0.2) ~k:3
      | _ -> Finegrained.spmv (Sparse_matrix.random rng ~n:(4 + (size / 2)) ~q:0.2)
    in
    let* target = int_range 1 (max 1 (Dag.n dag)) in
    return (dag, target))

let prop_bounded_test_matches_unbounded =
  Test_util.qtest ~count:150 "bounded contractability = unbounded search" arb_coarsen
    (fun (dag, target) ->
      let expected = Coarsen_reference.history dag ~target in
      let fresh = Coarsen.start dag in
      Coarsen.coarsen_to fresh ~target;
      (* The order exists once coarsen_to has run a round. *)
      if Dag.n dag > target then Coarsen.check_order fresh;
      let pooled = Coarsen.take dag in
      Coarsen.coarsen_to pooled ~target;
      let pooled_history = Coarsen.history pooled in
      Coarsen.release pooled;
      (* A run resumed after a replay starts a new round, so it may
         choose other contractions; its order must still be sound. *)
      let resumed = Coarsen.start dag in
      Coarsen.replay resumed expected ~target:(Dag.n dag - (List.length expected / 2));
      let rounds = Coarsen.num_alive resumed > target in
      Coarsen.coarsen_to resumed ~target;
      if rounds then Coarsen.check_order resumed;
      Coarsen.history fresh = expected && pooled_history = expected)

(* The level view is the quotient, entry for entry over its n nodes and
   m edges, at every step of a full uncoarsening. *)
let prefix a len = Array.sub a 0 len

let level_arrays (g, rep) =
  let n = Dag.n g and m = Dag.num_edges g in
  ( (n, m, prefix rep n, Array.init n (Dag.work g), Array.init n (Dag.comm g)),
    ( prefix (Dag.succ_offsets g) (n + 1),
      prefix (Dag.succ_targets g) m,
      prefix (Dag.pred_offsets g) (n + 1),
      prefix (Dag.pred_targets g) m ),
    (prefix (Dag.topological_order g) n, prefix (Dag.topological_rank g) n) )

let prop_view_matches_quotient =
  Test_util.qtest ~count:60 "level view = quotient at every step" arb_coarsen
    (fun (dag, target) ->
      let session = Coarsen.take dag in
      Coarsen.coarsen_to session ~target;
      let same () =
        level_arrays (Coarsen.view session) = level_arrays (Coarsen.quotient session)
      in
      let ok = ref (same ()) in
      while Coarsen.undo_last session <> None do
        ok := !ok && same ()
      done;
      Coarsen.release session;
      !ok)

(* A session last used on a larger DAG with other degrees, reset onto a
   smaller one, behaves as a fresh start there: the same quotient after
   the same coarsening, and the same undo sequence. *)
let prop_reset_matches_start =
  Test_util.qtest ~count:60 "reset after a larger DAG = start"
    QCheck2.Gen.(pair arb_coarsen arb_coarsen)
    (fun ((a, ta), (b, tb)) ->
      let big, small, target = if Dag.n a >= Dag.n b then (a, b, tb) else (b, a, ta) in
      let target = min target (Dag.n small) in
      let reused = Coarsen.start big in
      Coarsen.coarsen_to reused ~target:(max 1 (Dag.n big / 3));
      ignore (Coarsen.undo_last reused : Coarsen.contraction option);
      Coarsen.reset reused small;
      let fresh = Coarsen.start small in
      Coarsen.coarsen_to reused ~target;
      Coarsen.coarsen_to fresh ~target;
      level_arrays (Coarsen.quotient reused) = level_arrays (Coarsen.quotient fresh)
      && undo_all reused = undo_all fresh)

(* Warm, a reset and replay of the same DAG allocate nothing, and a
   refinement pass over the level view (view, projection, the HC state
   built in place) allocates the same few words at a coarse level as at
   one with several times its nodes. The pass applies no move: HC's own
   words per applied move are HC's, not the level's. *)
let exp_dag seed n = Finegrained.exp (Sparse_matrix.random (Rng.create seed) ~n ~q:0.15) ~k:3

let test_warm_reset_replay_allocates_nothing () =
  let dag = exp_dag 5 40 in
  let session = Coarsen.start dag in
  let target = Dag.n dag / 5 in
  Coarsen.coarsen_to session ~target;
  let history = Coarsen.history session in
  let rebuild () =
    Coarsen.reset session dag;
    Coarsen.replay session history ~target:(2 * target)
  in
  rebuild ();
  check "warm reset + replay words" 0 (Test_util.min_allocated_words rebuild)

let test_refine_pass_words_constant () =
  let dag = exp_dag 9 60 in
  let n = Dag.n dag in
  let m = Machine.numa_tree ~p:4 ~g:3 ~l:5 ~delta:2 in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to session ~target:(n / 10);
  let qdag, rep_of_id = Coarsen.quotient session in
  let coarse = Bspg.schedule m qdag in
  let proc_of = Array.make n 0 and step_of = Array.make n 0 in
  Array.iteri
    (fun i r ->
      proc_of.(r) <- coarse.Schedule.proc.(i);
      step_of.(r) <- coarse.Schedule.step.(i))
    rep_of_id;
  let undo k =
    for _ = 1 to k do
      match Coarsen.undo_last session with
      | Some { Coarsen.kept; removed } ->
        proc_of.(removed) <- proc_of.(kept);
        step_of.(removed) <- step_of.(kept)
      | None -> ()
    done
  in
  let proc = Array.make n 0 and step = Array.make n 0 in
  Assignment_state.prewarm m dag ~num_steps:(Schedule.num_supersteps coarse);
  let pass () =
    let level, rep_of_id = Coarsen.view session in
    for i = 0 to Dag.n level - 1 do
      proc.(i) <- proc_of.(rep_of_id.(i));
      step.(i) <- step_of.(rep_of_id.(i))
    done;
    ignore (Hc.improve_assignment ~max_moves:0 m level ~proc ~step : Hc.stats)
  in
  let words () =
    pass ();
    (Coarsen.num_alive session, Test_util.min_allocated_words pass)
  in
  let coarse_nodes, coarse_words = words () in
  undo (Coarsen.num_contractions session * 3 / 4);
  let fine_nodes, fine_words = words () in
  check_bool "several times the nodes" true (fine_nodes >= 3 * coarse_nodes);
  check "refine pass words, coarse vs fine level" coarse_words fine_words

let () =
  Alcotest.run "multilevel"
    [
      ( "coarsen",
        [
          Alcotest.test_case "contract chain" `Quick test_contract_chain;
          Alcotest.test_case "uncontractable skipped" `Quick test_uncontractable_edge_skipped;
          Alcotest.test_case "undo restores structure" `Quick test_undo_restores_structure;
          Alcotest.test_case "owner tracking" `Quick test_owner_tracking;
          Alcotest.test_case "replay rejects a foreign history" `Quick
            test_replay_rejects_foreign_history;
          Alcotest.test_case "warm reset + replay allocates nothing" `Quick
            test_warm_reset_replay_allocates_nothing;
          Alcotest.test_case "refine pass words independent of n" `Quick
            test_refine_pass_words_constant;
        ] );
      ( "driver",
        [
          Alcotest.test_case "run valid" `Quick test_multilevel_run_valid;
          Alcotest.test_case "comm-heavy vs trivial" `Quick
            test_multilevel_beats_trivial_on_comm_heavy;
        ] );
      ( "property",
        [
          prop_coarsen_acyclic_and_weights;
          prop_undo_roundtrip;
          prop_multilevel_valid;
          prop_refine_skip_matches_reference;
          prop_replay_matches_coarsen;
          prop_shared_coarsening_matches_reference;
          prop_bounded_test_matches_unbounded;
          prop_view_matches_quotient;
          prop_reset_matches_start;
        ] );
    ]
