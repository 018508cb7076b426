let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

let start_schedule rng dag p =
  (* A valid but deliberately naive starting point: wavefront levels with
     random processors. *)
  let level = Dag.wavefronts dag in
  let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng p) in
  Schedule.of_assignment dag ~proc ~step:level

let test_cost_table_incremental () =
  let m = Machine.uniform ~p:3 ~g:2 ~l:4 in
  let t = Cost_table.create m ~num_steps:2 in
  check "latency only" 8 (Cost_table.total t);
  Cost_table.add_work t ~step:0 ~proc:1 10;
  Cost_table.add_send t ~step:0 ~proc:1 3;
  Cost_table.add_recv t ~step:0 ~proc:2 3;
  Cost_table.refresh t;
  check "after adds" (10 + (2 * 3) + 4 + 4) (Cost_table.total t);
  Cost_table.assert_consistent t;
  Cost_table.add_work t ~step:0 ~proc:1 (-10);
  Cost_table.refresh t;
  check "after removal" (0 + 6 + 8) (Cost_table.total t);
  Cost_table.assert_consistent t

let test_cost_table_empty () =
  (* A schedule with no supersteps (empty DAG) must give a working,
     zero-cost table rather than tripping on empty backing arrays. *)
  let m = Machine.uniform ~p:2 ~g:3 ~l:7 in
  let t = Cost_table.create m ~num_steps:0 in
  check "empty total" 0 (Cost_table.total t);
  Cost_table.refresh t;
  Cost_table.assert_consistent t;
  check "still empty" 0 (Cost_table.total t)

let test_hc_improves_bad_schedule () =
  (* A chain scattered across processors: HC should pull it together.
     check:true cross-validates every read-only delta against the
     mutating path. *)
  let dag = Test_util.chain 6 in
  let m = Machine.uniform ~p:3 ~g:5 ~l:2 in
  let bad =
    Schedule.of_assignment dag ~proc:[| 0; 1; 2; 0; 1; 2 |] ~step:[| 0; 1; 2; 3; 4; 5 |]
  in
  let improved, stats = Hc.improve ~check:true m bad in
  check_bool "valid" true (Validity.is_valid m improved);
  check_bool "strictly better" true (stats.Hc.final_cost < stats.Hc.initial_cost);
  check_bool "moves applied" true (stats.Hc.moves_applied > 0)

let test_hc_respects_max_moves () =
  let rng = Rng.create 3 in
  let dag = Test_util.random_dag rng ~n:30 ~edge_prob:0.15 ~max_w:4 ~max_c:3 in
  let m = Machine.uniform ~p:4 ~g:3 ~l:2 in
  let s = start_schedule rng dag 4 in
  let _, stats = Hc.improve ~check:true ~max_moves:2 m s in
  check_bool "capped" true (stats.Hc.moves_applied <= 2)

let test_hc_shards_must_be_one () =
  (* [?shards] is kept only for the benchmark mirror: 1 runs the one
     search, any other value is refused. *)
  let dag = Test_util.chain 6 in
  let m = Machine.uniform ~p:3 ~g:5 ~l:2 in
  let s =
    Schedule.of_assignment dag ~proc:[| 0; 1; 2; 0; 1; 2 |] ~step:[| 0; 1; 2; 3; 4; 5 |]
  in
  let stats_of (_, stats) = stats in
  check_bool "shards 1 is the default search" true
    (stats_of (Hc.improve m s) = stats_of (Hc.improve ~shards:1 m s));
  List.iter
    (fun k ->
      match Hc.improve ~shards:k m s with
      | _ -> Alcotest.fail (Printf.sprintf "shards %d accepted" k)
      | exception Invalid_argument _ -> ())
    [ 0; 2; 4 ]

let test_worklist_matches_reference () =
  (* The worklist engine explores the same neighbourhood as the
     exhaustive apply/rollback sweep it replaced, but once a move is
     accepted the scan orders diverge, so the two can settle in
     different — equally locally optimal — minima. Two guarantees are
     checked: the worklist result is a genuine local minimum (its final
     verification sweep implies the reference finds nothing left to
     improve), and on these instances its final cost is no worse than
     the reference's. *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let dag = Test_util.random_dag rng ~n:40 ~edge_prob:0.12 ~max_w:5 ~max_c:4 in
      let m = Machine.uniform ~p:4 ~g:3 ~l:2 in
      let s = start_schedule rng dag 4 in
      let worklist_sched, worklist = Hc.improve ~check:true m s in
      let _, reference = Hc_reference.improve ~check:true m s in
      let _, at_fixpoint = Hc_reference.improve ~check:true m worklist_sched in
      check "worklist result is a local minimum" 0 at_fixpoint.Hc.moves_applied;
      check_bool "worklist no worse than reference" true
        (worklist.Hc.final_cost <= reference.Hc.final_cost))
    [ 1; 3; 9; 10; 25 ]

let test_hc_local_minimum_stable () =
  (* Running HC twice: the second run finds no further improvement. *)
  let rng = Rng.create 8 in
  let dag = Test_util.random_dag rng ~n:25 ~edge_prob:0.2 ~max_w:3 ~max_c:3 in
  let m = Machine.uniform ~p:2 ~g:2 ~l:3 in
  let s = start_schedule rng dag 2 in
  let once, _ = Hc.improve ~check:true m s in
  let _twice, stats = Hc.improve ~check:true m once in
  check "no moves at local minimum" 0 stats.Hc.moves_applied

let test_hccs_hides_traffic_behind_peak () =
  (* Since the cost sums per-phase h-relation maxima, moving a transfer
     pays off exactly when it can hide behind another processor pair's
     peak. Producers x (c=4), y (c=1) on p0 and z (c=4) on p2 in step 0;
     consumers of x and y on p1 at step 2, consumer of z on p3 at step 1.
     Lazily, phase 0 carries z (h=4) and phase 1 carries x+y (h=5), total
     9g. Moving x under z's phase-0 peak (different processor pairs run
     in parallel) leaves only y (h=1) in phase 1: total 5g. *)
  let dag =
    Dag.of_edges ~n:6
      ~edges:[ (0, 3); (1, 4); (2, 5) ]
      ~work:(Array.make 6 1) ~comm:[| 4; 1; 4; 1; 1; 1 |]
  in
  let m = Machine.uniform ~p:4 ~g:2 ~l:1 in
  let s =
    Schedule.of_assignment dag ~proc:[| 0; 0; 2; 1; 1; 3 |] ~step:[| 0; 0; 0; 2; 2; 1 |]
  in
  let improved, stats = Hccs.improve m s in
  check_bool "valid" true (Validity.is_valid m improved);
  (* Saves g * 4 = 8. *)
  check "cost delta" 8 (stats.Hccs.initial_cost - stats.Hccs.final_cost)

let test_hccs_noop_when_no_freedom () =
  let dag = Test_util.chain 2 in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  let s = Schedule.of_assignment dag ~proc:[| 0; 1 |] ~step:[| 0; 1 |] in
  let improved, stats = Hccs.improve m s in
  check "no moves" 0 stats.Hccs.moves_applied;
  check_bool "valid" true (Validity.is_valid m improved)

(* A NUMA broadcast where replication pays: two 2-processor clusters
   (lambda 1 inside, 4 across), node 0 (w=1, c=2) on p0 feeding a heavy
   consumer on every other processor. Mirrors the test_schedule fixture. *)
let broadcast_machine () =
  Machine.explicit ~g:1 ~l:5
    ~lambda:
      [| [| 0; 1; 4; 4 |]; [| 1; 0; 4; 4 |]; [| 4; 4; 0; 1 |]; [| 4; 4; 1; 0 |] |]

let broadcast_dag () =
  Dag.of_edges ~n:4
    ~edges:[ (0, 1); (0, 2); (0, 3) ]
    ~work:[| 1; 1; 1; 1 |] ~comm:[| 2; 1; 1; 1 |]

let broadcast_schedule dag = Schedule.of_assignment dag ~proc:[| 0; 1; 2; 3 |] ~step:[| 0; 1; 1; 1 |]

let test_replicate_schedule_broadcast () =
  (* The replication-only pass must discover the cluster-mirror replica:
     replicating node 0 onto the far cluster collapses the h-relation
     from 18 to 2 (cost 30 -> 14). *)
  let m = broadcast_machine () in
  let dag = broadcast_dag () in
  let s = broadcast_schedule dag in
  check "input cost" 30 (Bsp_cost.total m s);
  let r = Hc.replicate_schedule ~check:true m s in
  check_bool "valid" true (Validity.is_valid m r);
  check "replicated cost" 14 (Bsp_cost.total m r);
  check "one replica" 1 (Schedule.num_replicas r);
  Alcotest.(check (list (pair int int))) "on the far cluster" [ (2, 0) ]
    (Schedule.replicas r 0);
  (match Profile.reconcile (Profile.compute m r) (Bsp_cost.breakdown m r) with
   | Ok () -> ()
   | Error msg -> Alcotest.fail ("profile does not reconcile: " ^ msg));
  (* The state also ingests the replicated schedule it produced. *)
  let st = Assignment_state.init m r in
  check "ingested replicas" 1 (Assignment_state.num_replicas_total st);
  check "ingested cost" (Bsp_cost.total m r) (Assignment_state.total_cost st);
  Assignment_state.check_consistent st;
  let snap = Assignment_state.snapshot st in
  Alcotest.(check (list (pair int int))) "snapshot keeps replicas" [ (2, 0) ]
    (Schedule.replicas snap 0);
  Assignment_state.release st

let test_replication_guards () =
  (* Single-node moves and replication never interleave: once the state
     holds replicas the move entry points must refuse to run, and the
     move engine must refuse replicated input outright. *)
  let m = broadcast_machine () in
  let dag = broadcast_dag () in
  let st = Assignment_state.init m (broadcast_schedule dag) in
  check_bool "replication candidate valid" true (Assignment_state.valid_replicate st 0 2);
  let d = Assignment_state.delta_cost_replicate st 0 2 in
  check "delta is the 16-unit comm saving" (-16) d;
  Assignment_state.apply_replicate st 0 2;
  let expect_invalid label f =
    try
      f ();
      Alcotest.fail (label ^ " ran on a replicated state")
    with Invalid_argument _ -> ()
  in
  expect_invalid "delta_cost" (fun () ->
      ignore (Assignment_state.delta_cost st 1 0 1 : int));
  expect_invalid "apply_move" (fun () -> Assignment_state.apply_move st 1 0 1);
  (* A just-added replica is always droppable; dropping restores cost. *)
  check_bool "droppable" true (Assignment_state.valid_drop_replica st 0 2);
  check "drop undoes the delta" (-d) (Assignment_state.delta_cost_drop_replica st 0 2);
  Assignment_state.apply_drop_replica st 0 2;
  Assignment_state.check_consistent st;
  Assignment_state.release st;
  let rep =
    Schedule.of_assignment_replicated m dag ~proc:[| 0; 1; 2; 3 |]
      ~step:[| 0; 1; 1; 1 |] ~replicas:[ (0, 2, 0) ]
  in
  expect_invalid "Hc.improve on replicated input" (fun () ->
      ignore (Hc.improve m rep : Schedule.t * Hc.stats))

(* Properties over random instances. *)
let gen3 =
  QCheck2.Gen.(pair (Test_util.arb_dag ()) (pair (Test_util.arb_machine ()) (int_bound 100_000)))

let prop_hc_never_worse_and_valid =
  Test_util.qtest ~count:60 "hc monotone + valid" gen3 (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let s = start_schedule rng dag m.Machine.p in
      let before = Bsp_cost.total m s in
      let improved, stats = Hc.improve ~check:true m s in
      Validity.is_valid m improved
      && stats.Hc.final_cost <= before
      && Bsp_cost.total m improved = stats.Hc.final_cost)

let prop_hccs_never_worse_and_valid =
  Test_util.qtest ~count:60 "hccs monotone + valid" gen3 (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let s = start_schedule rng dag m.Machine.p in
      let before = Bsp_cost.total m s in
      let improved, stats = Hccs.improve m s in
      Validity.is_valid m improved
      && stats.Hccs.final_cost <= before
      && Bsp_cost.total m improved = stats.Hccs.final_cost)

(* Differential check of the O(1) candidate costing against the
   per-candidate loop of the first implementation (hccs_reference.ml):
   identical communication events, stats and budget consumption.
   Starting events are drawn anywhere in their windows, and each
   instance runs unlimited and under step budgets of 0, 1 and a random
   share of the unlimited run's evaluations, so budgets often run out
   in the middle of a window. *)
let prop_hccs_matches_reference =
  Test_util.qtest ~count:300 "hccs matches reference"
    QCheck2.Gen.(
      pair (Test_util.arb_dag ~max_n:40 ()) (pair (Test_util.arb_machine ()) (int_bound 100_000)))
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let lazy_sched = start_schedule rng dag m.Machine.p in
      let comm =
        List.map
          (fun (pr : Hccs.pair) ->
            {
              Schedule.node = pr.Hccs.node;
              src = pr.Hccs.src;
              dst = pr.Hccs.dst;
              step = pr.Hccs.lo + Rng.int rng (pr.Hccs.hi - pr.Hccs.lo + 1);
            })
          (Hccs.required_pairs m lazy_sched)
      in
      let s =
        if Rng.bool rng then lazy_sched
        else
          Schedule.make dag ~proc:lazy_sched.Schedule.proc ~step:lazy_sched.Schedule.step
            ~comm
      in
      let run improve budget =
        let sched, stats = improve ?budget m s in
        (Schedule_io.to_string sched, stats, Option.map Budget.used_steps budget)
      in
      let same budget_of =
        run Hccs.improve (budget_of ()) = run Hccs_reference.improve (budget_of ())
      in
      let _, full, _ = run Hccs_reference.improve None in
      let share = Rng.int rng (full.Hccs.moves_evaluated + 1) in
      same (fun () -> None)
      && List.for_all
           (fun k -> same (fun () -> Some (Budget.steps k)))
           [ 0; 1; share ])

(* A search loop that releases its states runs off the minor heap:
   once the pool holds a state big enough for the instance, init and
   release allocate only the state record and a few small boxes, about
   a hundred words whatever the DAG's size. A per-node or per-event
   allocation in init reads in the thousands on these inputs.
   Each reading is the minimum of five calls, so a minor collection
   inside one call cannot inflate it. *)
let test_pooled_init_allocation () =
  let words ~family ~target ~seed m =
    let dag =
      Finegrained.generate_sized (Rng.create seed) ~family ~shape:Finegrained.Wide ~target
    in
    let sched = Bspg.schedule m dag in
    Assignment_state.prewarm m dag ~num_steps:(Schedule.num_supersteps sched);
    let best = ref infinity in
    for _ = 1 to 5 do
      let before = Gc.minor_words () in
      Assignment_state.release (Assignment_state.init m sched);
      best := Float.min !best (Gc.minor_words () -. before)
    done;
    !best
  in
  let small =
    words ~family:Finegrained.Spmv ~target:2000 ~seed:7 (Machine.uniform ~p:8 ~g:3 ~l:5)
  in
  let large =
    words ~family:Finegrained.Exp ~target:4000 ~seed:100
      (Machine.numa_tree ~p:8 ~g:5 ~l:20 ~delta:3)
  in
  check_bool (Printf.sprintf "spmv-2k reads %.0f words" small) true (small <= 200.);
  check_bool (Printf.sprintf "exp-4k reads %.0f words" large) true (large <= 200.)

(* A hill climber at a local minimum still scans every node, probing
   a deadline budget once per scan and costing candidate rows through
   the overlay maxima. Neither allocates, so a warm run's words do not
   grow with the DAG: 600 and 6000 nodes read the same. A boxed clock
   reading per probe or a pair per costed superstep reads thousands of
   words apart. *)
let test_warm_hc_allocation () =
  let m = Machine.numa_tree ~p:8 ~g:5 ~l:20 ~delta:3 in
  let words target =
    let dag =
      Finegrained.generate_sized (Rng.create 100) ~family:Finegrained.Exp
        ~shape:Finegrained.Wide ~target
    in
    let sched = Bspg.schedule m dag in
    let proc = Array.copy sched.Schedule.proc and step = Array.copy sched.Schedule.step in
    Assignment_state.prewarm m dag ~num_steps:(Schedule.num_supersteps sched);
    let run () =
      let budget = Budget.combine (Budget.steps max_int) (Budget.seconds 600.0) in
      ignore (Hc.improve_assignment ~budget m dag ~proc ~step : Hc.stats)
    in
    run ();
    Test_util.min_allocated_words run
  in
  let small = words 600 and large = words 6000 in
  check (Printf.sprintf "600 nodes read %d words, 6000 nodes %d" small large) small large

(* An accepted move allocates nothing either: re-enqueueing its
   neighbourhood walks the CSR arrays and the touched supersteps through
   closures built once per search, and refreshing a superstep's maxima
   builds no pair. From a random processor per node and one superstep
   per node (valid: every edge points to a later superstep), HC applies
   hundreds of moves, and the run reads the words of a run capped at
   none. Closures per move read about 20 words a move. *)
let test_hc_move_allocation () =
  let m = Machine.uniform ~p:8 ~g:1 ~l:0 in
  let dag =
    Finegrained.generate_sized (Rng.create 16) ~family:Finegrained.Exp
      ~shape:Finegrained.Wide ~target:400
  in
  let n = Dag.n dag in
  let rng = Rng.create 1 in
  let proc0 = Array.init n (fun _ -> Rng.int rng 8) and step0 = Dag.topological_rank dag in
  let proc = Array.copy proc0 and step = Array.copy step0 in
  let moves = ref 0 in
  let words max_moves =
    let run () =
      Array.blit proc0 0 proc 0 n;
      Array.blit step0 0 step 0 n;
      moves := (Hc.improve_assignment ?max_moves m dag ~proc ~step).Hc.moves_applied
    in
    run ();
    Test_util.min_allocated_words run
  in
  let none = words (Some 0) in
  let all = words None in
  check_bool (Printf.sprintf "%d moves applied" !moves) true (!moves >= 100);
  check (Printf.sprintf "0 moves read %d words, %d moves %d" none !moves all) none all

(* Hccs.required_pairs reads its pairs off Schedule.lazy_comm; the
   reference derives them from a first-need pass of its own. They must
   agree on lazy schedules and on schedules whose events were moved
   anywhere (inside or outside their windows), re-sourced or dropped,
   which changes where each pair starts, and on event lists in any
   order. *)
let prop_required_pairs_match_reference =
  Test_util.qtest ~count:300 "hccs pairs match reference"
    QCheck2.Gen.(
      pair (Test_util.arb_dag ~max_n:40 ()) (pair (Test_util.arb_machine ()) (int_bound 100_000)))
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let lazy_sched = start_schedule rng dag m.Machine.p in
      let steps = Schedule.num_supersteps lazy_sched in
      let perturbed =
        List.filter_map
          (fun (e : Schedule.comm_event) ->
            match Rng.int rng 4 with
            | 0 -> None
            | 1 -> Some { e with src = Rng.int rng m.Machine.p }
            | _ -> Some { e with step = Rng.int rng steps })
          lazy_sched.Schedule.comm
      in
      (* The same events out of (node, dst) order, relays included. *)
      let shuffled =
        let a = Array.of_list (perturbed @ perturbed) in
        Rng.shuffle rng a;
        Array.to_list a
      in
      List.for_all
        (fun s -> Hccs.required_pairs m s = Hccs_reference.required_pairs m s)
        (lazy_sched
        :: List.map
             (fun comm ->
               Schedule.make dag ~proc:lazy_sched.Schedule.proc
                 ~step:lazy_sched.Schedule.step ~comm)
             [ perturbed; shuffled ]))

(* The incremental tables must agree exactly with the reference cost
   evaluator after a full HC run (the apply/undo cycle keeps state
   consistent). This is implicitly checked by final_cost above; here we
   additionally drive the table through explicit moves. *)
let prop_hc_final_cost_exact =
  Test_util.qtest ~count:60 "hc reported cost exact" gen3 (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let s = start_schedule rng dag m.Machine.p in
      let improved, stats = Hc.improve ~check:true ~max_moves:5 m s in
      Bsp_cost.total m improved = stats.Hc.final_cost)

(* Drive the shared incremental state through random valid move
   sequences: every read-only evaluation path (pairwise, base-cached,
   whole-row) must predict exactly the cost change apply_move then
   produces, the running total must equal the from-scratch cost of the
   snapshot, and the first_need/cost-table bookkeeping must stay
   internally consistent. *)
let prop_delta_matches_apply =
  Test_util.qtest ~count:40 "delta evaluation matches apply_move" gen3
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let p = m.Machine.p in
      let n = Dag.n dag in
      let s = start_schedule rng dag p in
      let st = Assignment_state.init m s in
      let row_out = Array.make p 0 in
      let ok = ref true in
      if n > 0 && Assignment_state.num_steps st > 0 then
        for _trial = 1 to 30 do
          let v = Rng.int rng n in
          let s2 = Assignment_state.step st v + (Rng.int rng 3 - 1) in
          let p2 = Rng.int rng p in
          if Assignment_state.valid_move st v p2 s2 then begin
            let d = Assignment_state.delta_cost st v p2 s2 in
            if Assignment_state.delta_cost_cached st v p2 s2 <> d then ok := false;
            let row_valid = ref true in
            for q = 0 to p - 1 do
              if not (Assignment_state.valid_move st v q s2) then row_valid := false
            done;
            if !row_valid then begin
              Assignment_state.delta_cost_row st v ~s2 row_out;
              for q = 0 to p - 1 do
                let expect =
                  if q = p2 then d else Assignment_state.delta_cost st v q s2
                in
                if row_out.(q) <> expect then ok := false
              done
            end;
            let before = Assignment_state.total_cost st in
            Assignment_state.apply_move st v p2 s2;
            if Assignment_state.total_cost st <> before + d then ok := false;
            (* The state keeps the superstep count fixed, so its total
               includes l for trailing supersteps a move emptied; the
               snapshot drops them (Schedule.compact would too). *)
            let snap = Assignment_state.snapshot st in
            let trailing =
              Assignment_state.num_steps st - Schedule.num_supersteps snap
            in
            if
              Assignment_state.total_cost st
              <> Bsp_cost.total m snap + (m.Machine.l * trailing)
            then ok := false;
            Assignment_state.check_consistent st
          end
        done;
      !ok)

(* Drive the state through random replicate/drop sequences: every
   read-only replication delta must predict the applied cost change
   exactly, dropping a fresh replica must refund it exactly, and the
   running total must match the from-scratch cost of a valid,
   reconciling snapshot throughout. *)
let prop_replicate_delta_matches_apply =
  Test_util.qtest ~count:40 "replication delta matches apply" gen3
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let p = m.Machine.p in
      let n = Dag.n dag in
      let s = start_schedule rng dag p in
      let st = Assignment_state.init m s in
      let ok = ref true in
      if n > 0 && p > 1 then
        for _trial = 1 to 20 do
          let v = Rng.int rng n in
          let q = Rng.int rng p in
          if Assignment_state.valid_replicate st v q then begin
            let d = Assignment_state.delta_cost_replicate st v q in
            let before = Assignment_state.total_cost st in
            Assignment_state.apply_replicate st v q;
            if Assignment_state.total_cost st <> before + d then ok := false;
            Assignment_state.check_consistent st;
            let snap = Assignment_state.snapshot st in
            let trailing =
              Assignment_state.num_steps st - Schedule.num_supersteps snap
            in
            if
              Assignment_state.total_cost st
              <> Bsp_cost.total m snap + (m.Machine.l * trailing)
            then ok := false;
            if not (Validity.is_valid m snap) then ok := false;
            (match
               Profile.reconcile (Profile.compute m snap) (Bsp_cost.breakdown m snap)
             with
            | Ok () -> ()
            | Error _ -> ok := false);
            (* Half the time, drop it again: the drop delta must be the
               exact refund of the replicate delta. *)
            if Rng.int rng 2 = 0 then begin
              if not (Assignment_state.valid_drop_replica st v q) then ok := false
              else begin
                if Assignment_state.delta_cost_drop_replica st v q <> -d then
                  ok := false;
                Assignment_state.apply_drop_replica st v q;
                if Assignment_state.total_cost st <> before then ok := false;
                Assignment_state.check_consistent st
              end
            end
          end
        done;
      Assignment_state.release st;
      !ok)

(* Replication runs on the move phase's local minimum and applies only
   strict improvements, so it can never produce a worse schedule; the
   result stays valid and reconciling. *)
let prop_hc_replicate_never_worse =
  Test_util.qtest ~count:40 "hc with replication monotone + valid" gen3
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let s = start_schedule rng dag m.Machine.p in
      let plain_sched, plain = Hc.improve ~check:true m s in
      let rep_sched = Hc.replicate_schedule ~check:true m plain_sched in
      let rep_cost = Bsp_cost.total m rep_sched in
      Validity.is_valid m rep_sched
      && rep_cost <= plain.Hc.final_cost
      && (Schedule.num_replicas rep_sched > 0 || rep_cost = plain.Hc.final_cost)
      && (match
            Profile.reconcile (Profile.compute m rep_sched)
              (Bsp_cost.breakdown m rep_sched)
          with
         | Ok () -> true
         | Error _ -> false))

(* The multilevel refinement runs HC on its level's assignment arrays
   in place. Under any budget, move cap and check mode it must leave
   the arrays as Hc.improve leaves its result on the same assignment,
   with the same stats and the same hc.* counters. *)
let hc_counters =
  [
    "hc.runs";
    "hc.moves_evaluated";
    "hc.moves_applied";
    "hc.worklist_enqueued";
    "hc.verify_sweeps";
    "hc.verify_sweep_hits";
  ]

let prop_in_place_matches_improve =
  Test_util.qtest ~count:100 "in-place hc matches improve"
    QCheck2.Gen.(
      pair gen3
        (triple
           (oneofl [ Some 0; Some 7; Some 300; Some 5_000; None ])
           (oneofl [ None; Some 0; Some 1; Some 3; Some 100 ])
           bool))
    (fun ((dag, (m, seed)), (steps, max_moves, check)) ->
      let rng = Rng.create seed in
      let s = start_schedule rng dag m.Machine.p in
      let budget () =
        match steps with Some k -> Budget.steps k | None -> Budget.unlimited ()
      in
      let counted f =
        let r = Obs.Metrics.create () in
        let x = Obs.Metrics.with_registry r f in
        ( x,
          List.map (Obs.Metrics.counter_value r) hc_counters,
          Obs.Metrics.gauge_value r "hc.worklist_peak" )
      in
      let (improved, stats), counters, peak =
        counted (fun () -> Hc.improve ~check ~budget:(budget ()) ?max_moves m s)
      in
      let proc = Array.copy s.Schedule.proc and step = Array.copy s.Schedule.step in
      let stats', counters', peak' =
        counted (fun () ->
            Hc.improve_assignment ~check ~budget:(budget ()) ?max_moves m dag ~proc ~step)
      in
      proc = improved.Schedule.proc
      && step = improved.Schedule.step
      && stats = stats' && counters = counters' && peak = peak'
      && (stats.Hc.moves_applied > 0
         || (proc = s.Schedule.proc && step = s.Schedule.step)))

let () =
  Alcotest.run "localsearch"
    [
      ( "unit",
        [
          Alcotest.test_case "cost table incremental" `Quick test_cost_table_incremental;
          Alcotest.test_case "cost table empty" `Quick test_cost_table_empty;
          Alcotest.test_case "hc improves bad schedule" `Quick test_hc_improves_bad_schedule;
          Alcotest.test_case "hc max moves" `Quick test_hc_respects_max_moves;
          Alcotest.test_case "hc shards must be 1" `Quick test_hc_shards_must_be_one;
          Alcotest.test_case "hc local minimum stable" `Quick test_hc_local_minimum_stable;
          Alcotest.test_case "worklist matches reference" `Quick
            test_worklist_matches_reference;
          Alcotest.test_case "hccs hides traffic behind peak" `Quick
            test_hccs_hides_traffic_behind_peak;
          Alcotest.test_case "hccs no freedom" `Quick test_hccs_noop_when_no_freedom;
          Alcotest.test_case "replicate_schedule on a NUMA broadcast" `Quick
            test_replicate_schedule_broadcast;
          Alcotest.test_case "replication guards" `Quick test_replication_guards;
          Alcotest.test_case "pooled init allocation" `Quick test_pooled_init_allocation;
          Alcotest.test_case "warm hc allocation" `Quick test_warm_hc_allocation;
          Alcotest.test_case "hc moves allocate nothing" `Quick test_hc_move_allocation;
        ] );
      ( "property",
        [
          prop_hc_never_worse_and_valid;
          prop_hccs_never_worse_and_valid;
          prop_hccs_matches_reference;
          prop_required_pairs_match_reference;
          prop_hc_final_cost_exact;
          prop_delta_matches_apply;
          prop_replicate_delta_matches_apply;
          prop_hc_replicate_never_worse;
          prop_in_place_matches_improve;
        ] );
    ]
