let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A two-superstep example in the spirit of Figure 1: two processors
   compute in superstep 0, exchange values in its communication phase,
   and finish in superstep 1.

     proc 0, step 0: node 0 (w=2), node 1 (w=3)
     proc 1, step 0: node 2 (w=1, c=2), node 3 (w=1)
     proc 0, step 1: node 4 (w=2), preds 1 and 2   (2 crosses 1 -> 0)
     proc 1, step 1: node 5 (w=4), preds 3 and 0   (0 crosses 0 -> 1) *)
let example () =
  let dag =
    Dag.of_edges ~n:6
      ~edges:[ (1, 4); (2, 4); (3, 5); (0, 5) ]
      ~work:[| 2; 3; 1; 1; 2; 4 |] ~comm:[| 1; 1; 2; 1; 1; 1 |]
  in
  Schedule.of_assignment dag ~proc:[| 0; 0; 1; 1; 0; 1 |] ~step:[| 0; 0; 0; 0; 1; 1 |]

let test_example_cost_uniform () =
  let s = example () in
  let m = Machine.uniform ~p:2 ~g:3 ~l:5 in
  check_bool "valid" true (Validity.is_valid m s);
  (* Superstep 0: work max(5,2)=5; h-relation: proc0 sends 1 / receives 2,
     proc1 sends 2 / receives 1 -> max 2; cost 5 + 3*2 + 5 = 16.
     Superstep 1: work max(2,4)=4, no comm -> 4 + 0 + 5 = 9. *)
  let b = Bsp_cost.breakdown m s in
  check "supersteps" 2 (Array.length b.Bsp_cost.supersteps);
  check "s0 work" 5 b.Bsp_cost.supersteps.(0).Bsp_cost.work_max;
  check "s0 comm" 2 b.Bsp_cost.supersteps.(0).Bsp_cost.comm_max;
  check "s0 cost" 16 b.Bsp_cost.supersteps.(0).Bsp_cost.cost;
  check "s1 cost" 9 b.Bsp_cost.supersteps.(1).Bsp_cost.cost;
  check "total" 25 b.Bsp_cost.total;
  check "latency part" 10 b.Bsp_cost.latency_total

let test_example_cost_numa () =
  let s = example () in
  (* Asymmetric coefficients: 0 -> 1 costs 2 per unit, 1 -> 0 costs 3.
     Volumes: node 0 (c=1) goes 0 -> 1: 2; node 2 (c=2) goes 1 -> 0: 6.
     h = max over procs of max(send, recv) = 6; s0 = 5 + 3*6 + 5 = 28. *)
  let m = Machine.explicit ~g:3 ~l:5 ~lambda:[| [| 0; 2 |]; [| 3; 0 |] |] in
  check_bool "valid" true (Validity.is_valid m s);
  check "total with NUMA" 37 (Bsp_cost.total m s)

let test_trivial () =
  let dag = Test_util.diamond () in
  let m = Machine.uniform ~p:4 ~g:2 ~l:7 in
  let s = Schedule.trivial dag in
  check_bool "valid" true (Validity.is_valid m s);
  check "cost = total work + l" (10 + 7) (Bsp_cost.total m s)

let test_lazy_comm_dedup () =
  (* u is consumed on proc 1 at steps 2 and 4: one event, at phase 1. *)
  let dag =
    Dag.of_edges ~n:3 ~edges:[ (0, 1); (0, 2) ] ~work:[| 1; 1; 1 |] ~comm:[| 5; 1; 1 |]
  in
  let comm = Schedule.lazy_comm dag ~proc:[| 0; 1; 1 |] ~step:[| 0; 2; 4 |] in
  check "one event" 1 (List.length comm);
  let e = List.hd comm in
  check "node" 0 e.Schedule.node;
  check "phase = first need - 1" 1 e.Schedule.step;
  check "src" 0 e.Schedule.src;
  check "dst" 1 e.Schedule.dst

let test_assignment_validity () =
  let dag = Test_util.chain 2 in
  check_bool "same proc same step ok" true
    (Schedule.assignment_valid dag ~proc:[| 0; 0 |] ~step:[| 0; 0 |]);
  check_bool "same proc backwards bad" false
    (Schedule.assignment_valid dag ~proc:[| 0; 0 |] ~step:[| 1; 0 |]);
  check_bool "cross same step bad" false
    (Schedule.assignment_valid dag ~proc:[| 0; 1 |] ~step:[| 0; 0 |]);
  check_bool "cross later ok" true
    (Schedule.assignment_valid dag ~proc:[| 0; 1 |] ~step:[| 0; 1 |])

let test_validity_missing_event () =
  let dag = Test_util.chain 2 in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  (* Cross-processor edge with an empty communication schedule. *)
  let s = Schedule.make dag ~proc:[| 0; 1 |] ~step:[| 0; 1 |] ~comm:[] in
  check_bool "invalid" false (Validity.is_valid m s);
  check "one error" 1 (List.length (Validity.errors m s))

let test_validity_late_event () =
  let dag = Test_util.chain 2 in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  (* Delivery in phase 1 is too late for a consumer in superstep 1. *)
  let s =
    Schedule.make dag ~proc:[| 0; 1 |] ~step:[| 0; 1 |]
      ~comm:[ { Schedule.node = 0; src = 0; dst = 1; step = 1 } ]
  in
  check_bool "invalid" false (Validity.is_valid m s)

let test_validity_send_from_absent () =
  let dag = Test_util.chain 2 in
  let m = Machine.uniform ~p:3 ~g:1 ~l:1 in
  (* Node 0 lives on proc 0 but the event claims proc 2 sends it. *)
  let s =
    Schedule.make dag ~proc:[| 0; 1 |] ~step:[| 0; 1 |]
      ~comm:[ { Schedule.node = 0; src = 2; dst = 1; step = 0 } ]
  in
  check_bool "invalid" false (Validity.is_valid m s)

let test_validity_relay_chain () =
  (* 0 computed on p0 step 0; relayed p0 -> p1 (phase 0), p1 -> p2
     (phase 1); consumer on p2 at step 2. Valid per Section 3.2. *)
  let dag = Test_util.chain 2 in
  let m = Machine.uniform ~p:3 ~g:1 ~l:1 in
  let s =
    Schedule.make dag ~proc:[| 0; 2 |] ~step:[| 0; 2 |]
      ~comm:
        [
          { Schedule.node = 0; src = 0; dst = 1; step = 0 };
          { Schedule.node = 0; src = 1; dst = 2; step = 1 };
        ]
  in
  check_bool "relay valid" true (Validity.is_valid m s);
  (* Breaking the chain order invalidates it. *)
  let bad =
    Schedule.make dag ~proc:[| 0; 2 |] ~step:[| 0; 2 |]
      ~comm:
        [
          { Schedule.node = 0; src = 0; dst = 1; step = 1 };
          { Schedule.node = 0; src = 1; dst = 2; step = 1 };
        ]
  in
  check_bool "broken relay invalid" false (Validity.is_valid m bad)

let test_compact () =
  let dag = Test_util.chain 2 in
  let s = Schedule.of_assignment dag ~proc:[| 0; 0 |] ~step:[| 0; 2 |] in
  let c = Schedule.compact s in
  Alcotest.(check (array int)) "renumbered" [| 0; 1 |] c.Schedule.step;
  check "used" 2 (Schedule.used_supersteps s);
  check "supersteps after" 2 (Schedule.num_supersteps c);
  let m = Machine.uniform ~p:2 ~g:1 ~l:5 in
  check_bool "compact cheaper" true (Bsp_cost.total m c < Bsp_cost.total m s)

(* A NUMA broadcast where replication pays: two 2-processor clusters,
   cheap intra-cluster links (lambda 1) and an expensive inter-cluster
   link (lambda 4). Node 0 (w=1, c=2) on p0 feeds one consumer on every
   other processor at step 1. *)
let broadcast_machine () =
  Machine.explicit ~g:1 ~l:5
    ~lambda:
      [| [| 0; 1; 4; 4 |]; [| 1; 0; 4; 4 |]; [| 4; 4; 0; 1 |]; [| 4; 4; 1; 0 |] |]

let broadcast_dag () =
  Dag.of_edges ~n:4
    ~edges:[ (0, 1); (0, 2); (0, 3) ]
    ~work:[| 1; 1; 1; 1 |] ~comm:[| 2; 1; 1; 1 |]

let test_replicated_cost_numa () =
  let m = broadcast_machine () in
  let dag = broadcast_dag () in
  let proc = [| 0; 1; 2; 3 |] and step = [| 0; 1; 1; 1 |] in
  (* Without replication p0 broadcasts to everyone: sends of volume
     2*1 + 2*4 + 2*4 = 18, so superstep 0 costs 1 + 18 + 5 = 24 and
     superstep 1 costs 1 + 0 + 5 = 6. *)
  let plain = Schedule.of_assignment dag ~proc ~step in
  check_bool "plain valid" true (Validity.is_valid m plain);
  check "plain cost" 30 (Bsp_cost.total m plain);
  (* Replicating node 0 onto p2 satisfies p2 locally and lets p3 fetch
     from its cluster neighbour: the remaining events are 0 -> p1 (from
     p0, volume 2) and 0 -> p3 (from the p2 replica, volume 2), so the
     h-relation collapses from 18 to 2. *)
  let rep =
    Schedule.of_assignment_replicated m dag ~proc ~step ~replicas:[ (0, 2, 0) ]
  in
  check_bool "replicated valid" true (Validity.is_valid m rep);
  check "replica count" 1 (Schedule.num_replicas rep);
  check "two events left" 2 (List.length rep.Schedule.comm);
  (* The p2 replica's copy must be the cheaper source for p3. *)
  check_bool "p3 served from the replica" true
    (List.exists
       (fun (e : Schedule.comm_event) -> e.node = 0 && e.src = 2 && e.dst = 3)
       rep.Schedule.comm);
  let b = Bsp_cost.breakdown m rep in
  (* Replica work rides in the same work phase: max stays 1. *)
  check "s0 work" 1 b.Bsp_cost.supersteps.(0).Bsp_cost.work_max;
  check "s0 h-relation" 2 b.Bsp_cost.supersteps.(0).Bsp_cost.comm_max;
  check "replicated cost" 14 b.Bsp_cost.total;
  (* Profile attributes the replica and still reconciles exactly. *)
  let prof = Profile.compute m rep in
  check "profile replicas" 1 prof.Profile.num_replicas;
  check "profile replica work" 1 prof.Profile.replica_work;
  (match Profile.reconcile prof b with
   | Ok () -> ()
   | Error msg -> Alcotest.fail ("profile does not reconcile: " ^ msg))

let test_replica_needs_own_inputs () =
  (* A replica is a real recomputation: it must receive the node's
     inputs like any primary placement would. *)
  let dag = Test_util.chain 2 in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  (* Replicating node 1 on p1 without shipping node 0 there is invalid. *)
  let starved =
    Schedule.make_replicated dag ~proc:[| 0; 0 |] ~step:[| 0; 1 |] ~comm:[]
      ~replicas:[ (1, 1, 1) ]
  in
  check_bool "starved replica invalid" false (Validity.is_valid m starved);
  (* Feeding it in phase 0 makes the same schedule valid. *)
  let fed =
    Schedule.make_replicated dag ~proc:[| 0; 0 |] ~step:[| 0; 1 |]
      ~comm:[ { Schedule.node = 0; src = 0; dst = 1; step = 0 } ]
      ~replicas:[ (1, 1, 1) ]
  in
  check_bool "fed replica valid" true (Validity.is_valid m fed);
  (* And the replica-aware lazy derivation generates that event itself. *)
  let lazy_fed =
    Schedule.of_assignment_replicated m dag ~proc:[| 0; 0 |] ~step:[| 0; 1 |]
      ~replicas:[ (1, 1, 1) ]
  in
  check_bool "lazy replica input valid" true (Validity.is_valid m lazy_fed);
  check "lazy ships the input" 1 (List.length lazy_fed.Schedule.comm)

let test_make_replicated_rejects () =
  let dag = Test_util.chain 2 in
  let expect_invalid label replicas =
    try
      ignore
        (Schedule.make_replicated dag ~proc:[| 0; 0 |] ~step:[| 0; 1 |] ~comm:[]
           ~replicas
          : Schedule.t);
      Alcotest.fail (label ^ " accepted")
    with Invalid_argument _ -> ()
  in
  expect_invalid "replica duplicating the primary" [ (0, 0, 0) ];
  expect_invalid "negative processor" [ (0, -1, 0) ];
  expect_invalid "negative superstep" [ (0, 1, -1) ];
  expect_invalid "duplicate (node, proc) pair" [ (0, 1, 0); (0, 1, 1) ]

let test_compact_preserves_comm () =
  (* An event placed earlier than its lazy phase (as HCcs does) must
     survive compaction. *)
  let dag =
    Dag.of_edges ~n:3 ~edges:[ (0, 1) ] ~work:[| 1; 1; 1 |] ~comm:[| 1; 1; 1 |]
  in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  let s =
    Schedule.make dag ~proc:[| 0; 1; 0 |] ~step:[| 0; 3; 1 |]
      ~comm:[ { Schedule.node = 0; src = 0; dst = 1; step = 0 } ]
  in
  check_bool "input valid" true (Validity.is_valid m s);
  (* Steps 0, 1, 3 are used; step 2 is dropped, the consumer lands on
     step 2 and the early event keeps phase 0. *)
  let c = Schedule.compact s in
  Alcotest.(check (array int)) "renumbered" [| 0; 2; 1 |] c.Schedule.step;
  check_bool "compacted valid" true (Validity.is_valid m c);
  check "event preserved" 1 (List.length c.Schedule.comm);
  check "event keeps its early phase" 0 (List.hd c.Schedule.comm).Schedule.step

let test_compact_replicated () =
  let m = Machine.uniform ~p:2 ~g:1 ~l:3 in
  let dag = Test_util.chain 2 in
  (* Primary chain on p0 with a gap at step 1; a replica of node 0 sits
     on p1 (no consumers — compaction must still renumber it). *)
  let s =
    Schedule.of_assignment_replicated m dag ~proc:[| 0; 0 |] ~step:[| 0; 2 |]
      ~replicas:[ (0, 1, 0) ]
  in
  let c = Schedule.compact s in
  Alcotest.(check (array int)) "renumbered" [| 0; 1 |] c.Schedule.step;
  check "replica survives" 1 (Schedule.num_replicas c);
  Alcotest.(check (list (pair int int)))
    "replica placement" [ (1, 0) ] (Schedule.replicas c 0);
  check_bool "valid" true (Validity.is_valid m c);
  check_bool "cheaper" true (Bsp_cost.total m c < Bsp_cost.total m s)

let test_classical_conversion () =
  let dag = Test_util.chain 3 in
  let cl = { Classical.proc = [| 0; 1; 0 |]; seq = [| 0; 1; 2 |] } in
  let s = Classical.to_bsp dag cl in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  check_bool "valid" true (Validity.is_valid m s);
  Alcotest.(check (array int)) "supersteps" [| 0; 1; 2 |] s.Schedule.step;
  (* Same processor throughout: everything lands in one superstep. *)
  let cl2 = { Classical.proc = [| 0; 0; 0 |]; seq = [| 0; 1; 2 |] } in
  let s2 = Classical.to_bsp dag cl2 in
  check "single superstep" 1 (Schedule.num_supersteps s2);
  check "makespan" 3 (Classical.makespan dag cl2);
  (* The order is [seq] inverted, so [seq] must be a permutation. *)
  List.iter
    (fun seq ->
      check_bool "not a permutation" true
        (match Classical.to_bsp dag { cl2 with Classical.seq } with
         | _ -> false
         | exception Invalid_argument _ -> true))
    [ [| 0; 0; 2 |]; [| 0; 1; 3 |]; [| -1; 1; 2 |] ]

let test_render_summary () =
  let s = example () in
  let m = Machine.uniform ~p:2 ~g:3 ~l:5 in
  let text = Schedule_render.to_string m s in
  let has needle =
    check_bool ("render contains " ^ needle) true
      (Test_util.contains_substring text needle)
  in
  has "schedule: 6 nodes, 2 supersteps, 2 processors, cost 25";
  (* The utilisation summary: p0 works 7 of the 9 compute-phase units
     (77.8%), sits idle 2, sends volume 1 and receives 2. *)
  has "p0   util  77.8%  work 7      idle 2      send 1      recv 2";
  has "p1   util  66.7%  work 6      idle 3      send 2      recv 1";
  (* The per-superstep body is still there. *)
  has "superstep 0  (work 5, h-relation 2, cost 16)";
  has "0:0->1";
  has "2:1->0"

let test_render_no_comm () =
  let dag = Test_util.chain 2 in
  let m = Machine.uniform ~p:2 ~g:1 ~l:1 in
  let text = Schedule_render.to_string m (Schedule.trivial dag) in
  check_bool "idle processor listed at 0% util" true
    (Test_util.contains_substring text "p1   util   0.0%  work 0");
  check_bool "busy processor at 100%" true
    (Test_util.contains_substring text "p0   util 100.0%  work 2")

(* Property: for a random valid assignment, the lazy communication
   schedule always yields a valid BSP schedule, and the incremental
   tables of Bsp_cost agree with the breakdown. *)
let prop_lazy_valid =
  Test_util.qtest "lazy schedule valid"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (pair (Test_util.arb_machine ()) (int_bound 10_000)))
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let p = m.Machine.p in
      (* Random assignment: steps follow wavefront levels with random
         gaps so that cross edges are always strictly increasing. *)
      let level = Dag.wavefronts dag in
      let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng p) in
      let step = Array.map (fun l -> 2 * l) level in
      let s = Schedule.of_assignment dag ~proc ~step in
      Validity.is_valid m s)

let test_schedule_io_v1_compat () =
  (* A hand-written v1 file (no version marker, two-field header) must
     still parse, and replica-free output must still be v1. *)
  let dag = Test_util.chain 2 in
  let text = "% bsp schedule\n2 1\n0 0 0\n1 1 1\n0 0 1 0\n" in
  let s = Schedule_io.of_string dag text in
  Alcotest.(check (array int)) "proc" [| 0; 1 |] s.Schedule.proc;
  Alcotest.(check (array int)) "step" [| 0; 1 |] s.Schedule.step;
  check "events" 1 (List.length s.Schedule.comm);
  check "no replicas" 0 (Schedule.num_replicas s);
  check_bool "replica-free output stays v1" false
    (Test_util.contains_substring (Schedule_io.to_string s) "v2");
  (* Trailing non-comment garbage is rejected, v1 and v2 alike. *)
  (try
     ignore (Schedule_io.of_string dag (text ^ "9 9 9\n") : Schedule.t);
     Alcotest.fail "trailing garbage accepted"
   with Failure _ -> ());
  let rep =
    Schedule.make_replicated dag ~proc:[| 0; 1 |] ~step:[| 0; 1 |]
      ~comm:[ { Schedule.node = 0; src = 0; dst = 1; step = 0 } ]
      ~replicas:[ (0, 1, 0) ]
  in
  let rep_text = Schedule_io.to_string rep in
  check_bool "replicated output is v2" true
    (Test_util.contains_substring rep_text "% bsp schedule v2");
  (try
     ignore (Schedule_io.of_string dag (rep_text ^ "9 9 9\n") : Schedule.t);
     Alcotest.fail "v2 trailing garbage accepted"
   with Failure _ -> ())

(* Random replicated schedule: wavefront steps (so every predecessor is
   strictly earlier, making any same-step replica feedable), random
   primary processors, and a sparse sprinkle of replicas on other
   processors. *)
let random_replicated rng dag (m : Machine.t) =
  let p = m.Machine.p in
  let level = Dag.wavefronts dag in
  let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng p) in
  let step = Array.map (fun l -> 2 * l) level in
  let replicas = ref [] in
  if p > 1 then
    for v = 0 to Dag.n dag - 1 do
      if Rng.int rng 4 = 0 then begin
        let q = Rng.int rng (p - 1) in
        let q = if q >= proc.(v) then q + 1 else q in
        replicas := (v, q, step.(v)) :: !replicas
      end
    done;
  (proc, step, !replicas)

let gen3 =
  QCheck2.Gen.(
    pair (Test_util.arb_dag ()) (pair (Test_util.arb_machine ()) (int_bound 10_000)))

let prop_replicated_lazy_valid =
  Test_util.qtest ~count:80 "replica-aware lazy schedule valid" gen3
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let proc, step, replicas = random_replicated rng dag m in
      let s = Schedule.of_assignment_replicated m dag ~proc ~step ~replicas in
      Validity.is_valid m s
      && (match Profile.reconcile (Profile.compute m s) (Bsp_cost.breakdown m s) with
          | Ok () -> true
          | Error _ -> false))

let prop_io_roundtrip =
  Test_util.qtest ~count:80 "schedule_io round-trip" gen3 (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let proc, step, replicas = random_replicated rng dag m in
      let s = Schedule.of_assignment_replicated m dag ~proc ~step ~replicas in
      let text = Schedule_io.to_string s in
      let s2 = Schedule_io.of_string dag text in
      (* v1 for replica-free output, v2 marker otherwise. *)
      Test_util.contains_substring text "% bsp schedule v2" = (replicas <> [])
      && s2.Schedule.proc = s.Schedule.proc
      && s2.Schedule.step = s.Schedule.step
      && s2.Schedule.comm = s.Schedule.comm
      && s2.Schedule.rep_off = s.Schedule.rep_off
      && s2.Schedule.rep_proc = s.Schedule.rep_proc
      && s2.Schedule.rep_step = s.Schedule.rep_step
      && Bsp_cost.total m s2 = Bsp_cost.total m s)

(* Differential: the in-place scanner against the split-based parser it
   replaced (Text_io_reference), on clean and mutated v1 and v2 text;
   the oracle reads the text through [Text_io_reference.spaced]. The
   scanner adds one check, negative header counts, and reports a bad
   replica set as [Failure] where the old parser let
   [Invalid_argument] escape. *)
let prop_text_oracle =
  Test_util.qtest ~count:400 "schedule scanner = split-based oracle"
    QCheck2.Gen.(pair gen3 (oneofl [ 0.0; 0.02; 0.1; 0.3 ]))
    (fun ((dag, (m, seed)), rate) ->
      let rng = Rng.create seed in
      let proc, step, replicas = random_replicated rng dag m in
      let replicas = if Rng.bool rng then replicas else [] in
      let s = Schedule.of_assignment_replicated m dag ~proc ~step ~replicas in
      let text = Text_io_reference.mutate rng ~rate (Schedule_io.to_string s) in
      let expected =
        Text_io_reference.outcome (fun () ->
            Text_io_reference.schedule_of_string dag (Text_io_reference.spaced text))
      in
      let got = Text_io_reference.outcome (fun () -> Schedule_io.of_string dag text) in
      match (expected, got) with
      | _, Error _ when not (Text_io_reference.is_failure got) -> false
      | _, Error "Failure: Schedule_io: negative count in header" -> true
      | Error _, Error _ -> true
      | Ok a, Ok b ->
        a.Schedule.proc = b.Schedule.proc
        && a.Schedule.step = b.Schedule.step
        && a.Schedule.comm = b.Schedule.comm
        && a.Schedule.rep_off = b.Schedule.rep_off
        && a.Schedule.rep_proc = b.Schedule.rep_proc
        && a.Schedule.rep_step = b.Schedule.rep_step
      | _ -> false)

(* Collapsing every replica set back to its singleton primary must
   reproduce the replication-free schedule — and its cost — exactly. *)
let prop_collapse_replicas_exact =
  Test_util.qtest ~count:80 "collapsing replicas restores the old cost" gen3
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let proc, step, replicas = random_replicated rng dag m in
      let s = Schedule.of_assignment_replicated m dag ~proc ~step ~replicas in
      let collapsed = Schedule.drop_replicas s in
      let plain = Schedule.of_assignment dag ~proc ~step in
      let none = Schedule.of_assignment_replicated m dag ~proc ~step ~replicas:[] in
      (not (Schedule.has_replicas collapsed))
      && collapsed.Schedule.comm = plain.Schedule.comm
      && Bsp_cost.total m collapsed = Bsp_cost.total m plain
      (* The replica-aware lazy derivation degenerates exactly to the
         plain one on an empty replica table. *)
      && none.Schedule.comm = plain.Schedule.comm
      && Bsp_cost.total m none = Bsp_cost.total m plain)

let prop_compact_never_worse =
  Test_util.qtest "compact never increases cost"
    QCheck2.Gen.(pair (Test_util.arb_dag ()) (pair (Test_util.arb_machine ()) (int_bound 10_000)))
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let level = Dag.wavefronts dag in
      let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng m.Machine.p) in
      let step = Array.map (fun l -> 3 * l) level in
      let s = Schedule.of_assignment dag ~proc ~step in
      let c = Schedule.compact s in
      Validity.is_valid m c && Bsp_cost.total m c <= Bsp_cost.total m s)

(* The lazy events from a p-sized scratch equal those of the n x p
   first-need table, in the same order, for any assignment — valid or
   not. *)
let prop_lazy_comm_oracle =
  Test_util.qtest ~count:200 "lazy_comm = n x p table oracle" gen3
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let n = Dag.n dag in
      let proc = Array.init n (fun _ -> Rng.int rng m.Machine.p) in
      let step = Array.init n (fun _ -> Rng.int rng 6) in
      Schedule.lazy_comm dag ~proc ~step = Schedule_reference.lazy_comm dag ~proc ~step)

(* Validity over flat arrival arrays reports the same messages, in the
   same order, as the list-based check, on schedules broken in every way
   it reports: out-of-range placements, early consumers, events dropped,
   moved, redirected or for unknown nodes, and bad replica tables. *)
let prop_validity_oracle =
  Test_util.qtest ~count:300 "Validity.errors = list-based oracle" gen3
    (fun (dag, (m, seed)) ->
      let rng = Rng.create seed in
      let n = Dag.n dag and p = m.Machine.p in
      let proc, step, replicas = random_replicated rng dag m in
      let replicas = if Rng.bool rng then replicas else [] in
      let s = Schedule.of_assignment_replicated m dag ~proc ~step ~replicas in
      let pick () = Rng.int rng 6 = 0 in
      (* Half the cases keep every index in range, so the precedence
         and relay checks run; the rest also break the ranges. *)
      let ranges = Rng.bool rng in
      let comm =
        List.filter_map
          (fun (e : Schedule.comm_event) ->
            if not (pick ()) then Some e
            else
              match Rng.int rng 5 with
              | 0 -> None
              | 1 -> Some { e with step = max 0 (e.step + Rng.int rng 3 - 1) }
              | 2 -> Some { e with src = Rng.int rng p }
              | 3 when ranges -> Some { e with dst = Rng.int rng (p + 1) }
              | 4 when ranges -> Some { e with node = Rng.int rng (n + 1); step = e.step - 1 }
              | _ -> Some { e with step = e.step + 1 })
          s.Schedule.comm
      in
      let proc =
        Array.map (fun q -> if ranges && pick () then Rng.int rng (p + 1) else q) proc
      in
      let step =
        Array.map (fun x -> if pick () then if ranges then x - 1 else max 0 (x - 2) else x) step
      in
      let rep_proc =
        Array.map
          (fun q -> if ranges && pick () then Rng.int rng (p + 1) - 1 else q)
          s.Schedule.rep_proc
      in
      let rep_off =
        if Array.length s.Schedule.rep_off = 0 && pick () then Array.make (n + 1) 0
        else s.Schedule.rep_off
      in
      let broken = { s with Schedule.proc; step; comm; rep_off; rep_proc } in
      Validity.errors m broken = Schedule_reference.validity_errors m broken
      && Validity.errors m s = [])

(* Allocation of the schedule layer on the inputs the CI pins at p = 8:
   spmv-2k (generator seed 7) and exp-4k (seed 100), each scheduled by
   BSPg, and each reading the least of a few warm calls. *)
let alloc_instances =
  lazy
    (List.map
       (fun (name, family, target, seed) ->
         let dag =
           Finegrained.generate_sized (Rng.create seed) ~family ~shape:Finegrained.Wide
             ~target
         in
         let m = Machine.uniform ~p:8 ~g:3 ~l:5 in
         (name, m, Bspg.schedule m dag))
       [ ("spmv-2k", Finegrained.Spmv, 2000, 7); ("exp-4k", Finegrained.Exp, 4000, 100) ])

(* The cost allocates its three S x p tables (a spine and S rows each)
   and the S superstep records: nothing per node. *)
let test_cost_alloc () =
  List.iter
    (fun (name, m, s) ->
      let steps = Schedule.num_supersteps s and p = m.Machine.p in
      let bound = (3 * (1 + (steps * (p + 2)))) + (6 * steps) + 64 in
      let words = Test_util.min_allocated_words (fun () -> ignore (Bsp_cost.total m s)) in
      check_bool
        (Printf.sprintf "%s: Bsp_cost.total allocates %d words, bound O(S p) = %d" name
           words bound)
        true (words <= bound))
    (Lazy.force alloc_instances)

(* The lazy events cost their list (a five-word record and a three-word
   cell each) and a scratch row over the processors. *)
let test_lazy_comm_alloc () =
  List.iter
    (fun (name, m, s) ->
      let dag = s.Schedule.dag and proc = s.Schedule.proc and step = s.Schedule.step in
      let events = List.length (Schedule.lazy_comm dag ~proc ~step) in
      let bound = (8 * events) + (2 * (m.Machine.p + 1)) + 32 in
      let words =
        Test_util.min_allocated_words (fun () -> ignore (Schedule.lazy_comm dag ~proc ~step))
      in
      check_bool
        (Printf.sprintf "%s: lazy_comm allocates %d words for %d events, bound %d" name
           words events bound)
        true (words <= bound))
    (Lazy.force alloc_instances)

(* Checking a valid schedule allocates a few words per node: its
   per-node event offsets and two words per event. *)
let test_validity_alloc () =
  List.iter
    (fun (name, m, s) ->
      let n = Dag.n s.Schedule.dag in
      let words =
        Test_util.min_allocated_words (fun () ->
            match Validity.check m s with Ok () -> () | Error _ -> assert false)
      in
      check_bool
        (Printf.sprintf "%s: Validity.check allocates %d words for %d nodes, bound 4 per node"
           name words n)
        true (words <= 4 * n))
    (Lazy.force alloc_instances)

let () =
  Alcotest.run "schedule"
    [
      ( "unit",
        [
          Alcotest.test_case "figure-1 style cost" `Quick test_example_cost_uniform;
          Alcotest.test_case "cost with NUMA" `Quick test_example_cost_numa;
          Alcotest.test_case "trivial schedule" `Quick test_trivial;
          Alcotest.test_case "lazy comm dedup" `Quick test_lazy_comm_dedup;
          Alcotest.test_case "assignment validity" `Quick test_assignment_validity;
          Alcotest.test_case "missing event" `Quick test_validity_missing_event;
          Alcotest.test_case "late event" `Quick test_validity_late_event;
          Alcotest.test_case "send from absent" `Quick test_validity_send_from_absent;
          Alcotest.test_case "relay chain" `Quick test_validity_relay_chain;
          Alcotest.test_case "compact" `Quick test_compact;
          Alcotest.test_case "replicated cost on NUMA" `Quick test_replicated_cost_numa;
          Alcotest.test_case "replica needs its inputs" `Quick
            test_replica_needs_own_inputs;
          Alcotest.test_case "make_replicated rejects" `Quick test_make_replicated_rejects;
          Alcotest.test_case "compact preserves comm" `Quick test_compact_preserves_comm;
          Alcotest.test_case "compact replicated" `Quick test_compact_replicated;
          Alcotest.test_case "schedule_io v1 compat" `Quick test_schedule_io_v1_compat;
          Alcotest.test_case "classical conversion" `Quick test_classical_conversion;
          Alcotest.test_case "render utilisation summary" `Quick test_render_summary;
          Alcotest.test_case "render without comm" `Quick test_render_no_comm;
        ] );
      (* Group names stay no longer than "property": Alcotest pads every
         test name to the longest group name and truncates the rest to 80
         columns, which would cut the longest property name short. *)
      ( "alloc",
        [
          Alcotest.test_case "Bsp_cost.total is O(S p)" `Quick test_cost_alloc;
          Alcotest.test_case "lazy_comm is its events plus O(p)" `Quick test_lazy_comm_alloc;
          Alcotest.test_case "Validity.check of a valid schedule" `Quick test_validity_alloc;
        ] );
      ( "property",
        [
          prop_lazy_valid;
          prop_replicated_lazy_valid;
          prop_io_roundtrip;
          prop_text_oracle;
          prop_collapse_replicas_exact;
          prop_compact_never_worse;
          prop_lazy_comm_oracle;
          prop_validity_oracle;
        ] );
    ]
