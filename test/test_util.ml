(* Shared helpers for the test suites: random DAG generation for
   property-based tests and a few fixed example graphs. *)

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  Dag.of_edges ~n:4
    ~edges:[ (0, 1); (0, 2); (1, 3); (2, 3) ]
    ~work:[| 1; 2; 3; 4 |] ~comm:[| 1; 1; 2; 1 |]

let chain k =
  Dag.of_edges ~n:k
    ~edges:(List.init (k - 1) (fun i -> (i, i + 1)))
    ~work:(Array.make k 1) ~comm:(Array.make k 1)

(* Random layered DAG: nodes get random weights; edges only point from
   lower to higher ids, so acyclicity holds by construction. *)
let random_dag rng ~n ~edge_prob ~max_w ~max_c =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng edge_prob then edges := (u, v) :: !edges
    done
  done;
  let work = Array.init n (fun _ -> 1 + Rng.int rng max_w) in
  let comm = Array.init n (fun _ -> 1 + Rng.int rng max_c) in
  Dag.of_edges ~n ~edges:!edges ~work ~comm

(* QCheck generator wrapping random_dag; the seed is the shrink target so
   failures reproduce deterministically. *)
let arb_dag ?(max_n = 24) () =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 max_n in
    let* dense = bool in
    let rng = Rng.create seed in
    let edge_prob = if dense then 0.3 else 0.1 in
    return (random_dag rng ~n ~edge_prob ~max_w:5 ~max_c:4))

let arb_machine ?(max_p = 8) () =
  QCheck2.Gen.(
    let* p_exp = int_range 0 3 in
    let p = min max_p (1 lsl p_exp) in
    let* g = int_range 0 4 in
    let* l = int_range 0 6 in
    let* numa = bool in
    if numa && p >= 2 then
      let* delta = int_range 1 4 in
      return (Machine.numa_tree ~p ~g ~l ~delta)
    else return (Machine.uniform ~p ~g ~l))

(* Tie-heavy DAGs for the differential checks against the reference
   implementations: 1-150 nodes, zero work and comm weights allowed and
   per-node fan-out probabilities from 0 to 0.6, so equal scores, and
   so the tie-breaks, are common. *)
let arb_tie_dag =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* n = int_range 1 150 in
    let rng = Rng.create seed in
    let fanouts = [| 0.0; 0.02; 0.1; 0.3; 0.6 |] in
    let edges = ref [] in
    for u = 0 to n - 1 do
      let prob = fanouts.(Rng.int rng (Array.length fanouts)) in
      for v = u + 1 to n - 1 do
        if Rng.bernoulli rng prob then edges := (u, v) :: !edges
      done
    done;
    let work = Array.init n (fun _ -> Rng.int rng 5) in
    let comm = Array.init n (fun _ -> Rng.int rng 4) in
    return (Dag.of_edges ~n ~edges:!edges ~work ~comm))

(* The machines of those checks: p in {1, 2, 3, 5, 8, 16}, or an
   8-processor NUMA tree. *)
let arb_diff_machine =
  QCheck2.Gen.(
    let* numa = bool in
    if numa then
      let* delta = int_range 1 4 in
      return (Machine.numa_tree ~p:8 ~g:2 ~l:3 ~delta)
    else
      let* p = oneofl [ 1; 2; 3; 5; 8; 16 ] in
      return (Machine.uniform ~p ~g:2 ~l:3))

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Substring search used by rendering tests. *)
let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Bytes allocated by one call of [f], as the minimum over [repeats]
   calls. A single [Gc.allocated_bytes] delta is not exact on OCaml 5.1:
   when a minor collection falls inside the window, the delta also
   grows with the young data that collection promotes. A 32 KiB call
   read up to 0.95 MB with about 1 MB of live young data around it, so
   a suite that holds more could cross a 1 MB bound. For calls that
   allocate far less than the minor heap, at most one of a few
   back-to-back calls contains a minor collection, so the minimum is
   the call's own allocation. *)
let min_allocated_bytes ?(repeats = 5) f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let before = Gc.allocated_bytes () in
    f ();
    best := Float.min !best (Gc.allocated_bytes () -. before)
  done;
  !best

(* Words allocated by one call of [f], as the minimum over [repeats]
   calls: minor-heap words, exact through [Gc.minor_words], plus words
   allocated straight into the major heap (arrays above the minor-heap
   size limit), which [Gc.counters] reports as major words that were not
   promoted. The two [Gc.counters] readings box a few words of their
   own; an empty call's reading is subtracted. *)
let min_allocated_words ?(repeats = 5) f =
  let measure g =
    let best = ref infinity in
    for _ = 1 to repeats do
      let m0 = Gc.minor_words () in
      let _, p0, j0 = Gc.counters () in
      g ();
      let _, p1, j1 = Gc.counters () in
      let m1 = Gc.minor_words () in
      best := Float.min !best (m1 -. m0 +. (j1 -. j0 -. (p1 -. p0)))
    done;
    !best
  in
  let own = measure (fun () -> ()) in
  int_of_float (measure f -. own)
