(* Host-speed reference kernel for the end-to-end benchmark.

   The scheduler's hot paths are allocation-heavy OCaml over CSR arrays
   and balanced-tree sets, so the kernel does the same kind of work on a
   frozen pseudo-random DAG: every round rebuilds the ready set with
   [Set.Make], scores candidates through copied adjacency segments and
   allocates short-lived floats. The DAG is large enough (50k nodes)
   that the working set spills out of the L2 cache as the workloads'
   do; a 6k-node version tracked the host's fast/slow shifts with about
   1.3x the workloads' amplitude. It links nothing from the scheduler,
   so its cost depends on the host alone; [perfbench/run.py] times it
   between workload operations to record how fast the host was running.

   Usage: calib.exe ROUNDS — prints one line per round with the round's
   wall seconds. *)

module S = Set.Make (Int)

let n = 50_000
let deg = 3

let graph =
  let state = ref 12345 in
  let next () =
    state := (!state * 1103515245 + 12345) land 0x3fffffff;
    !state
  in
  (* deg edges from every node but the last, each to one of the next 50 *)
  let off = Array.init (n + 1) (fun v -> min v (n - 1) * deg) in
  let tgt =
    Array.init ((n - 1) * deg) (fun i ->
        let v = i / deg in
        v + 1 + (next () mod min 50 (n - v - 1)))
  in
  (off, tgt)

let round () =
  let off, tgt = graph in
  let succ v = Array.sub tgt off.(v) (off.(v + 1) - off.(v)) in
  let indeg = Array.make n 0 in
  Array.iter (fun w -> indeg.(w) <- indeg.(w) + 1) tgt;
  let placed = Array.make n (-1) in
  let ready = ref S.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then ready := S.add v !ready
  done;
  let total = ref 0.0 in
  let q = ref 0 in
  while not (S.is_empty !ready) do
    let best = ref (-1) and best_score = ref neg_infinity in
    let k = ref 0 in
    (try
       S.iter
         (fun v ->
           incr k;
           if !k > 64 then raise Exit;
           let s =
             Array.fold_left
               (fun acc w -> if placed.(w) = !q then acc +. 1.0 else acc +. 0.5)
               0.0 (succ v)
           in
           if s > !best_score then begin
             best := v;
             best_score := s
           end)
         !ready
     with Exit -> ());
    let v = !best in
    placed.(v) <- !q;
    total := !total +. !best_score;
    q := (!q + 1) mod 8;
    ready := S.remove v !ready;
    Array.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready := S.add w !ready)
      (succ v)
  done;
  !total

let () =
  let rounds = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  for _ = 1 to rounds do
    let t0 = Unix.gettimeofday () in
    let total = round () in
    let t1 = Unix.gettimeofday () in
    Printf.printf "%.6f %.0f\n%!" (t1 -. t0) total
  done
