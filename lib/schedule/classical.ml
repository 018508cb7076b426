type t = { proc : int array; seq : int array }

(* Nodes in execution order: [seq] is a permutation of 0 .. n-1, so
   inverting it orders them without a sort. *)
let order_of_seq seq =
  let n = Array.length seq in
  let order = Array.make n (-1) in
  for v = 0 to n - 1 do
    let i = seq.(v) in
    if i < 0 || i >= n || order.(i) >= 0 then
      invalid_arg "Classical: seq is not a permutation of 0 .. n-1";
    order.(i) <- v
  done;
  order

(* Whether [v] has a predecessor on another processor that no superstep
   holds yet ([step] is -1 until a node is cut into one). *)
let blocked dag ~proc ~step v =
  let off = Dag.pred_offsets dag and tgt = Dag.pred_targets dag in
  let stop = off.(v + 1) in
  let i = ref off.(v) in
  while !i < stop && not (step.(tgt.(!i)) < 0 && proc.(tgt.(!i)) <> proc.(v)) do
    incr i
  done;
  !i < stop

let to_bsp dag { proc; seq } =
  let n = Dag.n dag in
  let order = order_of_seq seq in
  let step = Array.make n (-1) in
  let superstep = ref 0 in
  let start = ref 0 in
  (* Invariant: order.(0 .. start-1) are assigned. Each round scans the
     unassigned suffix for the first node with an unassigned cross-
     processor predecessor; the strict prefix before it becomes the next
     superstep. The earliest unassigned node never qualifies (all its
     predecessors are assigned), so every round makes progress. *)
  while !start < n do
    let cut = ref !start in
    while !cut < n && not (blocked dag ~proc ~step order.(!cut)) do
      incr cut
    done;
    for i = !start to !cut - 1 do
      step.(order.(i)) <- !superstep
    done;
    start := !cut;
    incr superstep
  done;
  Schedule.of_assignment dag ~proc ~step

let makespan dag { proc; seq } =
  let n = Dag.n dag in
  let num_procs = 1 + Array.fold_left max (-1) proc in
  let proc_free = Array.make (max num_procs 1) 0 in
  let finish = Array.make n 0 in
  Array.iter
    (fun v ->
      let ready = Dag.fold_pred dag v ~init:0 (fun acc u -> max acc finish.(u)) in
      let begin_time = max ready proc_free.(proc.(v)) in
      finish.(v) <- begin_time + Dag.work dag v;
      proc_free.(proc.(v)) <- finish.(v))
    (order_of_seq seq);
  Array.fold_left max 0 finish
