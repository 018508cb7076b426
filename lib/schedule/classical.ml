type t = { proc : int array; seq : int array }

let to_bsp dag { proc; seq } =
  let n = Dag.n dag in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare seq.(a) seq.(b)) order;
  let step = Array.make n (-1) in
  let superstep = ref 0 in
  let assigned = Array.make n false in
  let start = ref 0 in
  (* Invariant: order.(0 .. start-1) are assigned. Each round scans the
     unassigned suffix for the first node with an unassigned cross-
     processor predecessor; the strict prefix before it becomes the next
     superstep. The earliest unassigned node never qualifies (all its
     predecessors are assigned), so every round makes progress. *)
  while !start < n do
    let cut = ref n in
    (try
       for i = !start to n - 1 do
         let v = order.(i) in
         let blocked =
           Dag.exists_pred dag v (fun u -> (not assigned.(u)) && proc.(u) <> proc.(v))
         in
         if blocked then begin
           cut := i;
           raise Exit
         end
       done
     with Exit -> ());
    for i = !start to !cut - 1 do
      let v = order.(i) in
      step.(v) <- !superstep;
      assigned.(v) <- true
    done;
    start := !cut;
    incr superstep
  done;
  Schedule.of_assignment dag ~proc ~step

let makespan dag { proc; seq } =
  let n = Dag.n dag in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare seq.(a) seq.(b)) order;
  let num_procs = 1 + Array.fold_left max (-1) proc in
  let proc_free = Array.make (max num_procs 1) 0 in
  let finish = Array.make n 0 in
  Array.iter
    (fun v ->
      let ready = Dag.fold_pred dag v ~init:0 (fun acc u -> max acc finish.(u)) in
      let begin_time = max ready proc_free.(proc.(v)) in
      finish.(v) <- begin_time + Dag.work dag v;
      proc_free.(proc.(v)) <- finish.(v))
    order;
  Array.fold_left max 0 finish
