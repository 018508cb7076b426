(* The DAG builder of the first implementation, kept verbatim as the
   oracle for the differential property in test_dag.ml: the
   array-driven [build_csr] and the bitmap-queue [compute_topo] of Dag
   must build the same nine fields, or raise the same exception with
   the same message, in the same order of checks. Here every edge goes
   through an [iter] closure and the ready set is a binary heap. *)

(* Kahn's algorithm with a smallest-id-first priority discipline so the
   resulting order is deterministic and independent of edge insertion
   order. A simple module-level binary heap keeps this O((n+m) log n).
   Returns [None] when the edge set contains a directed cycle. *)
let compute_topo ~n ~succ_off ~succ_tgt ~pred_off =
  let indeg = Array.init n (fun v -> pred_off.(v + 1) - pred_off.(v)) in
  let heap = Array.make (n + 1) 0 in
  let size = ref 0 in
  let push x =
    incr size;
    heap.(!size) <- x;
    let i = ref !size in
    while !i > 1 && heap.(!i / 2) > heap.(!i) do
      let p = !i / 2 in
      let tmp = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- tmp;
      i := p
    done
  in
  let pop () =
    let top = heap.(1) in
    heap.(1) <- heap.(!size);
    decr size;
    let i = ref 1 in
    let continue = ref true in
    while !continue do
      let l = 2 * !i and r = (2 * !i) + 1 in
      let smallest = ref !i in
      if l <= !size && heap.(l) < heap.(!smallest) then smallest := l;
      if r <= !size && heap.(r) < heap.(!smallest) then smallest := r;
      if !smallest = !i then continue := false
      else begin
        let tmp = heap.(!smallest) in
        heap.(!smallest) <- heap.(!i);
        heap.(!i) <- tmp;
        i := !smallest
      end
    done;
    top
  in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then push v
  done;
  let order = Array.make n 0 in
  let k = ref 0 in
  while !size > 0 do
    let u = pop () in
    order.(!k) <- u;
    incr k;
    for i = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ_tgt.(i) in
      indeg.(v) <- indeg.(v) - 1;
      if indeg.(v) = 0 then push v
    done
  done;
  if !k <> n then None else Some order

(* In-place quicksort-with-insertion-cutoff of one CSR segment. *)
let sort_segment a lo hi =
  let rec qsort lo hi =
    if hi - lo > 12 then begin
      let mid = (lo + hi) / 2 in
      (* median-of-three pivot *)
      let p =
        let x = a.(lo) and y = a.(mid) and z = a.(hi) in
        if x < y then if y < z then y else if x < z then z else x
        else if x < z then x
        else if y < z then z
        else y
      in
      let i = ref lo and j = ref hi in
      while !i <= !j do
        while a.(!i) < p do incr i done;
        while a.(!j) > p do decr j done;
        if !i <= !j then begin
          let tmp = a.(!i) in
          a.(!i) <- a.(!j);
          a.(!j) <- tmp;
          incr i;
          decr j
        end
      done;
      qsort lo !j;
      qsort !i hi
    end
    else
      for i = lo + 1 to hi do
        let x = a.(i) in
        let j = ref (i - 1) in
        while !j >= lo && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done
  in
  if hi > lo then qsort lo hi

(* Build both CSR directions from raw edges, which [iter f] passes to
   [f] one (u, v) pair at a time: count, fill, sort each successor
   segment, compact out duplicates, then derive the predecessor side by
   a counting pass over the deduplicated successors (iterating u
   ascending makes every predecessor segment sorted and duplicate-free
   for free). *)
let build_csr ~n ~iter =
  if n < 0 then invalid_arg "Dag: negative node count";
  iter (fun u v ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Dag: edge endpoint out of range";
      if u = v then invalid_arg "Dag: self-loop");
  let deg = Array.make (n + 1) 0 in
  iter (fun u _ -> deg.(u) <- deg.(u) + 1);
  let succ_off = Array.make (n + 1) 0 in
  for v = 1 to n do
    succ_off.(v) <- succ_off.(v - 1) + deg.(v - 1)
  done;
  let m_raw = succ_off.(n) in
  let succ_tgt = Array.make m_raw 0 in
  let cursor = Array.make n 0 in
  Array.blit succ_off 0 cursor 0 n;
  iter (fun u v ->
      succ_tgt.(cursor.(u)) <- v;
      cursor.(u) <- cursor.(u) + 1);
  for u = 0 to n - 1 do
    sort_segment succ_tgt succ_off.(u) (succ_off.(u + 1) - 1)
  done;
  (* Compact duplicates in place, left-packing the segments. *)
  let write = ref 0 in
  let off_out = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off_out.(u) <- !write;
    let prev = ref (-1) in
    for i = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ_tgt.(i) in
      if v <> !prev then begin
        succ_tgt.(!write) <- v;
        incr write;
        prev := v
      end
    done
  done;
  off_out.(n) <- !write;
  let m = !write in
  let succ_tgt = if m = m_raw then succ_tgt else Array.sub succ_tgt 0 m in
  let succ_off = off_out in
  (* Predecessor side. *)
  let indeg = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let v = succ_tgt.(i) in
    indeg.(v) <- indeg.(v) + 1
  done;
  let pred_off = Array.make (n + 1) 0 in
  for v = 1 to n do
    pred_off.(v) <- pred_off.(v - 1) + indeg.(v - 1)
  done;
  let pred_tgt = Array.make m 0 in
  Array.blit pred_off 0 cursor 0 n;
  for u = 0 to n - 1 do
    for i = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ_tgt.(i) in
      pred_tgt.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  (succ_off, succ_tgt, pred_off, pred_tgt)

type t = {
  n : int;
  succ_off : int array;
  succ_tgt : int array;
  pred_off : int array;
  pred_tgt : int array;
  work : int array;
  comm : int array;
  topo : int array;
  rank : int array;
}

let build ~n ~iter ~work ~comm ~on_cycle =
  if Array.length work <> n || Array.length comm <> n then
    invalid_arg "Dag: weight array length mismatch";
  Array.iter (fun w -> if w < 0 then invalid_arg "Dag: negative work weight") work;
  Array.iter (fun c -> if c < 0 then invalid_arg "Dag: negative comm weight") comm;
  let succ_off, succ_tgt, pred_off, pred_tgt = build_csr ~n ~iter in
  match compute_topo ~n ~succ_off ~succ_tgt ~pred_off with
  | None -> on_cycle ()
  | Some topo ->
    let rank = Array.make n 0 in
    Array.iteri (fun i v -> rank.(v) <- i) topo;
    {
      n;
      succ_off;
      succ_tgt;
      pred_off;
      pred_tgt;
      work = Array.copy work;
      comm = Array.copy comm;
      topo;
      rank;
    }

let iter_list edges f = List.iter (fun (u, v) -> f u v) edges

let of_edges ~n ~edges ~work ~comm =
  build ~n ~iter:(iter_list edges) ~work ~comm ~on_cycle:(fun () ->
      invalid_arg "Dag.of_edges: edge set contains a directed cycle")

let of_edge_arrays ~n ~src ~dst ~m ~work ~comm =
  if m < 0 || m > Array.length src || m > Array.length dst then
    invalid_arg "Dag.of_edge_arrays: edge count exceeds the arrays";
  let iter f =
    for i = 0 to m - 1 do
      f src.(i) dst.(i)
    done
  in
  build ~n ~iter ~work ~comm ~on_cycle:(fun () ->
      invalid_arg "Dag.of_edges: edge set contains a directed cycle")

(* The nine fields of a built DAG, read through the public accessors. *)
let of_dag g =
  let n = Dag.n g in
  {
    n;
    succ_off = Array.copy (Dag.succ_offsets g);
    succ_tgt = Array.copy (Dag.succ_targets g);
    pred_off = Array.copy (Dag.pred_offsets g);
    pred_tgt = Array.copy (Dag.pred_targets g);
    work = Array.init n (Dag.work g);
    comm = Array.init n (Dag.comm g);
    topo = Array.copy (Dag.topological_order g);
    rank = Array.copy (Dag.topological_rank g);
  }
