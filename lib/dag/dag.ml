(* Flat CSR adjacency (DESIGN.md Section 5f).

   Both directions are stored as one offsets array (length n + 1) plus
   one targets array (length m): the successors of u are
   succ_tgt.(succ_off.(u)) .. succ_tgt.(succ_off.(u + 1) - 1), sorted
   ascending and duplicate-free, and symmetrically for predecessors.
   The topological order and rank caches are computed eagerly at
   construction, so a built value is deeply immutable — sharing a DAG
   across domains involves no lazy initialisation and therefore no data
   race by construction. Adjacency is read only through the
   zero-allocation iterators or the raw offsets/targets arrays, which
   keeps the hot loops on two contiguous int arrays per direction
   instead of chasing a pointer per node.

   Capacity rule: an array may be longer than what it holds (n + 1
   offsets, m targets, n weights, order and rank entries), so a caller
   can rebuild DAGs of varying size in one set of buffers
   ([of_csr_buffers]). Every function here reads only those prefixes;
   [m] is stored because [succ_tgt] no longer tells it. *)

type t = {
  n : int;
  m : int;
  succ_off : int array;  (* n + 1 entries *)
  succ_tgt : int array;  (* m entries, per-node segments sorted *)
  pred_off : int array;
  pred_tgt : int array;
  work : int array;
  comm : int array;
  topo : int array;  (* eager: a deterministic topological order *)
  rank : int array;  (* eager: position of each node in [topo] *)
}

let n g = g.n
let num_edges g = g.m

let work g v = g.work.(v)
let comm g v = g.comm.(v)

let in_degree g v = g.pred_off.(v + 1) - g.pred_off.(v)
let out_degree g v = g.succ_off.(v + 1) - g.succ_off.(v)

let succ_offsets g = g.succ_off
let succ_targets g = g.succ_tgt
let pred_offsets g = g.pred_off
let pred_targets g = g.pred_tgt

let iter_succ g v f =
  for i = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
    f (Array.unsafe_get g.succ_tgt i)
  done

let iter_pred g v f =
  for i = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
    f (Array.unsafe_get g.pred_tgt i)
  done

let fold_succ g v ~init f =
  let acc = ref init in
  for i = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
    acc := f !acc (Array.unsafe_get g.succ_tgt i)
  done;
  !acc

let fold_pred g v ~init f =
  let acc = ref init in
  for i = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
    acc := f !acc (Array.unsafe_get g.pred_tgt i)
  done;
  !acc

let exists_pred g v f =
  let i = ref g.pred_off.(v) in
  let stop = g.pred_off.(v + 1) in
  let found = ref false in
  while (not !found) && !i < stop do
    if f (Array.unsafe_get g.pred_tgt !i) then found := true;
    incr i
  done;
  !found

let for_all_pred g v f = not (exists_pred g v (fun w -> not (f w)))

let sum_prefix a n =
  let s = ref 0 in
  for i = 0 to n - 1 do
    s := !s + a.(i)
  done;
  !s

let total_work g = sum_prefix g.work g.n
let total_comm g = sum_prefix g.comm g.n

let sources g =
  let acc = ref [] in
  for v = g.n - 1 downto 0 do
    if in_degree g v = 0 then acc := v :: !acc
  done;
  !acc

let iter_edges g f =
  for u = 0 to g.n - 1 do
    for i = g.succ_off.(u) to g.succ_off.(u + 1) - 1 do
      f u (Array.unsafe_get g.succ_tgt i)
    done
  done

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for i = g.succ_off.(u + 1) - 1 downto g.succ_off.(u) do
      acc := (u, g.succ_tgt.(i)) :: !acc
    done
  done;
  !acc

(* Segments are sorted, so membership is a binary search. *)
let has_edge g u v =
  let lo = ref g.succ_off.(u) and hi = ref (g.succ_off.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = g.succ_tgt.(mid) in
    if x = v then found := true else if x < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* ------------------------------------------------------------------ *)
(* Construction.                                                       *)

(* Count trailing zeros of a positive word. *)
let ctz x =
  let x = ref x and k = ref 0 in
  if !x land 0xFFFFFFFF = 0 then (k := 32; x := !x lsr 32);
  if !x land 0xFFFF = 0 then (k := !k + 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (k := !k + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (k := !k + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (k := !k + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then !k + 1 else !k

(* Add id [v] to the ready bitmap, whose summary words start at
   [sbase]; returns the new bound [lo]. *)
let push_ready bits sbase lo v =
  let w = v / 62 in
  let s = w / 62 in
  bits.(w) <- bits.(w) lor (1 lsl (v - (62 * w)));
  bits.(sbase + s) <- bits.(sbase + s) lor (1 lsl (w - (62 * s)));
  if s < lo then s else lo

let bitmap_words n = (n + 61) / 62
let bits_length n = bitmap_words n + ((bitmap_words n + 61) / 62)

(* Kahn's algorithm with a smallest-id-first discipline, so the order is
   deterministic and independent of edge insertion order. The ready set
   is a two-level bitmap in [bits]: bit b of [bits.(w)] holds id 62w + b,
   and bit j of the summary word [bits.(sbase + s)] says
   [bits.(62s + j)] is non-zero (62 bits keep every word non-negative).
   The minimum ready id is the lowest bit of the lowest non-zero word;
   [lo] is a lower bound on the first non-zero summary word. Each node
   enters the set once, and the set holds exactly what a min-heap would
   hold at every step, so the pops come in the same order. Every id
   pushed is popped, so [bits] is all zero again on return, as it must
   be on entry. Writes the order into [order] and the ranks into [rank]
   (which holds the remaining in-degrees meanwhile) and returns whether
   the order covers all [n] nodes: [false] when the edges contain a
   directed cycle. *)
let topo_into ~n ~succ_off ~succ_tgt ~pred_off ~order ~rank ~bits =
  let indeg = rank in
  let sbase = bitmap_words n in
  let lo = ref 0 in
  for v = 0 to n - 1 do
    let d = pred_off.(v + 1) - pred_off.(v) in
    indeg.(v) <- d;
    if d = 0 then lo := push_ready bits sbase !lo v
  done;
  let k = ref 0 in
  let nsum = bits_length n - sbase in
  while !lo < nsum do
    let s = !lo in
    let sw = bits.(sbase + s) in
    if sw = 0 then incr lo
    else begin
      let w = (62 * s) + ctz sw in
      let bw = bits.(w) in
      let u = (62 * w) + ctz bw in
      let bw = bw land (bw - 1) in
      bits.(w) <- bw;
      if bw = 0 then bits.(sbase + s) <- sw land (sw - 1);
      order.(!k) <- u;
      incr k;
      for i = succ_off.(u) to succ_off.(u + 1) - 1 do
        let v = succ_tgt.(i) in
        let d = indeg.(v) - 1 in
        indeg.(v) <- d;
        if d = 0 then lo := push_ready bits sbase !lo v
      done
    end
  done;
  !k = n
  && begin
    for i = 0 to n - 1 do
      rank.(order.(i)) <- i
    done;
    true
  end

(* [topo_into] on fresh arrays: [Some (order, rank)], or [None] on a
   cycle. *)
let compute_topo ~n ~succ_off ~succ_tgt ~pred_off =
  let order = Array.make n 0 and rank = Array.make n 0 in
  let bits = Array.make (bits_length n) 0 in
  if topo_into ~n ~succ_off ~succ_tgt ~pred_off ~order ~rank ~bits then Some (order, rank)
  else None

(* In-place quicksort-with-insertion-cutoff of the CSR segment
   [lo, hi] of [a]. *)
let rec sort_segment a lo hi =
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
    sort_segment a lo !j;
    sort_segment a !i hi
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

(* The predecessor CSR of a canonical successor CSR (sorted,
   duplicate-free segments; m = succ_off.(n)), by a counting pass.
   Scattering u ascending makes every predecessor segment sorted and
   duplicate-free for free. The offsets array is its own fill cursor:
   counted into [pred_off.(v + 1)] and prefix-summed, [pred_off.(v)]
   walks from the start of v's segment to its end, which is where
   v + 1's starts; one shift then restores the starts. *)
let pred_csr_into ~n ~succ_off ~succ_tgt ~pred_off ~pred_tgt =
  let m = succ_off.(n) in
  Array.fill pred_off 0 (n + 1) 0;
  for i = 0 to m - 1 do
    let v = Array.unsafe_get succ_tgt i + 1 in
    Array.unsafe_set pred_off v (Array.unsafe_get pred_off v + 1)
  done;
  for v = 1 to n do
    pred_off.(v) <- pred_off.(v) + pred_off.(v - 1)
  done;
  for u = 0 to n - 1 do
    for i = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = Array.unsafe_get succ_tgt i in
      let c = Array.unsafe_get pred_off v in
      Array.unsafe_set pred_tgt c u;
      Array.unsafe_set pred_off v (c + 1)
    done
  done;
  for v = n downto 1 do
    pred_off.(v) <- pred_off.(v - 1)
  done;
  pred_off.(0) <- 0

let pred_csr ~n ~succ_off ~succ_tgt =
  let pred_off = Array.make (n + 1) 0 and pred_tgt = Array.make succ_off.(n) 0 in
  pred_csr_into ~n ~succ_off ~succ_tgt ~pred_off ~pred_tgt;
  (pred_off, pred_tgt)

(* Build both CSR directions from the raw edges (src.(i), dst.(i)),
   i < m: check, count, fill, sort each successor segment, compact out
   duplicates, then derive the predecessor side with [pred_csr]. The
   successor offsets are their own fill cursor in the same way. *)
let build_csr ~n ~src ~dst ~m =
  if n < 0 then invalid_arg "Dag: negative node count";
  for i = 0 to m - 1 do
    let u = src.(i) and v = dst.(i) in
    if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Dag: edge endpoint out of range";
    if u = v then invalid_arg "Dag: self-loop"
  done;
  let succ_off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let u = Array.unsafe_get src i + 1 in
    Array.unsafe_set succ_off u (Array.unsafe_get succ_off u + 1)
  done;
  for v = 1 to n do
    succ_off.(v) <- succ_off.(v) + succ_off.(v - 1)
  done;
  let succ_tgt = Array.make m 0 in
  for i = 0 to m - 1 do
    let u = Array.unsafe_get src i in
    let c = Array.unsafe_get succ_off u in
    Array.unsafe_set succ_tgt c (Array.unsafe_get dst i);
    Array.unsafe_set succ_off u (c + 1)
  done;
  (* Sort and compact each segment in place, left-packing them; u's raw
     segment is [start, succ_off.(u)). *)
  let write = ref 0 and start = ref 0 in
  for u = 0 to n - 1 do
    let stop = succ_off.(u) in
    sort_segment succ_tgt !start (stop - 1);
    succ_off.(u) <- !write;
    let prev = ref (-1) in
    for i = !start to stop - 1 do
      let v = Array.unsafe_get succ_tgt i in
      if v <> !prev then begin
        Array.unsafe_set succ_tgt !write v;
        incr write;
        prev := v
      end
    done;
    start := stop
  done;
  succ_off.(n) <- !write;
  let m' = !write in
  let succ_tgt = if m' = m then succ_tgt else Array.sub succ_tgt 0 m' in
  let pred_off, pred_tgt = pred_csr ~n ~succ_off ~succ_tgt in
  (succ_off, succ_tgt, pred_off, pred_tgt)

(* [work] and [comm] become the DAG's own. *)
let build ~n ~src ~dst ~m ~work ~comm ~on_cycle =
  if Array.length work <> n || Array.length comm <> n then
    invalid_arg "Dag: weight array length mismatch";
  Array.iter (fun w -> if w < 0 then invalid_arg "Dag: negative work weight") work;
  Array.iter (fun c -> if c < 0 then invalid_arg "Dag: negative comm weight") comm;
  let succ_off, succ_tgt, pred_off, pred_tgt = build_csr ~n ~src ~dst ~m in
  match compute_topo ~n ~succ_off ~succ_tgt ~pred_off with
  | None -> on_cycle ()
  | Some (topo, rank) ->
    { n; m = succ_off.(n); succ_off; succ_tgt; pred_off; pred_tgt; work; comm; topo; rank }

let arrays_of_list edges =
  let m = List.length edges in
  let src = Array.make m 0 and dst = Array.make m 0 in
  List.iteri
    (fun i (u, v) ->
      src.(i) <- u;
      dst.(i) <- v)
    edges;
  (src, dst, m)

let cycle_in_edges () = invalid_arg "Dag.of_edges: edge set contains a directed cycle"

let of_edges ~n ~edges ~work ~comm =
  let src, dst, m = arrays_of_list edges in
  build ~n ~src ~dst ~m ~work:(Array.copy work) ~comm:(Array.copy comm)
    ~on_cycle:cycle_in_edges

let of_edge_arrays ~n ~src ~dst ~m ~work ~comm =
  if m < 0 || m > Array.length src || m > Array.length dst then
    invalid_arg "Dag.of_edge_arrays: edge count exceeds the arrays";
  build ~n ~src ~dst ~m ~work ~comm ~on_cycle:cycle_in_edges

(* CSR-direct construction: the caller hands over canonical successor
   segments (sorted, deduplicated, loop-free), so only the predecessor
   side ([pred_csr], as in [build_csr]) and the topo caches remain to
   be derived — no edge list, no sort, no dedup pass. *)
let of_csr_unchecked ~n ~succ_off ~succ_tgt ~work ~comm =
  if n < 0 then invalid_arg "Dag: negative node count";
  if Array.length succ_off <> n + 1 || succ_off.(0) <> 0 then
    invalid_arg "Dag.of_csr_unchecked: malformed offsets";
  let m = succ_off.(n) in
  if Array.length succ_tgt < m then invalid_arg "Dag.of_csr_unchecked: short targets";
  if Array.length work <> n || Array.length comm <> n then
    invalid_arg "Dag: weight array length mismatch";
  for u = 0 to n - 1 do
    if succ_off.(u + 1) < succ_off.(u) then
      invalid_arg "Dag.of_csr_unchecked: malformed offsets";
    let prev = ref (-1) in
    for i = succ_off.(u) to succ_off.(u + 1) - 1 do
      let v = succ_tgt.(i) in
      if v < 0 || v >= n || v = u then
        invalid_arg "Dag.of_csr_unchecked: edge endpoint out of range";
      if v <= !prev then invalid_arg "Dag.of_csr_unchecked: segment not sorted";
      prev := v
    done;
    if work.(u) < 0 then invalid_arg "Dag: negative work weight";
    if comm.(u) < 0 then invalid_arg "Dag: negative comm weight"
  done;
  let succ_tgt = if Array.length succ_tgt = m then succ_tgt else Array.sub succ_tgt 0 m in
  let pred_off, pred_tgt = pred_csr ~n ~succ_off ~succ_tgt in
  match compute_topo ~n ~succ_off ~succ_tgt ~pred_off with
  | None -> failwith "Dag: graph contains a directed cycle"
  | Some (topo, rank) ->
    { n; m = succ_off.(n); succ_off; succ_tgt; pred_off; pred_tgt; work; comm; topo; rank }

(* The buffer form: nothing is checked but acyclicity, and nothing is
   allocated but the record. *)
let of_csr_buffers ~n ~succ_off ~succ_tgt ~work ~comm ~pred_off ~pred_tgt ~topo ~rank ~bits =
  pred_csr_into ~n ~succ_off ~succ_tgt ~pred_off ~pred_tgt;
  if not (topo_into ~n ~succ_off ~succ_tgt ~pred_off ~order:topo ~rank ~bits) then
    failwith "Dag: graph contains a directed cycle";
  { n; m = succ_off.(n); succ_off; succ_tgt; pred_off; pred_tgt; work; comm; topo; rank }

let is_acyclic_edges ~n edges =
  let src, dst, m = arrays_of_list edges in
  match build_csr ~n ~src ~dst ~m with
  | succ_off, succ_tgt, pred_off, _ ->
    compute_topo ~n ~succ_off ~succ_tgt ~pred_off <> None

let topological_order g = g.topo
let topological_rank g = g.rank

let wavefronts g =
  let level = Array.make g.n 0 in
  for k = 0 to g.n - 1 do
    let v = g.topo.(k) in
    for i = g.pred_off.(v) to g.pred_off.(v + 1) - 1 do
      let u = g.pred_tgt.(i) in
      if level.(u) + 1 > level.(v) then level.(v) <- level.(u) + 1
    done
  done;
  level

let num_wavefronts g =
  if g.n = 0 then 0
  else 1 + Array.fold_left max 0 (wavefronts g)

let bottom_level g ~comm_factor =
  let bl = Array.make g.n 0 in
  for i = g.n - 1 downto 0 do
    let v = g.topo.(i) in
    let best = ref 0 in
    for k = g.succ_off.(v) to g.succ_off.(v + 1) - 1 do
      let u = g.succ_tgt.(k) in
      let cand = (comm_factor * g.comm.(v)) + bl.(u) in
      if cand > !best then best := cand
    done;
    bl.(v) <- g.work.(v) + !best
  done;
  bl

let critical_path_work g =
  if g.n = 0 then 0
  else Array.fold_left max 0 (bottom_level g ~comm_factor:0)

(* The adjacency, topo and rank arrays are structure-only and immutable,
   so the reweighted DAG shares them. *)
let map_weights g ~work ~comm =
  let w = Array.init g.n work and c = Array.init g.n comm in
  Array.iter (fun x -> if x < 0 then invalid_arg "Dag: negative work weight") w;
  Array.iter (fun x -> if x < 0 then invalid_arg "Dag: negative comm weight") c;
  { g with work = w; comm = c }

let assign_paper_weights g =
  map_weights g
    ~work:(fun v -> if in_degree g v = 0 then 1 else in_degree g v - 1)
    ~comm:(fun _ -> 1)

(* The record (ten fields) plus each physically distinct array, as
   [Obj.reachable_words] counts them: a header word and one word per
   element, whole arrays included where they are longer than what the
   DAG reads. [arrays] are counted with the DAG's own, so a caller sizing
   a value that holds this DAG beside arrays of its own shares each
   array, and the one empty-array atom, once. *)
let heap_words ?(arrays = []) g =
  let all =
    g.succ_off :: g.succ_tgt :: g.pred_off :: g.pred_tgt :: g.work :: g.comm :: g.topo
    :: g.rank :: arrays
  in
  let rec count seen words = function
    | [] -> words
    | a :: rest when List.memq a seen -> count seen words rest
    | a :: rest -> count (a :: seen) (words + 1 + Array.length a) rest
  in
  count [] 11 all

(* The CSR form is already canonical — segments sorted and
   deduplicated, node ids dense — so hashing the raw arrays gives a
   structural content address: two DAGs hash equal iff they have the
   same node count, edge set and weights. [succ_off] is derivable from
   the segment lengths but is included anyway so a corrupt in-memory
   value cannot alias a well-formed one. Only the prefixes the DAG
   holds are hashed, so the value does not depend on buffer capacity. *)
let structural_hash g =
  let h = Fnv.init in
  let h = Fnv.int h g.n in
  let h = Fnv.int h g.m in
  let h = Fnv.int_array_prefix h g.succ_off (g.n + 1) in
  let h = Fnv.int_array_prefix h g.succ_tgt g.m in
  let h = Fnv.int_array_prefix h g.work g.n in
  Fnv.int_array_prefix h g.comm g.n

