(* Allocation-lean coarsening session (DESIGN.md Section 5j).

   Adjacency lives in per-node sorted int arrays (strictly increasing,
   duplicate-free — the array form of the former Int_set.t), so the
   contraction loop touches flat memory instead of churning persistent
   balanced trees. The contraction history is a flat arena: per-record
   metadata in parallel int arrays with a stored count, and the
   pre-contraction adjacency snapshots of the kept node copied into one
   shared data buffer — undo pops by truncation, metrics read the count
   in O(1), and nothing in the session allocates per contraction beyond
   amortised array doubling. *)

type contraction = { kept : int; removed : int }

type members = { mutable arr : int array; mutable len : int }

type t = {
  original : Dag.t;
  (* Sorted dynamic adjacency: segment [adj.(v).(0 .. len.(v) - 1)]. *)
  succ_a : int array array;
  succ_len : int array;
  pred_a : int array array;
  pred_len : int array;
  work : int array;
  comm : int array;
  alive_flag : bool array;
  mutable alive_count : int;
  members : members array;
  owner_of : int array;
  (* Contraction history: [rec_count] records, oldest first. The kept
     node's pre-contraction successor and predecessor segments are
     copied to [hist.(rec_soff.(i) ..)] (succ first, pred after), so a
     record is six ints plus its snapshot span. *)
  mutable rec_count : int;
  mutable rec_kept : int array;
  mutable rec_removed : int array;
  mutable rec_mlen : int array;
  mutable rec_soff : int array;
  mutable rec_slen : int array;
  mutable rec_plen : int array;
  mutable hist : int array;
  mutable hist_len : int;
  (* Per-session scratch for candidate selection and the DFS guard:
     edge endpoints, two order buffers for the stable merge sort, and
     stamp arrays replacing the per-call hashtables. *)
  e_u : int array;
  e_v : int array;
  ord : int array;
  ord_tmp : int array;
  dfs_stamp : int array;
  mutable dfs_gen : int;
}

let members_push m x =
  if m.len = Array.length m.arr then begin
    let arr = Array.make (max 4 (2 * m.len)) 0 in
    Array.blit m.arr 0 arr 0 m.len;
    m.arr <- arr
  end;
  m.arr.(m.len) <- x;
  m.len <- m.len + 1

(* ------------------------------------------------------------------ *)
(* Sorted-segment primitives.                                          *)

(* Position of the first entry >= x (the insertion point). *)
let lower_bound a len x =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let seg_mem a len x =
  let i = lower_bound a len x in
  i < len && a.(i) = x

(* Insert keeping the segment sorted; no-op when already present. *)
let seg_add arrs lens v x =
  let a = arrs.(v) and len = lens.(v) in
  let i = lower_bound a len x in
  if not (i < len && a.(i) = x) then begin
    let a =
      if len = Array.length a then begin
        let bigger = Array.make (max 4 (2 * len)) 0 in
        Array.blit a 0 bigger 0 len;
        arrs.(v) <- bigger;
        bigger
      end
      else a
    in
    Array.blit a i a (i + 1) (len - i);
    a.(i) <- x;
    lens.(v) <- len + 1
  end

(* Remove; no-op when absent. *)
let seg_remove arrs lens v x =
  let a = arrs.(v) and len = lens.(v) in
  let i = lower_bound a len x in
  if i < len && a.(i) = x then begin
    Array.blit a (i + 1) a i (len - i - 1);
    lens.(v) <- len - 1
  end

let start dag =
  let n = Dag.n dag in
  let m0 = Dag.num_edges dag in
  let soff = Dag.succ_offsets dag and stgt = Dag.succ_targets dag in
  let poff = Dag.pred_offsets dag and ptgt = Dag.pred_targets dag in
  {
    original = dag;
    succ_a =
      Array.init n (fun v -> Array.sub stgt soff.(v) (soff.(v + 1) - soff.(v)));
    succ_len = Array.init n (fun v -> soff.(v + 1) - soff.(v));
    pred_a =
      Array.init n (fun v -> Array.sub ptgt poff.(v) (poff.(v + 1) - poff.(v)));
    pred_len = Array.init n (fun v -> poff.(v + 1) - poff.(v));
    work = Array.init n (Dag.work dag);
    comm = Array.init n (Dag.comm dag);
    alive_flag = Array.make n true;
    alive_count = n;
    members = Array.init n (fun v -> { arr = [| v |]; len = 1 });
    owner_of = Array.init n Fun.id;
    rec_count = 0;
    rec_kept = [||];
    rec_removed = [||];
    rec_mlen = [||];
    rec_soff = [||];
    rec_slen = [||];
    rec_plen = [||];
    hist = [||];
    hist_len = 0;
    e_u = Array.make m0 0;
    e_v = Array.make m0 0;
    ord = Array.make m0 0;
    ord_tmp = Array.make m0 0;
    dfs_stamp = Array.make n 0;
    dfs_gen = 0;
  }

let original t = t.original
let num_alive t = t.alive_count
let alive t v = t.alive_flag.(v)
let owner t v = t.owner_of.(v)

let num_contractions t = t.rec_count

let history t =
  List.init t.rec_count (fun i ->
      { kept = t.rec_kept.(i); removed = t.rec_removed.(i) })

(* ------------------------------------------------------------------ *)
(* History arena.                                                      *)

let grow_int_arr a needed =
  if Array.length a >= needed then a
  else begin
    let bigger = Array.make (max 16 (max needed (2 * Array.length a))) 0 in
    Array.blit a 0 bigger 0 (Array.length a);
    bigger
  end

let hist_reserve t extra =
  t.hist <- grow_int_arr t.hist (t.hist_len + extra)

let rec_reserve t =
  let needed = t.rec_count + 1 in
  if Array.length t.rec_kept < needed then begin
    t.rec_kept <- grow_int_arr t.rec_kept needed;
    t.rec_removed <- grow_int_arr t.rec_removed needed;
    t.rec_mlen <- grow_int_arr t.rec_mlen needed;
    t.rec_soff <- grow_int_arr t.rec_soff needed;
    t.rec_slen <- grow_int_arr t.rec_slen needed;
    t.rec_plen <- grow_int_arr t.rec_plen needed
  end

(* Is there a directed path u ~> v besides the edge (u, v) itself? The
   visited set is a generation-stamped array, so repeated queries from
   the candidate loop allocate nothing. *)
let has_alternative_path t u v =
  t.dfs_gen <- t.dfs_gen + 1;
  let gen = t.dfs_gen in
  let rec dfs x ~first =
    let a = t.succ_a.(x) and len = t.succ_len.(x) in
    let i = ref 0 and found = ref false in
    while (not !found) && !i < len do
      let y = a.(!i) in
      if y = v then found := not first
      else if t.dfs_stamp.(y) <> gen then begin
        t.dfs_stamp.(y) <- gen;
        if dfs y ~first:false then found := true
      end;
      incr i
    done;
    !found
  in
  dfs u ~first:true

let contract t u v =
  rec_reserve t;
  let su = t.succ_len.(u) and pu = t.pred_len.(u) in
  hist_reserve t (su + pu);
  let i = t.rec_count in
  t.rec_kept.(i) <- u;
  t.rec_removed.(i) <- v;
  t.rec_mlen.(i) <- t.members.(u).len;
  t.rec_soff.(i) <- t.hist_len;
  t.rec_slen.(i) <- su;
  t.rec_plen.(i) <- pu;
  Array.blit t.succ_a.(u) 0 t.hist t.hist_len su;
  Array.blit t.pred_a.(u) 0 t.hist (t.hist_len + su) pu;
  t.hist_len <- t.hist_len + su + pu;
  t.rec_count <- i + 1;
  t.work.(u) <- t.work.(u) + t.work.(v);
  t.comm.(u) <- t.comm.(u) + t.comm.(v);
  let sv = t.succ_a.(v) in
  for k = 0 to t.succ_len.(v) - 1 do
    let w = sv.(k) in
    if w <> u then begin
      seg_add t.succ_a t.succ_len u w;
      seg_remove t.pred_a t.pred_len w v;
      seg_add t.pred_a t.pred_len w u
    end
  done;
  let pv = t.pred_a.(v) in
  for k = 0 to t.pred_len.(v) - 1 do
    let x = pv.(k) in
    if x <> u then begin
      seg_add t.pred_a t.pred_len u x;
      seg_remove t.succ_a t.succ_len x v;
      seg_add t.succ_a t.succ_len x u
    end
  done;
  seg_remove t.succ_a t.succ_len u v;
  t.alive_flag.(v) <- false;
  t.alive_count <- t.alive_count - 1;
  let mv = t.members.(v) in
  for k = 0 to mv.len - 1 do
    members_push t.members.(u) mv.arr.(k);
    t.owner_of.(mv.arr.(k)) <- u
  done

let undo_last t =
  if t.rec_count = 0 then None
  else begin
    let i = t.rec_count - 1 in
    let u = t.rec_kept.(i) and v = t.rec_removed.(i) in
    let soff = t.rec_soff.(i) and slen = t.rec_slen.(i) and plen = t.rec_plen.(i) in
    (* v's own adjacency segments were never modified, so they still
       describe the finer level. Neighbour segments are rolled back
       using the snapshot of u's adjacency (a sorted span of the arena)
       to decide whether u keeps the edge. *)
    let span_mem off len x =
      let lo = ref 0 and hi = ref len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.hist.(off + mid) < x then lo := mid + 1 else hi := mid
      done;
      !lo < len && t.hist.(off + !lo) = x
    in
    let sv = t.succ_a.(v) in
    for k = 0 to t.succ_len.(v) - 1 do
      let w = sv.(k) in
      if w <> u then begin
        seg_add t.pred_a t.pred_len w v;
        if not (span_mem soff slen w) then seg_remove t.pred_a t.pred_len w u
      end
    done;
    let pv = t.pred_a.(v) in
    for k = 0 to t.pred_len.(v) - 1 do
      let x = pv.(k) in
      if x <> u then begin
        seg_add t.succ_a t.succ_len x v;
        if not (span_mem (soff + slen) plen x) then seg_remove t.succ_a t.succ_len x u
      end
    done;
    (* Restore u's segments from the snapshot (capacity only ever
       grew, so the blit always fits). *)
    Array.blit t.hist soff t.succ_a.(u) 0 slen;
    t.succ_len.(u) <- slen;
    Array.blit t.hist (soff + slen) t.pred_a.(u) 0 plen;
    t.pred_len.(u) <- plen;
    t.work.(u) <- t.work.(u) - t.work.(v);
    t.comm.(u) <- t.comm.(u) - t.comm.(v);
    let mu = t.members.(u) in
    for k = t.rec_mlen.(i) to mu.len - 1 do
      t.owner_of.(mu.arr.(k)) <- v
    done;
    mu.len <- t.rec_mlen.(i);
    t.alive_flag.(v) <- true;
    t.alive_count <- t.alive_count + 1;
    t.hist_len <- soff;
    t.rec_count <- i;
    Some { kept = u; removed = v }
  end

(* ------------------------------------------------------------------ *)
(* Candidate selection.                                                *)

type strategy = Paper_rule

(* Fill the session edge buffers with the current coarse edges in the
   historical candidate order — u ascending, v descending within u
   (the order the list-based implementation produced) — and return the
   count. *)
let collect_edges t =
  let n = Array.length t.alive_flag in
  let k = ref 0 in
  for u = 0 to n - 1 do
    if t.alive_flag.(u) then begin
      let a = t.succ_a.(u) in
      for i = t.succ_len.(u) - 1 downto 0 do
        t.e_u.(!k) <- u;
        t.e_v.(!k) <- a.(i);
        incr k
      done
    end
  done;
  !k

(* Bottom-up merge sort of ord.(lo .. hi - 1), stable, using the
   session's ord_tmp buffer — stability is what lets the array path
   reproduce the List.sort candidate order bit for bit. *)
let stable_sort_range ord tmp lo hi cmp =
  let len = hi - lo in
  if len > 1 then begin
    let width = ref 1 in
    while !width < len do
      let lo2 = ref lo in
      while !lo2 + !width < hi do
        let mid = !lo2 + !width in
        let hi2 = min hi (mid + !width) in
        (* merge ord[lo2, mid) and ord[mid, hi2) *)
        Array.blit ord !lo2 tmp !lo2 (hi2 - !lo2);
        let a = ref !lo2 and b = ref mid and out = ref !lo2 in
        while !a < mid && !b < hi2 do
          if cmp tmp.(!a) tmp.(!b) <= 0 then begin
            ord.(!out) <- tmp.(!a);
            incr a
          end
          else begin
            ord.(!out) <- tmp.(!b);
            incr b
          end;
          incr out
        done;
        while !a < mid do
          ord.(!out) <- tmp.(!a);
          incr a;
          incr out
        done;
        while !b < hi2 do
          ord.(!out) <- tmp.(!b);
          incr b;
          incr out
        done;
        lo2 := hi2
      done;
      width := 2 * !width
    done
  end

(* [strategy] has one value; the argument stays for the benchmark
   mirror (coarsen.mli). *)
let coarsen_to ?strategy:(_ = Paper_rule) t ~target =
  let target = max 1 target in
  let made_progress = ref true in
  while t.alive_count > target && !made_progress do
    made_progress := false;
    let k = collect_edges t in
    if k > 0 then begin
      for i = 0 to k - 1 do
        t.ord.(i) <- i
      done;
      (* Smallest third by combined work weight, largest c(u) first
         within it; the remaining edges serve as fallback in the same
         secondary order. *)
      stable_sort_range t.ord t.ord_tmp 0 k (fun i j ->
          compare
            (t.work.(t.e_u.(i)) + t.work.(t.e_v.(i)))
            (t.work.(t.e_u.(j)) + t.work.(t.e_v.(j))));
      let third = max 1 ((k + 2) / 3) in
      let by_comm lo hi =
        stable_sort_range t.ord t.ord_tmp lo hi (fun i j ->
            compare t.comm.(t.e_u.(j)) t.comm.(t.e_u.(i)))
      in
      by_comm 0 (min third k);
      by_comm (min third k) k;
      for idx = 0 to k - 1 do
        let e = t.ord.(idx) in
        let u = t.e_u.(e) and v = t.e_v.(e) in
        if
          t.alive_count > target
          && t.alive_flag.(u)
          && t.alive_flag.(v)
          && seg_mem t.succ_a.(u) t.succ_len.(u) v
          && not (has_alternative_path t u v)
        then begin
          contract t u v;
          made_progress := true
        end
      done
    end
  done

(* Re-apply a recorded contraction sequence. [coarsen_to] is a
   deterministic function of the session state, and it checks the
   target before every contraction, so a run to a larger target stops
   at a prefix of a run to a smaller one: replaying that prefix
   rebuilds the larger target's level without selecting a single
   edge. *)
let replay t contractions ~target =
  let target = max 1 target in
  let rec go = function
    | { kept; removed } :: rest when t.alive_count > target ->
      let n = Array.length t.alive_flag in
      if
        kept < 0 || kept >= n || removed < 0 || removed >= n
        || (not t.alive_flag.(kept))
        || (not t.alive_flag.(removed))
        || not (seg_mem t.succ_a.(kept) t.succ_len.(kept) removed)
      then invalid_arg "Coarsen.replay: contraction is not an edge of the current level";
      contract t kept removed;
      go rest
    | _ -> ()
  in
  go contractions

let quotient t =
  let n = Array.length t.alive_flag in
  (* Dense renumbering via the session's stamp scratch rather than a
     hashtable or a fresh array: this runs once per refinement level in
     the multilevel inner loop. The renumbering is monotone in the
     original ids, so the sorted adjacency segments stay sorted and the
     quotient CSR can be handed to the DAG without a sort or dedup. *)
  let id_of_rep = t.ord_tmp in
  (* m0 >= n would be needed to reuse ord_tmp; DAGs with fewer edges
     than nodes exist, so fall back to a fresh array there. *)
  let id_of_rep = if Array.length id_of_rep >= n then id_of_rep else Array.make n 0 in
  let count = ref 0 in
  let edges = ref 0 in
  for v = 0 to n - 1 do
    if t.alive_flag.(v) then begin
      id_of_rep.(v) <- !count;
      incr count;
      edges := !edges + t.succ_len.(v)
    end
  done;
  let nq = !count in
  let rep_of_id = Array.make (max nq 1) 0 in
  let work = Array.make (max nq 1) 0 in
  let comm = Array.make (max nq 1) 0 in
  let succ_off = Array.make (nq + 1) 0 in
  let succ_tgt = Array.make (max !edges 1) 0 in
  let w = ref 0 in
  for v = 0 to n - 1 do
    if t.alive_flag.(v) then begin
      let q = id_of_rep.(v) in
      rep_of_id.(q) <- v;
      work.(q) <- t.work.(v);
      comm.(q) <- t.comm.(v);
      succ_off.(q) <- !w;
      let a = t.succ_a.(v) in
      for i = 0 to t.succ_len.(v) - 1 do
        succ_tgt.(!w) <- id_of_rep.(a.(i));
        incr w
      done
    end
  done;
  succ_off.(nq) <- !w;
  let rep_of_id = if nq = Array.length rep_of_id then rep_of_id else Array.sub rep_of_id 0 nq in
  let work = if nq = Array.length work then work else Array.sub work 0 nq in
  let comm = if nq = Array.length comm then comm else Array.sub comm 0 nq in
  let dag = Dag.of_csr_unchecked ~n:nq ~succ_off ~succ_tgt ~work ~comm in
  (dag, rep_of_id)
