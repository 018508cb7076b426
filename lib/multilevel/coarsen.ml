(* Allocation-lean coarsening session (DESIGN.md Section 5j).

   Adjacency lives in per-node sorted int arrays (strictly increasing,
   duplicate-free — the array form of the former Int_set.t), so the
   contraction loop touches flat memory instead of churning persistent
   balanced trees. The contraction history is a flat arena: per-record
   metadata in parallel int arrays with a stored count, and the
   pre-contraction adjacency snapshots of the kept node copied into one
   shared data buffer — undo pops by truncation, metrics read the count
   in O(1), and nothing in the session allocates per contraction beyond
   amortised array doubling.

   Every array is sized for the original DAG and only ever grows: a
   session is pooled per domain and [reset] onto the next DAG in place,
   and the level view is written into session buffers. The session
   also keeps a topological order of the live level ([pos]/[at]),
   which bounds the contractability test and is repaired after every
   contraction [coarsen_to] makes. *)

type contraction = { kept : int; removed : int }

type members = { mutable arr : int array; mutable len : int }

type t = {
  mutable original : Dag.t;
  mutable n : int;
  (* Sorted dynamic adjacency: segment [adj.(v).(0 .. len.(v) - 1)]. *)
  mutable succ_a : int array array;
  mutable succ_len : int array;
  mutable pred_a : int array array;
  mutable pred_len : int array;
  mutable work : int array;
  mutable comm : int array;
  mutable alive_flag : bool array;
  mutable alive_count : int;
  mutable members : members array;
  mutable owner_of : int array;
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
  (* Candidate selection: edge endpoints and two order buffers for the
     stable merge sort (one entry per original edge). *)
  mutable e_u : int array;
  mutable e_v : int array;
  mutable ord : int array;
  mutable ord_tmp : int array;
  (* The live level's topological order: [at.(i)] is the node in slot
     [i] and [pos.(v)] the slot of [v]. Dead nodes keep a slot and no
     edges. Only [coarsen_to] reads and maintains it: each of its
     rounds builds it afresh, and each contraction repairs it. *)
  mutable pos : int array;
  mutable at : int array;
  (* The contractability test and the order repair: generation stamps,
     the forward set (the test's worklist), the backward set and the
     repair's merged slots; [visits] counts the forward set's nodes
     over one [coarsen_to]. *)
  mutable stamp : int array;
  mutable gen : int;
  mutable fwd : int array;
  mutable fwd_len : int;
  mutable bwd : int array;
  mutable slots : int array;
  mutable visits : int;
  (* The level view's buffers and the dense renumbering. *)
  mutable id_of_rep : int array;
  mutable v_rep : int array;
  mutable v_succ_off : int array;
  mutable v_succ_tgt : int array;
  mutable v_pred_off : int array;
  mutable v_pred_tgt : int array;
  mutable v_work : int array;
  mutable v_comm : int array;
  mutable v_topo : int array;
  mutable v_rank : int array;
  mutable v_bits : int array;
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

(* ------------------------------------------------------------------ *)
(* Reset, start and the per-domain pool.                               *)

(* [a] if it holds [len] entries, a fresh zero array otherwise. *)
let at_least a len = if Array.length a >= len then a else Array.make len 0

(* Grow every array to the DAG's [n] nodes and [m] edges; what the
   session already holds beyond that stays. *)
let reserve t ~n ~m =
  let cap = Array.length t.succ_len in
  if cap < n then begin
    let outer fresh old = Array.init n (fun v -> if v < cap then old.(v) else fresh v) in
    t.succ_a <- outer (fun _ -> [||]) t.succ_a;
    t.pred_a <- outer (fun _ -> [||]) t.pred_a;
    t.members <- outer (fun v -> { arr = [| v |]; len = 1 }) t.members;
    t.alive_flag <- Array.make n false;
    t.succ_len <- Array.make n 0;
    t.pred_len <- Array.make n 0;
    t.work <- Array.make n 0;
    t.comm <- Array.make n 0;
    t.owner_of <- Array.make n 0;
    t.pos <- Array.make n 0;
    t.at <- Array.make n 0;
    t.stamp <- Array.make n 0;
    t.fwd <- Array.make n 0;
    t.bwd <- Array.make n 0;
    t.slots <- Array.make n 0;
    t.id_of_rep <- Array.make n 0;
    t.v_rep <- Array.make n 0;
    t.v_succ_off <- Array.make (n + 1) 0;
    t.v_pred_off <- Array.make (n + 1) 0;
    t.v_work <- Array.make n 0;
    t.v_comm <- Array.make n 0;
    t.v_topo <- Array.make n 0;
    t.v_rank <- Array.make n 0;
    t.v_bits <- Array.make (Dag.bits_length n) 0
  end;
  t.e_u <- at_least t.e_u m;
  t.e_v <- at_least t.e_v m;
  t.ord <- at_least t.ord m;
  t.ord_tmp <- at_least t.ord_tmp m;
  t.v_succ_tgt <- at_least t.v_succ_tgt m;
  t.v_pred_tgt <- at_least t.v_pred_tgt m

(* Copy a CSR segment into a per-node array, growing it if needed. *)
let load_segment arrs lens v tgt lo hi =
  let d = hi - lo in
  if Array.length arrs.(v) < d then arrs.(v) <- Array.make d 0;
  Array.blit tgt lo arrs.(v) 0 d;
  lens.(v) <- d

let reset t dag =
  let n = Dag.n dag in
  reserve t ~n ~m:(Dag.num_edges dag);
  t.original <- dag;
  t.n <- n;
  let soff = Dag.succ_offsets dag and stgt = Dag.succ_targets dag in
  let poff = Dag.pred_offsets dag and ptgt = Dag.pred_targets dag in
  for v = 0 to n - 1 do
    load_segment t.succ_a t.succ_len v stgt soff.(v) soff.(v + 1);
    load_segment t.pred_a t.pred_len v ptgt poff.(v) poff.(v + 1);
    t.work.(v) <- Dag.work dag v;
    t.comm.(v) <- Dag.comm dag v;
    t.alive_flag.(v) <- true;
    let mv = t.members.(v) in
    mv.arr.(0) <- v;
    mv.len <- 1;
    t.owner_of.(v) <- v
  done;
  t.alive_count <- n;
  t.rec_count <- 0;
  t.hist_len <- 0

let start dag =
  let t =
    {
      original = dag;
      n = 0;
      succ_a = [||];
      succ_len = [||];
      pred_a = [||];
      pred_len = [||];
      work = [||];
      comm = [||];
      alive_flag = [||];
      alive_count = 0;
      members = [||];
      owner_of = [||];
      rec_count = 0;
      rec_kept = [||];
      rec_removed = [||];
      rec_mlen = [||];
      rec_soff = [||];
      rec_slen = [||];
      rec_plen = [||];
      hist = [||];
      hist_len = 0;
      e_u = [||];
      e_v = [||];
      ord = [||];
      ord_tmp = [||];
      pos = [||];
      at = [||];
      stamp = [||];
      gen = 0;
      fwd = [||];
      fwd_len = 0;
      bwd = [||];
      slots = [||];
      visits = 0;
      id_of_rep = [||];
      v_rep = [||];
      v_succ_off = [| 0 |];
      v_succ_tgt = [||];
      v_pred_off = [| 0 |];
      v_pred_tgt = [||];
      v_work = [||];
      v_comm = [||];
      v_topo = [||];
      v_rank = [||];
      v_bits = [||];
    }
  in
  reset t dag;
  t

(* Sessions released on this domain, as [Assignment_state] pools its
   states (Domain.DLS, so no synchronisation). One suffices: the
   multilevel driver holds one session at a time per domain. *)
let pool_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let max_pooled = 1

let take dag =
  let pool = Domain.DLS.get pool_key in
  match !pool with
  | [] -> start dag
  | t :: rest ->
    pool := rest;
    reset t dag;
    t

let release t =
  let pool = Domain.DLS.get pool_key in
  if List.length !pool < max_pooled then pool := t :: !pool

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

(* Is there a directed path u ~> v besides the edge (u, v) itself? Every
   node on such a path lies strictly between u and v in the live
   order, so the search never leaves that window. It is a worklist
   loop over [fwd], stamping each node as it is pushed; when it fails,
   [fwd] holds exactly the descendants of u ordered before v, which is
   the forward set of the order repair. *)
let has_alternative_path t u v =
  t.gen <- t.gen + 1;
  let gen = t.gen and limit = t.pos.(v) in
  let pos = t.pos and stamp = t.stamp and fwd = t.fwd in
  let len = ref 0 and found = ref false in
  let a = t.succ_a.(u) in
  for i = 0 to t.succ_len.(u) - 1 do
    let y = a.(i) in
    if pos.(y) < limit then begin
      stamp.(y) <- gen;
      fwd.(!len) <- y;
      incr len
    end
  done;
  let head = ref 0 in
  while (not !found) && !head < !len do
    let x = fwd.(!head) in
    incr head;
    let a = t.succ_a.(x) in
    let i = ref 0 and stop = t.succ_len.(x) in
    while (not !found) && !i < stop do
      let y = a.(!i) in
      if y = v then found := true
      else if pos.(y) < limit && stamp.(y) <> gen then begin
        stamp.(y) <- gen;
        fwd.(!len) <- y;
        incr len
      end;
      incr i
    done
  done;
  t.fwd_len <- !len;
  t.visits <- t.visits + !len;
  !found

(* In-place sort of a.(lo .. hi), ascending: quicksort with a
   median-of-three pivot down to insertion sort on short runs. *)
let rec sort_range (a : int array) lo hi =
  if hi - lo > 12 then begin
    let mid = (lo + hi) / 2 in
    let p =
      let x = a.(lo) and y = a.(mid) and z = a.(hi) in
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do
        incr i
      done;
      while a.(!j) > p do
        decr j
      done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    sort_range a lo !j;
    sort_range a !i hi
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

(* Repair the order for the contraction of (u, v), before it happens,
   right after [has_alternative_path t u v] returned false, so that
   [fwd] holds F, the descendants of u ordered before v. The repair is
   Pearce and Kelly's (ACM JEA 11, 2006) for the edges the contraction
   adds. B is the ancestors of v ordered after u. The contracted node
   either keeps u's slot, and then the edges from v's predecessors
   into it are the new ones: B and the part of F ordered before B's
   last node have to move. Or it takes v's slot (v, now dead, takes
   u's), and then the edges from it to u's successors before v are the
   new ones: F and the part of B ordered after F's first node have to
   move. Either way the moved sets and the contracted node take their
   pooled slots in the order B, u, F, each set in its old relative
   order, so B only moves earlier and F only later. No edge runs from
   F to B (that would be a second u ~> v path), so every edge of the
   contracted level goes forward. The repair moves the fewer nodes;
   with F empty it only swaps two slots, with B empty nothing. *)
let repair_order t u v =
  let pos = t.pos and at = t.at in
  let floor = pos.(u) and ceil = pos.(v) in
  let fwd = t.fwd and nf = t.fwd_len in
  if nf = 0 then begin
    at.(floor) <- v;
    pos.(v) <- floor;
    at.(ceil) <- u;
    pos.(u) <- ceil
  end
  else begin
    t.gen <- t.gen + 1;
    let gen = t.gen and stamp = t.stamp and bwd = t.bwd in
    let nb = ref 0 and last_b = ref floor in
    let push x =
      let p = pos.(x) in
      if p > floor && stamp.(x) <> gen then begin
        stamp.(x) <- gen;
        bwd.(!nb) <- x;
        incr nb;
        if p > !last_b then last_b := p
      end
    in
    let a = t.pred_a.(v) in
    for i = 0 to t.pred_len.(v) - 1 do
      push a.(i)
    done;
    let head = ref 0 in
    while !head < !nb do
      let x = bwd.(!head) in
      incr head;
      let a = t.pred_a.(x) in
      for i = 0 to t.pred_len.(x) - 1 do
        push a.(i)
      done
    done;
    let nb = !nb and last_b = !last_b in
    if nb > 0 then begin
      let first_f = ref ceil and f_early = ref 0 in
      for i = 0 to nf - 1 do
        let p = pos.(fwd.(i)) in
        fwd.(i) <- p;
        if p < !first_f then first_f := p;
        if p < last_b then incr f_early
      done;
      let first_f = !first_f and b_late = ref 0 in
      for i = 0 to nb - 1 do
        let p = pos.(bwd.(i)) in
        bwd.(i) <- p;
        if p > first_f then incr b_late
      done;
      (* [bwd] and [fwd] now hold slots; keep those that move. *)
      let keep_u = nb + !f_early <= nf + !b_late in
      let nb, nf =
        if keep_u then begin
          let k = ref 0 in
          for i = 0 to nf - 1 do
            if fwd.(i) < last_b then begin
              fwd.(!k) <- fwd.(i);
              incr k
            end
          done;
          (nb, !k)
        end
        else begin
          let k = ref 0 in
          for i = 0 to nb - 1 do
            if bwd.(i) > first_f then begin
              bwd.(!k) <- bwd.(i);
              incr k
            end
          done;
          at.(floor) <- v;
          pos.(v) <- floor;
          (!k, nf)
        end
      in
      sort_range bwd 0 (nb - 1);
      sort_range fwd 0 (nf - 1);
      (* All pooled slots in order: the contracted node's first when it
         keeps u's slot, last when it takes v's. *)
      let slots = t.slots in
      let lo = if keep_u then 1 else 0 in
      let i = ref 0 and j = ref 0 in
      for k = lo to lo + nb + nf - 1 do
        if !j >= nf || (!i < nb && bwd.(!i) < fwd.(!j)) then begin
          slots.(k) <- bwd.(!i);
          incr i
        end
        else begin
          slots.(k) <- fwd.(!j);
          incr j
        end
      done;
      if keep_u then slots.(0) <- floor else slots.(nb + nf) <- ceil;
      (* Back from slots to nodes while [at] still holds the old order. *)
      for i = 0 to nb - 1 do
        bwd.(i) <- at.(bwd.(i))
      done;
      for i = 0 to nf - 1 do
        fwd.(i) <- at.(fwd.(i))
      done;
      for k = 0 to nb - 1 do
        let x = bwd.(k) in
        at.(slots.(k)) <- x;
        pos.(x) <- slots.(k)
      done;
      at.(slots.(nb)) <- u;
      pos.(u) <- slots.(nb);
      for k = 0 to nf - 1 do
        let x = fwd.(k) and s = slots.(nb + 1 + k) in
        at.(s) <- x;
        pos.(x) <- s
      done
    end
  end

(* A topological order of the live level from scratch (Kahn, FIFO),
   dead nodes after it. [coarsen_to] builds one at the start of each
   round and again after every [refresh_period] contractions: the
   repairs keep an order valid, but a fresh one keeps the windows far
   narrower (on exp-4k, 105k test visits against 310k with one order
   per round), and each costs O(n + m). [bwd] holds the remaining
   in-degrees and [fwd] the queue. *)
let rebuild_order t =
  let indeg = t.bwd and queue = t.fwd in
  let len = ref 0 in
  for v = 0 to t.n - 1 do
    if t.alive_flag.(v) then begin
      indeg.(v) <- t.pred_len.(v);
      if indeg.(v) = 0 then begin
        queue.(!len) <- v;
        incr len
      end
    end
  done;
  let head = ref 0 in
  while !head < !len do
    let x = queue.(!head) in
    t.at.(!head) <- x;
    t.pos.(x) <- !head;
    incr head;
    let a = t.succ_a.(x) in
    for i = 0 to t.succ_len.(x) - 1 do
      let y = a.(i) in
      indeg.(y) <- indeg.(y) - 1;
      if indeg.(y) = 0 then begin
        queue.(!len) <- y;
        incr len
      end
    done
  done;
  let k = ref !len in
  for v = 0 to t.n - 1 do
    if not t.alive_flag.(v) then begin
      t.at.(!k) <- v;
      t.pos.(v) <- !k;
      incr k
    end
  done

(* Contractions between two rebuilds: at most 64 rebuilds per round,
   whatever the DAG's size. *)
let refresh_period t = max 64 (t.n / 64)

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
  let n = t.n in
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
  t.visits <- 0;
  let refresh = refresh_period t and since = ref 0 in
  let made_progress = ref true in
  while t.alive_count > target && !made_progress do
    made_progress := false;
    rebuild_order t;
    since := 0;
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
          repair_order t u v;
          contract t u v;
          made_progress := true;
          incr since;
          if !since = refresh then begin
            rebuild_order t;
            since := 0
          end
        end
      done
    end
  done;
  Obs.Metrics.counter "coarsen.dfs_visits" t.visits

(* Re-apply a recorded contraction sequence. [coarsen_to] is a
   deterministic function of the session state, and it checks the
   target before every contraction, so a run to a larger target stops
   at a prefix of a run to a smaller one: replaying that prefix
   rebuilds the larger target's level without selecting a single
   edge. *)
let rec replay_from t target = function
  | { kept; removed } :: rest when t.alive_count > target ->
    let n = t.n in
    if
      kept < 0 || kept >= n || removed < 0 || removed >= n
      || (not t.alive_flag.(kept))
      || (not t.alive_flag.(removed))
      || not (seg_mem t.succ_a.(kept) t.succ_len.(kept) removed)
    then invalid_arg "Coarsen.replay: contraction is not an edge of the current level";
    contract t kept removed;
    replay_from t target rest
  | _ -> ()

let replay t contractions ~target = replay_from t (max 1 target) contractions

(* Dense ids for the live nodes, in [id_of_rep]; returns their count.
   The renumbering is monotone in the original ids, so the sorted
   adjacency segments stay sorted and a level's CSR needs no sort or
   dedup. *)
let renumber t =
  let count = ref 0 in
  for v = 0 to t.n - 1 do
    if t.alive_flag.(v) then begin
      t.id_of_rep.(v) <- !count;
      incr count
    end
  done;
  !count

(* Write the level renumbered by [renumber] into the given arrays. *)
let fill_level t ~nq ~rep_of_id ~work ~comm ~succ_off ~succ_tgt =
  let w = ref 0 in
  for v = 0 to t.n - 1 do
    if t.alive_flag.(v) then begin
      let q = t.id_of_rep.(v) in
      rep_of_id.(q) <- v;
      work.(q) <- t.work.(v);
      comm.(q) <- t.comm.(v);
      succ_off.(q) <- !w;
      let a = t.succ_a.(v) in
      for i = 0 to t.succ_len.(v) - 1 do
        succ_tgt.(!w) <- t.id_of_rep.(a.(i));
        incr w
      done
    end
  done;
  succ_off.(nq) <- !w

let quotient t =
  let nq = renumber t in
  let edges = ref 0 in
  for v = 0 to t.n - 1 do
    if t.alive_flag.(v) then edges := !edges + t.succ_len.(v)
  done;
  let rep_of_id = Array.make nq 0 and work = Array.make nq 0 and comm = Array.make nq 0 in
  let succ_off = Array.make (nq + 1) 0 and succ_tgt = Array.make !edges 0 in
  fill_level t ~nq ~rep_of_id ~work ~comm ~succ_off ~succ_tgt;
  (Dag.of_csr_unchecked ~n:nq ~succ_off ~succ_tgt ~work ~comm, rep_of_id)

(* A coarse edge is the image of at least one original edge, so every
   level fits the buffers [reserve] sized for the original DAG. *)
let view t =
  let nq = renumber t in
  fill_level t ~nq ~rep_of_id:t.v_rep ~work:t.v_work ~comm:t.v_comm ~succ_off:t.v_succ_off
    ~succ_tgt:t.v_succ_tgt;
  ( Dag.of_csr_buffers ~n:nq ~succ_off:t.v_succ_off ~succ_tgt:t.v_succ_tgt ~work:t.v_work
      ~comm:t.v_comm ~pred_off:t.v_pred_off ~pred_tgt:t.v_pred_tgt ~topo:t.v_topo
      ~rank:t.v_rank ~bits:t.v_bits,
    t.v_rep )

let check_order t =
  for x = 0 to t.n - 1 do
    if t.at.(t.pos.(x)) <> x then failwith "Coarsen: order slots disagree";
    if t.alive_flag.(x) then
      for i = 0 to t.succ_len.(x) - 1 do
        if t.pos.(t.succ_a.(x).(i)) <= t.pos.(x) then
          failwith "Coarsen: order is not topological"
      done
  done
