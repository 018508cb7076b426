type t = {
  dag : Dag.t;
  (* Aliases of the DAG's CSR adjacency arrays, so every hot loop
     below walks offsets/targets directly. *)
  soff : int array;
  stgt : int array;
  poff : int array;
  ptgt : int array;
  machine_ : Machine.t;
  p : int;
  num_steps_ : int;
  proc_ : int array;
  step_ : int array;
  table : Cost_table.t;
  (* Aliases of the cost table's backing arrays (stable for the table's
     lifetime), so the hot evaluation loops read them without a
     cross-module accessor call. *)
  work_m : int array array;
  send_m : int array array;
  recv_m : int array array;
  cost_c : int array;
  wmax_c : int array;
  hmax_c : int array;
  (* first_need.(u * p + q): earliest superstep in which processor q
     needs the value of u (min step over successors of u assigned to q);
     max_int when q has no successor of u. Entries exist for every q
     including proc.(u); only q <> proc.(u) induce lazy communication
     events, pinned to phase first_need - 1. *)
  first_need : int array;
  (* fn_count.(u * p + q): how many successors of u on q attain
     first_need. Lets a move decide in O(1) whether removing one
     successor changes the minimum; a successor-list rescan happens only
     when the unique minimiser leaves, which keeps rejected candidate
     moves free of successor scans. 0 when first_need = max_int. *)
  fn_count : int array;
  (* ev_cnt.(u): how many processors have first_need <> no_need, i.e.
     the number of entries the producer-side loop of delta_cost must
     visit; lets it skip event-free nodes and stop at the last entry. *)
  ev_cnt : int array;
  (* Replication state (DESIGN.md §5g). placed_.(v * p + q): some
     placement — primary or replica — of v sits on processor q.
     reps_.(v): the extra replica processors of v, sorted ascending;
     every replica shares the primary's superstep, which is what keeps
     first_need/fn_count meaningful per placement (all placements of a
     node attain the same step). rep_total counts replicas across nodes
     and gates every replica branch, so the replica-free fast path pays
     one integer compare at most; rep_nodes remembers nodes that ever
     held a replica so release can restore the pooled all-false/all-[]
     invariant in O(n + replicas). *)
  placed_ : bool array;
  reps_ : int list array;
  mutable rep_total : int;
  mutable rep_nodes : int list;
  (* Read-only delta-evaluation scratch: candidate adjustments to the
     cost-table cells, indexed [step * p + proc], zero outside the cells
     recorded in touched_cells (kept duplicate-free via cell_mark).
     touched_steps (deduplicated via step_touched) survives until the
     next delta so the worklist can ask which supersteps an accepted
     move disturbed. *)
  d_work : int array;
  d_send : int array;
  d_recv : int array;
  cell_mark : bool array;
  mutable touched_cells : int array;
  mutable touched_cells_len : int;
  touched_steps : int array;
  mutable touched_steps_len : int;
  step_touched : bool array;
  (* Row-evaluation scratch ({!delta_cost_row}): first_need-without-v of
     each predecessor towards p1 (indexed by position in the pred list),
     and undo logs so the per-target-processor addition overlays can be
     retracted from the shared removal base. *)
  pred_without : int array;
  mutable undo_cell : int array;
  mutable undo_kind : int array;
  mutable undo_amt : int array;
  mutable undo_len : int;
  (* Per-row hoisted data, filled once with the removal base and read by
     every column: the producer's live events (destination and phase)
     and each predecessor's processor, comm weight, first_need row
     offset, and lambda row. row_node identifies the node whose base is
     resident in the scratch (-1 when stale); the base is invalidated by
     any other evaluation or mutation but survives across the up-to-3
     superstep rows of one node (it does not depend on s2). *)
  ev_q : int array;
  ev_ph : int array;
  pred_src : int array;
  pred_comm : int array;
  pred_fn_base : int array;
  pred_lam : int array array;
  mutable row_node : int;
  mutable row_base_delta : int;
  mutable row_cnt : int;
  mutable row_wv : int;
  mutable row_cv : int;
  mutable row_npred : int;
  (* Per-step maxima/cost of the removal base (valid where base_mark),
     and the per-column combination scratch: col_wm/col_hm start from
     the base (or cached) maxima and absorb the column's addition cells
     as they are accumulated; col_neg forces a full rescan of a step
     that saw a negative adjustment (only pred-event retractions). *)
  base_mark : bool array;
  base_wm : int array;
  base_hm : int array;
  base_cost : int array;
  col_mark : bool array;
  col_steps : int array;
  mutable col_steps_len : int;
  col_wm : int array;
  col_hm : int array;
  col_neg : bool array;
}

let no_need = max_int

let machine t = t.machine_
let num_steps t = t.num_steps_
let proc t v = t.proc_.(v)
let step t v = t.step_.(v)
let total_cost t = Cost_table.total t.table

let recompute_first_need st u =
  let base = u * st.p in
  for q = 0 to st.p - 1 do
    st.first_need.(base + q) <- no_need;
    st.fn_count.(base + q) <- 0
  done;
  (* Every placement of a successor is a consumer: the primary on
     proc_.(v) and each replica on its own processor, all at step_.(v). *)
  let consume idx s =
    if s < st.first_need.(idx) then begin
      st.first_need.(idx) <- s;
      st.fn_count.(idx) <- 1
    end
    else if s = st.first_need.(idx) then st.fn_count.(idx) <- st.fn_count.(idx) + 1
  in
  for i = st.soff.(u) to st.soff.(u + 1) - 1 do
    let v = Array.unsafe_get st.stgt i in
    let s = st.step_.(v) in
    consume (base + st.proc_.(v)) s;
    if st.rep_total > 0 then
      List.iter (fun r -> consume (base + r) s) st.reps_.(v)
  done;
  let cnt = ref 0 in
  for q = 0 to st.p - 1 do
    if st.first_need.(base + q) <> no_need then incr cnt
  done;
  st.ev_cnt.(u) <- !cnt

(* Recompute first_need/fn_count of u towards q alone, from the current
   assignment (used when the unique minimiser moved away). *)
let rescan_fn st u q =
  let idx = (u * st.p) + q in
  let old_fn = st.first_need.(idx) in
  let m = ref no_need and c = ref 0 in
  for i = st.soff.(u) to st.soff.(u + 1) - 1 do
    let w = Array.unsafe_get st.stgt i in
    if st.proc_.(w) = q then begin
      let s = st.step_.(w) in
      if s < !m then begin
        m := s;
        c := 1
      end
      else if s = !m then incr c
    end
  done;
  st.first_need.(idx) <- !m;
  st.fn_count.(idx) <- !c;
  if old_fn = no_need && !m <> no_need then st.ev_cnt.(u) <- st.ev_cnt.(u) + 1
  else if old_fn <> no_need && !m = no_need then st.ev_cnt.(u) <- st.ev_cnt.(u) - 1

(* Add (sign = +1) or remove (sign = -1) the lazy communication event of
   producer u towards destination q, if any. *)
let source_comm_one st u q sign =
  let src = st.proc_.(u) in
  if q <> src then begin
    let fn = st.first_need.((u * st.p) + q) in
    if fn <> no_need then begin
      let vol = sign * Dag.comm st.dag u * Machine.lambda st.machine_ src q in
      Cost_table.add_send st.table ~step:(fn - 1) ~proc:src vol;
      Cost_table.add_recv st.table ~step:(fn - 1) ~proc:q vol
    end
  end

let source_comm_all st u sign =
  for q = 0 to st.p - 1 do
    source_comm_one st u q sign
  done

(* ------------------------------------------------------------------ *)
(* Replication-aware bookkeeping (DESIGN.md Section 5g). With
   rep_total = 0 these coincide exactly with the plain helpers above;
   the single-node move path keeps the plain versions (moves are
   rejected once replicas exist), while [init] and the replication
   moves route through these. *)

(* Nearest placement of u to destination q by lambda: the primary, then
   the replicas in ascending processor order, improving on strictly
   shorter distance only — a deterministic tie-break that favours the
   primary and then the lowest replica processor. *)
let nearest_src st u q =
  let src = ref st.proc_.(u) in
  if st.rep_total > 0 then begin
    let lam = st.machine_.Machine.lambda in
    let best = ref lam.(!src).(q) in
    List.iter
      (fun r ->
        let d = lam.(r).(q) in
        if d < !best then begin
          best := d;
          src := r
        end)
      st.reps_.(u)
  end;
  !src

(* [nearest_src] as if the placement of u on [excl] did not exist —
   i.e. the source after that replica is dropped (the scan order and
   tie-break are unchanged, so this is exact). The primary is never
   excluded. *)
let nearest_src_without st u q ~excl =
  let lam = st.machine_.Machine.lambda in
  let src = ref st.proc_.(u) in
  let best = ref lam.(!src).(q) in
  List.iter
    (fun r ->
      if r <> excl then begin
        let d = lam.(r).(q) in
        if d < !best then begin
          best := d;
          src := r
        end
      end)
    st.reps_.(u);
  !src

(* Source of u's event towards q once a replica of u lands on [cand]:
   the candidate takes over on a strictly shorter lambda, or on a tie
   that [nearest_src]'s scan order (primary first, then ascending
   replica processors) resolves in its favour. Exactness here is what
   keeps delta_cost_replicate equal to the applied cost change. *)
let src_with_replica st u ~cand q ~cur =
  let lam = st.machine_.Machine.lambda in
  let dc = lam.(cand).(q) and dcur = lam.(cur).(q) in
  if dc < dcur || (dc = dcur && cur <> st.proc_.(u) && cand < cur) then cand
  else cur

(* Add/remove the lazy event of producer u towards q in the replicated
   model: an event exists iff no placement of u sits on q and some
   consumer placement there needs the value, and it ships from the
   nearest placement. *)
let source_comm_one_r st u q sign =
  if not st.placed_.((u * st.p) + q) then begin
    let fn = st.first_need.((u * st.p) + q) in
    if fn <> no_need then begin
      let src = nearest_src st u q in
      let vol = sign * Dag.comm st.dag u * Machine.lambda st.machine_ src q in
      Cost_table.add_send st.table ~step:(fn - 1) ~proc:src vol;
      Cost_table.add_recv st.table ~step:(fn - 1) ~proc:q vol
    end
  end

let source_comm_all_r st u sign =
  for q = 0 to st.p - 1 do
    source_comm_one_r st u q sign
  done

(* Placement-aware [rescan_fn]: a successor consumes on q when any of
   its placements sits there. *)
let rescan_fn_r st u q =
  let idx = (u * st.p) + q in
  let old_fn = st.first_need.(idx) in
  let m = ref no_need and c = ref 0 in
  for i = st.soff.(u) to st.soff.(u + 1) - 1 do
    let w = Array.unsafe_get st.stgt i in
    if st.placed_.((w * st.p) + q) then begin
      let s = st.step_.(w) in
      if s < !m then begin
        m := s;
        c := 1
      end
      else if s = !m then incr c
    end
  done;
  st.first_need.(idx) <- !m;
  st.fn_count.(idx) <- !c;
  if old_fn = no_need && !m <> no_need then st.ev_cnt.(u) <- st.ev_cnt.(u) + 1
  else if old_fn <> no_need && !m = no_need then st.ev_cnt.(u) <- st.ev_cnt.(u) - 1

(* ------------------------------------------------------------------ *)
(* Per-domain scratch pooling (DESIGN.md Section 5f).

   [init] allocates ~25 scratch arrays plus the cost-table matrices;
   the multilevel refinement loop and the pipeline's candidate fan-out
   create one state per candidate, which at jobs > 1 turns into minor-
   heap churn on every domain and cross-domain stop-the-world minor
   collections. Released states are parked on a small per-domain stack
   (Domain.DLS — never shared, so no synchronisation) and [init] reuses
   any backing array that is big enough for the new instance.

   Invariant for pooled arrays: the delta/overlay scratch (d_work,
   d_send, d_recv, cell_mark, step_touched, base_mark, col_mark) is
   entirely zero/false and the replication arrays are all-false
   (placed_) / all-[] (reps_) — [release] restores this, and freshly
   allocated arrays start that way. All other reused arrays
   are fully overwritten before being read. *)

let pool_key : t list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let max_pooled = 4

let take_pooled () =
  let pool = Domain.DLS.get pool_key in
  match !pool with
  | [] -> None
  | st :: rest ->
    pool := rest;
    Some st

let max_in_degree dag =
  let m = ref 1 in
  for v = 0 to Dag.n dag - 1 do
    let d = Dag.in_degree dag v in
    if d > !m then m := d
  done;
  !m

(* The one constructor of the state record, shared by [init] and
   [prewarm]. Every backing array is [pooled]'s when its capacity
   suffices and freshly allocated otherwise; the strides in every index
   computation come from the new [p] and [num_steps] fields, so
   oversized arrays are safe. Fresh arrays and a fresh cost table start
   zero/false/[], which is the pooled-array invariant. *)
let build ?pooled machine dag ~num_steps ~max_in ~proc ~step =
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let gi get len =
    match pooled with
    | Some o when Array.length (get o) >= len -> get o
    | _ -> Array.make (max len 1) 0
  in
  let gb get len =
    match pooled with
    | Some o when Array.length (get o) >= len -> get o
    | _ -> Array.make (max len 1) false
  in
  let gl get len =
    match pooled with
    | Some o when Array.length (get o) >= len -> get o
    | _ -> Array.make (max len 1) ([] : int list)
  in
  let table =
    match pooled with
    | Some o -> Cost_table.recycle o.table machine ~num_steps
    | None -> Cost_table.create machine ~num_steps
  in
  let np = n * p in
  let sp = num_steps * p in
  let steps1 = max num_steps 1 in
  {
    dag;
    soff = Dag.succ_offsets dag;
    stgt = Dag.succ_targets dag;
    poff = Dag.pred_offsets dag;
    ptgt = Dag.pred_targets dag;
    machine_ = machine;
    p;
    num_steps_ = num_steps;
    proc_ = proc;
    step_ = step;
    table;
    work_m = Cost_table.work_matrix table;
    send_m = Cost_table.send_matrix table;
    recv_m = Cost_table.recv_matrix table;
    cost_c = Cost_table.step_costs table;
    wmax_c = Cost_table.work_max table;
    hmax_c = Cost_table.comm_max table;
    first_need = gi (fun o -> o.first_need) np;
    fn_count = gi (fun o -> o.fn_count) np;
    ev_cnt = gi (fun o -> o.ev_cnt) n;
    placed_ = gb (fun o -> o.placed_) np;
    reps_ = gl (fun o -> o.reps_) n;
    rep_total = 0;
    rep_nodes = [];
    d_work = gi (fun o -> o.d_work) sp;
    d_send = gi (fun o -> o.d_send) sp;
    d_recv = gi (fun o -> o.d_recv) sp;
    cell_mark = gb (fun o -> o.cell_mark) sp;
    touched_cells = gi (fun o -> o.touched_cells) 64;
    touched_cells_len = 0;
    touched_steps = gi (fun o -> o.touched_steps) steps1;
    touched_steps_len = 0;
    step_touched = gb (fun o -> o.step_touched) steps1;
    pred_without = gi (fun o -> o.pred_without) max_in;
    undo_cell = gi (fun o -> o.undo_cell) 16;
    undo_kind = gi (fun o -> o.undo_kind) 16;
    undo_amt = gi (fun o -> o.undo_amt) 16;
    undo_len = 0;
    ev_q = gi (fun o -> o.ev_q) p;
    ev_ph = gi (fun o -> o.ev_ph) p;
    pred_src = gi (fun o -> o.pred_src) max_in;
    pred_comm = gi (fun o -> o.pred_comm) max_in;
    pred_fn_base = gi (fun o -> o.pred_fn_base) max_in;
    pred_lam =
      (match pooled with
      | Some o when Array.length o.pred_lam >= max_in -> o.pred_lam
      | _ -> Array.make max_in [||]);
    row_node = -1;
    row_base_delta = 0;
    row_cnt = 0;
    row_wv = 0;
    row_cv = 0;
    row_npred = 0;
    base_mark = gb (fun o -> o.base_mark) steps1;
    base_wm = gi (fun o -> o.base_wm) steps1;
    base_hm = gi (fun o -> o.base_hm) steps1;
    base_cost = gi (fun o -> o.base_cost) steps1;
    col_mark = gb (fun o -> o.col_mark) steps1;
    col_steps = gi (fun o -> o.col_steps) steps1;
    col_steps_len = 0;
    col_wm = gi (fun o -> o.col_wm) steps1;
    col_hm = gi (fun o -> o.col_hm) steps1;
    col_neg = gb (fun o -> o.col_neg) steps1;
  }

let init machine (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let st =
    build ?pooled:(take_pooled ()) machine dag
      ~num_steps:(Schedule.num_supersteps sched) ~max_in:(max_in_degree dag)
      (* Exact length: [snapshot] hands these to consumers that check
         the length against the DAG. *)
      ~proc:(Array.copy sched.Schedule.proc) ~step:(Array.copy sched.Schedule.step)
  in
  for v = 0 to n - 1 do
    st.placed_.((v * p) + st.proc_.(v)) <- true
  done;
  (* Replicas (if any) share their node's superstep — the move deltas
     and the first_need bookkeeping rely on every placement of a node
     attaining the same step. [Hc] only produces such schedules; reject
     anything else loudly. *)
  if Schedule.has_replicas sched then
    for v = 0 to n - 1 do
      let acc = ref [] in
      Schedule.iter_replicas sched v (fun q s ->
          if s <> st.step_.(v) then
            invalid_arg
              "Assignment_state.init: replicas must share their node's superstep";
          st.placed_.((v * p) + q) <- true;
          st.rep_total <- st.rep_total + 1;
          acc := q :: !acc);
      if !acc <> [] then begin
        (* iter_replicas runs in ascending processor order *)
        st.reps_.(v) <- List.rev !acc;
        st.rep_nodes <- v :: st.rep_nodes
      end
    done;
  for v = 0 to n - 1 do
    let wv = Dag.work dag v in
    Cost_table.add_work st.table ~step:st.step_.(v) ~proc:st.proc_.(v) wv;
    if st.rep_total > 0 then
      List.iter
        (fun q -> Cost_table.add_work st.table ~step:st.step_.(v) ~proc:q wv)
        st.reps_.(v)
  done;
  for u = 0 to n - 1 do
    recompute_first_need st u;
    source_comm_all_r st u 1
  done;
  Cost_table.refresh st.table;
  st

(* Park a state with max-capacity backing arrays so subsequent [init]s
   at this size or below run allocation-free. The multilevel driver
   calls this once per ratio before its uncoarsening loop: level sizes
   grow monotonically towards the finest DAG, so without the prewarm
   every level's [init] finds the pooled arrays one level too small and
   reallocates the n- and (n*p)-sized ones each time. *)
let prewarm machine dag ~num_steps =
  let pool = Domain.DLS.get pool_key in
  let p = machine.Machine.p in
  let np = Dag.n dag * p in
  let sp = num_steps * p in
  let steps1 = max num_steps 1 in
  let max_in = max_in_degree dag in
  let big_enough (o : t) =
    Array.length o.first_need >= np
    && Array.length o.d_work >= sp
    && Array.length o.base_wm >= steps1
    && Array.length o.pred_src >= max_in
    && Cost_table.num_steps o.table >= num_steps
  in
  if List.length !pool < max_pooled && not (List.exists big_enough !pool) then
    pool := build machine dag ~num_steps ~max_in ~proc:[||] ~step:[||] :: !pool

let valid_move st v p2 s2 =
  s2 >= 0 && s2 < st.num_steps_
  &&
  let ok = ref true in
  let i = ref st.poff.(v) and stop = st.poff.(v + 1) in
  while !ok && !i < stop do
    let u = Array.unsafe_get st.ptgt !i in
    if st.proc_.(u) = p2 then begin
      if st.step_.(u) > s2 then ok := false
    end
    else if st.step_.(u) >= s2 then ok := false;
    incr i
  done;
  let j = ref st.soff.(v) and stop = st.soff.(v + 1) in
  while !ok && !j < stop do
    let w = Array.unsafe_get st.stgt !j in
    if st.proc_.(w) = p2 then begin
      if st.step_.(w) < s2 then ok := false
    end
    else if st.step_.(w) <= s2 then ok := false;
    incr j
  done;
  !ok

(* The whole neighbourhood of one node shares its validity structure:
   a candidate (p2, s2) is valid iff s2 clears the latest predecessor
   (strictly, unless every latest predecessor sits on p2) and stays
   below the earliest successor (strictly, unless every earliest
   successor sits on p2). Summarising the four quantities once per node
   makes the per-candidate check O(1) instead of a pred/succ scan. *)
let move_window st v =
  let last_pred = ref (-1) and last_pred_proc = ref (-1) in
  for i = st.poff.(v) to st.poff.(v + 1) - 1 do
    let u = Array.unsafe_get st.ptgt i in
    let s = st.step_.(u) in
    if s > !last_pred then begin
      last_pred := s;
      last_pred_proc := st.proc_.(u)
    end
    else if s = !last_pred && st.proc_.(u) <> !last_pred_proc then last_pred_proc := -1
  done;
  let first_succ = ref st.num_steps_ and first_succ_proc = ref (-1) in
  for i = st.soff.(v) to st.soff.(v + 1) - 1 do
    let w = Array.unsafe_get st.stgt i in
    let s = st.step_.(w) in
    if s < !first_succ then begin
      first_succ := s;
      first_succ_proc := st.proc_.(w)
    end
    else if s = !first_succ && st.proc_.(w) <> !first_succ_proc then
      first_succ_proc := -1
  done;
  (!last_pred, !last_pred_proc, !first_succ, !first_succ_proc)

(* ------------------------------------------------------------------ *)
(* Read-only delta evaluation.                                         *)

let reset_scratch st =
  for k = 0 to st.touched_cells_len - 1 do
    let i = Array.unsafe_get st.touched_cells k in
    Array.unsafe_set st.d_work i 0;
    Array.unsafe_set st.d_send i 0;
    Array.unsafe_set st.d_recv i 0;
    Array.unsafe_set st.cell_mark i false
  done;
  st.touched_cells_len <- 0;
  for k = 0 to st.touched_steps_len - 1 do
    let s = Array.unsafe_get st.touched_steps k in
    Array.unsafe_set st.step_touched s false;
    (* The touched steps are exactly the resident row base's steps, so
       this also retires its per-step maxima (see delta_cost_row). *)
    Array.unsafe_set st.base_mark s false
  done;
  st.touched_steps_len <- 0;
  st.row_node <- -1

(* The accumulation helpers below run a dozen times per costed
   candidate, so their indexing is unsafe. Invariant: every (s, q)
   passed in satisfies 0 <= s < num_steps and 0 <= q < p — work cells
   come from the current/candidate assignment, and event phases are
   fn - 1 with fn >= 1 because a cross-processor consumer always sits in
   superstep >= 1 of a valid assignment. The scratch arrays have length
   num_steps * p, touched_steps/step_touched length num_steps (dedup
   bounds the append position). Only touched_cells can grow, and its
   append stays checked by the growth test. *)

(* Duplicate-free so reset_scratch clears each cell exactly once. *)
let push_cell st i =
  if not (Array.unsafe_get st.cell_mark i) then begin
    Array.unsafe_set st.cell_mark i true;
    if st.touched_cells_len = Array.length st.touched_cells then begin
      let bigger = Array.make (2 * st.touched_cells_len) 0 in
      Array.blit st.touched_cells 0 bigger 0 st.touched_cells_len;
      st.touched_cells <- bigger
    end;
    Array.unsafe_set st.touched_cells st.touched_cells_len i;
    st.touched_cells_len <- st.touched_cells_len + 1
  end

let touch_step st s =
  if not (Array.unsafe_get st.step_touched s) then begin
    Array.unsafe_set st.step_touched s true;
    Array.unsafe_set st.touched_steps st.touched_steps_len s;
    st.touched_steps_len <- st.touched_steps_len + 1
  end

let acc_work st s q d =
  let i = (s * st.p) + q in
  Array.unsafe_set st.d_work i (Array.unsafe_get st.d_work i + d);
  push_cell st i;
  touch_step st s

let acc_send st s q vol =
  let i = (s * st.p) + q in
  Array.unsafe_set st.d_send i (Array.unsafe_get st.d_send i + vol);
  push_cell st i;
  touch_step st s

let acc_recv st s q vol =
  let i = (s * st.p) + q in
  Array.unsafe_set st.d_recv i (Array.unsafe_get st.d_recv i + vol);
  push_cell st i;
  touch_step st s

let acc_comm st s ~src ~dst vol =
  acc_send st s src vol;
  acc_recv st s dst vol

(* Cost change of exactly the touched supersteps under the current
   scratch overlay. This loop dominates a rejected candidate's cost, so
   the indexing is unsafe: every touched step is in [0, num_steps) (it
   came from a work cell or an event phase of a valid assignment), the
   matrix rows have length p, and the scratch arrays have length
   num_steps * p. *)
let cost_of_touched st =
  let work_m = st.work_m in
  let send_m = st.send_m in
  let recv_m = st.recv_m in
  let cached = st.cost_c in
  let g = st.machine_.Machine.g and l = st.machine_.Machine.l in
  let delta = ref 0 in
  let work_max = ref 0 and comm_max = ref 0 in
  for k = 0 to st.touched_steps_len - 1 do
    let s = Array.unsafe_get st.touched_steps k in
    let off = s * st.p in
    let work_row = Array.unsafe_get work_m s in
    let send_row = Array.unsafe_get send_m s in
    let recv_row = Array.unsafe_get recv_m s in
    work_max := 0;
    comm_max := 0;
    for q = 0 to st.p - 1 do
      let w = Array.unsafe_get work_row q + Array.unsafe_get st.d_work (off + q) in
      if w > !work_max then work_max := w;
      let snd = Array.unsafe_get send_row q + Array.unsafe_get st.d_send (off + q) in
      let rcv = Array.unsafe_get recv_row q + Array.unsafe_get st.d_recv (off + q) in
      let h = if snd > rcv then snd else rcv in
      if h > !comm_max then comm_max := h
    done;
    (* inlined Bsp_cost.superstep_cost *)
    delta := !delta + !work_max + (g * !comm_max) + l - Array.unsafe_get cached s
  done;
  !delta

(* first_need(u, q) after the candidate reassignment of v (a successor
   of u) to (p2, s2), computed without mutating. The fn_count trick
   avoids the successor scan unless v is the unique minimiser on q. *)
let fn_after st u q v p2 s2 =
  let idx = (u * st.p) + q in
  let old_fn = st.first_need.(idx) in
  let without_v =
    if st.proc_.(v) <> q then old_fn
    else if st.step_.(v) > old_fn then old_fn
    else if st.fn_count.(idx) > 1 then old_fn
    else begin
      let m = ref no_need in
      for i = st.soff.(u) to st.soff.(u + 1) - 1 do
        let w = Array.unsafe_get st.stgt i in
        if w <> v && st.proc_.(w) = q && st.step_.(w) < !m then m := st.step_.(w)
      done;
      !m
    end
  in
  if p2 = q && s2 < without_v then s2 else without_v

(* Single-node moves reason about exactly one placement per node, so
   they are rejected once replicas exist; the replication phase runs
   after move convergence (DESIGN.md Section 5g) and never interleaves
   with moves. *)
let no_replicas st name =
  if st.rep_total > 0 then
    invalid_arg
      ("Assignment_state." ^ name
     ^ ": single-node moves are unavailable once the state holds replicas")

let delta_cost st v p2 s2 =
  no_replicas st "delta_cost";
  let p1 = st.proc_.(v) and s1 = st.step_.(v) in
  if p1 = p2 && s1 = s2 then 0
  else begin
    reset_scratch st;
    let wv = Dag.work st.dag v in
    acc_work st s1 p1 (-wv);
    acc_work st s2 p2 wv;
    (* Producer side of v: destinations and volumes depend on proc.(v);
       the first_need row of v itself is unaffected by the move. A pure
       superstep move (p2 = p1) leaves every producer event in place.
       For third-party destinations both the old and new event land in
       the same receive cell, so accumulate their net volume once. *)
    (if p2 <> p1 then
       let cnt = st.ev_cnt.(v) in
       if cnt > 0 then begin
         let cv = Dag.comm st.dag v in
         let lam1 = st.machine_.Machine.lambda.(p1) in
         let lam2 = st.machine_.Machine.lambda.(p2) in
         let base = v * st.p in
         (* ev_cnt bounds the live entries: stop after the last one
            instead of always scanning all p destinations. *)
         let seen = ref 0 in
         let q = ref 0 in
         while !seen < cnt do
           let fn = Array.unsafe_get st.first_need (base + !q) in
           if fn <> no_need then begin
             incr seen;
             let s = fn - 1 in
             if !q = p1 then
               (* previously local to v, now needs an event p2 -> p1 *)
               acc_comm st s ~src:p2 ~dst:p1 (cv * lam2.(!q))
             else if !q = p2 then
               (* the old event p1 -> p2 disappears (v becomes local) *)
               acc_comm st s ~src:p1 ~dst:p2 (-(cv * lam1.(!q)))
             else begin
               let vol1 = cv * lam1.(!q) and vol2 = cv * lam2.(!q) in
               acc_send st s p1 (-vol1);
               acc_send st s p2 vol2;
               if vol1 <> vol2 then acc_recv st s !q (vol2 - vol1)
             end
           end;
           incr q
         done
       end);
    (* Predecessors: only their events towards p1 and p2 can change.
       Explicit loops (rather than Array.iter with a local helper) keep
       this allocation-free — it runs for every costed candidate. A
       proc-change move decomposes into a pure removal on the p1 side
       (the minimum moves only when v is its unique attainer) and a pure
       addition on the p2 side (the minimum moves only when s2 beats
       it), both O(1) outside the rare unique-attainer rescan; only the
       same-processor superstep move needs the generic {!fn_after}. *)
    for k = st.poff.(v) to st.poff.(v + 1) - 1 do
      let u = Array.unsafe_get st.ptgt k in
      let src = st.proc_.(u) in
      if p2 = p1 then begin
        if p1 <> src then begin
          let old_fn = st.first_need.((u * st.p) + p1) in
          let new_fn = fn_after st u p1 v p2 s2 in
          if old_fn <> new_fn then begin
            let vol = Dag.comm st.dag u * st.machine_.Machine.lambda.(src).(p1) in
            if old_fn <> no_need then acc_comm st (old_fn - 1) ~src ~dst:p1 (-vol);
            if new_fn <> no_need then acc_comm st (new_fn - 1) ~src ~dst:p1 vol
          end
        end
      end
      else begin
        (if p1 <> src then
           let idx = (u * st.p) + p1 in
           let old_fn = Array.unsafe_get st.first_need idx in
           (* v is a successor of u on p1, so old_fn <= s1 < no_need. *)
           if s1 = old_fn && Array.unsafe_get st.fn_count idx = 1 then begin
             let m = ref no_need in
             for i = st.soff.(u) to st.soff.(u + 1) - 1 do
               let w = Array.unsafe_get st.stgt i in
               if w <> v && st.proc_.(w) = p1 && st.step_.(w) < !m then
                 m := st.step_.(w)
             done;
             if !m <> old_fn then begin
               let vol = Dag.comm st.dag u * st.machine_.Machine.lambda.(src).(p1) in
               acc_comm st (old_fn - 1) ~src ~dst:p1 (-vol);
               if !m <> no_need then acc_comm st (!m - 1) ~src ~dst:p1 vol
             end
           end);
        if p2 <> src then begin
          let old_fn = Array.unsafe_get st.first_need ((u * st.p) + p2) in
          if s2 < old_fn then begin
            let vol = Dag.comm st.dag u * st.machine_.Machine.lambda.(src).(p2) in
            if old_fn <> no_need then acc_comm st (old_fn - 1) ~src ~dst:p2 (-vol);
            (* a valid candidate puts cross-processor preds strictly
               before s2, so s2 >= 1 here *)
            acc_comm st (s2 - 1) ~src ~dst:p2 vol
          end
        end
      end
    done;
    cost_of_touched st
  end

(* ------------------------------------------------------------------ *)
(* Row evaluation: every target processor of one superstep at once.    *)

let push_undo st i kind amt =
  if st.undo_len = Array.length st.undo_cell then begin
    let grow a =
      let b = Array.make (2 * st.undo_len) 0 in
      Array.blit a 0 b 0 st.undo_len;
      b
    in
    st.undo_cell <- grow st.undo_cell;
    st.undo_kind <- grow st.undo_kind;
    st.undo_amt <- grow st.undo_amt
  end;
  Array.unsafe_set st.undo_cell st.undo_len i;
  Array.unsafe_set st.undo_kind st.undo_len kind;
  Array.unsafe_set st.undo_amt st.undo_len amt;
  st.undo_len <- st.undo_len + 1

(* Mark superstep s as modified by the current column and seed its
   running maxima: from the base scan when the removal base touched it,
   from the cost table's cached maxima otherwise. *)
let col_touch st s =
  if not (Array.unsafe_get st.col_mark s) then begin
    Array.unsafe_set st.col_mark s true;
    Array.unsafe_set st.col_steps st.col_steps_len s;
    st.col_steps_len <- st.col_steps_len + 1;
    if Array.unsafe_get st.base_mark s then begin
      Array.unsafe_set st.col_wm s (Array.unsafe_get st.base_wm s);
      Array.unsafe_set st.col_hm s (Array.unsafe_get st.base_hm s)
    end
    else begin
      Array.unsafe_set st.col_wm s (Array.unsafe_get st.wmax_c s);
      Array.unsafe_set st.col_hm s (Array.unsafe_get st.hmax_c s)
    end;
    Array.unsafe_set st.col_neg s false
  end

(* The column accumulators bypass the touched-cell bookkeeping entirely:
   the undo log alone restores the overlay, and the per-step maxima are
   maintained on the fly. A non-negative amount can only raise a cell
   above the base, so the running maximum absorbs the cell's new value;
   a negative amount (a pred-event retraction) flags the step for a full
   rescan at costing time. Duplicate cell updates within one column are
   monotone, so processing intermediate values is harmless. *)
let acc_work_u st s q d =
  let i = (s * st.p) + q in
  Array.unsafe_set st.d_work i (Array.unsafe_get st.d_work i + d);
  push_undo st i 0 d;
  col_touch st s;
  if d < 0 then Array.unsafe_set st.col_neg s true
  else begin
    let w = Array.unsafe_get (Array.unsafe_get st.work_m s) q + Array.unsafe_get st.d_work i in
    if w > Array.unsafe_get st.col_wm s then Array.unsafe_set st.col_wm s w
  end

let acc_send_u st s q vol =
  let i = (s * st.p) + q in
  Array.unsafe_set st.d_send i (Array.unsafe_get st.d_send i + vol);
  push_undo st i 1 vol;
  col_touch st s;
  if vol < 0 then Array.unsafe_set st.col_neg s true
  else begin
    let snd = Array.unsafe_get (Array.unsafe_get st.send_m s) q + Array.unsafe_get st.d_send i in
    if snd > Array.unsafe_get st.col_hm s then Array.unsafe_set st.col_hm s snd
  end

let acc_recv_u st s q vol =
  let i = (s * st.p) + q in
  Array.unsafe_set st.d_recv i (Array.unsafe_get st.d_recv i + vol);
  push_undo st i 2 vol;
  col_touch st s;
  if vol < 0 then Array.unsafe_set st.col_neg s true
  else begin
    let rcv = Array.unsafe_get (Array.unsafe_get st.recv_m s) q + Array.unsafe_get st.d_recv i in
    if rcv > Array.unsafe_get st.col_hm s then Array.unsafe_set st.col_hm s rcv
  end

let acc_comm_u st s ~src ~dst vol =
  acc_send_u st s src vol;
  acc_recv_u st s dst vol

(* Retract the logged additions; cells and steps stay in the touched
   lists with zero adjustments, which only costs the occasional stale
   step rescan within the same row. *)
let undo_additions st =
  for j = st.undo_len - 1 downto 0 do
    let i = Array.unsafe_get st.undo_cell j in
    let amt = Array.unsafe_get st.undo_amt j in
    match Array.unsafe_get st.undo_kind j with
    | 0 -> Array.unsafe_set st.d_work i (Array.unsafe_get st.d_work i - amt)
    | 1 -> Array.unsafe_set st.d_send i (Array.unsafe_get st.d_send i - amt)
    | _ -> Array.unsafe_set st.d_recv i (Array.unsafe_get st.d_recv i - amt)
  done;
  st.undo_len <- 0

(* Work and h-relation maxima of one superstep under the current
   scratch overlay (same unsafe-indexing invariant as
   {!cost_of_touched}). *)
let overlay_step_maxima st s =
  let off = s * st.p in
  let work_row = Array.unsafe_get st.work_m s in
  let send_row = Array.unsafe_get st.send_m s in
  let recv_row = Array.unsafe_get st.recv_m s in
  let wm = ref 0 and hm = ref 0 in
  for q = 0 to st.p - 1 do
    let w = Array.unsafe_get work_row q + Array.unsafe_get st.d_work (off + q) in
    if w > !wm then wm := w;
    let snd = Array.unsafe_get send_row q + Array.unsafe_get st.d_send (off + q) in
    let rcv = Array.unsafe_get recv_row q + Array.unsafe_get st.d_recv (off + q) in
    let h = if snd > rcv then snd else rcv in
    if h > !hm then hm := h
  done;
  (!wm, !hm)

(* Deltas of a whole candidate row — v to (p2, s2) for every p2 — as
   one shared removal base (v leaves (p1, s1): its work cell, its
   producer events, its predecessors' events towards p1) plus a per-p2
   addition overlay retracted through the undo log. The removal side is
   what a pairwise evaluation would recompute p times over. The caller
   must have established that every (p2, s2) in the row is a valid
   move; out.(p1) is 0 when s2 = s1 (the identity is not a move).

   Columns are costed incrementally: the base supersteps are scanned
   once for their maxima and cost, and each column then only combines
   its own addition cells against the base (or cached) maxima via the
   undo log. Addition amounts are non-negative except the retraction of
   a predecessor's pre-existing event, so a modified cell can only raise
   the step maxima — steps that saw a negative amount are flagged and
   rescanned in full. *)
let build_row_base st v =
  let p1 = st.proc_.(v) and s1 = st.step_.(v) in
  reset_scratch st;
  st.undo_len <- 0;
  let wv = Dag.work st.dag v in
  let cv = Dag.comm st.dag v in
  let base = v * st.p in
  let lam1 = st.machine_.Machine.lambda.(p1) in
  acc_work st s1 p1 (-wv);
  let cnt = st.ev_cnt.(v) in
  (* The producer's live events, recorded (destination, phase) for the
     columns while their removal is accumulated. *)
  (if cnt > 0 then begin
     let seen = ref 0 in
     let q = ref 0 in
     while !seen < cnt do
       let fn = Array.unsafe_get st.first_need (base + !q) in
       if fn <> no_need then begin
         Array.unsafe_set st.ev_q !seen !q;
         Array.unsafe_set st.ev_ph !seen (fn - 1);
         incr seen;
         if !q <> p1 then acc_comm st (fn - 1) ~src:p1 ~dst:!q (-(cv * lam1.(!q)))
       end;
       incr q
     done
   end);
  let pbase = st.poff.(v) in
  let npred = st.poff.(v + 1) - pbase in
  for k = 0 to npred - 1 do
    let u = Array.unsafe_get st.ptgt (pbase + k) in
    let src = st.proc_.(u) in
    st.pred_src.(k) <- src;
    st.pred_comm.(k) <- Dag.comm st.dag u;
    st.pred_fn_base.(k) <- u * st.p;
    st.pred_lam.(k) <- st.machine_.Machine.lambda.(src);
    st.pred_without.(k) <-
      (* first_need of u towards p1 once v has left; no_need when p1 is
         u's own processor (no event either way — the addition loop
         skips that case). *)
      (if p1 = src then no_need
       else begin
         let idx = (u * st.p) + p1 in
         let old_fn = Array.unsafe_get st.first_need idx in
         if s1 = old_fn && Array.unsafe_get st.fn_count idx = 1 then begin
           let m = ref no_need in
           for i = st.soff.(u) to st.soff.(u + 1) - 1 do
             let w = Array.unsafe_get st.stgt i in
             if w <> v && st.proc_.(w) = p1 && st.step_.(w) < !m then
               m := st.step_.(w)
           done;
           if !m <> old_fn then begin
             let vol = Dag.comm st.dag u * st.machine_.Machine.lambda.(src).(p1) in
             acc_comm st (old_fn - 1) ~src ~dst:p1 (-vol);
             if !m <> no_need then acc_comm st (!m - 1) ~src ~dst:p1 vol
           end;
           !m
         end
         else old_fn
       end)
  done;
  (* Maxima and cost of the base supersteps under the removal overlay,
     and the cost change the base alone contributes. The touched lists
     hold exactly the base cells/steps until the next evaluation: the
     column accumulators bypass them, so the base (and its marks, which
     the next reset_scratch retires) stays resident across all superstep
     rows of v. *)
  let g = st.machine_.Machine.g and l = st.machine_.Machine.l in
  let base_delta = ref 0 in
  for k = 0 to st.touched_steps_len - 1 do
    let s = Array.unsafe_get st.touched_steps k in
    let wm, hm = overlay_step_maxima st s in
    let c = wm + (g * hm) + l in
    Array.unsafe_set st.base_mark s true;
    Array.unsafe_set st.base_wm s wm;
    Array.unsafe_set st.base_hm s hm;
    Array.unsafe_set st.base_cost s c;
    base_delta := !base_delta + c - Array.unsafe_get st.cost_c s
  done;
  st.row_node <- v;
  st.row_base_delta <- !base_delta;
  st.row_cnt <- cnt;
  st.row_wv <- wv;
  st.row_cv <- cv;
  st.row_npred <- npred

(* One addition column against the resident removal base of v: v lands
   on (p2, s2), with p1 its current processor. Leaves col_steps_len at 0
   and the scratch back at the base overlay. *)
let eval_column st ~p1 ~p2 ~s2 =
  let cnt = st.row_cnt and wv = st.row_wv and cv = st.row_cv in
  let npred = st.row_npred in
  let g = st.machine_.Machine.g and l = st.machine_.Machine.l in
  let cached = st.cost_c in
  acc_work_u st s2 p2 wv;
  (if cnt > 0 then begin
     let lam2 = st.machine_.Machine.lambda.(p2) in
     for j = 0 to cnt - 1 do
       let q = Array.unsafe_get st.ev_q j in
       if q <> p2 then
         acc_comm_u st (Array.unsafe_get st.ev_ph j) ~src:p2 ~dst:q
           (cv * Array.unsafe_get lam2 q)
     done
   end);
  for k = 0 to npred - 1 do
    let src = Array.unsafe_get st.pred_src k in
    if p2 <> src then begin
      let without =
        if p2 = p1 then Array.unsafe_get st.pred_without k
        else Array.unsafe_get st.first_need (Array.unsafe_get st.pred_fn_base k + p2)
      in
      if s2 < without then begin
        let vol =
          Array.unsafe_get st.pred_comm k
          * Array.unsafe_get (Array.unsafe_get st.pred_lam k) p2
        in
        if without <> no_need then acc_comm_u st (without - 1) ~src ~dst:p2 (-vol);
        (* a valid candidate puts cross-processor preds strictly
           before s2, so s2 >= 1 here *)
        acc_comm_u st (s2 - 1) ~src ~dst:p2 vol
      end
    end
  done;
  (* The accumulators above maintained the per-step running maxima; sum
     each modified step's new cost against its base (or cached) cost,
     rescanning in full only the steps flagged negative. *)
  let delta = ref st.row_base_delta in
  for k = 0 to st.col_steps_len - 1 do
    let s = Array.unsafe_get st.col_steps k in
    Array.unsafe_set st.col_mark s false;
    let before =
      if Array.unsafe_get st.base_mark s then Array.unsafe_get st.base_cost s
      else Array.unsafe_get cached s
    in
    if Array.unsafe_get st.col_neg s then begin
      let wm, hm = overlay_step_maxima st s in
      delta := !delta + wm + (g * hm) + l - before
    end
    else
      delta :=
        !delta
        + Array.unsafe_get st.col_wm s
        + (g * Array.unsafe_get st.col_hm s)
        + l - before
  done;
  st.col_steps_len <- 0;
  undo_additions st;
  !delta

let delta_cost_row st v ~s2 out =
  no_replicas st "delta_cost_row";
  if st.row_node <> v then build_row_base st v;
  let p1 = st.proc_.(v) and s1 = st.step_.(v) in
  for p2 = 0 to st.p - 1 do
    if p2 = p1 && s2 = s1 then out.(p2) <- 0
    else out.(p2) <- eval_column st ~p1 ~p2 ~s2
  done

(* Pairwise evaluation through the same machinery: reuses the resident
   removal base of v when one is live, which makes isolated candidates
   (the boundary supersteps of a node's validity window) share the base
   built for its full rows. *)
let delta_cost_cached st v p2 s2 =
  no_replicas st "delta_cost_cached";
  let p1 = st.proc_.(v) and s1 = st.step_.(v) in
  if p1 = p2 && s1 = s2 then 0
  else begin
    if st.row_node <> v then build_row_base st v;
    eval_column st ~p1 ~p2 ~s2
  end

let iter_last_touched_steps st f =
  for k = 0 to st.touched_steps_len - 1 do
    f st.touched_steps.(k)
  done

(* ------------------------------------------------------------------ *)
(* Mutation.                                                           *)

(* Incremental first_need/fn_count update of u towards q when v (a
   successor of u) moves from (p1, s1) to (p2, s2); proc_/step_ of v
   must already hold the new values. Falls back to a successor rescan
   only when the unique minimiser left q. *)
let update_fn st u q ~p1 ~s1 ~p2 ~s2 =
  let idx = (u * st.p) + q in
  let old_fn = st.first_need.(idx) in
  let removed = q = p1 and added = q = p2 in
  if removed && added then begin
    (* v stays on q, moving s1 -> s2 (old_fn <= s1 by definition). *)
    if s2 < old_fn then begin
      st.first_need.(idx) <- s2;
      st.fn_count.(idx) <- 1
    end
    else if s2 = old_fn then begin
      if s1 <> old_fn then st.fn_count.(idx) <- st.fn_count.(idx) + 1
    end
    else if s1 = old_fn then begin
      if st.fn_count.(idx) > 1 then st.fn_count.(idx) <- st.fn_count.(idx) - 1
      else rescan_fn st u q
    end
  end
  else if removed then begin
    if s1 = old_fn then begin
      if st.fn_count.(idx) > 1 then st.fn_count.(idx) <- st.fn_count.(idx) - 1
      else rescan_fn st u q
    end
  end
  else if added then begin
    if s2 < old_fn then begin
      (* old_fn = no_need means q had no event from u before this move. *)
      if old_fn = no_need then st.ev_cnt.(u) <- st.ev_cnt.(u) + 1;
      st.first_need.(idx) <- s2;
      st.fn_count.(idx) <- 1
    end
    else if s2 = old_fn then st.fn_count.(idx) <- st.fn_count.(idx) + 1
  end

(* Apply the move unconditionally (the caller compares delta_cost and
   only applies accepted moves; the state remains a pure function of the
   assignment, so any move can still be undone by its inverse). *)
let apply_move st v p2 s2 =
  no_replicas st "apply_move";
  st.row_node <- -1;
  let p1 = st.proc_.(v) and s1 = st.step_.(v) in
  (* Producer side of v itself: destinations and volumes depend on
     proc.(v), so retract everything and re-add after the update. The
     first_need entries of v do not change (its successors stay put). *)
  source_comm_all st v (-1);
  (* Predecessors: only their events towards p1 and p2 can change. *)
  for i = st.poff.(v) to st.poff.(v + 1) - 1 do
    let u = Array.unsafe_get st.ptgt i in
    source_comm_one st u p1 (-1);
    if p2 <> p1 then source_comm_one st u p2 (-1)
  done;
  Cost_table.add_work st.table ~step:s1 ~proc:p1 (-Dag.work st.dag v);
  Cost_table.add_work st.table ~step:s2 ~proc:p2 (Dag.work st.dag v);
  st.proc_.(v) <- p2;
  st.step_.(v) <- s2;
  st.placed_.((v * st.p) + p1) <- false;
  st.placed_.((v * st.p) + p2) <- true;
  for i = st.poff.(v) to st.poff.(v + 1) - 1 do
    let u = Array.unsafe_get st.ptgt i in
    update_fn st u p1 ~p1 ~s1 ~p2 ~s2;
    if p2 <> p1 then update_fn st u p2 ~p1 ~s1 ~p2 ~s2;
    source_comm_one st u p1 1;
    if p2 <> p1 then source_comm_one st u p2 1
  done;
  source_comm_all st v 1;
  Cost_table.refresh st.table

(* ------------------------------------------------------------------ *)
(* Replication moves (DESIGN.md Section 5g). A replica of v on q runs
   in v's own superstep on the extra processor: it duplicates v's work
   there, turns v local to q's consumers, and must receive every
   predecessor input q does not already hold. *)

let num_replicas_total st = st.rep_total
let node_replicas st v = st.reps_.(v)

(* Live event traffic of one producer: the destinations it currently
   ships to and each event's weighted volume. This is the per-event
   granularity of the profiler's traffic matrix, and it is how the
   search seeds replication candidates — replicating u onto a
   destination it feeds removes that event outright. *)
let iter_event_destinations st u f =
  let base = u * st.p in
  for q = 0 to st.p - 1 do
    if st.first_need.(base + q) <> no_need && not st.placed_.(base + q) then
      f q (Dag.comm st.dag u * Machine.lambda st.machine_ (nearest_src st u q) q)
  done

(* A replica of v may land on q iff nothing of v sits there yet and
   every predecessor input is available: computed on q itself (any
   placement), or computed strictly earlier so a lazy event can deliver
   it by phase step(v) - 1. *)
let valid_replicate st v q =
  q >= 0 && q < st.p
  && not st.placed_.((v * st.p) + q)
  &&
  let s = st.step_.(v) in
  let ok = ref true in
  let i = ref st.poff.(v) and stop = st.poff.(v + 1) in
  while !ok && !i < stop do
    let u = Array.unsafe_get st.ptgt !i in
    if not (st.placed_.((u * st.p) + q) || st.step_.(u) < s) then ok := false;
    incr i
  done;
  !ok

(* A replica of v on q may be dropped iff q does not consume v in v's
   own superstep: the replacement event lands at phase fn - 1 >= step(v)
   and is therefore deliverable from any remaining placement. *)
let valid_drop_replica st v q =
  List.mem q st.reps_.(v)
  &&
  let fn = st.first_need.((v * st.p) + q) in
  fn = no_need || fn > st.step_.(v)

(* Cost change of placing a replica of v on q; requires valid_replicate.
   Three effects: v's work is duplicated in (step v, q); v's producer
   events reroute — the event towards q disappears (q computes v
   itself) and any destination for which q becomes the nearest
   placement switches source; and every predecessor not placed on q
   must feed the replica, possibly earlier than its current first need
   there. Uses the shared delta scratch, so it invalidates any resident
   row base and must not interleave with row evaluations. *)
let delta_cost_replicate st v q =
  reset_scratch st;
  st.row_node <- -1;
  let s = st.step_.(v) in
  let cv = Dag.comm st.dag v in
  let lam = st.machine_.Machine.lambda in
  let base = v * st.p in
  acc_work st s q (Dag.work st.dag v);
  for r = 0 to st.p - 1 do
    let fn = Array.unsafe_get st.first_need (base + r) in
    if fn <> no_need && not st.placed_.(base + r) then begin
      let cur = nearest_src st v r in
      if r = q then acc_comm st (fn - 1) ~src:cur ~dst:q (-(cv * lam.(cur).(q)))
      else if src_with_replica st v ~cand:q r ~cur <> cur then begin
        acc_comm st (fn - 1) ~src:cur ~dst:r (-(cv * lam.(cur).(r)));
        acc_comm st (fn - 1) ~src:q ~dst:r (cv * lam.(q).(r))
      end
    end
  done;
  for k = st.poff.(v) to st.poff.(v + 1) - 1 do
    let u = Array.unsafe_get st.ptgt k in
    if not st.placed_.((u * st.p) + q) then begin
      let old_fn = Array.unsafe_get st.first_need ((u * st.p) + q) in
      if s < old_fn then begin
        let src = nearest_src st u q in
        let vol = Dag.comm st.dag u * lam.(src).(q) in
        if old_fn <> no_need then acc_comm st (old_fn - 1) ~src ~dst:q (-vol);
        (* valid_replicate guarantees step(u) < s for predecessors not
           placed on q, so s >= 1 here *)
        acc_comm st (s - 1) ~src ~dst:q vol
      end
    end
  done;
  cost_of_touched st

(* Cost change of dropping the replica of v on q; requires
   valid_drop_replica. Mirror image of delta_cost_replicate: q
   re-acquires an event for its (strictly later) consumers of v,
   destinations fed from q reroute to the next-nearest placement, and
   predecessor events pinned to the replica's consumption may move
   later or vanish. *)
let delta_cost_drop_replica st v q =
  reset_scratch st;
  st.row_node <- -1;
  let s = st.step_.(v) in
  let cv = Dag.comm st.dag v in
  let lam = st.machine_.Machine.lambda in
  let base = v * st.p in
  acc_work st s q (-(Dag.work st.dag v));
  for r = 0 to st.p - 1 do
    let fn = Array.unsafe_get st.first_need (base + r) in
    if fn <> no_need then begin
      if r = q then begin
        let src = nearest_src_without st v q ~excl:q in
        acc_comm st (fn - 1) ~src ~dst:q (cv * lam.(src).(q))
      end
      else if not st.placed_.(base + r) then begin
        let cur = nearest_src st v r in
        if cur = q then begin
          let src = nearest_src_without st v r ~excl:q in
          acc_comm st (fn - 1) ~src:q ~dst:r (-(cv * lam.(q).(r)));
          acc_comm st (fn - 1) ~src ~dst:r (cv * lam.(src).(r))
        end
      end
    end
  done;
  for k = st.poff.(v) to st.poff.(v + 1) - 1 do
    let u = Array.unsafe_get st.ptgt k in
    if not st.placed_.((u * st.p) + q) then begin
      let idx = (u * st.p) + q in
      let old_fn = Array.unsafe_get st.first_need idx in
      (* the replica consumes u at step s, so old_fn <= s; the event
         moves only when the replica was the unique attainer *)
      if s = old_fn && Array.unsafe_get st.fn_count idx = 1 then begin
        let m = ref no_need in
        for i = st.soff.(u) to st.soff.(u + 1) - 1 do
          let w = Array.unsafe_get st.stgt i in
          if w <> v && st.placed_.((w * st.p) + q) && st.step_.(w) < !m then
            m := st.step_.(w)
        done;
        if !m <> old_fn then begin
          let src = nearest_src st u q in
          let vol = Dag.comm st.dag u * lam.(src).(q) in
          acc_comm st (old_fn - 1) ~src ~dst:q (-vol);
          if !m <> no_need then acc_comm st (!m - 1) ~src ~dst:q vol
        end
      end
    end
  done;
  cost_of_touched st

let rec insert_sorted q = function
  | [] -> [ q ]
  | r :: rest as l -> if q < r then q :: l else r :: insert_sorted q rest

(* Apply the replication unconditionally (same contract as apply_move:
   the state stays a pure function of the placement multi-assignment).
   Events are retracted against the pre-move state, the placement and
   first_need bookkeeping updated, and the events re-added against the
   post-move state; only v's own events and the predecessors' events
   towards q can change, everything else is untouched. *)
let apply_replicate st v q =
  st.row_node <- -1;
  let s = st.step_.(v) in
  source_comm_all_r st v (-1);
  let pbase = st.poff.(v) and pstop = st.poff.(v + 1) in
  for i = pbase to pstop - 1 do
    source_comm_one_r st (Array.unsafe_get st.ptgt i) q (-1)
  done;
  Cost_table.add_work st.table ~step:s ~proc:q (Dag.work st.dag v);
  st.placed_.((v * st.p) + q) <- true;
  st.reps_.(v) <- insert_sorted q st.reps_.(v);
  st.rep_total <- st.rep_total + 1;
  st.rep_nodes <- v :: st.rep_nodes;
  for i = pbase to pstop - 1 do
    let u = Array.unsafe_get st.ptgt i in
    let idx = (u * st.p) + q in
    let old_fn = st.first_need.(idx) in
    if s < old_fn then begin
      if old_fn = no_need then st.ev_cnt.(u) <- st.ev_cnt.(u) + 1;
      st.first_need.(idx) <- s;
      st.fn_count.(idx) <- 1
    end
    else if s = old_fn then st.fn_count.(idx) <- st.fn_count.(idx) + 1;
    source_comm_one_r st u q 1
  done;
  source_comm_all_r st v 1;
  Cost_table.refresh st.table

let apply_drop_replica st v q =
  st.row_node <- -1;
  let s = st.step_.(v) in
  source_comm_all_r st v (-1);
  let pbase = st.poff.(v) and pstop = st.poff.(v + 1) in
  for i = pbase to pstop - 1 do
    source_comm_one_r st (Array.unsafe_get st.ptgt i) q (-1)
  done;
  Cost_table.add_work st.table ~step:s ~proc:q (-(Dag.work st.dag v));
  st.placed_.((v * st.p) + q) <- false;
  st.reps_.(v) <- List.filter (fun r -> r <> q) st.reps_.(v);
  st.rep_total <- st.rep_total - 1;
  (* rep_nodes keeps v: release tolerates duplicates and empty lists *)
  for i = pbase to pstop - 1 do
    let u = Array.unsafe_get st.ptgt i in
    let idx = (u * st.p) + q in
    if s = st.first_need.(idx) then begin
      if st.fn_count.(idx) > 1 then st.fn_count.(idx) <- st.fn_count.(idx) - 1
      else rescan_fn_r st u q (* v's placed bit is already clear *)
    end;
    source_comm_one_r st u q 1
  done;
  source_comm_all_r st v 1;
  Cost_table.refresh st.table

let snapshot st =
  if st.rep_total = 0 then Schedule.of_assignment st.dag ~proc:st.proc_ ~step:st.step_
  else begin
    let replicas = ref [] in
    for v = 0 to Dag.n st.dag - 1 do
      List.iter (fun q -> replicas := (v, q, st.step_.(v)) :: !replicas) st.reps_.(v)
    done;
    Schedule.of_assignment_replicated st.machine_ st.dag ~proc:st.proc_
      ~step:st.step_ ~replicas:!replicas
  end

let check_consistent st =
  Cost_table.assert_consistent st.table;
  let n = Dag.n st.dag in
  let reps_seen = ref 0 in
  for v = 0 to n - 1 do
    let rec sorted = function
      | [] | [ _ ] -> true
      | a :: (b :: _ as rest) -> a < b && sorted rest
    in
    if not (sorted st.reps_.(v)) then failwith "Assignment_state: reps_ not sorted";
    reps_seen := !reps_seen + List.length st.reps_.(v);
    for q = 0 to st.p - 1 do
      let expect = q = st.proc_.(v) || List.mem q st.reps_.(v) in
      if st.placed_.((v * st.p) + q) <> expect then
        failwith "Assignment_state: stale placed_"
    done
  done;
  if !reps_seen <> st.rep_total then failwith "Assignment_state: stale rep_total";
  for u = 0 to n - 1 do
    let base = u * st.p in
    let live = ref 0 in
    for q = 0 to st.p - 1 do
      let m = ref no_need and c = ref 0 in
      Dag.iter_succ st.dag u (fun w ->
          if st.placed_.((w * st.p) + q) then begin
            let s = st.step_.(w) in
            if s < !m then begin
              m := s;
              c := 1
            end
            else if s = !m then incr c
          end);
      if st.first_need.(base + q) <> !m then
        failwith "Assignment_state: stale first_need";
      if st.fn_count.(base + q) <> !c then failwith "Assignment_state: stale fn_count";
      if !m <> no_need then incr live
    done;
    if st.ev_cnt.(u) <> !live then failwith "Assignment_state: stale ev_cnt"
  done

(* Park the state on the calling domain's pool for reuse by a later
   {!init}. Restores the pooled-array invariant first: retract any
   overlay additions and zero the delta scratch (between public calls
   the undo log and column list are already empty — the loops below are
   defensive no-ops then), and zero the cost-table cells. Never-released
   states are simply collected by the GC; releasing is an optimisation,
   not an obligation. *)
let release st =
  undo_additions st;
  for k = 0 to st.col_steps_len - 1 do
    st.col_mark.(st.col_steps.(k)) <- false
  done;
  st.col_steps_len <- 0;
  reset_scratch st;
  (* Restore the pooled all-false/all-[] invariant of the replication
     arrays: primary bits for every node, replica bits and lists via
     rep_nodes (idempotent across its duplicates). *)
  for v = 0 to Dag.n st.dag - 1 do
    st.placed_.((v * st.p) + st.proc_.(v)) <- false
  done;
  List.iter
    (fun v ->
      List.iter (fun q -> st.placed_.((v * st.p) + q) <- false) st.reps_.(v);
      st.reps_.(v) <- [])
    st.rep_nodes;
  st.rep_nodes <- [];
  st.rep_total <- 0;
  Cost_table.clear st.table;
  let pool = Domain.DLS.get pool_key in
  if List.length !pool < max_pooled then pool := st :: !pool
