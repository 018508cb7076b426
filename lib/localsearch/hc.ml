type stats = {
  moves_applied : int;
  moves_evaluated : int;
  initial_cost : int;
  final_cost : int;
}

let no_stats initial_cost =
  { moves_applied = 0; moves_evaluated = 0; initial_cost; final_cost = initial_cost }

(* Shared check-mode verification: the read-only delta must agree with
   the mutating path, both forwards and after rolling back. *)
let verify_delta st v p2 s2 delta keep =
  let p1 = Assignment_state.proc st v and s1 = Assignment_state.step st v in
  let before = Assignment_state.total_cost st in
  Assignment_state.apply_move st v p2 s2;
  if Assignment_state.total_cost st <> before + delta then
    failwith "Hc: delta_cost disagrees with apply_move";
  if not keep then begin
    Assignment_state.apply_move st v p1 s1;
    if Assignment_state.total_cost st <> before then
      failwith "Hc: rollback did not restore the total cost"
  end

let try_move ~check st v p2 s2 =
  let delta = Assignment_state.delta_cost st v p2 s2 in
  if delta < 0 then begin
    if check then verify_delta st v p2 s2 delta true
    else Assignment_state.apply_move st v p2 s2;
    true
  end
  else begin
    if check then verify_delta st v p2 s2 delta false;
    false
  end

(* ------------------------------------------------------------------ *)
(* Replication phase (DESIGN.md Section 5g), reached only through
   [replicate_schedule] on a finished schedule — single-node moves and
   replication moves never interleave (Assignment_state rejects moves
   once replicas exist), so replication is a final polish on a
   move-phase local minimum.

   Candidates are seeded from the live event traffic — the per-event
   granularity of the profiler's traffic matrix: replicating u onto a
   destination it currently ships to removes that event outright and may
   pull other events to a nearer source, at the price of recomputing u's
   work. Each round evaluates the candidates heaviest-traffic first
   (ties broken by ascending (node, processor) for determinism), applies
   every strict improvement, then reconsiders existing replicas for
   dropping; rounds repeat until one passes without a change. *)

(* Accept a replication move [apply] (a replica added or dropped) iff
   its read-only [delta] is negative. In check mode the delta must match
   the applied change, and a rejected move is applied and rolled back
   through its inverse [undo], which must restore the total exactly. *)
let try_replica_move ~check st ~name delta apply undo v q =
  let accept = delta < 0 in
  if accept || check then begin
    let before = Assignment_state.total_cost st in
    apply st v q;
    if check && Assignment_state.total_cost st <> before + delta then
      failwith ("Hc: " ^ name ^ " disagrees with the applied move");
    if not accept then begin
      undo st v q;
      if Assignment_state.total_cost st <> before then
        failwith "Hc: replica rollback did not restore the total cost"
    end
  end;
  accept

(* A just-placed replica is always droppable: its consumers on q were
   strictly later than v in the pre-move (valid) schedule. *)
let try_replicate ~check st v q =
  try_replica_move ~check st ~name:"delta_cost_replicate"
    (Assignment_state.delta_cost_replicate st v q)
    Assignment_state.apply_replicate Assignment_state.apply_drop_replica v q

let try_drop ~check st v q =
  try_replica_move ~check st ~name:"delta_cost_drop_replica"
    (Assignment_state.delta_cost_drop_replica st v q)
    Assignment_state.apply_drop_replica Assignment_state.apply_replicate v q

let replication_phase ~check ~budget st n =
  let added = ref 0 and dropped = ref 0 and evaluated = ref 0 in
  let stop () = Budget.exhausted budget in
  let changed = ref true in
  while !changed && not (stop ()) do
    changed := false;
    let cands = ref [] in
    for u = n - 1 downto 0 do
      Assignment_state.iter_event_destinations st u (fun q vol ->
          if Assignment_state.valid_replicate st u q then cands := (vol, u, q) :: !cands)
    done;
    let cands =
      List.sort
        (fun (v1, u1, q1) (v2, u2, q2) ->
          if v1 <> v2 then compare v2 v1
          else if u1 <> u2 then compare u1 u2
          else compare q1 q2)
        !cands
    in
    List.iter
      (fun (_, u, q) ->
        (* re-check: an earlier acceptance this round may have placed or
           starved this candidate *)
        if (not (stop ())) && Assignment_state.valid_replicate st u q then begin
          ignore (Budget.tick budget : bool);
          incr evaluated;
          if try_replicate ~check st u q then begin
            incr added;
            changed := true
          end
        end)
      cands;
    for v = 0 to n - 1 do
      List.iter
        (fun q ->
          if (not (stop ())) && Assignment_state.valid_drop_replica st v q then begin
            ignore (Budget.tick budget : bool);
            incr evaluated;
            if try_drop ~check st v q then begin
              incr dropped;
              changed := true
            end
          end)
        (Assignment_state.node_replicas st v)
    done
  done;
  Obs.Metrics.counter "hc.replication_candidates" !evaluated;
  Obs.Metrics.counter "hc.replicas_added" !added;
  Obs.Metrics.counter "hc.replicas_dropped" !dropped

(* The one search loop: greedy first improvement over a dirty-node
   worklist on a live state, recording the hc.* counters. Both costs in
   the stats come from the state's cost table; [check] holds them to
   [Bsp_cost.total] of the state's lazy schedule before and after. *)
let search ~check ~budget ~max_moves machine dag st =
  let lazy_cost () = Bsp_cost.total machine (Assignment_state.snapshot st) in
  let initial_cost = Assignment_state.total_cost st in
  if check && initial_cost <> lazy_cost () then
    failwith "Hc: the state's initial cost disagrees with Bsp_cost";
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let num_steps = Assignment_state.num_steps st in
  let moves_applied = ref 0 in
  let moves_evaluated = ref 0 in
  let move_cap = match max_moves with None -> max_int | Some m -> m in
  let stop () = !moves_applied >= move_cap || Budget.exhausted budget in
  (* Dirty-node worklist: a FIFO ring (capacity n + 1 suffices since a
     node is enqueued at most once at a time) plus a membership flag,
     both the state's pooled scratch. The local length/peak/total
     counters feed the observability layer at the end of the run. *)
  let wl = Assignment_state.worklist st in
  let queue = wl.Assignment_state.ring in
  let head = ref 0 and tail = ref 0 in
  let queued = wl.Assignment_state.queued in
  Array.fill queued 0 n false;
  let enqueued_total = ref 0 in
  let queue_len = ref 0 in
  let queue_peak = ref 0 in
  let sweeps = ref 0 and sweep_hits = ref 0 in
  let enqueue v =
    if not queued.(v) then begin
      queued.(v) <- true;
      queue.(!tail) <- v;
      tail := (!tail + 1) mod (n + 1);
      incr enqueued_total;
      incr queue_len;
      if !queue_len > !queue_peak then queue_peak := !queue_len
    end
  in
  let dequeue () =
    let v = queue.(!head) in
    head := (!head + 1) mod (n + 1);
    queued.(v) <- false;
    decr queue_len;
    v
  in
  let queue_empty () = !head = !tail in
  (* Nodes resident per superstep, so an accepted move can re-enqueue
     exactly the nodes whose neighbourhood costs it disturbed. Each
     superstep's residents form a doubly linked list over the pooled
     [res_*] arrays, in ascending id order at the start; a move unlinks
     its node, keeping the others' order, and puts it first in its new
     superstep. That order decides the enqueue order. *)
  let res_head = wl.Assignment_state.res_head in
  let res_next = wl.Assignment_state.res_next in
  let res_prev = wl.Assignment_state.res_prev in
  Array.fill res_head 0 num_steps (-1);
  let push_resident s v =
    let h = res_head.(s) in
    res_next.(v) <- h;
    res_prev.(v) <- -1;
    if h >= 0 then res_prev.(h) <- v;
    res_head.(s) <- v
  in
  let unlink_resident s v =
    let next = res_next.(v) and prev = res_prev.(v) in
    if prev >= 0 then res_next.(prev) <- next else res_head.(s) <- next;
    if next >= 0 then res_prev.(next) <- prev
  in
  for v = n - 1 downto 0 do
    push_resident (Assignment_state.step st v) v
  done;
  let enqueue_residents s =
    let w = ref res_head.(s) in
    while !w >= 0 do
      enqueue !w;
      w := res_next.(!w)
    done
  in
  (* An accepted move of v disturbed the supersteps recorded by the
     delta evaluation. Re-enqueue: v and its neighbourhood (validity
     windows and first_need sets changed), the other successors of v's
     predecessors (they share those first_need sets), the residents of
     the touched supersteps and their neighbours (their work cells and
     superstep maxima changed), and the predecessors of nodes resident
     just after a touched superstep (their lazy events are pinned into
     its communication phase). *)
  let pred_off = Dag.pred_offsets dag and pred_tgt = Dag.pred_targets dag in
  let succ_off = Dag.succ_offsets dag and succ_tgt = Dag.succ_targets dag in
  let enqueue_preds v =
    for i = pred_off.(v) to pred_off.(v + 1) - 1 do
      enqueue pred_tgt.(i)
    done
  in
  let enqueue_succs v =
    for i = succ_off.(v) to succ_off.(v + 1) - 1 do
      enqueue succ_tgt.(i)
    done
  in
  let enqueue_touched s =
    enqueue_residents s;
    if s > 0 then enqueue_residents (s - 1);
    if s + 1 < num_steps then begin
      let w = ref res_head.(s + 1) in
      while !w >= 0 do
        enqueue !w;
        enqueue_preds !w;
        w := res_next.(!w)
      done
    end
  in
  let mark_after_move v =
    enqueue v;
    enqueue_preds v;
    enqueue_succs v;
    for i = pred_off.(v) to pred_off.(v + 1) - 1 do
      enqueue_succs pred_tgt.(i)
    done;
    Assignment_state.iter_last_touched_steps st enqueue_touched
  in
  (* First-improvement scan of one node's neighbourhood: every
     processor, superstep within +-1 (Appendix A.3), in the same
     candidate order as the reference sweep. One pred/succ scan
     summarises validity for the whole neighbourhood; whole blocks of
     invalid candidates are then decided in O(1) — most supersteps
     admit either every processor or exactly one, so per-candidate
     work happens only on candidates that reach the delta evaluator.
     Evaluated candidates are counted per block and charged in bulk:
     every caller probes [stop ()] right before a scan, so the charge
     does not read the clock a second time. *)
  let accept v s1 p2 s2 =
    if try_move ~check st v p2 s2 then begin
      incr moves_applied;
      if s2 <> s1 then begin
        unlink_resident s1 v;
        push_resident s2 v
      end;
      mark_after_move v;
      true
    end
    else false
  in
  (* The processors valid at s2, encoded -1 = all, -2 = none, q >= 0 =
     exactly q (a window boundary whose extremal neighbours share one
     processor). *)
  let window_sel ~last_pred ~last_pred_proc ~first_succ ~first_succ_proc s2 =
    if s2 < 0 || s2 >= num_steps then -2
    else begin
      let lo =
        if s2 > last_pred then -1
        else if s2 = last_pred && last_pred_proc >= 0 then last_pred_proc
        else -2
      in
      let hi =
        if s2 < first_succ then -1
        else if s2 = first_succ && first_succ_proc >= 0 then first_succ_proc
        else -2
      in
      if lo = -2 || hi = -2 then -2
      else if lo = -1 then hi
      else if hi = -1 then lo
      else if lo = hi then lo
      else -2
    end
  in
  let row_out = Array.make p 0 in
  (* [clean.(v)] is the [!moves_applied] of v's last scan if that scan
     found no move: while no move is applied since, a scan of v reads
     the same state, finds no move again and charges 3p - 1
     evaluations (every candidate of its three superstep rows). *)
  let clean = wl.Assignment_state.clean in
  Array.fill clean 0 n (-1);
  let no_move_evals = (3 * p) - 1 in
  let window = Array.make 4 0 in
  let scan_node v =
    let s1 = Assignment_state.step st v in
    let p1 = Assignment_state.proc st v in
    Assignment_state.move_window st v window;
    let last_pred = window.(0) and last_pred_proc = window.(1) in
    let first_succ = window.(2) and first_succ_proc = window.(3) in
    let moved = ref false in
    let evald = ref 0 in
    let ds = ref (-1) in
    while (not !moved) && !ds <= 1 do
      let s2 = s1 + !ds in
      (* Number of candidates in this superstep row: the identity
         (p1, s1) is not a candidate. *)
      let row = if s2 = s1 then p - 1 else p in
      let sel =
        window_sel ~last_pred ~last_pred_proc ~first_succ ~first_succ_proc s2
      in
      if sel = -2 then evald := !evald + row
      else if sel >= 0 then begin
        (* The reference sweep would reject p2 < sel one by one; count
           them, then evaluate the single valid candidate (screened
           against the node's resident removal base, so a boundary
           superstep shares the base built for its full rows). *)
        let improving =
          (not (sel = p1 && s2 = s1))
          && begin
               let d = Assignment_state.delta_cost_cached st v sel s2 in
               if check && d <> Assignment_state.delta_cost st v sel s2 then
                 failwith "Hc: delta_cost_cached disagrees with delta_cost";
               d < 0
             end
        in
        if improving && accept v s1 sel s2 then begin
          moved := true;
          evald := !evald + sel + 1 - (if s2 = s1 && p1 < sel then 1 else 0)
        end
        else evald := !evald + row
      end
      else begin
        (* Every processor is a valid target at s2: evaluate the whole
           row off one shared removal base. *)
        Assignment_state.delta_cost_row st v ~s2 row_out;
        if check then
          for q = 0 to p - 1 do
            if
              (not (q = p1 && s2 = s1))
              && row_out.(q) <> Assignment_state.delta_cost st v q s2
            then failwith "Hc: delta_cost_row disagrees with delta_cost"
          done;
        let p2 = ref 0 in
        while (not !moved) && !p2 < p do
          if not (!p2 = p1 && s2 = s1) then begin
            incr evald;
            if row_out.(!p2) < 0 && accept v s1 !p2 s2 then moved := true
          end;
          incr p2
        done
      end;
      incr ds
    done;
    Budget.charge budget !evald;
    moves_evaluated := !moves_evaluated + !evald;
    if not !moved then clean.(v) <- !moves_applied;
    !moved
  in
  for v = 0 to n - 1 do
    enqueue v
  done;
  let continue = ref true in
  while !continue && not (stop ()) do
    while (not (queue_empty ())) && not (stop ()) do
      ignore (scan_node (dequeue ()) : bool)
    done;
    if stop () then continue := false
    else begin
      (* Verification sweep: the worklist marking is conservative but
         not provably complete, so confirm the fixpoint with one full
         pass; any improvement found re-seeds the worklist. This keeps
         the termination guarantee of the exhaustive sweep (the result
         is a genuine local minimum) at delta-evaluation prices. A
         node still clean is charged its scan without one (scanned
         anyway under [check]). *)
      incr sweeps;
      let any = ref false in
      let v = ref 0 in
      while !v < n && not (stop ()) do
        let was_clean = clean.(!v) = !moves_applied in
        if was_clean && not check then begin
          Budget.charge budget no_move_evals;
          moves_evaluated := !moves_evaluated + no_move_evals
        end
        else if scan_node !v then begin
          if was_clean then failwith "Hc: a node clean since its last scan moved";
          any := true
        end;
        incr v
      done;
      if !any then incr sweep_hits;
      continue := !any
    end
  done;
  Obs.Metrics.counter "hc.runs" 1;
  Obs.Metrics.counter "hc.moves_evaluated" !moves_evaluated;
  Obs.Metrics.counter "hc.moves_applied" !moves_applied;
  Obs.Metrics.counter "hc.worklist_enqueued" !enqueued_total;
  Obs.Metrics.gauge_max "hc.worklist_peak" (float_of_int !queue_peak);
  Obs.Metrics.counter "hc.verify_sweeps" !sweeps;
  Obs.Metrics.counter "hc.verify_sweep_hits" !sweep_hits;
  let final_cost = Assignment_state.snapshot_cost st in
  if check && final_cost <> lazy_cost () then
    failwith "Hc: the state's final cost disagrees with Bsp_cost";
  {
    moves_applied = !moves_applied;
    moves_evaluated = !moves_evaluated;
    initial_cost;
    final_cost;
  }

let improve ?(check = false) ?(budget = Budget.unlimited ()) ?max_moves ?(shards = 1)
    machine sched =
  if shards <> 1 then invalid_arg "Hc.improve: shards must be 1";
  let dag = sched.Schedule.dag in
  if Dag.n dag = 0 then begin
    let initial = Schedule.with_lazy_comm sched in
    (initial, no_stats (Bsp_cost.total machine initial))
  end
  else begin
    if Schedule.has_replicas sched then
      invalid_arg "Hc.improve: the input schedule has replicas";
    let st = Assignment_state.init machine sched in
    let stats = search ~check ~budget ~max_moves machine dag st in
    let result = Assignment_state.snapshot st in
    Assignment_state.release st;
    (result, stats)
  end

let improve_assignment ?(check = false) ?(budget = Budget.unlimited ()) ?max_moves machine
    dag ~proc ~step =
  if Dag.n dag = 0 then no_stats 0
  else begin
    let st = Assignment_state.of_assignment machine dag ~proc ~step in
    let stats = search ~check ~budget ~max_moves machine dag st in
    Assignment_state.release st;
    stats
  end

(* Replication-only pass over an already-optimised schedule: the move
   phase is skipped entirely, so the input placement survives verbatim
   and only replicas are added (or not). The input communication
   schedule is replaced by the lazy one, which can cost more than a
   hand-optimised event placement — callers compare the result against
   their input and keep the cheaper (as {!Pipeline.run} does). *)
let replicate_schedule ?(check = false) ?(budget = Budget.unlimited ()) machine sched =
  let dag = sched.Schedule.dag in
  let n = Dag.n dag in
  let initial = Schedule.with_lazy_comm sched in
  if n = 0 || Schedule.num_supersteps sched = 0 then initial
  else begin
    let st = Assignment_state.init machine initial in
    replication_phase ~check ~budget st n;
    if check then Assignment_state.check_consistent st;
    let result = Assignment_state.snapshot st in
    Assignment_state.release st;
    result
  end
