type stats = {
  moves_applied : int;
  moves_evaluated : int;
  replicas_added : int;
  replicas_dropped : int;
  initial_cost : int;
  final_cost : int;
}

let no_stats initial_cost =
  {
    moves_applied = 0;
    moves_evaluated = 0;
    replicas_added = 0;
    replicas_dropped = 0;
    initial_cost;
    final_cost = initial_cost;
  }

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
(* Replication phase (DESIGN.md Section 5g). Runs only after the move
   search has converged — single-node moves and replication moves never
   interleave (Assignment_state rejects moves once replicas exist), so
   replication is a final polish on the move-phase local minimum.

   Candidates are seeded from the live event traffic — the per-event
   granularity of the profiler's traffic matrix: replicating u onto a
   destination it currently ships to removes that event outright and may
   pull other events to a nearer source, at the price of recomputing u's
   work. Each round evaluates the candidates heaviest-traffic first
   (ties broken by ascending (node, processor) for determinism), applies
   every strict improvement, then reconsiders existing replicas for
   dropping; rounds repeat until one passes without a change. *)

let try_replicate ~check st v q =
  let delta = Assignment_state.delta_cost_replicate st v q in
  if delta < 0 then begin
    let before = Assignment_state.total_cost st in
    Assignment_state.apply_replicate st v q;
    if check && Assignment_state.total_cost st <> before + delta then
      failwith "Hc: delta_cost_replicate disagrees with apply_replicate";
    true
  end
  else begin
    if check then begin
      let before = Assignment_state.total_cost st in
      Assignment_state.apply_replicate st v q;
      if Assignment_state.total_cost st <> before + delta then
        failwith "Hc: delta_cost_replicate disagrees with apply_replicate";
      (* a just-placed replica is always droppable: its consumers on q
         were strictly later than v in the pre-move (valid) schedule *)
      Assignment_state.apply_drop_replica st v q;
      if Assignment_state.total_cost st <> before then
        failwith "Hc: replica rollback did not restore the total cost"
    end;
    false
  end

let try_drop ~check st v q =
  let delta = Assignment_state.delta_cost_drop_replica st v q in
  if delta < 0 then begin
    let before = Assignment_state.total_cost st in
    Assignment_state.apply_drop_replica st v q;
    if check && Assignment_state.total_cost st <> before + delta then
      failwith "Hc: delta_cost_drop_replica disagrees with apply_drop_replica";
    true
  end
  else begin
    if check then begin
      let before = Assignment_state.total_cost st in
      Assignment_state.apply_drop_replica st v q;
      if Assignment_state.total_cost st <> before + delta then
        failwith "Hc: delta_cost_drop_replica disagrees with apply_drop_replica";
      Assignment_state.apply_replicate st v q;
      if Assignment_state.total_cost st <> before then
        failwith "Hc: replica rollback did not restore the total cost"
    end;
    false
  end

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
  Obs.Metrics.counter "hc.replicas_dropped" !dropped;
  (!added, !dropped, !evaluated)

let improve ?(check = false) ?(budget = Budget.unlimited ()) ?max_moves
    ?(replicate = false) ?(shards = 1) machine sched =
  if shards <> 1 then invalid_arg "Hc.improve: shards must be 1";
  let dag = sched.Schedule.dag in
  let n = Dag.n dag in
  let initial = Schedule.with_lazy_comm sched in
  let initial_cost = Bsp_cost.total machine initial in
  if n = 0 || Schedule.num_supersteps sched = 0 then (initial, no_stats initial_cost)
  else begin
    let st = Assignment_state.init machine initial in
    let p = machine.Machine.p in
    let num_steps = Assignment_state.num_steps st in
    let moves_applied = ref 0 in
    let moves_evaluated = ref 0 in
    let move_cap = match max_moves with None -> max_int | Some m -> m in
    let stop () = !moves_applied >= move_cap || Budget.exhausted budget in
    (* Dirty-node worklist: a FIFO ring (capacity n + 1 suffices since a
       node is enqueued at most once at a time) plus a membership flag.
       The local length/peak/total counters feed the observability layer
       at the end of the run. *)
    let queue = Array.make (n + 1) 0 in
    let head = ref 0 and tail = ref 0 in
    let queued = Array.make n false in
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
       exactly the nodes whose neighbourhood costs it disturbed. *)
    let residents = Array.make num_steps [] in
    for v = n - 1 downto 0 do
      residents.(Assignment_state.step st v) <- v :: residents.(Assignment_state.step st v)
    done;
    (* An accepted move of v disturbed the supersteps recorded by the
       delta evaluation. Re-enqueue: v and its neighbourhood (validity
       windows and first_need sets changed), the other successors of v's
       predecessors (they share those first_need sets), the residents of
       the touched supersteps and their neighbours (their work cells and
       superstep maxima changed), and the predecessors of nodes resident
       just after a touched superstep (their lazy events are pinned into
       its communication phase). *)
    let mark_after_move v =
      enqueue v;
      Dag.iter_pred dag v enqueue;
      Dag.iter_succ dag v enqueue;
      Dag.iter_pred dag v (fun u -> Dag.iter_succ dag u enqueue);
      Assignment_state.iter_last_touched_steps st (fun s ->
          List.iter enqueue residents.(s);
          if s > 0 then List.iter enqueue residents.(s - 1);
          if s + 1 < num_steps then
            List.iter
              (fun w ->
                enqueue w;
                Dag.iter_pred dag w enqueue)
              residents.(s + 1))
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
          residents.(s1) <- List.filter (fun w -> w <> v) residents.(s1);
          residents.(s2) <- v :: residents.(s2)
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
    let scan_node v =
      let s1 = Assignment_state.step st v in
      let p1 = Assignment_state.proc st v in
      let last_pred, last_pred_proc, first_succ, first_succ_proc =
        Assignment_state.move_window st v
      in
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
           is a genuine local minimum) at delta-evaluation prices. *)
        incr sweeps;
        let any = ref false in
        let v = ref 0 in
        while !v < n && not (stop ()) do
          if scan_node !v then any := true;
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
    let replicas_added, replicas_dropped =
      if replicate && not (stop ()) then begin
        let a, d, _ = replication_phase ~check ~budget st n in
        (a, d)
      end
      else (0, 0)
    in
    let result = Assignment_state.snapshot st in
    let final_cost = Bsp_cost.total machine result in
    Assignment_state.release st;
    ( result,
      {
        moves_applied = !moves_applied;
        moves_evaluated = !moves_evaluated;
        replicas_added;
        replicas_dropped;
        initial_cost;
        final_cost;
      } )
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
    let _ = replication_phase ~check ~budget st n in
    if check then Assignment_state.check_consistent st;
    let result = Assignment_state.snapshot st in
    Assignment_state.release st;
    result
  end

(* The seed implementation: exhaustive sweeps with apply/rollback
   candidate evaluation. Kept as the differential-testing and
   benchmarking baseline for the delta/worklist engine above. *)
let improve_reference ?(check = false) ?(budget = Budget.unlimited ()) ?max_moves machine
    sched =
  let try_move_rollback st v p2 s2 =
    let p1 = Assignment_state.proc st v and s1 = Assignment_state.step st v in
    let before = Assignment_state.total_cost st in
    Assignment_state.apply_move st v p2 s2;
    if Assignment_state.total_cost st < before then true
    else begin
      Assignment_state.apply_move st v p1 s1;
      if check && Assignment_state.total_cost st <> before then
        failwith "Hc: rollback did not restore the total cost";
      false
    end
  in
  let dag = sched.Schedule.dag in
  let n = Dag.n dag in
  let initial = Schedule.with_lazy_comm sched in
  let initial_cost = Bsp_cost.total machine initial in
  if n = 0 || Schedule.num_supersteps sched = 0 then (initial, no_stats initial_cost)
  else begin
    let st = Assignment_state.init machine initial in
    let p = machine.Machine.p in
    let moves_applied = ref 0 in
    let moves_evaluated = ref 0 in
    let move_cap = match max_moves with None -> max_int | Some m -> m in
    let stop () = !moves_applied >= move_cap || Budget.exhausted budget in
    let improved_any = ref true in
    while !improved_any && not (stop ()) do
      improved_any := false;
      let v = ref 0 in
      while !v < n && not (stop ()) do
        let s1 = Assignment_state.step st !v in
        let moved = ref false in
        let ds = ref (-1) in
        while (not !moved) && !ds <= 1 do
          let s2 = s1 + !ds in
          let p2 = ref 0 in
          while (not !moved) && !p2 < p do
            if not (!p2 = Assignment_state.proc st !v && s2 = s1) then begin
              ignore (Budget.tick budget : bool);
              incr moves_evaluated;
              if Assignment_state.valid_move st !v !p2 s2 && try_move_rollback st !v !p2 s2
              then begin
                incr moves_applied;
                improved_any := true;
                moved := true
              end
            end;
            incr p2
          done;
          incr ds
        done;
        incr v
      done
    done;
    let result = Assignment_state.snapshot st in
    let final_cost = Bsp_cost.total machine result in
    Assignment_state.release st;
    ( result,
      {
        moves_applied = !moves_applied;
        moves_evaluated = !moves_evaluated;
        replicas_added = 0;
        replicas_dropped = 0;
        initial_cost;
        final_cost;
      } )
  end
