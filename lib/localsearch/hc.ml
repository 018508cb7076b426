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
    ?(replicate = false) ?(shards = 1) ?on_apply machine sched =
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
        (match on_apply with Some f -> f v p2 s2 | None -> ());
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
       processor). Shared by the applying scan and the read-only
       proposing scan so both traverse the exact same candidates. *)
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
    if shards <= 1 || check || n <= 1 then
      (* Sequential engine — the jobs = 1 fast path the sharded variant
         is defined against (check mode stays here: its apply/rollback
         probes must run on the one true state). *)
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
      done
    else begin
      (* Sharded propose/merge/apply engine (DESIGN.md Section 5j).

         Take a window of nodes from the front of the worklist (without
         dequeuing), split it into [shards] contiguous slices, and let
         each slice scan its nodes {e read-only} on a scratch clone of
         the state ({!Assignment_state.clone_for_scan}), stopping at its
         first node that has an improving move. Because no proposal
         mutates the state, every slice sees exactly the state the
         sequential engine would have seen for each of those nodes; the
         earliest proposing position [j] in window order is therefore
         precisely the node at which the sequential engine would apply
         its next move. The merge step consumes positions [0 .. j]
         serially: the proposal-free prefix is dequeued with its
         recorded candidate counts ticked into the budget (no rescan —
         determinism of the scan on identical state makes the clone's
         count the sequential count), and position [j] is re-run through
         the normal applying [scan_node] on the true state, so residents
         bookkeeping, worklist re-marking and the on_apply hook all take
         the unmodified sequential path. Any jobs count (and any shard
         count) is hence bit-identical to the sequential engine — same
         moves in the same order, same budget consumption, same
         counters. Wasted speculative scans past [j] are discarded
         without being ticked.

         The window grows adaptively: proposal-free windows double it
         (deep scans parallelise well near the fixpoint), any proposal
         resets it to [shards] (early on, almost every node moves, so
         speculating further than one move ahead is wasted work). *)
      let nshards = min shards n in
      let max_win = min n (nshards * 32) in
      let win = Array.make max_win 0 in
      let win_prop = Array.make max_win false in
      let win_evald = Array.make max_win 0 in
      let row_bufs = Array.init nshards (fun _ -> Array.make p 0) in
      let shard_ids = List.init nshards Fun.id in
      let cur_len = ref 0 in
      let wsize = ref nshards in
      (* Read-only mirror of [scan_node]: same window summary, same
         candidate order, same per-row counting — but evaluated on a
         clone and never applying. Returns whether the node has an
         improving move; [evald_out] receives the candidate count of a
         proposal-free scan (unused for proposers, which are rescanned
         by the applying path). *)
      let scan_node_propose cst row_buf v evald_out =
        let s1 = Assignment_state.step cst v in
        let p1 = Assignment_state.proc cst v in
        let last_pred, last_pred_proc, first_succ, first_succ_proc =
          Assignment_state.move_window cst v
        in
        let found = ref false in
        let evald = ref 0 in
        let ds = ref (-1) in
        while (not !found) && !ds <= 1 do
          let s2 = s1 + !ds in
          let row = if s2 = s1 then p - 1 else p in
          let sel =
            window_sel ~last_pred ~last_pred_proc ~first_succ ~first_succ_proc s2
          in
          if sel = -2 then evald := !evald + row
          else if sel >= 0 then begin
            let improving =
              (not (sel = p1 && s2 = s1))
              && Assignment_state.delta_cost_cached cst v sel s2 < 0
            in
            if improving then found := true else evald := !evald + row
          end
          else begin
            Assignment_state.delta_cost_row cst v ~s2 row_buf;
            let p2 = ref 0 in
            while (not !found) && !p2 < p do
              if not (!p2 = p1 && s2 = s1) then begin
                incr evald;
                if row_buf.(!p2) < 0 then found := true
              end;
              incr p2
            done
          end;
          incr ds
        done;
        evald_out := !evald;
        !found
      in
      let propose_task k =
        let len = !cur_len in
        let lo = k * len / nshards and hi = (k + 1) * len / nshards in
        if lo < hi then begin
          let cst = Assignment_state.clone_for_scan st in
          let row_buf = row_bufs.(k) in
          let ev = ref 0 in
          let i = ref lo in
          let halted = ref false in
          while (not !halted) && !i < hi do
            let found = scan_node_propose cst row_buf win.(!i) ev in
            win_prop.(!i) <- found;
            win_evald.(!i) <- !ev;
            if found then halted := true;
            incr i
          done;
          Assignment_state.release_clone cst
        end
      in
      (* Fan the slices out and return the first proposing position in
         window order, or [len] if none. Positions after a slice's own
         proposer are left stale, but they can only sit {e after} the
         first fresh [true] of their slice, so the ascending scan never
         reads one. *)
      let propose_window len =
        cur_len := len;
        ignore (Par.map propose_task shard_ids : unit list);
        let j = ref 0 in
        while !j < len && not win_prop.(!j) do
          incr j
        done;
        !j
      in
      (* Consume window positions 0 .. min(j, len-1): budget-tick the
         proposal-free prefix, run the true [scan_node] at [j]. [get]
         maps a window position to its node; [consumed] is called after
         each position actually processed (the budget can halt the
         window early, leaving the rest for the next round). Returns
         whether the scan at [j] applied a move. *)
      let consume len j ~get ~consumed =
        let moved = ref false in
        let i = ref 0 in
        let halted = ref false in
        while (not !halted) && !i < len && !i <= j do
          if stop () then halted := true
          else begin
            let v = get !i in
            if !i = j then begin
              if scan_node v then moved := true
            end
            else begin
              Budget.charge budget win_evald.(!i);
              moves_evaluated := !moves_evaluated + win_evald.(!i)
            end;
            consumed ();
            incr i
          end
        done;
        !moved
      in
      let adapt j len = wsize := if j < len then nshards else min (2 * !wsize) max_win in
      while !continue && not (stop ()) do
        while (not (queue_empty ())) && not (stop ()) do
          let len = min !wsize !queue_len in
          if len <= 1 then ignore (scan_node (dequeue ()) : bool)
          else begin
            for i = 0 to len - 1 do
              win.(i) <- queue.((!head + i) mod (n + 1))
            done;
            let j = propose_window len in
            ignore (consume len j ~get:(fun _ -> dequeue ()) ~consumed:ignore : bool);
            adapt j len
          end
        done;
        if stop () then continue := false
        else begin
          (* Sharded verification sweep: same windowed speculation over
             the full id order the sequential sweep walks. *)
          incr sweeps;
          let any = ref false in
          let v = ref 0 in
          while !v < n && not (stop ()) do
            let len = min !wsize (n - !v) in
            if len <= 1 then begin
              if scan_node !v then any := true;
              incr v
            end
            else begin
              let v0 = !v in
              for i = 0 to len - 1 do
                win.(i) <- v0 + i
              done;
              let j = propose_window len in
              if consume len j ~get:(fun i -> v0 + i) ~consumed:(fun () -> incr v)
              then any := true;
              adapt j len
            end
          done;
          if !any then incr sweep_hits;
          continue := !any
        end
      done
    end;
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
