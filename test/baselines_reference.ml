(* The Cilk, HDagg and classical-to-BSP conversion of the first
   implementation, kept verbatim as the oracles for the differential
   properties in test_baselines.ml: the flat-array Cilk.run, Hdagg and
   Classical.to_bsp must reproduce their schedules byte for byte. The
   simulation keeps boxed event tuples and an option deque per
   processor, builds a victims list per steal, and the conversion and
   HDagg sort through closures. *)

module Classical = struct
  type t = Classical.t = { proc : int array; seq : int array }

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
end

module Cilk = struct
  module Event_heap = struct
    type t = {
      mutable arr : (int * int * int) array;  (* time, tiebreak, node *)
      mutable size : int;
    }

    let create () = { arr = Array.make 16 (0, 0, 0); size = 0 }

    let less (t1, c1, _) (t2, c2, _) = t1 < t2 || (t1 = t2 && c1 < c2)

    let push h x =
      if h.size = Array.length h.arr then begin
        let arr = Array.make (2 * h.size) (0, 0, 0) in
        Array.blit h.arr 0 arr 0 h.size;
        h.arr <- arr
      end;
      h.arr.(h.size) <- x;
      h.size <- h.size + 1;
      let i = ref (h.size - 1) in
      while !i > 0 && less h.arr.(!i) h.arr.((!i - 1) / 2) do
        let p = (!i - 1) / 2 in
        let tmp = h.arr.(p) in
        h.arr.(p) <- h.arr.(!i);
        h.arr.(!i) <- tmp;
        i := p
      done

    let pop h =
      if h.size = 0 then None
      else begin
        let top = h.arr.(0) in
        h.size <- h.size - 1;
        h.arr.(0) <- h.arr.(h.size);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let m = ref !i in
          if l < h.size && less h.arr.(l) h.arr.(!m) then m := l;
          if r < h.size && less h.arr.(r) h.arr.(!m) then m := r;
          if !m = !i then continue := false
          else begin
            let tmp = h.arr.(!m) in
            h.arr.(!m) <- h.arr.(!i);
            h.arr.(!i) <- tmp;
            i := !m
          end
        done;
        Some top
      end
  end

  let run dag ~p ~seed =
    if p < 1 then invalid_arg "Cilk.run: need at least one processor";
    let n = Dag.n dag in
    let rng = Rng.create seed in
    let proc = Array.make n 0 in
    let seq = Array.make n (-1) in
    let remaining = Array.init n (fun v -> Dag.in_degree dag v) in
    let stacks = Array.init p (fun _ -> Deque.create ()) in
    let busy = Array.make p false in
    let events = Event_heap.create () in
    let tiebreak = ref 0 in
    let seq_counter = ref 0 in
    (* Sources all start on processor 0's stack, lowest id on top, the DAG
       analogue of the root task spawning its children. *)
    List.rev (Dag.sources dag) |> List.iter (fun v -> Deque.push_top stacks.(0) v);
    let start_node q v time =
      proc.(v) <- q;
      seq.(v) <- !seq_counter;
      incr seq_counter;
      busy.(q) <- true;
      incr tiebreak;
      Event_heap.push events (time + Dag.work dag v, !tiebreak, v)
    in
    let try_acquire q time =
      match Deque.pop_top stacks.(q) with
      | Some v -> start_node q v time
      | None ->
        (* Steal from the bottom of a uniformly random non-empty stack. *)
        let victims = ref [] in
        for r = p - 1 downto 0 do
          if r <> q && not (Deque.is_empty stacks.(r)) then victims := r :: !victims
        done;
        (match !victims with
         | [] -> ()
         | vs ->
           let arr = Array.of_list vs in
           let victim = Rng.pick rng arr in
           (match Deque.pop_bottom stacks.(victim) with
            | Some v -> start_node q v time
            | None -> assert false))
    in
    let dispatch_all time =
      (* Keep assigning until no idle processor can acquire work. Steals
         can expose emptiness to later processors, so loop to fixpoint. *)
      let progress = ref true in
      while !progress do
        progress := false;
        for q = 0 to p - 1 do
          if not busy.(q) then begin
            let before = !seq_counter in
            try_acquire q time;
            if !seq_counter > before then progress := true
          end
        done
      done
    in
    dispatch_all 0;
    let finished = ref 0 in
    let continue = ref true in
    while !continue do
      match Event_heap.pop events with
      | None -> continue := false
      | Some (time, _, v) ->
        let q = proc.(v) in
        busy.(q) <- false;
        incr finished;
        Dag.iter_succ dag v (fun w ->
            remaining.(w) <- remaining.(w) - 1;
            if remaining.(w) = 0 then Deque.push_top stacks.(q) w);
        dispatch_all time
    done;
    if !finished <> n then failwith "Cilk.run: simulation stalled (cyclic input?)";
    { Classical.proc; seq }

  let schedule dag ~p ~seed = Classical.to_bsp dag (run dag ~p ~seed)
end

module Hdagg = struct
  let assign_wavefront dag ~p ~proc nodes =
    (* Load cap: average work per processor in this wavefront, with 10%
       slack, but never below the largest single node. *)
    let total = List.fold_left (fun acc v -> acc + Dag.work dag v) 0 nodes in
    let max_w = List.fold_left (fun acc v -> max acc (Dag.work dag v)) 0 nodes in
    let cap = max max_w ((total + p - 1) / p * 11 / 10) in
    let load = Array.make p 0 in
    (* Heavier nodes first gives the balancing step more freedom. *)
    let ordered =
      List.sort
        (fun a b ->
          let c = compare (Dag.work dag b) (Dag.work dag a) in
          if c <> 0 then c else compare a b)
        nodes
    in
    List.iter
      (fun v ->
        let score = Array.make p 0 in
        Dag.iter_pred dag v (fun u -> score.(proc.(u)) <- score.(proc.(u)) + Dag.comm dag u);
        (* Preferred processor: largest predecessor affinity among those
           with remaining capacity; fall back to the least-loaded one. *)
        let best = ref (-1) in
        for q = p - 1 downto 0 do
          if load.(q) + Dag.work dag v <= cap then
            if !best < 0 || score.(q) > score.(!best)
               || (score.(q) = score.(!best) && load.(q) < load.(!best))
            then best := q
        done;
        let q =
          if !best >= 0 then !best
          else begin
            let least = ref 0 in
            for r = 1 to p - 1 do
              if load.(r) < load.(!least) then least := r
            done;
            !least
          end
        in
        proc.(v) <- q;
        load.(q) <- load.(q) + Dag.work dag v)
      ordered

  let schedule ?(aggregate = true) machine dag =
    let n = Dag.n dag in
    let p = machine.Machine.p in
    let level = Dag.wavefronts dag in
    let num_levels = if n = 0 then 0 else 1 + Array.fold_left max 0 level in
    let by_level = Array.make (max num_levels 1) [] in
    for v = n - 1 downto 0 do
      by_level.(level.(v)) <- v :: by_level.(level.(v))
    done;
    let proc = Array.make n 0 in
    Array.iter (fun nodes -> assign_wavefront dag ~p ~proc nodes) by_level;
    let wavefront_schedule = Schedule.of_assignment dag ~proc ~step:level in
    if aggregate then Superstep_merge.greedy machine wavefront_schedule
    else wavefront_schedule
end
