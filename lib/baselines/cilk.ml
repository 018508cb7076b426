(* Discrete-event simulation on flat int arrays. Events are node
   completions ordered by (time, tiebreak counter); processing an event
   releases successors and then lets idle processors pick up work. A
   run allocates its O(n + p) arrays and nothing per event or steal. *)

(* A binary min-heap of (time, tiebreak, node) events in three parallel
   arrays. A busy processor has exactly one pending event, so [p] slots
   always suffice; tiebreaks are unique, so the pop order is total. *)
module Event_heap = struct
  type t = { time : int array; tie : int array; node : int array; mutable size : int }

  let create p = { time = Array.make p 0; tie = Array.make p 0; node = Array.make p 0; size = 0 }

  let[@inline] less h i j =
    h.time.(i) < h.time.(j) || (h.time.(i) = h.time.(j) && h.tie.(i) < h.tie.(j))

  let swap h i j =
    let t = h.time.(i) and c = h.tie.(i) and v = h.node.(i) in
    h.time.(i) <- h.time.(j);
    h.tie.(i) <- h.tie.(j);
    h.node.(i) <- h.node.(j);
    h.time.(j) <- t;
    h.tie.(j) <- c;
    h.node.(j) <- v

  let push h time tie v =
    let i = ref h.size in
    h.time.(!i) <- time;
    h.tie.(!i) <- tie;
    h.node.(!i) <- v;
    h.size <- h.size + 1;
    while !i > 0 && less h !i ((!i - 1) / 2) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  (* Drop the earliest event; read it first through [time.(0)] and
     [node.(0)]. *)
  let pop h =
    h.size <- h.size - 1;
    swap h 0 h.size;
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.size && less h l !m then m := l;
      if r < h.size && less h r !m then m := r;
      if !m = !i then continue := false
      else begin
        swap h !i !m;
        i := !m
      end
    done
end

(* One ready-node stack per processor, each a growable int array whose
   live part is [bottom.(q), top.(q)): the owner pushes and pops at the
   top, a thief takes the bottom. An emptied stack restarts at 0, and a
   full one slides its live part down before it doubles. *)
module Stacks = struct
  type t = { items : int array array; bottom : int array; top : int array }

  let create p =
    { items = Array.init p (fun _ -> Array.make 16 0); bottom = Array.make p 0; top = Array.make p 0 }

  let[@inline] is_empty s q = s.top.(q) = s.bottom.(q)

  let push s q v =
    let a = s.items.(q) in
    if s.top.(q) = Array.length a then begin
      let live = s.top.(q) - s.bottom.(q) in
      let a' = if 2 * live <= Array.length a then a else Array.make (2 * Array.length a) 0 in
      Array.blit a s.bottom.(q) a' 0 live;
      s.items.(q) <- a';
      s.bottom.(q) <- 0;
      s.top.(q) <- live
    end;
    s.items.(q).(s.top.(q)) <- v;
    s.top.(q) <- s.top.(q) + 1

  let[@inline] reset_if_empty s q =
    if is_empty s q then begin
      s.bottom.(q) <- 0;
      s.top.(q) <- 0
    end

  let pop_top s q =
    s.top.(q) <- s.top.(q) - 1;
    let v = s.items.(q).(s.top.(q)) in
    reset_if_empty s q;
    v

  let pop_bottom s q =
    let v = s.items.(q).(s.bottom.(q)) in
    s.bottom.(q) <- s.bottom.(q) + 1;
    reset_if_empty s q;
    v
end

let run dag ~p ~seed =
  if p < 1 then invalid_arg "Cilk.run: need at least one processor";
  let n = Dag.n dag in
  let rng = Rng.create seed in
  let succ_off = Dag.succ_offsets dag and succ_tgt = Dag.succ_targets dag in
  let proc = Array.make n 0 in
  let seq = Array.make n (-1) in
  let remaining = Array.init n (Dag.in_degree dag) in
  let stacks = Stacks.create p in
  let busy = Array.make p false in
  let victims = Array.make p 0 in
  let events = Event_heap.create p in
  let tiebreak = ref 0 in
  let seq_counter = ref 0 in
  (* Sources all start on processor 0's stack, lowest id on top, the DAG
     analogue of the root task spawning its children. *)
  for v = n - 1 downto 0 do
    if remaining.(v) = 0 then Stacks.push stacks 0 v
  done;
  let start_node q v time =
    proc.(v) <- q;
    seq.(v) <- !seq_counter;
    incr seq_counter;
    busy.(q) <- true;
    incr tiebreak;
    Event_heap.push events (time + Dag.work dag v) !tiebreak v
  in
  let try_acquire q time =
    if not (Stacks.is_empty stacks q) then start_node q (Stacks.pop_top stacks q) time
    else begin
      (* Steal from the bottom of a uniformly random non-empty stack:
         the candidates in ascending order, one draw among them. *)
      let k = ref 0 in
      for r = 0 to p - 1 do
        if r <> q && not (Stacks.is_empty stacks r) then begin
          victims.(!k) <- r;
          incr k
        end
      done;
      if !k > 0 then
        start_node q (Stacks.pop_bottom stacks victims.(Rng.int rng !k)) time
    end
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
  while events.Event_heap.size > 0 do
    let time = events.Event_heap.time.(0) and v = events.Event_heap.node.(0) in
    Event_heap.pop events;
    let q = proc.(v) in
    busy.(q) <- false;
    incr finished;
    for i = succ_off.(v) to succ_off.(v + 1) - 1 do
      let w = succ_tgt.(i) in
      remaining.(w) <- remaining.(w) - 1;
      if remaining.(w) = 0 then Stacks.push stacks q w
    done;
    dispatch_all time
  done;
  if !finished <> n then failwith "Cilk.run: simulation stalled (cyclic input?)";
  { Classical.proc; seq }

let schedule dag ~p ~seed = Classical.to_bsp dag (run dag ~p ~seed)
