(* Discrete-event simulation. Events are node completions ordered by
   (time, tiebreak counter); processing an event releases successors and
   then lets idle processors pick up work. *)

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
