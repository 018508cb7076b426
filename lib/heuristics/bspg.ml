(* A binary max-heap of (score, node) entries over flat growable arrays,
   ranked by score descending, then node id ascending: the node an
   ascending scan of the pool with a strict [>] would pick. Entries are
   deleted lazily; the caller decides which ones are still live. *)
module Heap = struct
  type t = { mutable score : Float.Array.t; mutable node : int array; mutable size : int }

  let create () = { score = Float.Array.make 16 0.0; node = Array.make 16 0; size = 0 }
  let clear h = h.size <- 0

  (* Does entry (s, v) rank strictly before entry [j]? *)
  let[@inline] before h (s : float) v j =
    let sj = Float.Array.unsafe_get h.score j in
    s > sj || (s = sj && v < Array.unsafe_get h.node j)

  let[@inline] move h ~src ~dst =
    Float.Array.unsafe_set h.score dst (Float.Array.unsafe_get h.score src);
    Array.unsafe_set h.node dst (Array.unsafe_get h.node src)

  let[@inline] push h s v =
    if h.size = Array.length h.node then begin
      let cap = 2 * h.size in
      let score = Float.Array.make cap 0.0 and node = Array.make cap 0 in
      Float.Array.blit h.score 0 score 0 h.size;
      Array.blit h.node 0 node 0 h.size;
      h.score <- score;
      h.node <- node
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && before h s v ((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      move h ~src:parent ~dst:!i;
      i := parent
    done;
    Float.Array.unsafe_set h.score !i s;
    Array.unsafe_set h.node !i v

  let pop h =
    h.size <- h.size - 1;
    let last = h.size in
    let s = Float.Array.unsafe_get h.score last and v = Array.unsafe_get h.node last in
    let i = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !i) + 1 in
      if l >= last then settled := true
      else begin
        let r = l + 1 in
        let c =
          if r < last && before h (Float.Array.unsafe_get h.score r) (Array.unsafe_get h.node r) l
          then r
          else l
        in
        if before h s v c then settled := true
        else begin
          move h ~src:c ~dst:!i;
          i := c
        end
      end
    done;
    if last > 0 then begin
      Float.Array.unsafe_set h.score !i s;
      Array.unsafe_set h.node !i v
    end

  (* The top node whose [pool] tag is [tag], discarding dead entries on
     the way; -1 if none is left. *)
  let top_live h pool tag =
    while h.size > 0 && pool.(h.node.(0)) <> tag do
      pop h
    done;
    if h.size = 0 then -1 else h.node.(0)
end

(* Pool tags: a ready node sits in [ready_all] ([in_all]), in one
   processor's private pool (the processor's index), or in neither
   ([outside]: not ready, waiting for the next superstep, or assigned). *)
let in_all = -1
let outside = -2

let schedule machine dag =
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let proc = Array.make n (-1) in
  let step = Array.make n (-1) in
  if n = 0 then Schedule.of_assignment dag ~proc ~step
  else begin
    let succ_off = Dag.succ_offsets dag and succ_tgt = Dag.succ_targets dag in
    let pred_off = Dag.pred_offsets dag and pred_tgt = Dag.pred_targets dag in
    let remaining = Array.init n (fun v -> Dag.in_degree dag v) in
    (* near.[u * p + q] is set once u, or a direct successor of u, is on
       q. It only ever turns on, and only when a node is assigned. *)
    let near = Bytes.make (n * p) '\000' in
    let[@inline] is_near u q = Bytes.unsafe_get near ((u * p) + q) <> '\000' in
    (* c(u)/outdeg(u), the score term of u (sinks never contribute). *)
    let term =
      Float.Array.init n (fun u ->
          float_of_int (Dag.comm dag u) /. float_of_int (max 1 (Dag.out_degree dag u)))
    in
    (* ChooseNode score (Appendix A.2): for each predecessor u of the
       candidate with u or one of u's direct successors already on q, add
       c(u)/outdeg(u) — the expected saving from never communicating u.
       Always summed from scratch in ascending predecessor order, so equal
       inputs give bit-identical floats and hence identical tie-breaks. *)
    let[@inline] score q v =
      let acc = ref 0.0 in
      for i = pred_off.(v) to pred_off.(v + 1) - 1 do
        let u = pred_tgt.(i) in
        if is_near u q then acc := !acc +. Float.Array.unsafe_get term u
      done;
      !acc
    in
    (* The candidate pools, as heaps whose live entries are those of
       nodes still tagged with the pool in [pool]. [heap_p.(q)] holds q's
       private pool. [ready_all] is a snapshot taken when a superstep
       opens: [all_by_id] holds all its members with score 0, and
       [heap_all.(q)] those whose score for q is positive. Every score
       change pushes a fresh entry; since scores only grow, an outdated
       entry always ranks below its node's current one, so a heap's top
       live entry is the pool's best node. *)
    let pool = Array.make n outside in
    let heap_p = Array.init p (fun _ -> Heap.create ()) in
    let heap_all = Array.init p (fun _ -> Heap.create ()) in
    let all_by_id = Heap.create () in
    (* Nodes that became ready in the current superstep. *)
    let fresh = Array.make n 0 and fresh_len = ref 0 in
    (* ready_all is empty when a superstep opens (a superstep only ends
       once it is drained), so the ready nodes are exactly the unassigned
       fresh ones. *)
    let open_ready_all () =
      for q = 0 to p - 1 do
        Heap.clear heap_p.(q);
        Heap.clear heap_all.(q)
      done;
      Heap.clear all_by_id;
      for i = 0 to !fresh_len - 1 do
        let v = fresh.(i) in
        if proc.(v) < 0 then begin
          pool.(v) <- in_all;
          Heap.push all_by_id 0.0 v;
          for q = 0 to p - 1 do
            let s = score q v in
            if s > 0.0 then Heap.push heap_all.(q) s v
          done
        end
      done;
      fresh_len := 0
    in
    List.iter
      (fun v ->
        fresh.(!fresh_len) <- v;
        incr fresh_len)
      (Dag.sources dag);
    open_ready_all ();
    let free = Array.make p true in
    let running = Array.make p (-1) in
    let finish_time = Array.make p max_int in
    let superstep = ref 0 in
    let end_step = ref false in
    let time = ref 0 in
    let unassigned = ref n in
    (* Best node for q from its private pool, falling back to ready_all;
       -1 if both are empty. A ready_all member with no live entry in
       [heap_all.(q)] scores 0 for q, so the lowest such id wins when that
       heap is empty. *)
    let choose_node q =
      let v = Heap.top_live heap_p.(q) pool q in
      if v >= 0 then v
      else begin
        let v = Heap.top_live heap_all.(q) pool in_all in
        if v >= 0 then v else Heap.top_live all_by_id pool in_all
      end
    in
    (* Rescore s for q if s is one of q's candidates. *)
    let rescore q s =
      let tag = pool.(s) in
      if tag = in_all then begin
        let sc = score q s in
        if sc > 0.0 then Heap.push heap_all.(q) sc s
      end
      else if tag = q then Heap.push heap_p.(q) (score q s) s
    in
    let assign v q =
      proc.(v) <- q;
      step.(v) <- !superstep;
      pool.(v) <- outside;
      (* v's successors are not ready yet, so turning on near(v, q)
         changes no candidate's score; near(u, q) for a predecessor u
         changes the score for q of u's other successors. *)
      Bytes.unsafe_set near ((v * p) + q) '\001';
      for i = pred_off.(v) to pred_off.(v + 1) - 1 do
        let u = pred_tgt.(i) in
        if not (is_near u q) then begin
          Bytes.unsafe_set near ((u * p) + q) '\001';
          for j = succ_off.(u) to succ_off.(u + 1) - 1 do
            rescore q succ_tgt.(j)
          done
        end
      done;
      free.(q) <- false;
      running.(q) <- v;
      finish_time.(q) <- !time + Dag.work dag v;
      decr unassigned
    in
    let assignment_round () =
      let progress = ref true in
      while !progress do
        progress := false;
        for q = 0 to p - 1 do
          if free.(q) then begin
            let v = choose_node q in
            if v >= 0 then begin
              assign v q;
              progress := true
            end
          end
        done
      done
    in
    (* Is every predecessor of u on q or in an earlier superstep? *)
    let local_to q u =
      let ok = ref true and i = ref pred_off.(u) in
      while !ok && !i < pred_off.(u + 1) do
        let u0 = pred_tgt.(!i) in
        ok := proc.(u0) = q || step.(u0) < !superstep;
        incr i
      done;
      !ok
    in
    let finish_node q =
      let v = running.(q) in
      running.(q) <- (-1);
      finish_time.(q) <- max_int;
      free.(q) <- true;
      for i = succ_off.(v) to succ_off.(v + 1) - 1 do
        let u = succ_tgt.(i) in
        remaining.(u) <- remaining.(u) - 1;
        if remaining.(u) = 0 then begin
          fresh.(!fresh_len) <- u;
          incr fresh_len;
          (* u joins q's private pool when every predecessor is on q or
             in an earlier superstep. *)
          if local_to q u then begin
            pool.(u) <- q;
            Heap.push heap_p.(q) (score q u) u
          end
        end
      done
    in
    while !unassigned > 0 do
      if not !end_step then assignment_round ();
      let idle = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 free in
      if (not !end_step) && Heap.top_live all_by_id pool in_all < 0 && 2 * idle >= p then
        end_step := true;
      let any_busy = Array.exists not free in
      if any_busy then begin
        let t = Array.fold_left min max_int finish_time in
        time := t;
        for q = 0 to p - 1 do
          if (not free.(q)) && finish_time.(q) = t then finish_node q
        done
      end
      else if !unassigned > 0 then begin
        (* Nothing running and nothing assignable: open the next
           superstep, making every ready node available everywhere. *)
        incr superstep;
        open_ready_all ();
        end_step := false;
        time := 0
      end
    done;
    Schedule.of_assignment dag ~proc ~step
  end
