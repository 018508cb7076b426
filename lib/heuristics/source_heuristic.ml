(* Union-find for the first-superstep clustering of original sources.
   [union] links the smaller root under the larger, so a cluster's root
   is its largest member whatever order the unions come in. *)
module Union_find = struct
  let create n = Array.init n (fun i -> i)

  let rec find t x = if t.(x) = x then x else find t t.(x)

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then t.(min ra rb) <- max ra rb
end

let schedule machine dag =
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let proc = Array.make n (-1) in
  let step = Array.make n (-1) in
  let succ_off = Dag.succ_offsets dag and succ_tgt = Dag.succ_targets dag in
  let pred_off = Dag.pred_offsets dag and pred_tgt = Dag.pred_targets dag in
  let remaining = Array.make n 0 in
  (* [ready.(0 .. ready_len - 1)]: the unassigned nodes whose
     predecessors have all been released, i.e. the next superstep's
     sources; [release] appends each node as its count reaches zero. *)
  let ready = Array.make n 0 in
  let ready_len = ref 0 in
  for v = 0 to n - 1 do
    remaining.(v) <- pred_off.(v + 1) - pred_off.(v);
    if remaining.(v) = 0 then begin
      ready.(!ready_len) <- v;
      incr ready_len
    end
  done;
  let unassigned = ref n in
  let superstep = ref 0 in
  let rr = ref 0 in
  let assign v q =
    proc.(v) <- q;
    step.(v) <- !superstep;
    decr unassigned
  in
  let release v =
    for i = succ_off.(v) to succ_off.(v + 1) - 1 do
      let u = succ_tgt.(i) in
      remaining.(u) <- remaining.(u) - 1;
      if remaining.(u) = 0 && proc.(u) < 0 then begin
        ready.(!ready_len) <- u;
        incr ready_len
      end
    done
  in
  let all_preds_on u q =
    let i = ref pred_off.(u) and stop = pred_off.(u + 1) in
    while !i < stop && proc.(pred_tgt.(!i)) = q do
      incr i
    done;
    !i = stop
  in
  while !unassigned > 0 do
    (* This superstep's sources in increasing id order (merge sort:
       [Array.sort]'s heap sort made Source slower than the O(n)
       rescan it replaces on 1.5k-node inputs). *)
    let sources = Array.sub ready 0 !ready_len in
    Array.stable_sort Int.compare sources;
    ready_len := 0;
    if !superstep = 0 then begin
      (* Cluster sources sharing a direct successor ([owner.(w)] is the
         first source seen with successor w), then deal whole clusters
         round-robin in increasing order of their roots. *)
      let uf = Union_find.create n in
      let owner = Array.make n (-1) in
      Array.iter
        (fun v ->
          for i = succ_off.(v) to succ_off.(v + 1) - 1 do
            let w = succ_tgt.(i) in
            if owner.(w) >= 0 then Union_find.union uf owner.(w) v else owner.(w) <- v
          done)
        sources;
      (* A root is a source, so visiting the sources in order visits the
         roots in order; [owner] now holds each root's processor. *)
      Array.iter
        (fun v ->
          if Union_find.find uf v = v then begin
            owner.(v) <- !rr;
            rr := (!rr + 1) mod p
          end)
        sources;
      Array.iter (fun v -> assign v owner.(Union_find.find uf v)) sources
    end
    else begin
      let ordered = Array.copy sources in
      Array.stable_sort
        (fun a b ->
          let c = Int.compare (Dag.work dag b) (Dag.work dag a) in
          if c <> 0 then c else Int.compare a b)
        ordered;
      Array.iter
        (fun v ->
          assign v !rr;
          rr := (!rr + 1) mod p)
        ordered
    end;
    (* Absorb direct successors whose predecessors all landed on a single
       processor; the new edges stay processor-local so the node can join
       the same superstep. *)
    Array.iter
      (fun v ->
        for i = succ_off.(v) to succ_off.(v + 1) - 1 do
          let u = succ_tgt.(i) in
          if proc.(u) < 0 && all_preds_on u proc.(v) then begin
            assign u proc.(v);
            release u
          end
        done)
      sources;
    Array.iter release sources;
    incr superstep
  done;
  Schedule.of_assignment dag ~proc ~step
