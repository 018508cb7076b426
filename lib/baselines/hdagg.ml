(* Places the nodes [order.(first .. stop-1)] of one wavefront, heaviest
   first. [load] and [score] are rows of [p] reused across wavefronts
   and nodes; [score] is all zeros between nodes. *)
let assign_wavefront dag ~p ~proc ~load ~score order first stop =
  (* Load cap: average work per processor in this wavefront, with 10%
     slack, but never below the largest single node. *)
  let total = ref 0 and max_w = ref 0 in
  for k = first to stop - 1 do
    let w = Dag.work dag order.(k) in
    total := !total + w;
    if w > !max_w then max_w := w
  done;
  let cap = max !max_w ((!total + p - 1) / p * 11 / 10) in
  Array.fill load 0 p 0;
  let pred_off = Dag.pred_offsets dag and pred_tgt = Dag.pred_targets dag in
  for k = first to stop - 1 do
    let v = order.(k) in
    let w = Dag.work dag v in
    for i = pred_off.(v) to pred_off.(v + 1) - 1 do
      let u = pred_tgt.(i) in
      score.(proc.(u)) <- score.(proc.(u)) + Dag.comm dag u
    done;
    (* Preferred processor: largest predecessor affinity among those
       with remaining capacity; fall back to the least-loaded one. *)
    let best = ref (-1) in
    for q = p - 1 downto 0 do
      if load.(q) + w <= cap then
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
    load.(q) <- load.(q) + w;
    for i = pred_off.(v) to pred_off.(v + 1) - 1 do
      score.(proc.(pred_tgt.(i))) <- 0
    done
  done

(* One stable counting pass: [dst] gets the nodes of [src] ordered by
   [key.(v)], a bucket in [0, buckets), with ties in their [src] order.
   [count] has at least [buckets + 1] cells. *)
let counting_pass ~src ~dst ~key ~count buckets =
  Array.fill count 0 (buckets + 1) 0;
  Array.iter (fun v -> count.(key.(v) + 1) <- count.(key.(v) + 1) + 1) src;
  for k = 1 to buckets do
    count.(k) <- count.(k) + count.(k - 1)
  done;
  Array.iter
    (fun v ->
      dst.(count.(key.(v))) <- v;
      count.(key.(v)) <- count.(key.(v)) + 1)
    src

(* All nodes in placement order: by wavefront, and inside one heavier
   nodes first, which gives the balancing step more freedom; ids break
   ties. A least-significant-digit radix sort from id order, whose
   passes are all stable: one per byte of the largest work (each byte
   inverted, so heavier comes first), then one by wavefront. *)
let placement_order dag level ~num_levels =
  let n = Dag.n dag in
  let src = ref (Array.init n Fun.id) and dst = ref (Array.make n 0) in
  let key = Array.make n 0 and count = Array.make (max 257 (num_levels + 1)) 0 in
  let pass buckets =
    counting_pass ~src:!src ~dst:!dst ~key ~count buckets;
    let t = !src in
    src := !dst;
    dst := t
  in
  let max_w = ref 0 in
  for v = 0 to n - 1 do
    if Dag.work dag v > !max_w then max_w := Dag.work dag v
  done;
  let shift = ref 0 in
  while !shift < Sys.int_size && !max_w lsr !shift > 0 do
    for v = 0 to n - 1 do
      key.(v) <- 255 - ((Dag.work dag v lsr !shift) land 255)
    done;
    pass 256;
    shift := !shift + 8
  done;
  Array.blit level 0 key 0 n;
  pass num_levels;
  !src

let schedule ?(aggregate = true) machine dag =
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let level = Dag.wavefronts dag in
  let num_levels = ref 0 in
  Array.iter (fun l -> if l >= !num_levels then num_levels := l + 1) level;
  let num_levels = !num_levels in
  let order = placement_order dag level ~num_levels in
  let proc = Array.make n 0 in
  let load = Array.make p 0 and score = Array.make p 0 in
  let first = ref 0 in
  while !first < n do
    let stop = ref (!first + 1) in
    while !stop < n && level.(order.(!stop)) = level.(order.(!first)) do
      incr stop
    done;
    assign_wavefront dag ~p ~proc ~load ~score order !first !stop;
    first := !stop
  done;
  let wavefront_schedule = Schedule.of_assignment dag ~proc ~step:level in
  if aggregate then Superstep_merge.greedy machine wavefront_schedule
  else wavefront_schedule
