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
