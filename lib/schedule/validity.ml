open Schedule

let errors machine (t : Schedule.t) =
  let dag = t.dag in
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* Range checks first; later checks assume indices are usable. *)
  let ranges_ok = ref true in
  for v = 0 to n - 1 do
    if t.proc.(v) < 0 || t.proc.(v) >= p then begin
      ranges_ok := false;
      err "node %d assigned to processor %d outside [0, %d)" v t.proc.(v) p
    end;
    if t.step.(v) < 0 then begin
      ranges_ok := false;
      err "node %d assigned to negative superstep %d" v t.step.(v)
    end
  done;
  (* A replica-free schedule has an empty offset table (see
     {!Schedule.t}); any other table has one entry per node, plus one. *)
  let rep_len = Array.length t.rep_off in
  if rep_len <> 0 && rep_len <> n + 1 then begin
    ranges_ok := false;
    err "replica offset table has length %d, expected %d" rep_len (n + 1)
  end
  else if rep_len > 0 then
    for v = 0 to n - 1 do
      let prev_q = ref (-1) in
      for i = t.rep_off.(v) to t.rep_off.(v + 1) - 1 do
        let q = t.rep_proc.(i) and s = t.rep_step.(i) in
        if q < 0 || q >= p then begin
          ranges_ok := false;
          err "replica of node %d on processor %d outside [0, %d)" v q p
        end;
        if s < 0 then begin
          ranges_ok := false;
          err "replica of node %d at negative superstep %d" v s
        end;
        if q = t.proc.(v) then begin
          ranges_ok := false;
          err "replica of node %d duplicates its primary processor %d" v q
        end;
        if q = !prev_q then begin
          ranges_ok := false;
          err "node %d has duplicate replicas on processor %d" v q
        end;
        prev_q := q
      done
    done;
  List.iter
    (fun e ->
      if e.node < 0 || e.node >= n then begin
        ranges_ok := false;
        err "comm event for unknown node %d" e.node
      end;
      if e.src < 0 || e.src >= p || e.dst < 0 || e.dst >= p then begin
        ranges_ok := false;
        err "comm event for node %d uses processor outside [0, %d)" e.node p
      end;
      if e.src = e.dst then begin
        ranges_ok := false;
        err "comm event for node %d sends from processor %d to itself" e.node e.src
      end;
      if e.step < 0 then begin
        ranges_ok := false;
        err "comm event for node %d uses negative phase %d" e.node e.step
      end)
    t.comm;
  if !ranges_ok then begin
    (* The events grouped by node in flat CSR arrays: node v's
       (destination, phase) pairs sit at [arr_dst]/[arr_step] indices
       [off.(v) .. off.(v + 1) - 1]. A counting sort over [n + 2]
       offsets fills them in list order, so the valid path allocates
       O(n + events) words and no per-node list or per-edge closure. *)
    let off = Array.make (n + 2) 0 in
    List.iter (fun e -> off.(e.node + 2) <- off.(e.node + 2) + 1) t.comm;
    for v = 2 to n + 1 do
      off.(v) <- off.(v) + off.(v - 1)
    done;
    let m = off.(n + 1) in
    let arr_dst = Array.make m 0 and arr_step = Array.make m 0 in
    List.iter
      (fun e ->
        let i = off.(e.node + 1) in
        arr_dst.(i) <- e.dst;
        arr_step.(i) <- e.step;
        off.(e.node + 1) <- i + 1)
      t.comm;
    (* The earliest phase in which some event delivers [v] to [dst], or
       -1 if none does. *)
    let earliest_arrival v dst =
      let best = ref (-1) in
      for i = off.(v) to off.(v + 1) - 1 do
        if arr_dst.(i) = dst && (!best < 0 || arr_step.(i) < !best) then
          best := arr_step.(i)
      done;
      !best
    in
    (* Condition 1: precedence constraints, for every placement of the
       consumer. The value of u is present on processor q at superstep s
       when some placement (primary or replica) of u sits on q at a step
       <= s, or some event delivered it to q in a phase < s. Replicas
       are consumers too: each must have all its inputs available. *)
    let present u q s =
      Schedule.placement_step_on t u q <= s
      ||
      let a = earliest_arrival u q in
      a >= 0 && a < s
    in
    (* Edges in [Dag.iter_edges] order, each consumer's primary first,
       then its replicas (the range checks ruled out a replica on the
       primary's processor). *)
    let soff = Dag.succ_offsets dag and stgt = Dag.succ_targets dag in
    for u = 0 to n - 1 do
      for i = soff.(u) to soff.(u + 1) - 1 do
        let v = stgt.(i) in
        let q = t.proc.(v) and s = t.step.(v) in
        if not (present u q s) then
          err "edge (%d,%d): value of %d is not available on processor %d before superstep %d"
            u v u q s;
        if rep_len > 0 then
          for j = t.rep_off.(v) to t.rep_off.(v + 1) - 1 do
            let q = t.rep_proc.(j) and s = t.rep_step.(j) in
            if not (present u q s) then
              err
                "edge (%d,%d): value of %d is not available for the replica of %d on processor %d at superstep %d"
                u v u v q s
          done
      done
    done;
    (* Condition 2: every sent value is present at its source. An event
       (v, p1, p2, s) needs a placement of v on p1 with tau <= s, or an
       earlier event delivering v to p1. *)
    List.iter
      (fun e ->
        let computed_here = Schedule.placement_step_on t e.node e.src <= e.step in
        let relayed =
          let a = earliest_arrival e.node e.src in
          a >= 0 && a < e.step
        in
        if not (computed_here || relayed) then
          err "comm event for node %d at phase %d sends from processor %d where it is not present"
            e.node e.step e.src)
      t.comm
  end;
  List.rev !errs

let check machine t =
  match errors machine t with [] -> Ok () | errs -> Error errs

let is_valid machine t = errors machine t = []
