(* Oracles for the schedule layer's allocation-free rewrites: the lazy
   communication schedule over a flat n x p first-need table, and the
   validity check over per-node (destination, phase) lists with a
   callback per edge and placement. Kept only as test oracles. *)

open Schedule

let lazy_comm dag ~proc ~step =
  let n = Dag.n dag in
  if n = 0 then []
  else begin
    let p = 1 + Array.fold_left max 0 proc in
    let first_need = Array.make (n * p) max_int in
    Dag.iter_edges dag (fun u v ->
        if proc.(u) <> proc.(v) then begin
          let idx = (u * p) + proc.(v) in
          if step.(v) < first_need.(idx) then first_need.(idx) <- step.(v)
        end);
    let acc = ref [] in
    for u = n - 1 downto 0 do
      for dst = p - 1 downto 0 do
        let s = first_need.((u * p) + dst) in
        if s <> max_int then acc := { node = u; src = proc.(u); dst; step = s - 1 } :: !acc
      done
    done;
    !acc
  end

(* The replica segment of [v]: an empty offset table has none. *)
let iter_replicas t v f =
  if Array.length t.rep_off > 0 then
    for i = t.rep_off.(v) to t.rep_off.(v + 1) - 1 do
      f t.rep_proc.(i) t.rep_step.(i)
    done

let validity_errors machine (t : Schedule.t) =
  let dag = t.dag in
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
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
  let len = Array.length t.rep_off in
  if len <> 0 && len <> n + 1 then begin
    ranges_ok := false;
    err "replica offset table has length %d, expected %d" len (n + 1)
  end
  else
    for v = 0 to n - 1 do
      let prev_q = ref (-1) in
      iter_replicas t v (fun q s ->
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
          prev_q := q)
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
    let arrival = Array.make n [] in
    List.iter (fun e -> arrival.(e.node) <- (e.dst, e.step) :: arrival.(e.node)) t.comm;
    let earliest_arrival v dst =
      List.fold_left
        (fun acc (d, s) -> if d = dst && (acc < 0 || s < acc) then s else acc)
        (-1) arrival.(v)
    in
    let present u q s =
      Schedule.placement_step_on t u q <= s
      ||
      let a = earliest_arrival u q in
      a >= 0 && a < s
    in
    Dag.iter_edges dag (fun u v ->
        let placements = (t.proc.(v), t.step.(v)) :: Schedule.replicas t v in
        List.iter
          (fun (q, s) ->
            if not (present u q s) then
              if q = t.proc.(v) && s = t.step.(v) then
                err
                  "edge (%d,%d): value of %d is not available on processor %d before superstep %d"
                  u v u q s
              else
                err
                  "edge (%d,%d): value of %d is not available for the replica of %d on processor %d at superstep %d"
                  u v u v q s)
          placements);
    List.iter
      (fun e ->
        let computed_here = Schedule.placement_step_on t e.node e.src <= e.step in
        let relayed =
          List.exists (fun (d, s) -> d = e.src && s < e.step) arrival.(e.node)
        in
        if not (computed_here || relayed) then
          err "comm event for node %d at phase %d sends from processor %d where it is not present"
            e.node e.step e.src)
      t.comm
  end;
  List.rev !errs
