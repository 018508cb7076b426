open Schedule

type superstep = {
  work : int array;
  send : int array;
  recv : int array;
  work_max : int;
  work_bottleneck : int;
  comm_max : int;
  comm_bottleneck : int;
  work_imbalance : float;
  comm_imbalance : float;
  idle : int array;
  cost : int;
}

type t = {
  p : int;
  num_supersteps : int;
  supersteps : superstep array;
  proc_work : int array;
  proc_send : int array;
  proc_recv : int array;
  proc_idle : int array;
  traffic : int array array;
  work_total : int;
  comm_total : int;
  latency_total : int;
  total : int;
  node_work : int;
  critical_path_work : int;
  work_floor : int;
  lower_bound : int;
  num_replicas : int;
  replica_work : int;
}

(* max / mean over all p entries; 1.0 when the phase is empty so a
   workless superstep does not read as infinitely imbalanced. *)
let imbalance values vmax =
  let sum = Array.fold_left ( + ) 0 values in
  if sum = 0 then 1.0
  else float_of_int (vmax * Array.length values) /. float_of_int sum

let argmax values =
  let best = ref (-1) and best_v = ref 0 in
  Array.iteri
    (fun q v ->
      if v > !best_v then begin
        best := q;
        best_v := v
      end)
    values;
  !best

let compute machine (t : Schedule.t) =
  let p = machine.Machine.p in
  let num_steps = num_supersteps t in
  let work, send, recv = Bsp_cost.tables machine t ~num_steps in
  let traffic = Array.make_matrix p p 0 in
  List.iter
    (fun (e : comm_event) ->
      if e.step < num_steps then
        traffic.(e.src).(e.dst) <-
          traffic.(e.src).(e.dst) + (Dag.comm t.dag e.node * Machine.lambda machine e.src e.dst))
    t.comm;
  let supersteps =
    Array.init num_steps (fun s ->
        let h = Array.init p (fun q -> max send.(s).(q) recv.(s).(q)) in
        let work_max = Array.fold_left max 0 work.(s) in
        let comm_max = Array.fold_left max 0 h in
        {
          work = work.(s);
          send = send.(s);
          recv = recv.(s);
          work_max;
          work_bottleneck = argmax work.(s);
          comm_max;
          comm_bottleneck = argmax h;
          work_imbalance = imbalance work.(s) work_max;
          comm_imbalance = imbalance h comm_max;
          idle = Array.map (fun w -> work_max - w) work.(s);
          cost = Bsp_cost.superstep_cost machine ~work_max ~comm_max;
        })
  in
  let per_proc of_step =
    Array.init p (fun q ->
        Array.fold_left (fun acc (ss : superstep) -> acc + (of_step ss).(q)) 0 supersteps)
  in
  let work_total =
    Array.fold_left (fun acc ss -> acc + ss.work_max) 0 supersteps
  in
  let comm_total =
    Array.fold_left (fun acc ss -> acc + (machine.Machine.g * ss.comm_max)) 0 supersteps
  in
  let latency_total = num_steps * machine.Machine.l in
  let node_work = Dag.total_work t.dag in
  let critical_path_work = Dag.critical_path_work t.dag in
  (* Replication recomputes nodes, so the work attributed across
     processors exceeds [node_work] by [replica_work]; the work floor
     stays a valid lower bound (every node is computed at least once,
     and chains still execute sequentially). *)
  let num_replicas = Schedule.num_replicas t in
  let replica_work = ref 0 in
  if num_replicas > 0 then
    for v = 0 to Dag.n t.dag - 1 do
      let wv = Dag.work t.dag v in
      Schedule.iter_replicas t v (fun _ _ -> replica_work := !replica_work + wv)
    done;
  let replica_work = !replica_work in
  let work_floor = max ((node_work + p - 1) / p) critical_path_work in
  {
    p;
    num_supersteps = num_steps;
    supersteps;
    proc_work = per_proc (fun ss -> ss.work);
    proc_send = per_proc (fun ss -> ss.send);
    proc_recv = per_proc (fun ss -> ss.recv);
    proc_idle = per_proc (fun ss -> ss.idle);
    traffic;
    work_total;
    comm_total;
    latency_total;
    total = work_total + comm_total + latency_total;
    node_work;
    critical_path_work;
    work_floor;
    lower_bound = (if Dag.n t.dag = 0 then 0 else work_floor + machine.Machine.l);
    num_replicas;
    replica_work;
  }

let gap_ratio t =
  if t.lower_bound = 0 then 1.0 else float_of_int t.total /. float_of_int t.lower_bound

let work_utilisation t q =
  if t.work_total = 0 then 0.0
  else float_of_int t.proc_work.(q) /. float_of_int t.work_total

let reconcile t (b : Bsp_cost.breakdown) =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let steps_b = Array.length b.Bsp_cost.supersteps in
  if t.num_supersteps <> steps_b then
    err "superstep count: profile %d, breakdown %d" t.num_supersteps steps_b
  else begin
    let mismatch = ref None in
    Array.iteri
      (fun s (ss : superstep) ->
        if !mismatch = None then begin
          let bs = b.Bsp_cost.supersteps.(s) in
          if ss.work_max <> bs.Bsp_cost.work_max then
            mismatch :=
              Some
                (Printf.sprintf "superstep %d work_max: profile %d, breakdown %d" s
                   ss.work_max bs.Bsp_cost.work_max)
          else if ss.comm_max <> bs.Bsp_cost.comm_max then
            mismatch :=
              Some
                (Printf.sprintf "superstep %d comm_max: profile %d, breakdown %d" s
                   ss.comm_max bs.Bsp_cost.comm_max)
          else if ss.cost <> bs.Bsp_cost.cost then
            mismatch :=
              Some
                (Printf.sprintf "superstep %d cost: profile %d, breakdown %d" s ss.cost
                   bs.Bsp_cost.cost)
        end)
      t.supersteps;
    match !mismatch with
    | Some m -> Error m
    | None ->
      if t.work_total <> b.Bsp_cost.work_total then
        err "work_total: profile %d, breakdown %d" t.work_total b.Bsp_cost.work_total
      else if t.comm_total <> b.Bsp_cost.comm_total then
        err "comm_total: profile %d, breakdown %d" t.comm_total b.Bsp_cost.comm_total
      else if t.latency_total <> b.Bsp_cost.latency_total then
        err "latency_total: profile %d, breakdown %d" t.latency_total
          b.Bsp_cost.latency_total
      else if t.total <> b.Bsp_cost.total then
        err "total: profile %d, breakdown %d" t.total b.Bsp_cost.total
      else Ok ()
  end

let pp fmt t =
  let pct x = 100.0 *. x in
  Format.fprintf fmt "profile: P=%d, %d supersteps, cost %d (work %d + comm %d + latency %d)@\n"
    t.p t.num_supersteps t.total t.work_total t.comm_total t.latency_total;
  Format.fprintf fmt
    "lower bound %d (work floor %d = max(ceil(%d/%d), critical path %d) + latency), gap %.2fx@\n"
    t.lower_bound t.work_floor t.node_work t.p t.critical_path_work (gap_ratio t);
  if t.num_replicas > 0 then
    Format.fprintf fmt "replication: %d replicas recomputing %d work units@\n"
      t.num_replicas t.replica_work;
  Format.fprintf fmt "per-processor totals:@\n";
  for q = 0 to t.p - 1 do
    Format.fprintf fmt "  p%-3d work %-8d (util %5.1f%%)  idle %-8d send %-8d recv %d@\n" q
      t.proc_work.(q)
      (pct (work_utilisation t q))
      t.proc_idle.(q) t.proc_send.(q) t.proc_recv.(q)
  done;
  let traffic_volume =
    Array.fold_left (fun acc row -> Array.fold_left ( + ) acc row) 0 t.traffic
  in
  if traffic_volume > 0 then
    if t.p <= 16 then begin
      Format.fprintf fmt "traffic matrix (c(v)*lambda units, rows = src, cols = dst):@\n";
      Format.fprintf fmt "      ";
      for q = 0 to t.p - 1 do
        Format.fprintf fmt " %6s" (Printf.sprintf "p%d" q)
      done;
      Format.fprintf fmt "@\n";
      for src = 0 to t.p - 1 do
        Format.fprintf fmt "  p%-4d" src;
        for dst = 0 to t.p - 1 do
          if t.traffic.(src).(dst) = 0 then Format.fprintf fmt " %6s" "."
          else Format.fprintf fmt " %6d" t.traffic.(src).(dst)
        done;
        Format.fprintf fmt "@\n"
      done
    end
    else
      Format.fprintf fmt "traffic matrix: %d units total (elided, P > 16)@\n" traffic_volume;
  Format.fprintf fmt "per-superstep attribution:@\n";
  Array.iteri
    (fun s (ss : superstep) ->
      let idle_total = Array.fold_left ( + ) 0 ss.idle in
      Format.fprintf fmt
        "  s%-3d cost %-7d work %-6d (bottleneck %s, imbalance %.2f)  h %-6d (bottleneck \
         %s, imbalance %.2f)  idle %d@\n"
        s ss.cost ss.work_max
        (if ss.work_bottleneck < 0 then "-" else Printf.sprintf "p%d" ss.work_bottleneck)
        ss.work_imbalance ss.comm_max
        (if ss.comm_bottleneck < 0 then "-" else Printf.sprintf "p%d" ss.comm_bottleneck)
        ss.comm_imbalance idle_total)
    t.supersteps
