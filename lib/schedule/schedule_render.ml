let to_string ?(max_nodes_per_cell = 6) machine (t : Schedule.t) =
  let buf = Buffer.create 1024 in
  let p = machine.Machine.p in
  let num_steps = Schedule.num_supersteps t in
  let b = Bsp_cost.breakdown machine t in
  let replica_note =
    if Schedule.has_replicas t then
      Printf.sprintf ", %d replicas" (Schedule.num_replicas t)
    else ""
  in
  Buffer.add_string buf
    (Printf.sprintf "schedule: %d nodes, %d supersteps, %d processors, cost %d%s\n"
       (Dag.n t.Schedule.dag) num_steps p b.Bsp_cost.total replica_note);
  (* Per-processor utilisation summary, from the attribution profile. *)
  let prof = Profile.compute machine t in
  for q = 0 to p - 1 do
    Buffer.add_string buf
      (Printf.sprintf "  p%-3d util %5.1f%%  work %-6d idle %-6d send %-6d recv %d\n" q
         (100.0 *. Profile.work_utilisation prof q)
         prof.Profile.proc_work.(q) prof.Profile.proc_idle.(q) prof.Profile.proc_send.(q)
         prof.Profile.proc_recv.(q))
  done;
  (* Nodes per (superstep, processor); replica placements are rendered
     with an [r] suffix after the primary copies of the same node. *)
  let cells = Array.make_matrix num_steps p [] in
  for v = 0 to Dag.n t.Schedule.dag - 1 do
    cells.(t.Schedule.step.(v)).(t.Schedule.proc.(v)) <-
      string_of_int v :: cells.(t.Schedule.step.(v)).(t.Schedule.proc.(v));
    Schedule.iter_replicas t v (fun q s ->
        cells.(s).(q) <- (string_of_int v ^ "r") :: cells.(s).(q))
  done;
  let cells = Array.map (Array.map List.rev) cells in
  let cell_text nodes =
    let shown = List.filteri (fun i _ -> i < max_nodes_per_cell) nodes in
    let body = String.concat "," shown in
    if List.length nodes > max_nodes_per_cell then body ^ ".." else body
  in
  for s = 0 to num_steps - 1 do
    let c = b.Bsp_cost.supersteps.(s) in
    Buffer.add_string buf
      (Printf.sprintf "superstep %d  (work %d, h-relation %d, cost %d)\n" s
         c.Bsp_cost.work_max c.Bsp_cost.comm_max c.Bsp_cost.cost);
    for q = 0 to p - 1 do
      let nodes = cells.(s).(q) in
      if nodes <> [] then
        Buffer.add_string buf (Printf.sprintf "  p%-3d: %s\n" q (cell_text nodes))
    done;
    let events =
      List.filter (fun (e : Schedule.comm_event) -> e.step = s) t.Schedule.comm
    in
    if events <> [] then begin
      let shown = List.filteri (fun i _ -> i < max_nodes_per_cell) events in
      let body =
        String.concat ", "
          (List.map
             (fun (e : Schedule.comm_event) ->
               Printf.sprintf "%d:%d->%d" e.node e.src e.dst)
             shown)
      in
      let suffix = if List.length events > max_nodes_per_cell then ", .." else "" in
      Buffer.add_string buf (Printf.sprintf "  comm: %s%s\n" body suffix)
    end
  done;
  Buffer.contents buf
