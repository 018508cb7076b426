type variant = Bl_est | Etf

(* Communication delay charged when the consumer sits on a different
   processor than producer [u]. Baselines price NUMA with the average
   coefficient (Appendix A.1); for uniform machines this is exactly
   [g * c u]. *)
let comm_delay machine dag u =
  let avg = Machine.average_lambda machine in
  float_of_int (machine.Machine.g * Dag.comm dag u) *. avg

let run variant machine dag =
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let bl = Dag.bottom_level dag ~comm_factor:machine.Machine.g in
  let topo_rank = Dag.topological_rank dag in
  let finish = Array.make n 0.0 in
  let proc = Array.make n 0 in
  let start = Array.make n 0.0 in
  let scheduled = Array.make n false in
  let proc_avail = Array.make p 0.0 in
  let remaining = Array.init n (fun v -> Dag.in_degree dag v) in
  let ready = ref [] in
  for v = n - 1 downto 0 do
    if remaining.(v) = 0 then ready := v :: !ready
  done;
  let est v q =
    let data_ready =
      Dag.fold_pred dag v ~init:0.0 (fun acc u ->
          let arrival =
            if proc.(u) = q then finish.(u)
            else finish.(u) +. comm_delay machine dag u
          in
          Float.max acc arrival)
    in
    Float.max proc_avail.(q) data_ready
  in
  let best_proc v =
    let best = ref 0 and best_est = ref (est v 0) in
    for q = 1 to p - 1 do
      let e = est v q in
      if e < !best_est then begin
        best := q;
        best_est := e
      end
    done;
    (!best, !best_est)
  in
  let commit v q t =
    scheduled.(v) <- true;
    proc.(v) <- q;
    start.(v) <- t;
    finish.(v) <- t +. float_of_int (Dag.work dag v);
    proc_avail.(q) <- finish.(v);
    ready := List.filter (fun x -> x <> v) !ready;
    Dag.iter_succ dag v (fun w ->
        remaining.(w) <- remaining.(w) - 1;
        if remaining.(w) = 0 then ready := w :: !ready)
  in
  let pick_bl_est () =
    match !ready with
    | [] -> ()
    | r ->
      let v =
        List.fold_left
          (fun best x ->
            if bl.(x) > bl.(best) || (bl.(x) = bl.(best) && x < best) then x else best)
          (List.hd r) r
      in
      let q, t = best_proc v in
      commit v q t
  in
  let pick_etf () =
    match !ready with
    | [] -> ()
    | r ->
      let choice =
        List.fold_left
          (fun acc v ->
            let q, t = best_proc v in
            match acc with
            | None -> Some (v, q, t)
            | Some (v0, _, t0) ->
              if t < t0 || (t = t0 && bl.(v) > bl.(v0)) then Some (v, q, t) else acc)
          None r
      in
      (match choice with
       | Some (v, q, t) -> commit v q t
       | None -> ())
  in
  let steps = ref 0 in
  while !ready <> [] do
    (match variant with Bl_est -> pick_bl_est () | Etf -> pick_etf ());
    incr steps
  done;
  if !steps <> n then failwith "List_scheduler: not all nodes scheduled";
  (* Sequence = order by (start time, topological rank): consistent with
     both precedence and each processor's local execution order. *)
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun a b ->
      let c = compare start.(a) start.(b) in
      if c <> 0 then c else compare topo_rank.(a) topo_rank.(b))
    order;
  let seq = Array.make n 0 in
  Array.iteri (fun i v -> seq.(v) <- i) order;
  { Classical.proc; seq }

let schedule variant machine dag = Classical.to_bsp dag (run variant machine dag)
