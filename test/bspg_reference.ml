(* The quadratic BSPg of the first implementation, kept verbatim as the
   oracle for the differential property in test_heuristics.ml: the
   incremental Bspg must reproduce its schedules byte for byte. It
   rescores the whole ready pool after every assignment, so it is only
   fit for the small DAGs of the tests. *)

module Int_set = Set.Make (Int)

let schedule machine dag =
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let proc = Array.make n (-1) in
  let step = Array.make n (-1) in
  if n = 0 then Schedule.of_assignment dag ~proc ~step
  else begin
    let remaining = Array.init n (fun v -> Dag.in_degree dag v) in
    let ready = ref Int_set.empty in
    let ready_all = ref Int_set.empty in
    let ready_p = Array.make p Int_set.empty in
    List.iter (fun v -> ready := Int_set.add v !ready) (Dag.sources dag);
    ready_all := !ready;
    let free = Array.make p true in
    let running = Array.make p (-1) in
    let finish_time = Array.make p max_int in
    let superstep = ref 0 in
    let end_step = ref false in
    let time = ref 0 in
    let unassigned = ref n in
    (* ChooseNode score (Appendix A.2): for each predecessor u of the
       candidate with u or one of u's direct successors already on q, add
       c(u)/outdeg(u) — the expected saving from never communicating u. *)
    let succ_off = Dag.succ_offsets dag and succ_tgt = Dag.succ_targets dag in
    let pred_off = Dag.pred_offsets dag and pred_tgt = Dag.pred_targets dag in
    let score q v =
      let acc = ref 0.0 in
      for i = pred_off.(v) to pred_off.(v + 1) - 1 do
        let u = pred_tgt.(i) in
        let near = ref (proc.(u) = q) and j = ref succ_off.(u) in
        while (not !near) && !j < succ_off.(u + 1) do
          near := proc.(succ_tgt.(!j)) = q;
          incr j
        done;
        if !near then
          acc := !acc +. (float_of_int (Dag.comm dag u) /. float_of_int (Dag.out_degree dag u))
      done;
      !acc
    in
    let choose_node q =
      let candidates =
        if not (Int_set.is_empty ready_p.(q)) then ready_p.(q) else !ready_all
      in
      if Int_set.is_empty candidates then None
      else begin
        let best = ref (-1) and best_score = ref neg_infinity in
        Int_set.iter
          (fun v ->
            let s = score q v in
            if s > !best_score then begin
              best := v;
              best_score := s
            end)
          candidates;
        Some !best
      end
    in
    let assign v q =
      proc.(v) <- q;
      step.(v) <- !superstep;
      ready := Int_set.remove v !ready;
      ready_all := Int_set.remove v !ready_all;
      Array.iteri (fun r s -> ready_p.(r) <- Int_set.remove v s) ready_p;
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
          if free.(q) then
            match choose_node q with
            | Some v ->
              assign v q;
              progress := true
            | None -> ()
        done
      done
    in
    let finish_node q =
      let v = running.(q) in
      running.(q) <- (-1);
      finish_time.(q) <- max_int;
      free.(q) <- true;
      Dag.iter_succ dag v (fun u ->
          remaining.(u) <- remaining.(u) - 1;
          if remaining.(u) = 0 then begin
            ready := Int_set.add u !ready;
            (* u joins q's private pool when every predecessor is on q or
               in an earlier superstep. *)
            if Dag.for_all_pred dag u (fun u0 -> proc.(u0) = q || step.(u0) < !superstep)
            then ready_p.(q) <- Int_set.add u ready_p.(q)
          end)
    in
    while !unassigned > 0 do
      if not !end_step then assignment_round ();
      let idle = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 free in
      if (not !end_step) && Int_set.is_empty !ready_all && 2 * idle >= p then
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
        ready_all := !ready;
        Array.fill ready_p 0 p Int_set.empty;
        end_step := false;
        time := 0
      end
    done;
    Schedule.of_assignment dag ~proc ~step
  end
