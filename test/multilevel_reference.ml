(* The uncoarsening loop of the first implementation, kept as the oracle
   for the refinement-skip property in test_multilevel.ml: it builds a
   quotient and runs HC after every chunk of uncontractions, even once
   the budget is spent and every pass is a no-op. Multilevel.run_ratio
   must reproduce its schedules byte for byte. *)

let refine_level ?budget ~refine_moves session machine ~proc_of ~step_of =
  let qdag, rep_of_id = Coarsen.quotient session in
  let nq = Dag.n qdag in
  let proc = Array.init nq (fun i -> proc_of.(rep_of_id.(i))) in
  let step = Array.init nq (fun i -> step_of.(rep_of_id.(i))) in
  let sched = Schedule.of_assignment qdag ~proc ~step in
  let improved, _ = Hc.improve ?budget ~max_moves:refine_moves machine sched in
  Array.iteri
    (fun i r ->
      proc_of.(r) <- improved.Schedule.proc.(i);
      step_of.(r) <- improved.Schedule.step.(i))
    rep_of_id

let run_ratio ?budget ?(strategy = Coarsen.Paper_rule) ~refine_interval ~refine_moves
    ~solver ~ratio machine dag =
  let n = Dag.n dag in
  let target = max 2 (int_of_float (ratio *. float_of_int n)) in
  let session = Coarsen.start dag in
  Coarsen.coarsen_to ~strategy session ~target;
  let qdag, rep_of_id = Coarsen.quotient session in
  let coarse = solver machine qdag in
  let proc_of = Array.make n 0 in
  let step_of = Array.make n 0 in
  Array.iteri
    (fun i r ->
      proc_of.(r) <- coarse.Schedule.proc.(i);
      step_of.(r) <- coarse.Schedule.step.(i))
    rep_of_id;
  let remaining = ref (Coarsen.num_contractions session) in
  while !remaining > 0 do
    let chunk = min refine_interval !remaining in
    for _ = 1 to chunk do
      match Coarsen.undo_last session with
      | Some { Coarsen.kept; removed } ->
        proc_of.(removed) <- proc_of.(kept);
        step_of.(removed) <- step_of.(kept)
      | None -> ()
    done;
    remaining := !remaining - chunk;
    refine_level ?budget ~refine_moves session machine ~proc_of ~step_of
  done;
  Schedule.compact (Schedule.of_assignment dag ~proc:proc_of ~step:step_of)
