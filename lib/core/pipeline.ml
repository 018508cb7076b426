type limits = {
  hc_evals : int;
  hccs_evals : int;
  ilp_full_max_vars : int;
  ilp_full_nodes : int;
  ilp_part_max_vars : int;
  ilp_part_nodes : int;
  ilp_init_max_vars : int;
  ilp_init_nodes : int;
  ilp_cs_max_vars : int;
  ilp_cs_nodes : int;
  use_ilp : bool;
  use_ilp_init : bool;
  stage_seconds : float option;
  hc_check : bool;
  hc_shards : int;
}

let thorough_limits =
  {
    hc_evals = 2_000_000;
    hccs_evals = 500_000;
    ilp_full_max_vars = 400;
    ilp_full_nodes = 8_000;
    ilp_part_max_vars = 260;
    ilp_part_nodes = 500;
    ilp_init_max_vars = 160;
    ilp_init_nodes = 120;
    ilp_cs_max_vars = 260;
    ilp_cs_nodes = 1_000;
    use_ilp = true;
    use_ilp_init = true;
    stage_seconds = Some 30.0;
    hc_check = false;
    hc_shards = 1;
  }

type stage_costs = {
  best_init_name : string;
  init_cost : int;
  after_local_search : int;
  after_ilp_part : int;
  final_cost : int;
  ilp_full_optimal : bool;
}

(* The paper runs ILPinit only for P = 4 and small DAGs (Appendix C.1,
   Tables 4-5). Outside that policy its candidate never strictly won in
   any measured run, and as the last candidate it loses every tie. *)
let ilp_init_pays machine dag = machine.Machine.p = 4 && Dag.n dag <= 600

let stage_budget limits evals =
  match limits.stage_seconds with
  | None -> Budget.steps evals
  | Some s -> Budget.combine (Budget.steps evals) (Budget.seconds s)

(* HC followed by HCcs — the paper's HC+HCcs block, with the 90/10 split
   of the time budget realised through the two eval caps. A greedy
   superstep-merge pass in between crosses the plateau single-node moves
   cannot (emptying a superstep is cost-neutral move by move). *)
let local_search ?(label = "init") limits machine sched =
  (* Stage budgets are hoisted out of the spans so each span's
     [steps_used] is exactly the stage's consumption of its own fresh
     budget (deadline clocks start at creation, so create late). *)
  let hc_budget = stage_budget limits limits.hc_evals in
  let hc, _ =
    Obs.Metrics.with_span ~budget:hc_budget ("hc:" ^ label) (fun () ->
        Hc.improve ~check:limits.hc_check ~budget:hc_budget machine sched)
  in
  let hc =
    Obs.Metrics.with_span ("merge:" ^ label) (fun () ->
        Superstep_merge.greedy machine (Schedule.compact hc))
  in
  let hccs_budget = stage_budget limits limits.hccs_evals in
  let hccs, stats =
    Obs.Metrics.with_span ~budget:hccs_budget ("hccs:" ^ label) (fun () ->
        Hccs.improve ~budget:hccs_budget machine hc)
  in
  (hccs, stats.Hccs.final_cost)

let cost machine s = Bsp_cost.total machine s

(* ILPcs, the one call of the communication-schedule ILP: the last ILP
   stage of a full pipeline, and the last stage of a multilevel pass's
   polish. *)
let ilp_cs ~label limits machine sched =
  let cs_budget = stage_budget limits limits.ilp_cs_nodes in
  Obs.Metrics.with_span ~budget:cs_budget label (fun () ->
      Ilp_schedulers.comm_schedule ~budget:cs_budget ~max_vars:limits.ilp_cs_max_vars
        ~max_nodes:limits.ilp_cs_nodes machine sched)

(* The stages of Figure 3. A [coarse] run is a multilevel coarse solve
   (Figure 4): it has no trivial candidate and no ILPcs, which runs once
   on the uncoarsened schedule instead ([polish_comm]). *)
let run_stages ?(extra_inits = []) ~limits ~coarse machine dag =
  (* Each candidate is (name, step cap of its own budget if it takes
     one, initialiser given that budget). *)
  let inits =
    [
      ("bspg", None, fun _ -> Bspg.schedule machine dag);
      ("source", None, fun _ -> Source_heuristic.schedule machine dag);
    ]
    @ (if coarse then []
       else
         (* The trivial single-processor schedule as a safety net: in
            communication-dominated instances it is sometimes the best
            solution any method finds (Section 7.3), and carrying it
            through the pipeline guarantees the framework never returns
            anything more expensive. A coarse solve excludes it: hill
            climbing cannot leave a single-superstep schedule (no
            neighbouring superstep exists), so it would trap the
            refinement phase. *)
         [ ("trivial", None, fun _ -> Schedule.trivial dag) ])
    @
    if limits.use_ilp && limits.use_ilp_init then
      [
        ( "ilp-init",
          Some limits.ilp_init_nodes,
          fun budget ->
            Ilp_schedulers.init ?budget ~max_vars:limits.ilp_init_max_vars
              ~max_nodes:limits.ilp_init_nodes machine dag );
      ]
    else []
  in
  (* Extra candidates ride at the end so the submission-order tie-break
     (strict [<] in the fold below) is unchanged when the list is
     empty — an empty [extra_inits] is bit-identical to the historical
     pipeline. *)
  let inits = inits @ extra_inits in
  (* Improve every initial schedule separately with HC+HCcs (running the
     local search is cheap — Section 6) and keep the best. Each
     candidate's init→HC→HCcs chain is one [Par] task; the fold below
     reads them in submission order with a strict [<], so the winner is
     identical for every jobs count. *)
  let candidates =
    Par.map
      (fun (name, steps, f) ->
        (* The budget is made inside the task, so its deadline clock
           starts when the candidate does, and handed to the span, so
           its B&B nodes count as the span's [steps_used]. *)
        let budget = Option.map (stage_budget limits) steps in
        let init = Obs.Metrics.with_span ?budget ("init:" ^ name) (fun () -> f budget) in
        let init_cost = cost machine init in
        Obs.Metrics.series_point "pipeline.init_cost" ~label:name
          (float_of_int init_cost);
        let improved, improved_cost = local_search ~label:name limits machine init in
        Obs.Metrics.series_point "pipeline.after_local_search" ~label:name
          (float_of_int improved_cost);
        (name, init_cost, improved, improved_cost))
      inits
  in
  let best_init_name, init_cost, best, best_cost =
    match candidates with
    | [] -> assert false
    | first :: rest ->
      List.fold_left
        (fun (bn, bi, bs, bc) (n, i, s, c) -> if c < bc then (n, i, s, c) else (bn, bi, bs, bc))
        first rest
  in
  let after_local_search = best_cost in
  Obs.Metrics.series_point "pipeline.best_cost" ~label:"local_search"
    (float_of_int best_cost);
  let best = ref best and best_cost = ref best_cost in
  let ilp_full_optimal = ref false in
  if limits.use_ilp then begin
    (* The ILP stages first decide from counts whether any sub-solve can
       run; only then do they copy, re-lazify or cost [!best]. Skipping
       an idle ILPfull call is exact: every candidate leaves local search
       through HCcs, which starts from the lazy schedule of its input
       and only improves it, so the lazy copy ILPfull would hand back
       never costs less than [!best]. *)
    let full_budget = stage_budget limits limits.ilp_full_nodes in
    let full =
      Obs.Metrics.with_span ~budget:full_budget "ilp_full" (fun () ->
          if
            Ilp_schedulers.full_is_noop ~max_vars:limits.ilp_full_max_vars machine !best
          then None
          else
            Some
              (Ilp_schedulers.full ~budget:full_budget
                 ~max_vars:limits.ilp_full_max_vars ~max_nodes:limits.ilp_full_nodes
                 machine (Schedule.with_lazy_comm !best)))
    in
    (match full with
     | None -> ()
     | Some (full_sched, full_report) ->
       ilp_full_optimal :=
         full_report.Ilp_schedulers.sub_solves > 0
         && full_report.Ilp_schedulers.proven_optimal;
       if full_report.Ilp_schedulers.cost_after < !best_cost then begin
         best := full_sched;
         best_cost := full_report.Ilp_schedulers.cost_after
       end);
    Obs.Metrics.series_point "pipeline.best_cost" ~label:"ilp_full"
      (float_of_int !best_cost);
    if not !ilp_full_optimal then begin
      let part_budget = stage_budget limits limits.ilp_part_nodes in
      let part_sched =
        Obs.Metrics.with_span ~budget:part_budget "ilp_part" (fun () ->
            let input = Schedule.with_lazy_comm !best in
            if
              Ilp_schedulers.part_is_noop ~max_vars:limits.ilp_part_max_vars machine !best
            then input
            else
              fst
                (Ilp_schedulers.part ~budget:part_budget
                   ~max_vars:limits.ilp_part_max_vars ~max_nodes:limits.ilp_part_nodes
                   machine input))
      in
      (* The partial ILP reasons over lazy communication; give its result
         the same HCcs polish before comparing. *)
      let polish_budget = stage_budget limits limits.hccs_evals in
      let part_sched, polish =
        Obs.Metrics.with_span ~budget:polish_budget "hccs:ilp_part" (fun () ->
            Hccs.improve ~budget:polish_budget machine part_sched)
      in
      if polish.Hccs.final_cost < !best_cost then begin
        best := part_sched;
        best_cost := polish.Hccs.final_cost
      end;
      Obs.Metrics.series_point "pipeline.best_cost" ~label:"ilp_part"
        (float_of_int !best_cost)
    end
  end;
  let after_ilp_part = !best_cost in
  if limits.use_ilp && (not !ilp_full_optimal) && not coarse then begin
    let cs_sched, cs_report = ilp_cs ~label:"ilp_cs" limits machine !best in
    if cs_report.Ilp_schedulers.cost_after < !best_cost then begin
      best := cs_sched;
      best_cost := cs_report.Ilp_schedulers.cost_after
    end
  end;
  Obs.Metrics.series_point "pipeline.best_cost" ~label:"final"
    (float_of_int !best_cost);
  ( !best,
    {
      best_init_name;
      init_cost;
      after_local_search;
      after_ilp_part;
      final_cost = !best_cost;
      ilp_full_optimal = !ilp_full_optimal;
    } )

(* The run-level gauges describe the schedule a run returns, so they are
   set once, where a result leaves the system (the CLI and
   [Engine.answer]), and never inside a pipeline: a multilevel run's
   coarse solves are pipelines too. The profile is O(schedule), so
   nothing is computed when nobody is listening. *)
let publish_result machine sched ~cost =
  match Obs.Metrics.current () with
  | None -> ()
  | Some _ ->
    Obs.Metrics.gauge "pipeline.final_cost" (float_of_int cost);
    let prof = Profile.compute machine sched in
    Obs.Metrics.gauge "profile.num_supersteps" (float_of_int prof.Profile.num_supersteps);
    Obs.Metrics.gauge "profile.work_total" (float_of_int prof.Profile.work_total);
    Obs.Metrics.gauge "profile.comm_total" (float_of_int prof.Profile.comm_total);
    Obs.Metrics.gauge "profile.latency_total" (float_of_int prof.Profile.latency_total);
    Obs.Metrics.gauge "profile.lower_bound" (float_of_int prof.Profile.lower_bound);
    Obs.Metrics.gauge "profile.gap_ratio" (Profile.gap_ratio prof);
    let max_imb =
      Array.fold_left
        (fun acc (ss : Profile.superstep) -> Float.max acc ss.Profile.work_imbalance)
        1.0 prof.Profile.supersteps
    in
    Obs.Metrics.gauge "profile.max_work_imbalance" max_imb;
    let bottleneck = ref 0 in
    Array.iteri
      (fun q w -> if w > prof.Profile.proc_work.(!bottleneck) then bottleneck := q)
      prof.Profile.proc_work;
    Obs.Metrics.gauge "profile.bottleneck_proc" (float_of_int !bottleneck);
    Obs.Metrics.gauge "profile.bottleneck_utilisation"
      (Profile.work_utilisation prof !bottleneck)

let run ~limits machine dag =
  Obs.Metrics.with_span "pipeline" (fun () -> run_stages ~limits ~coarse:false machine dag)

(* Warm-started run: the serve daemon's budget-topped re-optimize path
   (DESIGN.md Section 5h). The cached schedule joins the initial
   candidates — re-lazified so HC's single-placement moves apply, and
   stripped of replicas first since the move entry points refuse
   replicated schedules — and every stage remains an improvement
   operator, so the result is never worse than what local search can
   make of the warm start. The caller still compares the final cost
   against the cached cost before replacing a cache entry, because
   re-lazification can shed a hand-optimised communication schedule. *)
let run_warm ~limits ~warm machine dag =
  if Dag.n warm.Schedule.dag <> Dag.n dag then
    invalid_arg "Pipeline.run_warm: warm schedule is over a different DAG";
  let extra_inits =
    [
      ( "warm",
        None,
        fun _ -> Schedule.with_lazy_comm (Schedule.drop_replicas warm) );
    ]
  in
  Obs.Metrics.with_span "pipeline" (fun () ->
      run_stages ~extra_inits ~limits ~coarse:false machine dag)

(* The multilevel solving-phase callback: the pipeline as a coarse run. *)
let coarse_solve limits machine dag =
  let sched, _ =
    Obs.Metrics.with_span "pipeline" (fun () -> run_stages ~limits ~coarse:true machine dag)
  in
  Schedule.with_lazy_comm sched

(* ILPcs hands back its input unless it found a strictly cheaper
   schedule. *)
let polish_comm limits machine sched =
  let hccs_budget = stage_budget limits limits.hccs_evals in
  let hccs, _ =
    Obs.Metrics.with_span ~budget:hccs_budget "hccs:polish" (fun () ->
        Hccs.improve ~budget:hccs_budget machine sched)
  in
  if limits.use_ilp then fst (ilp_cs ~label:"ilp_cs:polish" limits machine hccs) else hccs

let run_multilevel_ratio ~limits ?solver_limits ~contractions ~ratio machine dag =
  let solver_limits = Option.value ~default:limits solver_limits in
  let ml_budget = stage_budget limits limits.hc_evals in
  let sched =
    Obs.Metrics.with_span ~budget:ml_budget (Printf.sprintf "multilevel:%g" ratio)
      (fun () ->
        Multilevel.run_ratio ~budget:ml_budget ~contractions
          ~refine_interval:Multilevel.default_config.Multilevel.refine_interval
          ~refine_moves:Multilevel.default_config.Multilevel.refine_moves
          ~solver:(coarse_solve solver_limits) ~ratio machine dag)
  in
  polish_comm limits machine sched

(* One coarsening, to the smallest ratio's target, then one task per
   ratio that replays its prefix in a fresh session (DESIGN.md Section
   5j); [Par.best_of] breaks cost ties towards the earlier ratio in the
   configured list, matching the sequential fold this replaces. *)
let run_multilevel ~limits ?solver_limits
    ?(ratios = Multilevel.default_config.Multilevel.ratios) machine dag =
  if ratios = [] then invalid_arg "Pipeline.run_multilevel: no ratios configured";
  let contractions = Multilevel.coarsening ~ratios dag in
  Par.best_of
    ~cmp:(fun a b -> compare (cost machine a) (cost machine b))
    (fun ratio ->
      run_multilevel_ratio ~limits ?solver_limits ~contractions ~ratio machine dag)
    ratios
