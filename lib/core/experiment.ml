type options = {
  limits : Pipeline.limits;
  ml_solver_limits : Pipeline.limits option;
  with_list_baselines : bool;
  with_multilevel : bool;
  ml_ratios : float list;
  seed : int;
}

let default_options =
  {
    limits =
      {
        Pipeline.thorough_limits with
        Pipeline.hc_evals = 400_000;
        hccs_evals = 100_000;
        ilp_full_max_vars = 260;
        ilp_full_nodes = 1_200;
        ilp_part_max_vars = 200;
        ilp_part_nodes = 120;
        ilp_cs_nodes = 250;
        use_ilp_init = false;
        stage_seconds = Some 5.0;
      };
    ml_solver_limits = None;
    with_list_baselines = false;
    with_multilevel = false;
    ml_ratios = Multilevel.default_config.Multilevel.ratios;
    seed = 1;
  }

type run = {
  trivial : int;
  cilk : int;
  bl_est : int option;
  etf : int option;
  hdagg : int;
  stage : Pipeline.stage_costs;
  ours : int;
  multilevel : (float * int) list;
}

let ml_best run =
  match run.multilevel with
  | [] -> None
  | (_, c) :: rest -> Some (List.fold_left (fun acc (_, c') -> min acc c') c rest)

let ml_at_ratio run ratio =
  List.assoc_opt ratio run.multilevel

let checked name machine sched =
  match Validity.errors machine sched with
  | [] -> Bsp_cost.total machine sched
  | err :: _ ->
    failwith (Printf.sprintf "Experiment: %s produced an invalid schedule: %s" name err)

let evaluate options machine dag =
  let p = machine.Machine.p in
  let trivial = checked "trivial" machine (Schedule.trivial dag) in
  let cilk = checked "cilk" machine (Cilk.schedule dag ~p ~seed:options.seed) in
  let bl_est =
    if options.with_list_baselines then
      Some (checked "bl-est" machine (List_scheduler.schedule Bl_est machine dag))
    else None
  in
  let etf =
    if options.with_list_baselines then
      Some (checked "etf" machine (List_scheduler.schedule Etf machine dag))
    else None
  in
  let hdagg = checked "hdagg" machine (Hdagg.schedule machine dag) in
  let ours_sched, stage = Pipeline.run ~limits:options.limits machine dag in
  let ours = checked "pipeline" machine ours_sched in
  let multilevel =
    if options.with_multilevel then begin
      let contractions = Multilevel.coarsening ~ratios:options.ml_ratios dag in
      Par.map
        (fun ratio ->
          let ml =
            Pipeline.run_multilevel_ratio ~limits:options.limits
              ?solver_limits:options.ml_solver_limits ~contractions ~ratio machine dag
          in
          (ratio, checked "multilevel" machine ml))
        options.ml_ratios
    end
    else []
  in
  { trivial; cilk; bl_est; etf; hdagg; stage; ours; multilevel }

let ratio ours baseline =
  if baseline = 0 then if ours = 0 then 1.0 else infinity
  else float_of_int ours /. float_of_int baseline

let geo_ratio num den runs =
  Statistics.geometric_mean (List.map (fun r -> ratio (num r) (den r)) runs)

let reduction_percent = Statistics.percent_reduction
