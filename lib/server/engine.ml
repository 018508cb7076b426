(* The scheduling engine shared by the one-shot CLI and the serve
   daemon: algorithm dispatch (the single source of truth for the
   algorithm names the CLI enum offers) plus the cache protocol. *)

let algorithm_names =
  [
    "pipeline";
    "multilevel";
    "cilk";
    "hdagg";
    "bl-est";
    "etf";
    "bspg";
    "source";
    "trivial";
  ]

let is_algorithm a = List.mem a algorithm_names

(* Only the search-based methods produce better answers under a larger
   budget; every baseline is a deterministic function of (DAG, machine,
   seed), so a cached baseline answer is final and never refreshed. *)
let budget_sensitive = function "pipeline" | "multilevel" -> true | _ -> false

(* A NaN budget never expires and an infinite or non-positive one
   makes no sense as a deadline; the CLI and the daemon both reach
   this check. *)
let check_seconds seconds =
  if not (Float.is_finite seconds && seconds > 0.0) then
    failwith (Printf.sprintf "Engine: seconds must be finite and positive, got %g" seconds)

let schedule ?warm ~seconds ~seed ~replicate ~algorithm machine dag =
  if not (is_algorithm algorithm) then
    failwith ("Engine: unknown algorithm: " ^ algorithm);
  check_seconds seconds;
  let limits =
    { Pipeline.thorough_limits with Pipeline.stage_seconds = Some (seconds /. 6.0) }
  in
  let base =
    Obs.Metrics.with_span ("scheduler:" ^ algorithm) (fun () ->
        match algorithm with
        | "pipeline" ->
          (* the pipeline runs replication as its own final stage *)
          let limits =
            {
              limits with
              Pipeline.replicate;
              use_ilp_init = Pipeline.ilp_init_pays machine dag;
            }
          in
          (match warm with
           | None -> fst (Pipeline.run ~limits machine dag)
           | Some warm -> fst (Pipeline.run_warm ~limits ~warm machine dag))
        | "multilevel" -> Pipeline.run_multilevel ~limits machine dag
        | "cilk" -> Cilk.schedule dag ~p:machine.Machine.p ~seed
        | "hdagg" -> Hdagg.schedule machine dag
        | "bl-est" -> List_scheduler.schedule List_scheduler.Bl_est machine dag
        | "etf" -> List_scheduler.schedule List_scheduler.Etf machine dag
        | "bspg" -> Bspg.schedule machine dag
        | "source" -> Source_heuristic.schedule machine dag
        | "trivial" -> Schedule.trivial dag
        | _ -> assert false)
  in
  (* For every algorithm but the pipeline, replication is grafted on as
     a post-pass and kept only when strictly cheaper (replication
     re-lazifies the communication schedule, so it is not
     unconditionally better). *)
  if replicate && algorithm <> "pipeline" then begin
    let cand =
      Obs.Metrics.with_span "scheduler:replicate" (fun () ->
          Hc.replicate_schedule machine base)
    in
    if Bsp_cost.total machine cand < Bsp_cost.total machine base then cand else base
  end
  else base

let request_key (req : Request.t) =
  Cache.key ~dag:req.dag ~machine:req.machine ~algorithm:req.algorithm ~seed:req.seed
    ~replicate:req.replicate

type status = Hit | Miss | Refresh

let status_label = function Hit -> "hit" | Miss -> "miss" | Refresh -> "refresh"

type result = { status : status; key : string; cost : int; schedule : Schedule.t }

let compute_and_store ~cache_dir ~key ~cached (req : Request.t) =
  (* Warm-start only applies to the base pipeline; the other budget-
     sensitive method (multilevel) re-solves from scratch and is
     compared against the cached cost below. *)
  let warm =
    match cached with
    | Some (e : Cache.entry) when req.algorithm = "pipeline" -> Some e.Cache.schedule
    | _ -> None
  in
  let sched =
    schedule ?warm ~seconds:req.seconds ~seed:req.seed ~replicate:req.replicate
      ~algorithm:req.algorithm req.machine req.dag
  in
  (match Validity.check req.machine sched with
   | Ok () -> ()
   | Error errs ->
     failwith
       ("Engine: produced an invalid schedule: " ^ String.concat "; " errs));
  let cost = Bsp_cost.total req.machine sched in
  (* Best-so-far semantics: a refresh keeps the cached schedule when
     the re-run did not strictly beat it, and the recorded budget is
     topped up either way so the next identical request is a hit. *)
  let sched, cost, budget =
    match cached with
    | None -> (sched, cost, req.seconds)
    | Some (e : Cache.entry) ->
      let budget = Float.max req.seconds e.Cache.seconds_budget in
      if e.Cache.cost <= cost then (e.Cache.schedule, e.Cache.cost, budget)
      else (sched, cost, budget)
  in
  Cache.store ~dir:cache_dir ~key ~algorithm:req.algorithm ~cost ~seconds_budget:budget
    sched;
  (sched, cost)

let handle ~cache_dir (req : Request.t) =
  if not (is_algorithm req.algorithm) then
    failwith ("Engine: unknown algorithm: " ^ req.algorithm);
  check_seconds req.seconds;
  let key = request_key req in
  match Cache.lookup ~dir:cache_dir ~dag:req.dag key with
  | Some e
    when (not (budget_sensitive req.algorithm))
         || req.seconds <= e.Cache.seconds_budget ->
    { status = Hit; key; cost = e.Cache.cost; schedule = e.Cache.schedule }
  | cached ->
    let sched, cost = compute_and_store ~cache_dir ~key ~cached req in
    let status = if Option.is_none cached then Miss else Refresh in
    { status; key; cost; schedule = sched }
