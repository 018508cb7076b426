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

(* Costs are plain ints: an instance whose schedules could cost more
   than a quarter of [max_int] is refused before anything is built, so
   that the searches can still add and compare two costs. *)
let max_cost = max_int / 4

let check_cost_bound machine dag =
  let refuse bound =
    failwith
      (Printf.sprintf
         "Engine: the cost bound p*W + g*(p-1)*lambda_max*C + l*n of this instance is %s, \
          above the limit of %d: its costs could overflow"
         bound max_cost)
  in
  match Bsp_cost.cost_bound machine dag with
  | Some b when b <= max_cost -> ()
  | Some b -> refuse (string_of_int b)
  | None -> refuse "above max_int"

let schedule ?warm ~seconds ~seed ~replicate ~algorithm machine dag =
  if not (is_algorithm algorithm) then
    failwith ("Engine: unknown algorithm: " ^ algorithm);
  check_seconds seconds;
  check_cost_bound machine dag;
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

let request_key ?memo (req : Request.t) =
  let dag_hash =
    match memo with
    | Some m -> Memo.structural_hash m req.dag
    | None -> Dag.structural_hash req.dag
  in
  Cache.key_of_hash ~dag_hash ~machine:req.machine ~algorithm:req.algorithm ~seed:req.seed
    ~replicate:req.replicate

type status = Hit | Miss | Refresh

let status_label = function Hit -> "hit" | Miss -> "miss" | Refresh -> "refresh"

type result = {
  status : status;
  key : string;
  cost : int;
  schedule : Schedule.t;
  escaped : string;
}

(* A reply's schedule member, rendered once per entry a session reads
   from disk. *)
let escape schedule =
  let buf = Buffer.create 16384 in
  Schedule_io.to_buffer buf ~eol:{|\n|} schedule;
  Buffer.contents buf

(* The same member from the schedule's rendered text, in one pass: the
   text holds no byte a JSON string must escape but its line ends. *)
let escape_text text =
  let len = String.length text in
  let buf = Buffer.create (len + (len / 8) + 16) in
  let start = ref 0 in
  for i = 0 to len - 1 do
    if String.unsafe_get text i = '\n' then begin
      Buffer.add_substring buf text !start (i - !start);
      Buffer.add_string buf {|\n|};
      start := i + 1
    end
  done;
  Buffer.add_substring buf text !start (len - !start);
  Buffer.contents buf

(* The cache lookup. A warm entry is served while its files keep the
   identity it was read or written with; its instance passed the cost
   bound when the entry was computed or read. Otherwise the bound is
   checked, and the entry is read from disk and checked once against
   the request's machine: a schedule that is invalid, that does not cost
   what its meta file says, or that has more supersteps than the DAG has
   nodes (costing it allocates per superstep, and the bound does not
   cover it) is a miss, and the recompute overwrites it. *)
let lookup memo ~cache_dir ~machine ~dag key =
  match Cache.ident ~dir:cache_dir key with
  | None -> None
  | Some ident -> (
    match Memo.find_entry memo key ~ident ~dag with
    | Some w -> Some w
    | None -> (
      check_cost_bound machine dag;
      match Cache.lookup ~dir:cache_dir ~dag key with
      | Some e
        when Schedule.num_supersteps e.Cache.schedule <= max 1 (Dag.n dag)
             && Validity.is_valid machine e.Cache.schedule
             && Bsp_cost.total machine e.Cache.schedule = e.Cache.cost ->
        let w = { Memo.entry = e; escaped = escape e.Cache.schedule } in
        Memo.add_entry memo key ~ident w;
        Some w
      | _ -> None))

type store = {
  memo : Memo.t;
  cache_dir : string;
  key : string;
  algorithm : string;
  warm : Memo.warm;
  text : string;  (* the entry's schedule file, as [warm.escaped] renders it *)
}

let commit s =
  let e = s.warm.Memo.entry in
  Cache.store_text ~dir:s.cache_dir ~key:s.key ~algorithm:s.algorithm ~cost:e.Cache.cost
    ~seconds_budget:e.Cache.seconds_budget ~text:s.text e.Cache.schedule;
  (* Write-through: the entry just stored is warm under the identity its
     files have now. *)
  Option.iter
    (fun ident -> Memo.add_entry s.memo s.key ~ident s.warm)
    (Cache.ident ~dir:s.cache_dir s.key)

let compute memo ~cache_dir ~key ~cached (req : Request.t) =
  (* Warm-start only applies to the base pipeline; the other budget-
     sensitive method (multilevel) re-solves from scratch and is
     compared against the cached cost below. *)
  let warm_start =
    match cached with
    | Some (w : Memo.warm) when req.algorithm = "pipeline" -> Some w.entry.Cache.schedule
    | _ -> None
  in
  let sched =
    schedule ?warm:warm_start ~seconds:req.seconds ~seed:req.seed ~replicate:req.replicate
      ~algorithm:req.algorithm req.machine req.dag
  in
  (match Validity.check req.machine sched with
   | Ok () -> ()
   | Error errs ->
     failwith
       ("Engine: produced an invalid schedule: " ^ String.concat "; " errs));
  let cost = Bsp_cost.total req.machine sched in
  let fresh seconds_budget =
    let text = Schedule_io.to_string sched in
    ( {
        Memo.entry = { Cache.cost; seconds_budget; schedule = sched };
        escaped = escape_text text;
      },
      text )
  in
  (* Best-so-far semantics: a refresh keeps the cached schedule when
     the re-run did not strictly beat it, and the recorded budget is
     topped up either way so the next identical request is a hit. *)
  let warm, text =
    match cached with
    | None -> fresh req.seconds
    | Some ({ Memo.entry = e; _ } as w) ->
      let seconds_budget = Float.max req.seconds e.Cache.seconds_budget in
      if e.Cache.cost <= cost then
        ( { w with Memo.entry = { e with Cache.seconds_budget } },
          Schedule_io.to_string e.Cache.schedule )
      else fresh seconds_budget
  in
  { memo; cache_dir; key; algorithm = req.algorithm; warm; text }

let answer ?(memo = Memo.create ()) ~cache_dir (req : Request.t) =
  if not (is_algorithm req.algorithm) then
    failwith ("Engine: unknown algorithm: " ^ req.algorithm);
  check_seconds req.seconds;
  let key = request_key ~memo req in
  let status, { Memo.entry; escaped }, store =
    match lookup memo ~cache_dir ~machine:req.machine ~dag:req.dag key with
    | Some w
      when (not (budget_sensitive req.algorithm))
           || req.seconds <= w.Memo.entry.Cache.seconds_budget ->
      (Hit, w, None)
    | cached ->
      let store = compute memo ~cache_dir ~key ~cached req in
      (* As before the gauges moved here, only the search-based methods
         publish them: a baseline miss pays no profile. *)
      if budget_sensitive req.algorithm then begin
        let e = store.warm.Memo.entry in
        Pipeline.publish_result req.machine e.Cache.schedule ~cost:e.Cache.cost
      end;
      ((if Option.is_none cached then Miss else Refresh), store.warm, Some store)
  in
  ( { status; key; cost = entry.Cache.cost; schedule = entry.Cache.schedule; escaped },
    store )

let handle ?memo ~cache_dir req =
  let result, store = answer ?memo ~cache_dir req in
  Option.iter commit store;
  result
