(* The traced run of the end-to-end benchmark: one workload, in process,
   with a benchmark-side span around every call into a library layer.

   The calls are the public entry points, made in the order
   [Pipeline.run], [Pipeline.run_multilevel] and [Engine.handle] make
   them, with the limits [Engine.schedule] gives the CLI. The workload
   is also run once untraced through [Engine.schedule] / [Engine.handle];
   both costs are printed so the caller can check that tracing changed
   no result, and the time difference is the tracing overhead.

   Spans (name, start, stop, parent, run id, counter deltas) are kept in
   memory and written out at the end. A layer's time is the self time of
   its spans: duration minus the part covered by child spans. The
   composite spans ([run], [pipeline], [coarse_solve], [ml_ratio],
   [request], [engine.schedule]) are glue; their self time is the
   unattributed remainder.

   Usage:
     layers.exe oneshot ALGORITHM INPUT P G L DELTA SPANS --ladder RUNG...
     layers.exe serve REQUESTS CACHE_DIR SPANS DAG... --ladder RUNG...
   DELTA is 0 for a uniform machine. RUNG inputs (the BSPg scaling
   ladder, timed after the workload) and DAG inputs (the serve mix's
   instances) are hyperDAG files. The result is one JSON object on
   standard output. *)

let budget_seconds = 600.0

(* ------------------------------------------------------------------ *)
(* Spans. *)

(* Library counters snapshotted at every span boundary, so counts are
   attributed to the span that did the work. *)
let tracked =
  [|
    "hc.moves_evaluated";
    "hc.moves_applied";
    "bb.solves";
    "bb.nodes_explored";
    "bb.lp_failures";
    "lp.pivots";
  |]

let n_tracked = Array.length tracked

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  run : int;
  start : float;
  stop : float;
  deltas : float array;  (** tracked counters, then allocated words *)
}

let registry = Obs.Metrics.create ()
let spans = ref []
let next_id = ref 0
let stack = ref []
let run_id = ref 0

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let snapshot () =
  Array.init (n_tracked + 1) (fun i ->
      if i < n_tracked then float_of_int (Obs.Metrics.counter_value registry tracked.(i))
      else allocated_words ())

let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with [] -> -1 | p :: _ -> p in
  stack := id :: !stack;
  let before = snapshot () in
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let after = snapshot () in
    stack := List.tl !stack;
    let deltas = Array.mapi (fun i a -> a -. before.(i)) after in
    spans := { id; name; parent; run = !run_id; start; stop; deltas } :: !spans
  in
  match f () with
  | r ->
    finish ();
    r
  | exception e ->
    finish ();
    raise e

let write_spans path =
  let rows =
    List.rev_map
      (fun s ->
        Obs.Json.Obj
          [
            ("id", Obs.Json.Int s.id);
            ("name", Obs.Json.String s.name);
            ("parent", Obs.Json.Int s.parent);
            ("run", Obs.Json.Int s.run);
            ("start", Obs.Json.Float s.start);
            ("stop", Obs.Json.Float s.stop);
          ])
      !spans
  in
  Atomic_file.write_string path (Obs.Json.to_string_compact (Obs.Json.List rows))

(* Self seconds and summed counter deltas per span name. *)
let summarise () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (prev +. (s.stop -. s.start))
      end)
    !spans;
  let self = Hashtbl.create 64 and total = Hashtbl.create 64 and deltas = Hashtbl.create 64 in
  let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)) in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      add self s.name (dur -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id));
      add total s.name dur;
      let d =
        match Hashtbl.find_opt deltas s.name with
        | Some d -> d
        | None ->
          let d = Array.make (n_tracked + 1) 0.0 in
          Hashtbl.replace deltas s.name d;
          d
      in
      Array.iteri (fun i x -> d.(i) <- d.(i) +. x) s.deltas)
    !spans;
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let delta name counter =
    match Hashtbl.find_opt deltas name with
    | None -> 0.0
    | Some d ->
      if counter = "alloc" then d.(n_tracked)
      else
        let rec idx i = if tracked.(i) = counter then i else idx (i + 1) in
        d.(idx 0)
  in
  (get self, get total, delta)

(* ------------------------------------------------------------------ *)
(* Traced pipeline: Pipeline.run_stages and Pipeline.run_multilevel,
   call for call. *)

let limits =
  { Pipeline.thorough_limits with Pipeline.stage_seconds = Some (budget_seconds /. 6.0) }

let stage_budget (limits : Pipeline.limits) evals =
  match limits.Pipeline.stage_seconds with
  | None -> Budget.steps evals
  | Some s -> Budget.combine (Budget.steps evals) (Budget.seconds s)

let cost machine s = span "cost" (fun () -> Bsp_cost.total machine s)
let merge_in = ref 0
let merge_out = ref 0
let ilp_init_supersteps = ref 0
let contractions = ref 0

let local_search (limits : Pipeline.limits) machine sched =
  let hc_budget = stage_budget limits limits.Pipeline.hc_evals in
  let hc, _ =
    span "hc" (fun () ->
        Hc.improve ~check:limits.Pipeline.hc_check ~budget:hc_budget
          ~shards:limits.Pipeline.hc_shards machine sched)
  in
  let merged =
    span "merge" (fun () ->
        let c = Schedule.compact hc in
        let m = Superstep_merge.greedy machine c in
        merge_in := !merge_in + Schedule.num_supersteps c;
        merge_out := !merge_out + Schedule.num_supersteps m;
        m)
  in
  let hccs_budget = stage_budget limits limits.Pipeline.hccs_evals in
  fst (span "hccs" (fun () -> Hccs.improve ~budget:hccs_budget machine merged))

let pipeline ~(limits : Pipeline.limits) ~with_trivial_init machine dag =
  span "pipeline" @@ fun () ->
  let inits =
    [ ("bspg", fun () -> Bspg.schedule machine dag);
      ("source", fun () -> Source_heuristic.schedule machine dag) ]
    @ (if with_trivial_init then [ ("trivial", fun () -> Schedule.trivial dag) ] else [])
    @
    if limits.Pipeline.use_ilp && limits.Pipeline.use_ilp_init then
      [
        ( "ilp_init",
          fun () ->
            let s =
              Ilp_schedulers.init
                ~budget:(stage_budget limits limits.Pipeline.ilp_init_nodes)
                ~max_vars:limits.Pipeline.ilp_init_max_vars
                ~max_nodes:limits.Pipeline.ilp_init_nodes machine dag
            in
            ilp_init_supersteps := !ilp_init_supersteps + Schedule.num_supersteps s;
            s );
      ]
    else []
  in
  let candidates =
    List.map
      (fun (name, f) ->
        let init = span name f in
        ignore (cost machine init);
        let improved = local_search limits machine init in
        (improved, cost machine improved))
      inits
  in
  let best, best_cost =
    List.fold_left
      (fun (bs, bc) (s, c) -> if c < bc then (s, c) else (bs, bc))
      (List.hd candidates) (List.tl candidates)
  in
  let best = ref best and best_cost = ref best_cost in
  let keep s =
    let c = cost machine s in
    if c < !best_cost then begin
      best := s;
      best_cost := c
    end
  in
  let ilp_full_optimal = ref false in
  if limits.Pipeline.use_ilp then begin
    let full_budget = stage_budget limits limits.Pipeline.ilp_full_nodes in
    let full_sched, report =
      span "ilp_full" (fun () ->
          Ilp_schedulers.full ~budget:full_budget ~max_vars:limits.Pipeline.ilp_full_max_vars
            ~max_nodes:limits.Pipeline.ilp_full_nodes machine (Schedule.with_lazy_comm !best))
    in
    ilp_full_optimal :=
      report.Ilp_schedulers.sub_solves > 0 && report.Ilp_schedulers.proven_optimal;
    keep full_sched;
    if not !ilp_full_optimal then begin
      let part_budget = stage_budget limits limits.Pipeline.ilp_part_nodes in
      let part_sched, _ =
        span "ilp_part" (fun () ->
            Ilp_schedulers.part ~budget:part_budget ~max_vars:limits.Pipeline.ilp_part_max_vars
              ~max_nodes:limits.Pipeline.ilp_part_nodes machine (Schedule.with_lazy_comm !best))
      in
      let polish_budget = stage_budget limits limits.Pipeline.hccs_evals in
      let part_sched, _ =
        span "hccs" (fun () -> Hccs.improve ~budget:polish_budget machine part_sched)
      in
      keep part_sched
    end
  end;
  if limits.Pipeline.use_ilp && not !ilp_full_optimal then begin
    let cs_budget = stage_budget limits limits.Pipeline.ilp_cs_nodes in
    let cs_sched, _ =
      span "ilp_cs" (fun () ->
          Ilp_schedulers.comm_schedule ~budget:cs_budget ~max_vars:limits.Pipeline.ilp_cs_max_vars
            ~max_nodes:limits.Pipeline.ilp_cs_nodes machine !best)
    in
    keep cs_sched
  end;
  !best

(* Multilevel.run_ratio with Pipeline's base solver and comm polish. *)
let ml_ratio ~(limits : Pipeline.limits) ~ratio machine dag =
  let config = Multilevel.default_config in
  let sched =
    span "ml_ratio" @@ fun () ->
    let budget = stage_budget limits limits.Pipeline.hc_evals in
    let n = Dag.n dag in
    let session = Coarsen.start dag in
    let qdag, rep_of_id =
      span "coarsen" (fun () ->
          Coarsen.coarsen_to ~strategy:config.Multilevel.strategy session
            ~target:(max 2 (int_of_float (ratio *. float_of_int n)));
          Coarsen.quotient session)
    in
    contractions := !contractions + Coarsen.num_contractions session;
    let coarse =
      span "coarse_solve" (fun () ->
          let solver_limits =
            { limits with Pipeline.ilp_cs_nodes = 0; Pipeline.ilp_cs_max_vars = 0 }
          in
          Schedule.with_lazy_comm
            (pipeline ~limits:solver_limits ~with_trivial_init:false machine qdag))
    in
    Assignment_state.prewarm machine dag ~num_steps:(Schedule.num_supersteps coarse);
    let proc_of = Array.make n 0 and step_of = Array.make n 0 in
    Array.iteri
      (fun i r ->
        proc_of.(r) <- coarse.Schedule.proc.(i);
        step_of.(r) <- coarse.Schedule.step.(i))
      rep_of_id;
    let remaining = ref (Coarsen.num_contractions session) in
    while !remaining > 0 do
      let chunk = min config.Multilevel.refine_interval !remaining in
      for _ = 1 to chunk do
        match Coarsen.undo_last session with
        | Some { Coarsen.kept; removed } ->
          proc_of.(removed) <- proc_of.(kept);
          step_of.(removed) <- step_of.(kept)
        | None -> ()
      done;
      remaining := !remaining - chunk;
      span "refine" (fun () ->
          let qdag, rep_of_id = Coarsen.quotient session in
          let proc = Array.init (Dag.n qdag) (fun i -> proc_of.(rep_of_id.(i))) in
          let step = Array.init (Dag.n qdag) (fun i -> step_of.(rep_of_id.(i))) in
          let improved, _ =
            Hc.improve ~budget ~max_moves:config.Multilevel.refine_moves
              ~shards:limits.Pipeline.hc_shards machine
              (Schedule.of_assignment qdag ~proc ~step)
          in
          Array.iteri
            (fun i r ->
              proc_of.(r) <- improved.Schedule.proc.(i);
              step_of.(r) <- improved.Schedule.step.(i))
            rep_of_id)
    done;
    Schedule.compact (Schedule.of_assignment dag ~proc:proc_of ~step:step_of)
  in
  let hccs_budget = stage_budget limits limits.Pipeline.hccs_evals in
  let hccs, _ = span "hccs" (fun () -> Hccs.improve ~budget:hccs_budget machine sched) in
  if limits.Pipeline.use_ilp then begin
    let cs_budget = stage_budget limits limits.Pipeline.ilp_cs_nodes in
    let cs, _ =
      span "ilp_cs" (fun () ->
          Ilp_schedulers.comm_schedule ~budget:cs_budget ~max_vars:limits.Pipeline.ilp_cs_max_vars
            ~max_nodes:limits.Pipeline.ilp_cs_nodes machine hccs)
    in
    if cost machine cs < cost machine hccs then cs else hccs
  end
  else hccs

let multilevel machine dag =
  let results =
    List.map (fun ratio -> ml_ratio ~limits ~ratio machine dag)
      Multilevel.default_config.Multilevel.ratios
  in
  List.fold_left
    (fun best s -> if cost machine s < cost machine best then s else best)
    (List.hd results) (List.tl results)

let traced_schedule algorithm machine dag =
  match algorithm with
  | "pipeline" -> pipeline ~limits ~with_trivial_init:true machine dag
  | "multilevel" -> multilevel machine dag
  | "bspg" -> span "bspg" (fun () -> Bspg.schedule machine dag)
  | a -> failwith ("layers: no traced path for algorithm " ^ a)

(* ------------------------------------------------------------------ *)
(* Workloads. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let machine_of ~p ~g ~l ~delta =
  if delta = 0 then Machine.uniform ~p ~g ~l else Machine.numa_tree ~p ~g ~l ~delta

let valid machine s =
  match Validity.check machine s with
  | Ok () -> ()
  | Error errs -> failwith ("layers: invalid schedule: " ^ String.concat "; " errs)

let oneshot ~algorithm ~input ~machine ~out =
  let untraced_cost, untraced_s =
    time (fun () ->
        let dag = Hyperdag_io.read_file_auto input in
        let s =
          Server.Engine.schedule ~seconds:budget_seconds ~seed:1 ~replicate:false ~algorithm
            machine dag
        in
        valid machine s;
        let c = Bsp_cost.total machine s in
        Schedule_io.write_file out s;
        c)
  in
  Gc.compact ();
  Obs.Metrics.install registry;
  let traced_cost, traced_s =
    time (fun () ->
        span "run" (fun () ->
            let dag = span "dag.parse" (fun () -> Hyperdag_io.read_file_auto input) in
            let s = traced_schedule algorithm machine dag in
            span "validity" (fun () -> valid machine s);
            let c = cost machine s in
            span "schedule_io.write" (fun () -> Schedule_io.write_file out s);
            c))
  in
  Obs.Metrics.clear ();
  ([ untraced_cost ], [ traced_cost ], untraced_s, traced_s)

let ok_reply ~id ~cache ~key ~cost s =
  Obs.Json.to_string_compact
    (Obs.Json.Obj
       [
         ("id", Obs.Json.String id);
         ("status", Obs.Json.String "ok");
         ("cache", Obs.Json.String cache);
         ("key", Obs.Json.String key);
         ("cost", Obs.Json.Int cost);
         ("supersteps", Obs.Json.Int (Schedule.num_supersteps s));
         ("schedule", Obs.Json.String (Schedule_io.to_string s));
       ])

let hits = ref 0
let requests = ref 0

(* Engine.handle, call for call, for the budget-insensitive algorithms
   the serve mix uses (a cached answer for them is always a hit). *)
let traced_request ~cache_dir i payload =
  run_id := i + 1;
  span "request" @@ fun () ->
  incr requests;
  let id = Printf.sprintf "stdio-%d" (i + 1) in
  let req =
    match span "request.parse" (fun () -> Server.Request.parse_any ~id payload) with
    | Server.Request.Schedule r -> r
    | Server.Request.Stats _ -> failwith "layers: unexpected stats probe"
  in
  let open Server.Request in
  if Server.Engine.budget_sensitive req.algorithm then
    failwith "layers: the serve workload takes budget-insensitive algorithms only";
  let key = span "cache.key" (fun () -> Server.Engine.request_key req) in
  match span "cache.lookup" (fun () -> Server.Cache.lookup ~dir:cache_dir ~dag:req.dag key) with
  | Some e ->
    incr hits;
    let s = e.Server.Cache.schedule in
    ignore (span "reply.encode" (fun () -> ok_reply ~id ~cache:"hit" ~key ~cost:e.Server.Cache.cost s));
    e.Server.Cache.cost
  | None ->
    let machine = req.machine and dag = req.dag in
    let s =
      span "engine.schedule" (fun () ->
          match req.algorithm with
          | "bspg" -> span "bspg" (fun () -> Bspg.schedule machine dag)
          | "source" -> span "source" (fun () -> Source_heuristic.schedule machine dag)
          | "hdagg" -> span "baselines" (fun () -> Hdagg.schedule machine dag)
          | "cilk" ->
            span "baselines" (fun () -> Cilk.schedule dag ~p:machine.Machine.p ~seed:req.seed)
          | a -> failwith ("layers: no traced path for algorithm " ^ a))
    in
    span "validity" (fun () -> valid machine s);
    let c = cost machine s in
    span "cache.store" (fun () ->
        Server.Cache.store ~dir:cache_dir ~key ~algorithm:req.algorithm ~cost:c
          ~seconds_budget:req.seconds s);
    ignore (span "reply.encode" (fun () -> ok_reply ~id ~cache:"miss" ~key ~cost:c s));
    c

let read_frames path =
  In_channel.with_open_bin path (fun ic ->
      let rec loop acc =
        match Server.Daemon.read_frame ic with
        | None -> List.rev acc
        | Some f -> loop (f :: acc)
      in
      loop [])

let serve ~requests:path ~cache_dir ~dags =
  let frames = read_frames path in
  let untraced_dir = Filename.concat cache_dir "untraced" in
  let traced_dir = Filename.concat cache_dir "traced" in
  List.iter (fun d -> Sys.mkdir d 0o755) [ cache_dir; untraced_dir; traced_dir ];
  let untraced_costs, untraced_s =
    time (fun () ->
        List.mapi
          (fun i payload ->
            let id = Printf.sprintf "stdio-%d" (i + 1) in
            match Server.Request.parse_any ~id payload with
            | Server.Request.Schedule req ->
              let r = Server.Engine.handle ~cache_dir:untraced_dir req in
              ignore
                (ok_reply ~id ~cache:(Server.Engine.status_label r.Server.Engine.status)
                   ~key:r.Server.Engine.key ~cost:r.Server.Engine.cost r.Server.Engine.schedule);
              r.Server.Engine.cost
            | Server.Request.Stats _ -> failwith "layers: unexpected stats probe")
          frames)
  in
  Gc.compact ();
  Obs.Metrics.install registry;
  let traced_costs, traced_s =
    time (fun () ->
        span "run" (fun () ->
            List.iter (fun f -> ignore (span "dag.parse" (fun () -> Hyperdag_io.read_file_auto f))) dags;
            List.mapi (traced_request ~cache_dir:traced_dir) frames))
  in
  Obs.Metrics.clear ();
  (untraced_costs, traced_costs, untraced_s, traced_s)

(* BSPg scaling ladder: seconds per rung and the log-log slope. *)
let ladder files =
  let machine = Machine.uniform ~p:8 ~g:3 ~l:5 in
  let pts =
    List.map
      (fun f ->
        let dag = Hyperdag_io.read_file_auto f in
        let _, t = time (fun () -> Bspg.schedule machine dag) in
        (log (float_of_int (Dag.n dag)), log t, Dag.n dag, t))
      files
  in
  let k = float_of_int (List.length pts) in
  let mx = List.fold_left (fun a (x, _, _, _) -> a +. x) 0.0 pts /. k in
  let my = List.fold_left (fun a (_, y, _, _) -> a +. y) 0.0 pts /. k in
  let sxy = List.fold_left (fun a (x, y, _, _) -> a +. ((x -. mx) *. (y -. my))) 0.0 pts in
  let sxx = List.fold_left (fun a (x, _, _, _) -> a +. ((x -. mx) ** 2.0)) 0.0 pts in
  let slope = if sxx > 0.0 then sxy /. sxx else 0.0 in
  (slope, List.map (fun (_, _, n, t) -> (n, t)) pts)

(* ------------------------------------------------------------------ *)

let () =
  let rec split acc = function
    | "--ladder" :: rest -> (List.rev acc, rest)
    | a :: rest -> split (a :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let args, ladder_files = split [] (List.tl (Array.to_list Sys.argv)) in
  let (untraced, traced, untraced_s, traced_s), spans_path =
    match args with
    | [ "oneshot"; algorithm; input; p; g; l; delta; spans_path ] ->
      let machine =
        machine_of ~p:(int_of_string p) ~g:(int_of_string g) ~l:(int_of_string l)
          ~delta:(int_of_string delta)
      in
      ( oneshot ~algorithm ~input ~machine ~out:(Filename.remove_extension spans_path ^ ".schedule"),
        spans_path )
    | "serve" :: requests :: cache_dir :: spans_path :: dags ->
      (serve ~requests ~cache_dir ~dags, spans_path)
    | _ ->
      prerr_endline
        "usage: layers.exe (oneshot ALGORITHM INPUT P G L DELTA SPANS | serve REQUESTS \
         CACHE_DIR SPANS DAG...) --ladder RUNG...";
      exit 2
  in
  let self, total, delta = summarise () in
  write_spans spans_path;
  let slope, rungs = if ladder_files = [] then (0.0, []) else ladder ladder_files in
  let sum names = List.fold_left (fun a n -> a +. self n) 0.0 names in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let run_s = total "run" in
  let ilp_s = sum [ "ilp_init"; "ilp_full"; "ilp_part"; "ilp_cs" ] in
  let ilp_delta c = List.fold_left (fun a n -> a +. delta n c) 0.0 [ "ilp_init"; "ilp_full"; "ilp_part"; "ilp_cs" ] in
  let mwords x = x /. 1e6 in
  let metrics =
    [
      ("dag.parse_s", self "dag.parse");
      ("dag.parse_alloc_mwords", mwords (delta "dag.parse" "alloc"));
      ("bspg.s", self "bspg");
      ("bspg.alloc_mwords", mwords (delta "bspg" "alloc"));
      ("bspg.scaling_exp", slope);
      ("source.s", self "source");
      ("ilp_init.s", self "ilp_init");
      ("ilp_init.supersteps", float_of_int !ilp_init_supersteps);
      ("ilp_full.s", self "ilp_full");
      ("ilp_part.s", self "ilp_part");
      ("ilp_cs.s", self "ilp_cs");
      ("bb.solves", ilp_delta "bb.solves");
      ("bb.nodes", ilp_delta "bb.nodes_explored");
      ("bb.lp_fail_ratio", ratio (ilp_delta "bb.lp_failures") (ilp_delta "bb.nodes_explored"));
      ("lp.pivots", ilp_delta "lp.pivots");
      ("lp.pivots_per_s", ratio (ilp_delta "lp.pivots") ilp_s);
      ("merge.s", self "merge");
      ("merge.supersteps_in", float_of_int !merge_in);
      ("merge.supersteps_out", float_of_int !merge_out);
      ("validity.s", self "validity");
      ("cost.s", self "cost");
      ("schedule_io.write_s", self "schedule_io.write");
      ("hc.s", self "hc");
      ("hc.evals", delta "hc" "hc.moves_evaluated");
      ("hc.evals_per_s", ratio (delta "hc" "hc.moves_evaluated") (self "hc"));
      ("hc.useful_ratio", ratio (delta "hc" "hc.moves_applied") (delta "hc" "hc.moves_evaluated"));
      ("hccs.s", self "hccs");
      ("coarsen.s", self "coarsen");
      ("coarsen.contractions", float_of_int !contractions);
      ("refine.s", self "refine");
      ( "refine.useful_ratio",
        ratio (delta "refine" "hc.moves_applied") (delta "refine" "hc.moves_evaluated") );
      ("coarse_solve.s", total "coarse_solve");
      ("baselines.s", self "baselines");
      ("request.parse_s", self "request.parse");
      ("cache.key_s", self "cache.key");
      ("cache.lookup_s", self "cache.lookup");
      ("cache.store_s", self "cache.store");
      ("engine.schedule_s", total "engine.schedule");
      ("reply.encode_s", self "reply.encode");
      ("cache.hit_ratio", ratio (float_of_int !hits) (float_of_int !requests));
      ("pipeline.s", total "pipeline");
      ( "unattributed_ratio",
        ratio (sum [ "run"; "pipeline"; "coarse_solve"; "ml_ratio"; "request"; "engine.schedule" ]) run_s );
      ("trace_overhead_ratio", ratio (traced_s -. untraced_s) untraced_s);
    ]
  in
  let ints l = Obs.Json.List (List.map (fun c -> Obs.Json.Int c) l) in
  print_endline
    (Obs.Json.to_string_compact
       (Obs.Json.Obj
          [
            ("untraced_costs", ints untraced);
            ("traced_costs", ints traced);
            ("untraced_s", Obs.Json.Float untraced_s);
            ("traced_s", Obs.Json.Float traced_s);
            ( "ladder",
              Obs.Json.List
                (List.map
                   (fun (n, t) -> Obs.Json.Obj [ ("nodes", Obs.Json.Int n); ("bspg_s", Obs.Json.Float t) ])
                   rungs) );
            ("metrics", Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) metrics));
          ]))
