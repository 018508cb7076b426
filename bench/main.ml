(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7 and Appendix C). Results are printed in the
   paper's layout; EXPERIMENTS.md records paper-vs-measured values.

   Usage:
     dune exec bench/main.exe                 -- all sections, default scale
     dune exec bench/main.exe -- --scale smoke
     dune exec bench/main.exe -- --only table1,fig5
     dune exec bench/main.exe -- --timing     -- Bechamel stage timings
     dune exec bench/main.exe -- --list       -- list section ids

   Sweeps are shared between sections (Table 1, Table 6, Table 7 and
   Figure 5 all read the no-NUMA sweep, etc.) and cached, so the whole
   harness performs each scheduling run exactly once. *)

let scale = ref Datasets.Default
let seed = ref 1
let only : string list ref = ref []
let timing = ref false
let list_sections = ref false
let compare_baseline : string option ref = ref None
let cost_tol = ref 0.05
let perf_tol = ref 0.6
let jobs = ref (Par.default_jobs ())
let jobs_sweep : int list ref = ref []
let speedup_floor : float option ref = ref None

let usage () =
  prerr_endline
    "usage: main.exe [--scale smoke|default|full] [--seed N] [--only id,id,...] \
     [--timing] [--list] [--compare BASELINE.json] [--cost-tol FRAC] [--perf-tol FRAC] \
     [--jobs N] [--jobs-sweep N,N,...] [--speedup-floor X]";
  exit 2

let parse_args () =
  let float_arg s r = match float_of_string_opt s with Some v -> r := v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--scale" :: s :: rest ->
      (match Datasets.scale_of_string s with
       | Some sc -> scale := sc
       | None -> usage ());
      go rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some n -> seed := n | None -> usage ());
      go rest
    | "--only" :: s :: rest ->
      only := String.split_on_char ',' s;
      go rest
    | "--timing" :: rest ->
      timing := true;
      go rest
    | "--list" :: rest ->
      list_sections := true;
      go rest
    | "--compare" :: path :: rest ->
      compare_baseline := Some path;
      go rest
    | "--cost-tol" :: s :: rest ->
      float_arg s cost_tol;
      go rest
    | "--perf-tol" :: s :: rest ->
      float_arg s perf_tol;
      go rest
    | "--jobs" :: s :: rest ->
      (match int_of_string_opt s with
       | Some n when n >= 1 -> jobs := n
       | _ -> usage ());
      go rest
    | "--jobs-sweep" :: s :: rest ->
      let parsed = List.map int_of_string_opt (String.split_on_char ',' s) in
      if List.exists (function Some n -> n < 1 | None -> true) parsed then usage ();
      jobs_sweep := List.filter_map Fun.id parsed;
      go rest
    | "--speedup-floor" :: s :: rest ->
      (match float_of_string_opt s with
       | Some v when v > 0.0 -> speedup_floor := Some v
       | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv))

(* ------------------------------------------------------------------ *)
(* Budgets per scale.                                                  *)

(* Smoke and Default shrink the harness's own budgets
   (Experiment.default_options) to the scale; Full runs the thorough
   preset. *)
let bench_limits () =
  let base = Experiment.default_options.Experiment.limits in
  match !scale with
  | Datasets.Smoke ->
    {
      base with
      Pipeline.hc_evals = 60_000;
      hccs_evals = 20_000;
      ilp_full_nodes = 300;
      ilp_part_nodes = 60;
      ilp_cs_nodes = 80;
      stage_seconds = Some 0.25;
    }
  | Datasets.Default ->
    {
      base with
      Pipeline.hc_evals = 250_000;
      hccs_evals = 80_000;
      stage_seconds = Some 0.75;
    }
  | Datasets.Full ->
    { Pipeline.thorough_limits with Pipeline.stage_seconds = Some 120.0 }

(* Above this node count the ILP stages are disabled in the sweeps: they
   contribute little on larger DAGs (Section 7.1, "the ILP-based methods
   ... only a minor improvement for larger DAGs") and dominate the
   harness runtime otherwise. *)
let ilp_node_cap () =
  match !scale with
  | Datasets.Smoke -> 500
  | Datasets.Default -> 1_200
  | Datasets.Full -> max_int

(* Local search only: the huge sweep and the engine benchmarks below
   run no ILP stage. Every user sets its own [hc_evals]. *)
let heuristic_limits =
  {
    Experiment.default_options.Experiment.limits with
    Pipeline.hccs_evals = 50_000;
    use_ilp = false;
  }

let huge_limits () =
  match !scale with
  | Datasets.Smoke -> { heuristic_limits with Pipeline.hc_evals = 60_000 }
  | Datasets.Default -> { heuristic_limits with Pipeline.hc_evals = 300_000 }
  | Datasets.Full ->
    { heuristic_limits with Pipeline.hc_evals = 5_000_000; stage_seconds = Some 1800.0 }

(* ILPinit runs where [Pipeline.ilp_init_pays] (P = 4, small DAGs). HC
   budgets scale with the instance so that large DAGs still get several
   complete neighbourhood passes. *)
let limits_for machine dag base =
  let p = machine.Machine.p and n = Dag.n dag in
  let use_ilp = base.Pipeline.use_ilp && n <= ilp_node_cap () in
  let passes = match !scale with Datasets.Smoke -> 4 | Datasets.Default -> 6 | Datasets.Full -> 25 in
  {
    base with
    Pipeline.use_ilp;
    use_ilp_init = Pipeline.ilp_init_pays machine dag && use_ilp;
    hc_evals = max base.Pipeline.hc_evals (passes * n * 3 * p);
  }

(* ------------------------------------------------------------------ *)
(* Cached datasets and sweeps.                                         *)

let dataset_cache : (string, Datasets.t) Hashtbl.t = Hashtbl.create 8

let dataset label =
  match Hashtbl.find_opt dataset_cache label with
  | Some d -> d
  | None ->
    let d =
      match label with
      | "training" -> Datasets.training ~scale:!scale ~seed:!seed
      | "tiny" -> Datasets.tiny ~scale:!scale ~seed:!seed
      | "small" -> Datasets.small ~scale:!scale ~seed:!seed
      | "medium" -> Datasets.medium ~scale:!scale ~seed:!seed
      | "large" -> Datasets.large ~scale:!scale ~seed:!seed
      | "huge" -> Datasets.huge ~scale:!scale ~seed:!seed
      | _ -> invalid_arg ("unknown dataset " ^ label)
    in
    Hashtbl.add dataset_cache label d;
    d

type sweep_key = {
  ds : string;
  p : int;
  g : int;
  l : int;
  delta : int;  (* 0 = uniform machine *)
  huge : bool;  (* use the heuristic (non-ILP) limits *)
}

let run_cache : (sweep_key, Experiment.run list) Hashtbl.t = Hashtbl.create 64

let machine_of key =
  if key.delta = 0 then Machine.uniform ~p:key.p ~g:key.g ~l:key.l
  else Machine.numa_tree ~p:key.p ~g:key.g ~l:key.l ~delta:key.delta

let want_list_baselines key =
  (not key.huge) && (key.g = 5 || key.ds = "tiny") && key.delta = 0

let want_multilevel key = key.delta > 0 && key.ds <> "tiny" && not key.huge

let runs key =
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
    let d = dataset key.ds in
    let machine = machine_of key in
    let base = if key.huge then huge_limits () else bench_limits () in
    let t0 = Unix.gettimeofday () in
    Printf.eprintf "[sweep] %-7s P=%-2d g=%d l=%-2d delta=%d (%d instances)...%!" key.ds
      key.p key.g key.l key.delta
      (List.length d.Datasets.instances);
    (* One task per instance. Results come back in instance order, so
       every aggregation below is independent of the jobs count. *)
    let result =
      Par.map
        (fun inst ->
          let limits = limits_for machine inst.Datasets.dag base in
          let options =
            {
              Experiment.default_options with
              Experiment.limits = limits;
              (* The multilevel solving phase runs on the coarse DAG with
                 local search only; the communication-schedule ILP still
                 polishes the final uncoarsened result. *)
              ml_solver_limits =
                (if !scale = Datasets.Full then None
                 else Some { limits with Pipeline.use_ilp = false });
              with_list_baselines = want_list_baselines key;
              with_multilevel = want_multilevel key;
              seed = !seed;
            }
          in
          Experiment.evaluate options machine inst.Datasets.dag)
        d.Datasets.instances
    in
    Printf.eprintf " %.1fs\n%!" (Unix.gettimeofday () -. t0);
    Hashtbl.add run_cache key result;
    result

let main_key ds p g = { ds; p; g; l = 5; delta = 0; huge = false }
let numa_key ds p delta = { ds; p; g = 1; l = 5; delta; huge = false }

let main_datasets = [ "tiny"; "small"; "medium"; "large" ]
let no_tiny_datasets = [ "small"; "medium"; "large" ]
let ps = [ 4; 8; 16 ]
let gs = [ 1; 3; 5 ]
let numa_ps = [ 8; 16 ]
let deltas = [ 2; 3; 4 ]

let concat_runs keys = List.concat_map runs keys

(* ------------------------------------------------------------------ *)
(* Formatting helpers.                                                 *)

let red ratio = Experiment.reduction_percent ratio

let cell2 vs_cilk vs_hdagg = Printf.sprintf "%3.0f%% / %3.0f%%" (red vs_cilk) (red vs_hdagg)

let ours r = r.Experiment.ours
let cilk r = r.Experiment.cilk
let hdagg r = r.Experiment.hdagg
let init_cost r = r.Experiment.stage.Pipeline.init_cost
let after_ls r = r.Experiment.stage.Pipeline.after_local_search
let after_part r = r.Experiment.stage.Pipeline.after_ilp_part

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row label cells = Printf.printf "%-10s %s\n" label (String.concat "  " cells)

(* ------------------------------------------------------------------ *)
(* Sections.                                                           *)

let table1 () =
  header "Table 1: cost reduction vs Cilk / HDagg, no NUMA (l=5)";
  Printf.printf "By g and P (aggregated over tiny..large):\n";
  row "" (List.map (fun g -> Printf.sprintf "g=%-10d" g) gs);
  List.iter
    (fun p ->
      let cells =
        List.map
          (fun g ->
            let rs = concat_runs (List.map (fun ds -> main_key ds p g) main_datasets) in
            cell2 (Experiment.geo_ratio ours cilk rs) (Experiment.geo_ratio ours hdagg rs))
          gs
      in
      row (Printf.sprintf "P=%d" p) cells)
    ps;
  Printf.printf "\nBy g and dataset (aggregated over P):\n";
  row "" (List.map (fun g -> Printf.sprintf "g=%-10d" g) gs);
  List.iter
    (fun ds ->
      let cells =
        List.map
          (fun g ->
            let rs = concat_runs (List.map (fun p -> main_key ds p g) ps) in
            cell2 (Experiment.geo_ratio ours cilk rs) (Experiment.geo_ratio ours hdagg rs))
          gs
      in
      row ds cells)
    main_datasets

let fig5 () =
  header "Figure 5: cost ratios normalised to Cilk, no NUMA, per g";
  Printf.printf "%-6s %8s %8s %8s %8s %8s\n" "g" "Cilk" "HDagg" "Init" "HCcs" "ILP";
  List.iter
    (fun g ->
      let rs =
        concat_runs
          (List.concat_map (fun ds -> List.map (fun p -> main_key ds p g) ps) main_datasets)
      in
      Printf.printf "%-6d %8.3f %8.3f %8.3f %8.3f %8.3f\n" g 1.0
        (Experiment.geo_ratio hdagg cilk rs)
        (Experiment.geo_ratio init_cost cilk rs)
        (Experiment.geo_ratio after_ls cilk rs)
        (Experiment.geo_ratio ours cilk rs))
    gs

let table2 () =
  header "Table 2: cost reduction with NUMA vs Cilk / HDagg (g=1, l=5)";
  row "" (List.map (fun d -> Printf.sprintf "delta=%-6d" d) deltas);
  List.iter
    (fun p ->
      let cells =
        List.map
          (fun d ->
            let rs = concat_runs (List.map (fun ds -> numa_key ds p d) main_datasets) in
            cell2 (Experiment.geo_ratio ours cilk rs) (Experiment.geo_ratio ours hdagg rs))
          deltas
      in
      row (Printf.sprintf "P=%d" p) cells)
    numa_ps

let fig6 () =
  header "Figure 6: NUMA cost ratios normalised to Cilk (small/medium/large)";
  Printf.printf "%-12s %8s %8s %8s %8s %8s %8s\n" "(P,delta)" "Cilk" "HDagg" "Init" "HCcs"
    "ILP" "ML";
  List.iter
    (fun p ->
      List.iter
        (fun d ->
          let rs = concat_runs (List.map (fun ds -> numa_key ds p d) no_tiny_datasets) in
          let ml r =
            match Experiment.ml_best r with Some c -> c | None -> r.Experiment.ours
          in
          Printf.printf "%-12s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n"
            (Printf.sprintf "(%d,%d)" p d)
            1.0
            (Experiment.geo_ratio hdagg cilk rs)
            (Experiment.geo_ratio init_cost cilk rs)
            (Experiment.geo_ratio after_ls cilk rs)
            (Experiment.geo_ratio ours cilk rs)
            (Experiment.geo_ratio ml cilk rs))
        deltas)
    numa_ps

let table3 () =
  header "Table 3: multilevel (C_opt) reduction vs Cilk / HDagg with NUMA";
  row "" (List.map (fun d -> Printf.sprintf "delta=%-6d" d) deltas);
  let ml r = match Experiment.ml_best r with Some c -> c | None -> r.Experiment.ours in
  List.iter
    (fun p ->
      let cells =
        List.map
          (fun d ->
            let rs = concat_runs (List.map (fun ds -> numa_key ds p d) no_tiny_datasets) in
            cell2 (Experiment.geo_ratio ml cilk rs) (Experiment.geo_ratio ml hdagg rs))
          deltas
      in
      row (Printf.sprintf "P=%d" p) cells)
    numa_ps

(* Tables 4 and 5: which initialiser wins on the training set. *)
let init_wins () =
  let d = dataset "training" in
  let base = bench_limits () in
  List.concat
  @@ Par.map
    (fun inst ->
      let dag = inst.Datasets.dag in
      List.concat_map
        (fun p ->
          List.map
            (fun g ->
              let m = Machine.uniform ~p ~g ~l:5 in
              let candidates =
                [
                  ("bspg", Bsp_cost.total m (Bspg.schedule m dag));
                  ("source", Bsp_cost.total m (Source_heuristic.schedule m dag));
                ]
                @
                if p = 4 && Dag.n dag <= 600 then
                  [
                    ( "ilp-init",
                      Bsp_cost.total m
                        (Ilp_schedulers.init
                           ~budget:
                             (Budget.combine
                                (Budget.steps (base.Pipeline.ilp_init_nodes * 32))
                                (Budget.seconds 5.0))
                           ~max_vars:base.Pipeline.ilp_init_max_vars
                           ~max_nodes:base.Pipeline.ilp_init_nodes m dag) );
                  ]
                else []
              in
              let winner, _ =
                List.fold_left
                  (fun (bn, bc) (n, c) -> if c < bc then (n, c) else (bn, bc))
                  (List.hd candidates) (List.tl candidates)
              in
              (inst.Datasets.name, Dag.n dag, p, winner))
            gs)
        ps)
    d.Datasets.instances

let wins_cache = ref None

let get_wins () =
  match !wins_cache with
  | Some w -> w
  | None ->
    Printf.eprintf "[sweep] training-set initialiser comparison...\n%!";
    let w = init_wins () in
    wins_cache := Some w;
    w

let count_wins wins name = List.length (List.filter (fun (_, _, _, w) -> w = name) wins)

let is_spmv name = String.length name >= 4 && String.sub name 0 4 = "spmv"

let table4 () =
  header "Table 4: best initialiser counts on training spmv instances, per P";
  let wins = get_wins () in
  List.iter
    (fun p ->
      let subset = List.filter (fun (n, _, p', _) -> p' = p && is_spmv n) wins in
      Printf.printf "P=%-3d  bspg: %d  source: %d  ilp-init: %d\n" p
        (count_wins subset "bspg") (count_wins subset "source")
        (count_wins subset "ilp-init"))
    ps

let table5 () =
  header "Table 5: best initialiser counts on exp/cg/knn training instances, per P and n";
  let wins = get_wins () in
  let shrink =
    match !scale with Datasets.Full -> 1.0 | Datasets.Default -> 0.5 | Datasets.Smoke -> 0.15
  in
  let bucket n =
    if float_of_int n <= 150.0 *. shrink then "small"
    else if float_of_int n <= 500.0 *. shrink then "mid"
    else "large"
  in
  List.iter
    (fun b ->
      Printf.printf "n-bucket %s:\n" b;
      List.iter
        (fun p ->
          let subset =
            List.filter
              (fun (name, n, p', _) -> p' = p && bucket n = b && not (is_spmv name))
              wins
          in
          Printf.printf "  P=%-3d  bspg: %d  source: %d  ilp-init: %d\n" p
            (count_wins subset "bspg") (count_wins subset "source")
            (count_wins subset "ilp-init"))
        ps)
    [ "small"; "mid"; "large" ]

let table6 () =
  header "Table 6: reduction vs Cilk / HDagg per (g, P, dataset), no NUMA";
  Printf.printf "%-8s" "";
  List.iter (fun g -> List.iter (fun p -> Printf.printf " g=%d,P=%-8d" g p) ps) gs;
  print_newline ();
  List.iter
    (fun ds ->
      Printf.printf "%-8s" ds;
      List.iter
        (fun g ->
          List.iter
            (fun p ->
              let rs = runs (main_key ds p g) in
              Printf.printf " %s"
                (cell2 (Experiment.geo_ratio ours cilk rs)
                   (Experiment.geo_ratio ours hdagg rs)))
            ps)
        gs;
      print_newline ())
    main_datasets

let table7 () =
  header "Table 7: per-algorithm cost ratios (normalised to Cilk), g=5";
  Printf.printf "%-8s %8s %8s %8s %8s %8s %8s %8s %8s\n" "" "BL-EST" "ETF" "Cilk" "HDagg"
    "Init" "HCcs" "ILPpart" "ILPcs";
  List.iter
    (fun ds ->
      let rs = concat_runs (List.map (fun p -> main_key ds p 5) ps) in
      let opt f r = match f r with Some v -> v | None -> r.Experiment.cilk in
      Printf.printf "%-8s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n" ds
        (Experiment.geo_ratio (opt (fun r -> r.Experiment.bl_est)) cilk rs)
        (Experiment.geo_ratio (opt (fun r -> r.Experiment.etf)) cilk rs)
        1.0
        (Experiment.geo_ratio hdagg cilk rs)
        (Experiment.geo_ratio init_cost cilk rs)
        (Experiment.geo_ratio after_ls cilk rs)
        (Experiment.geo_ratio after_part cilk rs)
        (Experiment.geo_ratio ours cilk rs))
    main_datasets

let table8 () =
  header "Table 8: reduction vs ETF on the tiny dataset";
  row "" (List.map (fun g -> Printf.sprintf "g=%-4d" g) gs);
  List.iter
    (fun p ->
      let cells =
        List.map
          (fun g ->
            let rs = runs (main_key "tiny" p g) in
            let etf r =
              match r.Experiment.etf with Some v -> v | None -> r.Experiment.cilk
            in
            Printf.sprintf "%3.0f%%" (red (Experiment.geo_ratio ours etf rs)))
          gs
      in
      row (Printf.sprintf "P=%d" p) cells)
    ps

let table9 () =
  header "Table 9: effect of the latency l (medium dataset, g=1, P=8)";
  List.iter
    (fun l ->
      let rs = runs { ds = "medium"; p = 8; g = 1; l; delta = 0; huge = false } in
      Printf.printf "l=%-4d %s\n" l
        (cell2 (Experiment.geo_ratio ours cilk rs) (Experiment.geo_ratio ours hdagg rs)))
    [ 2; 5; 10; 20 ]

let table10 () =
  header "Table 10: NUMA reduction per (P, delta, dataset), g=1, l=5";
  Printf.printf "%-8s" "";
  List.iter (fun p -> List.iter (fun d -> Printf.printf " P=%d,d=%-8d" p d) deltas) numa_ps;
  print_newline ();
  List.iter
    (fun ds ->
      Printf.printf "%-8s" ds;
      List.iter
        (fun p ->
          List.iter
            (fun d ->
              let rs = runs (numa_key ds p d) in
              Printf.printf " %s"
                (cell2 (Experiment.geo_ratio ours cilk rs)
                   (Experiment.geo_ratio ours hdagg rs)))
            deltas)
        numa_ps;
      print_newline ())
    main_datasets

let huge_key ~p ~g ~delta = { ds = "huge"; p; g; l = 5; delta; huge = true }

let table11 () =
  header "Table 11: huge dataset, Init+HC+HCcs vs Cilk / HDagg (no NUMA)";
  row "" (List.map (fun g -> Printf.sprintf "g=%-10d" g) gs);
  List.iter
    (fun p ->
      let cells =
        List.map
          (fun g ->
            let rs = runs (huge_key ~p ~g ~delta:0) in
            cell2 (Experiment.geo_ratio ours cilk rs) (Experiment.geo_ratio ours hdagg rs))
          gs
      in
      row (Printf.sprintf "P=%d" p) cells)
    ps

let table12 () =
  header "Table 12: huge dataset with NUMA (g=1, l=5)";
  row "" (List.map (fun d -> Printf.sprintf "delta=%-6d" d) deltas);
  List.iter
    (fun p ->
      let cells =
        List.map
          (fun d ->
            let rs = runs (huge_key ~p ~g:1 ~delta:d) in
            cell2 (Experiment.geo_ratio ours cilk rs) (Experiment.geo_ratio ours hdagg rs))
          deltas
      in
      row (Printf.sprintf "P=%d" p) cells)
    numa_ps

let fig7 () =
  header "Figure 7: huge dataset ratios normalised to Cilk, per P (no NUMA)";
  Printf.printf "%-6s %8s %8s %8s %8s\n" "P" "Cilk" "HDagg" "Init" "HCcs";
  List.iter
    (fun p ->
      let rs = concat_runs (List.map (fun g -> huge_key ~p ~g ~delta:0) gs) in
      Printf.printf "%-6d %8.3f %8.3f %8.3f %8.3f\n" p 1.0
        (Experiment.geo_ratio hdagg cilk rs)
        (Experiment.geo_ratio init_cost cilk rs)
        (Experiment.geo_ratio ours cilk rs))
    ps

let ml_ratio_getter ratio r =
  match Experiment.ml_at_ratio r ratio with Some c -> c | None -> r.Experiment.ours

let ml_opt_getter r =
  match Experiment.ml_best r with Some c -> c | None -> r.Experiment.ours

let table13 () =
  header "Table 13: multilevel per coarsening ratio vs Cilk / HDagg (NUMA, no tiny)";
  List.iter
    (fun (label, getter) ->
      Printf.printf "%s:\n" label;
      row "" (List.map (fun d -> Printf.sprintf "delta=%-6d" d) deltas);
      List.iter
        (fun p ->
          let cells =
            List.map
              (fun d ->
                let rs =
                  concat_runs (List.map (fun ds -> numa_key ds p d) no_tiny_datasets)
                in
                cell2
                  (Experiment.geo_ratio getter cilk rs)
                  (Experiment.geo_ratio getter hdagg rs))
              deltas
          in
          row (Printf.sprintf "P=%d" p) cells)
        numa_ps)
    [ ("C15", ml_ratio_getter 0.15); ("C30", ml_ratio_getter 0.3); ("Copt", ml_opt_getter) ];
  (* The Section C.6 statistic: how often no scheduler beats the trivial
     single-processor schedule, with and without the multilevel method. *)
  let all_runs =
    concat_runs
      (List.concat_map
         (fun p ->
           List.concat_map
             (fun d -> List.map (fun ds -> numa_key ds p d) no_tiny_datasets)
             deltas)
         numa_ps)
  in
  let total = List.length all_runs in
  let base_fail =
    List.length (List.filter (fun r -> r.Experiment.ours >= r.Experiment.trivial) all_runs)
  in
  let ml_fail =
    List.length (List.filter (fun r -> ml_opt_getter r >= r.Experiment.trivial) all_runs)
  in
  Printf.printf
    "\nC.6: base scheduler not better than trivial: %d / %d; with ML: %d / %d\n" base_fail
    total ml_fail total

let table14 () =
  header "Table 14: multilevel / base-scheduler cost ratio (NUMA, no tiny)";
  List.iter
    (fun (label, getter) ->
      Printf.printf "%s:\n" label;
      row "" (List.map (fun d -> Printf.sprintf "delta=%-6d" d) deltas);
      List.iter
        (fun p ->
          let cells =
            List.map
              (fun d ->
                let rs =
                  concat_runs (List.map (fun ds -> numa_key ds p d) no_tiny_datasets)
                in
                Printf.sprintf "%11.3f" (Experiment.geo_ratio getter ours rs))
              deltas
          in
          row (Printf.sprintf "P=%d" p) cells)
        numa_ps)
    [ ("C15", ml_ratio_getter 0.15); ("C30", ml_ratio_getter 0.3); ("Copt", ml_opt_getter) ]

(* Ablations of the design choices DESIGN.md calls out: the HDagg
   aggregation pass, the superstep-merge pass inside our local search,
   and the coarsening strategy. *)
let ablations () =
  header "Ablations (design-choice studies, small dataset)";
  let d = dataset "small" in
  let p = 8 and g = 3 in
  let m = Machine.uniform ~p ~g ~l:5 in
  let lim = bench_limits () in
  (* Per-instance costs for the local-search variants, all starting from
     the better of BSPg/Source. *)
  let rows =
    List.map
      (fun inst ->
        let dag = inst.Datasets.dag in
        let cilk = Bsp_cost.total m (Cilk.schedule dag ~p ~seed:!seed) in
        let hdagg_on = Bsp_cost.total m (Hdagg.schedule ~aggregate:true m dag) in
        let hdagg_off = Bsp_cost.total m (Hdagg.schedule ~aggregate:false m dag) in
        let init =
          let a = Bspg.schedule m dag and b = Source_heuristic.schedule m dag in
          if Bsp_cost.total m a <= Bsp_cost.total m b then a else b
        in
        let hc, _ = Hc.improve ~budget:(Budget.steps lim.Pipeline.hc_evals) m init in
        let hc = Schedule.compact hc in
        let hc_cost = Bsp_cost.total m hc in
        let merged = Superstep_merge.greedy m hc in
        let merged_cost = Bsp_cost.total m merged in
        let hccs, _ = Hccs.improve ~budget:(Budget.steps lim.Pipeline.hccs_evals) m merged in
        let hccs_cost = Bsp_cost.total m hccs in
        (cilk, hdagg_on, hdagg_off, hc_cost, merged_cost, hccs_cost))
      d.Datasets.instances
  in
  let geo f = Statistics.geometric_mean (List.map f rows) in
  let r a b = float_of_int a /. float_of_int b in
  Printf.printf "HDagg aggregation: off/on cost ratio = %.3f (its merge pass gain)\n"
    (geo (fun (_, on, off, _, _, _) -> r off on));
  Printf.printf "local search (vs Cilk): HC %.3f  +merge %.3f  +HCcs %.3f\n"
    (geo (fun (c, _, _, hc, _, _) -> r hc c))
    (geo (fun (c, _, _, _, mg, _) -> r mg c))
    (geo (fun (c, _, _, _, _, cs) -> r cs c));
  (* Coarsening-strategy ablation: the paper's edge-selection rule vs a
     communication-weighted matching, both through the same multilevel
     driver on a communication-heavy machine. *)
  let numa = Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:4 in
  let solver mach dg =
    let init = Bspg.schedule mach dg in
    Schedule.compact (fst (Hc.improve ~budget:(Budget.steps 50_000) mach init))
  in
  let strat_rows =
    List.map
      (fun inst ->
        let dag = inst.Datasets.dag in
        let run strategy =
          Bsp_cost.total numa
            (Multilevel.run_ratio ~strategy ~refine_interval:5 ~refine_moves:100 ~solver
               ~ratio:0.3 numa dag)
        in
        (run Coarsen.Paper_rule, run Coarsen.Comm_matching))
      d.Datasets.instances
  in
  Printf.printf
    "coarsening strategy: comm-matching / paper-rule cost ratio = %.3f (P=8, delta=4)\n"
    (Statistics.geometric_mean (List.map (fun (a, b) -> r b a) strat_rows))

(* ------------------------------------------------------------------ *)
(* Local-search engine benchmark: the read-only delta + worklist HC
   against the apply/rollback sweep engine it replaced, on the same
   instance with the same evaluation budget.                           *)

let ls_start_schedule rng dag p =
  let level = Dag.wavefronts dag in
  let proc = Array.init (Dag.n dag) (fun _ -> Rng.int rng p) in
  Schedule.of_assignment dag ~proc ~step:level

(* Sub-second differential check, part of the CI tier: on small fixed
   instances the worklist engine must terminate in a local minimum at
   least as cheap as the reference sweep engine's (both engines use the
   same neighbourhood and first-improvement rule, so with an ample
   budget each ends in a genuine local minimum; the worklist's visiting
   order may find a different — never worse on these instances — one). *)
let ls_smoke () =
  header "Local-search smoke check: worklist+delta vs reference engine";
  let rng = Rng.create !seed in
  let cases =
    [
      ("chain", Finegrained.spmv (Sparse_matrix.random rng ~n:10 ~q:0.2), 4, 3, 5);
      ("exp", Finegrained.exp (Sparse_matrix.random rng ~n:8 ~q:0.25) ~k:2, 4, 2, 3);
      ("cg", Finegrained.cg (Sparse_matrix.random rng ~n:6 ~q:0.3) ~k:2, 8, 1, 2);
    ]
  in
  List.iter
    (fun (name, dag, p, g, l) ->
      let m = Machine.uniform ~p ~g ~l in
      let s = ls_start_schedule rng dag p in
      let _, st_wl = Hc.improve ~check:true m s in
      let _, st_ref = Hc.improve_reference ~check:true m s in
      Printf.printf "%-8s n=%-5d worklist=%-8d reference=%-8d evals %d vs %d\n" name
        (Dag.n dag) st_wl.Hc.final_cost st_ref.Hc.final_cost st_wl.Hc.moves_evaluated
        st_ref.Hc.moves_evaluated;
      if st_wl.Hc.final_cost > st_ref.Hc.final_cost then
        failwith
          (Printf.sprintf
             "ls_smoke: worklist engine ended worse than the reference on %s (%d > %d)"
             name st_wl.Hc.final_cost st_ref.Hc.final_cost))
    cases;
  print_endline "ls_smoke: OK (worklist local minima never worse than reference)"

let ls_eval_budget () =
  match !scale with
  | Datasets.Smoke -> 60_000
  | Datasets.Default -> 250_000
  | Datasets.Full -> 1_000_000

(* Moves-evaluated/sec microbenchmark on a >= 10k-node instance, plus an
   end-to-end pipeline wall time; emits BENCH_localsearch.json. *)
let localsearch () =
  header "Local-search engine microbenchmark (delta/worklist vs apply/rollback)";
  let rng = Rng.create !seed in
  let dag =
    Finegrained.generate_sized rng ~family:Finegrained.Exp ~shape:Finegrained.Wide
      ~target:12_000
  in
  let n = Dag.n dag in
  let m = Machine.uniform ~p:8 ~g:3 ~l:5 in
  let init = Bspg.schedule m dag in
  let evals = ls_eval_budget () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* Both engines are deterministic on a fixed start schedule, so
     repetitions re-measure the same work; alternating them makes slow
     drifts of the host machine hit both evenly. Rates come from the
     summed times. *)
  let reps =
    match !scale with Datasets.Smoke -> 1 | Datasets.Default -> 2 | Datasets.Full -> 5
  in
  Printf.eprintf "[ls] n=%d, budget=%d evals, %d alternating reps...%!" n evals reps;
  let t_ref = ref 0.0 and t_wl = ref 0.0 in
  let last_ref = ref None and last_wl = ref None in
  for _ = 1 to reps do
    let (_, s), t =
      time (fun () -> Hc.improve_reference ~budget:(Budget.steps evals) m init)
    in
    last_ref := Some s;
    t_ref := !t_ref +. t;
    let (_, s), t = time (fun () -> Hc.improve ~budget:(Budget.steps evals) m init) in
    last_wl := Some s;
    t_wl := !t_wl +. t;
    Printf.eprintf " .%!"
  done;
  Printf.eprintf " done (ref %.2fs, delta %.2fs)\n%!" !t_ref !t_wl;
  let st_ref = Option.get !last_ref and st_wl = Option.get !last_wl in
  let t_ref = !t_ref and t_wl = !t_wl in
  let rate st t = float_of_int (reps * st.Hc.moves_evaluated) /. t in
  let rate_ref = rate st_ref t_ref and rate_wl = rate st_wl t_wl in
  let speedup = rate_wl /. rate_ref in
  Printf.printf "instance: exp/wide, n=%d, P=8 g=3 l=5, budget=%d evals, reps=%d\n" n
    evals reps;
  Printf.printf "%-12s %12s %10s %14s %10s\n" "engine" "evaluated" "applied" "evals/sec"
    "final";
  Printf.printf "%-12s %12d %10d %14.0f %10d\n" "reference" st_ref.Hc.moves_evaluated
    st_ref.Hc.moves_applied rate_ref st_ref.Hc.final_cost;
  Printf.printf "%-12s %12d %10d %14.0f %10d\n" "delta" st_wl.Hc.moves_evaluated
    st_wl.Hc.moves_applied rate_wl st_wl.Hc.final_cost;
  Printf.printf "speedup (moves evaluated / sec): %.1fx\n" speedup;
  (* End-to-end: the heuristic pipeline (no ILP — this instance is far
     above the ILP node caps anyway) on the same instance. *)
  let pipeline_limits =
    { heuristic_limits with Pipeline.hc_evals = evals; hccs_evals = evals / 4 }
  in
  (* The end-to-end run doubles as the observability check: a registry
     is installed only here (the microbenchmark loops above run without
     one, keeping the measured engine rates registry-free), and its
     snapshot lands next to the benchmark JSON. *)
  let reg = Obs.Metrics.create () in
  let (_, stage), t_pipe =
    time (fun () ->
        Obs.Metrics.with_registry reg (fun () -> Pipeline.run ~limits:pipeline_limits m dag))
  in
  Printf.printf "pipeline (init+HC+HCcs) wall time: %.2fs, cost %d -> %d\n" t_pipe
    stage.Pipeline.init_cost stage.Pipeline.final_cost;
  Obs.Metrics.write_json_file reg "BENCH_localsearch.metrics.json";
  (* Parallel portfolio benchmark: the multilevel coarsening-ratio
     sweep, timed once per jobs count (default 1 and 4 domains,
     overridable with --jobs-sweep) in the same process. The limits
     carry no wall-clock cap and no ILP, so every run is fully
     deterministic and the equal-cost assertion below is exact — this is
     the bench-tier witness of the Par determinism contract. The
     measurement is taken regardless of --jobs so snapshots always
     record the same experiment (speedup saturates at the host's core
     count, which the snapshot records as "cores"; the committed
     baseline's value reflects its host). Each timed run resets and
     snapshots the Par per-domain accumulators, so the JSON carries the
     GC pressure (minor words, collections) behind the speedup. *)
  let par_sweep_jobs =
    let requested = match !jobs_sweep with [] -> [ 1; 4 ] | l -> l in
    let l = List.sort_uniq compare requested in
    if List.mem 1 l then l else 1 :: l
  in
  let par_jobs = List.fold_left max 1 par_sweep_jobs in
  let ml_ratios = [ 0.45; 0.3; 0.2; 0.15 ] in
  let ml_target =
    match !scale with
    | Datasets.Smoke -> 2_000
    | Datasets.Default -> 6_000
    | Datasets.Full -> 12_000
  in
  let ml_evals =
    match !scale with
    | Datasets.Smoke -> 20_000
    | Datasets.Default -> 80_000
    | Datasets.Full -> 250_000
  in
  let ml_dag =
    Finegrained.generate_sized rng ~family:Finegrained.Exp ~shape:Finegrained.Wide
      ~target:ml_target
  in
  let ml_machine = Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:4 in
  let ml_limits =
    {
      heuristic_limits with
      Pipeline.hc_evals = ml_evals;
      hccs_evals = ml_evals / 4;
      stage_seconds = None;
    }
  in
  let ml_config =
    { Multilevel.default_config with Multilevel.ratios = ml_ratios }
  in
  let sweep () = Pipeline.run_multilevel ~limits:ml_limits ~config:ml_config ml_machine ml_dag in
  let cores = Domain.recommended_domain_count () in
  Printf.eprintf "[par] multilevel ratio sweep n=%d, %d ratios: jobs %s...%!"
    (Dag.n ml_dag) (List.length ml_ratios)
    (String.concat "," (List.map string_of_int par_sweep_jobs));
  let sweep_runs =
    List.map
      (fun j ->
        Par.reset_stats ();
        (* Whole-run allocation accounting: the submitting domain's
           [Gc.counters] delta (it runs tasks too, and at jobs = 1 the
           entire sweep) plus the worker domains' per-drain accumulators
           from {!Par.stats}. Both sides are domain-local counters —
           [Gc.quick_stat] would multi-count, since in OCaml 5 it
           samples every live domain's allocation. Worker idle time
           between batches allocates nothing, so the sum is the run's
           total minor-heap traffic. *)
        let mw0, pw0, _ = Gc.counters () in
        let s, t = time (fun () -> Par.with_jobs j sweep) in
        let mw1, pw1, _ = Gc.counters () in
        let st = Par.stats () in
        let worker_minor, worker_promoted =
          List.fold_left
            (fun (mw, pw) (d : Par.domain_stats) ->
              if d.Par.is_worker then
                (mw +. d.Par.minor_words, pw +. d.Par.promoted_words)
              else (mw, pw))
            (0.0, 0.0) st
        in
        let minor = mw1 -. mw0 +. worker_minor in
        let promoted = pw1 -. pw0 +. worker_promoted in
        let r = (j, Bsp_cost.total ml_machine s, t, st, minor, promoted) in
        Printf.eprintf " %.2fs%!" t;
        r)
      par_sweep_jobs
  in
  Printf.eprintf "\n%!";
  let t_of j =
    match List.find_opt (fun (j', _, _, _, _, _) -> j' = j) sweep_runs with
    | Some (_, _, t, _, _, _) -> Some t
    | None -> None
  in
  let sweep_cost_j1, t_sweep_j1, sweep_minor_j1, sweep_promoted_j1 =
    match sweep_runs with
    | (1, c, t, _, mw, pw) :: _ -> (c, t, mw, pw)
    | _ -> assert false
  in
  List.iter
    (fun (j, c, _, _, _, _) ->
      if c <> sweep_cost_j1 then
        failwith
          (Printf.sprintf
             "parallel determinism violated: ratio sweep cost %d at jobs=1 but %d at \
              jobs=%d"
             sweep_cost_j1 c j))
    sweep_runs;
  let t_sweep_jn = Option.get (t_of par_jobs) in
  let sweep_speedup = t_sweep_j1 /. t_sweep_jn in
  let par_domains =
    match List.find_opt (fun (j, _, _, _, _, _) -> j = par_jobs) sweep_runs with
    | Some (_, _, _, st, _, _) -> st
    | None -> []
  in
  Printf.printf
    "multilevel ratio sweep (n=%d, %d ratios, cores=%d, costs identical: %d):\n"
    (Dag.n ml_dag) (List.length ml_ratios) cores sweep_cost_j1;
  Printf.printf "  %4s %10s %9s %16s\n" "jobs" "seconds" "speedup" "minor words";
  List.iter
    (fun (j, _, t, _, mw, _) ->
      Printf.printf "  %4d %10.2f %8.2fx %16.0f\n" j t (t_sweep_j1 /. t) mw)
    sweep_runs;
  if par_domains <> [] then begin
    Printf.printf "  per-domain GC/task stats at jobs=%d:\n" par_jobs;
    List.iter
      (fun (d : Par.domain_stats) ->
        Printf.printf
          "    domain %d (%s): %d tasks, %d batches (chunk %d), %.0f minor words (%.0f \
           promoted), %d minor / %d major collections\n"
          d.Par.domain_index
          (if d.Par.is_worker then "worker" else "submitter")
          d.Par.tasks_run d.Par.batches_drained d.Par.last_chunk d.Par.minor_words
          d.Par.promoted_words d.Par.minor_collections d.Par.major_collections)
      par_domains
  end;
  (* Node replication on NUMA (DESIGN.md Section 5g): a single
     broadcaster (w=1, c=8) on p0 feeding one heavy consumer (w=300) per
     processor of an 8-leaf delta=4 NUMA tree. Every single-node move
     doubles some processor's superstep-1 work (+300) for a comm saving
     of at most g * 584, per move at most 128 — so the move engine is
     stuck at the start schedule — while replicating the broadcaster
     onto the far 4-cluster cuts the h-relation from 584 to 72. The
     replication phase must find that strictly improving replica, and
     the replicating pipeline must stay bit-identical across jobs
     counts. *)
  let rep_machine = Machine.numa_tree ~p:8 ~g:1 ~l:5 ~delta:4 in
  let rep_dag =
    let n = 9 in
    Dag.of_edges ~n
      ~edges:(List.init 8 (fun q -> (0, q + 1)))
      ~work:(Array.init n (fun v -> if v = 0 then 1 else 300))
      ~comm:(Array.init n (fun v -> if v = 0 then 8 else 1))
  in
  let rep_start =
    Schedule.of_assignment rep_dag
      ~proc:(Array.init 9 (fun v -> if v = 0 then 0 else v - 1))
      ~step:(Array.init 9 (fun v -> if v = 0 then 0 else 1))
  in
  let _, st_plain = Hc.improve ~budget:(Budget.steps evals) rep_machine rep_start in
  let rep_sched, st_rep =
    Hc.improve ~budget:(Budget.steps evals) ~replicate:true rep_machine rep_start
  in
  if not (Validity.is_valid rep_machine rep_sched) then
    failwith "replication: HC produced an invalid replicated schedule";
  (match
     Profile.reconcile
       (Profile.compute rep_machine rep_sched)
       (Bsp_cost.breakdown rep_machine rep_sched)
   with
  | Ok () -> ()
  | Error msg -> failwith ("replication: profile does not reconcile: " ^ msg));
  if st_rep.Hc.final_cost >= st_plain.Hc.final_cost then
    failwith
      (Printf.sprintf
         "replication failed to strictly improve the NUMA broadcast instance (%d vs %d)"
         st_rep.Hc.final_cost st_plain.Hc.final_cost);
  (* The full pipeline with the replication stage on, once per jobs
     count of the sweep: deterministic limits, so costs must be equal. *)
  let rep_limits = { ml_limits with Pipeline.replicate = true } in
  let rep_pipe_costs =
    List.map
      (fun j ->
        ( j,
          Par.with_jobs j (fun () ->
              Bsp_cost.total rep_machine
                (fst (Pipeline.run ~limits:rep_limits rep_machine rep_dag))) ))
      par_sweep_jobs
  in
  let rep_pipe_cost = snd (List.hd rep_pipe_costs) in
  List.iter
    (fun (j, c) ->
      if c <> rep_pipe_cost then
        failwith
          (Printf.sprintf
             "parallel determinism violated: replicating pipeline cost %d at jobs=%d \
              but %d at jobs=%d"
             rep_pipe_cost (fst (List.hd rep_pipe_costs)) c j))
    rep_pipe_costs;
  Printf.printf
    "replication on NUMA (broadcast n=%d, P=8 delta=4): HC %d -> with replicas %d (%d \
     added), pipeline %d (identical at jobs %s)\n"
    (Dag.n rep_dag) st_plain.Hc.final_cost st_rep.Hc.final_cost st_rep.Hc.replicas_added
    rep_pipe_cost
    (String.concat "," (List.map (fun (j, _) -> string_of_int j) rep_pipe_costs));
  (* "ml_sweep_seconds_jobs4" keeps its historical name but records the
     highest jobs count of the sweep (the "jobs" field next to it). *)
  let sweep_json =
    String.concat ",\n      "
      (List.map
         (fun (j, c, t, _, mw, pw) ->
           Printf.sprintf
             {|{ "jobs": %d, "seconds": %.4f, "cost": %d, "minor_words": %.0f, "promoted_words": %.0f }|}
             j t c mw pw)
         sweep_runs)
  in
  let domains_json =
    String.concat ",\n      "
      (List.map
         (fun (d : Par.domain_stats) ->
           Printf.sprintf
             {|{ "domain_index": %d, "is_worker": %b, "tasks_run": %d, "batches_drained": %d, "last_chunk": %d, "minor_words": %.0f, "promoted_words": %.0f, "minor_collections": %d, "major_collections": %d }|}
             d.Par.domain_index d.Par.is_worker d.Par.tasks_run d.Par.batches_drained
             d.Par.last_chunk d.Par.minor_words d.Par.promoted_words
             d.Par.minor_collections d.Par.major_collections)
         par_domains)
  in
  Atomic_file.write "BENCH_localsearch.json" @@ fun oc ->
  Printf.fprintf oc
    {|{
  "benchmark": "localsearch",
  "scale": "%s",
  "seed": %d,
  "jobs": %d,
  "instance": { "family": "exp", "shape": "wide", "nodes": %d },
  "machine": { "p": 8, "g": 3, "l": 5 },
  "eval_budget": %d,
  "reps": %d,
  "reference": {
    "moves_evaluated": %d,
    "moves_applied": %d,
    "seconds_total": %.4f,
    "evals_per_sec": %.0f,
    "final_cost": %d
  },
  "delta_worklist": {
    "moves_evaluated": %d,
    "moves_applied": %d,
    "seconds_total": %.4f,
    "evals_per_sec": %.0f,
    "final_cost": %d
  },
  "speedup_evals_per_sec": %.2f,
  "pipeline_seconds": %.4f,
  "pipeline_final_cost": %d,
  "replication": {
    "instance_nodes": %d,
    "hc_cost": %d,
    "hc_replicated_cost": %d,
    "replicas_added": %d,
    "pipeline_cost": %d,
    "jobs_costs_equal": true
  },
  "parallel": {
    "jobs": %d,
    "cores": %d,
    "minor_heap_words": %d,
    "ml_sweep_nodes": %d,
    "ml_sweep_ratios": %d,
    "ml_sweep_seconds_jobs1": %.4f,
    "ml_sweep_seconds_jobs4": %.4f,
    "ml_sweep_speedup": %.2f,
    "ml_sweep_final_cost": %d,
    "ml_sweep_minor_words_jobs1": %.0f,
    "ml_sweep_promoted_words_jobs1": %.0f,
    "costs_equal": true,
    "sweep": [
      %s
    ],
    "domains": [
      %s
    ]
  }
}
|}
    (Datasets.scale_name !scale) !seed !jobs n evals reps st_ref.Hc.moves_evaluated
    st_ref.Hc.moves_applied t_ref rate_ref st_ref.Hc.final_cost st_wl.Hc.moves_evaluated
    st_wl.Hc.moves_applied t_wl rate_wl st_wl.Hc.final_cost speedup t_pipe
    stage.Pipeline.final_cost (Dag.n rep_dag) st_plain.Hc.final_cost
    st_rep.Hc.final_cost st_rep.Hc.replicas_added rep_pipe_cost par_jobs cores
    Par.minor_heap_words (Dag.n ml_dag)
    (List.length ml_ratios) t_sweep_j1 t_sweep_jn sweep_speedup sweep_cost_j1
    sweep_minor_j1 sweep_promoted_j1 sweep_json domains_json;
  Printf.printf "wrote BENCH_localsearch.json and BENCH_localsearch.metrics.json\n"

(* ------------------------------------------------------------------ *)
(* Serving: cold schedule vs content-addressed cache hit (DESIGN.md
   Section 5h). Emits BENCH_server.json and hard-fails if the hit path
   is not at least 100x faster than the cold path. *)

let server () =
  header "Schedule server: cold compute vs cache hit";
  let target, budget =
    match !scale with
    | Datasets.Smoke -> (4_000, 2.0)
    | Datasets.Default -> (12_000, 5.0)
    | Datasets.Full -> (30_000, 10.0)
  in
  let rng = Rng.create !seed in
  let dag =
    Finegrained.generate_sized rng ~family:Finegrained.Exp ~shape:Finegrained.Wide
      ~target
  in
  let machine = Machine.uniform ~p:8 ~g:3 ~l:5 in
  let req id =
    {
      Server.Request.id;
      algorithm = "pipeline";
      seconds = budget;
      seed = !seed;
      replicate = false;
      machine;
      dag;
    }
  in
  let reg = Obs.Metrics.create () in
  Obs.Metrics.install reg;
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bsp-bench-cache.%d" (Unix.getpid ()))
  in
  (try Unix.mkdir cache_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.eprintf "[server] n=%d, budget=%.0fs, cold run...%!" (Dag.n dag) budget;
  (* one session table, as a daemon holds it *)
  let memo = Server.Memo.create () in
  let cold, t_cold = time (fun () -> Server.Engine.handle ~memo ~cache_dir (req "cold")) in
  assert (cold.Server.Engine.status = Server.Engine.Miss);
  (* the hit path is the warm entry the miss left plus two stats of its
     files; take the best of a few reps so one unlucky page fault
     doesn't decide the number *)
  let hit_reps = 5 in
  let t_hit = ref infinity in
  let hit = ref cold in
  for i = 1 to hit_reps do
    let r, t =
      time (fun () ->
          Server.Engine.handle ~memo ~cache_dir (req (Printf.sprintf "hit%d" i)))
    in
    assert (r.Server.Engine.status = Server.Engine.Hit);
    hit := r;
    t_hit := Float.min !t_hit t
  done;
  let hit = !hit and t_hit = !t_hit in
  Printf.eprintf " done\n%!";
  let identical =
    Schedule_io.to_string hit.Server.Engine.schedule
    = Schedule_io.to_string cold.Server.Engine.schedule
  in
  let speedup = t_cold /. t_hit in
  Printf.printf "instance: exp/wide, n=%d, P=8 g=3 l=5, budget=%.0fs\n" (Dag.n dag)
    budget;
  Printf.printf "cold (miss): %8.3fs   cost %d\n" t_cold cold.Server.Engine.cost;
  Printf.printf "hit:         %8.5fs   cost %d (best of %d)\n" t_hit
    hit.Server.Engine.cost hit_reps;
  Printf.printf "speedup: %.0fx, bit-identical: %b\n" speedup identical;
  Obs.Metrics.write_json_file reg "BENCH_server.metrics.json";
  Atomic_file.write "BENCH_server.json" (fun oc ->
      Printf.fprintf oc
        {|{
  "benchmark": "server",
  "scale": "%s",
  "seed": %d,
  "instance": { "family": "exp", "shape": "wide", "nodes": %d },
  "machine": { "p": 8, "g": 3, "l": 5 },
  "seconds_budget": %.1f,
  "key": "%s",
  "cold_seconds": %.6f,
  "hit_seconds": %.6f,
  "hit_reps": %d,
  "speedup": %.1f,
  "cold_cost": %d,
  "hit_cost": %d,
  "bit_identical": %b
}
|}
        (Datasets.scale_name !scale) !seed (Dag.n dag) budget cold.Server.Engine.key
        t_cold t_hit hit_reps speedup cold.Server.Engine.cost hit.Server.Engine.cost
        identical);
  Printf.printf "wrote BENCH_server.json and BENCH_server.metrics.json\n";
  (try
     Array.iter
       (fun e -> Sys.remove (Filename.concat cache_dir e))
       (Sys.readdir cache_dir);
     Unix.rmdir cache_dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  if hit.Server.Engine.cost <> cold.Server.Engine.cost || not identical then begin
    Printf.printf "FAIL: cache hit is not bit-identical to the cold schedule\n";
    exit 1
  end;
  if speedup < 100.0 then begin
    Printf.printf "FAIL: cache hit only %.1fx faster than cold path (need >= 100x)\n"
      speedup;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead smoke (DESIGN.md Section 5i): the same
   hill-climbing tasks timed with the recorder off and on, in short
   interleaved batches. Hard-fails when the median on/off ratio
   exceeds 1.05, and exports a recorded per-domain Chrome trace
   (BENCH_obs.trace.json) plus a BENCH_obs.json snapshot. *)

let obs () =
  header "Flight recorder overhead (Obs.Events off vs on)";
  let rng = Rng.create !seed in
  (* Many small tasks: the recorder writes its events once per Par task
     and once per batch, not per HC evaluation, so short tasks keep the
     recorded events per CPU second (what the 5% budget bounds) high. A
     batch of [batch] tasks takes a few tens of ms. *)
  let target, evals, rounds =
    match !scale with
    | Datasets.Smoke -> (2_000, 25_000, 64)
    | Datasets.Default -> (4_000, 60_000, 64)
    | Datasets.Full -> (8_000, 150_000, 96)
  in
  let batch = 16 and trace_tasks = 64 in
  let dag =
    Finegrained.generate_sized rng ~family:Finegrained.Exp ~shape:Finegrained.Wide
      ~target
  in
  let m = Machine.uniform ~p:8 ~g:3 ~l:5 in
  let init = Bspg.schedule m dag in
  (* A Par batch of identical HC improvements: the portfolio shape the
     recorder exists to explain. The overhead comparison runs at
     jobs=1, where the sequential path still drives the per-task record
     path (task spans via timed_task) but the work split and domain
     scheduling jitter of jobs>=2 stay out of the timings. A separate
     recorded jobs>=2 pass below produces the per-domain trace. *)
  let workload j n =
    Par.with_jobs j (fun () ->
        Par.map
          (fun _ ->
            let _, st = Hc.improve ~budget:(Budget.steps evals) m init in
            st.Hc.moves_evaluated)
          (List.init n Fun.id)
        |> List.fold_left ( + ) 0)
  in
  (* Process CPU time, not wall clock: the comparison is sequential and
     the recorder's cost is cycles. *)
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  (* Co-tenant load on a shared host inflates whole stretches of CPU
     time by up to a third, so two long passes timed apart disagree by
     more than the 5% budget on identical code. A round here times one
     batch with the recorder off and one with it on, back to back, in
     alternating order: both see the same load, and the median of the
     per-round ratios drops the rounds a burst split. The on side enables a fresh minimum-size
     ring and records one event before its clock starts, so ring
     allocation stays out of the timed record path. *)
  let k_warm = Obs.Events.register_kind "obs.warm" in
  let off () =
    Obs.Events.disable ();
    time (fun () -> workload 1 batch)
  in
  let on () =
    Obs.Events.enable ~capacity:1024 ();
    Obs.Events.instant k_warm;
    time (fun () -> workload 1 batch)
  in
  Printf.eprintf "[obs] n=%d, %d rounds of %d tasks x %d evals per side...%!" (Dag.n dag)
    rounds batch evals;
  (* Warm-up faults the code paths in before any round is timed. *)
  ignore (workload 1 batch);
  let ratios = Array.make rounds 0.0 in
  let sum_off = ref 0.0 and sum_on = ref 0.0 in
  let moves_off = ref 0 and moves_on = ref 0 in
  for r = 0 to rounds - 1 do
    let (mv_off, t_off), (mv_on, t_on) =
      if r land 1 = 0 then
        let a = off () in
        (a, on ())
      else
        let b = on () in
        (off (), b)
    in
    moves_off := mv_off;
    moves_on := mv_on;
    sum_off := !sum_off +. t_off;
    sum_on := !sum_on +. t_on;
    ratios.(r) <- t_on /. t_off
  done;
  Obs.Events.disable ();
  Printf.eprintf " done\n%!";
  Array.sort compare ratios;
  let median_ratio = (ratios.((rounds - 1) / 2) +. ratios.(rounds / 2)) /. 2.0 in
  (* Per-domain trace: one recorded pass on >= 2 domains (untimed) so
     the exported timeline shows the parallel machinery: queue waits,
     claims, idle spans and GC samples on every track. *)
  let wjobs = max (Par.jobs ()) 2 in
  Obs.Events.enable ();
  let moves_par = workload wjobs trace_tasks in
  let recorded = Obs.Events.recorded () and dropped = Obs.Events.dropped () in
  Obs.Events.write_chrome_trace "BENCH_obs.trace.json";
  Obs.Events.disable ();
  if moves_par <> !moves_off * (trace_tasks / batch) then begin
    Printf.printf "FAIL: jobs=%d run disagrees with jobs=1 (%d vs %d moves)\n" wjobs
      moves_par (!moves_off * (trace_tasks / batch));
    exit 1
  end;
  if !moves_off <> !moves_on then begin
    Printf.printf "FAIL: recorder changed the computed result (%d vs %d moves)\n"
      !moves_off !moves_on;
    exit 1
  end;
  let overhead = median_ratio -. 1.0 in
  Printf.printf
    "instance: exp/wide n=%d, %d rounds x %d tasks x %d evals, trace jobs=%d\n"
    (Dag.n dag) rounds batch evals wjobs;
  Printf.printf
    "recorder off: %.4fs   recorder on: %.4fs CPU (totals)   on/off per round: min %.3f \
     median %.3f max %.3f   overhead: %+.2f%%\n"
    !sum_off !sum_on ratios.(0) median_ratio ratios.(rounds - 1) (100.0 *. overhead);
  Printf.printf "events recorded: %d (dropped to ring wrap: %d)\n" recorded dropped;
  Atomic_file.write "BENCH_obs.json" (fun oc ->
      Printf.fprintf oc
        {|{
  "benchmark": "obs",
  "scale": "%s",
  "seed": %d,
  "jobs": %d,
  "instance": { "family": "exp", "shape": "wide", "nodes": %d },
  "rounds": %d,
  "batch_tasks": %d,
  "eval_budget": %d,
  "recorder_off_cpu_seconds_total": %.4f,
  "recorder_on_cpu_seconds_total": %.4f,
  "on_off_ratio_median": %.4f,
  "overhead_fraction": %.4f,
  "events_recorded": %d,
  "events_dropped": %d
}
|}
        (Datasets.scale_name !scale) !seed wjobs (Dag.n dag) rounds batch evals !sum_off
        !sum_on median_ratio overhead recorded dropped);
  Printf.printf "wrote BENCH_obs.json and BENCH_obs.trace.json\n";
  if recorded = 0 then begin
    Printf.printf "FAIL: the recorder-on run recorded no events\n";
    exit 1
  end;
  if overhead > 0.05 then begin
    Printf.printf "FAIL: flight recorder overhead %.1f%% exceeds the 5%% budget\n"
      (100.0 *. overhead);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel stage timings (Section 8's running-time discussion).       *)

let run_timing () =
  let open Bechamel in
  let rng = Rng.create !seed in
  let dag = Finegrained.exp (Sparse_matrix.random rng ~n:30 ~q:0.1) ~k:4 in
  let m = Machine.uniform ~p:8 ~g:3 ~l:5 in
  let init = Bspg.schedule m dag in
  let lim = bench_limits () in
  let tests =
    [
      Test.make ~name:"cilk" (Staged.stage (fun () -> Cilk.schedule dag ~p:8 ~seed:1));
      Test.make ~name:"bl-est"
        (Staged.stage (fun () -> List_scheduler.schedule List_scheduler.Bl_est m dag));
      Test.make ~name:"etf"
        (Staged.stage (fun () -> List_scheduler.schedule List_scheduler.Etf m dag));
      Test.make ~name:"hdagg" (Staged.stage (fun () -> Hdagg.schedule m dag));
      Test.make ~name:"bspg" (Staged.stage (fun () -> Bspg.schedule m dag));
      Test.make ~name:"source" (Staged.stage (fun () -> Source_heuristic.schedule m dag));
      Test.make ~name:"hc"
        (Staged.stage (fun () -> Hc.improve ~budget:(Budget.steps 50_000) m init));
      Test.make ~name:"hccs"
        (Staged.stage (fun () -> Hccs.improve ~budget:(Budget.steps 20_000) m init));
      Test.make ~name:"ilp-part"
        (Staged.stage (fun () ->
             Ilp_schedulers.part ~budget:(Budget.steps 20)
               ~max_vars:lim.Pipeline.ilp_part_max_vars ~max_nodes:20 m init));
      Test.make ~name:"ilp-cs"
        (Staged.stage (fun () ->
             Ilp_schedulers.comm_schedule ~budget:(Budget.steps 30)
               ~max_vars:lim.Pipeline.ilp_cs_max_vars ~max_nodes:30 m init));
      Test.make ~name:"coarsen-30%"
        (Staged.stage (fun () ->
             let session = Coarsen.start dag in
             Coarsen.coarsen_to session ~target:(Dag.n dag * 3 / 10)));
      Test.make ~name:"cost-eval" (Staged.stage (fun () -> Bsp_cost.total m init));
      Test.make ~name:"validity" (Staged.stage (fun () -> Validity.is_valid m init));
    ]
  in
  header "Stage timings (Bechamel, monotonic clock)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          (* Strip the synthetic group prefix Bechamel adds. *)
          let name =
            match String.index_opt name '/' with
            | Some i -> String.sub name (i + 1) (String.length name - i - 1)
            | None -> name
          in
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-24s %14.0f ns/run\n" name est
          | _ -> Printf.printf "%-24s (no estimate)\n" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Regression guard: --compare BASELINE.json diffs the fresh localsearch
   numbers against a committed BENCH_localsearch.json snapshot.

   Final costs are deterministic for a fixed scale and seed (modulo the
   per-stage wall-clock caps, hence a small tolerance); absolute
   evals/sec rates vary with the host, so the perf tolerance is generous
   and the machine-relative speedup ratio (delta engine vs the reference
   engine timed in the same process) is the sturdier signal.            *)

let read_json path =
  let contents = In_channel.with_open_bin path In_channel.input_all in
  try Obs.Json.of_string contents
  with Obs.Json.Parse_error msg ->
    Printf.eprintf "bench --compare: %s does not parse as JSON: %s\n" path msg;
    exit 2

let json_path json path =
  List.fold_left
    (fun acc key -> match acc with Some v -> Obs.Json.member key v | None -> None)
    (Some json) path

(* (path into the snapshot, metric kind). `Cost and `Perf are guarded
   with the --cost-tolerance / --perf-tolerance knobs; `Alloc is the
   allocation-regression gate — a hard, tolerance-flag-independent cap
   of 1.5x on minor-heap words, enforced even when the wall-clock
   metrics are skipped (jobs mismatch): allocation at jobs = 1 is a
   deterministic property of the code path, not of the host. *)
let alloc_cap = 1.5

let guarded_metrics =
  [
    ([ "reference"; "final_cost" ], `Cost);
    ([ "delta_worklist"; "final_cost" ], `Cost);
    ([ "pipeline_final_cost" ], `Cost);
    ([ "replication"; "hc_replicated_cost" ], `Cost);
    ([ "replication"; "pipeline_cost" ], `Cost);
    ([ "parallel"; "ml_sweep_final_cost" ], `Cost);
    ([ "parallel"; "ml_sweep_minor_words_jobs1" ], `Alloc);
    ([ "reference"; "evals_per_sec" ], `Perf);
    ([ "delta_worklist"; "evals_per_sec" ], `Perf);
    ([ "speedup_evals_per_sec" ], `Perf);
    ([ "parallel"; "ml_sweep_speedup" ], `Perf);
  ]

let compare_snapshots ~baseline_path ~baseline ~fresh =
  let str p j =
    match json_path j p with Some (Obs.Json.String s) -> Some s | _ -> None
  in
  let num p j = Option.bind (json_path j p) Obs.Json.to_float_opt in
  (match (str [ "scale" ] baseline, str [ "scale" ] fresh) with
   | Some a, Some b when a <> b ->
     Printf.eprintf
       "bench --compare: scale mismatch (baseline %s is %s, this run is %s) — costs are \
        not comparable\n"
       baseline_path a b;
     exit 2
   | _ -> ());
  (match (num [ "seed" ] baseline, num [ "seed" ] fresh) with
   | Some a, Some b when a <> b ->
     Printf.eprintf "bench --compare: seed mismatch (baseline %.0f, this run %.0f)\n" a b;
     exit 2
   | _ -> ());
  (* Wall-clock metrics must never be compared across different core
     counts, but costs and jobs = 1 allocation are jobs-independent: on
     a jobs mismatch the `Perf rows are skipped while `Cost and `Alloc
     stay enforced (this is what lets CI run the guard in its jobs = 4
     lane against the committed jobs = 1 baseline). A snapshot predating
     the jobs field is rejected outright — regenerate it. *)
  let jobs_mismatch =
    match (num [ "jobs" ] baseline, num [ "jobs" ] fresh) with
    | Some a, Some b when a <> b ->
      Printf.printf
        "bench --compare: jobs mismatch (baseline %s ran with --jobs %.0f, this run \
         with --jobs %.0f) — perf metrics skipped; cost and allocation guards still \
         enforced\n"
        baseline_path a b;
      true
    | None, _ ->
      Printf.eprintf
        "bench --compare: baseline %s has no \"jobs\" field (pre-parallel snapshot) — \
         regenerate it with the current harness\n"
        baseline_path;
      exit 2
    | _ -> false
  in
  header (Printf.sprintf "Regression guard: fresh run vs %s" baseline_path);
  Printf.printf "%-32s %14s %14s %8s  %s\n" "metric" "baseline" "fresh" "ratio"
    "verdict";
  let regressions = ref 0 in
  List.iter
    (fun (path, kind) ->
      let name = String.concat "." path in
      if kind = `Perf && jobs_mismatch then
        Printf.printf "%-32s (skipped: jobs mismatch)\n" name
      else
        match (num path baseline, num path fresh) with
        | Some b, Some f ->
          let ratio = if b = 0.0 then 1.0 else f /. b in
          let regressed =
            match kind with
            | `Cost -> f > b *. (1.0 +. !cost_tol)
            | `Perf -> f < b *. (1.0 -. !perf_tol)
            | `Alloc -> f > b *. alloc_cap
          in
          if regressed then incr regressions;
          Printf.printf "%-32s %14.1f %14.1f %8.3f  %s\n" name b f ratio
            (if regressed then "REGRESSED" else "ok")
        | _ ->
          Printf.printf "%-32s (missing in baseline or fresh snapshot — skipped)\n" name)
    guarded_metrics;
  (* Absolute floor on the fresh parallel speedup, independent of the
     baseline. Wall-clock speedup is physically bounded by the host's
     core count, so the floor only binds when the fresh run had at least
     as many cores as domains; on smaller hosts it downgrades to an
     informational line (the determinism and cost guards above still
     apply there). *)
  (match !speedup_floor with
   | None -> ()
   | Some floor ->
     let fresh_speedup = num [ "parallel"; "ml_sweep_speedup" ] fresh in
     let fresh_cores = num [ "parallel"; "cores" ] fresh in
     let fresh_jobs = num [ "parallel"; "jobs" ] fresh in
     (match (fresh_speedup, fresh_cores, fresh_jobs) with
      | None, _, _ ->
        Printf.eprintf
          "bench --compare: fresh snapshot has no parallel.ml_sweep_speedup — cannot \
           apply --speedup-floor\n";
        exit 2
      | Some s, Some c, Some j when c >= j ->
        if s < floor then begin
          incr regressions;
          Printf.printf "%-32s %14s %14.2f %8s  %s\n" "parallel speedup floor"
            (Printf.sprintf ">= %.2f" floor) s "" "REGRESSED"
        end
        else
          Printf.printf "%-32s %14s %14.2f %8s  %s\n" "parallel speedup floor"
            (Printf.sprintf ">= %.2f" floor) s "" "ok"
      | Some s, c, j ->
        Printf.printf
          "parallel speedup floor >= %.2f: not enforced (host has %s cores for %s \
           domains; measured %.2fx)\n"
          floor
          (match c with Some c -> Printf.sprintf "%.0f" c | None -> "unknown")
          (match j with Some j -> Printf.sprintf "%.0f" j | None -> "unknown")
          s));
  if !regressions > 0 then begin
    Printf.eprintf
      "bench --compare: %d metric(s) regressed beyond tolerance (cost %.0f%%, perf \
       %.0f%%, alloc cap %.1fx)\n"
      !regressions (100.0 *. !cost_tol) (100.0 *. !perf_tol) alloc_cap;
    exit 1
  end
  else
    Printf.printf
      "no regressions (cost tolerance %.0f%%, perf tolerance %.0f%%, alloc cap %.1fx)\n"
      (100.0 *. !cost_tol) (100.0 *. !perf_tol) alloc_cap

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1);
    ("fig5", fig5);
    ("table2", table2);
    ("fig6", fig6);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("table7", table7);
    ("table8", table8);
    ("table9", table9);
    ("table10", table10);
    ("table11", table11);
    ("table12", table12);
    ("fig7", fig7);
    ("table13", table13);
    ("table14", table14);
    ("ablations", ablations);
    ("ls_smoke", ls_smoke);
    ("localsearch", localsearch);
    ("server", server);
    ("obs", obs);
  ]

let () =
  parse_args ();
  Par.set_jobs !jobs;
  if !list_sections then begin
    List.iter (fun (id, _) -> print_endline id) sections;
    exit 0
  end;
  Printf.printf "BSP+NUMA scheduling benchmark harness (scale=%s, seed=%d, jobs=%d)\n"
    (Datasets.scale_name !scale) !seed !jobs;
  (* Read the baseline before anything runs: the fresh localsearch run
     overwrites BENCH_localsearch.json, which is the usual baseline. *)
  let baseline =
    Option.map (fun path -> (path, read_json path)) !compare_baseline
  in
  let t0 = Unix.gettimeofday () in
  let selected =
    match !only with
    | [] -> sections
    | ids -> List.filter (fun (id, _) -> List.mem id ids) sections
  in
  (* The guard needs fresh localsearch numbers even if --only skipped the
     section. *)
  let selected =
    if baseline <> None && not (List.mem_assoc "localsearch" selected) then
      selected @ [ ("localsearch", localsearch) ]
    else selected
  in
  List.iter (fun (_, f) -> f ()) selected;
  if !timing then run_timing ();
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0);
  match baseline with
  | None -> ()
  | Some (baseline_path, baseline) ->
    compare_snapshots ~baseline_path ~baseline ~fresh:(read_json "BENCH_localsearch.json")
