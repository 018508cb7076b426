(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 7 and Appendix C). Results are printed in the
   paper's layout; EXPERIMENTS.md records paper-vs-measured values.

   Usage:
     dune exec bench/main.exe                 -- all sections, default scale
     dune exec bench/main.exe -- --scale smoke
     dune exec bench/main.exe -- --only table1,fig5
     dune exec bench/main.exe -- --list       -- list section ids
     dune exec bench/main.exe -- --only localsearch --compare BENCH_localsearch.json

   Sweeps are shared between sections (Table 1, Table 6, Table 7 and
   Figure 5 all read the no-NUMA sweep, etc.) and cached, so the whole
   harness performs each scheduling run exactly once. Wall-clock
   performance is perfbench's to measure; the only timing here is the
   multilevel sweep's speedup across jobs counts. *)

let scale = ref Datasets.Default
let seed = ref 1
let only : string list ref = ref []
let list_sections = ref false
let compare_baseline : string option ref = ref None
let jobs = ref (Par.default_jobs ())
let jobs_sweep : int list ref = ref []
let speedup_floor : float option ref = ref None

let usage () =
  prerr_endline
    "usage: main.exe [--scale smoke|default|full] [--seed N] [--only id,id,...] \
     [--list] [--compare BASELINE.json] [--jobs N] [--jobs-sweep N,N,...] \
     [--speedup-floor X]";
  exit 2

let parse_args () =
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
    | "--list" :: rest ->
      list_sections := true;
      go rest
    | "--compare" :: path :: rest ->
      compare_baseline := Some path;
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

(* Tables 4 and 5: which initialiser wins on the training set.
   ILPinit's cap is branch-and-bound steps only, so the counts do not
   depend on the host's speed or load; 2 x [ilp_init_nodes] steps keep
   the smoke run within the time the 5 s deadline it replaces took. *)
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
                           ~budget:(Budget.steps (base.Pipeline.ilp_init_nodes * 2))
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
   aggregation pass and the superstep-merge pass inside our local
   search. *)
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
    (geo (fun (c, _, _, _, _, cs) -> r cs c))

(* ------------------------------------------------------------------ *)
(* Local-search snapshot for the regression guard. Every run below is
   bounded by steps, not by the clock, so its costs and evaluation
   counts are properties of the code, equal on every host and at every
   --jobs. The multilevel sweep is also timed per jobs count, which is
   what the core-gated --speedup-floor reads.                          *)

let ls_eval_budget () =
  match !scale with
  | Datasets.Smoke -> 60_000
  | Datasets.Default -> 250_000
  | Datasets.Full -> 1_000_000

(* Emits BENCH_localsearch.json and the pipeline run's metrics snapshot,
   BENCH_localsearch.metrics.json. *)
let localsearch () =
  header "Local search: HC, pipeline, multilevel sweep and replication";
  let rng = Rng.create !seed in
  let dag =
    Finegrained.generate_sized rng ~family:Finegrained.Exp ~shape:Finegrained.Wide
      ~target:12_000
  in
  let n = Dag.n dag in
  let m = Machine.uniform ~p:8 ~g:3 ~l:5 in
  let init = Bspg.schedule m dag in
  let evals = ls_eval_budget () in
  let _, hc = Hc.improve ~budget:(Budget.steps evals) m init in
  Printf.printf "instance: exp/wide, n=%d, P=8 g=3 l=5, budget=%d evals\n" n evals;
  Printf.printf "hc: %d evaluated, %d applied, cost %d -> %d\n" hc.Hc.moves_evaluated
    hc.Hc.moves_applied hc.Hc.initial_cost hc.Hc.final_cost;
  (* End-to-end: the heuristic pipeline (no ILP — this instance is far
     above the ILP node caps anyway) on the same instance, under a
     registry whose snapshot lands next to the benchmark JSON. It runs
     at jobs 1 whatever --jobs says: its local search leaves pooled
     state on the domains that ran it, and the sweep's jobs-1
     allocation reading below should not depend on which those were. *)
  let pipeline_limits =
    {
      heuristic_limits with
      Pipeline.hc_evals = evals;
      hccs_evals = evals / 4;
      stage_seconds = None;
    }
  in
  let reg = Obs.Metrics.create () in
  let stage =
    Par.with_jobs 1 (fun () ->
        Obs.Metrics.with_registry reg (fun () ->
            let sched, stage = Pipeline.run ~limits:pipeline_limits m dag in
            Pipeline.publish_result m sched ~cost:stage.Pipeline.final_cost;
            stage))
  in
  let pipe_hc_evals = Obs.Metrics.counter_value reg "hc.moves_evaluated" in
  let pipe_hccs_evals = Obs.Metrics.counter_value reg "hccs.moves_evaluated" in
  Printf.printf "pipeline (init+HC+HCcs): cost %d -> %d, %d HC and %d HCcs evaluations\n"
    stage.Pipeline.init_cost stage.Pipeline.final_cost pipe_hc_evals pipe_hccs_evals;
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
  let sweep () = Pipeline.run_multilevel ~limits:ml_limits ~ratios:ml_ratios ml_machine ml_dag in
  let cores = Domain.recommended_domain_count () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.eprintf "[par] multilevel ratio sweep n=%d, %d ratios: jobs %s...%!"
    (Dag.n ml_dag) (List.length ml_ratios)
    (String.concat "," (List.map string_of_int par_sweep_jobs));
  let sweep_runs =
    List.map
      (fun j ->
        Par.reset_stats ();
        (* Whole-run allocation accounting: the submitting domain's
           delta (it runs tasks too, and at jobs = 1 the entire sweep)
           plus the worker domains' per-drain accumulators from
           {!Par.stats}. Both sides are domain-local counters —
           [Gc.quick_stat] would multi-count, since in OCaml 5 it
           samples every live domain's allocation — and minor words
           come from [Gc.minor_words], which is exact, unlike
           [Gc.counters]'s minor figure (see [Par.drain]). Worker idle
           time between batches allocates nothing, so the sum is the
           run's total minor-heap traffic. *)
        let mw0 = Gc.minor_words () and _, pw0, _ = Gc.counters () in
        let s, t = time (fun () -> Par.with_jobs j sweep) in
        let mw1 = Gc.minor_words () and _, pw1, _ = Gc.counters () in
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
  let plain_sched, st_plain = Hc.improve ~budget:(Budget.steps evals) rep_machine rep_start in
  let rep_sched = Hc.replicate_schedule ~budget:(Budget.steps evals) rep_machine plain_sched in
  let rep_cost = Bsp_cost.total rep_machine rep_sched in
  let replicas = Schedule.num_replicas rep_sched in
  if not (Validity.is_valid rep_machine rep_sched) then
    failwith "replication: replicate_schedule produced an invalid schedule";
  (match
     Profile.reconcile
       (Profile.compute rep_machine rep_sched)
       (Bsp_cost.breakdown rep_machine rep_sched)
   with
  | Ok () -> ()
  | Error msg -> failwith ("replication: profile does not reconcile: " ^ msg));
  if rep_cost >= st_plain.Hc.final_cost then
    failwith
      (Printf.sprintf
         "replication failed to strictly improve the NUMA broadcast instance (%d vs %d)"
         rep_cost st_plain.Hc.final_cost);
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
    (Dag.n rep_dag) st_plain.Hc.final_cost rep_cost replicas rep_pipe_cost
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
  "hc": {
    "moves_evaluated": %d,
    "moves_applied": %d,
    "final_cost": %d
  },
  "pipeline": {
    "final_cost": %d,
    "hc_moves_evaluated": %d,
    "hccs_moves_evaluated": %d
  },
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
    (Datasets.scale_name !scale) !seed !jobs n evals hc.Hc.moves_evaluated
    hc.Hc.moves_applied hc.Hc.final_cost stage.Pipeline.final_cost pipe_hc_evals
    pipe_hccs_evals (Dag.n rep_dag) st_plain.Hc.final_cost rep_cost replicas rep_pipe_cost
    par_jobs cores Par.minor_heap_words (Dag.n ml_dag) (List.length ml_ratios) t_sweep_j1
    t_sweep_jn sweep_speedup sweep_cost_j1 sweep_minor_j1 sweep_promoted_j1 sweep_json
    domains_json;
  Printf.printf "wrote BENCH_localsearch.json and BENCH_localsearch.metrics.json\n"

(* ------------------------------------------------------------------ *)
(* Reading snapshots.                                                  *)

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

(* ------------------------------------------------------------------ *)
(* Regression guard: --compare BASELINE.json diffs the fresh localsearch
   snapshot against a committed BENCH_localsearch.json. Costs and
   evaluation counts come from step-bounded runs, so each must equal the
   baseline exactly, at any --jobs. Minor-heap words of the jobs-1 sweep
   repeat exactly too, but only for one compiler and standard library:
   CI builds with whichever OCaml it installs, so they are capped at
   1.5x the baseline instead.                                          *)

let alloc_cap = 1.5

let guarded_metrics =
  [
    ([ "hc"; "moves_evaluated" ], `Exact);
    ([ "hc"; "moves_applied" ], `Exact);
    ([ "hc"; "final_cost" ], `Exact);
    ([ "pipeline"; "final_cost" ], `Exact);
    ([ "pipeline"; "hc_moves_evaluated" ], `Exact);
    ([ "pipeline"; "hccs_moves_evaluated" ], `Exact);
    ([ "replication"; "hc_cost" ], `Exact);
    ([ "replication"; "hc_replicated_cost" ], `Exact);
    ([ "replication"; "replicas_added" ], `Exact);
    ([ "replication"; "pipeline_cost" ], `Exact);
    ([ "parallel"; "ml_sweep_final_cost" ], `Exact);
    ([ "parallel"; "ml_sweep_minor_words_jobs1" ], `Alloc);
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
  header (Printf.sprintf "Regression guard: fresh run vs %s" baseline_path);
  Printf.printf "%-32s %14s %14s %8s  %s\n" "metric" "baseline" "fresh" "ratio"
    "verdict";
  let regressions = ref 0 in
  List.iter
    (fun (path, kind) ->
      let name = String.concat "." path in
      match (num path baseline, num path fresh) with
      | Some b, Some f ->
        let ratio = if b = 0.0 then 1.0 else f /. b in
        let regressed =
          match kind with `Exact -> f <> b | `Alloc -> f > b *. alloc_cap
        in
        if regressed then incr regressions;
        Printf.printf "%-32s %14.0f %14.0f %8.3f  %s\n" name b f ratio
          (if regressed then "REGRESSED" else "ok")
      | _ ->
        incr regressions;
        Printf.printf "%-32s (missing in the baseline or the fresh snapshot)  REGRESSED\n"
          name)
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
      "bench --compare: %d metric(s) regressed (costs and evaluations exact, alloc cap \
       %.1fx)\n"
      !regressions alloc_cap;
    exit 1
  end
  else
    Printf.printf "no regressions (costs and evaluations exact, alloc cap %.1fx)\n"
      alloc_cap

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
    ("localsearch", localsearch);
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
  Printf.printf "\ntotal wall time: %.1fs\n" (Unix.gettimeofday () -. t0);
  match baseline with
  | None -> ()
  | Some (baseline_path, baseline) ->
    compare_snapshots ~baseline_path ~baseline ~fresh:(read_json "BENCH_localsearch.json")
