type instance = { name : string; dag : Dag.t }
type t = { label : string; instances : instance list }
type scale = Smoke | Default | Full

let scale_of_string = function
  | "smoke" -> Some Smoke
  | "default" -> Some Default
  | "full" -> Some Full
  | _ -> None

let scale_name = function Smoke -> "smoke" | Default -> "default" | Full -> "full"

(* Interval [lo, hi] of target node counts per dataset and scale, plus
   how many positions inside the interval receive instances. *)
let interval scale label =
  match (scale, label) with
  | Full, "tiny" -> (40, 80, 3)
  | Full, "small" -> (250, 500, 3)
  | Full, "medium" -> (1000, 2000, 3)
  | Full, "large" -> (5000, 10000, 3)
  | Full, "huge" -> (50000, 100000, 2)
  | Default, "tiny" -> (40, 80, 2)
  | Default, "small" -> (220, 420, 1)
  | Default, "medium" -> (600, 1000, 1)
  | Default, "large" -> (1500, 2500, 1)
  | Default, "huge" -> (3000, 5000, 1)
  | Smoke, "tiny" -> (40, 60, 1)
  | Smoke, "small" -> (100, 150, 1)
  | Smoke, "medium" -> (200, 300, 1)
  | Smoke, "large" -> (400, 600, 1)
  | Smoke, "huge" -> (1000, 1500, 1)
  | _ -> invalid_arg ("Datasets.interval: unknown dataset " ^ label)

let positions lo hi count =
  if count = 1 then [ (lo + hi) / 2 ]
  else
    List.init count (fun i ->
        let f = float_of_int i /. float_of_int (count - 1) in
        lo + int_of_float (f *. float_of_int (hi - lo)))

let fine_instance rng family shape target =
  let dag = Finegrained.generate_sized rng ~family ~shape ~target in
  let shape_tag =
    match family with
    | Finegrained.Spmv -> ""
    | _ -> (match shape with Finegrained.Wide -> "-wide" | Finegrained.Deep -> "-deep")
  in
  { name = Printf.sprintf "%s%s-%d" (Finegrained.family_name family) shape_tag (Dag.n dag);
    dag }

(* Coarse-grained database instances whose size falls into the interval:
   we synthesise one per algorithm sized to the middle of the interval
   and keep as many as the paper's counts (4 for tiny, 3 for small and
   huge, none elsewhere at full scale; at smaller scales we keep the
   same counts to preserve dataset composition). *)
let coarse_instances label lo hi =
  let count = match label with "tiny" -> 4 | "small" -> 3 | "huge" -> 3 | _ -> 0 in
  let algos = Coarsegrained.all_algorithms in
  List.filteri (fun i _ -> i < count) algos
  |> List.map (fun algo ->
         let target = (lo + hi) / 2 in
         let dag = Coarsegrained.generate_sized algo ~target in
         { name = Printf.sprintf "%s-%d" (Coarsegrained.algorithm_name algo) (Dag.n dag);
           dag })

let iterative_families = Finegrained.[ Exp; Cg; Knn ]

let build_dataset ~scale ~seed label =
  let lo, hi, count = interval scale label in
  let rng = Rng.create (seed + Hashtbl.hash label) in
  let pos = positions lo hi count in
  let fine =
    List.concat_map
      (fun target ->
        let spmv = fine_instance (Rng.split rng) Finegrained.Spmv Finegrained.Wide target in
        let iters =
          List.concat_map
            (fun family ->
              let shapes =
                (* tiny only fits one variant per family; larger sets get
                   both a deep and a wide instance (Appendix B.3). *)
                if label = "tiny" || scale = Smoke then [ Finegrained.Deep ]
                else [ Finegrained.Deep; Finegrained.Wide ]
              in
              List.map (fun shape -> fine_instance (Rng.split rng) family shape target) shapes)
            iterative_families
        in
        spmv :: iters)
      pos
  in
  let fine =
    if label = "huge" then
      (* The huge set is smaller: one spmv and two per iterative family
         (one each below full scale). *)
      let seen = Hashtbl.create 8 in
      List.filter
        (fun inst ->
          let key = List.hd (String.split_on_char '-' inst.name) in
          let limit = if key = "spmv" || scale <> Full then 1 else 2 in
          let c = Option.value ~default:0 (Hashtbl.find_opt seen key) in
          if c < limit then begin
            Hashtbl.replace seen key (c + 1);
            true
          end
          else false)
        fine
    else fine
  in
  { label; instances = fine @ coarse_instances label lo hi }

let tiny ~scale ~seed = build_dataset ~scale ~seed "tiny"
let small ~scale ~seed = build_dataset ~scale ~seed "small"
let medium ~scale ~seed = build_dataset ~scale ~seed "medium"
let large ~scale ~seed = build_dataset ~scale ~seed "large"
let huge ~scale ~seed = build_dataset ~scale ~seed "huge"

let training ~scale ~seed =
  let rng = Rng.create (seed + 7919) in
  let shrink =
    match scale with Full -> 1.0 | Default -> 0.5 | Smoke -> 0.15
  in
  let sz x = max 15 (int_of_float (float_of_int x *. shrink)) in
  let open Finegrained in
  let spec =
    [
      (Spmv, Wide, sz 50);
      (Spmv, Wide, sz 300);
      (Spmv, Wide, sz 1500);
      (Exp, Deep, sz 20);
      (Cg, Wide, sz 100);
      (Exp, Wide, sz 250);
      (Knn, Deep, sz 350);
      (Cg, Deep, sz 1000);
      (Exp, Deep, sz 1500);
      (Knn, Wide, sz 1950);
    ]
  in
  {
    label = "training";
    instances =
      List.map (fun (family, shape, target) ->
          fine_instance (Rng.split rng) family shape target)
        spec;
  }

let main_datasets ~scale ~seed =
  [ tiny ~scale ~seed; small ~scale ~seed; medium ~scale ~seed; large ~scale ~seed ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let write_dataset ~dir t =
  let subdir = Filename.concat dir t.label in
  mkdir_p subdir;
  List.map
    (fun inst ->
      let path = Filename.concat subdir (inst.name ^ ".hdag") in
      Hyperdag_io.write_file path inst.dag;
      path)
    t.instances

let write_database ~dir ~scale ~seed =
  mkdir_p dir;
  let datasets =
    training ~scale ~seed :: (main_datasets ~scale ~seed @ [ huge ~scale ~seed ])
  in
  let manifest = Filename.concat dir "MANIFEST" in
  Atomic_file.write manifest
    (fun oc ->
      Printf.fprintf oc
        "%% computational DAG database (scale=%s, seed=%d)\n%% dataset  name  nodes  edges  total_work\n"
        (scale_name scale) seed;
      List.iter
        (fun ds ->
          ignore (write_dataset ~dir ds : string list);
          List.iter
            (fun inst ->
              Printf.fprintf oc "%s %s %d %d %d\n" ds.label inst.name (Dag.n inst.dag)
                (Dag.num_edges inst.dag) (Dag.total_work inst.dag))
            ds.instances)
        datasets);
  manifest
