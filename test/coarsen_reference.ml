(* Coarsen.coarsen_to as it was before its contractability test was
   bounded by a topological order: the same edge-selection rule over
   sorted adjacency lists, and an unbounded depth-first search from u
   for a second u ~> v path. Kept as the oracle for the bounded test in
   test_multilevel.ml, which must pick the same contractions in the same
   order. *)

type level = {
  succ : int list array;  (* sorted ascending *)
  pred : int list array;
  work : int array;
  comm : int array;
  alive : bool array;
  mutable count : int;
}

let rec insert x = function
  | [] -> [ x ]
  | y :: rest as l -> if x < y then x :: l else if x = y then l else y :: insert x rest

let remove x l = List.filter (fun y -> y <> x) l

let of_dag dag =
  let n = Dag.n dag in
  {
    succ = Array.init n (fun v -> Dag.fold_succ dag v ~init:[] (fun acc w -> w :: acc) |> List.rev);
    pred = Array.init n (fun v -> Dag.fold_pred dag v ~init:[] (fun acc w -> w :: acc) |> List.rev);
    work = Array.init n (Dag.work dag);
    comm = Array.init n (Dag.comm dag);
    alive = Array.make n true;
    count = n;
  }

let has_alternative_path g u v =
  let seen = Array.make (Array.length g.alive) false in
  let rec dfs x ~first =
    List.exists
      (fun y ->
        if y = v then not first
        else if seen.(y) then false
        else begin
          seen.(y) <- true;
          dfs y ~first:false
        end)
      g.succ.(x)
  in
  dfs u ~first:true

let contract g u v =
  g.work.(u) <- g.work.(u) + g.work.(v);
  g.comm.(u) <- g.comm.(u) + g.comm.(v);
  List.iter
    (fun w ->
      if w <> u then begin
        g.succ.(u) <- insert w g.succ.(u);
        g.pred.(w) <- insert u (remove v g.pred.(w))
      end)
    g.succ.(v);
  List.iter
    (fun x ->
      if x <> u then begin
        g.pred.(u) <- insert x g.pred.(u);
        g.succ.(x) <- insert u (remove v g.succ.(x))
      end)
    g.pred.(v);
  g.succ.(u) <- remove v g.succ.(u);
  g.alive.(v) <- false;
  g.count <- g.count - 1

(* The contractions of a run to [target], oldest first. *)
let history dag ~target =
  let g = of_dag dag in
  let target = max 1 target in
  let made = ref [] in
  let progress = ref true in
  while g.count > target && !progress do
    progress := false;
    (* u ascending, v descending within u *)
    let edges = ref [] in
    for u = Array.length g.alive - 1 downto 0 do
      if g.alive.(u) then edges := List.rev_map (fun v -> (u, v)) g.succ.(u) @ !edges
    done;
    let edges = !edges in
    let k = List.length edges in
    if k > 0 then begin
      let by_work =
        List.stable_sort
          (fun (u1, v1) (u2, v2) -> compare (g.work.(u1) + g.work.(v1)) (g.work.(u2) + g.work.(v2)))
          edges
      in
      let third = max 1 ((k + 2) / 3) in
      let first = List.filteri (fun i _ -> i < third) by_work
      and rest = List.filteri (fun i _ -> i >= third) by_work in
      let by_comm = List.stable_sort (fun (u1, _) (u2, _) -> compare g.comm.(u2) g.comm.(u1)) in
      List.iter
        (fun (u, v) ->
          if
            g.count > target && g.alive.(u) && g.alive.(v)
            && List.mem v g.succ.(u)
            && not (has_alternative_path g u v)
          then begin
            contract g u v;
            made := { Coarsen.kept = u; removed = v } :: !made;
            progress := true
          end)
        (by_comm first @ by_comm rest)
    end
  done;
  List.rev !made
