(* The Source heuristic of the first implementation, kept verbatim as
   the oracle for the differential property in test_heuristics.ml: the
   array-based Source_heuristic must reproduce its schedules byte for
   byte. It rescans all n nodes for the sources of every superstep and
   clusters the first superstep through hash tables and lists. *)

(* Union-find for the first-superstep clustering of original sources. *)
module Union_find = struct
  let create n = Array.init n (fun i -> i)

  let rec find t x = if t.(x) = x then x else find t t.(x)

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra <> rb then t.(min ra rb) <- max ra rb
end

let schedule machine dag =
  let n = Dag.n dag in
  let p = machine.Machine.p in
  let proc = Array.make n (-1) in
  let step = Array.make n (-1) in
  let remaining = Array.init n (fun v -> Dag.in_degree dag v) in
  let unassigned = ref n in
  let superstep = ref 0 in
  let rr = ref 0 in
  let assign v q =
    proc.(v) <- q;
    step.(v) <- !superstep;
    decr unassigned
  in
  let current_sources () =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if proc.(v) < 0 && remaining.(v) = 0 then acc := v :: !acc
    done;
    !acc
  in
  let release v = Dag.iter_succ dag v (fun u -> remaining.(u) <- remaining.(u) - 1) in
  while !unassigned > 0 do
    let sources = current_sources () in
    if !superstep = 0 then begin
      (* Cluster sources sharing a direct successor, then deal whole
         clusters round-robin. *)
      let uf = Union_find.create n in
      let owner = Hashtbl.create 64 in
      List.iter
        (fun v ->
          Dag.iter_succ dag v (fun w ->
              match Hashtbl.find_opt owner w with
              | Some u -> Union_find.union uf u v
              | None -> Hashtbl.add owner w v))
        sources;
      let clusters = Hashtbl.create 64 in
      List.iter
        (fun v ->
          let root = Union_find.find uf v in
          let cur = Option.value ~default:[] (Hashtbl.find_opt clusters root) in
          Hashtbl.replace clusters root (v :: cur))
        sources;
      let roots = Hashtbl.fold (fun root _ acc -> root :: acc) clusters [] in
      List.iter
        (fun root ->
          let members = Hashtbl.find clusters root in
          List.iter (fun v -> assign v !rr) members;
          rr := (!rr + 1) mod p)
        (List.sort compare roots)
    end
    else begin
      let ordered =
        List.sort
          (fun a b ->
            let c = compare (Dag.work dag b) (Dag.work dag a) in
            if c <> 0 then c else compare a b)
          sources
      in
      List.iter
        (fun v ->
          assign v !rr;
          rr := (!rr + 1) mod p)
        ordered
    end;
    (* Absorb direct successors whose predecessors all landed on a single
       processor; the new edges stay processor-local so the node can join
       the same superstep. *)
    List.iter
      (fun v ->
        Dag.iter_succ dag v (fun u ->
            if proc.(u) < 0 then begin
              let q = proc.(v) in
              if Dag.for_all_pred dag u (fun u0 -> proc.(u0) = q) then begin
                assign u q;
                release u
              end
            end))
      sources;
    List.iter release sources;
    incr superstep
  done;
  Schedule.of_assignment dag ~proc ~step
