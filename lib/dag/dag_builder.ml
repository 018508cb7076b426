type t = {
  mutable work : int list;
  mutable comm : int list;
  mutable count : int;
  mutable edges : (int * int) list;
  work_override : (int, int) Hashtbl.t;
}

let create () =
  { work = []; comm = []; count = 0; edges = []; work_override = Hashtbl.create 16 }

let add_node b ~work ~comm =
  let id = b.count in
  b.work <- work :: b.work;
  b.comm <- comm :: b.comm;
  b.count <- b.count + 1;
  id

let add_edge b u v =
  if u < 0 || u >= b.count || v < 0 || v >= b.count then
    invalid_arg "Dag_builder.add_edge: endpoint out of range";
  if u = v then invalid_arg "Dag_builder.add_edge: self-loop";
  b.edges <- (u, v) :: b.edges

let set_work b v w =
  if v < 0 || v >= b.count then invalid_arg "Dag_builder.set_work: out of range";
  Hashtbl.replace b.work_override v w

let finish b =
  let work = Array.of_list (List.rev b.work) in
  let comm = Array.of_list (List.rev b.comm) in
  Hashtbl.iter (fun v w -> work.(v) <- w) b.work_override;
  Dag.of_edges ~n:b.count ~edges:b.edges ~work ~comm
