open Schedule

type superstep = { work_max : int; comm_max : int; cost : int }

type breakdown = {
  total : int;
  work_total : int;
  comm_total : int;
  latency_total : int;
  supersteps : superstep array;
}

let superstep_cost machine ~work_max ~comm_max =
  work_max + (machine.Machine.g * comm_max) + machine.Machine.l

let tables machine (t : Schedule.t) ~num_steps =
  let p = machine.Machine.p in
  let work = Array.make_matrix num_steps p 0 in
  let send = Array.make_matrix num_steps p 0 in
  let recv = Array.make_matrix num_steps p 0 in
  let dag = t.dag in
  (* Every placement computes the node, so every placement pays its
     work: the primary on (step v, proc v) and each replica on its own
     (step, proc) cell. Direct loops over the assignment and the
     replica CSR: a placement callback would capture the node's weight
     and so be allocated once per node. *)
  let proc = t.proc and step = t.step in
  let rep_off = t.rep_off and rep_proc = t.rep_proc and rep_step = t.rep_step in
  let replicated = Array.length rep_off > 0 in
  for v = 0 to Dag.n dag - 1 do
    let wv = Dag.work dag v in
    let s = step.(v) in
    if s < num_steps then begin
      let row = work.(s) in
      row.(proc.(v)) <- row.(proc.(v)) + wv
    end;
    if replicated then
      for i = rep_off.(v) to rep_off.(v + 1) - 1 do
        let s = rep_step.(i) in
        if s < num_steps then begin
          let row = work.(s) in
          row.(rep_proc.(i)) <- row.(rep_proc.(i)) + wv
        end
      done
  done;
  List.iter
    (fun (e : comm_event) ->
      if e.step < num_steps then begin
        let volume = Dag.comm dag e.node * Machine.lambda machine e.src e.dst in
        send.(e.step).(e.src) <- send.(e.step).(e.src) + volume;
        recv.(e.step).(e.dst) <- recv.(e.step).(e.dst) + volume
      end)
    t.comm;
  (work, send, recv)

let breakdown machine (t : Schedule.t) =
  let p = machine.Machine.p in
  let num_steps = num_supersteps t in
  let work, send, recv = tables machine t ~num_steps in
  let supersteps =
    Array.init num_steps (fun s ->
        let work_max = ref 0 and comm_max = ref 0 in
        for q = 0 to p - 1 do
          if work.(s).(q) > !work_max then work_max := work.(s).(q);
          let h = max send.(s).(q) recv.(s).(q) in
          if h > !comm_max then comm_max := h
        done;
        {
          work_max = !work_max;
          comm_max = !comm_max;
          cost = superstep_cost machine ~work_max:!work_max ~comm_max:!comm_max;
        })
  in
  let work_total = Array.fold_left (fun acc s -> acc + s.work_max) 0 supersteps in
  let comm_total =
    Array.fold_left (fun acc s -> acc + (machine.Machine.g * s.comm_max)) 0 supersteps
  in
  let latency_total = num_steps * machine.Machine.l in
  {
    total = work_total + comm_total + latency_total;
    work_total;
    comm_total;
    latency_total;
    supersteps;
  }

let total machine t = (breakdown machine t).total

(* Overflow-checked: [None] as soon as a partial result passes
   [max_int]. Every operand is non-negative. *)
let cost_bound machine dag =
  let exception Overflow in
  let add a b = if a > max_int - b then raise Overflow else a + b in
  let mul a b = if a <> 0 && b > max_int / a then raise Overflow else a * b in
  let p = machine.Machine.p in
  let lambda_max = ref 0 in
  Array.iter (Array.iter (fun x -> if x > !lambda_max then lambda_max := x)) machine.Machine.lambda;
  try
    let w = ref 0 and c = ref 0 in
    for v = 0 to Dag.n dag - 1 do
      let wv = Dag.work dag v and cv = Dag.comm dag v in
      if !w > max_int - wv || !c > max_int - cv then raise Overflow;
      w := !w + wv;
      c := !c + cv
    done;
    let work = mul p !w in
    let comm = mul machine.Machine.g (mul (mul (p - 1) !lambda_max) !c) in
    let latency = mul machine.Machine.l (max 1 (Dag.n dag)) in
    Some (add (add work comm) latency)
  with Overflow -> None
