type stats = {
  moves_applied : int;
  moves_evaluated : int;
  initial_cost : int;
  final_cost : int;
}

type pair = {
  node : int;
  src : int;
  dst : int;
  vol : int;  (* c(node) * lambda(src, dst) *)
  lo : int;  (* earliest usable phase: tau(node) *)
  hi : int;  (* latest usable phase: first_need - 1 *)
  mutable cur : int;
}

let no_need = max_int

let key_below (e : Schedule.comm_event) node dst =
  e.node < node || (e.node = node && e.dst < dst)

let rec sorted_by_key = function
  | (a : Schedule.comm_event) :: ((b : Schedule.comm_event) :: _ as rest) ->
    (not (key_below b a.node a.dst)) && sorted_by_key rest
  | _ -> true

(* The input's events from the first whose (node, dst) is not below
   the given one. *)
let rec skip_below node dst = function
  | e :: rest when key_below e node dst -> skip_below node dst rest
  | events -> events

(* The earliest phase of a direct event (sent from [src], the node's
   own processor) for this (node, dst) at the head of [events]. *)
let rec first_direct node dst src best = function
  | (e : Schedule.comm_event) :: rest when e.node = node && e.dst = dst ->
    first_direct node dst src (if e.src = src && e.step < best then e.step else best) rest
  | _ -> best

(* The pairs are the events of the lazy schedule, which emits them in
   ascending (node, dst) order: the order the scan relies on. Each pair
   starts from the input's earliest direct event for its (node, dst)
   when that fits the window, otherwise from the lazy position (window
   end). The input's events are joined to the lazy ones in one pass in
   (node, dst) order — the order of every schedule this library builds;
   an input in any other order is sorted first — so no per-(node,
   processor) table is allocated. *)
let required_pairs machine (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let proc = sched.Schedule.proc and step = sched.Schedule.step in
  let input =
    if sorted_by_key sched.Schedule.comm then sched.Schedule.comm
    else
      List.stable_sort
        (fun (a : Schedule.comm_event) (b : Schedule.comm_event) ->
          if a.node <> b.node then Int.compare a.node b.node else Int.compare a.dst b.dst)
        sched.Schedule.comm
  in
  let[@tail_mod_cons] rec join input = function
    | [] -> []
    | (e : Schedule.comm_event) :: rest ->
      let input = skip_below e.node e.dst input in
      let lo = step.(e.node) and hi = e.step in
      let cur =
        let s = first_direct e.node e.dst proc.(e.node) no_need input in
        if s >= lo && s <= hi then s else hi
      in
      {
        node = e.node;
        src = e.src;
        dst = e.dst;
        vol = Dag.comm dag e.node * Machine.lambda machine e.src e.dst;
        lo;
        hi;
        cur;
      }
      :: join input rest
  in
  join input (Schedule.lazy_comm dag ~proc ~step)

let improve ?(budget = Budget.unlimited ()) machine (sched : Schedule.t) =
  let dag = sched.Schedule.dag in
  let num_steps = Schedule.num_supersteps sched in
  (* required_pairs emits in ascending (node, dst) order already. *)
  let pairs = Array.of_list (required_pairs machine sched) in
  let table = Cost_table.create machine ~num_steps in
  for v = 0 to Dag.n dag - 1 do
    Cost_table.add_work table ~step:sched.Schedule.step.(v)
      ~proc:sched.Schedule.proc.(v) (Dag.work dag v)
  done;
  let place pair sign =
    Cost_table.add_send table ~step:pair.cur ~proc:pair.src (sign * pair.vol);
    Cost_table.add_recv table ~step:pair.cur ~proc:pair.dst (sign * pair.vol)
  in
  Array.iter (fun pair -> place pair 1) pairs;
  Cost_table.refresh table;
  let to_schedule () =
    let comm =
      Array.fold_right
        (fun pair acc ->
          { Schedule.node = pair.node; src = pair.src; dst = pair.dst; step = pair.cur } :: acc)
        pairs []
    in
    Schedule.make dag ~proc:sched.Schedule.proc ~step:sched.Schedule.step ~comm
  in
  let initial_cost = Cost_table.total table in
  (* A candidate's delta splits into two halves. Taking the event out of
     phase [cur] (the removal half) depends only on [cur], so it is
     computed once per pair and again after each applied move. Putting
     it into phase [s] (the addition half) only raises [send.(s).(src)]
     and [recv.(s).(dst)] (volumes are non-negative and [src <> dst]),
     so the new h-relation maximum is the cached one or one of those two
     cells: O(1). Work maxima never change, so each half is [g] times
     the change of its phase's h-relation maximum. *)
  let p = machine.Machine.p and g = machine.Machine.g in
  let send_m = Cost_table.send_matrix table and recv_m = Cost_table.recv_matrix table in
  let comm_max = Cost_table.comm_max table in
  let removal pair =
    let send_row = send_m.(pair.cur) and recv_row = recv_m.(pair.cur) in
    let cm = comm_max.(pair.cur) in
    (* The maximum survives unless one of the two lowered cells was it. *)
    if send_row.(pair.src) < cm && recv_row.(pair.dst) < cm then 0
    else begin
      let h = ref 0 in
      for q = 0 to p - 1 do
        let snd = if q = pair.src then send_row.(q) - pair.vol else send_row.(q) in
        let rcv = if q = pair.dst then recv_row.(q) - pair.vol else recv_row.(q) in
        let hq = if snd > rcv then snd else rcv in
        if hq > !h then h := hq
      done;
      g * (!h - cm)
    end
  in
  let addition pair s =
    let cm = comm_max.(s) in
    let snd = send_m.(s).(pair.src) + pair.vol and rcv = recv_m.(s).(pair.dst) + pair.vol in
    let h = if snd > cm then snd else cm in
    let h = if rcv > h then rcv else h in
    g * (h - cm)
  in
  let moves_applied = ref 0 and moves_evaluated = ref 0 in
  let improved_any = ref true in
  while !improved_any && not (Budget.exhausted budget) do
    improved_any := false;
    Array.iter
      (fun pair ->
        (* A one-phase window has no candidate; skip it unprobed. *)
        if pair.lo < pair.hi && not (Budget.exhausted budget) then begin
          (* One probe per pair: evaluate at most what the step budget
             still admits, then charge the window's evaluations in one
             go, so consumption equals [moves_evaluated] exactly as if
             every candidate had ticked. *)
          let cap = Budget.capacity budget in
          let evald = ref 0 in
          let rem = ref (removal pair) in
          let s = ref pair.lo in
          while !s <= pair.hi && !evald < cap do
            if !s <> pair.cur then begin
              incr evald;
              if !rem + addition pair !s < 0 then begin
                place pair (-1);
                pair.cur <- !s;
                place pair 1;
                Cost_table.refresh table;
                rem := removal pair;
                incr moves_applied;
                improved_any := true
              end
            end;
            incr s
          done;
          Budget.charge budget !evald;
          moves_evaluated := !moves_evaluated + !evald
        end)
      pairs
  done;
  Obs.Metrics.counter "hccs.runs" 1;
  Obs.Metrics.counter "hccs.moves_evaluated" !moves_evaluated;
  Obs.Metrics.counter "hccs.moves_applied" !moves_applied;
  Obs.Metrics.gauge_max "hccs.pairs_peak" (float_of_int (Array.length pairs));
  let result = to_schedule () in
  let final_cost = Bsp_cost.total machine result in
  ( result,
    {
      moves_applied = !moves_applied;
      moves_evaluated = !moves_evaluated;
      initial_cost;
      final_cost;
    } )
