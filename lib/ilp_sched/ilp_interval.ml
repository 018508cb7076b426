type spec = {
  dag : Dag.t;
  machine : Machine.t;
  proc : int array;
  step : int array;
  v0 : int list;
  s_lo : int;
  s_hi : int;
}

type built = {
  spec : spec;
  v0_arr : int array;
  comp : (int, Ilp.var) Hashtbl.t;  (* key: (v * P + p) * steps + (s - s_lo) *)
}

let estimate_vars spec =
  let p = spec.machine.Machine.p in
  List.length spec.v0 * (spec.s_hi - spec.s_lo + 1) * p * p

let window_steps spec = spec.s_hi - spec.s_lo + 1

let comp_key spec v p s =
  ((v * spec.machine.Machine.p) + p) * window_steps spec + (s - spec.s_lo)

(* Lazy first-need of the value of [u] on processor [q], restricted to a
   class of consumers; max_int when never needed there. *)
let first_need_over dag step proc ~keep u q =
  Dag.fold_succ dag u ~init:max_int (fun acc w ->
      if keep w && step.(w) >= 0 && proc.(w) = q && step.(w) < acc then step.(w)
      else acc)

let validate spec =
  if spec.s_lo < 0 || spec.s_hi < spec.s_lo then
    invalid_arg "Ilp_interval: empty or negative superstep window";
  let in_v0 = Array.make (Dag.n spec.dag) false in
  List.iter (fun v -> in_v0.(v) <- true) spec.v0;
  List.iter
    (fun v ->
      if spec.step.(v) >= 0 && (spec.step.(v) < spec.s_lo || spec.step.(v) > spec.s_hi)
      then invalid_arg "Ilp_interval: assigned v0 node outside the window";
      Dag.iter_pred spec.dag v (fun u ->
          if (not in_v0.(u)) && spec.step.(u) < 0 then
            invalid_arg "Ilp_interval: predecessor of a v0 node is unassigned"))
    spec.v0;
  (* Fixed nodes must not sit inside the window: the model's work rows
     only account for v0. *)
  Array.iteri
    (fun v s ->
      if (not in_v0.(v)) && s >= spec.s_lo && s <= spec.s_hi then
        invalid_arg "Ilp_interval: fixed node assigned inside the window")
    spec.step;
  in_v0

let build spec =
  let { dag; machine; proc; step; v0; s_lo; s_hi } = spec in
  let in_v0 = validate spec in
  let p = machine.Machine.p in
  let g = machine.Machine.g in
  let lam = Machine.lambda machine in
  let model = Ilp.create () in
  let phase_lo = max 0 (s_lo - 1) in
  let steps s_from s_to = List.init (max 0 (s_to - s_from + 1)) (fun i -> s_from + i) in
  let window = steps s_lo s_hi in
  let phases = steps phase_lo s_hi in
  (* Continuous cost variables. *)
  let wvar = Hashtbl.create 8 and hvar = Hashtbl.create 8 in
  List.iter
    (fun s -> Hashtbl.add wvar s (Ilp.continuous model (Printf.sprintf "W_%d" s)))
    window;
  List.iter
    (fun s -> Hashtbl.add hvar s (Ilp.continuous model (Printf.sprintf "H_%d" s)))
    phases;
  (* COMP variables. *)
  let comp = Hashtbl.create 256 in
  List.iter
    (fun v ->
      List.iter
        (fun s ->
          for q = 0 to p - 1 do
            Hashtbl.add comp
              (comp_key spec v q s)
              (Ilp.binary model (Printf.sprintf "comp_%d_%d_%d" v q s))
          done)
        window)
    v0;
  let comp_var v q s = Hashtbl.find comp (comp_key spec v q s) in
  (* COMM variables for v0 nodes that have successors at all. *)
  let comm = Hashtbl.create 256 in
  let comm_var v p1 p2 s = Hashtbl.find_opt comm (v, p1, p2, s) in
  List.iter
    (fun v ->
      if Dag.out_degree dag v > 0 then
        List.iter
          (fun s ->
            for p1 = 0 to p - 1 do
              for p2 = 0 to p - 1 do
                if p1 <> p2 then
                  Hashtbl.add comm (v, p1, p2, s)
                    (Ilp.binary model (Printf.sprintf "comm_%d_%d_%d_%d" v p1 p2 s))
              done
            done)
          window)
    v0;
  (* Fixed pre-window predecessors of v0 nodes. *)
  let pre_nodes =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun v -> Dag.iter_pred dag v (fun u -> if not in_v0.(u) then Hashtbl.replace tbl u ()))
      v0;
    Hashtbl.fold (fun u () acc -> u :: acc) tbl []
    |> List.sort compare
  in
  (* present_before u q: the value of u is already on q when the window's
     boundary phase begins — computed there, or delivered to a fixed
     consumer in an earlier superstep. *)
  let present_before u q =
    proc.(u) = q
    || first_need_over dag step proc ~keep:(fun w -> not in_v0.(w)) u q < s_lo
  in
  let pre = Hashtbl.create 64 in
  let pre_var u q s = Hashtbl.find_opt pre (u, q, s) in
  List.iter
    (fun u ->
      for q = 0 to p - 1 do
        if not (present_before u q) then
          List.iter
            (fun s ->
              Hashtbl.add pre (u, q, s)
                (Ilp.binary model (Printf.sprintf "pre_%d_%d_%d" u q s)))
            phases
      done)
    pre_nodes;
  (* Assignment constraints. *)
  List.iter
    (fun v ->
      let terms =
        List.concat_map
          (fun s -> List.init p (fun q -> (comp_var v q s, 1.0)))
          window
      in
      Ilp.add_eq model terms 1.0)
    v0;
  (* Precedence constraints for edges into v0. *)
  List.iter
    (fun v ->
      Dag.iter_pred dag v (fun u ->
          List.iter
            (fun s ->
              for q = 0 to p - 1 do
                if in_v0.(u) then begin
                  (* availability of u on q by computation phase s *)
                  let avail =
                    List.concat_map
                      (fun s' ->
                        if s' > s then []
                        else begin
                          let own = [ (comp_var u q s', -1.0) ] in
                          let arrivals =
                            if s' >= s then []
                            else
                              List.filter_map
                                (fun p1 ->
                                  if p1 = q then None
                                  else
                                    Option.map
                                      (fun var -> (var, -1.0))
                                      (comm_var u p1 q s'))
                                (List.init p Fun.id)
                          in
                          own @ arrivals
                        end)
                      window
                  in
                  Ilp.add_le model ((comp_var v q s, 1.0) :: avail) 0.0
                end
                else if not (present_before u q) then begin
                  let arrivals =
                    List.filter_map
                      (fun s' ->
                        if s' >= s then None
                        else Option.map (fun var -> (var, -1.0)) (pre_var u q s'))
                      phases
                  in
                  Ilp.add_le model ((comp_var v q s, 1.0) :: arrivals) 0.0
                end
              done)
            window))
    v0;
  (* Communication validity: the value must be present at the sender. *)
  Hashtbl.iter
    (fun (v, p1, _p2, s) var ->
      let avail =
        List.concat_map
          (fun s' ->
            if s' > s then []
            else begin
              let own = [ (comp_var v p1 s', -1.0) ] in
              let arrivals =
                if s' >= s then []
                else
                  List.filter_map
                    (fun p' ->
                      if p' = p1 then None
                      else
                        Option.map (fun w -> (w, -1.0)) (comm_var v p' p1 s'))
                    (List.init p Fun.id)
              in
              own @ arrivals
            end)
          window
      in
      Ilp.add_le model ((var, 1.0) :: avail) 0.0)
    comm;
  (* External consumers of v0 nodes: presence by the end of the window. *)
  List.iter
    (fun v ->
      let dests = Hashtbl.create 4 in
      Dag.iter_succ dag v (fun w ->
          if (not in_v0.(w)) && step.(w) >= 0 then Hashtbl.replace dests proc.(w) ());
      Hashtbl.iter
        (fun dst () ->
          let terms =
            List.concat_map
              (fun s ->
                (comp_var v dst s, 1.0)
                :: List.filter_map
                     (fun p1 ->
                       if p1 = dst then None
                       else Option.map (fun w -> (w, 1.0)) (comm_var v p1 dst s))
                     (List.init p Fun.id))
              window
          in
          Ilp.add_ge model terms 1.0)
        dests)
    v0;
  (* Present-by-end constraints for fixed predecessors whose original
     delivery to an external consumer fell inside the window. *)
  List.iter
    (fun u ->
      for q = 0 to p - 1 do
        if q <> proc.(u) && not (present_before u q) then begin
          let fn_ext = first_need_over dag step proc ~keep:(fun w -> not in_v0.(w)) u q in
          let fn_all = first_need_over dag step proc ~keep:(fun _ -> true) u q in
          if fn_ext < max_int && fn_all < max_int && fn_all - 1 <= s_hi then begin
            let terms =
              List.filter_map
                (fun s -> Option.map (fun w -> (w, 1.0)) (pre_var u q s))
                phases
            in
            if terms <> [] then Ilp.add_ge model terms 1.0
          end
        end
      done)
    pre_nodes;
  (* Fixed pass-through traffic: lazy events of fixed producers with no
     v0 consumer on the destination, landing inside the window. *)
  let send_const = Hashtbl.create 16 and recv_const = Hashtbl.create 16 in
  let bump tbl key vol =
    Hashtbl.replace tbl key (vol + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let is_pre = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace is_pre u ()) pre_nodes;
  for u = 0 to Dag.n dag - 1 do
    if (not in_v0.(u)) && step.(u) >= 0 && not (Hashtbl.mem is_pre u) then
      for q = 0 to p - 1 do
        if q <> proc.(u) then begin
          let fn = first_need_over dag step proc ~keep:(fun w -> not in_v0.(w)) u q in
          if fn < max_int then begin
            let phase = fn - 1 in
            if phase >= phase_lo && phase <= s_hi then begin
              let vol = Dag.comm dag u * lam proc.(u) q in
              bump send_const (proc.(u), phase) vol;
              bump recv_const (q, phase) vol
            end
          end
        end
      done
  done;
  (* Work rows: W_s >= work of every processor in superstep s. *)
  List.iter
    (fun s ->
      for q = 0 to p - 1 do
        let terms =
          List.map (fun v -> (comp_var v q s, -.float_of_int (Dag.work dag v))) v0
        in
        Ilp.add_ge model ((Hashtbl.find wvar s, 1.0) :: terms) 0.0
      done)
    window;
  (* H rows: send and receive volume of every processor in every phase. *)
  List.iter
    (fun s ->
      for q = 0 to p - 1 do
        let send_terms = ref [] and recv_terms = ref [] in
        Hashtbl.iter
          (fun (v, p1, p2, s') var ->
            if s' = s then begin
              let vol = float_of_int (Dag.comm dag v * lam p1 p2) in
              if p1 = q then send_terms := (var, -.vol) :: !send_terms;
              if p2 = q then recv_terms := (var, -.vol) :: !recv_terms
            end)
          comm;
        Hashtbl.iter
          (fun (u, dst, s') var ->
            if s' = s then begin
              let vol = float_of_int (Dag.comm dag u * lam proc.(u) dst) in
              if proc.(u) = q then send_terms := (var, -.vol) :: !send_terms;
              if dst = q then recv_terms := (var, -.vol) :: !recv_terms
            end)
          pre;
        let h = (Hashtbl.find hvar s, 1.0) in
        let sc = float_of_int (Option.value ~default:0 (Hashtbl.find_opt send_const (q, s))) in
        let rc = float_of_int (Option.value ~default:0 (Hashtbl.find_opt recv_const (q, s))) in
        Ilp.add_ge model (h :: !send_terms) sc;
        Ilp.add_ge model (h :: !recv_terms) rc
      done)
    phases;
  (* Objective: work + g * h-relation over the scope. *)
  let obj =
    List.map (fun s -> (Hashtbl.find wvar s, 1.0)) window
    @ List.map (fun s -> (Hashtbl.find hvar s, float_of_int g)) phases
  in
  Ilp.set_objective model obj;
  (model, { spec; v0_arr = Array.of_list v0; comp })

let current_scope_cost spec =
  let { dag; machine; proc; step; s_lo; s_hi; _ } = spec in
  let sched = Schedule.of_assignment dag ~proc ~step in
  let num_steps = Schedule.num_supersteps sched in
  let work, send, recv = Bsp_cost.tables machine sched ~num_steps in
  let p = machine.Machine.p in
  let phase_lo = max 0 (s_lo - 1) in
  let total = ref 0 in
  for s = phase_lo to min s_hi (num_steps - 1) do
    let hmax = ref 0 in
    for q = 0 to p - 1 do
      let h = max send.(s).(q) recv.(s).(q) in
      if h > !hmax then hmax := h
    done;
    total := !total + (machine.Machine.g * !hmax);
    if s >= s_lo then begin
      let wmax = ref 0 in
      for q = 0 to p - 1 do
        if work.(s).(q) > !wmax then wmax := work.(s).(q)
      done;
      total := !total + !wmax
    end
  done;
  !total

let extract built x =
  let spec = built.spec in
  let p = spec.machine.Machine.p in
  Array.to_list built.v0_arr
  |> List.map (fun v ->
         let best = ref (0, spec.s_lo) and best_val = ref neg_infinity in
         for q = 0 to p - 1 do
           for s = spec.s_lo to spec.s_hi do
             let value = x.(Hashtbl.find built.comp (comp_key spec v q s)) in
             if value > !best_val then begin
               best_val := value;
               best := (q, s)
             end
           done
         done;
         let q, s = !best in
         (v, q, s))
