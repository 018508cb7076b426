type comm_event = { node : int; src : int; dst : int; step : int }

type t = {
  dag : Dag.t;
  proc : int array;
  step : int array;
  comm : comm_event list;
  rep_off : int array;
  rep_proc : int array;
  rep_step : int array;
}

(* A replica-free schedule keeps all three replica arrays empty: the
   empty array is one shared atom, so constructing a plain schedule
   allocates nothing for its replica table. Every reader below goes
   through [num_replicas]/[rep_lo]/[rep_hi], which read an empty [rep_off]
   as "no replicas". *)
let no_extras : int array = [||]

let num_replicas t =
  let len = Array.length t.rep_off in
  if len = 0 then 0 else t.rep_off.(len - 1)

let has_replicas t = num_replicas t > 0

(* The replica segment of [v]: empty for every node of a replica-free
   schedule. *)
let[@inline] rep_lo t v = if Array.length t.rep_off = 0 then 0 else t.rep_off.(v)
let[@inline] rep_hi t v = if Array.length t.rep_off = 0 then 0 else t.rep_off.(v + 1)

(* The record (seven fields), five words per event and its list cell,
   and the arrays shared with the DAG's count ({!Dag.heap_words}). *)
let heap_words t =
  8 + (8 * List.length t.comm)
  + Dag.heap_words ~arrays:[ t.proc; t.step; t.rep_off; t.rep_proc; t.rep_step ] t.dag

let iter_replicas t v f =
  for i = rep_lo t v to rep_hi t v - 1 do
    f t.rep_proc.(i) t.rep_step.(i)
  done

let replicas t v =
  let acc = ref [] in
  for i = rep_hi t v - 1 downto rep_lo t v do
    acc := (t.rep_proc.(i), t.rep_step.(i)) :: !acc
  done;
  !acc

let iter_placements t v f =
  f t.proc.(v) t.step.(v);
  iter_replicas t v f

(* Build the CSR side table from an explicit (node, proc, step) list.
   Entries are sorted by (node, proc) so iteration order — and hence
   everything derived from it (lazy events, IO, rendering) — is
   deterministic regardless of the order the caller discovered the
   replicas in. *)
let build_replica_table n ~proc ~replicas =
  let reps =
    List.sort
      (fun (v1, q1, s1) (v2, q2, s2) ->
        if v1 <> v2 then compare v1 v2
        else if q1 <> q2 then compare q1 q2
        else compare s1 s2)
      replicas
  in
  let count = List.length reps in
  let rep_off = Array.make (n + 1) 0 in
  let rep_proc = Array.make (max count 1) 0 in
  let rep_step = Array.make (max count 1) 0 in
  let i = ref 0 in
  let prev = ref (-1, -1) in
  List.iter
    (fun (v, q, s) ->
      if v < 0 || v >= n then invalid_arg "Schedule: replica node out of range";
      if q < 0 then invalid_arg "Schedule: replica processor out of range";
      if s < 0 then invalid_arg "Schedule: replica superstep out of range";
      if q = proc.(v) then
        invalid_arg "Schedule: replica duplicates the primary placement";
      if !prev = (v, q) then invalid_arg "Schedule: duplicate replica (node, proc)";
      prev := (v, q);
      rep_off.(v + 1) <- rep_off.(v + 1) + 1;
      rep_proc.(!i) <- q;
      rep_step.(!i) <- s;
      incr i)
    reps;
  for v = 0 to n - 1 do
    rep_off.(v + 1) <- rep_off.(v + 1) + rep_off.(v)
  done;
  if count = 0 then (no_extras, no_extras, no_extras)
  else (rep_off, rep_proc, rep_step)

(* The one constructor that takes [proc] and [step] over; [make] and
   [make_replicated] hand it copies. *)
let make_owned dag ~proc ~step ~comm ~replicas =
  if Array.length proc <> Dag.n dag || Array.length step <> Dag.n dag then
    invalid_arg "Schedule: assignment length mismatch";
  let rep_off, rep_proc, rep_step =
    if replicas = [] then (no_extras, no_extras, no_extras)
    else build_replica_table (Dag.n dag) ~proc ~replicas
  in
  { dag; proc; step; comm; rep_off; rep_proc; rep_step }

let make_replicated dag ~proc ~step ~comm ~replicas =
  make_owned dag ~proc:(Array.copy proc) ~step:(Array.copy step) ~comm ~replicas

let make dag ~proc ~step ~comm = make_replicated dag ~proc ~step ~comm ~replicas:[]

let num_supersteps t =
  if Dag.n t.dag = 0 then 0
  else begin
    (* int comparisons, not the polymorphic [max]: every serve reply
       counts the supersteps *)
    let m = ref 0 in
    for v = 0 to Array.length t.step - 1 do
      if t.step.(v) > !m then m := t.step.(v)
    done;
    for i = 0 to num_replicas t - 1 do
      if t.rep_step.(i) > !m then m := t.rep_step.(i)
    done;
    1 + !m
  end

let trivial dag =
  let n = Dag.n dag in
  {
    dag;
    proc = Array.make n 0;
    step = Array.make n 0;
    comm = [];
    rep_off = no_extras;
    rep_proc = no_extras;
    rep_step = no_extras;
  }

(* Events come out in ascending (node, dst) order, built back to front.
   Each node's first need per destination processor is gathered from
   its own successor segment into a scratch row over the processors
   actually used (p = 1 + max proc), and the emission loop resets the
   entries it reads, so a call allocates its event list and O(p) words
   whatever n is. Only the destinations between the lowest and highest
   touched processor are visited, so a node without cross-processor
   successors costs its segment scan alone. *)
let lazy_comm dag ~proc ~step =
  let n = Dag.n dag in
  if n = 0 then []
  else begin
    let p = ref 1 in
    for v = 0 to n - 1 do
      if proc.(v) >= !p then p := proc.(v) + 1
    done;
    let no_need = max_int in
    let need = Array.make !p no_need in
    let soff = Dag.succ_offsets dag and stgt = Dag.succ_targets dag in
    let acc = ref [] in
    for u = n - 1 downto 0 do
      let pu = proc.(u) in
      let lo = ref max_int and hi = ref (-1) in
      for i = soff.(u) to soff.(u + 1) - 1 do
        let v = stgt.(i) in
        let q = proc.(v) in
        if q <> pu then begin
          if step.(v) < need.(q) then need.(q) <- step.(v);
          if q < !lo then lo := q;
          if q > !hi then hi := q
        end
      done;
      for dst = !hi downto !lo do
        let s = need.(dst) in
        if s <> no_need then begin
          acc := { node = u; src = pu; dst; step = s - 1 } :: !acc;
          need.(dst) <- no_need
        end
      done
    done;
    !acc
  end

let of_assignment dag ~proc ~step =
  {
    dag;
    proc = Array.copy proc;
    step = Array.copy step;
    comm = lazy_comm dag ~proc ~step;
    rep_off = no_extras;
    rep_proc = no_extras;
    rep_step = no_extras;
  }

let with_lazy_comm t =
  if has_replicas t then
    invalid_arg
      "Schedule.with_lazy_comm: schedule has replicas (use \
       lazy_comm_replicated)";
  { t with comm = lazy_comm t.dag ~proc:t.proc ~step:t.step }

(* Earliest step at which any placement (primary or replica) of [u]
   exists on processor [q], or [max_int] if none. *)
let placement_step_on t u q =
  let best = ref max_int in
  if t.proc.(u) = q then best := t.step.(u);
  for i = rep_lo t u to rep_hi t u - 1 do
    if t.rep_proc.(i) = q && t.rep_step.(i) < !best then best := t.rep_step.(i)
  done;
  !best

(* Replica-aware lazy communication schedule. Generalisation of
   [lazy_comm]: a consumer placement of [v] at [(q, s)] is locally
   satisfied when some placement of its predecessor [u] sits on [q] at a
   step <= s; only unsatisfied consumers generate a need. Each needed
   (value, destination) pair is served by exactly one event, sent in the
   last possible phase from the placement of [u] that minimises
   lambda(src, dst) among those already computed by that phase
   (ties: the primary copy wins, then the lowest replica processor —
   replica tables are sorted, so this is deterministic). With an empty
   replica table this reduces exactly to [lazy_comm]. *)
let lazy_comm_replicated machine t =
  let dag = t.dag in
  let n = Dag.n dag in
  if n = 0 then []
  else begin
    let p = ref machine.Machine.p in
    Array.iter (fun q -> if q + 1 > !p then p := q + 1) t.proc;
    Array.iter (fun q -> if q + 1 > !p then p := q + 1) t.rep_proc;
    let p = !p in
    let no_need = max_int in
    let first_need = Array.make (n * p) no_need in
    let consume v q s =
      Dag.iter_pred dag v (fun u ->
          if placement_step_on t u q > s then begin
            let idx = (u * p) + q in
            if s < first_need.(idx) then first_need.(idx) <- s
          end)
    in
    for v = 0 to n - 1 do
      iter_placements t v (fun q s -> consume v q s)
    done;
    let acc = ref [] in
    for u = n - 1 downto 0 do
      let base = u * p in
      for dst = p - 1 downto 0 do
        let s = first_need.(base + dst) in
        if s <> no_need then begin
          let phase = s - 1 in
          (* Nearest-by-lambda placement of [u] available by [phase]. *)
          let src = ref t.proc.(u) in
          let best =
            if t.step.(u) <= phase then Machine.lambda machine t.proc.(u) dst
            else max_int
          in
          let best = ref best in
          for i = rep_lo t u to rep_hi t u - 1 do
            if t.rep_step.(i) <= phase then begin
              let lam = Machine.lambda machine t.rep_proc.(i) dst in
              if lam < !best then begin
                best := lam;
                src := t.rep_proc.(i)
              end
            end
          done;
          acc := { node = u; src = !src; dst; step = phase } :: !acc
        end
      done
    done;
    !acc
  end

let of_assignment_replicated machine dag ~proc ~step ~replicas =
  let t = make_replicated dag ~proc ~step ~comm:[] ~replicas in
  { t with comm = lazy_comm_replicated machine t }

let drop_replicas t = of_assignment t.dag ~proc:t.proc ~step:t.step

let assignment_valid dag ~proc ~step =
  let ok = ref true in
  Dag.iter_edges dag (fun u v ->
      if proc.(u) = proc.(v) then begin
        if step.(u) > step.(v) then ok := false
      end
      else if step.(u) >= step.(v) then ok := false);
  !ok

let used_supersteps t =
  let s = num_supersteps t in
  if s = 0 then 0
  else begin
    let used = Array.make s false in
    Array.iter (fun x -> used.(x) <- true) t.step;
    let extras = num_replicas t in
    for i = 0 to extras - 1 do
      used.(t.rep_step.(i)) <- true
    done;
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 used
  end

(* Compacting removes supersteps in which nothing is computed (by a
   primary or a replica). The communication schedule is preserved by
   renumbering event phases: an event in phase [s] is re-issued in the
   phase of the last surviving superstep <= s, which keeps it after its
   source's computation and before its consumers' — for a lazy [comm]
   this coincides exactly with re-deriving the lazy schedule on the
   renumbered assignment. *)
let compact t =
  let s = num_supersteps t in
  if s = 0 then t
  else begin
    let used = Array.make s false in
    Array.iter (fun x -> used.(x) <- true) t.step;
    let extras = num_replicas t in
    for i = 0 to extras - 1 do
      used.(t.rep_step.(i)) <- true
    done;
    let remap = Array.make s 0 in
    let next = ref 0 in
    for i = 0 to s - 1 do
      remap.(i) <- !next;
      if used.(i) then incr next
    done;
    let new_steps = !next in
    let step = Array.map (fun x -> remap.(x)) t.step in
    (* Phase [ph] maps to the index of the last used superstep <= ph
       (clamped to phase 0 for events before any computation; phases
       past the old horizon keep their offset past the new one). *)
    let phase_remap ph =
      if ph >= s then ph - (s - new_steps)
      else begin
        let r = remap.(ph) + (if used.(ph) then 0 else -1) in
        if r < 0 then 0 else r
      end
    in
    let comm =
      List.map (fun (e : comm_event) -> { e with step = phase_remap e.step }) t.comm
    in
    (* Nothing writes a replica table after its construction, so the
       offsets and processors are shared; [Array.map] of a replica-free
       schedule's empty table returns the empty atom. *)
    let rep_step = Array.map (fun x -> remap.(x)) t.rep_step in
    { t with proc = Array.copy t.proc; step; comm; rep_step }
  end
