type t = {
  machine : Machine.t;
  num_steps : int;
  cap_p : int;  (* allocated row width: every matrix row has this length *)
  work : int array array;
  send : int array array;
  recv : int array array;
  step_cost_ : int array;
  (* Per-step maxima, refreshed together with step_cost_. The row
     evaluator's addition overlays only raise cells above the shared
     removal base, so a candidate superstep maximum is the cached
     maximum combined with the touched cells alone — no row rescan. *)
  work_max_ : int array;
  comm_max_ : int array;
  mutable total : int;
  dirty : int array;  (* stack of dirty superstep indices *)
  mutable dirty_len : int;
  is_dirty : bool array;
}

(* One superstep row's work and h-relation maxima, each returned alone:
   a pair would be the only allocation of an accepted move, which
   refreshes the supersteps it touched. *)
let work_max_of t s =
  let row = t.work.(s) and m = ref 0 in
  for q = 0 to t.machine.Machine.p - 1 do
    if row.(q) > !m then m := row.(q)
  done;
  !m

let comm_max_of t s =
  let send_row = t.send.(s) and recv_row = t.recv.(s) and m = ref 0 in
  for q = 0 to t.machine.Machine.p - 1 do
    let h = max send_row.(q) recv_row.(q) in
    if h > !m then m := h
  done;
  !m

let create machine ~num_steps =
  let p = machine.Machine.p in
  {
    machine;
    num_steps;
    cap_p = p;
    work = Array.make_matrix num_steps p 0;
    send = Array.make_matrix num_steps p 0;
    recv = Array.make_matrix num_steps p 0;
    step_cost_ = Array.make num_steps machine.Machine.l;
    work_max_ = Array.make num_steps 0;
    comm_max_ = Array.make num_steps 0;
    total = num_steps * machine.Machine.l;
    dirty = Array.make num_steps 0;
    dirty_len = 0;
    is_dirty = Array.make num_steps false;
  }

let num_steps t = t.num_steps

(* Zero the used region ([num_steps] rows x [p] columns) and the dirty
   bookkeeping. Cells outside the used region are zero by construction
   and stay zero, so a cleared table's backing arrays are entirely zero
   — the invariant {!recycle} relies on. *)
let clear t =
  let p = t.machine.Machine.p in
  for s = 0 to t.num_steps - 1 do
    Array.fill t.work.(s) 0 p 0;
    Array.fill t.send.(s) 0 p 0;
    Array.fill t.recv.(s) 0 p 0;
    t.is_dirty.(s) <- false
  done;
  t.dirty_len <- 0

(* A fresh table over recycled storage: when the cleared [old] table's
   arrays are big enough for the new dimensions they are reused (cells
   are already zero per the {!clear} invariant; only the per-step caches
   need refilling), otherwise this falls back to a plain {!create}. *)
let recycle old machine ~num_steps =
  let p = machine.Machine.p in
  if
    Array.length old.work >= num_steps
    && old.cap_p >= p
    && Array.length old.step_cost_ >= num_steps
  then begin
    let t =
      {
        machine;
        num_steps;
        cap_p = old.cap_p;
        work = old.work;
        send = old.send;
        recv = old.recv;
        step_cost_ = old.step_cost_;
        work_max_ = old.work_max_;
        comm_max_ = old.comm_max_;
        total = num_steps * machine.Machine.l;
        dirty = old.dirty;
        dirty_len = 0;
        is_dirty = old.is_dirty;
      }
    in
    Array.fill t.step_cost_ 0 num_steps machine.Machine.l;
    Array.fill t.work_max_ 0 num_steps 0;
    Array.fill t.comm_max_ 0 num_steps 0;
    Array.fill t.is_dirty 0 num_steps false;
    t
  end
  else create machine ~num_steps

let touch t s =
  if not t.is_dirty.(s) then begin
    t.is_dirty.(s) <- true;
    t.dirty.(t.dirty_len) <- s;
    t.dirty_len <- t.dirty_len + 1
  end

let add_work t ~step ~proc delta =
  t.work.(step).(proc) <- t.work.(step).(proc) + delta;
  touch t step

let add_send t ~step ~proc delta =
  t.send.(step).(proc) <- t.send.(step).(proc) + delta;
  touch t step

let add_recv t ~step ~proc delta =
  t.recv.(step).(proc) <- t.recv.(step).(proc) + delta;
  touch t step

let refresh_step t s =
  let wm = work_max_of t s and hm = comm_max_of t s in
  let c = Bsp_cost.superstep_cost t.machine ~work_max:wm ~comm_max:hm in
  t.work_max_.(s) <- wm;
  t.comm_max_.(s) <- hm;
  t.total <- t.total + c - t.step_cost_.(s);
  t.step_cost_.(s) <- c

let refresh t =
  for i = 0 to t.dirty_len - 1 do
    let s = t.dirty.(i) in
    t.is_dirty.(s) <- false;
    refresh_step t s
  done;
  t.dirty_len <- 0

let total t = t.total
let step_cost t s = t.step_cost_.(s)
let step_costs t = t.step_cost_


let work_matrix t = t.work
let send_matrix t = t.send
let recv_matrix t = t.recv
let work_max t = t.work_max_
let comm_max t = t.comm_max_

let assert_consistent t =
  if t.dirty_len <> 0 then failwith "Cost_table: refresh pending";
  let sum = ref 0 in
  for s = 0 to t.num_steps - 1 do
    let wm = work_max_of t s and hm = comm_max_of t s in
    let c = Bsp_cost.superstep_cost t.machine ~work_max:wm ~comm_max:hm in
    if c <> t.step_cost_.(s) then failwith "Cost_table: stale superstep cost";
    if wm <> t.work_max_.(s) then failwith "Cost_table: stale work maximum";
    if hm <> t.comm_max_.(s) then failwith "Cost_table: stale comm maximum";
    sum := !sum + c
  done;
  if !sum <> t.total then failwith "Cost_table: stale total"
