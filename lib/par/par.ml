(* A fixed-size domain pool with deterministic reduction.

   Shape: one global batch queue guarded by a mutex/condition pair.
   Workers (spawned once, lazily) and the submitting domain claim task
   indices from the head batch with an atomic fetch-and-add, so a batch
   is a lock-free work pile once published; the queue lock is touched
   once per batch per domain, not per task. The submitter always helps
   drain its own batch, so every batch completes even with zero
   workers, and a nested submission from inside a worker-run task
   degrades to inline sequential execution — no domain ever blocks
   waiting for pool capacity, hence no deadlock by construction.

   Determinism: results land in a slot array indexed by submission
   order; all reductions ([map] order, [map_reduce] fold, [best_of]
   tie-breaking, which exception is re-raised) read that array left to
   right. Scheduling nondeterminism therefore never reaches the
   caller. *)

(* Flight-recorder event kinds (interned once; recording is a no-op
   while Obs.Events is disabled). "task" and "queue_wait" are spans,
   "claim"/"batch" instants, the gc_* kinds counter samples taken from
   the GC deltas each drain already measures. *)
let k_task = Obs.Events.register_kind "task"
let k_queue_wait = Obs.Events.register_kind "queue_wait"
let k_idle = Obs.Events.register_kind "idle"
let k_claim = Obs.Events.register_kind "claim"
let k_batch = Obs.Events.register_kind "batch"
let k_gc_minor_words = Obs.Events.register_kind "gc_minor_words"
let k_gc_minor = Obs.Events.register_kind "gc_minor_collections"
let k_gc_major = Obs.Events.register_kind "gc_major_collections"

let default_jobs () =
  match Sys.getenv_opt "BSP_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

let jobs_setting = Atomic.make (default_jobs ())

let jobs () = Atomic.get jobs_setting
let set_jobs n = Atomic.set jobs_setting (max 1 n)

let with_jobs n f =
  let prev = jobs () in
  set_jobs n;
  Fun.protect ~finally:(fun () -> set_jobs prev) f

(* ------------------------------------------------------------------ *)
(* Chunk sizing.                                                       *)

(* How many task indices one fetch-and-add claims. The oversubscription
   factor is the target number of claims per drainer per batch: higher
   factors re-balance better when task runtimes are skewed, lower
   factors amortise the atomic claim over more tasks. Tiny batches
   (count <= factor * jobs) degenerate to chunk = 1 so no drainer ever
   hoards tasks another domain could run — the 4-ratio portfolio sweep
   lands here. *)

let chunk_factor = 4

let chunk_size ~factor ~jobs ~count =
  let factor = max 1 factor and jobs = max 1 jobs in
  max 1 (count / (factor * jobs))

(* ------------------------------------------------------------------ *)
(* Per-domain GC tuning.                                               *)

(* In OCaml 5 a minor collection is a stop-the-world synchronisation of
   every running domain, so an allocation burst on one worker stalls
   all of them; with more domains than cores the stalls additionally
   serialise through the scheduler. A larger per-domain minor heap
   makes minor collections proportionally rarer, which is the single
   biggest lever against that pathology. Each domain applies the
   setting to itself once: workers at spawn, the submitter on its first
   parallel batch. *)

let minor_heap_words = 2 * 1024 * 1024 (* x8 bytes = 16 MiB per domain *)

let gc_tuned : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let tune_gc () =
  if not (Domain.DLS.get gc_tuned) then begin
    Domain.DLS.set gc_tuned true;
    let g = Gc.get () in
    if g.Gc.minor_heap_size < minor_heap_words then
      Gc.set { g with Gc.minor_heap_size = minor_heap_words }
  end

(* ------------------------------------------------------------------ *)
(* Per-domain batch/GC statistics.                                     *)

(* One slot per domain that has ever drained a batch, registered on
   first use and never removed. Each field is single-writer (its own
   domain accumulates, once per drain) and read cross-domain only by
   {!stats}/{!reset_stats} on the submitter, so plain atomics suffice —
   no lock on the hot path. *)

type slot = {
  slot_id : int;
  slot_worker : bool;
  s_tasks : int Atomic.t;
  s_batches : int Atomic.t;
  s_last_chunk : int Atomic.t;
  s_minor_words : float Atomic.t;
  s_promoted_words : float Atomic.t;
  s_minor_collections : int Atomic.t;
  s_major_collections : int Atomic.t;
}

type domain_stats = {
  domain_index : int;
  is_worker : bool;
  tasks_run : int;
  batches_drained : int;
  last_chunk : int;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let slots_m = Mutex.create ()
let slots : slot list ref = ref []
let slot_key : slot option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Tasks running on a pool worker must not submit sub-batches (their
   submitter could otherwise starve the pool); they run nested fan-out
   inline instead. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let my_slot () =
  match Domain.DLS.get slot_key with
  | Some s -> s
  | None ->
    Mutex.lock slots_m;
    let s =
      {
        slot_id = List.length !slots;
        slot_worker = Domain.DLS.get in_worker;
        s_tasks = Atomic.make 0;
        s_batches = Atomic.make 0;
        s_last_chunk = Atomic.make 0;
        s_minor_words = Atomic.make 0.0;
        s_promoted_words = Atomic.make 0.0;
        s_minor_collections = Atomic.make 0;
        s_major_collections = Atomic.make 0;
      }
    in
    slots := s :: !slots;
    Mutex.unlock slots_m;
    Domain.DLS.set slot_key (Some s);
    s

let reset_stats () =
  Mutex.lock slots_m;
  List.iter
    (fun s ->
      Atomic.set s.s_tasks 0;
      Atomic.set s.s_batches 0;
      Atomic.set s.s_last_chunk 0;
      Atomic.set s.s_minor_words 0.0;
      Atomic.set s.s_promoted_words 0.0;
      Atomic.set s.s_minor_collections 0;
      Atomic.set s.s_major_collections 0)
    !slots;
  Mutex.unlock slots_m

let stats () =
  Mutex.lock slots_m;
  let snap = !slots in
  Mutex.unlock slots_m;
  List.sort (fun a b -> compare a.domain_index b.domain_index)
  @@ List.map
       (fun s ->
         {
           domain_index = s.slot_id;
           is_worker = s.slot_worker;
           tasks_run = Atomic.get s.s_tasks;
           batches_drained = Atomic.get s.s_batches;
           last_chunk = Atomic.get s.s_last_chunk;
           minor_words = Atomic.get s.s_minor_words;
           promoted_words = Atomic.get s.s_promoted_words;
           minor_collections = Atomic.get s.s_minor_collections;
           major_collections = Atomic.get s.s_major_collections;
         })
       snap

(* ------------------------------------------------------------------ *)
(* Pool internals.                                                     *)

type batch = {
  run : int -> unit;  (* executes task [i]; must not raise *)
  count : int;
  chunk : int;  (* indices claimed per fetch-and-add *)
  next : int Atomic.t;  (* next unclaimed task index *)
  remaining : int Atomic.t;  (* tasks not yet completed *)
  done_m : Mutex.t;
  done_cv : Condition.t;
  mutable all_done : bool;
}

let pool_m = Mutex.create ()
let pool_cv = Condition.create ()
let queue : batch Queue.t = Queue.create ()
let shutdown = ref false
let worker_handles : unit Domain.t list ref = ref []
let worker_count = ref 0
let exit_hook_registered = ref false

let mark_done b =
  Mutex.lock b.done_m;
  b.all_done <- true;
  Condition.broadcast b.done_cv;
  Mutex.unlock b.done_m

(* Claim and execute tasks until the batch's index counter is
   exhausted, [chunk] indices per claim so the claim overhead (and the
   cache-line ping-pong on [next]) amortises over fine-grained batches.
   Whoever completes the last task signals the submitter — but only
   after flushing its stats slot: the submitter reads [stats] as soon
   as the batch reports done, so signaling first would race the last
   drainer's accumulation out of the snapshot (observed as a worker's
   whole contribution missing from a sweep's allocation total). Each
   drain accumulates the domain's task count and GC deltas into its
   stats slot. *)
let drain b =
  (* [Gc.minor_words] and [Gc.counters] read only the calling domain's
     allocation counters. Minor words come from [Gc.minor_words], the
     exact count: [Gc.counters]'s minor figure leaves out the words
     allocated since the domain's last minor collection (OCaml 5.1), so
     it falls short by up to a minor heap's worth.
     [Gc.quick_stat] must NOT be used for per-domain words: in OCaml 5
     it samples every live domain, so a drain-window delta would count
     the whole process's allocation — each domain would report roughly
     the process total and the per-domain sum would multi-count it.
     Collection counts are global events anyway (all domains take part
     in a minor cycle), so [quick_stat] remains fine for those. *)
  let mw0 = Gc.minor_words () and _, pw0, _ = Gc.counters () in
  let t0 = Gc.quick_stat () in
  let ran = ref 0 in
  let last = ref false in
  let continue_ = ref true in
  while !continue_ do
    let i0 = Atomic.fetch_and_add b.next b.chunk in
    if i0 >= b.count then continue_ := false
    else begin
      let hi = min b.count (i0 + b.chunk) in
      Obs.Events.instant ~arg:(hi - i0) k_claim;
      for i = i0 to hi - 1 do
        b.run i
      done;
      let k = hi - i0 in
      ran := !ran + k;
      if Atomic.fetch_and_add b.remaining (-k) = k then begin
        last := true;
        continue_ := false
      end
    end
  done;
  if !ran > 0 then begin
    let mw1 = Gc.minor_words () and _, pw1, _ = Gc.counters () in
    let t1 = Gc.quick_stat () in
    let s = my_slot () in
    Atomic.set s.s_tasks (Atomic.get s.s_tasks + !ran);
    Atomic.set s.s_batches (Atomic.get s.s_batches + 1);
    Atomic.set s.s_last_chunk b.chunk;
    Atomic.set s.s_minor_words (Atomic.get s.s_minor_words +. (mw1 -. mw0));
    Atomic.set s.s_promoted_words (Atomic.get s.s_promoted_words +. (pw1 -. pw0));
    Atomic.set s.s_minor_collections
      (Atomic.get s.s_minor_collections
      + (t1.Gc.minor_collections - t0.Gc.minor_collections));
    Atomic.set s.s_major_collections
      (Atomic.get s.s_major_collections
      + (t1.Gc.major_collections - t0.Gc.major_collections));
    Obs.Events.sample k_gc_minor_words (int_of_float (mw1 -. mw0));
    Obs.Events.sample k_gc_minor
      (t1.Gc.minor_collections - t0.Gc.minor_collections);
    Obs.Events.sample k_gc_major
      (t1.Gc.major_collections - t0.Gc.major_collections)
  end;
  if !last then mark_done b

(* Once a batch has no unclaimed tasks left, unlink it so workers go
   back to waiting instead of spinning on it. Every drainer calls this;
   only the first still finding the batch at the head removes it. *)
let drop_if_exhausted b =
  Mutex.lock pool_m;
  (match Queue.peek_opt queue with
   | Some b' when b' == b -> ignore (Queue.pop queue : batch)
   | _ -> ());
  Mutex.unlock pool_m

let worker () =
  Domain.DLS.set in_worker true;
  tune_gc ();
  let rec loop () =
    Obs.Events.begin_ ~arg:Obs.Events.no_arg ~ts:Obs.Events.clock k_idle;
    Mutex.lock pool_m;
    let rec await () =
      if !shutdown then None
      else
        match Queue.peek_opt queue with
        | Some b -> Some b
        | None ->
          Condition.wait pool_cv pool_m;
          await ()
    in
    let b = await () in
    Mutex.unlock pool_m;
    Obs.Events.end_ ~arg:Obs.Events.no_arg ~ts:Obs.Events.clock k_idle;
    match b with
    | None -> ()
    | Some b ->
      drain b;
      drop_if_exhausted b;
      loop ()
  in
  loop ()

(* Spawn once, grow lazily up to the largest jobs count ever requested;
   surplus workers from a larger earlier setting just keep waiting. The
   at_exit hook wakes and joins them so test runners and CLIs exit
   cleanly mid-wait. *)
let ensure_workers target =
  if !worker_count < target then begin
    if not !exit_hook_registered then begin
      exit_hook_registered := true;
      at_exit (fun () ->
          Mutex.lock pool_m;
          shutdown := true;
          Condition.broadcast pool_cv;
          Mutex.unlock pool_m;
          List.iter Domain.join !worker_handles)
    end;
    Mutex.lock pool_m;
    while !worker_count < target do
      incr worker_count;
      worker_handles := Domain.spawn worker :: !worker_handles
    done;
    Mutex.unlock pool_m
  end

(* ------------------------------------------------------------------ *)
(* Batch execution with per-task child registries.                     *)

type 'b cell = Pending | Done of 'b | Raised of exn * Printexc.raw_backtrace

(* One function applied to an input array, instead of an array of
   thunks: submitting a batch allocates no per-task closure, and the
   shared [run] closure captures everything the tasks need once. *)
(* Task timing records into the ambient registry (the child, inside a
   parallel task) and the flight recorder. The sequential path records
   the same "par.task_seconds" observations whenever a registry is
   installed, so histogram counts match across jobs settings;
   "par.queue_wait_seconds" exists only on the parallel path — at
   jobs=1 nothing ever waits. Uninstrumented runs (no registry, no
   recorder) skip every clock read. Clock readings are integer
   nanoseconds, shared by the recorder's slice and the histogram. *)
let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9

let task_done ~index t_start =
  let t_stop = Time_source.now_ns () in
  Obs.Events.end_ ~arg:index ~ts:t_stop k_task;
  Obs.Metrics.histogram "par.task_seconds" (seconds_between t_start t_stop)

let timed_task ~index f x =
  let t_start = Time_source.now_ns () in
  Obs.Events.begin_ ~arg:index ~ts:t_start k_task;
  match f x with
  | y ->
    task_done ~index t_start;
    y
  | exception e ->
    task_done ~index t_start;
    raise e

let run_batch (f : 'a -> 'b) (inputs : 'a array) : 'b array =
  let n = Array.length inputs in
  let j = jobs () in
  if j <= 1 || n <= 1 || Domain.DLS.get in_worker then
    (* The sequential path is byte-for-byte the pre-parallel behaviour:
       tasks run in order on this domain against the ambient registry,
       no children, no merge. Instrumentation only adds task timing
       around each call. *)
    if Obs.Metrics.current () = None && not (Obs.Events.enabled ()) then
      Array.map f inputs
    else Array.mapi (fun i x -> timed_task ~index:i f x) inputs
  else begin
    tune_gc ();
    let parent = Obs.Metrics.current () in
    let instrumented = parent <> None || Obs.Events.enabled () in
    let submit_ts = if instrumented then Time_source.now_ns () else 0 in
    if instrumented then Obs.Events.instant ~arg:n k_batch;
    let children = Array.init n (fun _ -> Option.map Obs.Metrics.create_child parent) in
    let results = Array.make n Pending in
    let run i =
      let exec () =
        try Done (f inputs.(i)) with e -> Raised (e, Printexc.get_raw_backtrace ())
      in
      let exec () =
        if not instrumented then exec ()
        else begin
          (* The queue wait is known exactly once the task starts:
             backfill it as a span from batch submission to now, then
             time the run itself. *)
          let t_start = Time_source.now_ns () in
          Obs.Events.span_at ~arg:i k_queue_wait ~start:submit_ts ~stop:t_start;
          Obs.Metrics.histogram "par.queue_wait_seconds"
            (seconds_between submit_ts t_start);
          timed_task ~index:i exec ()
        end
      in
      let r =
        match children.(i) with
        | None -> exec ()
        | Some child -> Obs.Metrics.with_registry child exec
      in
      results.(i) <- r
    in
    let b =
      {
        run;
        count = n;
        (* A chunk per claim, sized so each of the [j] drainers makes
           [chunk_factor] claims per batch; coarse batches
           (n <= factor * j) keep chunk = 1 so no drainer hoards tasks
           another could run. *)
        chunk = chunk_size ~factor:chunk_factor ~jobs:j ~count:n;
        next = Atomic.make 0;
        remaining = Atomic.make n;
        done_m = Mutex.create ();
        done_cv = Condition.create ();
        all_done = false;
      }
    in
    ensure_workers (j - 1);
    Mutex.lock pool_m;
    Queue.push b queue;
    Condition.broadcast pool_cv;
    Mutex.unlock pool_m;
    drain b;
    drop_if_exhausted b;
    Mutex.lock b.done_m;
    while not b.all_done do
      Condition.wait b.done_cv b.done_m
    done;
    Mutex.unlock b.done_m;
    (* Children merge in submission order whether their task succeeded
       or raised — partial metrics of a failed task still count, and the
       merge order never depends on scheduling. *)
    (match parent with
     | None -> ()
     | Some p ->
       Array.iter
         (function Some c -> Obs.Metrics.merge_into ~into:p c | None -> ())
         children);
    Array.iter
      (function
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Done _ | Pending -> ())
      results;
    Array.map (function Done v -> v | Pending | Raised _ -> assert false) results
  end

(* ------------------------------------------------------------------ *)
(* Public combinators.                                                 *)

let map f xs = Array.to_list (run_batch f (Array.of_list xs))

let map_reduce ~map:f ~reduce ~init xs = List.fold_left reduce init (map f xs)

let best_of ~cmp f xs =
  match map f xs with
  | [] -> invalid_arg "Par.best_of: empty list"
  | y :: ys -> List.fold_left (fun best c -> if cmp c best < 0 then c else best) y ys
