(* Per-domain flight recorder (DESIGN.md Section 5i).

   Shape: one fixed-capacity ring buffer per domain, three preallocated
   flat arrays (timestamp / packed kind+phase / integer argument). The
   record path is: one atomic load of the global state, one DLS load,
   three array stores, one atomic head bump — no lock, no cross-domain
   traffic (each domain owns its ring; the head is an atomic only so
   that a crash-dump from another domain reads a coherent prefix). Its
   one allocation is the boxed float of the clock reading, 2 minor
   words per event, until Time_source has an integer clock. When the
   ring wraps, the oldest events are overwritten and counted as
   dropped — recording never blocks and never grows memory.

   Enabling installs a fresh generation; buffers from an earlier
   generation are abandoned (domains lazily re-register), so
   enable/disable cycles cannot mix epochs. *)

type kind = int

(* Phase tags packed into the low two bits of the code word. *)
let ph_begin = 0
let ph_end = 1
let ph_instant = 2
let ph_sample = 3

type phase = Begin | End | Instant | Sample

let phase_of_tag = function
  | 0 -> Begin
  | 1 -> End
  | 2 -> Instant
  | _ -> Sample

(* ------------------------------------------------------------------ *)
(* Kind registry: global, append-only, tiny. Lookups of a known name
   read one atomic snapshot without locking, so a span can intern its
   name on every call; only the first use of a name takes the lock. *)

module Names = Map.Make (String)

type kinds = { names : string array; ids : kind Names.t }

let kinds_m = Mutex.create ()
let kinds : kinds Atomic.t = Atomic.make { names = [||]; ids = Names.empty }

let register_kind name =
  match Names.find_opt name (Atomic.get kinds).ids with
  | Some k -> k
  | None ->
    Mutex.protect kinds_m (fun () ->
        let r = Atomic.get kinds in
        match Names.find_opt name r.ids with
        | Some k -> k
        | None ->
          let k = Array.length r.names in
          Atomic.set kinds
            { names = Array.append r.names [| name |]; ids = Names.add name k r.ids };
          k)

let kind_name k =
  let arr = (Atomic.get kinds).names in
  if k >= 0 && k < Array.length arr then arr.(k) else Printf.sprintf "kind%d" k

(* ------------------------------------------------------------------ *)
(* Recorder state.                                                     *)

type buffer = {
  b_gen : int;
  b_index : int;  (* track number: registration order within the generation *)
  b_ts : float array;
  b_code : int array;  (* (kind lsl 2) lor phase *)
  b_arg : int array;
  b_head : int Atomic.t;  (* total events this domain ever recorded *)
}

type state = {
  st_gen : int;
  st_capacity : int;
  st_mask : int;
  st_t0 : float;
  st_m : Mutex.t;
  mutable st_buffers : buffer list;  (* newest registration first *)
}

let state : state option Atomic.t = Atomic.make None
let control_m = Mutex.create ()
let gen_counter = ref 0

let default_capacity = 65536

let round_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1024

let enable ?(capacity = default_capacity) () =
  Mutex.lock control_m;
  incr gen_counter;
  let cap = round_pow2 (max 1 capacity) in
  Atomic.set state
    (Some
       {
         st_gen = !gen_counter;
         st_capacity = cap;
         st_mask = cap - 1;
         st_t0 = Time_source.now ();
         st_m = Mutex.create ();
         st_buffers = [];
       });
  Mutex.unlock control_m

let disable () = Atomic.set state None
let enabled () = Atomic.get state <> None

let buf_key : buffer option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let register_buffer st =
  Mutex.lock st.st_m;
  let b =
    {
      b_gen = st.st_gen;
      b_index = List.length st.st_buffers;
      b_ts = Array.make st.st_capacity 0.0;
      b_code = Array.make st.st_capacity 0;
      b_arg = Array.make st.st_capacity 0;
      b_head = Atomic.make 0;
    }
  in
  st.st_buffers <- b :: st.st_buffers;
  Mutex.unlock st.st_m;
  Domain.DLS.set buf_key (Some b);
  b

let my_buffer st =
  match Domain.DLS.get buf_key with
  | Some b when b.b_gen = st.st_gen -> b
  | _ -> register_buffer st

let record_at st ts tag kind arg =
  let b = my_buffer st in
  let h = Atomic.get b.b_head in
  let i = h land st.st_mask in
  b.b_ts.(i) <- ts;
  b.b_code.(i) <- (kind lsl 2) lor tag;
  b.b_arg.(i) <- arg;
  Atomic.set b.b_head (h + 1)

let stamp = function Some ts -> ts | None -> Time_source.now ()

let begin_ ?(arg = 0) ?ts k =
  match Atomic.get state with
  | None -> ()
  | Some st -> record_at st (stamp ts) ph_begin k arg

let end_ ?(arg = 0) ?ts k =
  match Atomic.get state with
  | None -> ()
  | Some st -> record_at st (stamp ts) ph_end k arg

let instant ?(arg = 0) k =
  match Atomic.get state with
  | None -> ()
  | Some st -> record_at st (Time_source.now ()) ph_instant k arg

let sample k v =
  match Atomic.get state with
  | None -> ()
  | Some st -> record_at st (Time_source.now ()) ph_sample k v

let span_at ?(arg = 0) k ~start ~stop =
  match Atomic.get state with
  | None -> ()
  | Some st ->
    record_at st start ph_begin k arg;
    record_at st stop ph_end k arg

(* ------------------------------------------------------------------ *)
(* Draining.                                                           *)

type event = { ev_domain : int; ev_ts : float; ev_kind : kind; ev_phase : phase; ev_arg : int }

let buffers st =
  Mutex.lock st.st_m;
  let bs = st.st_buffers in
  Mutex.unlock st.st_m;
  List.sort (fun a b -> compare a.b_index b.b_index) bs

(* Oldest retained event first. The head is read once per buffer, so a
   concurrent recorder costs at most a torn newest event, never a torn
   prefix. *)
let buffer_events st b =
  let h = Atomic.get b.b_head in
  let start = max 0 (h - st.st_capacity) in
  let acc = ref [] in
  for j = h - 1 downto start do
    let i = j land st.st_mask in
    let code = b.b_code.(i) in
    acc :=
      {
        ev_domain = b.b_index;
        ev_ts = b.b_ts.(i);
        ev_kind = code lsr 2;
        ev_phase = phase_of_tag (code land 3);
        ev_arg = b.b_arg.(i);
      }
      :: !acc
  done;
  !acc

let dump () =
  match Atomic.get state with
  | None -> []
  | Some st -> List.concat_map (buffer_events st) (buffers st)

let recorded () =
  match Atomic.get state with
  | None -> 0
  | Some st -> List.fold_left (fun acc b -> acc + Atomic.get b.b_head) 0 (buffers st)

let dropped () =
  match Atomic.get state with
  | None -> 0
  | Some st ->
    List.fold_left
      (fun acc b -> acc + max 0 (Atomic.get b.b_head - st.st_capacity))
      0 (buffers st)

(* ------------------------------------------------------------------ *)
(* Chrome trace export: one track (tid) per domain, wall-clock
   microseconds relative to [enable]. Begin/End pairs collapse to "X"
   complete events (matched per domain with a stack, so nested spans of
   different kinds work); instants stay "i", samples become "C" counter
   tracks (suffixed with the domain so Perfetto draws one counter lane
   per domain). Begins whose end was lost to ring wrap-around are
   closed at the buffer's last timestamp. *)

let write_chrome_trace path =
  match Atomic.get state with
  | None -> invalid_arg "Obs.Events.write_chrome_trace: recorder not enabled"
  | Some st ->
    let t0 = st.st_t0 in
    let us t = (t -. t0) *. 1e6 in
    let events = ref [] in
    let emit e = events := e :: !events in
    let bs = buffers st in
    emit
      (Json.Obj
         [
           ("name", Json.String "process_name");
           ("ph", Json.String "M");
           ("pid", Json.Int 0);
           ("tid", Json.Int 0);
           ("args", Json.Obj [ ("name", Json.String "bsp flight recorder") ]);
         ]);
    List.iter
      (fun b ->
        emit
          (Json.Obj
             [
               ("name", Json.String "thread_name");
               ("ph", Json.String "M");
               ("pid", Json.Int 0);
               ("tid", Json.Int b.b_index);
               ( "args",
                 Json.Obj
                   [ ("name", Json.String (Printf.sprintf "d%d" b.b_index)) ] );
             ]))
      bs;
    List.iter
      (fun b ->
        let evs = buffer_events st b in
        let last_ts =
          List.fold_left (fun acc (e : event) -> Float.max acc e.ev_ts) t0 evs
        in
        let x ~name ~ts ~dur ~arg =
          emit
            (Json.Obj
               [
                 ("name", Json.String name);
                 ("cat", Json.String "flight");
                 ("ph", Json.String "X");
                 ("ts", Json.Float (us ts));
                 ("dur", Json.Float (Float.max 0.0 ((dur) *. 1e6)));
                 ("pid", Json.Int 0);
                 ("tid", Json.Int b.b_index);
                 ("args", Json.Obj [ ("arg", Json.Int arg) ]);
               ])
        in
        let stack = ref [] in
        List.iter
          (fun (e : event) ->
            match e.ev_phase with
            | Begin -> stack := e :: !stack
            | End ->
              (* Pop to the innermost open begin of this kind;
                 mismatched intermediates (their end was dropped) close
                 here too, at the same timestamp. *)
              let rec unwind = function
                | [] -> []
                | (b0 : event) :: rest ->
                  if b0.ev_kind = e.ev_kind then begin
                    x ~name:(kind_name b0.ev_kind) ~ts:b0.ev_ts
                      ~dur:(e.ev_ts -. b0.ev_ts) ~arg:b0.ev_arg;
                    rest
                  end
                  else begin
                    x ~name:(kind_name b0.ev_kind) ~ts:b0.ev_ts
                      ~dur:(e.ev_ts -. b0.ev_ts) ~arg:b0.ev_arg;
                    unwind rest
                  end
              in
              stack := unwind !stack
            | Instant ->
              emit
                (Json.Obj
                   [
                     ("name", Json.String (kind_name e.ev_kind));
                     ("cat", Json.String "flight");
                     ("ph", Json.String "i");
                     ("s", Json.String "t");
                     ("ts", Json.Float (us e.ev_ts));
                     ("pid", Json.Int 0);
                     ("tid", Json.Int b.b_index);
                     ("args", Json.Obj [ ("arg", Json.Int e.ev_arg) ]);
                   ])
            | Sample ->
              emit
                (Json.Obj
                   [
                     ( "name",
                       Json.String
                         (Printf.sprintf "%s (d%d)" (kind_name e.ev_kind) b.b_index)
                     );
                     ("cat", Json.String "flight");
                     ("ph", Json.String "C");
                     ("ts", Json.Float (us e.ev_ts));
                     ("pid", Json.Int 0);
                     ("tid", Json.Int b.b_index);
                     ("args", Json.Obj [ ("value", Json.Int e.ev_arg) ]);
                   ]))
          evs;
        (* Spans still open when the recorder was drained (e.g. a crash
           dump mid-task) close at the buffer's last timestamp. *)
        List.iter
          (fun (b0 : event) ->
            x ~name:(kind_name b0.ev_kind) ~ts:b0.ev_ts
              ~dur:(last_ts -. b0.ev_ts) ~arg:b0.ev_arg)
          !stack)
      bs;
    let json =
      Json.Obj
        [
          ("traceEvents", Json.List (List.rev !events));
          ("displayTimeUnit", Json.String "ms");
        ]
    in
    Atomic_file.write_string path (Json.to_string json ^ "\n")

(* ------------------------------------------------------------------ *)
(* Crash dump: whatever the rings hold is flushed on process exit —
   normal termination and uncaught exceptions both run at_exit — so a
   wedged or crashing run still leaves a loadable trace behind. *)

let dump_path : string option Atomic.t = Atomic.make None
let exit_hook_registered = ref false

let set_dump_on_exit path =
  Mutex.lock control_m;
  Atomic.set dump_path (Some path);
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit (fun () ->
        match (Atomic.get dump_path, Atomic.get state) with
        | Some path, Some _ -> ( try write_chrome_trace path with _ -> ())
        | _ -> ())
  end;
  Mutex.unlock control_m

let clear_dump_on_exit () = Atomic.set dump_path None
