(* The v2 marker is a comment line, so v1 readers that strip comments
   would still parse the assignment and events of a v2 file; only the
   replica lines are new. We nevertheless keep emitting the v1 format
   for replica-free schedules so byte-identical outputs are preserved
   for every pre-replication workflow. *)
let v2_marker = "% bsp schedule v2"

(* Every byte written is a digit, '-', ' ', a header character other
   than '"' and '\\', or [eol] at a line's end, so with [eol] = "\\n"
   the text is a JSON string body as it is written. *)
let to_buffer buf ~eol (t : Schedule.t) =
  let n = Dag.n t.Schedule.dag in
  let num_events = List.length t.Schedule.comm in
  let num_reps = Schedule.num_replicas t in
  if num_reps = 0 then begin
    Buffer.add_string buf "% bsp schedule: node/proc/superstep, then comm events";
    Buffer.add_string buf eol;
    Text_codec.add_ints2 buf ~eol n num_events
  end
  else begin
    Buffer.add_string buf v2_marker;
    Buffer.add_string buf ": node/proc/superstep, comm events, replicas";
    Buffer.add_string buf eol;
    Text_codec.add_ints3 buf ~eol n num_events num_reps
  end;
  for v = 0 to n - 1 do
    Text_codec.add_ints3 buf ~eol v t.Schedule.proc.(v) t.Schedule.step.(v)
  done;
  List.iter
    (fun (e : Schedule.comm_event) ->
      Text_codec.add_int buf e.node;
      Buffer.add_char buf ' ';
      Text_codec.add_ints3 buf ~eol e.src e.dst e.step)
    t.Schedule.comm;
  if num_reps > 0 then
    for v = 0 to n - 1 do
      Schedule.iter_replicas t v (fun q s -> Text_codec.add_ints3 buf ~eol v q s)
    done

let to_string (t : Schedule.t) =
  (* about 10 bytes per line *)
  let lines = Dag.n t.Schedule.dag + List.length t.Schedule.comm + Schedule.num_replicas t in
  let buf = Buffer.create (128 + (10 * lines)) in
  to_buffer buf ~eol:"\n" t;
  Buffer.contents buf

(* A first pass counts the significant lines and looks for the version
   marker, which is itself a comment and may sit anywhere; the second
   parses the lines in place. *)
let of_string dag text =
  let sc = Text_codec.scanner text in
  let what = "Schedule_io" in
  let significant, v2 = Text_codec.count_lines ~marker:v2_marker sc in
  let ints = Array.make 4 0 in
  let n, num_events, num_reps =
    match (Text_codec.next_ints sc ~what ints, v2) with
    | -1, _ -> failwith "Schedule_io: empty input"
    | 2, false -> (ints.(0), ints.(1), 0)
    | 3, true -> (ints.(0), ints.(1), ints.(2))
    | _, false -> failwith "Schedule_io: header must be <nodes> <events>"
    | _, true -> failwith "Schedule_io: v2 header must be <nodes> <events> <replicas>"
  in
  if n <> Dag.n dag then failwith "Schedule_io: node count does not match the DAG";
  if num_events < 0 || num_reps < 0 then failwith "Schedule_io: negative count in header";
  let got = significant - 1 in
  if num_events > got - n || num_reps > got - n - num_events then
    failwith "Schedule_io: truncated file";
  let expected = n + num_events + num_reps in
  if got > expected then
    failwith
      (Printf.sprintf
         "Schedule_io: %d trailing non-comment line(s) after the declared %d \
          assignment + %d event%s line(s)"
         (got - expected) n num_events
         (if num_reps > 0 then Printf.sprintf " + %d replica" num_reps else ""));
  let proc = Array.make n 0 and step = Array.make n 0 in
  for _ = 1 to n do
    match Text_codec.next_ints sc ~what ints with
    | 3 when ints.(0) >= 0 && ints.(0) < n ->
      proc.(ints.(0)) <- ints.(1);
      step.(ints.(0)) <- ints.(2)
    | _ -> failwith "Schedule_io: bad assignment line"
  done;
  let events = ref [] in
  for _ = 1 to num_events do
    match Text_codec.next_ints sc ~what ints with
    | 4 ->
      events :=
        { Schedule.node = ints.(0); src = ints.(1); dst = ints.(2); step = ints.(3) }
        :: !events
    | _ -> failwith "Schedule_io: bad comm event line"
  done;
  let comm = List.rev !events in
  let replicas = ref [] in
  for _ = 1 to num_reps do
    match Text_codec.next_ints sc ~what ints with
    | 3 when ints.(0) >= 0 && ints.(0) < n ->
      replicas := (ints.(0), ints.(1), ints.(2)) :: !replicas
    | _ -> failwith "Schedule_io: bad replica line"
  done;
  (* [proc] and [step] are this call's own: hand them over uncopied *)
  try Schedule.make_owned dag ~proc ~step ~comm ~replicas:(List.rev !replicas)
  with Invalid_argument msg -> failwith ("Schedule_io: " ^ msg)

let write oc t = output_string oc (to_string t)
let write_file path t = Atomic_file.write path (fun oc -> write oc t)

(* One bulk read instead of the historical one-channel-read-per-byte
   loop: [Buffer.add_channel buf ic 1] paid a full channel dispatch for
   every byte, which is pathological for large schedules and for the
   serve daemon's cache-hit path. *)
let read dag ic = of_string dag (In_channel.input_all ic)
let read_file dag path = In_channel.with_open_bin path (read dag)
