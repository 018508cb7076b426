let key_of_hash ~dag_hash ~machine ~algorithm ~seed ~replicate =
  let h = Fnv.init in
  (* A format tag so the key space can be versioned if the canonical
     serialisation ever changes. *)
  let h = Fnv.string h "bsp-schedule-cache-v1" in
  let h = Fnv.string h (Fnv.to_hex dag_hash) in
  let h = Fnv.int h machine.Machine.p in
  let h = Fnv.int h machine.Machine.g in
  let h = Fnv.int h machine.Machine.l in
  let h = Array.fold_left Fnv.int_array h machine.Machine.lambda in
  let h = Fnv.string h algorithm in
  let h = Fnv.int h seed in
  let h = Fnv.int h (Bool.to_int replicate) in
  Fnv.to_hex h

let key ~dag = key_of_hash ~dag_hash:(Dag.structural_hash dag)

let meta_path ~dir key = Filename.concat dir (key ^ ".meta.json")
let schedule_path ~dir key = Filename.concat dir (key ^ ".schedule")

type entry = { cost : int; seconds_budget : float; schedule : Schedule.t }

type file_ident = { ino : int; size : int; mtime : float }
type ident = { meta : file_ident; sched : file_ident }

let ident ~dir key =
  let stat path =
    let st = Unix.stat path in
    { ino = st.Unix.st_ino; size = st.Unix.st_size; mtime = st.Unix.st_mtime }
  in
  match { meta = stat (meta_path ~dir key); sched = stat (schedule_path ~dir key) } with
  | id -> Some id
  | exception Unix.Unix_error _ -> None

let lookup ~dir ~dag key =
  let mp = meta_path ~dir key in
  if not (Sys.file_exists mp) then None
  else
    (* Any defect — unreadable meta, stale node count, corrupt or
       missing schedule — degrades to a miss: the entry is recomputed
       and atomically overwritten, so the cache self-heals. *)
    match
      let text = In_channel.with_open_bin mp In_channel.input_all in
      let j = Obs.Json.of_string text in
      let get name conv =
        match Option.bind (Obs.Json.member name j) conv with
        | Some v -> v
        | None -> failwith ("Cache: meta field missing or mistyped: " ^ name)
      in
      let cost = get "cost" Obs.Json.to_int_opt in
      let seconds_budget = get "seconds_budget" Obs.Json.to_float_opt in
      let n = get "n" Obs.Json.to_int_opt in
      if n <> Dag.n dag then failwith "Cache: node count mismatch";
      let schedule = Schedule_io.read_file dag (schedule_path ~dir key) in
      { cost; seconds_budget; schedule }
    with
    | entry -> Some entry
    | exception (Failure _ | Sys_error _ | Obs.Json.Parse_error _ | End_of_file) ->
      None

let store_text ~dir ~key ~algorithm ~cost ~seconds_budget ~text schedule =
  (* The directory may have been deleted under a running daemon:
     evicting everything is as legal as evicting one entry. *)
  if not (Sys.file_exists dir) then (
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* Schedule first, meta second: the meta file is the commit point a
     lookup starts from, so a crash between the two writes leaves no
     visible half-entry (and each write is itself atomic). *)
  Atomic_file.write_string (schedule_path ~dir key) text;
  let meta =
    Obs.Json.Obj
      [
        ("key", Obs.Json.String key);
        ("algorithm", Obs.Json.String algorithm);
        ("n", Obs.Json.Int (Dag.n schedule.Schedule.dag));
        ("supersteps", Obs.Json.Int (Schedule.num_supersteps schedule));
        ("cost", Obs.Json.Int cost);
        ("seconds_budget", Obs.Json.Float seconds_budget);
      ]
  in
  Atomic_file.write_string (meta_path ~dir key) (Obs.Json.to_string meta ^ "\n")

let store ~dir ~key ~algorithm ~cost ~seconds_budget schedule =
  store_text ~dir ~key ~algorithm ~cost ~seconds_budget
    ~text:(Schedule_io.to_string schedule) schedule
