type t = {
  id : string;
  algorithm : string;
  seconds : float;
  seed : int;
  replicate : bool;
  machine : Machine.t;
  dag : Dag.t;
}

let fail fmt = Printf.ksprintf failwith fmt

let max_p = Machine.max_p

let parse ?(base_dir = ".") ?memo ?stop ~id text =
  let resolve p = if Filename.is_relative p then Filename.concat base_dir p else p in
  let sc = Text_codec.scanner ?stop text in
  let id = ref id in
  let algorithm = ref "pipeline" in
  let seconds = ref 10.0 in
  let seed = ref 1 in
  let replicate = ref false in
  let p = ref None and g = ref None and l = ref None and delta = ref None in
  let machine_path = ref None in
  let dag_path = ref None in
  let inline_dag = ref None in
  let int_of what s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail "Request: %s: not an integer: %s" what s
  in
  (* Header lines up to the [hyperdag] marker; everything after the
     marker line is the inline hyperDAG body, which the text parser
     reads in place from that offset. *)
  let rec go () =
    if Text_codec.next_line sc then
      match Text_codec.line_words sc with
      | [ "hyperdag" ] -> inline_dag := Some (Text_codec.position sc)
      | words ->
        (match words with
         | [ "id"; v ] -> id := v
         | [ "algorithm"; v ] -> algorithm := v
         | [ "seconds"; v ] ->
           (match float_of_string_opt v with
            | Some s when s > 0.0 -> seconds := s
            | _ -> fail "Request: seconds must be a positive number, got %s" v)
         | [ "seed"; v ] -> seed := int_of "seed" v
         | [ "replicate" ] -> replicate := true
         | [ "replicate"; "true" ] -> replicate := true
         | [ "replicate"; "false" ] -> replicate := false
         | [ "p"; v ] -> p := Some (int_of "p" v)
         | [ "g"; v ] -> g := Some (int_of "g" v)
         | [ "l"; v ] -> l := Some (int_of "l" v)
         | [ "numa-delta"; v ] -> delta := Some (int_of "numa-delta" v)
         | [ "machine"; path ] -> machine_path := Some path
         | [ "dag"; path ] -> dag_path := Some path
         | _ -> fail "Request: unrecognised line: %s" (Text_codec.line sc));
        go ()
  in
  go ();
  let machine =
    match !machine_path with
    | Some path ->
      if !p <> None || !g <> None || !l <> None || !delta <> None then
        fail "Request: give either a machine file or p/g/l/numa-delta lines, not both";
      Machine_io.read_file (resolve path)
    | None ->
      let p = Option.value ~default:4 !p in
      let g = Option.value ~default:1 !g in
      let l = Option.value ~default:5 !l in
      (try
         match !delta with
         | None -> Machine.uniform ~p ~g ~l
         | Some delta -> Machine.numa_tree ~p ~g ~l ~delta
       with Invalid_argument m -> fail "Request: %s" m)
  in
  let dag =
    match (!dag_path, !inline_dag) with
    | Some _, Some _ -> fail "Request: give either a dag file or an inline hyperdag section, not both"
    | None, None -> fail "Request: missing dag (either a 'dag <path>' line or a 'hyperdag' section)"
    | Some path, None -> Hyperdag_io.read_file_auto (resolve path)
    | None, Some pos -> (
      let parse () = Hyperdag_io.of_string ~pos ?stop text in
      match memo with Some m -> Memo.parse_body m text ~pos ?stop parse | None -> parse ())
  in
  {
    id = !id;
    algorithm = !algorithm;
    seconds = !seconds;
    seed = !seed;
    replicate = !replicate;
    machine;
    dag;
  }

type stats_request = { stats_id : string }
type parsed = Schedule of t | Stats of stats_request

(* A stats probe is a header-only document whose first directive is the
   bare word [stats]; an optional [id] line (and comments/blanks) may
   precede it. Anything else is a scheduling request and goes through
   the full parser — so a malformed scheduling request still fails with
   the scheduling parser's message, not a confusing stats one. *)
let parse_any ?base_dir ?memo ?stop ~id text =
  let sc = Text_codec.scanner ?stop text in
  let rec scan id =
    if not (Text_codec.next_line sc) then None
    else
      match Text_codec.line_words sc with
      | [ "id"; v ] -> scan v
      | [ "stats" ] -> Some id
      | _ -> None
  in
  match scan id with
  | Some stats_id -> Stats { stats_id }
  | None -> Schedule (parse ?base_dir ?memo ?stop ~id text)
