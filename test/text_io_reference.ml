(* The split-based text parsers of the first implementation, kept
   verbatim as oracles for the differential properties in test_dag.ml,
   test_schedule.ml and test_server.ml: the in-place scanner of
   Text_codec must accept and reject the same inputs and return the
   same values. They split the whole input into line strings, trim and
   filter them, and cut every token out with String.sub, so they are
   only fit for the small inputs of the tests. *)

let hyperdag_of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '%')
  in
  let parse_ints line =
    let is_ws c = c = ' ' || c = '\t' || c = '\r' in
    let n = String.length line in
    let rec go i acc =
      if i >= n then List.rev acc
      else if is_ws line.[i] then go (i + 1) acc
      else begin
        let j = ref i in
        while !j < n && not (is_ws line.[!j]) do
          incr j
        done;
        let tok = String.sub line i (!j - i) in
        match int_of_string_opt tok with
        | Some v -> go !j (v :: acc)
        | None -> failwith ("Hyperdag_io: not an integer: " ^ tok)
      end
    in
    go 0 []
  in
  match lines with
  | [] -> failwith "Hyperdag_io: empty input"
  | header :: rest ->
    let num_h, num_n, num_p =
      match parse_ints header with
      | [ h; n; p ] -> (h, n, p)
      | _ -> failwith "Hyperdag_io: header must be <hyperedges> <nodes> <pins>"
    in
    if num_h < 0 || num_n < 0 || num_p < 0 then failwith "Hyperdag_io: negative count in header";
    if num_h > num_p then failwith "Hyperdag_io: more hyperedges than pins";
    let available = List.length rest in
    if num_p > available || num_n > available - num_p then
      failwith "Hyperdag_io: truncated file";
    let pins, weight_lines =
      let rec split i acc = function
        | rest when i = num_p -> (List.rev acc, rest)
        | [] -> failwith "Hyperdag_io: truncated pin section"
        | l :: tl -> split (i + 1) (l :: acc) tl
      in
      split 0 [] rest
    in
    let edge_source = Array.make num_h (-1) in
    let edges = ref [] in
    List.iter
      (fun line ->
        match parse_ints line with
        | [ e; v ] ->
          if e < 0 || e >= num_h then failwith "Hyperdag_io: hyperedge id out of range";
          if v < 0 || v >= num_n then failwith "Hyperdag_io: node id out of range";
          if edge_source.(e) < 0 then edge_source.(e) <- v
          else edges := (edge_source.(e), v) :: !edges
        | _ -> failwith "Hyperdag_io: pin line must be <hyperedge> <node>")
      pins;
    let work = Array.make num_n 1 in
    let comm = Array.make num_n 1 in
    (if List.length weight_lines > num_n then
       failwith
         (Printf.sprintf
            "Hyperdag_io: %d lines after the %d declared weight lines"
            (List.length weight_lines - num_n)
            num_n));
    List.iter
      (fun line ->
        match parse_ints line with
        | [ v; w; c ] ->
          if v < 0 || v >= num_n then failwith "Hyperdag_io: weight node id out of range";
          work.(v) <- w;
          comm.(v) <- c
        | _ -> failwith "Hyperdag_io: weight line must be <node> <work> <comm>")
      weight_lines;
    (try Dag.of_edges ~n:num_n ~edges:!edges ~work ~comm
     with Invalid_argument msg -> failwith ("Hyperdag_io: " ^ msg))

let v2_marker = "% bsp schedule v2"

(* Splits tokens on ' ' only: a tab or CR inside a line is part of a
   token here, where Text_codec separates on it. *)
let schedule_of_string dag text =
  let raw_lines = String.split_on_char '\n' text |> List.map String.trim in
  let v2 =
    List.exists
      (fun l ->
        String.length l >= String.length v2_marker
        && String.sub l 0 (String.length v2_marker) = v2_marker)
      raw_lines
  in
  let lines = List.filter (fun l -> l <> "" && l.[0] <> '%') raw_lines in
  let ints line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.map (fun s ->
           match int_of_string_opt s with
           | Some i -> i
           | None -> failwith ("Schedule_io: not an integer: " ^ s))
  in
  match lines with
  | [] -> failwith "Schedule_io: empty input"
  | header :: rest ->
    let n, num_events, num_reps =
      match (ints header, v2) with
      | [ n; e ], false -> (n, e, 0)
      | [ n; e; r ], true -> (n, e, r)
      | _, false -> failwith "Schedule_io: header must be <nodes> <events>"
      | _, true -> failwith "Schedule_io: v2 header must be <nodes> <events> <replicas>"
    in
    if n <> Dag.n dag then failwith "Schedule_io: node count does not match the DAG";
    let expected = n + num_events + num_reps in
    let got = List.length rest in
    if got < expected then failwith "Schedule_io: truncated file";
    if got > expected then
      failwith
        (Printf.sprintf
           "Schedule_io: %d trailing non-comment line(s) after the declared %d \
            assignment + %d event%s line(s)"
           (got - expected) n num_events
           (if num_reps > 0 then Printf.sprintf " + %d replica" num_reps else ""));
    let proc = Array.make n 0 and step = Array.make n 0 in
    List.iteri
      (fun i line ->
        if i < n then
          match ints line with
          | [ v; p; s ] when v >= 0 && v < n ->
            proc.(v) <- p;
            step.(v) <- s
          | _ -> failwith "Schedule_io: bad assignment line")
      rest;
    let events =
      List.filteri (fun i _ -> i >= n && i < n + num_events) rest
      |> List.map (fun line ->
             match ints line with
             | [ node; src; dst; phase ] -> { Schedule.node; src; dst; step = phase }
             | _ -> failwith "Schedule_io: bad comm event line")
    in
    if num_reps = 0 then Schedule.make dag ~proc ~step ~comm:events
    else begin
      let replicas =
        List.filteri (fun i _ -> i >= n + num_events) rest
        |> List.map (fun line ->
               match ints line with
               | [ v; q; s ] when v >= 0 && v < n -> (v, q, s)
               | _ -> failwith "Schedule_io: bad replica line")
      in
      Schedule.make_replicated dag ~proc ~step ~comm:events ~replicas
    end

(* The request parser splits the payload into lines twice (once to look
   for a stats probe, once to parse) and concatenates the body back
   together for a third split by the hyperDAG parser. Header words are
   split on ' ' only. *)
let fail fmt = Printf.ksprintf failwith fmt

let request_parse ?(base_dir = ".") ~id text =
  let resolve p = if Filename.is_relative p then Filename.concat base_dir p else p in
  let lines = String.split_on_char '\n' text in
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
  let rec go = function
    | [] -> ()
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '%' then go rest
      else begin
        let words =
          String.split_on_char ' ' trimmed |> List.filter (fun s -> s <> "")
        in
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
         | [ "hyperdag" ] ->
           inline_dag := Some (String.concat "\n" rest);
           raise Exit
         | _ -> fail "Request: unrecognised line: %s" trimmed);
        go rest
      end
  in
  (try go lines with Exit -> ());
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
    | None, Some text -> hyperdag_of_string text
  in
  {
    Server.Request.id = !id;
    algorithm = !algorithm;
    seconds = !seconds;
    seed = !seed;
    replicate = !replicate;
    machine;
    dag;
  }

let request_parse_any ?base_dir ~id text =
  let rec scan id = function
    | [] -> None
    | line :: rest ->
      let trimmed = String.trim line in
      if trimmed = "" || trimmed.[0] = '%' then scan id rest
      else (
        match
          String.split_on_char ' ' trimmed |> List.filter (fun s -> s <> "")
        with
        | [ "id"; v ] -> scan v rest
        | [ "stats" ] -> Some id
        | _ -> None)
  in
  match scan id (String.split_on_char '\n' text) with
  | Some stats_id -> Server.Request.Stats { Server.Request.stats_id }
  | None -> Server.Request.Schedule (request_parse ?base_dir ~id text)

(* ------------------------------------------------------------------ *)
(* Mutated text for the differential properties. *)

(* Junk tokens: non-integers, the int_of_string syntaxes the fast path
   hands to the stdlib (sign, base prefix, '_', overlong digit runs),
   negative and huge values (2^40, max_int, and 2^62 and 10^19 - 1, which
   overflow). *)
let junk =
  [|
    "x"; "-1"; "0"; "1"; "2"; "+3"; "0x1f"; "1_0"; "-"; "--1"; "1e3"; "\012";
    "1099511627776"; "4611686018427387903"; "4611686018427387904";
    "9999999999999999999"; "00000000000000000000007"; "%"; "hyperdag"; "id";
  |]

(* Splits on '\n', then per line may drop it, duplicate it, add a CR,
   turn spaces into tabs, add a comment or blank line before it,
   replace one of its tokens by junk, or append a junk token, each with
   probability [rate]. *)
let mutate ?(junk = junk) rng ~rate text =
  let buf = Buffer.create (String.length text + 64) in
  let pick a = a.(Rng.int rng (Array.length a)) in
  let hit () = Rng.bernoulli rng rate in
  List.iter
    (fun line ->
      if hit () then
        Buffer.add_string buf (pick [| "% noise\n"; "\n"; "  \t\r\n"; "\t% tab comment\r\n" |]);
      let line =
        if hit () then String.map (fun c -> if c = ' ' then '\t' else c) line else line
      in
      let line =
        if hit () && line <> "" then begin
          let words = Array.of_list (String.split_on_char ' ' line) in
          words.(Rng.int rng (Array.length words)) <- pick junk;
          String.concat " " (Array.to_list words)
        end
        else line
      in
      let line = if hit () then line ^ " " ^ pick junk else line in
      let copies = if hit () then Rng.int rng 3 else 1 in
      for _ = 1 to copies do
        Buffer.add_string buf line;
        Buffer.add_string buf (if hit () then "\r\n" else "\n")
      done)
    (String.split_on_char '\n' text);
  Buffer.contents buf

(* The outcome of a parse: its value, or the message of the [Failure]
   it raised; any other exception is returned as [Error] with its name
   so a property can tell the two apart. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception Failure msg -> Error ("Failure: " ^ msg)
  | exception e -> Error (Printexc.to_string e)

let is_failure = function Error m -> String.starts_with ~prefix:"Failure: " m | Ok _ -> false

(* The old schedule and request parsers split tokens on ' ' only, where
   Text_codec also separates on tabs and CRs inside a line: the oracle
   reads the text with those turned into spaces on every non-comment
   line. *)
let spaced text =
  String.split_on_char '\n' text
  |> List.map (fun l ->
         let t = String.trim l in
         if t <> "" && t.[0] = '%' then l
         else String.map (function '\t' | '\r' -> ' ' | c -> c) l)
  |> String.concat "\n"
