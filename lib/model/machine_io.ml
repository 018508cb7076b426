let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '%')
  in
  let p = ref None and g = ref None and l = ref None in
  let delta = ref None in
  let matrix_rows = ref [] in
  let in_matrix = ref false in
  let parse_int what s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> failwith (Printf.sprintf "Machine_io: %s: not an integer: %s" what s)
  in
  List.iter
    (fun line ->
      let words = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
      match words with
      | _ when !in_matrix ->
        matrix_rows := List.map (parse_int "lambda entry") words :: !matrix_rows
      | [ "p"; v ] -> p := Some (parse_int "p" v)
      | [ "g"; v ] -> g := Some (parse_int "g" v)
      | [ "l"; v ] -> l := Some (parse_int "l" v)
      | [ "numa-tree"; v ] -> delta := Some (parse_int "delta" v)
      | [ "lambda" ] -> in_matrix := true
      | _ -> failwith ("Machine_io: unrecognised line: " ^ line))
    lines;
  let g = Option.value ~default:1 !g in
  let l = Option.value ~default:0 !l in
  match (!delta, List.rev !matrix_rows) with
  | Some _, _ :: _ -> failwith "Machine_io: both numa-tree and lambda given"
  | Some delta, [] ->
    let p =
      match !p with Some p -> p | None -> failwith "Machine_io: numa-tree needs p"
    in
    (try Machine.numa_tree ~p ~g ~l ~delta
     with Invalid_argument m -> failwith ("Machine_io: " ^ m))
  | None, [] ->
    let p = match !p with Some p -> p | None -> failwith "Machine_io: missing p" in
    (try Machine.uniform ~p ~g ~l
     with Invalid_argument m -> failwith ("Machine_io: " ^ m))
  | None, rows ->
    let lambda = Array.of_list (List.map Array.of_list rows) in
    (match !p with
     | Some p when p <> Array.length lambda ->
       failwith "Machine_io: p does not match the lambda matrix size"
     | _ -> ());
    (try Machine.explicit ~g ~l ~lambda
     with Invalid_argument m -> failwith ("Machine_io: " ^ m))

let to_string (m : Machine.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "% machine description\n";
  Buffer.add_string buf (Printf.sprintf "p %d\n" m.Machine.p);
  Buffer.add_string buf (Printf.sprintf "g %d\n" m.Machine.g);
  Buffer.add_string buf (Printf.sprintf "l %d\n" m.Machine.l);
  Buffer.add_string buf "lambda\n";
  for i = 0 to m.Machine.p - 1 do
    for j = 0 to m.Machine.p - 1 do
      if j > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (Machine.lambda m i j))
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let read_file path = In_channel.with_open_bin path (fun ic -> of_string (In_channel.input_all ic))
