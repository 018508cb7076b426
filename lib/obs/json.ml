type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* Runs of bytes that need no escape are blitted whole: a schedule
   sent inline is one long string with an escape only per line. *)
let add_escaped buf s =
  let flush start i = if i > start then Buffer.add_substring buf s start (i - start) in
  let rec go start i =
    if i = String.length s then flush start i
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        flush start i;
        (match c with
         | '"' -> Buffer.add_string buf "\\\""
         | '\\' -> Buffer.add_string buf "\\\\"
         | '\n' -> Buffer.add_string buf "\\n"
         | '\r' -> Buffer.add_string buf "\\r"
         | '\t' -> Buffer.add_string buf "\\t"
         | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  go 0 0

(* JSON has no literal for non-finite numbers; emit null rather than an
   invalid token so downstream parsers never choke on a stray nan.
   Finite floats are printed with the fewest digits (15, 16 or 17
   significant) that parse back to the identical value, so emit/parse is
   an exact round trip without always paying the 17-digit noise. *)
let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else begin
    let s = Printf.sprintf "%.15g" f in
    let s =
      if float_of_string s = f then s
      else begin
        let s = Printf.sprintf "%.16g" f in
        if float_of_string s = f then s else Printf.sprintf "%.17g" f
      end
    in
    Buffer.add_string buf s
  end

let to_buffer buf v =
  let rec go indent v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          go (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\": ";
          go (indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'
  in
  go 0 v

let to_string v =
  let buf = Buffer.create 1024 in
  to_buffer buf v;
  Buffer.contents buf

let to_buffer_compact buf v =
  let rec go v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | String s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf "\":";
          go item)
        fields;
      Buffer.add_char buf '}'
  in
  go v

let to_string_compact v =
  let buf = Buffer.create 1024 in
  to_buffer_compact buf v;
  Buffer.contents buf

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let k = String.length lit in
    if !pos + k <= n && String.sub s !pos k = lit then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents buf
      | '\\' ->
        incr pos;
        if !pos >= n then fail "truncated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char buf '"'; incr pos
         | '\\' -> Buffer.add_char buf '\\'; incr pos
         | '/' -> Buffer.add_char buf '/'; incr pos
         | 'b' -> Buffer.add_char buf '\b'; incr pos
         | 'f' -> Buffer.add_char buf '\012'; incr pos
         | 'n' -> Buffer.add_char buf '\n'; incr pos
         | 'r' -> Buffer.add_char buf '\r'; incr pos
         | 't' -> Buffer.add_char buf '\t'; incr pos
         | 'u' ->
           if !pos + 4 >= n then fail "truncated \\u escape";
           (match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
            | None -> fail "bad \\u escape"
            | Some code ->
              (* UTF-8 encode the BMP code point. *)
              if code < 0x80 then Buffer.add_char buf (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
              end;
              pos := !pos + 5)
         | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let numeric c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && numeric s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None ->
      (match float_of_string_opt tok with
       | Some f -> Float f
       | None -> fail ("bad number " ^ tok))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            members ((key, v) :: acc)
          | Some '}' ->
            incr pos;
            Obj (List.rev ((key, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            incr pos;
            items (v :: acc)
          | Some ']' ->
            incr pos;
            List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
