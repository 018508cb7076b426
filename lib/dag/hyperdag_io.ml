let to_buffer buf g =
  let n = Dag.n g in
  Buffer.add_string buf "% hyperDAG: one hyperedge per non-sink node; first pin is the source\n";
  let hyperedges = n - List.length (Dag.sinks g) in
  Printf.bprintf buf "%d %d %d\n" hyperedges n (hyperedges + Dag.num_edges g);
  let e = ref 0 in
  for u = 0 to n - 1 do
    if Dag.out_degree g u > 0 then begin
      Printf.bprintf buf "%d %d\n" !e u;
      Dag.iter_succ g u (fun v -> Printf.bprintf buf "%d %d\n" !e v);
      incr e
    end
  done;
  for v = 0 to n - 1 do
    Printf.bprintf buf "%d %d %d\n" v (Dag.work g v) (Dag.comm g v)
  done

let to_string g =
  let buf = Buffer.create 4096 in
  to_buffer buf g;
  Buffer.contents buf

let write oc g = output_string oc (to_string g)
let write_file path g = Atomic_file.write path (fun oc -> write oc g)

(* Parsing: split the whole input into significant lines first, then
   consume counts. *)
let of_string text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '%')
  in
  (* Tokenize on any whitespace: real HyperDAG_DB files mix spaces,
     tabs, and CRLF line endings. *)
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
    (* Every count is checked against the input before any allocation
       is sized by it: each pin and weight takes a line of its own, and
       every hyperedge has at least its source pin. *)
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

let read ic = of_string (In_channel.input_all ic)

let read_file path = In_channel.with_open_bin path read

(* ------------------------------------------------------------------ *)
(* Binary format (DESIGN.md Section 5h).

   The text path above slurps the whole file and allocates one string
   per line; the binary format below is both compact (LEB128 varints,
   gap-coded adjacency) and streamed — the reader decodes out of a
   fixed 64 KiB window and never materialises the file, the writer
   flushes its buffer at the same granularity. Layout, after the 6-byte
   magic "BHDG1\n":

     varint n, varint m
     n varints   work weights
     n varints   comm weights
     per node:   varint out-degree d, then d varints: the first
                 successor absolute, each following one encoded as the
                 gap (t_i - t_{i-1} - 1) — segments are sorted strictly
                 ascending in the canonical CSR form, so gaps are >= 0.

   Every declared count is enforced and trailing bytes are rejected, so
   truncated or garbage input fails loudly instead of yielding a
   plausible DAG. *)

let binary_magic = "BHDG1\n"

let fail fmt = Printf.ksprintf failwith fmt

(* Unsigned LEB128. Weights and ids are non-negative by Dag's
   construction invariants; guard anyway so a corrupt in-memory value
   cannot silently wrap. *)
let add_varint buf v =
  if v < 0 then fail "Hyperdag_io: cannot encode negative value %d" v;
  let v = ref v in
  let continue = ref true in
  while !continue do
    let b = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

(* One encoder serves both the streaming channel writer (flush drains
   the buffer once it passes the window size) and the in-memory string
   form (flush is a no-op). *)
let encode_binary buf ~flush g =
  let n = Dag.n g in
  Buffer.add_string buf binary_magic;
  add_varint buf n;
  add_varint buf (Dag.num_edges g);
  for v = 0 to n - 1 do
    add_varint buf (Dag.work g v);
    flush ()
  done;
  for v = 0 to n - 1 do
    add_varint buf (Dag.comm g v);
    flush ()
  done;
  let off = Dag.succ_offsets g and tgt = Dag.succ_targets g in
  for v = 0 to n - 1 do
    add_varint buf (off.(v + 1) - off.(v));
    let prev = ref (-1) in
    for i = off.(v) to off.(v + 1) - 1 do
      let t = tgt.(i) in
      if !prev < 0 then add_varint buf t else add_varint buf (t - !prev - 1);
      prev := t
    done;
    flush ()
  done

let write_binary oc g =
  let buf = Buffer.create 65536 in
  let flush () =
    if Buffer.length buf >= 65536 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf
    end
  in
  encode_binary buf ~flush g;
  Buffer.output_buffer oc buf

let to_binary_string g =
  let buf = Buffer.create 4096 in
  encode_binary buf ~flush:ignore g;
  Buffer.contents buf

let write_binary_file path g = Atomic_file.write path (fun oc -> write_binary oc g)

(* A pull-based byte source: channels refill a fixed window, strings
   are consumed in place. [next] returns the next byte or -1 at end of
   input. *)
type source = { next : unit -> int }

let source_of_channel ic =
  let cap = 65536 in
  let buf = Bytes.create cap in
  let pos = ref 0 and len = ref 0 in
  let next () =
    if !pos >= !len then begin
      len := input ic buf 0 cap;
      pos := 0
    end;
    if !len = 0 then -1
    else begin
      let b = Char.code (Bytes.get buf !pos) in
      incr pos;
      b
    end
  in
  { next }

let source_of_string s =
  let pos = ref 0 in
  let next () =
    if !pos >= String.length s then -1
    else begin
      let b = Char.code s.[!pos] in
      incr pos;
      b
    end
  in
  { next }

let read_varint src what =
  let rec go shift acc =
    if shift > 62 then fail "Hyperdag_io (binary): %s: varint overflow" what;
    match src.next () with
    | -1 -> fail "Hyperdag_io (binary): truncated input while reading %s" what
    | b ->
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* [count] untrusted varints. The array starts small and doubles as
   values arrive, so a huge declared count with little input behind it
   allocates in proportion to the bytes actually read (each varint takes
   at least one). *)
let read_varints src what count =
  let a = ref (Array.make (min count 4096) 0) in
  for i = 0 to count - 1 do
    if i = Array.length !a then begin
      let grown = Array.make (min count (2 * i)) 0 in
      Array.blit !a 0 grown 0 i;
      a := grown
    end;
    !a.(i) <- read_varint src what
  done;
  !a

let check_magic src =
  String.iter
    (fun c ->
      match src.next () with
      | b when b = Char.code c -> ()
      | -1 -> failwith "Hyperdag_io (binary): truncated magic"
      | _ -> failwith "Hyperdag_io (binary): bad magic (not a binary hyperDAG)")
    binary_magic

(* [magic_consumed] lets the format-sniffing reader hand over a source
   whose first 6 bytes were already read and matched. *)
let decode_binary ?(magic_consumed = false) src =
  if not magic_consumed then check_magic src;
  let n = read_varint src "node count" in
  let m = read_varint src "edge count" in
  if n < 0 then fail "Hyperdag_io (binary): negative node count";
  let work = read_varints src "work weight" n in
  let comm = read_varints src "comm weight" n in
  let edges = ref [] in
  let total = ref 0 in
  for v = 0 to n - 1 do
    let d = read_varint src "out-degree" in
    total := !total + d;
    if !total > m then
      fail "Hyperdag_io (binary): adjacency lists exceed the declared %d edges" m;
    let prev = ref (-1) in
    for _ = 1 to d do
      let enc = read_varint src "successor" in
      let t = if !prev < 0 then enc else !prev + 1 + enc in
      if t >= n then fail "Hyperdag_io (binary): successor %d out of range" t;
      edges := (v, t) :: !edges;
      prev := t
    done
  done;
  if !total <> m then
    fail "Hyperdag_io (binary): %d successors listed but header declares %d edges"
      !total m;
  if src.next () <> -1 then fail "Hyperdag_io (binary): trailing bytes after the DAG";
  try Dag.of_edges ~n ~edges:!edges ~work ~comm
  with Invalid_argument msg -> failwith ("Hyperdag_io (binary): " ^ msg)

let read_binary ic = decode_binary (source_of_channel ic)
let of_binary_string s = decode_binary (source_of_string s)
let read_binary_file path = In_channel.with_open_bin path read_binary

(* Format sniffing: a binary file starts with the magic, a text file
   starts with '%' or a digit. Reading through one shared source keeps
   this streaming for the binary case; the text fallback buffers the
   few magic bytes already consumed and slurps the rest (the text
   parser is line-oriented anyway). *)
let read_auto ic =
  let src = source_of_channel ic in
  let consumed = Buffer.create 8 in
  let matched = ref true in
  (try
     String.iter
       (fun c ->
         match src.next () with
         | -1 -> raise Exit
         | b ->
           Buffer.add_char consumed (Char.chr b);
           if b <> Char.code c then raise Exit)
       binary_magic
   with Exit -> matched := false);
  if !matched then decode_binary ~magic_consumed:true src
  else begin
    let rest = Buffer.create 4096 in
    Buffer.add_buffer rest consumed;
    let continue = ref true in
    while !continue do
      match src.next () with
      | -1 -> continue := false
      | b -> Buffer.add_char rest (Char.chr b)
    done;
    of_string (Buffer.contents rest)
  end

let read_file_auto path = In_channel.with_open_bin path read_auto
