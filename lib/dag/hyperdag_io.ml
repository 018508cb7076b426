(* One line per pin and per weight: the digit writer appends straight
   into the buffer, so no line is formatted through a string. *)
let to_buffer buf g =
  let n = Dag.n g in
  Buffer.add_string buf "% hyperDAG: one hyperedge per non-sink node; first pin is the source\n";
  let hyperedges = ref 0 in
  for u = 0 to n - 1 do
    if Dag.out_degree g u > 0 then incr hyperedges
  done;
  Text_codec.add_ints3 buf ~eol:"\n" !hyperedges n (!hyperedges + Dag.num_edges g);
  let e = ref 0 in
  for u = 0 to n - 1 do
    if Dag.out_degree g u > 0 then begin
      Text_codec.add_ints2 buf ~eol:"\n" !e u;
      Dag.iter_succ g u (fun v -> Text_codec.add_ints2 buf ~eol:"\n" !e v);
      incr e
    end
  done;
  for v = 0 to n - 1 do
    Text_codec.add_ints3 buf ~eol:"\n" v (Dag.work g v) (Dag.comm g v)
  done

let to_string g =
  (* about 8 bytes per pin or weight line *)
  let buf = Buffer.create (64 + (8 * ((2 * Dag.n g) + Dag.num_edges g))) in
  to_buffer buf g;
  Buffer.contents buf

let write oc g = output_string oc (to_string g)
let write_file path g = Atomic_file.write path (fun oc -> write oc g)

(* Two passes over the text, both in place: the first counts the
   significant lines, so every declared count is checked against the
   input before any allocation is sized by it; the second parses. Each
   pin and weight takes a line of its own, and every hyperedge has at
   least its source pin. *)
let of_string ?pos ?stop text =
  let sc = Text_codec.scanner ?pos ?stop text in
  let what = "Hyperdag_io" in
  let ints = Array.make 3 0 in
  (match Text_codec.next_ints sc ~what ints with
   | -1 -> failwith "Hyperdag_io: empty input"
   | 3 -> ()
   | _ -> failwith "Hyperdag_io: header must be <hyperedges> <nodes> <pins>");
  let num_h = ints.(0) and num_n = ints.(1) and num_p = ints.(2) in
  if num_h < 0 || num_n < 0 || num_p < 0 then failwith "Hyperdag_io: negative count in header";
  if num_h > num_p then failwith "Hyperdag_io: more hyperedges than pins";
  let available, _ = Text_codec.count_lines sc in
  if num_p > available || num_n > available - num_p then
    failwith "Hyperdag_io: truncated file";
  let edge_source = Array.make num_h (-1) in
  (* at most one edge per pin *)
  let src = Array.make num_p 0 and dst = Array.make num_p 0 in
  let m = ref 0 in
  for _ = 1 to num_p do
    if Text_codec.next_ints sc ~what ints <> 2 then
      failwith "Hyperdag_io: pin line must be <hyperedge> <node>";
    let e = ints.(0) and v = ints.(1) in
    if e < 0 || e >= num_h then failwith "Hyperdag_io: hyperedge id out of range";
    if v < 0 || v >= num_n then failwith "Hyperdag_io: node id out of range";
    if edge_source.(e) < 0 then edge_source.(e) <- v
    else begin
      src.(!m) <- edge_source.(e);
      dst.(!m) <- v;
      incr m
    end
  done;
  let weight_lines = available - num_p in
  if weight_lines > num_n then
    failwith
      (Printf.sprintf "Hyperdag_io: %d lines after the %d declared weight lines"
         (weight_lines - num_n) num_n);
  let work = Array.make num_n 1 in
  let comm = Array.make num_n 1 in
  for _ = 1 to num_n do
    if Text_codec.next_ints sc ~what ints <> 3 then
      failwith "Hyperdag_io: weight line must be <node> <work> <comm>";
    let v = ints.(0) in
    if v < 0 || v >= num_n then failwith "Hyperdag_io: weight node id out of range";
    work.(v) <- ints.(1);
    comm.(v) <- ints.(2)
  done;
  try Dag.of_edge_arrays ~n:num_n ~src ~dst ~m:!m ~work ~comm
  with Invalid_argument msg -> failwith ("Hyperdag_io: " ^ msg)

let read ic = of_string (In_channel.input_all ic)

let read_file path = In_channel.with_open_bin path read

(* ------------------------------------------------------------------ *)
(* Binary format (DESIGN.md Section 5h).

   The text path above slurps the whole file and scans it in place; the
   binary format below is both compact (LEB128 varints,
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
   starts with '%' or a digit. At most the magic's six bytes are read
   before the decision, straight from the channel: the binary decoder
   then streams the rest, and the text parser gets the rest in one
   [In_channel.input_all]. *)
let read_auto ic =
  let k = String.length binary_magic in
  let head = Bytes.create k in
  let rec fill got =
    if got = k then got
    else match input ic head got (k - got) with 0 -> got | r -> fill (got + r)
  in
  let got = fill 0 in
  if got = k && Bytes.to_string head = binary_magic then
    decode_binary ~magic_consumed:true (source_of_channel ic)
  else of_string (Bytes.sub_string head 0 got ^ In_channel.input_all ic)

let read_file_auto path = In_channel.with_open_bin path read_auto
