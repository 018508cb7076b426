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

let write_file path g = Atomic_file.write path (fun oc -> output_string oc (to_string g))

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

(* ------------------------------------------------------------------ *)
(* Binary format (DESIGN.md Section 5h): compact (LEB128 varints,
   gap-coded adjacency) and decoded in place, like the text. Layout,
   after the 6-byte magic "BHDG1\n":

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

let to_binary_string g =
  let n = Dag.n g in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf binary_magic;
  add_varint buf n;
  add_varint buf (Dag.num_edges g);
  for v = 0 to n - 1 do
    add_varint buf (Dag.work g v)
  done;
  for v = 0 to n - 1 do
    add_varint buf (Dag.comm g v)
  done;
  let off = Dag.succ_offsets g and tgt = Dag.succ_targets g in
  for v = 0 to n - 1 do
    add_varint buf (off.(v + 1) - off.(v));
    let prev = ref (-1) in
    for i = off.(v) to off.(v + 1) - 1 do
      let t = tgt.(i) in
      if !prev < 0 then add_varint buf t else add_varint buf (t - !prev - 1);
      prev := t
    done
  done;
  Buffer.contents buf

let write_binary_file path g =
  Atomic_file.write path (fun oc -> output_string oc (to_binary_string g))

(* The varint at byte [i]; [cur] is left after it. A value has at most
   63 bits, so it is never negative: the ninth byte may carry six. *)
let rec varint_at s cur what i shift acc =
  if i >= String.length s then fail "Hyperdag_io (binary): truncated input while reading %s" what;
  let b = Char.code (String.unsafe_get s i) in
  if shift = 56 && b >= 0x40 then fail "Hyperdag_io (binary): %s: varint overflow" what;
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b land 0x80 = 0 then begin
    cur := i + 1;
    acc
  end
  else varint_at s cur what (i + 1) (shift + 7) acc

(* Every varint takes at least one byte, and the weights, out-degrees
   and successors need 3n + m of them: counts the bytes left cannot
   hold are refused before any array is sized by them, so every array
   is allocated at its exact size and in proportion to the input. *)
let of_binary_string s =
  if not (String.starts_with ~prefix:binary_magic s) then
    if String.starts_with ~prefix:s binary_magic then
      failwith "Hyperdag_io (binary): truncated magic"
    else failwith "Hyperdag_io (binary): bad magic (not a binary hyperDAG)";
  let cur = ref (String.length binary_magic) in
  let varint what = varint_at s cur what !cur 0 0 in
  let n = varint "node count" in
  let m = varint "edge count" in
  let left = String.length s - !cur in
  if n > left / 3 || m > left - (3 * n) then
    fail "Hyperdag_io (binary): %d nodes and %d edges declared over %d bytes" n m left;
  let work = Array.make n 0 in
  for v = 0 to n - 1 do
    work.(v) <- varint "work weight"
  done;
  let comm = Array.make n 0 in
  for v = 0 to n - 1 do
    comm.(v) <- varint "comm weight"
  done;
  let src = Array.make m 0 and dst = Array.make m 0 in
  let e = ref 0 in
  for v = 0 to n - 1 do
    let d = varint "out-degree" in
    if d > m - !e then
      fail "Hyperdag_io (binary): adjacency lists exceed the declared %d edges" m;
    (* the smallest id the next successor may take *)
    let base = ref 0 in
    for _ = 1 to d do
      let gap = varint "successor" in
      if gap >= n - !base then fail "Hyperdag_io (binary): successor of %d out of range" v;
      src.(!e) <- v;
      dst.(!e) <- !base + gap;
      incr e;
      base := !base + gap + 1
    done
  done;
  if !e <> m then
    fail "Hyperdag_io (binary): %d successors listed but header declares %d edges" !e m;
  if !cur <> String.length s then fail "Hyperdag_io (binary): trailing bytes after the DAG";
  try Dag.of_edge_arrays ~n ~src ~dst ~m ~work ~comm
  with Invalid_argument msg -> failwith ("Hyperdag_io (binary): " ^ msg)

(* One read of the whole file; the magic decides the parser, and both
   parse the string in place. A text file starts with '%' or a digit,
   never with the magic. *)
let read_file_auto path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  if String.starts_with ~prefix:binary_magic text then of_binary_string text
  else of_string text
