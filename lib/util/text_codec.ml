(* One scanner for every line-oriented text format. The scanner keeps
   the trimmed bounds of the current line and the start of the next
   one; lines and tokens are located by index arithmetic on the input
   string, never copied out of it. *)

type scanner = {
  text : string;
  stop : int;  (* the text ends here; bytes from [stop] on are not read *)
  mutable pos : int;  (* start of the next unread line *)
  mutable first : int;  (* trimmed bounds [first, last) of the current line *)
  mutable last : int;
}

(* Token separators. A form feed is trimmed at the ends of a line but
   inside one it is part of a token. *)
let is_sep c = c = ' ' || c = '\t' || c = '\r'

(* The bytes [String.trim] strips (['\n'] never occurs inside a line). *)
let is_blank c = is_sep c || c = '\012'

let scanner ?(pos = 0) ?stop text =
  let stop = Option.value ~default:(String.length text) stop in
  if stop < 0 || stop > String.length text then invalid_arg "Text_codec.scanner: stop";
  if pos < 0 || pos > stop then invalid_arg "Text_codec.scanner: position";
  { text; stop; pos; first = pos; last = pos }

let rec skip_blank s i stop =
  if i < stop && is_blank (String.unsafe_get s i) then skip_blank s (i + 1) stop else i

let rec back_blank s a j =
  if j > a && is_blank (String.unsafe_get s (j - 1)) then back_blank s a (j - 1) else j

let rec line_end s i stop =
  if i < stop && String.unsafe_get s i <> '\n' then line_end s (i + 1) stop else i

(* Move to the next line, significant or not, and trim it. *)
let[@inline] raw_line t =
  let s = t.text in
  let len = t.stop in
  t.pos < len
  &&
  let eol = line_end s t.pos len in
  t.first <- skip_blank s t.pos eol;
  t.last <- back_blank s t.first eol;
  t.pos <- (if eol < len then eol + 1 else len);
  true

let[@inline] is_digit c = c >= '0' && c <= '9'
let[@inline] ends_token c = c = ' ' || c = '\n'
let[@inline] significant t = t.first < t.last && String.unsafe_get t.text t.first <> '%'
let rec next_line t = raw_line t && (significant t || next_line t)

(* One tight loop per line: skip the leading blanks, classify the line
   by its first byte, run to its '\n'. Only a comment line is trimmed at
   its end, so [marker] is matched against the trimmed line. *)
let count_lines ?(marker = "") t =
  let s = t.text in
  let len = t.stop in
  let k = String.length marker in
  let count = ref 0 and seen = ref false in
  let i = ref t.pos in
  while !i < len do
    i := skip_blank s !i len;
    let first = !i in
    while !i < len && String.unsafe_get s !i <> '\n' do
      incr i
    done;
    if first < !i then
      if String.unsafe_get s first <> '%' then incr count
      else if k > 0 && (not !seen) && back_blank s first !i - first >= k then
        seen := String.sub s first k = marker;
    incr i
  done;
  (!count, !seen)

let rec token_end s i stop =
  if i < stop && not (is_sep (String.unsafe_get s i)) then token_end s (i + 1) stop else i

(* The stdlib parses every token that is not at most 18 plain decimal
   digits after an optional '-' (a '+' sign, a base prefix, '_', an
   overlong or junk token), so the accepted syntax is exactly
   [int_of_string]'s; 18 digits cannot overflow. *)
let parse_slow ~what s a b =
  let tok = String.sub s a (b - a) in
  match int_of_string_opt tok with
  | Some v -> v
  | None -> failwith (what ^ ": not an integer: " ^ tok)

(* One pass per token: digits are accumulated while its end is sought. *)
let line_ints t ~what buf =
  let s = t.text and stop = t.last in
  let cap = Array.length buf in
  let k = ref 0 in
  let i = ref t.first in
  while !i < stop do
    if is_sep (String.unsafe_get s !i) then incr i
    else begin
      let a = !i in
      let d0 = if String.unsafe_get s a = '-' then a + 1 else a in
      i := d0;
      let acc = ref 0 and plain = ref true in
      while !i < stop && not (is_sep (String.unsafe_get s !i)) do
        let d = Char.code (String.unsafe_get s !i) - 48 in
        if d < 0 || d > 9 then plain := false else acc := (!acc * 10) + d;
        incr i
      done;
      let v =
        if !plain && !i > d0 && !i - d0 <= 18 then if d0 > a then - !acc else !acc
        else parse_slow ~what s a !i
      in
      if !k < cap then buf.(!k) <- v;
      incr k
    end
  done;
  !k

(* The fused reader. A line made only of digits, '-', ' ' and its '\n'
   is found and parsed in one left-to-right pass: each token's digits
   are accumulated while its end is sought. The first byte outside that
   set, a token that is not at most 18 digits after an optional '-', or
   a '-' inside a token sends the whole line back to its start and
   through [raw_line] and [line_ints], so every other line (tabs, CRs,
   form feeds, comments, signs, prefixes, junk) reads and fails exactly
   as there. *)
let rec next_ints t ~what buf =
  let s = t.text in
  let len = t.stop in
  let start = t.pos in
  if start >= len then -1
  else begin
    let cap = Array.length buf in
    let i = ref start and k = ref 0 and plain = ref true in
    let first = ref start and last = ref start in
    while !plain && !i < len && String.unsafe_get s !i <> '\n' do
      if String.unsafe_get s !i = ' ' then incr i
      else begin
        let a = !i in
        let d0 = if String.unsafe_get s a = '-' then a + 1 else a in
        let j = ref d0 and acc = ref 0 in
        while !j < len && is_digit (String.unsafe_get s !j) do
          acc := (!acc * 10) + (Char.code (String.unsafe_get s !j) - 48);
          incr j
        done;
        let b = !j in
        if b = d0 || b - d0 > 18 || (b < len && not (ends_token (String.unsafe_get s b)))
        then plain := false
        else begin
          if !k = 0 then first := a;
          if !k < cap then Array.unsafe_set buf !k (if d0 > a then - !acc else !acc);
          incr k;
          last := b;
          i := b
        end
      end
    done;
    if not !plain then begin
      ignore (raw_line t : bool);
      if significant t then line_ints t ~what buf else next_ints t ~what buf
    end
    else begin
      t.pos <- (if !i < len then !i + 1 else len);
      if !k = 0 then next_ints t ~what buf
      else begin
        t.first <- !first;
        t.last <- !last;
        !k
      end
    end
  end

let line_words t =
  let s = t.text in
  let rec go i acc =
    if i >= t.last then List.rev acc
    else if is_sep (String.unsafe_get s i) then go (i + 1) acc
    else
      let j = token_end s i t.last in
      go j (String.sub s i (j - i) :: acc)
  in
  go t.first []

let line t = String.sub t.text t.first (t.last - t.first)
let position t = t.pos

(* Digits of a non-positive value, most significant first; working on
   the negative side covers [min_int]. *)
let rec add_digits buf v =
  if v <= -10 then add_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (v mod 10)))

let add_int buf v =
  if v < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf v
  end
  else add_digits buf (-v)

(* Byte by byte: a line end is one or two bytes, too short to pay for
   a blit. *)
let add_eol buf eol =
  for i = 0 to String.length eol - 1 do
    Buffer.add_char buf (String.unsafe_get eol i)
  done

let add_ints2 buf ~eol a b =
  add_int buf a;
  Buffer.add_char buf ' ';
  add_int buf b;
  add_eol buf eol

let add_ints3 buf ~eol a b c =
  add_int buf a;
  Buffer.add_char buf ' ';
  add_ints2 buf ~eol b c
