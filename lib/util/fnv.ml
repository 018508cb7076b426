(* FNV-1a, 64-bit. Chosen over [Hashtbl.hash] / [Digest] because the
   server's content-addressed cache needs a hash that is (a) stable
   across processes and OCaml versions — cache directories outlive the
   binary that wrote them — and (b) defined over an explicit byte
   stream, so "canonical DAG" means exactly the bytes we feed in and
   nothing about in-memory representation. Not cryptographic; cache
   keys are trust-the-writer, collision odds at 64 bits are fine for a
   schedule cache. *)

type t = int64

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let init = offset_basis

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

(* Ints are folded as 8 little-endian bytes so negative values and
   values above 2^32 hash consistently on every platform. The state
   stays an unboxed local: [byte] and [int] are inlined into the loops,
   which keep [h] in a register, so a call allocates only its boxed
   result, whatever the length of the string or array. *)
let[@inline] int h v =
  let h = ref h and v = Int64.of_int v in
  for i = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !h

let int_array_prefix h a len =
  if len < 0 || len > Array.length a then invalid_arg "Fnv.int_array_prefix: bad length";
  let h = ref h in
  for i = 0 to len - 1 do
    h := int !h (Array.unsafe_get a i)
  done;
  !h

let int_array h a = int_array_prefix h a (Array.length a)

let to_hex h = Printf.sprintf "%016Lx" h
