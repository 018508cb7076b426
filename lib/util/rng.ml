(* The state lives in 8 bytes read and written with the unboxed 64-bit
   primitives, so a draw's int64 arithmetic stays in registers; a
   mutable [int64] field would box a fresh state on every draw. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create seed = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next_int64 t =
  let state = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 state;
  mix64 state

let split t = of_state (mix64 (next_int64 t))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the 62 low bits avoids modulo bias. *)
  let mask = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  mask mod bound

let float t bound =
  (* 53 random bits scaled to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))
