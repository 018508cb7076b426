(* The process-wide wall-clock source. A single atomic holding the
   current [unit -> float] function: reads on hot paths (budget
   deadline probes, span timing, flight-recorder events) cost one
   atomic load plus the call, and tests swap in a deterministic fake
   clock so latency assertions stop depending on the host's scheduler.

   This lives in bsp_util (not lib/obs) because [Budget] needs it and
   the obs layer sits above bsp_util. *)

let real : unit -> float = Unix.gettimeofday

let source : (unit -> float) Atomic.t = Atomic.make real

let now () = (Atomic.get source) ()

let[@inline] ns_of_seconds t = int_of_float (Float.round (t *. 1e9))

(* [Unix.gettimeofday]'s own C stub, declared unboxed: its result
   arrives in a float register whether or not the compiler inlines
   anything, so [now_ns] under the real source allocates nothing. Only
   a fake source pays for its closure's boxed result. *)
external gettimeofday_unboxed : unit -> (float[@unboxed])
  = "caml_unix_gettimeofday" "caml_unix_gettimeofday_unboxed"
[@@noalloc]

let now_ns () =
  let f = Atomic.get source in
  if f == real then ns_of_seconds (gettimeofday_unboxed ()) else ns_of_seconds (f ())

let set f = Atomic.set source f
let reset () = Atomic.set source real

let with_source f body =
  let prev = Atomic.get source in
  Atomic.set source f;
  Fun.protect ~finally:(fun () -> Atomic.set source prev) body
