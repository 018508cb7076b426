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

let set f = Atomic.set source f
let reset () = Atomic.set source real

let with_source f body =
  let prev = Atomic.get source in
  Atomic.set source f;
  Fun.protect ~finally:(fun () -> Atomic.set source prev) body
