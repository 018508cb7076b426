type kind =
  | Unlimited
  | Steps of { mutable remaining : int }
  | Deadline of float
  | Pair of t * t

and t = { kind : kind; mutable used : int; mutable dead : bool }

let make kind = { kind; used = 0; dead = false }

(* A fresh value per call: a shared unlimited budget would accumulate
   [used] across every consumer that defaults to it, corrupting the
   per-stage accounting the observability layer reports. *)
let unlimited () = make Unlimited

let steps n = make (Steps { remaining = n })

let seconds s = make (Deadline (Time_source.now () +. s))

let combine a b = make (Pair (a, b))

let rec exhausted t =
  if t.dead then true
  else
    let d =
      match t.kind with
      | Unlimited -> false
      | Steps { remaining } -> remaining <= 0
      (* The default source is gettimeofday, a vDSO call (~tens of
         ns): probing on every check is cheap and lets deadlines
         interrupt consumers whose per-tick work is expensive (one
         branch-and-bound node can cost an entire LP solve). *)
      | Deadline deadline -> Time_source.now () >= deadline
      | Pair (a, b) -> exhausted a || exhausted b
    in
    if d then t.dead <- true;
    d

(* Units the step components still admit; [max_int] when only time or
   nothing limits the budget. Callers only consume after a fresh
   [exhausted] probe, so a step component always has [remaining > 0]
   here. *)
let rec capacity t =
  if t.dead then 0
  else
    match t.kind with
    | Unlimited | Deadline _ -> max_int
    | Steps { remaining } -> max 0 remaining
    | Pair (a, b) -> min (capacity a) (capacity b)

(* Consume [c] units through every component, counting them at every
   level so [used_steps] of both a pair and its children reflect what
   actually flowed through. *)
let rec consume t c =
  t.used <- t.used + c;
  match t.kind with
  | Unlimited | Deadline _ -> ()
  | Steps s -> s.remaining <- s.remaining - c
  | Pair (a, b) ->
    consume a c;
    consume b c

let tick t =
  if exhausted t then false
  else begin
    consume t 1;
    true
  end

let charge t k = if k > 0 then consume t (min k (capacity t))

let used_steps t = t.used
