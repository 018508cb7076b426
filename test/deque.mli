(** A simple double-ended queue over a growable circular buffer.

    Used by the reference Cilk simulation (baselines_reference.ml):
    owners push and pop at the top of their own deque while thieves
    steal from the bottom. The library's Cilk keeps int stacks of its
    own. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val push_top : 'a t -> 'a -> unit

val pop_top : 'a t -> 'a option
(** LIFO end, used by the owning processor. *)

val pop_bottom : 'a t -> 'a option
(** FIFO end, used by stealing processors. *)

val peek_top : 'a t -> 'a option
val peek_bottom : 'a t -> 'a option
