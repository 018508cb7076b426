(** BSP machine descriptions, optionally with NUMA effects.

    A machine is described by the classical BSP parameters (Section 3.2):

    - [p]: number of processors,
    - [g]: time cost of sending one unit of data,
    - [l]: fixed latency overhead charged for every superstep,

    extended (Section 3.4) with a NUMA coefficient matrix [lambda] where
    [lambda.(p1).(p2)] scales the cost of moving one unit of data from
    processor [p1] to processor [p2]. The uniform-BSP special case is
    [lambda p1 p2 = 1] for [p1 <> p2] and [0] on the diagonal. *)

type t = private {
  p : int;  (** number of processors, >= 1 *)
  g : int;  (** per-unit communication cost multiplier *)
  l : int;  (** latency charged per superstep *)
  lambda : int array array;  (** [p x p] NUMA coefficients; zero diagonal *)
}

val max_p : int
(** The largest processor count, 1024: a machine holds a [p x p]
    coefficient matrix (8 MB here). Every constructor rejects a larger
    [p] with [Invalid_argument] before it builds or copies a matrix, so
    request lines, machine files and the CLI's [-p] share this one
    limit. *)

val uniform : p:int -> g:int -> l:int -> t
(** Classical BSP machine: all off-diagonal NUMA coefficients are 1. *)

val numa_tree : p:int -> g:int -> l:int -> delta:int -> t
(** [numa_tree ~p ~g ~l ~delta] builds the paper's hierarchical NUMA
    setting (Section 6): processors are the leaves of a complete binary
    tree and the unit communication cost between [p1] and [p2] is
    [delta ^ (levels - 1)] where [levels] is the height of their lowest
    common ancestor: siblings cost 1, the next level costs [delta], then
    [delta^2], etc. [p] must be a power of two and at least 2. For
    example with [p = 8] and [delta = 3], costs from processor 0 are 1 to
    processor 1, 3 to processors 2-3, and 9 to processors 4-7. Raises
    [Invalid_argument] when a coefficient [delta ^ (levels - 1)] exceeds
    [max_int]. *)

val explicit : g:int -> l:int -> lambda:int array array -> t
(** A machine with an explicitly given coefficient matrix. The matrix
    must be square with non-negative entries and a zero diagonal; it is
    copied. *)

val lambda : t -> int -> int -> int
(** [lambda m p1 p2] is the NUMA coefficient for one data unit sent from
    [p1] to [p2]. *)

val average_lambda : t -> float
(** Mean off-diagonal coefficient; the paper's baselines (BL-EST, ETF)
    price communication with this average under NUMA (Appendix A.1).
    [1.0] for uniform machines; [0.0] when [p = 1]. *)

val is_uniform : t -> bool
(** True iff every off-diagonal coefficient equals 1. *)

val max_lambda : t -> int
(** Largest coefficient in the matrix. *)

val pp : Format.formatter -> t -> unit
