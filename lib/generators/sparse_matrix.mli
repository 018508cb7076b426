(** Random sparse matrix patterns.

    The fine-grained DAG generators (Appendix B.2) build the
    computational DAG of algebraic algorithms over a square sparse matrix
    [A] defined by its size [n] and a density [q]: each entry is nonzero
    independently with probability [q]. Only the nonzero {e pattern}
    matters for DAG extraction, so values are not stored. *)

type t

val random : Rng.t -> n:int -> q:float -> t
(** Bernoulli([q]) pattern. Every row is guaranteed at least one nonzero
    entry (a uniformly random column is added to empty rows) so that
    iterated products never die out, matching how the paper's generator
    keeps iterative DAGs connected. *)

val random_symmetric : Rng.t -> n:int -> q:float -> t
(** Like {!random} but the pattern is symmetrised ([a_ij] nonzero iff
    [a_ji] nonzero) and the diagonal is full, the natural pattern for the
    conjugate gradient generator (CG expects a symmetric positive
    definite system). *)

val of_rows : n:int -> int list array -> t
(** Explicit pattern: [rows.(i)] lists the nonzero column indices of row
    [i]. Out-of-range or duplicate columns are rejected. This is the
    entry point for loading real matrix patterns from files. *)

val n : t -> int

val row : t -> int -> int array
(** Nonzero column indices of a row, sorted increasingly. *)

val col : t -> int -> int array
(** Nonzero row indices of a column, sorted increasingly. *)

val mem : t -> int -> int -> bool
(** [mem a i j] tests whether entry (i, j) is nonzero. *)
