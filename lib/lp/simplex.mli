(** A dense two-phase primal simplex solver.

    This is the linear-programming core of the ILP substrate that stands
    in for the paper's CBC solver (DESIGN.md, substitution 1). It solves

    {v minimize    c . x
       subject to  A x {<=, =, >=} b
                   lb <= x <= ub v}

    with finite lower bounds (the scheduling formulations only use
    variables bounded below by 0) and optional finite upper bounds.
    Internally variables are shifted to [y = x - lb >= 0], upper bounds
    become explicit rows, slack/surplus/artificial variables put the
    system in standard form, phase 1 minimises the artificial sum and
    phase 2 the original objective. Pivoting uses Dantzig's rule and
    falls back to Bland's rule after a run of degenerate pivots, which
    guarantees termination; an overall pivot cap turns pathological
    instances into an explicit {!Iteration_limit} outcome rather than a
    hang.

    {b Tableau pool.} The dense tableau's rows, its basis, objective row
    and pivot buffers come from a per-domain pool ([Domain.DLS]),
    cleared to each solve's shape, so a run of similar solves
    (ILPinit's branch-and-bound) reuses one workspace instead of
    allocating one per solve. The pool grows to the
    union of the shapes it has served while that stays within 2^18
    floats (2 MB) per domain; a tableau larger than that is allocated
    for its solve alone. Only the solve's own rows and columns are
    read, so results and pivot counts do not depend on what the pool
    served before. *)

type sense = Le | Ge | Eq

(** A linear program in flat (compressed sparse row) form. Only the
    prefixes the counts name are read, so the arrays can be longer
    scratch that a caller reuses from solve to solve:

    - variables [0 .. num_vars - 1] with bounds [lb.(j)] (finite) and
      [ub.(j)] (may be [infinity]), [lb.(j) <= ub.(j)];
    - the objective [sum obj_coef.(e) * x.(obj_col.(e))] over
      [e < obj_len];
    - rows [i < num_rows], row [i] being
      [sum row_coef.(e) * x.(row_col.(e)) {row_sense.(i)} row_rhs.(i)]
      over [row_start.(i) <= e < row_start.(i + 1)].

    Duplicate indices in a row or in the objective are summed, in
    order. *)
type lp = {
  mutable num_vars : int;
  mutable lb : float array;
  mutable ub : float array;
  mutable obj_len : int;
  mutable obj_col : int array;
  mutable obj_coef : float array;
  mutable num_rows : int;
  mutable row_start : int array;
  mutable row_col : int array;
  mutable row_coef : float array;
  mutable row_sense : sense array;
  mutable row_rhs : float array;
}

type result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

val minimize : ?max_pivots:int -> lp -> result
(** Minimise [lp]'s objective. [x] has [num_vars] entries. The solve
    only reads [lp], and allocates nothing but its result while its
    tableau fits the pool. [max_pivots] defaults to a generous multiple
    of the problem size. *)

val minimize_into : ?max_pivots:int -> lp -> float array -> result
(** {!minimize} writing the solution into the first [num_vars] entries
    of the given array, which an [Optimal] result returns as its [x]:
    a caller that reuses one array from solve to solve allocates only
    the result block. The same pivots as {!minimize}. *)
