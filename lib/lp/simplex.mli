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

    {b Tableau pool.} The dense tableau's rows come from a per-domain
    pool ([Domain.DLS]), zero-filled to each solve's width, so a run of
    similar solves (ILPinit's branch-and-bound) reuses one set of rows
    instead of allocating a tableau per solve. The pool grows to the
    union of the shapes it has served while that stays within 2^18
    floats (2 MB) per domain; a tableau larger than that is allocated
    for its solve alone. Only the solve's own rows and columns are
    read, so results and pivot counts do not depend on what the pool
    served before. *)

type sense = Le | Ge | Eq

type result =
  | Optimal of { obj : float; x : float array }
  | Infeasible
  | Unbounded
  | Iteration_limit

val minimize :
  ?max_pivots:int ->
  num_vars:int ->
  obj:(int * float) list ->
  rows:((int * float) list * sense * float) array ->
  lb:float array ->
  ub:float array ->
  unit ->
  result
(** [obj] and each row's left-hand side are sparse (variable index,
    coefficient) lists; duplicate indices are summed. [ub.(j)] may be
    [infinity]; [lb.(j)] must be finite and [<= ub.(j)].
    [max_pivots] defaults to a generous multiple of the problem size. *)
