(** Mixed 0/1 integer linear program models.

    A thin model builder shared by the four scheduling formulations of
    Section 4.4 (ILPfull, ILPpart, ILPinit, ILPcs). Variables are either
    binary or continuous with bounds; constraints are sparse linear rows;
    the objective is always minimised. Solving happens in
    {!Branch_bound}.

    The model is stored as a flat {!Simplex.lp}: each added row is
    appended to CSR arrays (row starts, column indices, an unboxed
    [float array] of coefficients, senses, right-hand sides), and the
    objective is kept the same way. *)

type t

type var = int
(** Dense variable index. *)

val create : unit -> t

val binary : t -> string -> var
(** A 0/1 variable. The name is kept for diagnostics only. *)

val continuous : t -> ?lb:float -> ?ub:float -> string -> var
(** A continuous variable, by default in [[0, infinity)]. *)

val num_vars : t -> int
val num_binaries : t -> int
val is_binary : t -> var -> bool

val add_le : t -> (var * float) list -> float -> unit
(** [add_le m coeffs b] adds [sum coeffs <= b]. *)

val add_ge : t -> (var * float) list -> float -> unit
val add_eq : t -> (var * float) list -> float -> unit

val set_objective : t -> (var * float) list -> unit
(** Minimisation objective (sparse; later calls replace earlier ones). *)

val constraints_satisfied : ?tol:float -> t -> float array -> bool
(** Check a full assignment against all rows and bounds. *)

(** {1 Solver access} *)

type relaxation =
  | Optimal of float  (** the optimal objective; see {!relaxation_value} *)
  | Infeasible
  | Unbounded
  | Iteration_limit

val lp_relaxation : ?max_pivots:int -> ?fix:(var * float) list -> t -> relaxation
(** Solve the LP relaxation (binaries relaxed to [[0, 1]]), with the
    bounds of the variables in [fix] clamped to the given values (a
    variable listed twice takes its last value). On [Optimal], the
    solution stays in the scratch, where {!relaxation_value} reads it.

    Variables whose bounds are then equal are eliminated first: their
    terms move into the row right-hand sides and the objective constant,
    and a row left without terms is dropped once its constant is checked
    ([Infeasible] when it fails). The reduced LP keeps the rows, and
    each row's terms, in insertion order. It is written into per-domain
    scratch that grows to the union of the models served while that
    stays within 2^18 words (larger models get scratch of their own), so
    a warm call allocates only its result, a few words, whatever the
    model's size. *)

val relaxation_value : t -> var -> float
(** The variable's value in the solution of the model's latest
    {!lp_relaxation}, which must have returned [Optimal]: its clamped
    bound if [fix] fixed it, the simplex's value otherwise. Read from
    the scratch behind the map of free variables, so it holds only
    until the next {!lp_relaxation} on the calling domain, of any
    model. *)
