(** Incremental BSP cost bookkeeping for the local search algorithms.

    The hill climbers must evaluate the cost effect of thousands of
    candidate modifications per second, so recomputing the full cost
    function each time is out of the question (Section 4.3). This table
    keeps the per-superstep per-processor work, send and receive totals
    together with a cached per-superstep cost and the running total.
    Mutators mark the touched supersteps dirty; {!refresh} re-derives the
    cost of exactly the dirty supersteps (a maximum over [P] processors
    each, with [P] small) and updates the total.

    The paper maintains sorted sets with external pointers for O(1) max
    queries; with [P <= 16] in all experiments, an [O(P)] rescan of a
    dirty superstep is both simpler and faster in practice — the
    asymptotic refinement would only matter for much larger [P]
    (documented deviation, DESIGN.md Section 5). *)

type t

val create : Machine.t -> num_steps:int -> t
(** All-zero tables for supersteps [0 .. num_steps - 1]. The latency
    contribution [num_steps * l] is included in {!total} from the
    start. *)

val num_steps : t -> int

val clear : t -> unit
(** Zero every cell of the used region and drop pending dirtiness,
    leaving the backing arrays entirely zero so they can be handed to
    {!recycle}. The table itself is unusable afterwards (its caches are
    stale); callers clear only as the last operation before pooling. *)

val recycle : t -> Machine.t -> num_steps:int -> t
(** [recycle old machine ~num_steps] is {!create}[ machine ~num_steps],
    except the new table reuses [old]'s backing arrays when they are
    large enough. [old] must have been {!clear}ed and must not be used
    again. This is the allocation-free path for the per-domain scratch
    pool (DESIGN.md Section 5f): the multilevel refinement loop creates
    a table per refinement level, and recycling keeps that out of the
    minor heap. *)

val add_work : t -> step:int -> proc:int -> int -> unit
(** Add a (possibly negative) amount of work. *)

val add_send : t -> step:int -> proc:int -> int -> unit
val add_recv : t -> step:int -> proc:int -> int -> unit

val refresh : t -> unit
(** Recompute the cost of dirty supersteps and fold into the total. *)

val total : t -> int
(** Current total cost; only meaningful right after {!refresh}. *)

val step_cost : t -> int -> int
(** Cached cost of one superstep; only meaningful right after
    {!refresh}. Read-only delta evaluation compares a candidate's
    recomputed superstep cost against this cached value. *)

val step_costs : t -> int array
(** The cached per-superstep cost vector behind {!step_cost}, as a
    read-only view (same caveats as the matrix accessors below). *)

val work_matrix : t -> int array array
val send_matrix : t -> int array array
val recv_matrix : t -> int array array
(** Direct views of the [num_steps x p] tables for the read-only delta
    evaluator, which must scan whole superstep rows in its innermost
    loop and cannot afford a function call per cell. The caller must
    treat them as read-only; all mutation goes through {!add_work} /
    {!add_send} / {!add_recv} so dirtiness tracking stays sound. *)

val work_max : t -> int array
val comm_max : t -> int array
(** Per-step cached maxima (work, h-relation), refreshed with
    {!refresh}. The row evaluator's addition overlays, and HCcs's
    addition half, only raise cells, so they derive a candidate
    superstep maximum from these caches and the touched cells alone.
    Read-only views, valid right after {!refresh}. *)

val assert_consistent : t -> unit
(** Debug helper: verifies the cached per-superstep costs and total match
    a from-scratch recomputation; raises on mismatch. *)
