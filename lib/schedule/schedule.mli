(** BSP schedules.

    A BSP schedule of a DAG (Section 3.2) consists of

    - an assignment of nodes to processors [proc] (the paper's [pi]) and
      to supersteps [step] (the paper's [tau]), and
    - a communication schedule [comm] (the paper's [Gamma]): a set of
      events [(node, src, dst, step)] meaning the output of [node] is
      sent from processor [src] to processor [dst] in the communication
      phase of superstep [step].

    Supersteps are numbered from 0. The communication phase of superstep
    [s] happens after the computation phase of superstep [s] and before
    the computation phase of superstep [s + 1]. A value sent in phase [s]
    is available on the destination from superstep [s + 1] onwards.

    {b Replication.} Beyond the paper's model, a node may additionally be
    {e replicated}: recomputed on further processors so that consumers
    there read a local copy instead of receiving the value over the
    network (cf. Papp et al., "Replication in Graph Partitioning and
    Scheduling Problems"). The primary [proc]/[step] arrays stay the
    canonical copy — every fast path that ignores replication keeps
    working on them unchanged — while the extra replicas live in a flat
    CSR-style side table ([rep_off]/[rep_proc]/[rep_step]): the replicas
    of node [v] occupy indices [rep_off.(v) .. rep_off.(v+1) - 1], sorted
    by processor. A replica-free schedule has all three arrays empty
    (length 0, the shared empty-array atom): the representation costs
    nothing on the common path, and building a plain schedule allocates
    no replica table. Every constructor here keeps that form canonical —
    a replicated constructor given no replicas yields the empty tables
    too — and no code writes a replica table after construction, so
    schedules may share them. Replica work is charged like primary work
    (see {!Bsp_cost}); an edge is satisfied if {e any} placement of the
    source is present in time on the consumer's processor
    (see {!Validity}).

    The schedule owns a reference to its DAG so validity and cost can be
    queried without re-threading the graph everywhere. *)

type comm_event = {
  node : int;  (** whose output is transferred *)
  src : int;  (** sending processor *)
  dst : int;  (** receiving processor *)
  step : int;  (** communication phase used *)
}

type t = {
  dag : Dag.t;
  proc : int array;  (** [pi]: node -> processor (primary placement) *)
  step : int array;  (** [tau]: node -> superstep (primary placement) *)
  comm : comm_event list;  (** [Gamma] *)
  rep_off : int array;
      (** CSR offsets into [rep_proc]/[rep_step]: length [n + 1], or 0
          when the schedule has no replicas. *)
  rep_proc : int array;  (** replica processors, sorted per node *)
  rep_step : int array;  (** replica supersteps, parallel to [rep_proc] *)
}

val make : Dag.t -> proc:int array -> step:int array -> comm:comm_event list -> t
(** Bundle an assignment with an explicit communication schedule and no
    replicas. Array lengths must match the DAG; entries are not otherwise
    validated (use {!Validity}). The arrays are copied. *)

val make_replicated :
  Dag.t ->
  proc:int array ->
  step:int array ->
  comm:comm_event list ->
  replicas:(int * int * int) list ->
  t
(** Like {!make} with an explicit replica list of [(node, proc, step)]
    triples. Replicas are sorted by [(node, proc)] into the CSR side
    table, so downstream iteration order does not depend on the order the
    caller discovered them in. Raises [Invalid_argument] on out-of-range
    entries, on a replica duplicating the node's primary placement, and
    on duplicate [(node, proc)] pairs. *)

val make_owned :
  Dag.t ->
  proc:int array ->
  step:int array ->
  comm:comm_event list ->
  replicas:(int * int * int) list ->
  t
(** {!make_replicated} ([replicas = []] gives {!make}'s schedule) that
    takes [proc] and [step] over instead of copying them: the caller
    must not keep or mutate them. For this library's decoders
    ({!Schedule_io}), which fill fresh arrays only to hand them over. *)

(** {1 Replica accessors} *)

val num_replicas : t -> int
(** Total number of extra replicas (0 for a plain schedule). *)

val has_replicas : t -> bool

val replicas : t -> int -> (int * int) list
(** [(proc, step)] of the extra replicas of a node, sorted by processor.
    Does not include the primary placement. *)

val iter_replicas : t -> int -> (int -> int -> unit) -> unit
(** [iter_replicas t v f] applies [f proc step] to each extra replica of
    [v], in ascending processor order. Allocation-free. *)

val iter_placements : t -> int -> (int -> int -> unit) -> unit
(** Like {!iter_replicas} but visiting the primary placement first. *)

val placement_step_on : t -> int -> int -> int
(** [placement_step_on t u q] is the earliest superstep at which any
    placement of [u] (primary or replica) exists on processor [q], or
    [max_int] if [u] is not placed on [q]. *)

val num_supersteps : t -> int
(** [1 + max tau] over all placements, primary and replica (0 for the
    empty DAG), also covering every communication phase used by a valid
    schedule. *)

val trivial : Dag.t -> t
(** Everything on processor 0 in superstep 0 with no communication — the
    paper's trivial baseline for communication-dominated instances
    (Section 7.3). *)

val heap_words : t -> int
(** The heap words [Obj.reachable_words] counts for the schedule, its
    DAG included, from array lengths and the event count
    ({!Dag.heap_words}). *)

(** {1 Lazy communication schedules}

    Simple schedulers only produce the assignment [(pi, tau)]; the
    associated {e lazy communication schedule} sends every value directly
    from the processor that computed it, in the last possible phase: if
    [u] is needed on processor [q <> pi u] then [u] is sent in phase
    [min step(v) - 1] over successors [v] of [u] with [pi v = q]
    (Appendix A, "lazy communication schedule"; a value is sent at most
    once per destination). *)

val lazy_comm : Dag.t -> proc:int array -> step:int array -> comm_event list
(** Replica-unaware lazy schedule of a plain assignment, in ascending
    [(node, dst)] order. Allocates the event list and O(p) words of
    scratch, independent of the node count. *)

val lazy_comm_replicated : Machine.t -> t -> comm_event list
(** Replica-aware lazy schedule: a consumer placement is locally
    satisfied when some placement of the predecessor sits on its
    processor at an earlier-or-equal step; each remaining (value,
    destination) need is served once, in the last possible phase, from
    the placement minimising [lambda (src, dst)] among those computed in
    time (ties: primary first, then lowest replica processor). With an
    empty replica table this is exactly [lazy_comm]. Ignores [t.comm]. *)

val of_assignment : Dag.t -> proc:int array -> step:int array -> t
(** Assignment plus its lazy communication schedule. Arrays are copied. *)

val of_assignment_replicated :
  Machine.t ->
  Dag.t ->
  proc:int array ->
  step:int array ->
  replicas:(int * int * int) list ->
  t
(** Replicated assignment plus its replica-aware lazy communication
    schedule ({!lazy_comm_replicated}). *)

val with_lazy_comm : t -> t
(** Replace [comm] by the lazy schedule of the assignment. Raises
    [Invalid_argument] on a replicated schedule — use
    {!lazy_comm_replicated} there, which needs the machine's
    [lambda] to pick senders. *)

val drop_replicas : t -> t
(** Forget all replicas and re-derive the (plain) lazy communication
    schedule of the primary assignment. *)

val assignment_valid : Dag.t -> proc:int array -> step:int array -> bool
(** An assignment admits a (lazy) communication schedule iff every edge
    [(u, v)] satisfies [step u <= step v] when on the same processor and
    [step u < step v] when on different processors. *)

val compact : t -> t
(** Remove supersteps in which nothing is computed (by a primary node or
    a replica), renumbering the remaining ones. By default the
    communication schedule is {e preserved}: each event's phase is
    renumbered to the last surviving superstep at or before it, which
    keeps the event after its source's computation and before its
    consumers' first use — for a (semantically) lazy [comm] this
    coincides exactly with re-deriving the lazy schedule, and for a
    hand-optimised [Gamma] (e.g. from {!Hccs}) the optimisation survives.
    To re-derive the lazy schedule instead, build the renumbered
    assignment with {!of_assignment}. *)

val used_supersteps : t -> int
(** Number of distinct supersteps that contain at least one placement. *)
