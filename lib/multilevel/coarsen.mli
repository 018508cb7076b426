(** Acyclicity-preserving DAG coarsening (Section 4.5, Appendix A.5).

    Coarsening repeatedly contracts a directed edge [(u, v)] into a
    single node, summing both weight kinds. An edge is contractable
    exactly when no {e other} directed path leads from [u] to [v];
    contracting it then cannot create a cycle. Contractable edges always
    exist in a non-trivial DAG.

    Edge selection follows the paper's rule: among contractable edges,
    prefer those in the smallest third by combined work weight
    [w u + w v] (so no oversized cluster is forced onto one processor),
    and among these pick the largest communication weight [c u] (saving
    the most traffic). The implementation processes edges in rounds —
    one sort per round, then greedy contraction with a fresh
    contractability test per edge — rather than fully re-sorting after
    every contraction; the preference order within a round is identical
    and the paper notes its own selection is a simple prototype.

    Every contraction is recorded so the multilevel driver can undo them
    one by one, mapping schedules between adjacent levels.

    {b Contractability test.} The session keeps a topological order of
    the live level. A second [u ~> v] path can only run through nodes
    ordered strictly between [u] and [v], so the test searches only
    that window. After each contraction {!coarsen_to} repairs the order
    as Pearce and Kelly's dynamic topological order does (DESIGN.md
    Section 5j). The test is exact, so the contractions are those of an
    unbounded search. {!replay} and {!undo_last} do not maintain the
    order; a later {!coarsen_to} rebuilds it.

    {b Buffers.} Every array of a session is sized for its DAG and only
    grows: {!reset} moves a session onto another DAG in place, and
    {!take}/{!release} keep one session per domain for reuse. *)

type t
(** A coarsening session over an original DAG. Mutable. *)

type contraction = {
  kept : int;  (** representative that absorbed the other endpoint *)
  removed : int;  (** endpoint that disappeared *)
}

val start : Dag.t -> t
(** A fresh session at the DAG's own level: every node alive, no
    contraction recorded. *)

val reset : t -> Dag.t -> unit
(** [reset t dag] puts [t] into the state [start dag] would return,
    whatever DAG it served before, growing its arrays where [dag] needs
    more room. On a DAG that fits, it allocates nothing. *)

val take : Dag.t -> t
(** A session at [dag]'s own level: the calling domain's pooled
    session, {!reset} onto [dag], or a fresh {!start} when the pool is
    empty. *)

val release : t -> unit
(** Park the session in the calling domain's pool for the next {!take};
    the caller must not use it afterwards. The pool holds one session,
    so its memory is that of the largest DAG the domain coarsened.
    Optional: a session never released is collected like any value. *)

val original : t -> Dag.t

val num_alive : t -> int
(** Current number of coarse nodes. *)

(** The one edge-selection rule, the paper's: smallest third by
    [w u + w v], then largest [c u] (Appendix A.5). The type,
    {!coarsen_to}'s [?strategy] and [Multilevel.config.strategy] are
    kept only for the benchmark mirror ([perfbench/layers]), which
    passes the config's value through; they go when the mirror next
    changes. A new rule (such as ROADMAP item 3's depth-aware one)
    replaces this one and must keep {!history}'s prefix property. *)
type strategy = Paper_rule

val coarsen_to : ?strategy:strategy -> t -> target:int -> unit
(** Contract edges until at most [target] nodes remain (or no
    contractable edge exists, which happens when only edgeless
    components are left to merge). Adds the nodes the contractability
    tests visited to the [coarsen.dfs_visits] counter, once per
    call. *)

val history : t -> contraction list
(** All contractions performed, oldest first. Materialised from the
    flat history on each call; use {!num_contractions} when only the
    count is needed.

    {b Prefix property.} [coarsen_to] is a deterministic function of
    the session state and tests the target before every contraction,
    so on the same DAG the history of a run to target
    [t1] is the first [n - t1] contractions of a run to any smaller
    target [t2] (all of them when the run to [t2] stops early, which
    only happens when no contractable edge is left, and then the run
    to [t1] stops at the same point). {!replay} rebuilds the [t1]
    level from that prefix. *)

val replay : t -> contraction list -> target:int -> unit
(** [replay t history ~target] re-applies [history] in order, stopping
    once at most [target] nodes remain or the list ends. On a fresh
    session over the same DAG, replaying the history of a
    [coarsen_to ~target:t2] run with [~target:t1 >= t2] leaves the
    session exactly as [coarsen_to ~target:t1] would (same
    {!quotient}, same {!undo_last} sequence), without selecting any
    edge. Each contraction must join the endpoints of an edge of the
    current level ([Invalid_argument] otherwise); that it keeps the
    level acyclic is not re-checked, so pass only histories recorded
    on the same DAG. On a session that has held this level before
    (a {!reset} one on the DAG it last served), replay allocates
    nothing. *)

val num_contractions : t -> int
(** Number of contractions currently recorded (the length of
    {!history}), read from the stored count in O(1). *)

val undo_last : t -> contraction option
(** Undo the most recent contraction, restoring the finer level; [None]
    if fully uncoarsened. *)

val owner : t -> int -> int
(** [owner t v] is the coarse representative currently containing the
    original node [v]. *)

val alive : t -> int -> bool

val quotient : t -> Dag.t * int array
(** Materialise the current coarse level as a DAG with dense ids; also
    returns the map from coarse id to representative (original id).
    Node weights are the sums over the merged original nodes. Both are
    freshly allocated, exact in length, and owned by the caller. *)

val view : t -> Dag.t * int array
(** {!quotient} written into the session's own buffers: the same DAG,
    entry for entry over its [n] nodes and [m] edges, and the same map
    in the first [n] entries of the returned array. Allocates only the
    DAG record. The DAG's arrays are longer than it (Dag's capacity
    rule), and both values are valid only until the session's next
    {!coarsen_to}, {!replay}, {!undo_last}, {!reset} or {!release}. *)

val check_order : t -> unit
(** Debug helper: raises [Failure] unless the session's order is a
    topological order of the live level (or is marked for a rebuild
    after {!replay}/{!undo_last}). *)
