(** Computational DAGs.

    A computational DAG [G(V, E)] models a workload: nodes are
    operations, a directed edge [(u, v)] means [v] consumes the output of
    [u] and therefore cannot start before [u] finishes (Section 3.1 of
    the paper). Every node [v] carries two weights:

    - the {e work weight} [w v]: time to execute the operation on a
      processor, and
    - the {e communication weight} [c v]: cost of shipping the output of
      [v] to one other processor (e.g. its size in bytes).

    Nodes are identified by dense integers [0 .. n-1]. The structure is
    immutable once built ({!of_csr_buffers} aside, whose DAG lives only
    as long as its caller leaves the buffers alone).

    {b Representation.} Adjacency is stored flat in CSR form — one
    offsets array plus one targets array per direction, each node's
    segment sorted ascending — and the topological order/rank caches
    are computed eagerly at construction (DESIGN.md Section 5f). A
    built value therefore contains no mutable state at all and can be
    shared freely across domains. Adjacency is read only through the
    zero-allocation iterators ({!iter_succ} and friends) or the raw CSR
    accessors; neighbours are always visited in ascending id order.

    {b Capacity.} The arrays behind a DAG may be longer than what they
    hold: [n + 1] offsets, {!num_edges} targets, and [n] weights,
    order and rank entries. Every function of this module reads only
    those prefixes, and a caller of the raw accessors must do the same
    (DESIGN.md Section 5f). *)

type t

(** {1 Construction} *)

val of_edges : n:int -> edges:(int * int) list -> work:int array -> comm:int array -> t
(** [of_edges ~n ~edges ~work ~comm] builds a DAG on [n] nodes.
    Duplicate edges are collapsed. Raises [Invalid_argument] if an
    endpoint is out of range, a self-loop is present, the weight arrays
    do not have length [n], any weight is negative, or the edge set
    contains a directed cycle. *)

val of_edge_arrays :
  n:int -> src:int array -> dst:int array -> m:int -> work:int array -> comm:int array -> t
(** {!of_edges} over the edges [(src.(i), dst.(i))] for [i < m], with
    the same checks and errors; for parsers that collect edges into
    arrays sized by their input instead of building a tuple list. The
    DAG keeps [work] and [comm] without copying them, so the caller must
    not mutate them afterwards; [src] and [dst] are only read. *)

val of_csr_unchecked :
  n:int -> succ_off:int array -> succ_tgt:int array -> work:int array -> comm:int array -> t
(** Build directly from a successor CSR the caller already holds in
    canonical form: [succ_off] of length [n + 1] with
    [succ_off.(0) = 0], monotone, and every per-node segment of
    [succ_tgt] strictly increasing (sorted, duplicate- and
    self-loop-free) with in-range targets — raises [Invalid_argument]
    otherwise. The predecessor side and the topological caches are
    derived here; the topological sort witnesses acyclicity, and a
    cycle raises [Failure "Dag: graph contains a directed cycle"].
    Ownership of all four arrays transfers to the DAG (no copies), so
    the caller must not mutate them afterwards.
    This is the allocation-lean path for {!Coarsen.quotient}, which
    produces sorted segments by construction and would otherwise pay a
    tuple list plus a redundant sort. *)

val of_csr_buffers :
  n:int ->
  succ_off:int array ->
  succ_tgt:int array ->
  work:int array ->
  comm:int array ->
  pred_off:int array ->
  pred_tgt:int array ->
  topo:int array ->
  rank:int array ->
  bits:int array ->
  t
(** {!of_csr_unchecked} over caller-owned buffers, for a caller that
    builds DAGs of varying size in one set of arrays (the multilevel
    level view, [Coarsen.view]). The first [n + 1] entries of
    [succ_off] and the first [succ_off.(n)] of [succ_tgt] must be a
    canonical successor CSR, and the first [n] of [work] and [comm]
    valid weights; none of it is checked. The predecessor CSR, the
    topological order and the ranks are written into the prefixes of
    [pred_off], [pred_tgt], [topo] and [rank], which must be at least
    [n + 1], [succ_off.(n)], [n] and [n] long. [bits] is scratch of at
    least {!bits_length}[ n] entries, all zero, and is left all zero.
    Allocates only the record. The DAG reads the buffers without owning
    them: it is valid until the caller next writes to any of them. A
    cycle raises [Failure "Dag: graph contains a directed cycle"]. *)

val bits_length : int -> int
(** The scratch length {!of_csr_buffers} needs for [n] nodes. *)

(** {1 Basic accessors} *)

val n : t -> int
(** Number of nodes. *)

val num_edges : t -> int

val work : t -> int -> int
(** [work g v] is [w v]. *)

val comm : t -> int -> int
(** [comm g v] is [c v]. *)

val in_degree : t -> int -> int
val out_degree : t -> int -> int

(** {2 Zero-allocation adjacency access}

    The iterators below traverse a node's CSR segment without
    allocating. The raw accessors expose the underlying arrays for the
    tightest loops (local-search delta evaluation): the neighbours of
    [v] in e.g. the successor direction are
    [succ_targets.(i)] for [succ_offsets.(v) <= i < succ_offsets.(v+1)].
    Callers must not mutate the returned arrays. *)

val iter_succ : t -> int -> (int -> unit) -> unit
val iter_pred : t -> int -> (int -> unit) -> unit
val fold_succ : t -> int -> init:'a -> ('a -> int -> 'a) -> 'a
val fold_pred : t -> int -> init:'a -> ('a -> int -> 'a) -> 'a
val exists_pred : t -> int -> (int -> bool) -> bool
val for_all_pred : t -> int -> (int -> bool) -> bool

val succ_offsets : t -> int array
(** At least [n + 1] entries; [succ_offsets.(n)] = {!num_edges}. *)

val succ_targets : t -> int array
(** At least {!num_edges} entries; per-node segments sorted
    ascending. *)

val pred_offsets : t -> int array
val pred_targets : t -> int array

val total_work : t -> int
val total_comm : t -> int

val sources : t -> int list
(** Nodes with no predecessors, in increasing id order. *)

val edges : t -> (int * int) list
(** All edges, each exactly once. *)

val iter_edges : t -> (int -> int -> unit) -> unit

val has_edge : t -> int -> int -> bool

(** {1 Orders and levels} *)

val topological_order : t -> int array
(** A topological order of the nodes (Kahn's algorithm, smallest id
    first, so the order is deterministic), in the first [n] entries. *)

val topological_rank : t -> int array
(** [rank.(v)] is the position of [v] in {!topological_order}, for
    [v < n]. *)

val wavefronts : t -> int array
(** [wavefronts g] assigns each node its earliest level: sources are
    level 0 and [level v = 1 + max (level u)] over predecessors. This is
    the wavefront decomposition used by HDagg-style schedulers. *)

val num_wavefronts : t -> int

val bottom_level : t -> comm_factor:int -> int array
(** [bottom_level g ~comm_factor] is the classical bottom level used by
    list schedulers: [bl v = w v] for sinks, and otherwise
    [bl v = w v + max over successors u of (comm_factor * c v + bl u)].
    With [comm_factor = 0] this is the plain critical-path length. *)

val critical_path_work : t -> int
(** Maximum total work along any directed path. *)

val map_weights : t -> work:(int -> int) -> comm:(int -> int) -> t
(** Rebuild the DAG with new weights; [work v] and [comm v] receive the
    node id. *)

(** {1 Content addressing} *)

val structural_hash : t -> Fnv.t
(** A 64-bit FNV-1a hash of the canonical structure: node count, CSR
    successor adjacency (sorted, deduplicated) and both weight arrays.
    Stable across processes and platforms, so it can key on-disk caches
    (DESIGN.md Section 5h). Two DAGs with equal node count, edge set
    and weights always hash equal; distinct DAGs collide only with
    generic 64-bit-hash probability. *)

val heap_words : ?arrays:int array list -> t -> int
(** The heap words [Obj.reachable_words] counts for the DAG, from its
    array lengths alone: the record and each physically distinct array
    once. [arrays] (default none) are counted with it, each array that
    is physically one of the DAG's or of each other only once. An
    array longer than what the DAG holds counts at its full length,
    as it does for [Obj.reachable_words]. *)

(** {1 Well-formedness} *)

val is_acyclic_edges : n:int -> (int * int) list -> bool
(** Check a raw edge list for acyclicity without building a DAG. *)

val assign_paper_weights : t -> t
(** Apply the weight rule of Appendix B: [w v = max 1 (indeg v - 1)]
    for internal nodes with [indeg >= 1] (i.e. [indeg - 1], except that
    single-input nodes keep weight 0 is avoided by the rule
    [w = indeg - 1] with sources forced to 1); concretely
    [w v = 1] if [v] is a source, [indeg v - 1] otherwise, and
    [c v = 1] for every node. *)
