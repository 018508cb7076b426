(** Mutable construction helper for DAGs.

    The generators create DAGs node by node in dependency order; this
    builder accumulates nodes and edges and converts to an immutable
    {!Dag.t} at the end. Because nodes can only depend on already-created
    nodes, the result is acyclic by construction. *)

type t

val create : unit -> t

val add_node : t -> work:int -> comm:int -> int
(** Create a node with the given weights, returning its id. Ids are
    allocated consecutively from 0. *)

val add_edge : t -> int -> int -> unit
(** [add_edge b u v] records the dependency edge [(u, v)]. Both endpoints
    must already exist and [u <> v]; duplicates are collapsed at
    {!finish} time, and acyclicity is validated there too. *)

val set_work : t -> int -> int -> unit
(** Update the work weight of an existing node (generators sometimes fix
    up reduction-node weights once the fan-in is known). *)

val finish : t -> Dag.t
(** Freeze into an immutable validated DAG. *)
