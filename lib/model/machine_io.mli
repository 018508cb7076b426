(** Textual machine descriptions.

    Lets CLI users describe arbitrary (including asymmetric) NUMA
    machines in a file instead of the built-in uniform / binary-tree
    presets. Format (lines starting with [%] are comments):

    {v
    % machine description
    p <processors>
    g <per-unit communication cost>
    l <latency>
    numa-tree <delta>              % preset hierarchy, OR
    lambda                         % explicit matrix: p rows of p entries
    0 1 3 3
    1 0 3 3
    3 3 0 1
    3 3 1 0
    v}

    Exactly one of [numa-tree] / [lambda] may appear; neither means a
    uniform machine. *)

val of_string : string -> Machine.t
(** Raises [Failure] with a descriptive message on malformed input. *)

val read_file : string -> Machine.t

val to_string : Machine.t -> string
(** Serialises with an explicit [lambda] matrix (round-trips through
    {!of_string}). *)
