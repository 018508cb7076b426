(** Textual serialisation of BSP schedules.

    v1 format (lines starting with [%] are comments):

    {v
    % bsp schedule
    <num_nodes> <num_comm_events>
    <node> <processor> <superstep>        (one line per node)
    ...
    <node> <src> <dst> <phase>            (one line per comm event)
    ...
    v}

    v2 adds node replication: the file starts with the version marker
    comment [% bsp schedule v2], the header gains a third field, and the
    replica lines follow the comm events:

    {v
    % bsp schedule v2
    <num_nodes> <num_comm_events> <num_replicas>
    <node> <processor> <superstep>        (one line per node)
    ...
    <node> <src> <dst> <phase>            (one line per comm event)
    ...
    <node> <processor> <superstep>        (one line per replica)
    ...
    v}

    {!to_string}/{!write} emit v1 for replica-free schedules (so outputs
    of replication-free workflows stay byte-identical) and v2 as soon as
    at least one replica exists. {!of_string}/{!read} accept both;
    version detection keys on the marker comment.

    The DAG itself is not stored; reading requires the DAG the schedule
    refers to, and validates the node count against it. Input with
    trailing non-comment lines beyond the counts declared in the header
    is rejected ([Failure]) rather than silently ignored. *)

val write : out_channel -> Schedule.t -> unit
val write_file : string -> Schedule.t -> unit

val read : Dag.t -> in_channel -> Schedule.t
(** Raises [Failure] with a descriptive message on malformed input,
    including trailing garbage after the declared line counts. *)

val read_file : Dag.t -> string -> Schedule.t

val to_string : Schedule.t -> string
(** The schedule's text, as {!write} writes it. *)

val to_buffer : Buffer.t -> eol:string -> Schedule.t -> unit
(** Append the text {!to_string} returns, with every line ended by [eol]
    instead of ['\n']. No other byte it writes needs escaping in a JSON
    string, so [~eol:"\\n"] writes the schedule as a JSON string body
    straight into a reply buffer. *)

val of_string : Dag.t -> string -> Schedule.t
