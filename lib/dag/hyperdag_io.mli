(** HyperDAG file format.

    The paper's DAG database (Section 5, Appendix B) stores instances in
    a hypergraph format: each non-sink node [v] induces one hyperedge
    containing [v] and all its direct successors, which emphasises that
    the output of [v] needs to be sent to another processor at most once
    regardless of how many successors live there. The textual format
    implemented here follows the HyperDAG_DB convention:

    {v
    % comment lines (any number, anywhere before the header)
    <num_hyperedges> <num_nodes> <num_pins>
    <hyperedge_id> <node_id>          (one line per pin)
    ...
    <node_id> <work_weight> <comm_weight>   (one line per node)
    ...
    v}

    The first pin listed for a hyperedge is its source node; the
    remaining pins are the source's direct successors. Conversion back to
    a DAG simply adds an edge from the source of every hyperedge to each
    of its other pins, as all our algorithms operate on plain DAGs
    (Appendix B).

    Alongside the textual format, a compact {e binary} encoding is
    provided for the serving path (DESIGN.md Section 5h): after the
    magic ["BHDG1\n"] come LEB128 varints for the node and edge counts,
    the work weights, the comm weights, and per node its out-degree
    followed by its successors — first one absolute, the rest gap-coded
    against the previous (the canonical CSR segments are sorted
    strictly ascending, so gaps are non-negative and small). The binary
    reader and writer are streaming: both work through a fixed 64 KiB
    window instead of materialising the file, and the reader rejects
    truncated input, count mismatches, out-of-range ids and trailing
    bytes with a descriptive [Failure].

    All file access is binary-mode and all file writes are atomic
    ({!Atomic_file}), so round-trips are byte-exact on every platform
    and a killed writer never leaves a torn file. *)

val write : out_channel -> Dag.t -> unit
(** Serialise a DAG in hyperDAG format. One hyperedge per node with at
    least one successor. *)

val write_file : string -> Dag.t -> unit
(** Atomic: temp file + rename, see {!Atomic_file.write}. *)

val read : in_channel -> Dag.t
(** Parse a hyperDAG file; raises [Failure] with a descriptive message on
    malformed input (bad counts, out-of-range pins, cyclic structure). *)

val read_file : string -> Dag.t

val to_string : Dag.t -> string

val of_string : ?pos:int -> ?stop:int -> string -> Dag.t
(** Parse the bytes [\[pos, stop)] of the string (by default all of
    it) in place, as {!Text_codec.scanner} bounds them: a request
    document hands over its inline body without copying it. Raises
    [Failure] as {!read} does. *)

(** {1 Binary format} *)

val binary_magic : string
(** ["BHDG1\n"] — the first six bytes of every binary hyperDAG. *)

val write_binary : out_channel -> Dag.t -> unit
val write_binary_file : string -> Dag.t -> unit

val read_binary : in_channel -> Dag.t
(** Streaming decode; raises [Failure] on bad magic, truncation,
    declared-count mismatches, out-of-range successors or trailing
    bytes. *)

val read_binary_file : string -> Dag.t
val to_binary_string : Dag.t -> string
val of_binary_string : string -> Dag.t

(** {1 Format sniffing} *)

val read_auto : in_channel -> Dag.t
(** Read either format: input starting with {!binary_magic} is decoded
    as binary (still streaming), anything else is parsed as text. *)

val read_file_auto : string -> Dag.t
(** The reader the CLI and the serve daemon use, so [.hdag] and
    [.bhdag] instances are interchangeable everywhere a DAG file is
    accepted. *)
