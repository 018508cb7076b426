(** A daemon session's in-process table (DESIGN.md Section 5h).

    Each [serve] session ({!Daemon.run}, {!Daemon.run_stdio}) owns one,
    so that a repeated request is answered from memory. It holds:

    - {b parsed bodies}: each inline [hyperdag] body that parsed, keyed
      by its exact bytes, with its [Dag.t] and structural hash. A body
      is looked up by hashing it in place and comparing it byte for
      byte, so two bodies share an entry only when they are equal; the
      table keeps its own copy of a body it stores, made on that miss
      alone, and never holds on to the caller's string.
    - {b warm cache entries}: each content address with its
      {!Cache.entry} and its schedule rendered for a reply, tagged with the
      {!Cache.ident} of the entry's files when it was read or written.

    The table is bounded by a fixed byte budget: the oldest items are
    evicted first, and an item larger than the budget is not stored.
    One mutex guards it, so the queue daemon's domains may share it.
    Counters [server.memo_hits], [server.memo_misses] and
    [server.memo_evictions] go to the ambient {!Obs.Metrics} registry. *)

type t

val default_budget : int
(** 64 MiB. *)

val create : ?budget:int -> unit -> t
(** An empty table bounded by [budget] bytes (default
    {!default_budget}). *)

val bytes : t -> int
(** The bytes the table holds now: each body it keeps plus the heap
    size of each DAG and entry, with no sharing deducted. At most the
    budget. *)

val parse_body : t -> string -> pos:int -> ?stop:int -> (unit -> Dag.t) -> Dag.t
(** [parse_body t doc ~pos ~stop parse] is the DAG of the body held in
    the bytes [\[pos, stop)] of [doc] ([stop] defaults to its length):
    the stored one if an equal body was parsed before, otherwise
    [parse ()], stored with a copy of the body if it returns. A hit
    reads the body in place and allocates nothing for it, so [doc] may
    be a view of a buffer the caller reuses once this returns. The hash
    of the body is the only extra pass a miss pays. *)

val structural_hash : t -> Dag.t -> Fnv.t
(** {!Dag.structural_hash}, stored for the DAGs {!parse_body} returns. *)

type warm = {
  entry : Cache.entry;
  escaped : string;
      (** the schedule's {!Schedule_io} text with each line end written
          as the two bytes [\n]: the body of a JSON string *)
}

val find_entry : t -> string -> ident:Cache.ident -> dag:Dag.t -> warm option
(** The warm entry for a content address, if its files still have
    identity [ident] and it was stored for [dag] or for a structurally
    equal DAG; in the second case its schedule is rebound to [dag]. *)

val add_entry : t -> string -> ident:Cache.ident -> warm -> unit
(** Store (or replace) the warm entry for a content address. *)
