(** The content-addressed schedule cache (DESIGN.md Section 5h).

    An entry maps the structural hash of (canonical DAG, machine,
    algorithm, seed, replicate flag) to the best schedule found so far
    for that workload, together with its cost and the largest
    optimisation budget it has been computed under. Entries live as a
    file pair in a cache directory:

    {v
    <key>.schedule    Schedule_io format (v1/v2)
    <key>.meta.json   { key, algorithm, n, supersteps, cost, seconds_budget }
    v}

    The meta file is the commit point: {!store} writes the schedule
    first and the meta second, each atomically ({!Atomic_file}), so
    readers never observe a half-written entry and a killed writer
    leaves the previous complete entry intact. Corrupt or stale entries
    (including a schedule that no longer parses against the request's
    DAG, and one {!Engine} finds invalid or mis-costed on the request's
    machine) degrade to a cache miss and are overwritten by the
    recompute — the cache self-heals rather than failing. Eviction is by
    external deletion: removing either file of a pair, or the whole
    directory, invalidates the entry.

    The files are the authority. A daemon session keeps the entries it
    has read or written warm in its {!Memo}, each tagged with the
    {!ident} of its two files, and uses a warm entry only while both
    files still carry that identity. *)

val key :
  dag:Dag.t ->
  machine:Machine.t ->
  algorithm:string ->
  seed:int ->
  replicate:bool ->
  string
(** The 16-hex-digit content address. Built from
    {!Dag.structural_hash}, the machine's [(p, g, l)] and full NUMA
    matrix, and the algorithm identity — stable across processes and
    platforms ({!Fnv}). *)

val key_of_hash :
  dag_hash:Fnv.t ->
  machine:Machine.t ->
  algorithm:string ->
  seed:int ->
  replicate:bool ->
  string
(** {!key} from a structural hash the caller already holds. *)

type entry = {
  cost : int;
  seconds_budget : float;
      (** largest budget this entry has been optimised under;
          [infinity]-like semantics for budget-insensitive algorithms
          are handled by {!Engine}, which never refreshes them *)
  schedule : Schedule.t;
}

val lookup : dir:string -> dag:Dag.t -> string -> entry option
(** Read an entry from disk: [None] for absent {e or} syntactically
    defective entries. Whether the schedule is valid and costs what the
    meta file says depends on the machine, which the entry does not
    record; {!Engine} checks both on every entry it reads. *)

type file_ident = { ino : int; size : int; mtime : float }

type ident = { meta : file_ident; sched : file_ident }
(** The [stat] identity of an entry's two files. {!store} replaces each
    file by a rename ({!Atomic_file}), so every store gives the entry a
    new identity. *)

val ident : dir:string -> string -> ident option
(** Two [stat] calls; [None] when either file is missing. *)

val store :
  dir:string ->
  key:string ->
  algorithm:string ->
  cost:int ->
  seconds_budget:float ->
  Schedule.t ->
  unit
(** Write an entry, creating the directory if it is missing. *)

val store_text :
  dir:string ->
  key:string ->
  algorithm:string ->
  cost:int ->
  seconds_budget:float ->
  text:string ->
  Schedule.t ->
  unit
(** {!store} with the schedule already rendered: [text] must be
    [Schedule_io.to_string] of the schedule, which here only supplies
    the meta file's node and superstep counts. *)

val meta_path : dir:string -> string -> string
val schedule_path : dir:string -> string -> string
