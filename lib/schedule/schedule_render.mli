(** Human-readable rendering of BSP schedules.

    Produces a compact per-superstep table: one row per processor, one
    column block per superstep, listing the node ids computed there
    (elided with [..] beyond a width limit) plus per-superstep work and
    h-relation summaries — a quick visual sanity check for CLI users and
    examples. A per-processor utilisation summary (work, idle, send and
    receive totals from {!Profile}) follows the header line. *)

val to_string : ?max_nodes_per_cell:int -> Machine.t -> Schedule.t -> string
(** Render the whole schedule. [max_nodes_per_cell] (default 6) bounds
    how many node ids each processor/superstep cell spells out. *)
