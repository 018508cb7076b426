(** Full cost attribution for a BSP(+NUMA) schedule (DESIGN.md §5d).

    {!Bsp_cost.breakdown} reports the per-superstep maxima the cost
    formula [C(s) = max_p work + g * max_p max(send, recv) + l] is built
    from, but not {e which} processor realises each maximum, how
    imbalanced the phases are, or where NUMA traffic concentrates. A
    profile answers those questions from the same raw
    {!Bsp_cost.tables}, so its totals reconcile {e exactly} with the
    breakdown — {!reconcile} checks this invariant and the test suite
    enforces it on every schedule it produces. *)

type superstep = {
  work : int array;  (** per-processor work this superstep, length [p] *)
  send : int array;  (** per-processor weighted send volume *)
  recv : int array;  (** per-processor weighted receive volume *)
  work_max : int;  (** [C_work(s)], as in {!Bsp_cost.superstep} *)
  work_bottleneck : int;
      (** argmax processor of the work phase (lowest id on ties); [-1]
          when no processor works in this superstep *)
  comm_max : int;  (** [C_comm(s)], the h-relation before multiplying by [g] *)
  comm_bottleneck : int;
      (** argmax processor of [max(send, recv)]; [-1] when the
          communication phase is empty *)
  work_imbalance : float;
      (** [max / mean] over all [p] processors ([1.0] = perfectly
          balanced; [1.0] by convention when no processor works) *)
  comm_imbalance : float;  (** same ratio for [max(send, recv)] *)
  idle : int array;
      (** [work_max - work.(q)]: time processor [q] waits for the
          superstep's critical (bottleneck) processor *)
  cost : int;  (** [work_max + g * comm_max + l] *)
}

type t = {
  p : int;
  num_supersteps : int;
  supersteps : superstep array;
  proc_work : int array;  (** total work per processor across supersteps *)
  proc_send : int array;  (** total weighted send volume per processor *)
  proc_recv : int array;
  proc_idle : int array;  (** summed per-superstep idle time *)
  traffic : int array array;
      (** [p x p] NUMA traffic matrix: [traffic.(p1).(p2)] is the total
          [c(v) * lambda(p1, p2)] volume shipped from [p1] to [p2]. Row
          sums equal [proc_send], column sums equal [proc_recv]. *)
  work_total : int;  (** sum of [work_max]; equals the breakdown's *)
  comm_total : int;  (** sum of [g * comm_max] *)
  latency_total : int;
  total : int;
  node_work : int;  (** [Dag.total_work], the machine-independent work *)
  critical_path_work : int;  (** max total work along any directed path *)
  work_floor : int;
      (** [max(ceil(node_work / p), critical_path_work)] — no schedule's
          work term can beat either bound *)
  lower_bound : int;
      (** [work_floor + l]: the work floor plus the latency of the at
          least one superstep every non-empty schedule pays. [0] for the
          empty DAG. Communication is not bounded below (a
          single-processor schedule needs none), so this is a valid —
          if optimistic — floor for the full cost. Replication only adds
          work, so the floor also holds for replicated schedules. *)
  num_replicas : int;  (** extra replica placements in the schedule *)
  replica_work : int;
      (** work units recomputed by replicas; [proc_work] sums to
          [node_work + replica_work]. Replica work is attributed to the
          replica's own (superstep, processor) cell by
          {!Bsp_cost.tables}, so all reconciliation invariants hold
          unchanged for replicated schedules. *)
}

val compute : Machine.t -> Schedule.t -> t
(** Attribution profile of a schedule. Like {!Bsp_cost.breakdown} this
    does not verify validity. O(n + |comm| + supersteps * p + p^2). *)

val gap_ratio : t -> float
(** [total / lower_bound] — how far the achieved cost sits above the
    instance's floor. [1.0] when the lower bound is [0]. *)

val work_utilisation : t -> int -> float
(** [work_utilisation t q] is [proc_work.(q) / work_total]: the fraction
    of the schedule's compute-phase time processor [q] spends busy.
    [0.0] when [work_total = 0]. *)

val reconcile : t -> Bsp_cost.breakdown -> (unit, string) result
(** Check the reconciliation invariant: superstep count, per-superstep
    [work_max] / [comm_max] / [cost], and all four totals must equal the
    breakdown's exactly. [Error] carries a human-readable mismatch
    description. *)

val pp : Format.formatter -> t -> unit
(** Human-readable attribution report: totals and lower-bound gap,
    per-processor utilisation, the traffic matrix (elided above 16
    processors), and a per-superstep bottleneck/imbalance table. *)
