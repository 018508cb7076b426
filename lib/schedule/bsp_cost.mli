(** Exact BSP(+NUMA) cost of a schedule (Sections 3.3 and 3.4).

    The cost of superstep [s] is

    {v C(s) = C_work(s) + g * C_comm(s) + l v}

    where [C_work(s)] is the maximum total work any processor executes in
    the computation phase of [s], and [C_comm(s)] is the h-relation
    metric of the communication phase: the maximum over processors of
    [max(send, receive)], with the send and receive volumes of an event
    [(v, p1, p2, s)] both weighted by [c(v) * lambda(p1, p2)]. The total
    cost is the sum over all supersteps [0 .. num_supersteps - 1]; every
    superstep pays the latency [l] whether or not it communicates. *)

type superstep = {
  work_max : int;  (** C_work(s) *)
  comm_max : int;  (** C_comm(s), before multiplying by [g] *)
  cost : int;  (** C(s) = work_max + g * comm_max + l *)
}

type breakdown = {
  total : int;
  work_total : int;  (** sum of C_work(s) *)
  comm_total : int;  (** sum of g * C_comm(s) *)
  latency_total : int;  (** num_supersteps * l *)
  supersteps : superstep array;
}

val total : Machine.t -> Schedule.t -> int
(** Total schedule cost. Does not verify validity. Allocates O(S * p)
    words for [S] supersteps, independent of the node count. *)

val superstep_cost : Machine.t -> work_max:int -> comm_max:int -> int
(** [superstep_cost m ~work_max ~comm_max] is
    [work_max + g * comm_max + l] — the single-superstep cost formula,
    shared with the incremental cost tables of the local search so the
    two can never drift apart. *)

val breakdown : Machine.t -> Schedule.t -> breakdown

val cost_bound : Machine.t -> Dag.t -> int option
(** [cost_bound m dag] bounds {!total} from above for every schedule of
    [dag] on [m] that places each node at most once per processor, sends
    each value to each processor at most once and has at most
    [max 1 n] supersteps, which covers every schedule the framework
    builds: [p * W + g * (p - 1) * lambda_max * C + l * max 1 n], with
    [W] and [C] the DAG's total work and communication weights. It is
    computed with overflow-checked arithmetic and is [None] when it
    exceeds [max_int]. *)

val tables :
  Machine.t ->
  Schedule.t ->
  num_steps:int ->
  int array array * int array array * int array array
(** [tables m t ~num_steps] returns the raw per-superstep/per-processor
    [(work, send, recv)] tables, each of size [num_steps x p], from which
    the cost formula is assembled. Exposed for the incremental
    data structures of the local search and for tests that cross-check
    them. *)
