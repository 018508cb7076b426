(** Test datasets (Appendix B.3).

    The paper builds datasets named [tiny], [small], [medium], [large]
    and [huge] from node-count intervals ([40,80], [250,500],
    [1000,2000], [5000,10000], [50000,100000]): fine-grained instances of
    all four generator families placed at the beginning/middle/end of
    each interval (with deep and wide variants of the iterative
    families), plus the coarse-grained database instances falling in the
    interval. A separate 10-instance training set is used to tune the
    initialisation heuristics (Appendix C.1).

    Reproducing the full sizes takes hours of scheduling time, so each
    dataset can be materialised at three {!scale}s; [Full] matches the
    paper, [Default] shrinks sizes and instance counts so that the whole
    benchmark harness completes in minutes, and [Smoke] is for tests.
    The shape of the experimental results is preserved across scales
    (see DESIGN.md, substitution 3). *)

type instance = {
  name : string;  (** e.g. ["cg-deep-455"] *)
  dag : Dag.t;
}

type t = { label : string; instances : instance list }

type scale = Smoke | Default | Full

val scale_of_string : string -> scale option
val scale_name : scale -> string

val training : scale:scale -> seed:int -> t
(** 10 fine-grained instances, n ranging over [[15, 2000]] at full scale:
    3 spmv and 7 iterative, grouped as in Tables 4-5. *)

val tiny : scale:scale -> seed:int -> t
val small : scale:scale -> seed:int -> t
val medium : scale:scale -> seed:int -> t
val large : scale:scale -> seed:int -> t
val huge : scale:scale -> seed:int -> t

val main_datasets : scale:scale -> seed:int -> t list
(** [tiny; small; medium; large] — the datasets of the main experiments
    (Sections 7.1, 7.2). *)

(** {1 Materialising the database}

    The paper's first contribution is a reusable database of
    computational DAGs (Section 5). These helpers write the generated
    datasets to disk in the hyperDAG format, one file per instance plus
    a [MANIFEST] listing name, node/edge counts and provenance, so the
    instances can be consumed by the CLI tools or external schedulers. *)

val write_dataset : dir:string -> t -> string list
(** Write every instance of a dataset as [<dir>/<label>/<name>.hdag];
    returns the file paths. Creates directories as needed. *)

val write_database : dir:string -> scale:scale -> seed:int -> string
(** Write the training, tiny..large and huge datasets plus a top-level
    [MANIFEST] file; returns the manifest path. *)
