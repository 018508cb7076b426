(** FNV-1a 64-bit hashing over explicit byte streams.

    The content-addressed schedule cache keys entries by a structural
    hash of (canonical DAG, machine, algorithm); this module is the
    shared primitive. It is deliberately {e not} [Hashtbl.hash]: cache
    directories outlive processes, so the hash must be a pure function
    of the bytes fed in, stable across runs, platforms and OCaml
    versions. Fold-style API: start from {!init}, thread the
    accumulator through {!byte}/{!int}/{!string}/{!int_array}. *)

type t = int64

val init : t
(** The FNV-1a 64-bit offset basis. *)

val byte : t -> int -> t
(** Fold one byte (low 8 bits of the argument). *)

val int : t -> int -> t
(** Fold an OCaml [int] as 8 little-endian bytes (sign-extended), so
    the result is identical on 32- and 64-bit platforms for values that
    fit both. *)

val string : t -> string -> t
(** Fold every byte of the string. *)

val int_array : t -> int array -> t
(** Fold each element with {!int}, in index order. *)

val int_array_prefix : t -> int array -> int -> t
(** [int_array_prefix h a len] folds [a.(0)] .. [a.(len - 1)] with
    {!int}, in index order: {!int_array} of the prefix, for arrays
    that are longer than what they hold. *)

val to_hex : t -> string
(** 16 lowercase hex digits — the cache filename form. *)
