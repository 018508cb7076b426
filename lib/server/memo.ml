(* A daemon session's in-process table (DESIGN.md Section 5h): inline
   hyperDAG bodies by their exact bytes, and warm cache entries by
   content address, under one lock and one byte budget. *)

let default_budget = 64 * 1024 * 1024

type body = {
  text : string;  (* the body's bytes, copied out of the request *)
  dag : Dag.t;
  hash : Fnv.t;  (* [Dag.structural_hash dag] *)
  body_size : int;
}

type warm = { entry : Cache.entry; escaped : string }
type stored = { warm : warm; ident : Cache.ident; warm_size : int }
type item = Body of int * body | Entry of string * stored

(* Parsed DAGs by physical identity, to find a DAG's structural hash. *)
module Dag_tbl = Hashtbl.Make (struct
  type t = Dag.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type t = {
  lock : Mutex.t;
  budget : int;
  mutable bytes : int;
  mutable live : int;  (* items in the tables; [order] may hold more *)
  bodies : (int, body list) Hashtbl.t;
  dags : body Dag_tbl.t;
  entries : (string, stored) Hashtbl.t;
  order : item Queue.t;  (* insertion order, oldest first *)
}

let create ?(budget = default_budget) () =
  {
    lock = Mutex.create ();
    budget;
    bytes = 0;
    live = 0;
    bodies = Hashtbl.create 64;
    dags = Dag_tbl.create 64;
    entries = Hashtbl.create 64;
    order = Queue.create ();
  }

let bytes t = Mutex.protect t.lock (fun () -> t.bytes)
let count name = Obs.Metrics.counter name 1

(* Unchecked native-endian 8-byte loads: the loops below stay in
   bounds, and neither the hash nor the comparison depends on byte
   order. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"

(* A hash of the bytes [\[pos, len)] of [text], in two interleaved lanes
   of eight bytes so that the multiplications do not wait on each other.
   It only picks the bucket: a body is found by comparing its bytes. *)
let body_hash text pos len =
  let h1 = ref (len - pos) and h2 = ref 0 and i = ref pos in
  while !i + 16 <= len do
    h1 := (!h1 lxor Int64.to_int (get64u text !i)) * 0x100000001b3;
    h2 := (!h2 lxor Int64.to_int (get64u text (!i + 8))) * 0x100000001b3;
    i := !i + 16
  done;
  while !i < len do
    h1 := (!h1 lxor Char.code (String.unsafe_get text !i)) * 0x100000001b3;
    incr i
  done;
  !h1 lxor (!h2 * 31)

(* Whether the stored body [a] equals the bytes [\[bpos, bstop)] of [b]. *)
let same_body a b bpos bstop =
  let len = String.length a in
  len = bstop - bpos
  &&
  let rec go i =
    if i + 8 <= len then (get64u a i : int64) = get64u b (bpos + i) && go (i + 8)
    else i >= len || (String.unsafe_get a i = String.unsafe_get b (bpos + i) && go (i + 1))
  in
  go 0

let is_live t = function
  | Body (h, b) -> List.memq b (Option.value ~default:[] (Hashtbl.find_opt t.bodies h))
  | Entry (key, s) -> (
    match Hashtbl.find_opt t.entries key with Some s' -> s' == s | None -> false)

let remove t item =
  (match item with
   | Body (h, b) ->
     (match List.filter (fun b' -> b' != b) (Hashtbl.find t.bodies h) with
      | [] -> Hashtbl.remove t.bodies h
      | rest -> Hashtbl.replace t.bodies h rest);
     Dag_tbl.remove t.dags b.dag;
     t.bytes <- t.bytes - b.body_size
   | Entry (key, s) ->
     Hashtbl.remove t.entries key;
     t.bytes <- t.bytes - s.warm_size);
  t.live <- t.live - 1

(* Oldest first until the new total fits. Replaced entries leave dead
   items in [order]; they are dropped when they reach its head, and the
   queue is compacted when they outnumber the live ones. *)
let insert t item size =
  t.bytes <- t.bytes + size;
  t.live <- t.live + 1;
  Queue.push item t.order;
  while t.bytes > t.budget do
    let oldest = Queue.pop t.order in
    if is_live t oldest then begin
      remove t oldest;
      count "server.memo_evictions"
    end
  done;
  if Queue.length t.order > (2 * t.live) + 64 then begin
    let keep = Queue.create () in
    Queue.iter (fun i -> if is_live t i then Queue.push i keep) t.order;
    Queue.clear t.order;
    Queue.transfer keep t.order
  end

(* The body is hashed and compared where it lies, so [text] may be a
   view of a reused buffer; only a miss that is stored copies it. *)
let parse_body t text ~pos ?(stop = String.length text) parse =
  let h = body_hash text pos stop in
  let found =
    Mutex.protect t.lock (fun () ->
        Option.bind (Hashtbl.find_opt t.bodies h)
          (List.find_opt (fun b -> same_body b.text text pos stop)))
  in
  match found with
  | Some b ->
    count "server.memo_hits";
    b.dag
  | None ->
    count "server.memo_misses";
    let dag = parse () in
    let body_size = stop - pos + (8 * Dag.heap_words dag) in
    if body_size <= t.budget then begin
      let text = String.sub text pos (stop - pos) in
      let b = { text; dag; hash = Dag.structural_hash dag; body_size } in
      Mutex.protect t.lock (fun () ->
          Hashtbl.replace t.bodies h
            (b :: Option.value ~default:[] (Hashtbl.find_opt t.bodies h));
          Dag_tbl.replace t.dags dag b;
          insert t (Body (h, b)) body_size)
    end;
    dag

let structural_hash t dag =
  match Mutex.protect t.lock (fun () -> Dag_tbl.find_opt t.dags dag) with
  | Some b -> b.hash
  | None -> Dag.structural_hash dag

(* An entry warmed for another DAG object of the same structure (the
   same instance read again from a file, or a body that differs only in
   its comments) serves this one with its schedule rebound to it. *)
let find_entry t key ~ident ~dag =
  let found =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some s when s.ident = ident -> Some s.warm
        | _ -> None)
  in
  match found with
  | Some w when w.entry.Cache.schedule.Schedule.dag == dag ->
    count "server.memo_hits";
    Some w
  | Some w when w.entry.Cache.schedule.Schedule.dag = dag ->
    count "server.memo_hits";
    let schedule = { w.entry.Cache.schedule with Schedule.dag } in
    Some { w with entry = { w.entry with Cache.schedule } }
  | _ ->
    count "server.memo_misses";
    None

(* [Obj.reachable_words] of the entry, from array lengths: its record
   (three fields), the boxed [seconds_budget] and the schedule with its
   DAG. *)
let entry_words (e : Cache.entry) = 4 + 2 + Schedule.heap_words e.Cache.schedule

let add_entry t key ~ident warm =
  let warm_size = String.length warm.escaped + (8 * entry_words warm.entry) in
  if warm_size <= t.budget then
    Mutex.protect t.lock (fun () ->
        Option.iter (fun s -> remove t (Entry (key, s))) (Hashtbl.find_opt t.entries key);
        let s = { warm; ident; warm_size } in
        Hashtbl.replace t.entries key s;
        insert t (Entry (key, s)) warm_size)
