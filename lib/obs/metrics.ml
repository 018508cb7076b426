let src = Logs.Src.create "bsp.obs" ~doc:"Scheduler observability layer"

module Log = (val Logs.src_log src : Logs.LOG)

type span = {
  path : string;
  mutable calls : int;
  mutable seconds : float;
  mutable steps : int;
}

type span_stats = { path : string; calls : int; seconds : float; steps_used : int }

(* A gauge remembers how it was last written so that a deterministic
   child-registry merge can replay the right combination rule: plain
   [set] gauges are last-writer-wins (in submission order), [set_max]
   gauges keep the running maximum across children. *)
type gauge = { mutable g_value : float; mutable g_is_max : bool }

(* A series is a bounded two-stack queue: appends push onto [s_back],
   evictions pop from [s_front] (reversing the back on demand), so both
   ends are amortised O(1) and a long-running daemon's per-request
   series cannot grow without limit. Evictions are counted — the drop
   counter is part of the snapshot, never silent. *)
type series = {
  mutable s_front : (string * float) list;  (* oldest first *)
  mutable s_back : (string * float) list;  (* newest first *)
  mutable s_len : int;
  mutable s_dropped : int;
}

(* Log-bucketed histogram: 64 base-2 buckets spanning ~1 ns to ~270
   years when values are seconds. Fixed flat layout so recording is a
   few array writes and the child-registry merge is element-wise
   addition — the bucket contents are bit-deterministic regardless of
   recording order, which is what makes the merge contract exact. *)
let num_buckets = 64

(* Bucket [i] holds values in (2^(min_exp+i), 2^(min_exp+i+1)]-ish:
   [Float.frexp v] gives the exponent [e] with 2^(e-1) <= v < 2^e and
   the index clamps [e - 1 - min_exp] into range, so bucket 0 also
   absorbs zero/negative/denormal values and the last bucket absorbs
   everything huge. *)
let min_exp = -30

let bucket_index v =
  if not (Float.is_finite v) || v <= 0.0 then
    if Float.is_finite v || v < 0.0 then 0 else num_buckets - 1
  else
    let _, e = Float.frexp v in
    let i = e - 1 - min_exp in
    if i < 0 then 0 else if i >= num_buckets then num_buckets - 1 else i

let bucket_upper i = Float.ldexp 1.0 (min_exp + i + 1)
let bucket_lower i = if i = 0 then 0.0 else Float.ldexp 1.0 (min_exp + i)

type histogram = {
  h_counts : int array;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

type histogram_stats = {
  count : int;
  sum : float;
  min_value : float;
  max_value : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let default_series_cap = 10_000

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  series : (string, series) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
  span_table : (string, span) Hashtbl.t;
  series_cap : int;
  mutable stack : string list;  (* enclosing span names, innermost first *)
  mutable on_span_close : (path:string -> seconds:float -> steps:int -> unit) option;
}

let create ?(series_cap = default_series_cap) () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    series = Hashtbl.create 8;
    histograms = Hashtbl.create 8;
    span_table = Hashtbl.create 16;
    series_cap = max 1 series_cap;
    stack = [];
    on_span_close = None;
  }

let on_span_close t f = t.on_span_close <- Some f

let series_cap t = t.series_cap

(* ------------------------------------------------------------------ *)
(* Recording against an explicit registry.                             *)

let add t name by =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let set t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some g ->
    g.g_value <- v;
    g.g_is_max <- false
  | None -> Hashtbl.add t.gauges name { g_value = v; g_is_max = false }

let set_max t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some g ->
    if v > g.g_value then g.g_value <- v;
    g.g_is_max <- true
  | None -> Hashtbl.add t.gauges name { g_value = v; g_is_max = true }

let series_slot t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s
  | None ->
    let s = { s_front = []; s_back = []; s_len = 0; s_dropped = 0 } in
    Hashtbl.add t.series name s;
    s

let push_point t s pt =
  s.s_back <- pt :: s.s_back;
  if s.s_len >= t.series_cap then begin
    if s.s_front = [] then begin
      s.s_front <- List.rev s.s_back;
      s.s_back <- []
    end;
    (match s.s_front with _ :: tl -> s.s_front <- tl | [] -> ());
    s.s_dropped <- s.s_dropped + 1
  end
  else s.s_len <- s.s_len + 1

let point t name ~label v = push_point t (series_slot t name) (label, v)

let histogram_slot t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h =
      {
        h_counts = Array.make num_buckets 0;
        h_count = 0;
        h_sum = 0.0;
        h_min = infinity;
        h_max = neg_infinity;
      }
    in
    Hashtbl.add t.histograms name h;
    h

let observe t name v =
  let h = histogram_slot t name in
  let i = bucket_index v in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let span_record t path =
  match Hashtbl.find_opt t.span_table path with
  | Some s -> s
  | None ->
    let s = { path; calls = 0; seconds = 0.0; steps = 0 } in
    Hashtbl.add t.span_table path s;
    s

(* One span, two sinks: the registry [reg] (when given) and the flight
   recorder under [kind] (when given). A single clock reading at each
   end feeds both, so a recorder slice lasts exactly the seconds the
   registry adds for it, and the one [finally] closes both, so an
   exception still ends the slice. *)
let span ?budget ?kind reg name f =
  let path =
    match reg with
    | None -> name
    | Some t ->
      let path = String.concat "/" (List.rev (name :: t.stack)) in
      t.stack <- name :: t.stack;
      path
  in
  let t0 = Time_source.now () in
  (match kind with
   | Some k -> Events.begin_ ~arg:Events.no_arg ~ts:(Time_source.ns_of_seconds t0) k
   | None -> ());
  let steps0 = match budget with None -> 0 | Some b -> Budget.used_steps b in
  Fun.protect
    ~finally:(fun () ->
      let t1 = Time_source.now () in
      (match kind with
       | Some k -> Events.end_ ~arg:Events.no_arg ~ts:(Time_source.ns_of_seconds t1) k
       | None -> ());
      match reg with
      | None -> ()
      | Some t ->
        let dt = t1 -. t0 in
        let dsteps =
          match budget with None -> 0 | Some b -> Budget.used_steps b - steps0
        in
        (match t.stack with _ :: rest -> t.stack <- rest | [] -> ());
        let s = span_record t path in
        s.calls <- s.calls + 1;
        s.seconds <- s.seconds +. dt;
        s.steps <- s.steps + dsteps;
        (match t.on_span_close with
         | Some g -> g ~path ~seconds:dt ~steps:dsteps
         | None -> ()))
    f

(* ------------------------------------------------------------------ *)
(* The ambient registry. Instrumented modules record through these
   no-op-when-absent entry points, so uninstrumented runs (the default,
   including every benchmark loop) pay one domain-local load per stage
   and nothing per inner-loop iteration.

   The handle is domain-local (Domain.DLS), not a bare global: a
   registry is a single-writer structure, and under `Par` fan-out each
   task runs with its own child registry installed in its executing
   domain, merged back deterministically by the submitter. A bare
   global ref would race (and interleave span stacks) the moment two
   domains record concurrently.                                        *)

let ambient_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install r = Domain.DLS.set ambient_key (Some r)
let clear () = Domain.DLS.set ambient_key None
let current () = Domain.DLS.get ambient_key

let with_registry r f =
  let prev = current () in
  install r;
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key prev) f

let counter name by = match current () with None -> () | Some t -> add t name by
let gauge name v = match current () with None -> () | Some t -> set t name v
let gauge_max name v = match current () with None -> () | Some t -> set_max t name v

let series_point name ~label v =
  match current () with None -> () | Some t -> point t name ~label v

let histogram name v = match current () with None -> () | Some t -> observe t name v

(* A span with the recorder as its only sink: a begin/end pair and no
   registry work, so it allocates nothing beyond what [f] does. *)
let recorded kind f =
  Events.begin_ ~arg:Events.no_arg ~ts:Events.clock kind;
  match f () with
  | v ->
    Events.end_ ~arg:Events.no_arg ~ts:Events.clock kind;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Events.end_ ~arg:Events.no_arg ~ts:Events.clock kind;
    Printexc.raise_with_backtrace e bt

(* The recorder-off path costs one atomic load on top of the registry
   lookup; with neither sink the body runs bare. *)
let with_span ?budget name f =
  let reg = current () in
  if Events.enabled () then begin
    let kind = Events.register_kind name in
    match reg with None -> recorded kind f | Some _ -> span ?budget ~kind reg name f
  end
  else match reg with None -> f () | Some _ -> span ?budget reg name f

(* ------------------------------------------------------------------ *)
(* Parallel fan-out support: per-task child registries and their
   deterministic merge (DESIGN.md Section 5e).                         *)

(* The child inherits the parent's open-span context so that spans
   recorded inside a parallel task keep the same slash-joined paths
   they would have had sequentially ("pipeline/hc:bspg", not
   "hc:bspg"). It deliberately does not inherit [on_span_close]: live
   trace callbacks would otherwise fire concurrently from worker
   domains; merged spans still reach the final summary. *)
let create_child parent =
  let t = create ~series_cap:parent.series_cap () in
  t.stack <- parent.stack;
  t

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

(* Deterministic: iteration is over sorted keys, and callers merge
   children in submission order, so any jobs count yields the same
   final registry contents (modulo wall-clock seconds, which are
   genuinely measured). Counters, histogram buckets and span stats are
   additive — the exact Σ-steps invariant (span steps_used vs engine
   evaluation counters) survives the merge because both sides add up. *)
let merge_into ~into child =
  List.iter
    (fun k -> add into k !(Hashtbl.find child.counters k))
    (sorted_keys child.counters);
  List.iter
    (fun k ->
      let g = Hashtbl.find child.gauges k in
      if g.g_is_max then set_max into k g.g_value else set into k g.g_value)
    (sorted_keys child.gauges);
  List.iter
    (fun k ->
      (* Child points append after the parent's existing points in
         reading order, through the same capped push so the bound and
         drop accounting apply to merged points too. *)
      let cs = Hashtbl.find child.series k in
      let s = series_slot into k in
      List.iter (push_point into s) cs.s_front;
      List.iter (push_point into s) (List.rev cs.s_back);
      s.s_dropped <- s.s_dropped + cs.s_dropped)
    (sorted_keys child.series);
  List.iter
    (fun k ->
      let ch = Hashtbl.find child.histograms k in
      let h = histogram_slot into k in
      Array.iteri (fun i c -> h.h_counts.(i) <- h.h_counts.(i) + c) ch.h_counts;
      h.h_count <- h.h_count + ch.h_count;
      h.h_sum <- h.h_sum +. ch.h_sum;
      if ch.h_min < h.h_min then h.h_min <- ch.h_min;
      if ch.h_max > h.h_max then h.h_max <- ch.h_max)
    (sorted_keys child.histograms);
  List.iter
    (fun k ->
      let cs = Hashtbl.find child.span_table k in
      let s = span_record into k in
      s.calls <- s.calls + cs.calls;
      s.seconds <- s.seconds +. cs.seconds;
      s.steps <- s.steps + cs.steps)
    (sorted_keys child.span_table)

(* ------------------------------------------------------------------ *)
(* Reading and reporting.                                              *)

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with Some g -> Some g.g_value | None -> None

let series_values t name =
  match Hashtbl.find_opt t.series name with
  | Some s -> s.s_front @ List.rev s.s_back
  | None -> []

let series_dropped t name =
  match Hashtbl.find_opt t.series name with Some s -> s.s_dropped | None -> 0

(* Quantile by cumulative walk over the buckets, linear interpolation
   inside the bucket that crosses the rank, clamped to the observed
   [min, max] so single-point histograms report the point itself. *)
let histogram_quantile_of h q =
  if h.h_count = 0 then 0.0
  else begin
    let rank = q *. float_of_int h.h_count in
    let rec go i cum =
      if i >= num_buckets then h.h_max
      else
        let c = h.h_counts.(i) in
        if c > 0 && float_of_int (cum + c) >= rank then begin
          let lower = bucket_lower i and upper = bucket_upper i in
          let frac = (rank -. float_of_int cum) /. float_of_int c in
          let v = lower +. ((upper -. lower) *. frac) in
          Float.min h.h_max (Float.max h.h_min v)
        end
        else go (i + 1) (cum + c)
    in
    go 0 0
  end

let histogram_stats t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h ->
    Some
      {
        count = h.h_count;
        sum = h.h_sum;
        min_value = h.h_min;
        max_value = h.h_max;
        p50 = histogram_quantile_of h 0.5;
        p90 = histogram_quantile_of h 0.9;
        p99 = histogram_quantile_of h 0.99;
      }

let histogram_buckets t name =
  match Hashtbl.find_opt t.histograms name with
  | None -> []
  | Some h ->
    let acc = ref [] in
    for i = num_buckets - 1 downto 0 do
      if h.h_counts.(i) > 0 then acc := (bucket_upper i, h.h_counts.(i)) :: !acc
    done;
    !acc

let histogram_names t = sorted_keys t.histograms

let span_list t =
  List.map
    (fun k ->
      let s = Hashtbl.find t.span_table k in
      { path = s.path; calls = s.calls; seconds = s.seconds; steps_used = s.steps })
    (sorted_keys t.span_table)

let histogram_json t k =
  let h = Hashtbl.find t.histograms k in
  let buckets =
    List.map
      (fun (le, c) -> Json.Obj [ ("le", Json.Float le); ("count", Json.Int c) ])
      (histogram_buckets t k)
  in
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("min", Json.Float h.h_min);
      ("max", Json.Float h.h_max);
      ("p50", Json.Float (histogram_quantile_of h 0.5));
      ("p90", Json.Float (histogram_quantile_of h 0.9));
      ("p99", Json.Float (histogram_quantile_of h 0.99));
      ("buckets", Json.List buckets);
    ]

let to_json t =
  let counters =
    List.map
      (fun k -> (k, Json.Int !(Hashtbl.find t.counters k)))
      (sorted_keys t.counters)
  in
  let gauges =
    List.map
      (fun k -> (k, Json.Float (Hashtbl.find t.gauges k).g_value))
      (sorted_keys t.gauges)
  in
  let series =
    List.map
      (fun k ->
        ( k,
          Json.List
            (List.map
               (fun (label, v) ->
                 Json.Obj [ ("label", Json.String label); ("value", Json.Float v) ])
               (series_values t k)) ))
      (sorted_keys t.series)
  in
  let series_dropped =
    List.filter_map
      (fun k ->
        let s = Hashtbl.find t.series k in
        if s.s_dropped > 0 then Some (k, Json.Int s.s_dropped) else None)
      (sorted_keys t.series)
  in
  let histograms =
    List.map (fun k -> (k, histogram_json t k)) (sorted_keys t.histograms)
  in
  let spans =
    List.map
      (fun (s : span_stats) ->
        Json.Obj
          [
            ("path", Json.String s.path);
            ("calls", Json.Int s.calls);
            ("seconds", Json.Float s.seconds);
            ("steps_used", Json.Int s.steps_used);
          ])
      (span_list t)
  in
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("series", Json.Obj series);
      ("series_dropped", Json.Obj series_dropped);
      ("histograms", Json.Obj histograms);
      ("spans", Json.List spans);
    ]

let write_json_file t file =
  Atomic_file.write file (fun oc ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (version 0.0.4).                         *)

(* Metric names admit [a-zA-Z0-9_:] only; everything else (the dots in
   "server.requests") becomes an underscore. *)
let prom_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9' && i > 0)
        || c = '_' || c = ':'
      in
      if not ok then Bytes.set b i '_')
    b;
  Bytes.to_string b

let prom_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* Counters are suffixed [_total] per Prometheus naming convention;
   histograms expose the cumulative [_bucket]/[_sum]/[_count] triple
   (only buckets that own at least one observation, plus the mandatory
   [+Inf] bound — cumulative counts stay monotone over any bucket
   subset); spans flatten to two counters labelled by path. Series are
   JSON-only (a labelled point stream has no exposition equivalent),
   but their drop counters are exported so bounded retention is
   observable from the scrape. *)
let to_prometheus t =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter
    (fun k ->
      let n = prom_name k ^ "_total" in
      line "# TYPE %s counter" n;
      line "%s %d" n !(Hashtbl.find t.counters k))
    (sorted_keys t.counters);
  List.iter
    (fun k ->
      let n = prom_name k in
      line "# TYPE %s gauge" n;
      line "%s %s" n (prom_float (Hashtbl.find t.gauges k).g_value))
    (sorted_keys t.gauges);
  List.iter
    (fun k ->
      let h = Hashtbl.find t.histograms k in
      let n = prom_name k in
      line "# TYPE %s histogram" n;
      let cum = ref 0 in
      List.iter
        (fun (le, c) ->
          cum := !cum + c;
          line "%s_bucket{le=\"%s\"} %d" n (prom_float le) !cum)
        (histogram_buckets t k);
      line "%s_bucket{le=\"+Inf\"} %d" n h.h_count;
      line "%s_sum %s" n (prom_float h.h_sum);
      line "%s_count %d" n h.h_count)
    (sorted_keys t.histograms);
  let dropped =
    List.filter
      (fun k -> (Hashtbl.find t.series k).s_dropped > 0)
      (sorted_keys t.series)
  in
  if dropped <> [] then begin
    line "# TYPE obs_series_dropped_points_total counter";
    List.iter
      (fun k ->
        line "obs_series_dropped_points_total{series=\"%s\"} %d"
          (prom_label_value k)
          (Hashtbl.find t.series k).s_dropped)
      dropped
  end;
  let spans = span_list t in
  if spans <> [] then begin
    line "# TYPE bsp_span_seconds_total counter";
    List.iter
      (fun (s : span_stats) ->
        line "bsp_span_seconds_total{path=\"%s\"} %s" (prom_label_value s.path)
          (prom_float s.seconds))
      spans;
    line "# TYPE bsp_span_calls_total counter";
    List.iter
      (fun (s : span_stats) ->
        line "bsp_span_calls_total{path=\"%s\"} %d" (prom_label_value s.path) s.calls)
      spans
  end;
  Buffer.contents buf

let write_prometheus_file t file = Atomic_file.write_string file (to_prometheus t)

let log_summary t =
  List.iter
    (fun k -> Log.app (fun m -> m "counter %-40s %d" k (counter_value t k)))
    (sorted_keys t.counters);
  List.iter
    (fun k -> Log.app (fun m -> m "gauge   %-40s %g" k (Hashtbl.find t.gauges k).g_value))
    (sorted_keys t.gauges);
  List.iter
    (fun k ->
      match histogram_stats t k with
      | None -> ()
      | Some s ->
        Log.app (fun m ->
            m "histo   %-40s n=%d sum=%g p50=%g p90=%g p99=%g" k s.count s.sum s.p50
              s.p90 s.p99))
    (histogram_names t);
  List.iter
    (fun (s : span_stats) ->
      Log.app (fun m ->
          m "span    %-40s calls=%d %.4fs steps=%d" s.path s.calls s.seconds
            s.steps_used))
    (span_list t)
