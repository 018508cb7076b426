let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let read_json_file path =
  Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Obs.Json: emitter / parser.                                         *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        ("null", Obs.Json.Null);
        ("flag", Obs.Json.Bool true);
        ("n", Obs.Json.Int (-42));
        ("x", Obs.Json.Float 1.5);
        ("s", Obs.Json.String "a\"b\\c\n\t end");
        ( "list",
          Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ] );
      ]
  in
  let v2 = Obs.Json.of_string (Obs.Json.to_string v) in
  check_bool "roundtrip equal" true (v = v2)

let test_json_escaping () =
  let s = Obs.Json.to_string (Obs.Json.String "quote\" back\\ nl\n ctrl\x01") in
  check_str "escaped" {|"quote\" back\\ nl\n ctrl\u0001"|} s;
  (match Obs.Json.of_string s with
   | Obs.Json.String s2 -> check_str "parses back" "quote\" back\\ nl\n ctrl\x01" s2
   | _ -> Alcotest.fail "expected string")

(* Escaping copies runs of plain bytes whole; any mix of plain and
   escaped ASCII bytes, at either end or back to back, reads back. *)
let prop_json_string_roundtrip =
  Test_util.qtest ~count:300 "string escape round-trip"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\127') (int_bound 40))
    (fun s ->
      Obs.Json.of_string (Obs.Json.to_string_compact (Obs.Json.String s)) = Obs.Json.String s)

let test_json_nonfinite_floats () =
  check_str "nan is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.nan));
  check_str "inf is null" "null" (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_compact () =
  let v =
    Obs.Json.Obj
      [
        ("a", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Null ]);
        ("b", Obs.Json.Obj [ ("nested", Obs.Json.Bool false) ]);
      ]
  in
  let compact = Obs.Json.to_string_compact v in
  check_str "single line, no whitespace"
    {|{"a":[1,2.5,null],"b":{"nested":false}}|} compact;
  check_bool "compact and pretty parse to the same value" true
    (Obs.Json.of_string compact = Obs.Json.of_string (Obs.Json.to_string v))

(* Finite floats must survive emit/parse bit-exactly (the emitter picks
   the shortest of 15/16/17 significant digits that round-trips);
   non-finite ones are emitted as null by design. *)
let prop_json_float_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"floats round-trip through emit/parse"
       QCheck2.Gen.float (fun f ->
         if not (Float.is_finite f) then
           Obs.Json.to_string (Obs.Json.Float f) = "null"
         else
           match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float f)) with
           | Obs.Json.Float f' -> Int64.bits_of_float f' = Int64.bits_of_float f
           | Obs.Json.Int i ->
             (* Huge integer-valued floats may parse back as ints. *)
             float_of_int i = f
           | _ -> false))

let test_json_float_examples () =
  let roundtrips f =
    match Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float f)) with
    | Obs.Json.Float f' -> f' = f
    | _ -> false
  in
  check_bool "0.1 + 0.2 round-trips" true (roundtrips (0.1 +. 0.2));
  check_bool "pi round-trips" true (roundtrips (4.0 *. atan 1.0));
  check_bool "min_float round-trips" true (roundtrips min_float);
  check_bool "subnormal round-trips" true (roundtrips 1e-310)

let test_json_parse_errors () =
  let rejects s =
    try
      ignore (Obs.Json.of_string s : Obs.Json.t);
      Alcotest.fail ("accepted: " ^ s)
    with Obs.Json.Parse_error _ -> ()
  in
  rejects "";
  rejects "{";
  rejects "[1,]";
  rejects "1 2";
  rejects "{\"a\":}";
  rejects "tru"

(* ------------------------------------------------------------------ *)
(* Obs.Metrics: primitives.                                            *)

let test_metrics_counters_gauges () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.add r "c" 2;
  Obs.Metrics.add r "c" 3;
  check "counter sums" 5 (Obs.Metrics.counter_value r "c");
  check "unknown counter" 0 (Obs.Metrics.counter_value r "zzz");
  Obs.Metrics.set r "g" 1.0;
  Obs.Metrics.set r "g" 0.5;
  Alcotest.(check (option (float 0.0))) "gauge last write" (Some 0.5)
    (Obs.Metrics.gauge_value r "g");
  Obs.Metrics.set_max r "peak" 2.0;
  Obs.Metrics.set_max r "peak" 1.0;
  Alcotest.(check (option (float 0.0))) "gauge max keeps peak" (Some 2.0)
    (Obs.Metrics.gauge_value r "peak");
  Obs.Metrics.point r "s" ~label:"a" 1.0;
  Obs.Metrics.point r "s" ~label:"b" 2.0;
  check_bool "series ordered" true
    (Obs.Metrics.series_values r "s" = [ ("a", 1.0); ("b", 2.0) ])

let test_metrics_ambient_noop_without_registry () =
  Obs.Metrics.clear ();
  (* Must not raise, and spans must still run their body. *)
  Obs.Metrics.counter "c" 1;
  Obs.Metrics.gauge "g" 1.0;
  check "span runs body" 7 (Obs.Metrics.with_span "x" (fun () -> 7))

let test_metrics_span_paths_nest () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.with_registry r (fun () ->
      Obs.Metrics.with_span "pipeline" (fun () ->
          Obs.Metrics.with_span "hc:bspg" (fun () -> ());
          Obs.Metrics.with_span "hc:bspg" (fun () -> ());
          Obs.Metrics.with_span "hccs:bspg" (fun () -> ())));
  let spans = Obs.Metrics.span_list r in
  let paths = List.map (fun (s : Obs.Metrics.span_stats) -> s.path) spans in
  check_bool "nested paths" true
    (paths = [ "pipeline"; "pipeline/hc:bspg"; "pipeline/hccs:bspg" ]);
  let calls p =
    (List.find (fun (s : Obs.Metrics.span_stats) -> s.path = p) spans).Obs.Metrics.calls
  in
  check "repeated span accumulates calls" 2 (calls "pipeline/hc:bspg");
  check "outer called once" 1 (calls "pipeline")

let test_metrics_span_records_budget_steps () =
  let r = Obs.Metrics.create () in
  let b = Budget.steps 100 in
  Obs.Metrics.with_registry r (fun () ->
      Obs.Metrics.with_span ~budget:b "stage" (fun () ->
          Budget.charge b 42));
  match Obs.Metrics.span_list r with
  | [ s ] ->
    check_str "path" "stage" s.Obs.Metrics.path;
    check "steps from budget" 42 s.Obs.Metrics.steps_used
  | spans -> Alcotest.fail (Printf.sprintf "expected 1 span, got %d" (List.length spans))

let test_metrics_span_closes_on_exception () =
  let r = Obs.Metrics.create () in
  (try
     Obs.Metrics.with_registry r (fun () ->
         Obs.Metrics.with_span "outer" (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_bool "span closed" true
    (List.exists (fun (s : Obs.Metrics.span_stats) -> s.path = "outer")
       (Obs.Metrics.span_list r));
  (* The name stack unwound: new spans are top-level again. *)
  Obs.Metrics.with_registry r (fun () -> Obs.Metrics.with_span "next" (fun () -> ()));
  check_bool "stack unwound" true
    (List.exists (fun (s : Obs.Metrics.span_stats) -> s.path = "next")
       (Obs.Metrics.span_list r))

let test_metrics_with_registry_restores () =
  Obs.Metrics.clear ();
  let r = Obs.Metrics.create () in
  Obs.Metrics.with_registry r (fun () ->
      check_bool "installed" true (Obs.Metrics.current () = Some r));
  check_bool "restored to none" true (Obs.Metrics.current () = None)

(* ------------------------------------------------------------------ *)
(* Histograms: log-bucketed recording, quantiles, deterministic merge.  *)

let test_histogram_basic () =
  let r = Obs.Metrics.create () in
  check_bool "absent histogram" true (Obs.Metrics.histogram_stats r "h" = None);
  Obs.Metrics.observe r "h" 1.0;
  (match Obs.Metrics.histogram_stats r "h" with
   | Some s ->
     check "count" 1 s.Obs.Metrics.count;
     check_bool "sum" true (s.Obs.Metrics.sum = 1.0);
     (* A single observation pins every quantile to that value (clamped
        to [min,max]). *)
     check_bool "p50 = value" true (s.Obs.Metrics.p50 = 1.0);
     check_bool "p99 = value" true (s.Obs.Metrics.p99 = 1.0)
   | None -> Alcotest.fail "histogram missing after observe");
  Obs.Metrics.observe r "h" 3.0;
  Obs.Metrics.observe r "h" 0.25;
  (match Obs.Metrics.histogram_stats r "h" with
   | Some s ->
     check "count accumulates" 3 s.Obs.Metrics.count;
     check_bool "sum accumulates" true (s.Obs.Metrics.sum = 4.25);
     check_bool "min" true (s.Obs.Metrics.min_value = 0.25);
     check_bool "max" true (s.Obs.Metrics.max_value = 3.0);
     check_bool "quantiles ordered" true
       (s.Obs.Metrics.p50 <= s.Obs.Metrics.p90 && s.Obs.Metrics.p90 <= s.Obs.Metrics.p99);
     check_bool "quantiles clamped" true
       (s.Obs.Metrics.p50 >= 0.25 && s.Obs.Metrics.p99 <= 3.0)
   | None -> Alcotest.fail "histogram missing");
  check_bool "names" true (Obs.Metrics.histogram_names r = [ "h" ])

let test_histogram_buckets () =
  let r = Obs.Metrics.create () in
  (* Base-2 buckets: 1.0 lands in (1, 2], 0.75 in (0.5, 1]. *)
  Obs.Metrics.observe r "h" 1.0;
  Obs.Metrics.observe r "h" 0.75;
  Obs.Metrics.observe r "h" 0.75;
  check_bool "bucket upper bounds" true
    (Obs.Metrics.histogram_buckets r "h" = [ (1.0, 2); (2.0, 1) ]);
  (* Extremes do not crash and stay countable: zero and negatives fall
     into the first bucket, +inf/nan into the last. *)
  Obs.Metrics.observe r "edge" 0.0;
  Obs.Metrics.observe r "edge" (-3.0);
  Obs.Metrics.observe r "edge" infinity;
  Obs.Metrics.observe r "edge" nan;
  match Obs.Metrics.histogram_stats r "edge" with
  | Some s -> check "edge observations all counted" 4 s.Obs.Metrics.count
  | None -> Alcotest.fail "edge histogram missing"

(* The merge contract (PR: live daemon telemetry): recording a value
   stream split across child registries and merging them back must be
   indistinguishable — count, sum and bucket-exact — from recording the
   concatenated stream sequentially. Dyadic values (n/16) keep float
   sums exact so the comparison needs no tolerance. *)
let prop_histogram_merge_matches_sequential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"histogram merge = sequential recording"
       QCheck2.Gen.(pair (list (int_bound 2000)) (list (int_bound 2000)))
       (fun (xs, ys) ->
         let value n = float_of_int n /. 16.0 in
         let seq = Obs.Metrics.create () in
         List.iter (fun n -> Obs.Metrics.observe seq "h" (value n)) (xs @ ys);
         let parent = Obs.Metrics.create () in
         let c1 = Obs.Metrics.create_child parent in
         let c2 = Obs.Metrics.create_child parent in
         List.iter (fun n -> Obs.Metrics.observe c1 "h" (value n)) xs;
         List.iter (fun n -> Obs.Metrics.observe c2 "h" (value n)) ys;
         Obs.Metrics.merge_into ~into:parent c1;
         Obs.Metrics.merge_into ~into:parent c2;
         Obs.Metrics.histogram_buckets parent "h" = Obs.Metrics.histogram_buckets seq "h"
         &&
         match
           (Obs.Metrics.histogram_stats parent "h", Obs.Metrics.histogram_stats seq "h")
         with
         | None, None -> xs = [] && ys = []
         | Some a, Some b -> a = b
         | _ -> false))

let test_series_cap_drops () =
  let r = Obs.Metrics.create ~series_cap:5 () in
  check "cap readable" 5 (Obs.Metrics.series_cap r);
  for i = 1 to 8 do
    Obs.Metrics.point r "s" ~label:(string_of_int i) (float_of_int i)
  done;
  check "dropped count" 3 (Obs.Metrics.series_dropped r "s");
  check_bool "keeps the newest points" true
    (Obs.Metrics.series_values r "s"
    = [ ("4", 4.0); ("5", 5.0); ("6", 6.0); ("7", 7.0); ("8", 8.0) ]);
  (* The drop counter is part of the JSON snapshot. *)
  match Obs.Json.member "series_dropped" (Obs.Metrics.to_json r) with
  | Some dropped ->
    (match Obs.Json.member "s" dropped with
     | Some (Obs.Json.Int 3) -> ()
     | _ -> Alcotest.fail "series_dropped.s missing from JSON")
  | None -> Alcotest.fail "series_dropped missing from JSON"

(* ------------------------------------------------------------------ *)
(* Time_source: a fake clock makes span durations exact.              *)

let test_fake_clock_exact_span () =
  let t = ref 100.0 in
  let fake () =
    t := !t +. 1.5;
    !t
  in
  let r = Obs.Metrics.create () in
  Time_source.with_source fake (fun () ->
      Obs.Metrics.with_registry r (fun () ->
          Obs.Metrics.with_span "stage" (fun () -> ())));
  (match Obs.Metrics.span_list r with
   | [ s ] -> check_bool "exact seconds" true (s.Obs.Metrics.seconds = 1.5)
   | _ -> Alcotest.fail "expected exactly one span");
  (* The source is restored on exit. *)
  check_bool "restored" true (Time_source.now () > 1.0e9)

let test_fake_clock_budget_deadline () =
  let t = ref 0.0 in
  Time_source.with_source
    (fun () -> !t)
    (fun () ->
      let b = Budget.seconds 10.0 in
      check_bool "fresh deadline not exhausted" true (not (Budget.exhausted b));
      t := 9.0;
      check_bool "before deadline" true (not (Budget.exhausted b));
      t := 10.5;
      check_bool "past deadline" true (Budget.exhausted b))

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition.                                         *)

let test_prometheus_exposition () =
  let r = Obs.Metrics.create ~series_cap:1 () in
  Obs.Metrics.add r "server.requests" 3;
  Obs.Metrics.set r "server.queue_depth" 2.0;
  Obs.Metrics.observe r "req.seconds" 0.75;
  Obs.Metrics.observe r "req.seconds" 1.5;
  Obs.Metrics.point r "s" ~label:"a" 1.0;
  Obs.Metrics.point r "s" ~label:"b" 2.0;
  Obs.Metrics.with_registry r (fun () -> Obs.Metrics.with_span "stage" (fun () -> ()));
  let text = Obs.Metrics.to_prometheus r in
  let has line = List.mem line (String.split_on_char '\n' text) in
  check_bool "counter renamed and _total" true (has "server_requests_total 3");
  check_bool "counter TYPE" true (has "# TYPE server_requests_total counter");
  check_bool "gauge" true (has "server_queue_depth 2");
  check_bool "histogram TYPE" true (has "# TYPE req_seconds histogram");
  check_bool "cumulative bucket" true (has "req_seconds_bucket{le=\"1\"} 1");
  check_bool "+Inf bucket" true (has "req_seconds_bucket{le=\"+Inf\"} 2");
  check_bool "sum" true (has "req_seconds_sum 2.25");
  check_bool "count" true (has "req_seconds_count 2");
  check_bool "series drops exported" true
    (has "obs_series_dropped_points_total{series=\"s\"} 1");
  check_bool "span calls" true (has "bsp_span_calls_total{path=\"stage\"} 1");
  (* write_prometheus_file produces the same bytes, atomically. *)
  let path = Filename.temp_file "obs_prom" ".prom" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Metrics.write_prometheus_file r path;
      check_str "file matches to_prometheus" text
        (In_channel.with_open_bin path In_channel.input_all))

(* ------------------------------------------------------------------ *)
(* Obs.Events: the per-domain flight recorder.                         *)

let k_test_a = Obs.Events.register_kind "test_a"
let k_test_b = Obs.Events.register_kind "test_b"
let no_arg = Obs.Events.no_arg
let clock = Obs.Events.clock

let test_events_disabled_noop () =
  Obs.Events.disable ();
  Obs.Events.begin_ ~arg:no_arg ~ts:clock k_test_a;
  Obs.Events.end_ ~arg:no_arg ~ts:clock k_test_a;
  Obs.Events.instant ~arg:no_arg k_test_b;
  check_bool "disabled dump empty" true (Obs.Events.dump () = []);
  check "disabled recorded" 0 (Obs.Events.recorded ());
  check_bool "trace export refuses while disabled" true
    (try
       Obs.Events.write_chrome_trace "/nonexistent/never-written.json";
       false
     with Invalid_argument _ -> true)

let test_events_record_and_dump () =
  check_str "kind name interned" "test_a" (Obs.Events.kind_name k_test_a);
  check_bool "register is idempotent" true
    (Obs.Events.register_kind "test_a" = k_test_a);
  Obs.Events.enable ();
  Fun.protect ~finally:Obs.Events.disable (fun () ->
      Obs.Events.begin_ ~arg:7 ~ts:clock k_test_a;
      Obs.Events.end_ ~arg:7 ~ts:clock k_test_a;
      Obs.Events.instant ~arg:no_arg k_test_b;
      Obs.Events.sample k_test_b 42;
      check "recorded" 4 (Obs.Events.recorded ());
      check "no drops" 0 (Obs.Events.dropped ());
      match Obs.Events.dump () with
      | [ b; e; i; s ] ->
        check_bool "begin phase" true (b.Obs.Events.ev_phase = Obs.Events.Begin);
        check "begin arg" 7 b.Obs.Events.ev_arg;
        check_bool "end phase" true (e.Obs.Events.ev_phase = Obs.Events.End);
        check_bool "instant phase" true (i.Obs.Events.ev_phase = Obs.Events.Instant);
        check_bool "sample phase" true (s.Obs.Events.ev_phase = Obs.Events.Sample);
        check "sample value" 42 s.Obs.Events.ev_arg;
        check_bool "timestamps monotone" true
          (b.Obs.Events.ev_ts <= e.Obs.Events.ev_ts
          && e.Obs.Events.ev_ts <= i.Obs.Events.ev_ts);
        check_bool "same domain" true
          (b.Obs.Events.ev_domain = s.Obs.Events.ev_domain)
      | evs -> Alcotest.failf "expected 4 events, got %d" (List.length evs))

let test_events_ring_wrap () =
  (* The capacity floor is 1024; overflowing it must keep the newest
     events and count the overwritten ones as dropped. *)
  Obs.Events.enable ~capacity:1024 ();
  Fun.protect ~finally:Obs.Events.disable (fun () ->
      for i = 0 to 1499 do
        Obs.Events.instant ~arg:i k_test_a
      done;
      check "recorded counts overwritten too" 1500 (Obs.Events.recorded ());
      check "dropped" 476 (Obs.Events.dropped ());
      let evs = Obs.Events.dump () in
      check "retained = capacity" 1024 (List.length evs);
      check "oldest retained arg" 476 (List.hd evs).Obs.Events.ev_arg;
      check "newest retained arg" 1499
        (List.nth evs (List.length evs - 1)).Obs.Events.ev_arg)

(* The record path allocates nothing: the clock reading is an immediate
   nanosecond count and every argument a plain int, so 4000 events after
   a warm-up (which registers this domain's ring) add no minor-heap
   words — [Par]'s way of calling too (a task index and the caller's own
   timestamps), and a [with_span] with the recorder as its only sink. *)
let test_events_record_allocates_nothing () =
  Obs.Events.enable ();
  Fun.protect ~finally:Obs.Events.disable (fun () ->
      Obs.Events.instant ~arg:no_arg k_test_a;
      let w0 = Gc.minor_words () in
      for i = 1 to 1000 do
        Obs.Events.begin_ ~arg:no_arg ~ts:clock k_test_a;
        Obs.Events.end_ ~arg:no_arg ~ts:clock k_test_a;
        Obs.Events.instant ~arg:no_arg k_test_b;
        Obs.Events.sample k_test_b i
      done;
      let words = Gc.minor_words () -. w0 in
      check "events recorded" 4001 (Obs.Events.recorded ());
      check "minor words for 4000 events" 0 (int_of_float words);
      let w0 = Gc.minor_words () in
      for i = 1 to 1000 do
        let t = Time_source.now_ns () in
        Obs.Events.begin_ ~arg:i ~ts:t k_test_a;
        Obs.Events.instant ~arg:(i + 1) k_test_b;
        Obs.Events.span_at ~arg:i k_test_b ~start:t ~stop:(Time_source.now_ns ());
        Obs.Events.end_ ~arg:i ~ts:(Time_source.now_ns ()) k_test_a
      done;
      check "minor words for 5000 events with ~arg and ~ts" 0
        (int_of_float (Gc.minor_words () -. w0));
      let registry = Obs.Metrics.current () in
      Obs.Metrics.clear ();
      let body () = () in
      Obs.Metrics.with_span "test_span" body;
      let w0 = Gc.minor_words () in
      for _ = 1 to 1000 do
        Obs.Metrics.with_span "test_span" body
      done;
      let words = Gc.minor_words () -. w0 in
      Option.iter Obs.Metrics.install registry;
      check "minor words for 1000 recorder-only spans" 0 (int_of_float words);
      check "every event recorded" (4001 + 5000 + 2002) (Obs.Events.recorded ()))

let test_events_chrome_trace () =
  (* Deterministic timestamps via the fake clock: each now () call
     advances 1 ms and begin_/end_ are adjacent calls, so the span's
     "dur" is exactly 1000 us. *)
  let t = ref 0.0 in
  let path = Filename.temp_file "obs_flight" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.disable ();
      Sys.remove path)
    (fun () ->
      Time_source.with_source
        (fun () ->
          t := !t +. 0.001;
          !t)
        (fun () ->
          Obs.Events.enable ();
          Obs.Events.begin_ ~arg:3 ~ts:clock k_test_a;
          Obs.Events.end_ ~arg:3 ~ts:clock k_test_a;
          Obs.Events.instant ~arg:no_arg k_test_b;
          Obs.Events.sample k_test_b 5;
          Obs.Events.begin_ ~arg:no_arg ~ts:clock k_test_b;
          (* left open on purpose: must close at the track's last ts *)
          Obs.Events.write_chrome_trace path);
      let json = read_json_file path in
      let events =
        match Obs.Json.member "traceEvents" json with
        | Some (Obs.Json.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents"
      in
      let slices =
        List.filter
          (fun ev ->
            match Obs.Json.member "ph" ev with
            | Some (Obs.Json.String "X") -> true
            | _ -> false)
          events
      in
      check "two X slices (one the backstop-closed open span)" 2 (List.length slices);
      let slice_named name =
        List.find
          (fun ev -> Obs.Json.member "name" ev = Some (Obs.Json.String name))
          slices
      in
      (match Obs.Json.member "dur" (slice_named "test_a") with
       | Some (Obs.Json.Float d) -> check_bool "exact dur 1000us" true (d = 1000.0)
       | Some (Obs.Json.Int d) -> check "exact dur 1000us" 1000 d
       | _ -> Alcotest.fail "X slice has no dur");
      check_bool "domain track named" true
        (List.exists
           (fun ev ->
             Obs.Json.member "name" ev = Some (Obs.Json.String "thread_name")
             &&
             match Obs.Json.member "args" ev with
             | Some args -> Obs.Json.member "name" args = Some (Obs.Json.String "d0")
             | None -> false)
           events);
      check_bool "counter sample exported" true
        (List.exists
           (fun ev -> Obs.Json.member "ph" ev = Some (Obs.Json.String "C"))
           events))

(* ------------------------------------------------------------------ *)
(* Metrics.with_span feeds the flight recorder. A fake clock that
   advances by exactly 1.0 per reading makes every stamp predictable:
   [Events.enable] takes the first reading, then each span takes one
   at open and one at close.                                           *)

let with_span_sinks ?registry f =
  let t = ref 0.0 in
  let prev = Obs.Metrics.current () in
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.disable ();
      match prev with Some r -> Obs.Metrics.install r | None -> Obs.Metrics.clear ())
    (fun () ->
      (match registry with
       | Some r -> Obs.Metrics.install r
       | None -> Obs.Metrics.clear ());
      Time_source.with_source
        (fun () ->
          t := !t +. 1.0;
          !t)
        (fun () ->
          Obs.Events.enable ();
          f ();
          Obs.Events.dump ()))

let phase_name = function
  | Obs.Events.Begin -> "B"
  | Obs.Events.End -> "E"
  | Obs.Events.Instant -> "i"
  | Obs.Events.Sample -> "C"

let show_events evs =
  List.map
    (fun (e : Obs.Events.event) ->
      Printf.sprintf "%s %s %g" (phase_name e.ev_phase)
        (Obs.Events.kind_name e.ev_kind) e.ev_ts)
    evs

let test_spans_recorder_only () =
  let evs =
    with_span_sinks (fun () ->
        Obs.Metrics.with_span "a" (fun () -> Obs.Metrics.with_span "b" (fun () -> ())))
  in
  Alcotest.(check (list string))
    "well-nested pairs, exact stamps"
    [ "B a 2"; "B b 3"; "E b 4"; "E a 5" ]
    (show_events evs)

let test_spans_registry_matches_slices () =
  let r = Obs.Metrics.create () in
  let evs =
    with_span_sinks ~registry:r (fun () ->
        Obs.Metrics.with_span "a" (fun () ->
            Obs.Metrics.with_span "b" (fun () -> ());
            Obs.Metrics.with_span "b" (fun () -> ())))
  in
  Alcotest.(check (list string))
    "slices"
    [ "B a 2"; "B b 3"; "E b 4"; "B b 5"; "E b 6"; "E a 7" ]
    (show_events evs);
  let seconds path =
    (List.find (fun (s : Obs.Metrics.span_stats) -> s.path = path)
       (Obs.Metrics.span_list r))
      .Obs.Metrics.seconds
  in
  check_bool "a: registry seconds = slice duration" true (seconds "a" = 5.0);
  check_bool "a/b: registry seconds = summed slice durations" true
    (seconds "a/b" = 2.0)

let test_spans_raise_still_ends () =
  let evs =
    with_span_sinks (fun () ->
        try Obs.Metrics.with_span "a" (fun () -> failwith "boom") with Failure _ -> ())
  in
  Alcotest.(check (list string)) "end recorded" [ "B a 2"; "E a 3" ] (show_events evs)

(* Off, the recorder sees nothing and a span costs the registry its two
   clock readings, no more. *)
let test_spans_recorder_off () =
  Obs.Events.disable ();
  let r = Obs.Metrics.create () in
  let readings = ref 0 in
  Time_source.with_source
    (fun () ->
      incr readings;
      float_of_int !readings)
    (fun () ->
      Obs.Metrics.with_registry r (fun () ->
          Obs.Metrics.with_span "a" (fun () -> Obs.Metrics.with_span "b" (fun () -> ()))));
  check "no events recorded" 0 (Obs.Events.recorded ());
  check_bool "nothing to dump" true (Obs.Events.dump () = []);
  check "two clock readings per span" 4 !readings;
  check "registry still sees the spans" 2 (List.length (Obs.Metrics.span_list r))

(* ------------------------------------------------------------------ *)
(* The pipeline under a registry: step accounting, JSON validity, and
   the differential check that instrumentation does not change results. *)

(* No wall-clock component, so runs are deterministic. The HC/HCcs caps
   are ample (never clamped — bulk [Budget.charge] under-counts when
   clamped); the branch-and-bound caps may be hit without harming
   exactness, because every explored node performs exactly one tick. *)
let accounting_limits =
  {
    Experiment.default_options.Experiment.limits with
    Pipeline.hc_evals = 5_000_000;
    hccs_evals = 5_000_000;
    ilp_full_nodes = 1_500;
    ilp_cs_nodes = 200;
    stage_seconds = None;
  }

let accounting_instance () =
  let rng = Rng.create 7 in
  (Machine.uniform ~p:3 ~g:2 ~l:4, Finegrained.exp (Sparse_matrix.random rng ~n:5 ~q:0.3) ~k:2)

let test_pipeline_steps_accounting limits () =
  let machine, dag = accounting_instance () in
  let r = Obs.Metrics.create () in
  let _sched, _stage =
    Obs.Metrics.with_registry r (fun () -> Pipeline.run ~limits machine dag)
  in
  (* Every budget tick in the pipeline is one HC evaluation, one HCcs
     evaluation, or one branch-and-bound node, and each stage budget is
     fresh, so the per-span [steps_used] must sum to exactly those three
     counters. *)
  let span_total =
    List.fold_left
      (fun acc (s : Obs.Metrics.span_stats) -> acc + s.Obs.Metrics.steps_used)
      0 (Obs.Metrics.span_list r)
  in
  let counter_total =
    Obs.Metrics.counter_value r "hc.moves_evaluated"
    + Obs.Metrics.counter_value r "hccs.moves_evaluated"
    + Obs.Metrics.counter_value r "bb.nodes_explored"
  in
  check_bool "pipeline did work" true (span_total > 0);
  check "span steps match engine counters" counter_total span_total

let test_pipeline_metrics_json_valid () =
  let machine, dag = accounting_instance () in
  let r = Obs.Metrics.create () in
  let _ =
    Obs.Metrics.with_registry r (fun () ->
        Pipeline.run ~limits:accounting_limits machine dag)
  in
  let json = Obs.Json.of_string (Obs.Json.to_string (Obs.Metrics.to_json r)) in
  (* The snapshot reparses and carries the documented sections, and the
     JSON numbers agree with the registry. *)
  let section name =
    match Obs.Json.member name json with
    | Some v -> v
    | None -> Alcotest.fail ("missing section " ^ name)
  in
  (match Obs.Json.member "hc.moves_evaluated" (section "counters") with
   | Some v ->
     Alcotest.(check (option int)) "counter in json"
       (Some (Obs.Metrics.counter_value r "hc.moves_evaluated"))
       (Obs.Json.to_int_opt v)
   | None -> Alcotest.fail "hc.moves_evaluated not in counters");
  (match section "spans" with
   | Obs.Json.List spans ->
     check "all spans serialised" (List.length (Obs.Metrics.span_list r))
       (List.length spans);
     List.iter
       (fun s ->
         check_bool "span has steps_used" true
           (Option.is_some (Obs.Json.member "steps_used" s)))
       spans
   | _ -> Alcotest.fail "spans not a list");
  match section "series" with
  | Obs.Json.Obj fields -> check_bool "best-cost trajectory recorded" true
      (List.mem_assoc "pipeline.best_cost" fields)
  | _ -> Alcotest.fail "series not an object"

let test_pipeline_instrumentation_differential () =
  (* With [stage_seconds = None] the pipeline is deterministic, so a run
     with a registry installed, or with the flight recorder on, must
     produce exactly the same schedule as one without. *)
  let machine, dag = accounting_instance () in
  let bare, bare_stage = Pipeline.run ~limits:accounting_limits machine dag in
  let r = Obs.Metrics.create () in
  let registry_run =
    Obs.Metrics.with_registry r (fun () ->
        Pipeline.run ~limits:accounting_limits machine dag)
  in
  Obs.Events.enable ();
  let recorder_run =
    Fun.protect ~finally:Obs.Events.disable (fun () ->
        let run = Pipeline.run ~limits:accounting_limits machine dag in
        check_bool "recorder saw the run" true (Obs.Events.recorded () > 0);
        run)
  in
  List.iter
    (fun (name, (sched, stage)) ->
      check_str (name ^ ": same schedule") (Schedule_io.to_string bare)
        (Schedule_io.to_string sched);
      check (name ^ ": same init cost") bare_stage.Pipeline.init_cost
        stage.Pipeline.init_cost;
      check (name ^ ": same after_local_search") bare_stage.Pipeline.after_local_search
        stage.Pipeline.after_local_search;
      check_str (name ^ ": same winning initialiser") bare_stage.Pipeline.best_init_name
        stage.Pipeline.best_init_name)
    [ ("registry", registry_run); ("recorder", recorder_run) ]

let test_write_json_file () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.add r "a" 1;
  let path = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Metrics.write_json_file r path;
      let ic = open_in path in
      let text =
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
      in
      match Obs.Json.member "counters" (Obs.Json.of_string text) with
      | Some (Obs.Json.Obj [ ("a", Obs.Json.Int 1) ]) -> ()
      | _ -> Alcotest.fail "file snapshot malformed")

(* ------------------------------------------------------------------ *)
(* Text I/O spans: the one-shot CLI and the stdio daemon attribute
   their parse and write-out time to named spans.                     *)

let span_paths json =
  match Obs.Json.member "spans" json with
  | Some (Obs.Json.List spans) ->
    List.filter_map
      (fun s ->
        match Obs.Json.member "path" s with Some (Obs.Json.String p) -> Some p | _ -> None)
      spans
  | _ -> []

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* [f] gets a function naming files in a fresh directory, removed after. *)
let with_temp_dir f =
  let dir = Filename.temp_dir "obs_io" "" in
  Fun.protect ~finally:(fun () -> remove dir) (fun () -> f (Filename.concat dir))

let check_spans expected paths =
  List.iter (fun p -> check_bool ("span " ^ p) true (List.mem p paths)) expected

let test_cli_io_spans () =
  with_temp_dir (fun file ->
      let scheduler =
        Filename.concat (Filename.dirname Sys.executable_name)
          (Filename.concat Filename.parent_dir_name "bin/scheduler.exe")
      in
      Hyperdag_io.write_file (file "in.hdag") (Test_util.diamond ());
      let cmd =
        Filename.quote_command scheduler ~stdout:(file "stdout")
          [ file "in.hdag"; "-a"; "bspg"; "-p"; "2"; "-q"; "--metrics"; file "metrics.json";
            "-o"; file "out.schedule" ]
      in
      check "scheduler exit code" 0 (Sys.command cmd);
      check_spans
        [ "cli:parse"; "scheduler:bspg"; "cli:validity"; "cli:cost"; "cli:write" ]
        (span_paths (read_json_file (file "metrics.json"))))

(* The run-level gauges describe the schedule the CLI writes, for every
   algorithm, as [evaluate] reads it back. On this spmv instance a
   multilevel run's last coarse solve (a pipeline of its own) costs
   more than the returned schedule, so a gauge left by an inner
   pipeline would show. *)
let test_cli_metrics_describe_schedule () =
  with_temp_dir (fun file ->
      let bin name =
        Filename.concat (Filename.dirname Sys.executable_name)
          (Filename.concat Filename.parent_dir_name ("bin/" ^ name ^ ".exe"))
      in
      let dag =
        Finegrained.generate_sized (Rng.create 3) ~family:Finegrained.Spmv
          ~shape:Finegrained.Wide ~target:300
      in
      Hyperdag_io.write_file (file "in.hdag") dag;
      let machine = [ "-p"; "8"; "-g"; "1"; "-l"; "5" ] in
      List.iter
        (fun algorithm ->
          let run = Filename.quote_command (bin "scheduler") ~stdout:(file "stdout")
              ([ file "in.hdag"; "-a"; algorithm; "--seconds"; "2"; "-q"; "--metrics";
                 file "metrics.json"; "-o"; file "out.schedule" ] @ machine)
          in
          check (algorithm ^ ": scheduler exit code") 0 (Sys.command run);
          let eval = Filename.quote_command (bin "evaluate") ~stdout:(file "eval")
              ([ file "in.hdag"; file "out.schedule" ] @ machine)
          in
          check (algorithm ^ ": evaluate exit code") 0 (Sys.command eval);
          let steps, cost =
            Scanf.sscanf
              (In_channel.with_open_bin (file "eval") In_channel.input_all)
              "valid schedule: %d supersteps, cost %d" (fun s c -> (s, c))
          in
          let gauges =
            match Obs.Json.member "gauges" (read_json_file (file "metrics.json")) with
            | Some g -> g
            | None -> Alcotest.fail "no gauges"
          in
          let gauge name =
            match Obs.Json.member name gauges with
            | Some (Obs.Json.Float x) -> int_of_float x
            | Some (Obs.Json.Int x) -> x
            | _ -> Alcotest.failf "%s: no %s gauge" algorithm name
          in
          check (algorithm ^ ": pipeline.final_cost") cost (gauge "pipeline.final_cost");
          check (algorithm ^ ": profile.num_supersteps") steps
            (gauge "profile.num_supersteps"))
        Server.Engine.algorithm_names)

let test_daemon_io_spans () =
  with_temp_dir (fun file ->
      let r = Obs.Metrics.create () in
      Out_channel.with_open_bin (file "in") (fun oc ->
          Server.Daemon.write_frame oc
            ("algorithm bspg\np 2\nhyperdag\n" ^ Hyperdag_io.to_string (Test_util.diamond ())));
      Obs.Metrics.with_registry r (fun () ->
          In_channel.with_open_bin (file "in") (fun ic ->
              Out_channel.with_open_bin (file "out") (fun oc ->
                  Server.Daemon.run_stdio ~cache_dir:(file "cache") ic oc)));
      check_spans
        [ "server:parse"; "server:request"; "server:encode" ]
        (List.map (fun (s : Obs.Metrics.span_stats) -> s.path) (Obs.Metrics.span_list r)))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          prop_json_string_roundtrip;
          Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite_floats;
          Alcotest.test_case "compact emitter" `Quick test_json_compact;
          Alcotest.test_case "float round-trip examples" `Quick test_json_float_examples;
          prop_json_float_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters + gauges" `Quick test_metrics_counters_gauges;
          Alcotest.test_case "ambient no-op" `Quick
            test_metrics_ambient_noop_without_registry;
          Alcotest.test_case "span paths nest" `Quick test_metrics_span_paths_nest;
          Alcotest.test_case "span budget steps" `Quick
            test_metrics_span_records_budget_steps;
          Alcotest.test_case "span closes on exception" `Quick
            test_metrics_span_closes_on_exception;
          Alcotest.test_case "with_registry restores" `Quick
            test_metrics_with_registry_restores;
          Alcotest.test_case "write_json_file" `Quick test_write_json_file;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "basic stats + quantiles" `Quick test_histogram_basic;
          Alcotest.test_case "bucket boundaries + extremes" `Quick
            test_histogram_buckets;
          prop_histogram_merge_matches_sequential;
        ] );
      ( "series cap",
        [ Alcotest.test_case "bounded retention + drops" `Quick test_series_cap_drops ] );
      ( "clock",
        [
          Alcotest.test_case "exact span via fake source" `Quick
            test_fake_clock_exact_span;
          Alcotest.test_case "budget deadline via fake source" `Quick
            test_fake_clock_budget_deadline;
        ] );
      ( "prometheus",
        [ Alcotest.test_case "text exposition" `Quick test_prometheus_exposition ] );
      ( "events",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_events_disabled_noop;
          Alcotest.test_case "record + dump" `Quick test_events_record_and_dump;
          Alcotest.test_case "ring wrap drops oldest" `Quick test_events_ring_wrap;
          Alcotest.test_case "chrome trace export" `Quick test_events_chrome_trace;
          Alcotest.test_case "record path allocates nothing" `Quick
            test_events_record_allocates_nothing;
        ] );
      ( "spans",
        [
          Alcotest.test_case "recorder alone: exact nested slices" `Quick
            test_spans_recorder_only;
          Alcotest.test_case "registry seconds equal slice durations" `Quick
            test_spans_registry_matches_slices;
          Alcotest.test_case "raising span still ends its slice" `Quick
            test_spans_raise_still_ends;
          Alcotest.test_case "recorder off records nothing" `Quick
            test_spans_recorder_off;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "steps accounting exact" `Quick
            (test_pipeline_steps_accounting accounting_limits);
          Alcotest.test_case "steps accounting exact with ILPinit" `Quick
            (test_pipeline_steps_accounting
               { accounting_limits with Pipeline.use_ilp_init = true });
          Alcotest.test_case "metrics json valid" `Quick test_pipeline_metrics_json_valid;
          Alcotest.test_case "instrumentation differential" `Quick
            test_pipeline_instrumentation_differential;
        ] );
      ( "io-spans",
        [
          Alcotest.test_case "cli parse, validity, cost and write spans" `Quick
            test_cli_io_spans;
          Alcotest.test_case "daemon parse and encode spans" `Quick test_daemon_io_spans;
          Alcotest.test_case "--metrics describes the written schedule, every -a" `Quick
            test_cli_metrics_describe_schedule;
        ] );
    ]
