(* Tests for the instrumentation layer: counter/timer semantics, JSON
   round-trips, and — the critical invariant — that instrumentation is
   purely additive: a fully instrumented flow yields the same QoR as a
   re-run with all counters reset. *)

let test_counter_accumulate_reset () =
  Obs.reset ();
  let c = Obs.Counter.get "test.counter" in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Obs.Counter.incr ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (Obs.Counter.value c);
  Alcotest.(check bool) "same name, same counter" true
    (Obs.Counter.value (Obs.Counter.get "test.counter") = 42);
  Alcotest.(check bool) "snapshot contains it" true
    (List.mem_assoc "test.counter" (Obs.counters ()));
  Obs.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Obs.Counter.value c);
  Alcotest.(check bool) "zero counters dropped from snapshot" false
    (List.mem_assoc "test.counter" (Obs.counters ()))

(* Busy-wait so elapsed wall time (the clock Timer uses since
   resilience-v2) tracks the burn duration closely in a single thread. *)
let burn secs =
  let t0 = Sys.time () in
  while Sys.time () -. t0 < secs do
    ignore (Sys.opaque_identity 1)
  done

(* Regression: a span entered while another span of the same timer is
   open used to add the inner interval twice (outer span already covers
   it). With 20ms outer + 20ms inner the buggy total is ~60ms, the
   correct total ~40ms. *)
let test_timer_nested_no_double_count () =
  Obs.reset ();
  let t = Obs.Timer.get "test.nested" in
  Obs.Timer.span t (fun () ->
      burn 0.02;
      Obs.Timer.span t (fun () -> burn 0.02));
  Alcotest.(check int) "both spans counted" 2 (Obs.Timer.count t);
  let e = Obs.Timer.elapsed t in
  Alcotest.(check bool)
    (Printf.sprintf "outermost-exit accumulation only (%.4fs)" e)
    true
    (e >= 0.035 && e < 0.055);
  (* exception in the inner span still unwinds the depth *)
  (try
     Obs.Timer.span t (fun () ->
         Obs.Timer.span t (fun () -> failwith "boom"))
   with Failure _ -> ());
  Obs.Timer.span t (fun () -> burn 0.01);
  Alcotest.(check bool) "depth recovered after raise" true
    (Obs.Timer.elapsed t < 0.08)

let test_timer_spans () =
  Obs.reset ();
  let t = Obs.Timer.get "test.timer" in
  let v = Obs.Timer.span t (fun () -> List.init 1000 Fun.id |> List.length) in
  Alcotest.(check int) "span returns the result" 1000 v;
  Alcotest.(check int) "one span" 1 (Obs.Timer.count t);
  Alcotest.(check bool) "non-negative elapsed" true (Obs.Timer.elapsed t >= 0.0);
  (* exceptions still record the span *)
  (try Obs.Timer.span t (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "span recorded on raise" 2 (Obs.Timer.count t);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes spans" 0 (Obs.Timer.count t)

let test_series () =
  Obs.reset ();
  let s = Obs.Series.get "test.series" in
  Obs.Series.add s ~x:0.5 ~y:10.0;
  Obs.Series.add s ~x:1.5 ~y:7.0;
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "insertion order"
    [ (0.5, 10.0); (1.5, 7.0) ]
    (Obs.Series.points s);
  Obs.reset ();
  Alcotest.(check int) "reset clears" 0 (List.length (Obs.Series.points s))

(* Satellite: Series memory is bounded. With PIPESYN_SERIES_CAP=8 a
   100-point stream keeps at most 8 uniformly strided points, always
   including the first, and the thinning is deterministic. *)
let test_series_cap_downsampling () =
  Obs.reset ();
  Unix.putenv "PIPESYN_SERIES_CAP" "8";
  let s = Obs.Series.get "test.capped" in
  let s2 = Obs.Series.get "test.capped2" in
  Unix.putenv "PIPESYN_SERIES_CAP" "";
  for i = 0 to 99 do
    Obs.Series.add s ~x:(float_of_int i) ~y:(float_of_int (2 * i));
    Obs.Series.add s2 ~x:(float_of_int i) ~y:(float_of_int (2 * i))
  done;
  Alcotest.(check int) "capacity from env" 8 (Obs.Series.capacity s);
  Alcotest.(check int) "all adds seen" 100 (Obs.Series.seen s);
  let pts = Obs.Series.points s in
  Alcotest.(check bool) "bounded by cap" true (List.length pts <= 8);
  Alcotest.(check bool) "kept more than one point" true (List.length pts >= 2);
  (match pts with
  | (x0, y0) :: _ ->
      Alcotest.(check (float 1e-9)) "first point kept" 0.0 x0;
      Alcotest.(check (float 1e-9)) "y preserved" 0.0 y0
  | [] -> Alcotest.fail "series empty");
  (* stored points are uniformly strided *)
  let xs = List.map fst pts in
  let rec diffs = function
    | a :: (b :: _ as r) -> (b -. a) :: diffs r
    | _ -> []
  in
  (match diffs xs with
  | [] -> Alcotest.fail "too few points for stride check"
  | d :: ds ->
      List.iter (fun d' -> Alcotest.(check (float 1e-9)) "uniform stride" d d') ds);
  (* identical streams thin identically *)
  Alcotest.(check bool) "deterministic thinning" true
    (Obs.Series.points s = Obs.Series.points s2);
  (* a fresh series with no override uses the default cap *)
  let s3 = Obs.Series.get "test.default_cap" in
  Alcotest.(check int) "default cap" Obs.Series.default_cap
    (Obs.Series.capacity s3);
  Obs.reset ()

let test_json_roundtrip_values () =
  let j =
    Obs.Json.(
      Obj
        [
          ("s", String "quote \" backslash \\ newline \n tab \t");
          ("i", Int (-42));
          ("f", Float 3.25);
          ("b", Bool true);
          ("n", Null);
          ("l", List [ Int 1; Float 0.5; String "x" ]);
          ("o", Obj [ ("nested", Bool false) ]);
        ])
  in
  match Obs.Json.of_string (Obs.Json.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' ->
      Alcotest.(check string) "round-trips" (Obs.Json.to_string j)
        (Obs.Json.to_string j')

let test_json_nonfinite_floats () =
  Alcotest.(check string) "nan is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null"
    (Obs.Json.to_string (Obs.Json.Float Float.infinity))

let test_json_rejects_garbage () =
  let bad s =
    match Obs.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "truncated object" true (bad "{\"a\": 1");
  Alcotest.(check bool) "trailing garbage" true (bad "{} x");
  Alcotest.(check bool) "bare word" true (bad "flase")

let sample_metrics =
  {
    Obs.Metrics.name = "GFMUL";
    method_ = "MILP-map";
    lut = 24;
    ff = 0;
    slack = 1.4;
    solve_s = Some 5.04;
    bnb_nodes = Some 55;
    lp_pivots = Some 1234;
    cuts_total = 195;
    first_incumbent_s = 0.8;
    final_gap = 0.02;
    status = "feasible";
    objective = 12.5;
    domains = 4;
    nodes_per_s = 10.9;
    cert_nodes = 55;
    audit_errors = Some 0;
    milp_cuts = 7;
    gap_closed_root = 0.25;
    checkpoints = 2;
    gc_minor_words = 123456.0;
    gc_major_words = 7890.0;
    diagnostics = [];
    degradation = [];
  }

let test_metrics_roundtrip () =
  let s = Obs.Json.to_string (Obs.Metrics.to_json sample_metrics) in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      match Obs.Metrics.of_json j with
      | Error e -> Alcotest.failf "of_json failed: %s" e
      | Ok m ->
          Alcotest.(check bool) "round-trips" true (m = sample_metrics))

(* Readers take the current schema only: a v3-era record (no
   convergence, solver, audit, supervision or GC fields; the legacy
   0.0/0 heuristic encoding) is rejected, naming a missing field,
   rather than read back with defaults. *)
let test_metrics_v3_rejected () =
  let s =
    {|{"name":"X","method":"HLS Tool","lut":1,"ff":2,"slack":0.5,
       "solve_s":0.0,"bnb_nodes":0,"cuts_total":3,"status":"heuristic"}|}
  in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      match Obs.Metrics.of_json j with
      | Ok _ -> Alcotest.fail "v3 record accepted"
      | Error e ->
          Alcotest.(check string) "first missing field named"
            "missing int field \"lp_pivots\"" e)

let test_metrics_file_shape () =
  Obs.reset ();
  Obs.Counter.incr ~by:7 (Obs.Counter.get "test.file_counter");
  let s = Obs.Json.to_string (Obs.Metrics.file ~results:[ sample_metrics ]) in
  match Obs.Json.of_string s with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
      Alcotest.(check bool) "schema_version present" true
        (Obs.Json.member "schema_version" j
        = Some (Obs.Json.Int Obs.Metrics.schema_version));
      (match Obs.Json.member "obs" j with
      | Some (Obs.Json.Obj kvs) ->
          Alcotest.(check bool) "obs snapshot embedded" true
            (List.mem_assoc "test.file_counter" kvs)
      | _ -> Alcotest.fail "missing obs object");
      (match Obs.Json.member "results" j with
      | Some (Obs.Json.List [ r ]) ->
          Alcotest.(check bool) "result name" true
            (Obs.Json.member "name" r = Some (Obs.Json.String "GFMUL"))
      | _ -> Alcotest.fail "missing results list");
      Obs.reset ()

(* A full instrumented flow: metrics are populated (bnb_nodes > 0 for the
   MILP), and a reset + re-run yields byte-identical QoR — instrumentation
   never perturbs scheduling or covering. *)
let test_flow_metrics_end_to_end () =
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let setup =
    { (Mams.Flow.default_setup ~device:Fpga.Device.figure1) with
      delays = Fpga.Delays.make ~logic:2.0 ~arith_base:1.6 ~arith_per_bit:0.2 ();
      time_limit = 30.0 }
  in
  let run () =
    match Mams.Flow.run setup Mams.Flow.Milp_map g with
    | Ok r -> r
    | Error e -> Alcotest.failf "flow failed: %s" e
  in
  Obs.reset ();
  let r1 = run () in
  let m = Mams.Flow.metrics ~name:"RS-kernel" r1 in
  Alcotest.(check string) "name stamped" "RS-kernel" m.Obs.Metrics.name;
  Alcotest.(check string) "method" "MILP-map" m.Obs.Metrics.method_;
  Alcotest.(check bool) "bnb_nodes > 0" true
    (match m.Obs.Metrics.bnb_nodes with Some n -> n > 0 | None -> false);
  Alcotest.(check bool) "cuts_total > 0" true (m.Obs.Metrics.cuts_total > 0);
  Alcotest.(check bool) "solve_s >= 0" true
    (match m.Obs.Metrics.solve_s with Some s -> s >= 0.0 | None -> false);
  Alcotest.(check bool) "lp_pivots > 0" true
    (match m.Obs.Metrics.lp_pivots with Some p -> p > 0 | None -> false);
  Alcotest.(check int) "lut mirrors qor" r1.Mams.Flow.qor.Sched.Qor.luts
    m.Obs.Metrics.lut;
  Alcotest.(check int) "ff mirrors qor" r1.Mams.Flow.qor.Sched.Qor.ffs
    m.Obs.Metrics.ff;
  (* global counters were fed by the run *)
  Alcotest.(check bool) "milp nodes counted" true
    (Obs.Counter.value (Obs.Counter.get "milp.bnb_nodes") > 0);
  Alcotest.(check bool) "cuts enumerated counted" true
    (Obs.Counter.value (Obs.Counter.get "cuts.enumerated") > 0);
  Alcotest.(check bool) "milp timer ran" true
    (Obs.Timer.elapsed (Obs.Timer.get "milp.solve") > 0.0);
  Alcotest.(check bool) "incumbent series non-empty" true
    (Obs.Series.points (Obs.Series.get "milp.incumbents") <> []);
  (* reset + re-run: identical QoR and schedule *)
  Obs.reset ();
  let r2 = run () in
  Alcotest.(check bool) "identical qor" true
    (r1.Mams.Flow.qor = r2.Mams.Flow.qor);
  Alcotest.(check bool) "identical schedule cycles" true
    (r1.Mams.Flow.schedule.Sched.Schedule.cycle
    = r2.Mams.Flow.schedule.Sched.Schedule.cycle);
  Alcotest.(check bool) "identical cover roots" true
    (Sched.Cover.roots r1.Mams.Flow.cover = Sched.Cover.roots r2.Mams.Flow.cover)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter accumulate/reset" `Quick
            test_counter_accumulate_reset;
          Alcotest.test_case "timer spans" `Quick test_timer_spans;
          Alcotest.test_case "timer nested spans don't double-count" `Quick
            test_timer_nested_no_double_count;
          Alcotest.test_case "series" `Quick test_series;
          Alcotest.test_case "series cap + downsampling" `Quick
            test_series_cap_downsampling;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip_values;
          Alcotest.test_case "non-finite floats" `Quick
            test_json_nonfinite_floats;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "record round-trip" `Quick test_metrics_roundtrip;
          Alcotest.test_case "v3 record rejected" `Quick
            test_metrics_v3_rejected;
          Alcotest.test_case "file shape" `Quick test_metrics_file_shape;
          Alcotest.test_case "flow end-to-end" `Quick
            test_flow_metrics_end_to_end;
        ] );
    ]
