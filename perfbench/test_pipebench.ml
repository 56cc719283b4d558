(* Tests of the benchmark itself: compile lists, arithmetic, metric
   names, the output oracle and the composed MILP-map rung. *)

open Pipebench

let names w = List.map Suite.compile_name (Suite.compiles w)

(* The compile list is fixed; the seed drives the stimulus alone. *)
let test_seeded_inputs () =
  List.iter
    (fun (n, w) ->
      Alcotest.(check (list string)) (n ^ ": same compile list") (names w) (names w))
    Suite.workloads;
  let c = List.hd (Suite.compiles Suite.Exact_table) in
  let g = c.inst.build () in
  let stim seed = Oracle.stimulus ~seed ~id:c.id g in
  let names = ref [] in
  Ir.Cdfg.iter
    (fun nd -> match nd.op with Ir.Op.Input name -> names := name :: !names | _ -> ())
    g;
  let inputs = List.concat_map (fun iter -> List.map (fun n -> (iter, n)) !names) (List.init 8 Fun.id) in
  let values seed = List.map (fun (iter, name) -> stim seed ~iter ~name) inputs in
  Alcotest.(check (list int64)) "same seed, same stimulus" (values 7) (values 7);
  Alcotest.(check bool) "another seed, another stimulus" true (values 7 <> values 8)

let test_compile_lists () =
  let count w = List.length (Suite.compiles w) in
  Alcotest.(check int) "exact-table: 9 MILP-base + 6 MILP-map" 15 (count Suite.Exact_table);
  Alcotest.(check int) "budgeted-map: CLZ, XORR, MT" 3 (count Suite.Budgeted_map);
  Alcotest.(check int) "heuristic-scaled: 53 instances x 2 flows" 106
    (count Suite.Heuristic_scaled);
  Alcotest.(check int) "sdc-scaled: 34 instances" 34 (count Suite.Sdc_scaled)

let close = Alcotest.float 1e-12

let test_arithmetic () =
  Alcotest.check close "geomean" 4.0 (Stats.geomean [ 1.0; 4.0; 16.0 ]);
  Alcotest.check close "geomean of one" 0.5 (Stats.geomean [ 0.5 ]);
  Alcotest.check close "frac" 0.25 (Stats.frac 1 4);
  Alcotest.check close "frac of nothing" 0.0 (Stats.frac 0 0);
  Alcotest.check close "ratio over 0" 0.0 (Stats.ratio 3.0 0.0);
  Alcotest.check close "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "median even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, _, q3 = Stats.quartiles [ 2.0; 1.0 ] in
  Alcotest.check close "q1 of two" 0.75 q1;
  Alcotest.check close "q3 of two" 2.25 q3

let test_metric_names () =
  let all = Catalogue.end_to_end @ Catalogue.per_layer in
  List.iter
    (fun (c : Catalogue.metric) ->
      Alcotest.(check bool) (c.name ^ " is a valid name") true (Stats.valid_name c.name))
    all;
  let names = List.map (fun (c : Catalogue.metric) -> c.name) all in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun bad -> Alcotest.(check bool) (bad ^ " is rejected") false (Stats.valid_name bad))
    [ ""; ".s"; "a b"; "gap/mean"; String.make 65 'a' ]

(* BENCHMARK.json lists exactly the catalogue. *)
let test_benchmark_json () =
  let json =
    match Obs.Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  in
  let listed key =
    match Obs.Json.member key json with
    | Some (Obs.Json.List l) ->
        List.map
          (fun m ->
            match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
            | Some (Obs.Json.String n), Some (Obs.Json.String u) -> (n, u)
            | _ -> Alcotest.failf "%s: entry without name/unit" key)
          l
    | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key
  in
  let ours l = List.map (fun (c : Catalogue.metric) -> (c.name, c.unit)) l in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (ours Catalogue.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer" (ours Catalogue.per_layer) (listed "per_layer");
  let workloads =
    match Obs.Json.member "workloads" json with
    | Some (Obs.Json.List l) ->
        List.filter_map
          (fun w ->
            match Obs.Json.member "name" w with Some (Obs.Json.String n) -> Some n | _ -> None)
          l
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" (List.map fst Suite.workloads) workloads

let find_compile w name =
  List.find (fun c -> Suite.compile_name c = name) (Suite.compiles w)

let compiled w name =
  let c = find_compile w name in
  let g = c.inst.build () in
  match Compose.compile w c g with
  | Ok s -> (c, g, s)
  | Error e -> Alcotest.failf "%s: %s" name e

let test_oracle_canary () =
  let w = Suite.Heuristic_scaled in
  let c, g, s = compiled w "GFMUL w4/HLS Tool" in
  let r = Oracle.reference ~seed:1 c g in
  Alcotest.(check (list string)) "a correct compile passes" [] (Oracle.failures w c r s);
  let wrong_stimulus = { r with stim = (Oracle.reference ~seed:2 c g).stim } in
  Alcotest.(check bool)
    "a wrong stimulus is counted as failed" true
    (Oracle.failures w c wrong_stimulus s <> []);
  let expected = Array.map Array.copy r.expected in
  expected.(0).(3) <- Int64.logxor expected.(0).(3) 1L;
  Alcotest.(check bool)
    "a wrong result is counted as failed" true
    (Oracle.failures w c { r with expected } s <> []);
  Alcotest.(check bool)
    "a degraded compile is counted as failed" true
    (Oracle.failures w c r { s with trail = [ "hls.full: exception" ] } <> [])

let test_oracle_milp_rows () =
  let w = Suite.Exact_table in
  let c, g, s = compiled w "RS/MILP-base" in
  let r = Oracle.reference ~seed:1 c g in
  Alcotest.(check (list string)) "an optimal, audited row passes" [] (Oracle.failures w c r s);
  let m = Option.get s.milp in
  Alcotest.(check bool)
    "a row that is not optimal fails" true
    (Oracle.failures w c r { s with milp = Some { m with status = Lp.Milp.Feasible } } <> []);
  Alcotest.(check bool)
    "audit errors fail" true
    (Oracle.failures w c r { s with audit_errors = Some 1 } <> []);
  let w = Suite.Budgeted_map in
  let c = find_compile w "CLZ/MILP-map@60n" in
  let timed_out =
    { s with milp = Some { m with status = Lp.Milp.Feasible; stats = { m.stats with nodes = 7 } } }
  in
  Alcotest.(check bool)
    "a budgeted row stopped by the time safety net fails" true
    (List.exists
       (fun f -> String.starts_with ~prefix:"stopped on the time safety net" f)
       (Oracle.failures w c r timed_out))

(* With no node budget, the composed rung must be Flow.run's MILP-map.
   Two cheap kernels here; every traced exact-table run repeats the check
   on all six exact MILP-map rows, GSM's 713-node tree included. *)
let test_composition () =
  List.iter
    (fun name ->
      let inst = Suite.entry name in
      let g = inst.build () in
      let setup = Suite.setup_of Suite.Budgeted_map inst in
      let flow =
        match Mams.Flow.run setup Mams.Flow.Milp_map g with
        | Ok r -> Oracle.signature (Compose.of_flow r g)
        | Error e -> Alcotest.failf "%s: Flow.run: %s" name e
      in
      let composed =
        match Compose.milp Compose.untraced (Compose.env_of setup) ~mapping_aware:true g with
        | Ok s -> Oracle.signature s
        | Error e -> Alcotest.failf "%s: composed: %s" name e
      in
      Alcotest.(check string)
        (name ^ ": composed rung = Flow.run MILP-map")
        (Fmt.str "%a" Oracle.pp_signature flow)
        (Fmt.str "%a" Oracle.pp_signature composed))
    [ "GFMUL"; "RS" ]

let () =
  Alcotest.run "pipebench"
    [
      ( "suite",
        [
          Alcotest.test_case "seeded inputs" `Quick test_seeded_inputs;
          Alcotest.test_case "compile list sizes" `Quick test_compile_lists;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "geomean, fraction and quartiles" `Quick test_arithmetic;
          Alcotest.test_case "metric names" `Quick test_metric_names;
          Alcotest.test_case "BENCHMARK.json matches" `Quick test_benchmark_json;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "canary" `Quick test_oracle_canary;
          Alcotest.test_case "MILP row conditions" `Quick test_oracle_milp_rows;
        ] );
      ( "compose",
        [ Alcotest.test_case "budgeted rung reproduces Flow.run" `Slow test_composition ] );
    ]
