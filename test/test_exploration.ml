(* Exploration pins at one domain: the exact node and pivot counts of the
   single-worker branch-and-bound, end to end through [Mams.Flow.run]
   with the CLI's setup (`pipesyn run -b K -m base|map -t 30 --domains
   1`), plus one checkpoint -> resume. Status and objective alone cannot
   see a change in node order; these counts can. A deliberate change to
   the search (branching rule, node LP, cut loop) must update them. *)

let flow_setup (e : Benchmarks.Registry.entry) =
  let device = Fpga.Device.make ~k:4 ~t_clk:e.t_clk () in
  {
    (Mams.Flow.default_setup ~device) with
    resources = e.resources;
    time_limit = 30.0;
    domains = Some 1;
  }

let check_counts name ~nodes ~pivots ~objective (s : Lp.Milp.stats) obj =
  Alcotest.(check int) (name ^ ": nodes") nodes s.Lp.Milp.nodes;
  Alcotest.(check int) (name ^ ": pivots") pivots s.Lp.Milp.lp_iterations;
  Alcotest.(check (float 1e-9)) (name ^ ": objective") objective obj

let check_flow bench method_ ~nodes ~pivots ~objective () =
  let e = Benchmarks.Registry.find bench in
  let name = bench ^ " " ^ Mams.Flow.method_name method_ in
  match Mams.Flow.run (flow_setup e) method_ (e.build ()) with
  | Error msg -> Alcotest.failf "%s: %s" name msg
  | Ok r -> (
      match (r.solve.milp_stats, r.solve.milp_objective) with
      | Some s, Some obj -> check_counts name ~nodes ~pivots ~objective s obj
      | _ -> Alcotest.failf "%s: no MILP solve" name)

let base = Mams.Flow.Milp_base
let map = Mams.Flow.Milp_map

(* --- checkpoint -> resume --------------------------------------------- *)

(* A knapsack with a unique optimum (the 2^i * 1e-6 perturbation) and a
   tree deep enough that the stop at [node_limit] leaves a wide
   frontier; cuts off so the tree does not close at the root. *)
let knapsack () =
  let n = 24 in
  let m = Lp.Model.create () in
  let xs =
    Array.init n (fun i -> Lp.Model.bool_var m (Printf.sprintf "x%d" i))
  in
  let w i = float_of_int (3 + ((i * 5) mod 11)) in
  let v i = float_of_int (7 + ((i * 7) mod 13)) +. Float.ldexp 1e-6 i in
  Lp.Model.add_le m
    (List.init n (fun i -> (w i, xs.(i))))
    (Array.fold_left ( +. ) 0.0 (Array.init n w) /. 2.0);
  Lp.Model.set_objective m (List.init n (fun i -> (-.v i, xs.(i))));
  m

let check_resume ~nodes ~pivots ~objective () =
  let path = Filename.temp_file "pipesyn_pin" ".json" in
  let sink =
    {
      Lp.Milp.ck_path = path;
      ck_every_s = 3600.0;
      ck_every_nodes = None;
      ck_meta = Obs.Json.Null;
    }
  in
  let cut =
    Lp.Milp.solve ~time_limit:60.0 ~node_limit:40 ~cuts:false ~domains:1
      ~checkpoint:sink (knapsack ())
  in
  Alcotest.(check int) "interrupted at the node limit" 40
    cut.Lp.Milp.stats.Lp.Milp.nodes;
  let ck =
    match Lp.Checkpoint.read ~path with
    | Ok ck -> ck
    | Error e -> Alcotest.failf "read checkpoint: %s" e
  in
  Sys.remove path;
  let r =
    Lp.Milp.solve ~time_limit:60.0 ~cuts:false ~domains:1 ~resume:ck
      (knapsack ())
  in
  Alcotest.(check string) "resumed to optimality" "optimal"
    (Fmt.str "%a" Lp.Milp.pp_status r.Lp.Milp.status);
  check_counts "resume" ~nodes ~pivots ~objective r.Lp.Milp.stats
    r.Lp.Milp.objective

let () =
  let pin name f = Alcotest.test_case name `Slow f in
  let flow bench m ~nodes ~pivots ~objective =
    pin
      (bench ^ " " ^ Mams.Flow.method_name m)
      (check_flow bench m ~nodes ~pivots ~objective)
  in
  Alcotest.run "exploration"
    [
      ( "flow@1",
        [
          flow "GFMUL" base ~nodes:41 ~pivots:1117 ~objective:41.524;
          flow "GFMUL" map ~nodes:99 ~pivots:2036 ~objective:10.;
          flow "RS" base ~nodes:3 ~pivots:98 ~objective:39.056716417910451;
          flow "RS" map ~nodes:26 ~pivots:1378 ~objective:19.;
          flow "GSM" base ~nodes:21 ~pivots:394 ~objective:122.04671532846703;
          flow "GSM" map ~nodes:713 ~pivots:14278
            ~objective:76.017518248175136;
          flow "DR" base ~nodes:7 ~pivots:271 ~objective:39.02469135802469;
          flow "DR" map ~nodes:69 ~pivots:3032 ~objective:31.;
        ] );
      ( "resume@1",
        [
          pin "checkpoint -> resume"
            (check_resume ~nodes:243 ~pivots:482 ~objective:(-243.080554));
        ] );
    ]
