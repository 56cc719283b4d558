(* pipesyn benchmark runner.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Untraced (--trace 0): repeats the workload's compile list, one compile
   at a time, for S seconds (at least two passes, which doubles as the
   determinism check), checks every result with the output oracle, and
   prints the end-to-end metrics. Traced (--trace 1): alternates untraced
   passes with passes composed layer by layer under bench-side spans, and
   prints the per-layer metrics. The last stdout line is one JSON object. *)

open Pipebench

type prepared = { c : Suite.compile; g : Ir.Cdfg.t; r : Oracle.reference }

let prepare w ~seed =
  List.map
    (fun (c : Suite.compile) ->
      let g = c.inst.build () in
      { c; g; r = Oracle.reference ~seed c g })
    (Suite.compiles w)

let setup_reps = 11
let min_passes = 2

type state = {
  w : Suite.workload;
  seed : int;
  mutable attempted : int;
  mutable failed : int;
  mutable gc_words : float * float;  (** minor, major words of untraced compiles *)
  first : (int, Oracle.signature) Hashtbl.t;  (** first result per compile *)
}

let fail st p ~pass reasons =
  st.failed <- st.failed + 1;
  List.iter
    (fun why ->
      Printf.printf "FAIL workload=%s instance=%s seed=%d pass=%d: %s\n"
        (Suite.workload_name st.w) (Suite.compile_name p.c) st.seed pass why)
    reasons

(* Runs and checks one compile, traced under a "compile" span when [tr]
   is given; returns its wall seconds and result. *)
let run_one ?cal ?tr st p ~pass =
  Option.iter Calibrate.maybe_sample cal;
  Gc.compact ();
  let compile () =
    let t0 = Obs.Clock.wall () in
    let res = Compose.compile ?tr st.w p.c p.g in
    (Obs.Clock.wall () -. t0, res)
  in
  let dt, res =
    match tr with
    | Some tr -> tr.Compose.span "compile" compile
    | None ->
        let g0 = Gc.quick_stat () in
        let r = compile () in
        let g1 = Gc.quick_stat () and minor, major = st.gc_words in
        st.gc_words <-
          ( minor +. g1.minor_words -. g0.minor_words,
            major +. g1.major_words -. g0.major_words );
        r
  in
  st.attempted <- st.attempted + 1;
  let reasons =
    match res with
    | Error e -> [ "compile error: " ^ e ]
    | Ok s -> (
        (* The oracle's simulation garbage must not add to the compiler's
           peak memory. *)
        Gc.compact ();
        let sg = Oracle.signature s in
        Oracle.failures ?tr st.w p.c p.r s
        @
        match Hashtbl.find_opt st.first p.c.id with
        | None ->
            Hashtbl.replace st.first p.c.id sg;
            []
        | Some sg0 when compare sg0 sg = 0 -> []
        | Some sg0 ->
            [
              Fmt.str "result differs from the first run: %a, first %a"
                Oracle.pp_signature sg Oracle.pp_signature sg0;
            ])
  in
  if reasons <> [] then fail st p ~pass reasons;
  (dt, Result.to_option res)

(* Runs [f 0], [f 1], ...: at least [min_passes] passes, then another
   while one as long as the last still ends within [seconds]. Returns the
   number of passes. *)
let run_passes ~seconds f =
  let t_start = Obs.Clock.wall () in
  let rec go i last =
    if i >= min_passes && Obs.Clock.wall () -. t_start +. last > seconds then i
    else begin
      let t0 = Obs.Clock.wall () in
      f i;
      go (i + 1) (Obs.Clock.wall () -. t0)
    end
  in
  go 0 0.0

let add_sample tbl id x =
  Hashtbl.replace tbl id (x :: Option.value ~default:[] (Hashtbl.find_opt tbl id))

let medians tbl = Hashtbl.fold (fun _ xs acc -> Stats.median xs :: acc) tbl []
let total tbl = List.fold_left ( +. ) 0.0 (medians tbl)

let print_result st catalogue values =
  print_endline
    (Catalogue.result_line ~correct:(st.failed = 0) ~attempted:st.attempted
       ~failed:st.failed catalogue values)

let print_metrics title catalogue values =
  Printf.printf "\n%-24s %16s  %-7s %s\n" title "value" "unit" "better";
  List.iter
    (fun (c : Catalogue.metric) ->
      Printf.printf "%-24s %16.6g  %-7s %s\n" c.name (List.assoc c.name values) c.unit
        (if c.higher_is_better then "higher" else "lower"))
    catalogue

let area (s : Compose.summary) = s.luts + s.ffs

(* ---------------- untraced run: end-to-end metrics ---------------- *)

let untraced st ps ~seconds ~setup_s ~cal =
  let times = Hashtbl.create 64 and results = Hashtbl.create 64 in
  let passes =
    run_passes ~seconds (fun pass ->
        List.iter
          (fun p ->
            let dt, s = run_one ~cal st p ~pass in
            add_sample times p.c.id dt;
            match s with
            | Some s when not (Hashtbl.mem results p.c.id) -> Hashtbl.replace results p.c.id s
            | _ -> ())
          ps)
  in
  Calibrate.sample cal;
  let k = Calibrate.factor cal in
  Printf.printf "calibration: %d samples, median %.6f s, factor %.6f\n"
    (List.length cal.samples) (Stats.median cal.samples) k;
  Printf.printf "raw: compile_s_total %.6f s, compile_s_geomean %.6f s, setup_s %.6f s\n"
    (total times) (Stats.geomean (medians times)) setup_s;
  let summaries = Hashtbl.fold (fun _ s acc -> s :: acc) results [] in
  let gaps =
    List.filter_map
      (fun (s : Compose.summary) ->
        Option.map (fun (m : Compose.milp) -> m.stats.Lp.Milp.gap) s.milp)
      summaries
  in
  let peak_rss_mb =
    match Obs.Probe.peak_rss_kb () with
    | Some kb -> float_of_int kb /. 1024.0
    | None -> Float.nan
  in
  Printf.printf "\n%-26s %-15s %4s %9s %9s %9s %6s %5s %-9s %7s %8s %6s\n" "instance"
    "method" "n" "median_s" "q1_s" "q3_s" "LUT" "FF" "status" "nodes" "pivots" "gap";
  List.iter
    (fun p ->
      let xs = Option.value ~default:[] (Hashtbl.find_opt times p.c.id) in
      let q1, med, q3 = Stats.quartiles xs in
      let cols =
        match Hashtbl.find_opt results p.c.id with
        | None -> Printf.sprintf "%6s %5s %-9s" "-" "-" "error"
        | Some s ->
            let status, nodes, pivots, gap =
              match s.milp with
              | None -> ("heuristic", "-", "-", "-")
              | Some m ->
                  ( Fmt.str "%a" Lp.Milp.pp_status m.status,
                    string_of_int m.stats.nodes,
                    string_of_int m.stats.lp_iterations,
                    Printf.sprintf "%.4f" m.stats.gap )
            in
            Printf.sprintf "%6d %5d %-9s %7s %8s %6s" s.luts s.ffs status nodes pivots gap
      in
      Printf.printf "%-26s %-15s %4d %9.5f %9.5f %9.5f %s\n" p.c.inst.name
        (Suite.how_name p.c.how) (List.length xs) med q1 q3 cols)
    ps;
  let values =
    [
      ("setup_s", k *. setup_s);
      ("compile_s_total", k *. total times);
      ("compile_s_geomean", k *. Stats.geomean (medians times));
      ("area_total", float_of_int (List.fold_left (fun a s -> a + area s) 0 summaries));
      ("peak_rss_mb", peak_rss_mb);
    ]
  in
  Printf.printf "\n%d passes, %d compiles attempted, %d failed\n" passes st.attempted st.failed;
  print_metrics "end-to-end metric" Catalogue.end_to_end values;
  (* Reported, but not in the result line: both read 0 on a healthy run
     (gap_mean on every workload but budgeted-map), and the result line's
     attempted/failed fields already carry the failures. *)
  Printf.printf "%-24s %16s  %-7s lower\n" "gap_mean"
    (if gaps = [] then "n/a (no MILP)" else Printf.sprintf "%.6g" (Stats.mean gaps))
    "ratio";
  Printf.printf "%-24s %16.6g  %-7s lower\n" "failed_frac"
    (Stats.frac st.failed st.attempted) "ratio";
  print_result st Catalogue.end_to_end values

(* ---------------- traced run: per-layer metrics ---------------- *)

(* Self counters: a span's deltas minus those of its children. *)
let self_counters spans =
  let by_parent = Hashtbl.create 64 in
  List.iter (fun (s : Span.span) -> Hashtbl.add by_parent s.parent s) spans;
  List.map
    (fun (s : Span.span) ->
      let kids = Hashtbl.find_all by_parent s.id in
      let sub k =
        List.fold_left
          (fun acc (c : Span.span) ->
            acc +. Option.value ~default:0.0 (List.assoc_opt k c.counters))
          0.0 kids
      in
      (s, List.map (fun (k, v) -> (k, v -. sub k)) s.counters))
    spans

(* Layers in the order Mams.Flow calls them; "compile" is each compile's
   root span, the rest sit outside it. *)
let compile_layers =
  [ "lint"; "opt"; "sched.heuristic"; "sdc"; "cuts"; "techmap"; "sched.mapsched";
    "formulation"; "warmstart"; "milp"; "audit"; "timing"; "verify"; "qor" ]

let outside_layers = [ "lp.root"; "eval"; "rtl.netlist"; "rtl.simulate" ]

let traced st ps ~seconds =
  let rec_ = Span.create () in
  let tr = Span.tracer rec_ in
  List.iter
    (fun p ->
      rec_.compile <- p.c.id;
      ignore (Oracle.reference ~tr ~seed:st.seed p.c p.g))
    ps;
  let eval_spans = rec_.spans in
  let untraced_t = Hashtbl.create 64 and traced_t = Hashtbl.create 64 in
  (* per layer, per compile: self seconds of each traced pass *)
  let self_s = Hashtbl.create 32 in
  let first_spans = ref [] and root_pivots = ref 0 in
  let summaries = Hashtbl.create 64 in
  let gc = ref (0.0, 0.0) and attempts = ref 0.0 in
  let attempts_now () =
    Option.value ~default:0.0 (List.assoc_opt "resilience.attempts" (Obs.snapshot ()))
  in
  let passes =
    run_passes ~seconds @@ fun pass ->
    if pass mod 2 = 0 then begin
      let a0 = attempts_now () in
      List.iter
        (fun p ->
          let dt, _ = run_one st p ~pass in
          add_sample untraced_t p.c.id dt)
        ps;
      if pass = 0 then begin
        gc := st.gc_words;
        attempts := attempts_now () -. a0
      end
    end
    else begin
      rec_.spans <- [];
      List.iter
        (fun p ->
          rec_.compile <- p.c.id;
          let dt, s = run_one ~tr st p ~pass in
          add_sample traced_t p.c.id dt;
          Option.iter
            (fun (s : Compose.summary) ->
              Hashtbl.replace summaries p.c.id s;
              (* probe solve of the root LP relaxation, outside the compile *)
              Option.iter
                (fun m ->
                  let r = tr.span "lp.root" (fun () -> Lp.Simplex.solve (Lp.Model.to_raw m)) in
                  if pass = 1 then root_pivots := !root_pivots + r.Lp.Simplex.iterations)
                s.model)
            s)
        ps;
      if !first_spans = [] then first_spans := rec_.spans @ eval_spans;
      let this_pass = Hashtbl.create 32 in
      List.iter
        (fun ((s : Span.span), self) ->
          let key = (s.name, s.compile) in
          Hashtbl.replace this_pass key
            (self +. Option.value ~default:0.0 (Hashtbl.find_opt this_pass key)))
        (Span.self_times rec_.spans);
      Hashtbl.iter (fun key x -> add_sample self_s key x) this_pass
    end
  in
  (* A layer's seconds: per compile, the median self time over traced
     passes; summed over the compile list. *)
  let layer_s name =
    if name = "eval" then
      List.fold_left
        (fun acc (s : Span.span) -> if s.name = "eval" then acc +. Span.duration s else acc)
        0.0 eval_spans
    else
      Hashtbl.fold
        (fun (n, _) xs acc -> if n = name then acc +. Stats.median xs else acc)
        self_s 0.0
  in
  (* per layer: its self counters summed over the first traced pass *)
  let layer_counters = Hashtbl.create 32 in
  List.iter
    (fun ((sp : Span.span), cs) ->
      let h =
        match Hashtbl.find_opt layer_counters sp.name with
        | Some h -> h
        | None ->
            let h = Hashtbl.create 16 in
            Hashtbl.replace layer_counters sp.name h;
            h
      in
      List.iter
        (fun (k, v) -> Hashtbl.replace h k (v +. Option.value ~default:0.0 (Hashtbl.find_opt h k)))
        cs)
    (self_counters !first_spans);
  let counter layer key =
    Option.value ~default:0.0
      (Option.bind (Hashtbl.find_opt layer_counters layer) (fun h -> Hashtbl.find_opt h key))
  in
  let calls layer =
    List.length (List.filter (fun (s : Span.span) -> s.name = layer) !first_spans)
  in
  let by_id = summaries in
  let summaries = Hashtbl.fold (fun _ s acc -> s :: acc) summaries [] in
  let milps = List.filter_map (fun (s : Compose.summary) -> s.milp) summaries in
  let sum_milp f = List.fold_left (fun acc (m : Compose.milp) -> acc +. f m.stats) 0.0 milps in
  let mean_finite xs =
    match List.filter Float.is_finite xs with [] -> 0.0 | xs -> Stats.mean xs
  in
  let models = List.filter_map (fun (s : Compose.summary) -> s.model) summaries in
  let sum_models f = float_of_int (List.fold_left (fun acc m -> acc + f m) 0 models) in
  let nodes_removed =
    List.fold_left
      (fun acc p ->
        match Hashtbl.find_opt by_id p.c.id with
        | Some (s : Compose.summary) when p.c.optimize ->
            acc + Ir.Cdfg.num_nodes p.g - Ir.Cdfg.num_nodes s.graph
        | _ -> acc)
      0 ps
  in
  let traced_total = total traced_t and untraced_total = total untraced_t in
  let compile_s = layer_s "compile" in
  let layer_total =
    List.fold_left (fun acc l -> acc +. layer_s l) 0.0 compile_layers
  in
  let traced_compile_s = compile_s +. layer_total in
  let cuts_candidates = counter "cuts" "cuts.candidates" in
  let cuts_kept = counter "cuts" "cuts.enumerated" -. counter "cuts" "cuts.pruned" in
  let sdc_s = layer_s "sdc" and sdc_pivots = counter "sdc" "sdc.lp_pivots" in
  let milp_s = layer_s "milp" in
  let nodes = sum_milp (fun s -> float_of_int s.nodes) in
  let pivots = sum_milp (fun s -> float_of_int s.lp_iterations) in
  let lp_root_s = layer_s "lp.root" and lp_root_pivots = float_of_int !root_pivots in
  let gc_minor, gc_major = !gc in
  let values =
    [
      ("lint.s", layer_s "lint");
      ("opt.s", layer_s "opt");
      ("opt.nodes_removed", float_of_int nodes_removed);
      ("cuts.s", layer_s "cuts");
      ("cuts.candidates", cuts_candidates);
      ("cuts.kept", cuts_kept);
      ("cuts.kept_ratio", Stats.ratio cuts_kept cuts_candidates);
      ("sched.heuristic_s", layer_s "sched.heuristic");
      ("sched.mapsched_s", layer_s "sched.mapsched");
      ("sdc.s", sdc_s);
      ("sdc.lp_solves", counter "sdc" "sdc.lp_solves");
      ("sdc.lp_pivots", sdc_pivots);
      ("sdc.s_per_pivot", Stats.ratio sdc_s sdc_pivots);
      ("techmap.s", layer_s "techmap");
      ("techmap.covers", counter "techmap" "techmap.covers");
      ("techmap.lut_area", counter "techmap" "techmap.lut_area");
      ("timing.s", layer_s "timing");
      ("verify.s", layer_s "verify");
      ("qor.s", layer_s "qor");
      ("formulation.s", layer_s "formulation");
      ("formulation.rows", sum_models Lp.Model.num_constraints);
      ("formulation.vars", sum_models Lp.Model.num_vars);
      ("warmstart.s", layer_s "warmstart");
      ("lp.root_s", lp_root_s);
      ("lp.root_pivots", lp_root_pivots);
      ("lp.s_per_pivot", Stats.ratio lp_root_s lp_root_pivots);
      ("milp.s", milp_s);
      ("milp.nodes", nodes);
      ("milp.pivots", pivots);
      ("milp.pivots_per_s", Stats.ratio pivots milp_s);
      ("milp.nodes_per_s", Stats.ratio nodes milp_s);
      ("milp.warm_hit_ratio",
        Stats.ratio (sum_milp (fun s -> float_of_int s.warm_hits)) nodes);
      ("milp.cut_rounds", sum_milp (fun s -> float_of_int s.cut_rounds));
      ("milp.cuts_applied", sum_milp (fun s -> float_of_int s.cuts_applied));
      ("milp.gap_closed_root",
        mean_finite (List.map (fun (m : Compose.milp) -> m.stats.gap_closed_root) milps));
      ("milp.first_incumbent_s",
        mean_finite (List.map (fun (m : Compose.milp) -> m.stats.first_incumbent_s) milps));
      ("milp.gap_mean",
        mean_finite (List.map (fun (m : Compose.milp) -> m.stats.gap) milps));
      ("audit.s", layer_s "audit");
      ("cert.nodes",
        float_of_int (List.fold_left (fun a (s : Compose.summary) -> a + s.cert_nodes) 0 summaries));
      ("rtl.netlist_s", layer_s "rtl.netlist");
      ("rtl.simulate_s", layer_s "rtl.simulate");
      ("eval.s", layer_s "eval");
      ("cascade.attempts", !attempts);
      ("gc.minor_words", gc_minor);
      ("gc.major_words", gc_major);
      ("oracle.failed_frac", Stats.frac st.failed st.attempted);
      ("trace.layer_share", Stats.ratio layer_total traced_compile_s);
      ("trace.overhead_s", traced_total -. untraced_total);
      ("trace.overhead_frac", Stats.ratio (traced_total -. untraced_total) untraced_total);
    ]
  in
  Printf.printf "\n%d passes (%d traced), %d compiles attempted, %d failed\n" passes (passes / 2)
    st.attempted st.failed;
  Printf.printf
    "untraced compile_s_total %.6f s, traced %.6f s, tracing overhead %.6f s (%.2f%%)\n"
    untraced_total traced_total (traced_total -. untraced_total)
    (100.0 *. Stats.ratio (traced_total -. untraced_total) untraced_total);
  Printf.printf "\n%-16s %6s %11s %7s  %s\n" "layer (self)" "calls" "self_s" "share"
    "self counters (first traced pass)";
  List.iter
    (fun l ->
      let s = layer_s l in
      let cs =
        match Hashtbl.find_opt layer_counters l with
        | None -> []
        | Some h ->
            Hashtbl.fold
              (fun k v acc ->
                if v = 0.0 || String.ends_with ~suffix:".s" k then acc else (k, v) :: acc)
              h []
            |> List.sort compare
      in
      let share =
        if List.mem l outside_layers then "outside"
        else Printf.sprintf "%6.2f%%" (100.0 *. Stats.ratio s traced_compile_s)
      in
      if calls l > 0 then
        Printf.printf "%-16s %6d %11.6f %7s  %s\n" l (calls l) s share
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.0f" k v) cs)))
    (("compile" :: compile_layers) @ outside_layers);
  Printf.printf "layer self time covers %.2f%% of traced compile time\n"
    (100.0 *. Stats.ratio layer_total traced_compile_s);
  print_metrics "per-layer metric" Catalogue.per_layer values;
  print_result st Catalogue.per_layer values

(* ---------------- command line ---------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let die msg =
    prerr_endline ("pipebench: " ^ msg);
    exit 2
  in
  let w =
    match Suite.workload_of_name !workload with
    | Some w -> w
    | None ->
        die
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map fst Suite.workloads)))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (* These change what the solver does; the benchmark fixes its own
     configuration. *)
  List.iter
    (fun v -> if Sys.getenv_opt v <> None then die (v ^ " is set; unset it to benchmark"))
    [ "PIPESYN_COLD_START"; "PIPESYN_FAULTS" ];
  Printf.printf "pipebench workload=%s seed=%d seconds=%g trace=%d\n" !workload !seed
    !seconds !trace;
  let setup_times = ref [] and ps = ref [] in
  let cal = Calibrate.create () in
  for _ = 1 to setup_reps do
    Calibrate.maybe_sample cal;
    Gc.compact ();
    let t0 = Obs.Clock.wall () in
    ps := prepare w ~seed:!seed;
    setup_times := (Obs.Clock.wall () -. t0) :: !setup_times
  done;
  let setup_s = Stats.median !setup_times in
  let st =
    { w; seed = !seed; attempted = 0; failed = 0; gc_words = (0.0, 0.0); first = Hashtbl.create 64 }
  in
  Printf.printf "%d compiles per pass, setup %.6f s (median of %d)\n" (List.length !ps)
    setup_s setup_reps;
  if !trace = 0 then untraced st !ps ~seconds:!seconds ~setup_s ~cal
  else traced st !ps ~seconds:!seconds
