(* Every metric the benchmark reports, as BENCHMARK.json lists them. The
   untraced run emits [end_to_end], the traced run [per_layer]. *)

type metric = { name : string; unit : string; higher_is_better : bool }

let m ?(higher = false) name unit = { name; unit; higher_is_better = higher }

let end_to_end =
  [
    m "setup_s" "s";
    m "compile_s_total" "s";
    m "compile_s_geomean" "s";
    m "area_total" "LUT_FF";
    m "peak_rss_mb" "MB";
  ]

let per_layer =
  [
    m "lint.s" "s";
    m "opt.s" "s";
    m ~higher:true "opt.nodes_removed" "count";
    m "cuts.s" "s";
    m "cuts.candidates" "count";
    m ~higher:true "cuts.kept" "count";
    m ~higher:true "cuts.kept_ratio" "ratio";
    m "sched.heuristic_s" "s";
    m "sched.mapsched_s" "s";
    m "sdc.s" "s";
    m "sdc.lp_solves" "count";
    m "sdc.lp_pivots" "count";
    m "sdc.s_per_pivot" "s/pivot";
    m "techmap.s" "s";
    m "techmap.covers" "count";
    m "techmap.lut_area" "count";
    m "timing.s" "s";
    m "verify.s" "s";
    m "qor.s" "s";
    m "formulation.s" "s";
    m "formulation.rows" "count";
    m "formulation.vars" "count";
    m "warmstart.s" "s";
    m "lp.root_s" "s";
    m "lp.root_pivots" "count";
    m "lp.s_per_pivot" "s/pivot";
    m "milp.s" "s";
    m "milp.nodes" "count";
    m "milp.pivots" "count";
    m ~higher:true "milp.pivots_per_s" "1/s";
    m ~higher:true "milp.nodes_per_s" "1/s";
    m ~higher:true "milp.warm_hit_ratio" "ratio";
    m "milp.cut_rounds" "count";
    m ~higher:true "milp.cuts_applied" "count";
    m ~higher:true "milp.gap_closed_root" "ratio";
    m "milp.first_incumbent_s" "s";
    m "milp.gap_mean" "ratio";
    m "audit.s" "s";
    m "cert.nodes" "count";
    m "rtl.netlist_s" "s";
    m "rtl.simulate_s" "s";
    m "eval.s" "s";
    m "cascade.attempts" "count";
    m "gc.minor_words" "words";
    m "gc.major_words" "words";
    m "oracle.failed_frac" "ratio";
    m ~higher:true "trace.layer_share" "ratio";
    m "trace.overhead_s" "s";
    m "trace.overhead_frac" "ratio";
  ]

(* The result line: one JSON object whose metrics follow [catalogue]
   order. Non-finite values (a ratio with nothing measured) read 0. *)
let result_line ~correct ~attempted ~failed catalogue values =
  let metric c =
    let v =
      match List.assoc_opt c.name values with
      | Some v -> v
      | None -> invalid_arg ("Catalogue.result_line: no value for " ^ c.name)
    in
    let v = if Float.is_finite v then v else 0.0 in
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" c.name v c.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric catalogue))
