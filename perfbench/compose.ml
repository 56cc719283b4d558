(* Compiles, either through [Mams.Flow.run] or composed from each layer's
   public entry point in the order [Mams.Flow] calls them. The composed
   path lets the traced run put a span around every layer call, and is
   the only way to give MILP-map a node budget ([Flow.setup] has none). *)

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

type milp = {
  status : Lp.Milp.status;
  stats : Lp.Milp.stats;
  objective : float;
}

type summary = {
  graph : Ir.Cdfg.t;  (** the graph that was compiled (after [Opt]) *)
  schedule : Sched.Schedule.t;
  cover : Sched.Cover.t;
  luts : int;
  ffs : int;
  milp : milp option;
  model : Lp.Model.t option;
      (** the composed MILP's model, for the traced run's root-LP probe *)
  audit_errors : int option;
  cert_nodes : int;
  trail : string list;  (** degradations; [[]] for a clean compile *)
}

let ( let* ) = Result.bind

type env = {
  setup : Mams.Flow.setup;
  device : Fpga.Device.t;
  delays : Fpga.Delays.t;
  resources : Fpga.Resource.budget;
  ii : int;
}

let env_of (setup : Mams.Flow.setup) =
  {
    setup;
    device = setup.device;
    delays = setup.delays;
    resources = setup.resources;
    ii = setup.ii;
  }

let sched_error what e = Fmt.str "%s: %a" what Sched.Heuristic.pp_error e

let lint tr env g =
  match tr.span "lint" (fun () -> Mams.Flow.lint env.setup g) with
  | Ok _ -> Ok ()
  | Error diags -> Error ("lint gate: " ^ Analyze.Diag.summary diags)

let enum_cuts tr env g =
  tr.span "cuts" (fun () ->
      let k = env.device.Fpga.Device.k in
      Cuts.enumerate ~params:(Cuts.default_params ~k) ~k g)

let heuristic tr env ?delays g =
  let delays = Option.value delays ~default:env.delays in
  tr.span "sched.heuristic" (fun () ->
      Sched.Heuristic.schedule ~device:env.device ~delays
        ~resources:env.resources ~ii:env.ii g)

let mapsched tr env g cover =
  tr.span "sched.mapsched" (fun () ->
      Sched.Mapsched.schedule ~device:env.device ~delays:env.delays
        ~resources:env.resources ~ii:env.ii g cover)

let map_schedule tr env ~cuts g sched =
  tr.span "techmap" (fun () ->
      Techmap.map_schedule ~device:env.device ~delays:env.delays ~cuts g sched)

let map_global tr env ~cuts g =
  tr.span "techmap" (fun () ->
      Techmap.map_global ~device:env.device ~delays:env.delays ~cuts g)

let retime tr env g cover sched =
  tr.span "timing" (fun () ->
      Sched.Timing.recompute_starts ~device:env.device ~delays:env.delays g
        cover sched)

(* Flow's [finalize]: post-mapping timing, the legality check, QoR. *)
let finalize ?model tr env g cover sched ~milp ~audit_errors ~cert_nodes ~trail =
  let sched = retime tr env g cover sched in
  let ctx =
    { Sched.Verify.device = env.device; delays = env.delays; resources = env.resources }
  in
  let* () =
    tr.span "verify" (fun () -> Sched.Verify.check ctx g cover sched)
    |> Result.map_error (fun errs -> "verify: " ^ String.concat "; " errs)
  in
  let qor =
    tr.span "qor" (fun () ->
        Sched.Qor.evaluate ~device:env.device ~delays:env.delays g cover sched)
  in
  Ok
    {
      graph = g;
      schedule = sched;
      cover;
      luts = qor.Sched.Qor.luts;
      ffs = qor.Sched.Qor.ffs;
      milp;
      model;
      audit_errors;
      cert_nodes;
      trail;
    }

let heuristic_done tr env g cover sched =
  finalize tr env g cover sched ~milp:None ~audit_errors:None ~cert_nodes:0
    ~trail:[]

let hls tr env g =
  let* () = lint tr env g in
  let* sched = heuristic tr env g |> Result.map_error (sched_error "heuristic") in
  let cuts = enum_cuts tr env g in
  heuristic_done tr env g (map_schedule tr env ~cuts g sched) sched

let sdc tr env g =
  let* () = lint tr env g in
  let* sched =
    tr.span "sdc" (fun () ->
        Sched.Sdc.schedule ~device:env.device ~delays:env.delays
          ~resources:env.resources ~ii:env.ii g)
    |> Result.map_error (sched_error "sdc")
  in
  let cuts = enum_cuts tr env g in
  heuristic_done tr env g (map_schedule tr env ~cuts g sched) sched

let map_first tr env g =
  let* () = lint tr env g in
  let cuts = enum_cuts tr env g in
  let cover = map_global tr env ~cuts g in
  let* sched = mapsched tr env g cover |> Result.map_error (sched_error "mapsched") in
  heuristic_done tr env g cover sched

(* Flow's full-strength MILP rung ([run_milp] with no deadline), with an
   optional node budget. *)
let milp tr env ~mapping_aware ?node_limit g =
  let setup = env.setup in
  let* base = heuristic tr env g |> Result.map_error (sched_error "heuristic") in
  let cuts = if mapping_aware then enum_cuts tr env g else Cuts.trivial_only g in
  let warm_sched =
    if not mapping_aware then Some base
    else
      let warm_delays =
        Fpga.Delays.with_logic env.delays ~logic:env.device.Fpga.Device.lut_delay
      in
      Result.to_option (heuristic tr env ~delays:warm_delays g)
  in
  let max_latency =
    List.fold_left
      (fun acc s -> max acc (Sched.Schedule.latency s))
      (Sched.Schedule.latency base) (Option.to_list warm_sched)
  in
  let cfg =
    {
      Mams.Formulation.device = env.device;
      delays = env.delays;
      resources = env.resources;
      ii = env.ii;
      max_latency;
      alpha = setup.alpha;
      beta = setup.beta;
      cut_delay =
        (if mapping_aware then
           Mams.Formulation.mapped_delay ~device:env.device ~delays:env.delays
         else Mams.Formulation.additive_delay ~delays:env.delays);
    }
  in
  let f = tr.span "formulation" (fun () -> Mams.Formulation.build cfg g cuts) in
  let model = Mams.Formulation.model f in
  let incumbent =
    tr.span "warmstart" @@ fun () ->
    let try_incumbent s cover =
      let sched = retime tr env g cover s in
      match Mams.Formulation.incumbent_of_schedule f sched cover with
      | exception Invalid_argument _ -> None
      | x -> (
          match
            Lp.Model.check model ~values:(fun v -> x.(Lp.Model.var_index v)) ()
          with
          | Ok () -> Some x
          | Error _ -> None)
    in
    let trivial () = Sched.Cover.all_trivial g (Cuts.trivial_only g) in
    match warm_sched with
    | None -> None
    | Some s ->
        let map_first () =
          let cover = map_global tr env ~cuts g in
          match mapsched tr env g cover with
          | Ok ms when Sched.Schedule.latency ms <= max_latency ->
              try_incumbent ms cover
          | Ok _ | Error _ -> None
        in
        let candidates =
          if mapping_aware then
            [
              map_first;
              (fun () -> try_incumbent s (map_schedule tr env ~cuts g s));
              (fun () -> try_incumbent s (trivial ()));
            ]
          else [ (fun () -> try_incumbent s (trivial ())) ]
        in
        List.fold_left
          (fun acc c -> match acc with Some _ -> acc | None -> c ())
          None candidates
  in
  let r =
    tr.span "milp" (fun () ->
        Lp.Milp.solve ~time_limit:setup.time_limit ?node_limit ?incumbent
          ~branch_priority:(Mams.Formulation.branch_priorities f)
          ~domains:1 ~certificates:setup.audit ~cuts:true ~presolve:true model)
  in
  let audit_errors =
    if setup.audit then
      Some
        (List.length
           (Analyze.Diag.errors
              (tr.span "audit" (fun () -> Analyze.Engine.check_audit model r))))
    else None
  in
  let cert_nodes =
    match r.Lp.Milp.cert with Some c -> List.length c.Lp.Cert.nodes | None -> 0
  in
  let stats = r.Lp.Milp.stats in
  match r.Lp.Milp.status with
  | Lp.Milp.Infeasible | Lp.Milp.Unbounded | Lp.Milp.Unknown ->
      Error (Fmt.str "MILP failed: %a" Lp.Milp.pp_status r.Lp.Milp.status)
  | Lp.Milp.Optimal | Lp.Milp.Feasible ->
      let trail =
        if stats.Lp.Milp.lp_limited > 0 then
          [ Printf.sprintf "numeric: %d node LP(s) hit the pivot cap" stats.lp_limited ]
        else []
      in
      let milp =
        Some { status = r.status; stats; objective = r.objective }
      in
      let sched, cover = tr.span "formulation" (fun () -> Mams.Formulation.extract f r) in
      let cover =
        if mapping_aware then cover
        else map_schedule tr env ~cuts:(enum_cuts tr env g) g sched
      in
      finalize ~model tr env g cover sched ~milp ~audit_errors ~cert_nodes
        ~trail

let composed tr env how g =
  match how with
  | Suite.Budgeted n -> milp tr env ~mapping_aware:true ~node_limit:n g
  | Suite.Flow m -> (
      match m with
      | Mams.Flow.Hls_tool -> hls tr env g
      | Mams.Flow.Sdc_tool -> sdc tr env g
      | Mams.Flow.Map_heuristic -> map_first tr env g
      | Mams.Flow.Milp_base ->
          let* () = lint tr env g in
          milp tr env ~mapping_aware:false g
      | Mams.Flow.Milp_map ->
          let* () = lint tr env g in
          milp tr env ~mapping_aware:true g)

let of_flow (r : Mams.Flow.result) g =
  let milp =
    match (r.solve.milp_status, r.solve.milp_stats, r.solve.milp_objective) with
    | Some status, Some stats, Some objective -> Some { status; stats; objective }
    | _ -> None
  in
  {
    graph = g;
    schedule = r.schedule;
    cover = r.cover;
    luts = r.qor.Sched.Qor.luts;
    ffs = r.qor.Sched.Qor.ffs;
    milp;
    model = None;
    audit_errors = r.metrics.Obs.Metrics.audit_errors;
    cert_nodes = r.solve.cert_nodes;
    trail =
      List.map (fun a -> Fmt.str "%a" Resilience.Cascade.pp_attempt a) r.trail;
  }

(* One compile as the user runs it: [Opt.simplify] when the workload asks
   for it, then [Mams.Flow.run]. With a tracer, and for the budgeted rung
   (which exists only composed), the flow is composed layer by layer. *)
let compile ?tr w (c : Suite.compile) g =
  let span name f = match tr with Some tr -> tr.span name f | None -> f () in
  let g = if c.optimize then span "opt" (fun () -> fst (Opt.simplify g)) else g in
  let env = env_of (Suite.setup_of w c.inst) in
  match (tr, c.how) with
  | None, Suite.Flow m -> Result.map (fun r -> of_flow r g) (Mams.Flow.run env.setup m g)
  | _, how -> composed (Option.value tr ~default:untraced) env how g
