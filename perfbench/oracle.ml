(* The output oracle. The reference comes from [Ir.Eval] on the graph as
   generated (before [Opt]), never from the compiler under test. *)

let iterations = 64

type reference = {
  stim : iter:int -> name:string -> int64;
  expected : int64 array array;
      (** per primary output of the generated graph, per iteration *)
  black_box : (kind:string -> int64 array -> int64) option;
}

let mask ~width v =
  if width >= 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L width) 1L)

(* Seed-derived stimulus, masked to each input's width. *)
let stimulus ~seed ~id g =
  let widths = Hashtbl.create 8 in
  Ir.Cdfg.iter
    (fun nd ->
      match nd.Ir.Cdfg.op with
      | Ir.Op.Input name -> Hashtbl.replace widths name nd.Ir.Cdfg.width
      | _ -> ())
    g;
  fun ~iter ~name ->
    let h salt = Int64.of_int (Hashtbl.hash (seed, id, name, iter, salt)) in
    let v = Int64.logxor (h 0) (Int64.shift_left (h 1) 30) in
    mask ~width:(Option.value ~default:64 (Hashtbl.find_opt widths name)) v

let reference ?(tr = Compose.untraced) ~seed (c : Suite.compile) g =
  let stim = stimulus ~seed ~id:c.id g in
  let black_box = c.inst.black_box in
  let trace = tr.span "eval" (fun () -> Ir.Eval.run ?black_box g ~iterations ~inputs:stim) in
  let expected =
    Array.of_list
      (List.map (fun po -> Array.init iterations (fun k -> trace.(k).(po))) (Ir.Cdfg.outputs g))
  in
  { stim; expected; black_box }

(* Clocks the compiled design's netlist on the reference stimulus and
   compares every output at every iteration. *)
let check_rtl ?(tr = Compose.untraced) r g cover sched =
  let nl = tr.span "rtl.netlist" (fun () -> Rtl.Netlist.of_design g cover sched) in
  let cycles = iterations + Sched.Schedule.latency sched in
  let sim =
    tr.span "rtl.simulate" (fun () ->
        Rtl.Netlist.simulate ?black_box:r.black_box nl ~cycles
          ~inputs:(fun ~cycle ~name -> r.stim ~iter:cycle ~name))
  in
  let outs = Ir.Cdfg.outputs g in
  if List.length outs <> Array.length r.expected then
    [
      Printf.sprintf "output count %d <> reference %d" (List.length outs)
        (Array.length r.expected);
    ]
  else
    List.concat
      (List.mapi
         (fun i po ->
           let _, values = List.nth sim.Rtl.Netlist.outputs i in
           let s = sched.Sched.Schedule.cycle.(po) in
           List.filter_map
             (fun k ->
               let got = values.(k + s) and want = r.expected.(i).(k) in
               if Int64.equal got want then None
               else
                 Some
                   (Printf.sprintf "output %d iteration %d: rtl 0x%Lx <> eval 0x%Lx" i
                      k got want))
             (List.init iterations Fun.id))
         outs)

(* Every reason the compile counts as failed; [] when it passes. *)
let failures ?tr w (c : Suite.compile) r (s : Compose.summary) =
  let setup = Suite.setup_of w c.inst in
  let ctx =
    {
      Sched.Verify.device = setup.device;
      delays = setup.delays;
      resources = setup.resources;
    }
  in
  let verify =
    match Sched.Verify.check ctx s.graph s.cover s.schedule with
    | Ok () -> []
    | Error errs -> [ "verify: " ^ String.concat "; " errs ]
  in
  let trail = List.map (fun t -> "degraded: " ^ t) s.trail in
  let rtl = check_rtl ?tr r s.graph s.cover s.schedule in
  let milp =
    match (w, c.how, s.milp) with
    | Suite.Exact_table, _, Some m ->
        (if m.status = Lp.Milp.Optimal then []
         else [ Fmt.str "status %a, not optimal" Lp.Milp.pp_status m.status ])
        @ (match s.audit_errors with
          | Some 0 -> []
          | Some n -> [ Printf.sprintf "audit_errors = %d" n ]
          | None -> [ "audit did not run" ])
    | Suite.Budgeted_map, Suite.Budgeted budget, Some m ->
        if m.status <> Lp.Milp.Optimal && m.stats.Lp.Milp.nodes < budget then
          [
            Printf.sprintf "stopped on the time safety net after %d of %d nodes"
              m.stats.nodes budget;
          ]
        else []
    | (Suite.Exact_table | Suite.Budgeted_map), _, None -> [ "no MILP solve" ]
    | _ -> []
  in
  verify @ trail @ rtl @ milp

(* What must repeat exactly when a compile runs again. *)
type signature = {
  luts : int;
  ffs : int;
  objective : float option;
  gap : float option;
  nodes : int option;
  pivots : int option;
}

let signature (s : Compose.summary) =
  let m f = Option.map f s.milp in
  {
    luts = s.luts;
    ffs = s.ffs;
    objective = m (fun m -> m.Compose.objective);
    gap = m (fun m -> m.Compose.stats.Lp.Milp.gap);
    nodes = m (fun m -> m.Compose.stats.Lp.Milp.nodes);
    pivots = m (fun m -> m.Compose.stats.Lp.Milp.lp_iterations);
  }

let pp_signature ppf s =
  let opt pp ppf = function None -> Fmt.string ppf "-" | Some v -> pp ppf v in
  Fmt.pf ppf "LUT %d FF %d obj %a gap %a nodes %a pivots %a" s.luts s.ffs
    (opt (fun ppf -> Fmt.pf ppf "%.17g")) s.objective
    (opt (fun ppf -> Fmt.pf ppf "%.17g")) s.gap
    (opt Fmt.int) s.nodes (opt Fmt.int) s.pivots
