(* The four workloads and their fixed compile lists. *)

type instance = {
  name : string;
  build : unit -> Ir.Cdfg.t;
  black_box : (kind:string -> int64 array -> int64) option;
  resources : Fpga.Resource.budget;
  t_clk : float;
}

type how =
  | Flow of Mams.Flow.method_
      (** [Mams.Flow.run] with the method, through its cascade *)
  | Budgeted of int
      (** the full-strength MILP-map rung composed from public functions,
          stopped after this many branch-and-bound nodes *)

type compile = {
  id : int;  (** position in the workload's canonical list *)
  inst : instance;
  how : how;
  optimize : bool;  (** [Opt.simplify] first, as [pipesyn run -O] does *)
}

type workload = Exact_table | Budgeted_map | Heuristic_scaled | Sdc_scaled

let workloads =
  [
    ("exact-table", Exact_table);
    ("budgeted-map", Budgeted_map);
    ("heuristic-scaled", Heuristic_scaled);
    ("sdc-scaled", Sdc_scaled);
  ]

let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)
let workload_of_name s = List.assoc_opt s workloads

(* The MILP safety nets: never reached on a healthy run. A budgeted row
   that reaches it counts as failed (see [Oracle]). *)
let exact_time_limit = 120.0
let budget_time_limit = 60.0

let how_name = function
  | Flow m -> Mams.Flow.method_name m
  | Budgeted n -> Printf.sprintf "MILP-map@%dn" n

let compile_name c = Printf.sprintf "%s/%s" c.inst.name (how_name c.how)

let of_entry (e : Benchmarks.Registry.entry) =
  {
    name = e.name;
    build = e.build;
    black_box = e.black_box;
    resources = e.resources;
    t_clk = e.t_clk;
  }

let entry name = of_entry (Benchmarks.Registry.find name)

(* A scaled instance of a registry family keeps the family's clock,
   resource budget and black-box handler. *)
let scaled family name build =
  let e = Benchmarks.Registry.find family in
  { (of_entry e) with name; build }

let grid2 xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let xorr ~elements ~widths ~depths =
  List.concat_map
    (fun (e, w) ->
      List.map
        (fun m ->
          scaled "XORR"
            (Printf.sprintf "XORR e%d w%d m%d" e w m)
            (fun () -> Benchmarks.Xorr.build ~elements:e ~width:w ~mix_depth:m ()))
        depths)
    (grid2 elements widths)

let rs ~widths ~taps =
  List.map
    (fun (w, t) ->
      scaled "RS" (Printf.sprintf "RS w%d t%d" w t) (fun () ->
          Benchmarks.Rs.full ~width:w ~taps:t ()))
    (grid2 widths taps)

let clz widths =
  List.map
    (fun w ->
      scaled "CLZ" (Printf.sprintf "CLZ w%d" w) (fun () ->
          Benchmarks.Clz.build ~width:w ()))
    widths

let gfmul widths =
  List.map
    (fun w ->
      scaled "GFMUL" (Printf.sprintf "GFMUL w%d" w) (fun () ->
          Benchmarks.Gfmul.build ~width:w ()))
    widths

let cordic ~widths ~iterations =
  List.map
    (fun (w, i) ->
      scaled "CORDIC" (Printf.sprintf "CORDIC w%d i%d" w i) (fun () ->
          Benchmarks.Cordic.build ~width:w ~iterations:i ()))
    (grid2 widths iterations)

(* GSM keeps the registry width: its black-box handler is width-bound. *)
let gsm stages =
  List.map
    (fun s ->
      scaled "GSM" (Printf.sprintf "GSM s%d" s) (fun () ->
          Benchmarks.Gsm.build ~width:12 ~stages:s ()))
    stages

let dr counts =
  List.map
    (fun c ->
      scaled "DR" (Printf.sprintf "DR c%d" c) (fun () ->
          Benchmarks.Dr.build ~width:8 ~count:c ()))
    counts

(* Every point of the generator grid is compiled, so each seed compiles
   the same instances: a seeded subset would move area_total and the
   compile times with the seed (a draw of 2-4 instances per family spreads
   them by 11-26% between seeds), far beyond what a regression bound can
   tolerate. The seed drives the RTL stimulus. *)
let heuristic_instances () =
  xorr ~elements:[ 8; 16; 24 ] ~widths:[ 8; 16 ] ~depths:[ 2; 3; 4 ]
  @ rs ~widths:[ 4; 8 ] ~taps:[ 2; 4; 6; 8 ]
  @ clz [ 8; 16; 32 ]
  @ gfmul [ 4; 6; 8 ]
  @ cordic ~widths:[ 8; 12; 16 ] ~iterations:[ 4; 6; 8 ]
  @ gsm [ 2; 3; 4; 6; 8 ]
  @ dr [ 2; 3; 4; 6; 8 ]
  @ [ entry "AES"; entry "MT" ]

(* Sched.Sdc's dense chaining LP grows superlinearly (XORR e24 w8 m3
   takes 7 s, CLZ w32 5 s, DR c5 1 s, CORDIC w16 i8 35 s), so the SDC
   grid stops where one compile stays near 0.6 s: a pass then takes about
   5 s and a run holds four or five, enough for steady medians. *)
let sdc_instances () =
  xorr ~elements:[ 8; 12 ] ~widths:[ 8; 16 ] ~depths:[ 2; 3 ]
  @ rs ~widths:[ 4; 8 ] ~taps:[ 2; 4; 6; 8 ]
  @ clz [ 8; 16 ]
  @ gfmul [ 4; 6 ]
  @ cordic ~widths:[ 8; 12; 16 ] ~iterations:[ 4; 5 ]
  @ gsm [ 2; 3; 4 ]
  @ dr [ 2; 3; 4 ]
  @ [ entry "AES"; entry "MT" ]

(* MILP-map proves optimality on these registry rows; it never closes
   CLZ, XORR and MT, which therefore run under a node budget, sized so a
   pass takes about 8 s and a run holds three passes. *)
let exact_map_rows = [ "GFMUL"; "CORDIC"; "AES"; "RS"; "DR"; "GSM" ]
let node_budgets = [ ("CLZ", 60); ("XORR", 25); ("MT", 180) ]

let canonical = function
  | Exact_table ->
      List.map
        (fun (e : Benchmarks.Registry.entry) ->
          (of_entry e, Flow Mams.Flow.Milp_base, false))
        Benchmarks.Registry.all
      @ List.map (fun n -> (entry n, Flow Mams.Flow.Milp_map, false)) exact_map_rows
  | Budgeted_map -> List.map (fun (n, b) -> (entry n, Budgeted b, false)) node_budgets
  | Heuristic_scaled ->
      List.concat_map
        (fun i ->
          [
            (i, Flow Mams.Flow.Hls_tool, true);
            (i, Flow Mams.Flow.Map_heuristic, true);
          ])
        (heuristic_instances ())
  | Sdc_scaled -> List.map (fun i -> (i, Flow Mams.Flow.Sdc_tool, false)) (sdc_instances ())

(* The compile list is the same for every seed and runs in this order, so
   run-to-run differences in time and memory come from the program, not
   from the draw or the order. *)
let compiles w =
  List.mapi (fun id (inst, how, optimize) -> { id; inst; how; optimize }) (canonical w)

let device_of inst = Fpga.Device.make ~t_clk:inst.t_clk ()

let setup_of w inst =
  {
    (Mams.Flow.default_setup ~device:(device_of inst)) with
    resources = inst.resources;
    time_limit = (if w = Budgeted_map then budget_time_limit else exact_time_limit);
    domains = Some 1;
    audit = w = Exact_table;
    cuts = Some true;
    presolve = Some true;
  }
