(* Tests for word-level cut enumeration (paper Algorithm 1, Fig. 2). *)

let enumerate ?params g = Cuts.enumerate ?params ~k:4 g

let test_trivial_first () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let y = Ir.Builder.input b ~width:4 "y" in
  let o = Ir.Builder.xor_ b x y in
  Ir.Builder.output b o;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  Array.iteri
    (fun v cs ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d has cuts" v)
        true
        (Array.length cs >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "node %d first cut trivial" v)
        true
        (Cuts.is_trivial cs.(0)))
    cuts

let xor_chain n =
  let b = Ir.Builder.create () in
  let x0 = Ir.Builder.input b ~width:2 "x0" in
  let rec go i acc =
    if i > n then acc
    else
      let xi = Ir.Builder.input b ~width:2 (Printf.sprintf "x%d" i) in
      go (i + 1) (Ir.Builder.xor_ b acc xi)
  in
  let o = go 1 x0 in
  Ir.Builder.output b o;
  Ir.Builder.finish b

let test_chain_merging () =
  (* chain of 3 xors, K=4: the last node can absorb both earlier xors
     (support = 4 input bits per output bit). *)
  let g = xor_chain 3 in
  let cuts = enumerate g in
  let last = Ir.Cdfg.num_nodes g - 1 in
  let deepest =
    Array.fold_left
      (fun acc (c : Cuts.cut) -> max acc (Bitdep.Int_set.cardinal c.cone))
      0 cuts.(last)
  in
  Alcotest.(check int) "cone of 3 xors" 3 deepest

let test_k_feasibility_respected () =
  let g = xor_chain 5 in
  let cuts = enumerate g in
  Array.iter
    (fun cs ->
      Array.iter
        (fun (c : Cuts.cut) ->
          if not (Cuts.is_trivial c) then
            Alcotest.(check bool) "support <= K" true (c.support <= 4))
        cs)
    cuts

let test_inputs_never_absorbed () =
  let g = xor_chain 4 in
  let cuts = enumerate g in
  Array.iter
    (fun cs ->
      Array.iter
        (fun (c : Cuts.cut) ->
          Bitdep.Int_set.iter
            (fun w ->
              if w <> c.root then
                match Ir.Cdfg.op g w with
                | Ir.Op.Input _ -> Alcotest.fail "input inside a cone"
                | _ -> ())
            c.cone)
        cs)
    cuts

let test_black_box_trivial_only () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let r = Ir.Builder.black_box b ~kind:"rom" ~resource:"bram_port" ~width:4 [ x ] in
  let o = Ir.Builder.xor_ b r x in
  Ir.Builder.output b o;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  Alcotest.(check int) "bb has only the trivial cut" 1 (Array.length cuts.(1));
  (* the consumer cannot absorb the black box *)
  Array.iter
    (fun (c : Cuts.cut) ->
      Alcotest.(check bool) "bb not in cone" false
        (c.root <> 1 && Bitdep.Int_set.mem 1 c.cone))
    cuts.(2)

let test_registered_edges_are_boundaries () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:4 "x" in
  let cell = Ir.Builder.feedback b ~width:4 ~init:0L ~dist:1 in
  let nxt = Ir.Builder.xor_ b x cell in
  Ir.Builder.drive b ~cell nxt;
  let o = Ir.Builder.not_ b nxt in
  Ir.Builder.output b o;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  (* No cone may contain the xor's recurrence "source" side: every cut of
     the not-node that absorbs the xor must list the xor as a leaf (the
     registered operand). *)
  Array.iter
    (fun (c : Cuts.cut) ->
      if Bitdep.Int_set.mem 1 c.cone (* xor absorbed *) then
        Alcotest.(check bool) "xor also a leaf (registered)" true
          (List.mem 1 c.leaves))
    cuts.(2)

let test_figure2_msb_cut () =
  (* Figure 2's key cut: the comparison "B >= 0" only reads B's MSB, so a
     cone over {C, B} has per-bit support {t[msb], A-side msb} and stays
     4-feasible even though B is 2 bits of xor. *)
  let g = Benchmarks.Rs.kernel ~width:2 () in
  let cuts = enumerate g in
  (* find node C (the cmp) *)
  let c_id = ref (-1) in
  Ir.Cdfg.iter
    (fun nd ->
      match nd.op with Ir.Op.Cmp _ -> c_id := nd.id | _ -> ())
    g;
  Alcotest.(check bool) "cmp found" true (!c_id >= 0);
  let has_deep_cut =
    Array.exists
      (fun (c : Cuts.cut) -> Bitdep.Int_set.cardinal c.cone >= 2)
      cuts.(!c_id)
  in
  Alcotest.(check bool) "C absorbs the xor through MSB narrowing" true
    has_deep_cut

let test_area_wire_zero () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let s = Ir.Builder.shr b x 2 in
  Ir.Builder.output b s;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  Alcotest.(check int) "shift costs nothing" 0 cuts.(1).(0).Cuts.area

let test_area_arith_carry_chain () =
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let y = Ir.Builder.input b ~width:8 "y" in
  let s = Ir.Builder.add b x y in
  Ir.Builder.output b s;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  Alcotest.(check int) "adder is one LUT per bit" 8 cuts.(2).(0).Cuts.area

let test_delay_classes () =
  let device = Fpga.Device.make ~t_clk:10.0 () in
  let delays = Fpga.Delays.default in
  let b = Ir.Builder.create () in
  let x = Ir.Builder.input b ~width:8 "x" in
  let y = Ir.Builder.input b ~width:8 "y" in
  let l = Ir.Builder.xor_ b x y in
  let a = Ir.Builder.add b x y in
  let w = Ir.Builder.shr b x 1 in
  Ir.Builder.output b l;
  Ir.Builder.output b a;
  Ir.Builder.output b w;
  let g = Ir.Builder.finish b in
  let cuts = enumerate g in
  let d v = Cuts.delay ~device ~delays g cuts.(v).(0) in
  Alcotest.(check (float 1e-9)) "logic = one LUT" 0.9 (d 2);
  Alcotest.(check bool) "arith keeps carry-chain delay" true (d 3 > 1.0);
  Alcotest.(check (float 1e-9)) "wire free" 0.0 (d 4)

let test_pruning_cap () =
  let g = Benchmarks.Xorr.build ~elements:8 ~width:8 ~mix_depth:3 () in
  let params = { (Cuts.default_params ~k:4) with max_cuts = 3 } in
  let cuts = enumerate ~params g in
  Array.iter
    (fun cs ->
      Alcotest.(check bool) "per-node cap" true (Array.length cs <= 4))
    cuts

let test_trivial_only () =
  let g = xor_chain 3 in
  let cuts = Cuts.trivial_only g in
  Array.iter
    (fun cs ->
      Alcotest.(check int) "single cut" 1 (Array.length cs);
      Alcotest.(check bool) "trivial" true (Cuts.is_trivial cs.(0)))
    cuts

(* Structural invariants on random-ish benchmark graphs. *)
let cut_invariants =
  QCheck.Test.make ~name:"cut invariants on benchmark graphs" ~count:9
    QCheck.(make Gen.(int_range 0 8))
    (fun i ->
      let e = List.nth Benchmarks.Registry.all i in
      let g = e.Benchmarks.Registry.build () in
      let cuts = enumerate g in
      Array.for_all
        (fun cs ->
          Array.length cs >= 1
          && Cuts.is_trivial cs.(0)
          && Array.for_all
               (fun (c : Cuts.cut) ->
                 (* root in cone, leaves disjoint from cone *)
                 Bitdep.Int_set.mem c.root c.cone
                 && List.for_all
                      (fun l -> not (Bitdep.Int_set.mem l c.cone))
                      c.leaves
                 && List.sort_uniq Int.compare c.leaves = c.leaves
                 && c.area >= 0
                 && (Cuts.is_trivial c || c.support <= 4))
               cs)
        cuts)

(* --- pinned cut sets --------------------------------------------------- *)

(* The full cut sets at device K, pinned field by field: a digest of each
   field's sequence over every node and cut in order, so a change in any
   root, leaf list, cone, support, area or cut order shows up by field.
   The counters are the six [cuts.*] deltas of one enumeration:
   candidates, enumerated, infeasible, pruned, node_merges and the work
   counter support_bits. *)
type pin = {
  cuts : int;
  leaves : string;
  cones : string;
  supports : string;
  areas : string;
  counters : int list;
}

let pin_counters =
  List.map Obs.Counter.get
    [
      "cuts.candidates";
      "cuts.enumerated";
      "cuts.infeasible";
      "cuts.pruned";
      "cuts.node_merges";
      "cuts.support_bits";
    ]

let field_digest (cuts : Cuts.t) f =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun v cs ->
      Array.iteri
        (fun i c -> Printf.bprintf b "%d.%d:%s;" v i (f c))
        cs)
    cuts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let ints l = String.concat "," (List.map string_of_int l)

let pin_of g =
  let before = List.map Obs.Counter.value pin_counters in
  let cuts = Cuts.enumerate ~k:Fpga.Device.default.Fpga.Device.k g in
  let after = List.map Obs.Counter.value pin_counters in
  {
    cuts = Cuts.total_cuts cuts;
    leaves =
      field_digest cuts (fun (c : Cuts.cut) ->
          Printf.sprintf "%d<-%s" c.root (ints c.leaves));
    cones =
      field_digest cuts (fun (c : Cuts.cut) ->
          ints (Bitdep.Int_set.elements c.cone));
    supports =
      field_digest cuts (fun (c : Cuts.cut) -> string_of_int c.support);
    areas = field_digest cuts (fun (c : Cuts.cut) -> string_of_int c.area);
    counters = List.map2 ( - ) after before;
  }

let pinned_graphs =
  List.map
    (fun (e : Benchmarks.Registry.entry) -> (e.name, e.build))
    Benchmarks.Registry.all
  @ [
      ( "XORR 24x16 mix 3, simplified",
        fun () ->
          fst
            (Opt.simplify
               (Benchmarks.Xorr.build ~elements:24 ~width:16 ~mix_depth:3 ()))
      );
      ( "CORDIC 16x8",
        fun () -> Benchmarks.Cordic.build ~width:16 ~iterations:8 () );
      ("GFMUL 8", fun () -> Benchmarks.Gfmul.build ~width:8 ());
    ]

(* Captured from the enumeration before the bounded walk replaced the
   two-pass support and LUT-bit analysis; [support_bits] from the bounded
   walk before one walker per graph replaced its per-cone tables. *)
let pinned =
  [
    ( "CLZ",
      {
        cuts = 253;
        leaves = "0f19cbbc6e678a714410c63449aa170e";
        cones = "bb7e0156a957a434ff57829644ec40dd";
        supports = "3aef96cd38e37363adedc8e099be84df";
        areas = "e42c97bfae1dbf38cf70913e771d6365";
        counters = [ 1158; 523; 464; 288; 63; 15218 ];
      } );
    ( "XORR",
      {
        cuts = 397;
        leaves = "fd9fb313b592b3814870f8270fdec57d";
        cones = "736ee2c8183aa3b35872911e894a1dd7";
        supports = "a3be819588d0c3c01910ed235e0bb0e7";
        areas = "a0cc662a4aa28c0d7f52a012bc76bacf";
        counters = [ 1512; 899; 468; 485; 79; 34538 ];
      } );
    ( "GFMUL",
      {
        cuts = 195;
        leaves = "c6ccc5ed35c355ab3a9fbf37602d4c97";
        cones = "7777f24516912a8898899b75ec9f1a0e";
        supports = "6a1925b5c5b978037bd7446b0603b7ec";
        areas = "5924391638c594a06935b52545d053af";
        counters = [ 893; 653; 206; 323; 33; 12338 ];
      } );
    ( "CORDIC",
      {
        cuts = 85;
        leaves = "02e23825e66102073fa319efb394d518";
        cones = "461e3527400fabaf67e57ebdddc2a0f6";
        supports = "06a5fae907a3e756e2d180fa44db5e62";
        areas = "db0e46417d669e0fbeaccdf739924cd8";
        counters = [ 378; 30; 300; 0; 55; 2380 ];
      } );
    ( "MT",
      {
        cuts = 172;
        leaves = "cf786c6d8791b30e740093725d666064";
        cones = "dbd6b16cafbda2cb96de26112eba4786";
        supports = "830dc5a3af4a1c0e8fef4d3278007e2c";
        areas = "5fbacd6eb6bec6fbd6761e7c94c0a438";
        counters = [ 623; 477; 54; 160; 24; 23954 ];
      } );
    ( "AES",
      {
        cuts = 264;
        leaves = "09b3421c2b6c6fad419c952c2b494af2";
        cones = "4c254f5c99868f50df73e3af398bf75f";
        supports = "9e74e22fcf87e67b9e33bd4b423fa7c4";
        areas = "0f890242b10f4842e889ce1c28cbdb23";
        counters = [ 878; 310; 420; 94; 56; 13762 ];
      } );
    ( "RS",
      {
        cuts = 235;
        leaves = "acb4b36ebf4fae6132cfb2502356fb04";
        cones = "46a1f3fcc3c5032ebee32685af9038cb";
        supports = "e00fd6d1861bd9932493b598c06b359c";
        areas = "a407f4f7d80051b93967115d2d909da4";
        counters = [ 1138; 828; 154; 194; 33; 13022 ];
      } );
    ( "DR",
      {
        cuts = 89;
        leaves = "3481b1826a251a4b49d4af69b948e126";
        cones = "5bfac52b9f9f9d33b30228e637e25329";
        supports = "c763e41658e32ed1f5f8ee1914a43ddb";
        areas = "55e2baf6e2a2db71cf0c3b01da2ddacd";
        counters = [ 204; 49; 126; 0; 40; 2154 ];
      } );
    ( "GSM",
      {
        cuts = 116;
        leaves = "4c4dfb2e54ca40459322bce554134ef2";
        cones = "11e9e66d78d2e24788d63970477b02e6";
        supports = "ebd4ef4c7ff07ec893e6a00d7847f6fd";
        areas = "52c025f26b0895bb3306db9748915e09";
        counters = [ 278; 90; 165; 0; 34; 3284 ];
      } );
    ( "XORR 24x16 mix 3, simplified",
      {
        cuts = 1184;
        leaves = "8219d87dc27e81b4c8d31a01c3d832bb";
        cones = "273df93d3d50de1f7ddf99d5eb7603d7";
        supports = "8ce0266cd8d2554c6d5bedd65ddaee46";
        areas = "29087f9b2b0600252f0405a2b91ea40a";
        counters = [ 4056; 2153; 1454; 897; 216; 142727 ];
      } );
    ( "CORDIC 16x8",
      {
        cuts = 173;
        leaves = "6cb94ea485e757a0bdfeef042538c0bc";
        cones = "215107913ae577adeb18fa60e1487748";
        supports = "adf148f8af48ecaa68fbe3bba288c448";
        areas = "362e539b8d3b495750102045babaa42c";
        counters = [ 830; 66; 668; 0; 107; 6536 ];
      } );
    ( "GFMUL 8",
      {
        cuts = 471;
        leaves = "0ee26b6fe907ea7d4007b01f058b7dce";
        cones = "a6354abd895d262fb533ec09d7f566de";
        supports = "b3c1c31b31d24b31f524bc33ba2a6fae";
        areas = "a31803fa69b768dc5b1a899995fddc10";
        counters = [ 2445; 1693; 674; 747; 69; 57150 ];
      } );
  ]

let test_pinned (name, build) () =
  let got = pin_of (build ()) in
  let want = List.assoc name pinned in
  let check field = Alcotest.(check string) (name ^ " " ^ field) in
  Alcotest.(check int) (name ^ " cut count") want.cuts got.cuts;
  check "roots and leaves" want.leaves got.leaves;
  check "cones" want.cones got.cones;
  check "supports" want.supports got.supports;
  check "areas" want.areas got.areas;
  List.iter2
    (fun c (w, g) -> Alcotest.(check int) (name ^ " " ^ Obs.Counter.name c) w g)
    pin_counters
    (List.combine want.counters got.counters)

let qsuite tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let () =
  Alcotest.run "cuts"
    [
      ( "enumeration",
        [
          Alcotest.test_case "trivial first" `Quick test_trivial_first;
          Alcotest.test_case "chain merging" `Quick test_chain_merging;
          Alcotest.test_case "K-feasibility" `Quick test_k_feasibility_respected;
          Alcotest.test_case "inputs stay leaves" `Quick test_inputs_never_absorbed;
          Alcotest.test_case "black box trivial" `Quick test_black_box_trivial_only;
          Alcotest.test_case "registered boundaries" `Quick
            test_registered_edges_are_boundaries;
          Alcotest.test_case "figure 2 msb cut" `Quick test_figure2_msb_cut;
          Alcotest.test_case "pruning cap" `Quick test_pruning_cap;
          Alcotest.test_case "trivial only" `Quick test_trivial_only;
        ] );
      ( "cost model",
        [
          Alcotest.test_case "wire area" `Quick test_area_wire_zero;
          Alcotest.test_case "carry chain area" `Quick test_area_arith_carry_chain;
          Alcotest.test_case "delay classes" `Quick test_delay_classes;
        ] );
      ("invariants", qsuite [ cut_invariants ]);
      ( "pinned",
        List.map
          (fun ((name, _) as g) ->
            Alcotest.test_case name `Quick (test_pinned g))
          pinned_graphs );
    ]
