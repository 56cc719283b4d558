module Bitpos = struct
  module T = struct
    type t = { node : int; bit : int; dist : int }

    let compare a b =
      let c = Int.compare a.node b.node in
      if c <> 0 then c
      else
        let c = Int.compare a.bit b.bit in
        if c <> 0 then c else Int.compare a.dist b.dist
  end

  include T

  let pp ppf { node; bit; dist } =
    if dist = 0 then Fmt.pf ppf "n%d[%d]" node bit
    else Fmt.pf ppf "n%d[%d]@%d" node bit dist

  module Set = Set.Make (T)
end

module Int_set = Set.Make (Int)

type one_step = { reads : Bitpos.t list; passthrough : bool }

let bit_of v i = Int64.logand (Int64.shift_right_logical v i) 1L

(* Index of the lowest set bit of [v]; [width] when v = 0. *)
let trailing_zeros v ~width =
  let rec go i = if i >= width then width else
      if Int64.equal (bit_of v i) 1L then i else go (i + 1) in
  go 0

let const_of g (e : Ir.Cdfg.edge) =
  match Ir.Cdfg.op g e.src with
  | Ir.Op.Const c when e.dist = 0 -> Some c
  | _ -> None

let mk (e : Ir.Cdfg.edge) bit = Bitpos.{ node = e.src; bit; dist = e.dist }

(* Is this bit of the operand statically a known constant? Chases constants
   through wiring ops (shifts, slices, concats) up to a small depth —
   enough to fold the ubiquitous [x ^ (x >> s)] top bits. *)
let rec known_bit g node bit ~depth =
  if depth <= 0 then None
  else
    let nd = Ir.Cdfg.node g node in
    let via i bit' =
      let e = nd.preds.(i) in
      if e.Ir.Cdfg.dist > 0 then None else known_bit g e.src bit' ~depth:(depth - 1)
    in
    match nd.op with
    | Ir.Op.Const c -> Some (bit_of c bit)
    | Ir.Op.Shl s -> if bit < s then Some 0L else via 0 (bit - s)
    | Ir.Op.Shr s ->
        let w = Ir.Cdfg.width g nd.preds.(0).Ir.Cdfg.src in
        if bit + s >= w then Some 0L else via 0 (bit + s)
    | Ir.Op.Slice { lo; hi = _ } -> via 0 (lo + bit)
    | Ir.Op.Concat ->
        let w_low = Ir.Cdfg.width g nd.preds.(1).Ir.Cdfg.src in
        if bit < w_low then via 1 bit else via 0 (bit - w_low)
    | Ir.Op.Input _ | Ir.Op.Not | Ir.Op.Bitwise _ | Ir.Op.Add | Ir.Op.Sub
    | Ir.Op.Cmp _ | Ir.Op.Mux | Ir.Op.Black_box _ ->
        None

let known_edge_bit g (e : Ir.Cdfg.edge) bit =
  if e.dist > 0 then None else known_bit g e.src bit ~depth:4

(* All bits [lo..hi] of an operand, skipping constants. *)
let range_reads g e ~lo ~hi =
  match const_of g e with
  | Some _ -> []
  | None ->
      let w = Ir.Cdfg.width g e.src in
      let hi = min hi (w - 1) in
      let rec go i acc = if i > hi then List.rev acc else go (i + 1) (mk e i :: acc) in
      if lo > hi then [] else go lo []

let no_deps = { reads = []; passthrough = true }
let opaque reads = { reads; passthrough = false }
let wire read = { reads = [ read ]; passthrough = true }

(* Dependence of a binary bitwise op's output bit on its operands, with
   constant-mask refinement. *)
let bitwise_dep g (bw : Ir.Op.bitwise) e1 e2 bit =
  let dep_one kind e other_const =
    (* [other_const] is the constant operand's bit value *)
    match (kind, other_const) with
    | Ir.Op.And, 0L -> no_deps (* x & 0 = 0 *)
    | Ir.Op.And, _ -> wire (mk e bit) (* x & 1 = x *)
    | Ir.Op.Or, 0L -> wire (mk e bit)
    | Ir.Op.Or, _ -> no_deps (* x | 1 = 1 *)
    | Ir.Op.Xor, 0L -> wire (mk e bit)
    | Ir.Op.Xor, _ -> opaque [ mk e bit ] (* inversion: needs a LUT *)
  in
  match (known_edge_bit g e1 bit, known_edge_bit g e2 bit) with
  | Some _, Some _ -> no_deps
  | Some c, None -> dep_one bw e2 c
  | None, Some c -> dep_one bw e1 c
  | None, None -> opaque [ mk e1 bit; mk e2 bit ]

(* x OP c for an unsigned comparison against constant [c] of width [w]:
   support is the bits of x at positions >= tz, where tz comes from the
   equivalent >=-form threshold. Returns None when the result is constant. *)
let cmp_const_support (c : Ir.Op.cmp) ~value ~width =
  let maxv =
    if width >= 64 then Int64.minus_one
    else Int64.sub (Int64.shift_left 1L width) 1L
  in
  let ge_threshold =
    match c with
    | Ir.Op.Ge | Ir.Op.Lt -> Some value (* x >= c / x < c *)
    | Ir.Op.Gt | Ir.Op.Le ->
        (* x > c <=> x >= c+1, constant when c = max *)
        if Int64.equal value maxv then None else Some (Int64.add value 1L)
    | Ir.Op.Eq | Ir.Op.Ne -> Some 0L (* handled by caller: full support *)
  in
  match c with
  | Ir.Op.Eq | Ir.Op.Ne -> Some 0 (* all bits *)
  | Ir.Op.Ge | Ir.Op.Lt | Ir.Op.Gt | Ir.Op.Le -> (
      match ge_threshold with
      | None -> None (* constant result *)
      | Some t ->
          if Int64.equal t 0L then None (* x >= 0 is constant true *)
          else Some (trailing_zeros t ~width))

let flip_cmp (c : Ir.Op.cmp) : Ir.Op.cmp =
  match c with
  | Ir.Op.Eq -> Ir.Op.Eq
  | Ir.Op.Ne -> Ir.Op.Ne
  | Ir.Op.Lt -> Ir.Op.Gt
  | Ir.Op.Le -> Ir.Op.Ge
  | Ir.Op.Gt -> Ir.Op.Lt
  | Ir.Op.Ge -> Ir.Op.Le

let check_bit ~node ~width bit =
  if bit < 0 || bit >= width then
    invalid_arg
      (Printf.sprintf "Bitdep.dep: bit %d out of width %d of node %d" bit
         width node)

let dep g ~node ~bit =
  let nd = Ir.Cdfg.node g node in
  check_bit ~node ~width:nd.width bit;
  let p i = nd.preds.(i) in
  match nd.op with
  | Ir.Op.Input _ | Ir.Op.Const _ -> no_deps
  | Ir.Op.Not -> opaque [ mk (p 0) bit ]
  | Ir.Op.Bitwise bw -> bitwise_dep g bw (p 0) (p 1) bit
  | Ir.Op.Shl s -> if bit - s >= 0 then wire (mk (p 0) (bit - s)) else no_deps
  | Ir.Op.Shr s ->
      let w = Ir.Cdfg.width g (p 0).src in
      if bit + s < w then wire (mk (p 0) (bit + s)) else no_deps
  | Ir.Op.Slice { lo; hi = _ } -> wire (mk (p 0) (lo + bit))
  | Ir.Op.Concat ->
      let w_low = Ir.Cdfg.width g (p 1).src in
      if bit < w_low then wire (mk (p 1) bit) else wire (mk (p 0) (bit - w_low))
  | Ir.Op.Add | Ir.Op.Sub -> (
      let full () =
        opaque (range_reads g (p 0) ~lo:0 ~hi:bit
                @ range_reads g (p 1) ~lo:0 ~hi:bit)
      in
      let refined e c =
        (* x +/- c: bits below tz(c) pass through; higher bits read from
           tz(c) upward. For Sub the two's complement shares tz with c. *)
        let w = nd.width in
        if Int64.equal c 0L then wire (mk e bit)
        else
          let tz = trailing_zeros c ~width:w in
          if bit < tz then wire (mk e bit)
          else opaque (range_reads g e ~lo:tz ~hi:bit)
      in
      match (nd.op, const_of g (p 0), const_of g (p 1)) with
      | _, Some _, Some _ -> no_deps
      | Ir.Op.Add, Some c, None -> refined (p 1) c
      | (Ir.Op.Add | Ir.Op.Sub), None, Some c -> refined (p 0) c
      | _, _, _ -> full ())
  | Ir.Op.Cmp c -> (
      let full () =
        let w = Ir.Cdfg.width g (p 0).src in
        opaque (range_reads g (p 0) ~lo:0 ~hi:(w - 1)
                @ range_reads g (p 1) ~lo:0 ~hi:(w - 1))
      in
      let against e cmp value =
        let w = Ir.Cdfg.width g e.Ir.Cdfg.src in
        match cmp_const_support cmp ~value ~width:w with
        | None -> no_deps
        | Some lo -> opaque (range_reads g e ~lo ~hi:(w - 1))
      in
      match (const_of g (p 0), const_of g (p 1)) with
      | Some _, Some _ -> no_deps
      | None, Some v -> against (p 0) c v
      | Some v, None -> against (p 1) (flip_cmp c) v
      | None, None -> full ())
  | Ir.Op.Mux -> (
      match const_of g (p 0) with
      | Some c -> wire (mk (if Int64.equal c 0L then p 2 else p 1) bit)
      | None ->
          let arm_reads =
            List.filter_map
              (fun e -> match const_of g e with
                | Some _ -> None
                | None -> Some (mk e bit))
              [ p 1; p 2 ]
          in
          opaque (mk (p 0) 0 :: arm_reads))
  | Ir.Op.Black_box _ ->
      let all =
        Array.to_list nd.preds
        |> List.concat_map (fun e ->
               range_reads g e ~lo:0 ~hi:(Ir.Cdfg.width g e.Ir.Cdfg.src - 1))
      in
      opaque all

type bit_support = { bits : Bitpos.Set.t; pure_wire : bool }
type profile = { max_support : int; lut_bits : int }

let c_support_bits = Obs.Counter.get "cuts.support_bits"

(* Bit [b] of node [v] has the flat index [base.(v) + b], and a read of it
   at loop-carried distance [d] the code [d * total + base.(v) + b]; a
   support is a sorted run of codes. Two pools hold per-bit records, each
   a header [2 * length + flag] followed by that many codes: [deps] the
   one-step reads of [dep] (flag: pass-through), filled on a bit's first
   use and kept for the walker's life; [sups] the supports of the current
   walk (flag: pure wire), refilled by every walk. A memo or cone entry is
   live only while its stamp equals the walk's generation [gen], so a walk
   clears nothing. *)
type walker = {
  g : Ir.Cdfg.t;
  total : int;  (* bits in the graph *)
  base : int array;  (* per node, then [total] *)
  owner : int array;  (* per flat index: its node *)
  dep_at : int array;  (* per flat index: its [deps] record, or -1 *)
  mutable deps : int array;
  mutable deps_len : int;
  in_cone : int array;  (* per node: the generation that put it in the cone *)
  memo_gen : int array;  (* per flat index: the generation of [memo_at] *)
  memo_at : int array;  (* per flat index: its [sups] record *)
  mutable sups : int array;  (* [sups.(0)] is the empty pure support *)
  mutable sups_len : int;
  mutable acc : int array;  (* buffers for partial unions *)
  mutable spare : int array;
  mutable gen : int;
  mutable entries : int;  (* memo entries of the current walk *)
}

let walker g =
  let n = Ir.Cdfg.num_nodes g in
  let base = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    base.(v + 1) <- base.(v) + Ir.Cdfg.width g v
  done;
  let total = base.(n) in
  let owner = Array.make total 0 in
  for v = 0 to n - 1 do
    Array.fill owner base.(v) (base.(v + 1) - base.(v)) v
  done;
  {
    g;
    total;
    base;
    owner;
    dep_at = Array.make total (-1);
    deps = Array.make 256 0;
    deps_len = 0;
    in_cone = Array.make n 0;
    memo_gen = Array.make total 0;
    memo_at = Array.make total 0;
    sups = Array.make 256 1;
    sups_len = 1;
    acc = Array.make 64 0;
    spare = Array.make 64 0;
    gen = 0;
    entries = 0;
  }

(* [a] with room for at least [need] cells. *)
let ensure a need =
  if need <= Array.length a then a
  else
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b

(* The [deps] record of flat index [i], computing it on first use. *)
let dep_of w i =
  let at = w.dep_at.(i) in
  if at >= 0 then at
  else
    let node = w.owner.(i) in
    let { reads; passthrough } = dep w.g ~node ~bit:(i - w.base.(node)) in
    let m = List.length reads in
    let at = w.deps_len in
    w.deps <- ensure w.deps (at + 1 + m);
    w.deps.(at) <- (2 * m) + Bool.to_int passthrough;
    List.iteri
      (fun j (r : Bitpos.t) ->
        w.deps.(at + 1 + j) <- (r.dist * w.total) + w.base.(r.node) + r.bit)
      reads;
    w.deps_len <- at + 1 + m;
    w.dep_at.(i) <- at;
    at

(* [a.(ao .. ao + al - 1)] union [b.(bo .. bo + bl - 1)], both sorted,
   written from [out.(o)] on; returns the union's length. *)
let union a ao al b bo bl out o =
  let i = ref ao and j = ref bo and k = ref o in
  let ai = ao + al and bj = bo + bl in
  while !i < ai && !j < bj do
    let x = a.(!i) and y = b.(!j) in
    if x <= y then begin
      out.(!k) <- x;
      incr i;
      if x = y then incr j
    end
    else begin
      out.(!k) <- y;
      incr j
    end;
    incr k
  done;
  while !i < ai do
    out.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < bj do
    out.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  !k - o

(* Is code [c] a dist-0 read of a bit in the current cone? *)
let expands w c = c < w.total && w.in_cone.(w.owner.(c)) = w.gen

exception Too_wide

(* The [sups] record of flat index [i] in the current walk: the closure of
   [dep] through the cone. First every in-cone read's own support, in read
   order; then their union with the boundary reads, which raises
   [Too_wide] if it has more than [bound] codes. A single in-cone read
   whose purity carries over shares its operand's record. *)
let rec support_at w ~bound i =
  if w.memo_gen.(i) = w.gen then w.memo_at.(i)
  else begin
    (* Seed with the empty support to cut accidental cycles; the dist-0
       subgraph is acyclic so this is never observed on valid input. *)
    w.memo_gen.(i) <- w.gen;
    w.memo_at.(i) <- 0;
    w.entries <- w.entries + 1;
    let d = dep_of w i in
    let m = w.deps.(d) lsr 1 and passthrough = w.deps.(d) land 1 = 1 in
    let pure = ref passthrough and most = ref 0 in
    for j = d + 1 to d + m do
      let c = w.deps.(j) in
      if expands w c then begin
        let at = support_at w ~bound c in
        most := !most + (w.sups.(at) lsr 1);
        if w.sups.(at) land 1 = 0 then pure := false
      end
      else incr most
    done;
    let sole =
      if m = 1 && expands w w.deps.(d + 1) then w.memo_at.(w.deps.(d + 1))
      else -1
    in
    if sole >= 0 && (passthrough || w.sups.(sole) land 1 = 0) then begin
      w.memo_at.(i) <- sole;
      sole
    end
    else begin
      let at = w.sups_len in
      if at + 1 + !most > Array.length w.sups then
        w.sups <- ensure w.sups (at + 1 + !most);
      if !most > Array.length w.acc then begin
        w.acc <- ensure w.acc !most;
        w.spare <- ensure w.spare !most
      end;
      let sups = w.sups and deps = w.deps in
      (* The union so far is [cur.(off .. off + len - 1)]: the first
         read's codes where they lie, then partial unions alternating
         between the two buffers, then the last one straight into [sups]. *)
      let cur = ref sups and off = ref 0 and len = ref 0 in
      let into_acc = ref true in
      for j = d + 1 to d + m do
        let c = deps.(j) in
        let inside = expands w c in
        let src = if inside then sups else deps in
        let so = if inside then w.memo_at.(c) + 1 else j in
        let sl = if inside then sups.(so - 1) lsr 1 else 1 in
        if j = d + 1 then begin
          cur := src;
          off := so;
          len := sl
        end
        else begin
          let out, o =
            if j = d + m then (sups, at + 1)
            else if !into_acc then (w.acc, 0)
            else (w.spare, 0)
          in
          len := union !cur !off !len src so sl out o;
          cur := out;
          off := o;
          into_acc := not !into_acc
        end
      done;
      let len = !len in
      if len > bound then raise Too_wide;
      if !off <> at + 1 || !cur != sups then
        Array.blit !cur !off sups (at + 1) len;
      sups.(at) <- (2 * len) + Bool.to_int !pure;
      w.sups_len <- at + 1 + len;
      w.memo_at.(i) <- at;
      at
    end
  end

let start w fn ~root ~cone =
  if not (Int_set.mem root cone) then invalid_arg (fn ^ ": root not in cone");
  w.gen <- w.gen + 1;
  w.entries <- 0;
  w.sups_len <- 1;
  Int_set.iter (fun v -> w.in_cone.(v) <- w.gen) cone

let support g ~root ~cone ~bit =
  let w = walker g in
  start w "Bitdep.support" ~root ~cone;
  check_bit ~node:root ~width:(Ir.Cdfg.width g root) bit;
  let at = support_at w ~bound:max_int (w.base.(root) + bit) in
  let code j =
    let c = w.sups.(at + 1 + j) in
    let i = c mod w.total in
    let node = w.owner.(i) in
    Bitpos.{ node; bit = i - w.base.(node); dist = c / w.total }
  in
  {
    bits = Bitpos.Set.of_list (List.init (w.sups.(at) lsr 1) code);
    pure_wire = w.sups.(at) land 1 = 1;
  }

(* Every memo entry is reached from some output bit of [root], and a
   bit's support contains the support of every in-cone bit it reads: one
   entry wider than [bound] already proves [max_support > bound]. *)
let walk ?(bound = max_int) w ~root ~cone =
  start w "Bitdep.walk" ~root ~cone;
  let b0 = w.base.(root) in
  let width = w.base.(root + 1) - b0 in
  let rec over bit max_support lut_bits =
    if bit = width then Some { max_support; lut_bits }
    else
      let at = support_at w ~bound (b0 + bit) in
      let h = w.sups.(at) in
      let n = h lsr 1 in
      over (bit + 1) (max max_support n)
        (if n >= 2 || (n = 1 && h land 1 = 0) then lut_bits + 1
         else lut_bits)
  in
  let r = try over 0 0 0 with Too_wide -> None in
  Obs.Counter.incr ~by:w.entries c_support_bits;
  r

let profile ?bound g ~root ~cone = walk ?bound (walker g) ~root ~cone
