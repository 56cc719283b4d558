(** Bit-level dependence tracking on the word-level CDFG (paper Sec. 3.1).

    For every output bit of an operation, [dep] reports which bits of which
    operand {e nodes} it depends on. The three classes of the paper are
    implemented — bitwise (one bit per operand), shift (one shifted bit),
    arithmetic (all lower bits of both operands) — plus constant-aware
    refinements: comparing against a constant [c] with [tz] trailing zeros
    only reads bits [>= tz] (this is how the paper's "[B >= 0] is an MSB
    test" observation falls out), masking with a constant passes bits
    through or zeroes them, and adding a constant leaves bits below [tz c]
    untouched.

    [support] closes [dep] transitively inside a cone, yielding the exact
    set of {e boundary bits} a K-LUT implementing that cone's bit would
    need — the feasibility measure for word-level cuts. [profile] runs
    that closure once over all of a root's output bits, sharing one memo,
    and stops at the first support wider than a bound: the single walk
    [Cuts] makes per candidate cone.

    Both run on a {!walker}, built once per graph and reused by every walk
    over it. It computes each [(node, bit)]'s [dep] once, into flat int
    arrays; keeps supports as sorted int codes rather than [Bitpos.Set]
    trees; and stamps its memo and cone membership with a per-walk
    generation, so a walk allocates no table and clears nothing.
    [support] and [profile] are one walk each on a fresh walker. *)

module Bitpos : sig
  type t = {
    node : int;
    bit : int;
    dist : int;
        (** 0 for a combinational read; [> 0] when the bit is read through
            a pipeline register carrying a loop-carried dependence *)
  }

  val compare : t -> t -> int
  val pp : t Fmt.t

  module Set : Set.S with type elt = t
end

module Int_set : Set.S with type elt = int

type one_step = {
  reads : Bitpos.t list;  (** operand bits this output bit depends on *)
  passthrough : bool;
      (** [true] iff the output bit equals the (then unique) read bit —
          pure rewiring that needs no LUT *)
}

val dep : Ir.Cdfg.t -> node:int -> bit:int -> one_step
(** One-step dependence of bit [bit] of [node], following the paper's
    [DEP] definitions with constant refinements. Bits of constant operands
    are omitted (they are hardwired into the LUT mask).
    @raise Invalid_argument if [bit] is outside the node's width. *)

type bit_support = {
  bits : Bitpos.Set.t;  (** boundary bits feeding this output bit *)
  pure_wire : bool;
      (** the bit is a plain copy of a single boundary bit (or a constant)
          routed only through wiring — it needs no LUT *)
}

val support :
  Ir.Cdfg.t -> root:int -> cone:Int_set.t -> bit:int -> bit_support
(** Transitive closure of [dep] from [root]'s output bit [bit], expanding
    through nodes in [cone] and stopping at nodes outside it; registered
    ([dist > 0]) reads always stop, even if the producer is in the cone.
    [cone] must contain [root]. *)

type profile = {
  max_support : int;
      (** max over the root's output bits of the support size — a cone is
          K-feasible iff this is [<= K] *)
  lut_bits : int;
      (** output bits that actually need a LUT: bits with two or more
          support bits, or a single support bit reached through non-wiring
          logic; constant and pass-through bits are free *)
}

val profile :
  ?bound:int -> Ir.Cdfg.t -> root:int -> cone:Int_set.t -> profile option
(** One memoised walk of [support] over every output bit of [root] inside
    [cone]. Returns [None] as soon as any [(node, bit)] support it computes
    has more than [bound] bits. That is exact: every such entry is read,
    through the cone, by some output bit of [root], whose support contains
    it, so [None] iff [max_support > bound]. Without [bound] the result is
    always [Some].

    Adds the number of [(node, bit)] supports computed to the counter
    [cuts.support_bits], once per call.
    @raise Invalid_argument if [root] is not in [cone]. *)

type walker
(** The bit walk's state for one graph, O(bits in the graph) in flat
    arrays: each [(node, bit)]'s one-step reads, computed on first use, and
    the memo and cone stamps of the current walk. Walks on one walker must
    not interleave. *)

val walker : Ir.Cdfg.t -> walker

val walk :
  ?bound:int -> walker -> root:int -> cone:Int_set.t -> profile option
(** [walk ?bound (walker g) ~root ~cone] is [profile ?bound g ~root ~cone]
    (counter included), without rebuilding the graph's state: whatever
    walks ran on the walker before, the result is the same. *)
