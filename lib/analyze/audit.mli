(** Exact-rational re-verification of proof-carrying MILP solves
    (DESIGN.md §3h).

    Input: the frozen model ({!Lp.Model.raw}) and the certificate a
    [Milp.solve ~certificates:true] run emitted ({!Lp.Cert.t}). Every
    numeric claim is re-derived in exact dyadic-rational arithmetic
    ({!Lp.Qd}) — no float comparison anywhere in the checker — and judged
    against the solver's {e published} contract: feasibility within
    [1e-6], LP objectives within a relative [1e-6], the relative
    optimality gap in the certificate, incumbent acceptance within
    [1e-9], and {e zero} tolerance on incumbent integrality (the solver
    snaps accepted incumbents to exact integers).

    The soundness lever is Neumaier–Shcherbina: for {e any} float dual
    vector [u], [-û·b + Σ_j min over the box of (c + Aᵀû)_j·x_j] (with
    [û] the sense-clamped [u]) evaluated exactly is a valid lower bound
    on the node LP — float drift or corruption can only weaken a bound,
    never falsely certify one. Farkas rays are checked the same way with
    [c = 0] and a strictly positive verdict required.

    Findings come back as {!Diag.t} values under pass ["audit"]:

    - [CERT101] missing, malformed or truncated evidence (no
      certificate, broken parent chains, wrong-length vectors, missing
      children of an infeasible verdict, …)
    - [CERT102] the incumbent violates bounds, integrality (exact) or a
      constraint row
    - [CERT103] a node's dual vector fails to certify its claimed LP
      objective
    - [CERT104] Farkas evidence fails to prove node infeasibility
    - [CERT105] a fathomed or abandoned subtree is not excluded by its
      exact dual bound (replayed for [Optimal] verdicts; unprocessed
      children of branched nodes are covered by the parent's duals over
      the reconstructed child box)
    - [CERT106] malformed tree: branch arithmetic, parent/child edit
      agreement, or root-box bookkeeping inconsistent
    - [CERT107] status or incumbent bookkeeping inconsistent — stale or
      lost incumbents (the determinism/race oracle for the parallel
      solver), objective mismatch, optimal status with unsolved leaves
    - [CERT108] a root reduced-cost fix whose excluded region is not
      provably dominated under the pre-fixing root duals

    Integral leaves are covered by the CERT103 + CERT107 pair (their LP
    optimum {e is} the integer point, which the incumbent log must
    reflect), so they need no separate subtree bound. Per-code reporting
    is capped at {!max_reports} findings plus one summary line. *)

val pass_name : string
val max_reports : int

val check : Lp.Model.raw -> Lp.Cert.t -> Diag.t list
(** Re-verify [cert] against the model it claims to solve. Pure; cost is
    O(nnz) exact ring operations per recorded node. *)

val check_result : Lp.Model.t -> Lp.Milp.result -> Diag.t list
(** Convenience wrapper: audits [r.cert], or reports a single [CERT101]
    when the solve carried no certificate. *)
