(** Cooperative wall-clock deadlines for the synthesis flow.

    A deadline is an absolute expiry instant on the monotonized wall
    clock ({!Obs.Clock.wall}) — resilience-v2 moved it off [Sys.time],
    whose per-process CPU seconds accumulate across OCaml 5 domains and
    made a [--domains 4] budget expire ~4x early. Subsystems receive a
    deadline and poll {!expired} at loop granularity (simplex pivots,
    branch-and-bound nodes, cut-enumeration worklist items, area-flow
    labelling) rather than only between coarse phases; {!none} makes
    every check free-ish and never expires, so deadline-free callers pay
    almost nothing.

    Deadlines compose downward: {!clip} derives a sub-deadline that a
    phase may not outlive, and {!split} schedules a sequence of phases
    inside one global budget, with unused time rolling over to later
    phases (cumulative checkpoints). *)

type t
(** Abstract and immutable: an expiry instant, or none. The no-deadline
    value never expires. *)

val none : t
(** Never expires; [remaining none = infinity]. *)

val of_budget : float -> t
(** [of_budget s] expires [max 0. s] seconds from now. *)

val clip : t -> budget:float -> t
(** [clip d ~budget] is the earlier of [d] and [of_budget budget] — the
    standard way to give a phase a local budget that still respects the
    global deadline. *)

val remaining : t -> float
(** Seconds until expiry; [infinity] for {!none}, negative once
    expired. *)

val expired : t -> bool
(** [remaining t <= 0.]. *)

val is_none : t -> bool
(** No expiry instant. *)

exception Expired of string
(** Raised by {!check}; the payload names the phase that ran out. *)

val check : t -> phase:string -> unit
(** Cooperative cancellation point: @raise Expired when [expired t]. *)

val split : t -> (string * float) list -> (string * t) list
(** [split d weights] schedules the named phases sequentially inside [d]:
    phase [i] receives a deadline at the cumulative
    [sum w_0..w_i / sum w] fraction of the remaining time, never past
    [d]. Because checkpoints are cumulative, a phase finishing early
    donates its slack to every later phase. With [d = none] every phase
    gets {!none}. Non-positive weights are treated as [0.]. *)

val pp : Format.formatter -> t -> unit
(** ["none"] or the remaining seconds, e.g. ["3.2s left"]. *)
