(* Bench-side spans around each layer call. Spans stay in memory until the
   run ends; each carries the [Obs] counter deltas over its call. *)

type span = {
  id : int;
  compile : int;  (** spans of one compile share this id *)
  name : string;
  parent : int;  (** [-1] for a root span *)
  t0 : float;
  t1 : float;
  counters : (string * float) list;  (** non-zero deltas over the call *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next : int;
  mutable compile : int;
}

let create () = { spans = []; stack = []; next = 0; compile = -1 }

(* [Sched.Sdc] keeps its LP work counts outside the [Obs] registry. *)
let counters () =
  let solves, pivots = Sched.Sdc.lp_stats () in
  ("sdc.lp_pivots", float_of_int pivots)
  :: ("sdc.lp_solves", float_of_int solves)
  :: Obs.snapshot ()

let delta before after =
  List.filter_map
    (fun (k, v) ->
      let d = v -. Option.value ~default:0.0 (List.assoc_opt k before) in
      if d = 0.0 then None else Some (k, d))
    after

let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let c0 = counters () in
  let t0 = Obs.Clock.wall () in
  let finish () =
    let t1 = Obs.Clock.wall () in
    let counters = delta c0 (counters ()) in
    t.stack <- List.tl t.stack;
    t.spans <- { id; compile = t.compile; name; parent; t0; t1; counters } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let tracer t = { Compose.span = (fun name f -> record t name f) }

let duration s = s.t1 -. s.t0

(* A span's self time: its duration minus the part its children cover
   (children run one after another inside their parent). *)
let self_times spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans
