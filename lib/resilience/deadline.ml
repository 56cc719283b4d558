(* Absolute expiry instants on the monotonized wall clock
   ([Obs.Clock.wall]); [None] never expires. Everything here must stay
   allocation-light: [expired] is polled from simplex pivot loops, and
   the common [none] case short-circuits without reading the clock. *)

type t = float option

let none = None
let now () = Obs.Clock.wall ()
let of_budget b = Some (now () +. Float.max 0.0 b)

let clip t ~budget =
  let e = now () +. Float.max 0.0 budget in
  match t with None -> Some e | Some e' -> Some (Float.min e e')

let remaining t = match t with None -> infinity | Some e -> e -. now ()
let expired t = match t with None -> false | Some e -> e -. now () <= 0.0
let is_none t = t = None

exception Expired of string

let check t ~phase = if expired t then raise (Expired phase)

let split t weights =
  match t with
  | None -> List.map (fun (name, _) -> (name, None)) weights
  | Some e ->
      let t0 = now () in
      let rem = Float.max 0.0 (e -. t0) in
      let total =
        List.fold_left (fun acc (_, w) -> acc +. Float.max 0.0 w) 0.0 weights
      in
      let total = if total <= 0.0 then 1.0 else total in
      let acc = ref 0.0 in
      List.map
        (fun (name, w) ->
          acc := !acc +. Float.max 0.0 w;
          (name, Some (Float.min e (t0 +. (rem *. (!acc /. total))))))
        weights

let pp ppf t =
  match t with
  | None -> Format.pp_print_string ppf "none"
  | Some e -> Format.fprintf ppf "%.1fs left" (e -. now ())
