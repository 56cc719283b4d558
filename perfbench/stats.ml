(* Summary statistics of the benchmark's samples. *)

let sorted xs = List.sort compare xs

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (the exclusive
   method), so the printed spreads match the ones a reader recomputes. A
   single sample is its own quartiles. *)
let quartiles = function
  | [] -> invalid_arg "Stats.quartiles: no samples"
  | [ x ] -> (x, x, x)
  | xs ->
      let a = Array.of_list (sorted xs) in
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.0
      in
      (q 1, q 2, q 3)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
        /. float_of_int (List.length xs))

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* A ratio that reads 0 when the denominator is 0 (a layer that did not
   run on this workload). *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let alnum = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
    | _ -> false
  in
  String.length s > 0
  && String.length s <= 64
  && alnum s.[0]
  && String.for_all ok_char s
