(* Host-speed calibration. The hosts this benchmark runs on change speed
   by 30-60% from one minute to the next (shared cores), which would
   swamp any regression bound on a wall time. A fixed kernel, owned by the
   benchmark and untouched by the program, is timed throughout the run;
   reported seconds are scaled to the speed at which the kernel takes
   [reference_s]. *)

let reference_s = 0.05

(* Row updates over a tableau larger than the caches (the simplex's
   inner loop) and allocation-heavy hashing (cut enumeration's). *)
let kernel () =
  let rows = 512 and cols = 2048 in
  let a =
    Array.init rows (fun i ->
        Array.init cols (fun j -> float_of_int (((i * 31) + (j * 17)) mod 97) /. 97.0))
  in
  for p = 0 to 11 do
    let r = p * 37 mod rows in
    let row = a.(r) in
    Array.iteri
      (fun i ai ->
        if i <> r then
          let f = ai.(p) *. 0.001 in
          for j = 0 to cols - 1 do
            ai.(j) <- ai.(j) -. (f *. row.(j))
          done)
      a
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 100_000 do
    let k = i * 7919 mod 10007 in
    let l = Option.value ~default:[] (Hashtbl.find_opt h k) in
    Hashtbl.replace h k (if List.length l > 4 then [ i ] else i :: l)
  done;
  a.(1).(1) +. float_of_int (Hashtbl.length h)

type t = { mutable samples : float list; mutable last : float }

let create () = { samples = []; last = neg_infinity }

(* Each sample starts from a collected heap, like each compile. *)
let sample t =
  Gc.compact ();
  let t0 = Obs.Clock.wall () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Obs.Clock.wall () in
  t.samples <- (t1 -. t0) :: t.samples;
  t.last <- t1

(* Samples at most twice a second, so calibration costs about a tenth of
   the run and still follows the host through it. *)
let maybe_sample t = if Obs.Clock.wall () -. t.last >= 0.5 then sample t

(* Multiply measured seconds by this to get reference seconds. *)
let factor t = reference_s /. Stats.median t.samples
