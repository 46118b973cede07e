(* Bucket 0 is the zero bucket; bucket [k >= 1] is log-bucket
   [i = k - 1 + lo], covering (g^(i-1), g^i] for g = (1+e)/(1-e).  Any x
   in that range reads as 2 g^i / (g + 1), which is within e of x
   relatively: at the top edge the ratio is 2 / (g + 1) = 1 - e, at the
   bottom 2 g / (g + 1) = 1 + e. *)

let relative_error = 0.01
let min_value = 1e-6
let max_value = 1e6
let gamma = (1. +. relative_error) /. (1. -. relative_error)
let log_gamma = log gamma
let index x = int_of_float (Float.ceil (log x /. log_gamma))
let lo = index min_value
let hi = index max_value

type t = { counts : int array; mutable n : int }

let create () = { counts = Array.make (hi - lo + 2) 0; n = 0 }

let add t x =
  let k = if x <= 0. then 0 else 1 + Int.max 0 (Int.min (hi - lo) (index x - lo)) in
  t.counts.(k) <- t.counts.(k) + 1;
  t.n <- t.n + 1

let value k =
  if k = 0 then 0.
  else 2. *. (gamma ** float_of_int (k - 1 + lo)) /. (gamma +. 1.)

let percentile p t =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile: p out of range";
  if t.n = 0 then 0.
  else begin
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
    let rank = Int.max 1 (Int.min t.n rank) in
    let rec go k seen =
      let seen = seen + t.counts.(k) in
      if seen >= rank then value k else go (k + 1) seen
    in
    go 0 0
  end
