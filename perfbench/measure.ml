(* The timed loop and the statistics it reports.

   The timed phase is a run of segments: requests until [segment_s] has
   passed, at least one.  The probe runs before every segment and once
   after the last, so it samples the host every millisecond or so, as
   the requests see it.  Segments are grouped into windows of
   [window_s].  A window's probe time is the mean of the probes taken in
   it; the window's wall time and every request latency in it are
   divided by that mean.  [cost_pu] sums the windows' wall time in pu,
   per request.

   Means over a window, not one probe per segment: a single probe is
   noisy (preemptions, cache misses), and dividing by noisy values
   inflates the result by an amount that itself varies from run to run.
   Windows short enough to follow the host's slower drifts keep the
   correction local.  Whatever the caller does between segments
   (parsing responses) is off the clock. *)

let segment_s = 1e-3
let window_s = 0.05
let segment_cap = 1 lsl 16

let now = Probe.now_s

exception Incorrect of string

let fail fmt = Printf.ksprintf (fun s -> raise (Incorrect s)) fmt

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Log-bucketed histogram, 0.5 % wide buckets: constant memory whatever
   the request count, so the harness's own heap does not grow with the
   speed of the program it measures. *)
module Hist = struct
  let ratio = 1.005
  let lo = 1e-5
  let buckets = 5000

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make buckets 0; n = 0 }

  let merge a b =
    { counts = Array.map2 ( + ) a.counts b.counts; n = a.n + b.n }

  let add h v =
    let b =
      if v <= lo then 0
      else Int.min (buckets - 1) (int_of_float (log (v /. lo) /. log ratio))
    in
    h.counts.(b) <- h.counts.(b) + 1;
    h.n <- h.n + 1

  (* The [p] quantile, the samples of its bucket taken as spread evenly
     over the bucket, and how many samples lie in higher buckets. *)
  let percentile h p =
    let target = Int.max 1 (int_of_float (Float.ceil (p *. float_of_int h.n))) in
    let rec go b seen =
      let c = h.counts.(b) in
      if seen + c >= target || b = buckets - 1 then
        let within =
          (float_of_int (target - seen) -. 0.5) /. float_of_int (Int.max 1 c)
        in
        (lo *. (ratio ** (float_of_int b +. within)), h.n - seen - c)
      else go (b + 1) (seen + c)
    in
    go 0 0
end

type limit = Seconds of float | Requests of int

type timed = {
  requests : int;
  segments : int;
  wall_s : float;  (** summed segment wall time *)
  cpu_s : float;  (** CPU time of the phase, less the probes' time *)
  cost_pu : float;  (** summed window wall time in pu, per request *)
  lat_pu : Hist.t;
  lat_ms : Hist.t;
  probe_s : Hist.t;  (** every probe of the phase, in seconds *)
}

(* Run [request i] — it serves request [i] and returns its latency in
   seconds — in probe-separated segments until [limit];
   [segment_done ()] runs after each segment, off the clock. *)
let run_segments ?(segment_done = ignore) ~limit request =
  let lat = Float.Array.make segment_cap 0. in
  let lat_pu = Hist.create () and lat_ms = Hist.create () in
  let probe_s = Hist.create () in
  let i = ref 0 and segments = ref 0 in
  let wall = ref 0. and cost = ref 0. and probing = ref 0. in
  (* The open window: its latencies are lat.(0 .. k-1). *)
  let k = ref 0 and w_wall = ref 0. and w_probe = ref 0. and w_probes = ref 0 in
  let probe () =
    let p = Probe.run () in
    Hist.add probe_s p;
    probing := !probing +. p;
    w_probe := !w_probe +. p;
    incr w_probes
  in
  let close_window () =
    let p = !w_probe /. float_of_int !w_probes in
    cost := !cost +. (!w_wall /. p);
    wall := !wall +. !w_wall;
    for j = 0 to !k - 1 do
      let l = Float.Array.get lat j in
      Hist.add lat_pu (l /. p);
      Hist.add lat_ms (l *. 1000.)
    done;
    k := 0;
    w_wall := 0.;
    w_probe := 0.;
    w_probes := 0
  in
  let within_limit () =
    match limit with Requests n -> !i < n | Seconds _ -> true
  in
  let started = now () and cpu0 = Sys.time () in
  let more () =
    match limit with
    | Seconds s -> now () -. started < s
    | Requests n -> !i < n
  in
  while more () do
    probe ();
    let t0 = now () in
    let t = ref t0 and first = !k in
    while
      !k < segment_cap && within_limit ()
      && (!k = first || !t -. t0 < segment_s)
    do
      Float.Array.set lat !k (request !i);
      t := now ();
      incr k;
      incr i
    done;
    w_wall := !w_wall +. (!t -. t0);
    incr segments;
    segment_done ();
    if !w_wall >= window_s || !k = segment_cap then close_window ()
  done;
  probe ();
  if !k > 0 then close_window ();
  { requests = !i; segments = !segments; wall_s = !wall;
    cpu_s = Sys.time () -. cpu0 -. !probing;
    cost_pu = !cost /. float_of_int !i; lat_pu; lat_ms; probe_s }
