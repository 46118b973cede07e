(* The benchmark's self-test.

     dune build @perfbench/test/selftest

   1. Determinism: per workload, two traced runs of a fixed request count
      with one seed must give identical counts — cache hits, misses and
      evictions, optimizer groups, candidates and choose nodes, choose
      decisions, buffer-pool reads and writes, rows — and a second seed
      must change the request stream.  Count-based claims rest on this.
   2. Probe heap-independence: the probe timed in a fresh process and in
      this process while it holds a grown heap must agree within the
      probe's own spread.  The two sides alternate, so host drift hits
      both alike.

   Exits 1 on any failure. *)

open Dqep_perfbench

let requests = 150
let probe_burst = 2000
let rounds = 5

let probe_stats () =
  let h = Measure.Hist.create () in
  for _ = 1 to probe_burst do
    Measure.Hist.add h (Probe.run ())
  done;
  let q p = fst (Measure.Hist.percentile h p) in
  (q 0.5, q 0.75 -. q 0.25)

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") msg;
      if not ok then incr failures)
    fmt

let show_counts (c : Bench.counts) =
  Printf.sprintf
    "served %d rows %d hits %d misses %d evictions %d reads %d/%d writes %d; %s"
    c.Bench.served c.Bench.rows c.Bench.cache_hits c.Bench.cache_misses
    c.Bench.cache_evictions c.Bench.logical_reads c.Bench.physical_reads
    c.Bench.physical_writes
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) c.Bench.layers))

let determinism (w : Workload.t) =
  let run seed ~trace =
    Bench.run w ~seed ~limit:(Measure.Requests requests) ~trace
  in
  let a = run 1 ~trace:true in
  let b = run 1 ~trace:true in
  check (a.Bench.counts = b.Bench.counts) "%s: seed 1 twice: %s" w.Workload.name
    (show_counts a.Bench.counts);
  if a.Bench.counts <> b.Bench.counts then
    Printf.printf "     second run: %s\n" (show_counts b.Bench.counts);
  let c = run 2 ~trace:false in
  check (a.Bench.lines <> c.Bench.lines) "%s: seed 2 changes the request stream"
    w.Workload.name;
  a

(* Child mode: print the probe's median over a burst, in seconds. *)
let child () =
  let m, iqr = probe_stats () in
  Printf.printf "%.9f %.9f\n" m iqr

let fresh_probe () =
  let ic, oc = Unix.pipe () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--probe" |]
      Unix.stdin oc Unix.stderr
  in
  Unix.close oc;
  let chan = Unix.in_channel_of_descr ic in
  let line = input_line chan in
  close_in chan;
  ignore (Unix.waitpid [] pid);
  Scanf.sscanf line "%f %f" (fun m iqr -> (m, iqr))

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--probe" then child ()
  else begin
    let kept = List.map determinism Workload.all in
    (* The grown heap: every run's results plus a live set-up. *)
    let w = Option.get (Workload.find "hit_overhead") in
    let live =
      Bench.setup w ~seed:1 ~rows_of_body:(Array.make (Bench.n_bodies w) (-1))
    in
    for _ = 1 to 3000 do
      ignore
        (Dqep_serve.Server.handle_line live.Bench.server
           live.Bench.bodies.(live.Bench.next ()))
    done;
    let heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)) /. 1e6
    in
    let sides =
      List.init rounds (fun _ ->
          let fresh = fresh_probe () in
          let grown = probe_stats () in
          (fresh, grown))
    in
    let med f = Measure.median (List.map f sides) in
    let fresh_m = med (fun ((m, _), _) -> m) in
    let grown_m = med (fun (_, (m, _)) -> m) in
    let spread =
      Float.max (med (fun ((_, q), _) -> q)) (med (fun (_, (_, q)) -> q))
    in
    check
      (Float.abs (grown_m -. fresh_m) <= spread)
      "probe: fresh process %.2f us, with a %.0f MB heap %.2f us, IQR %.2f us"
      (fresh_m *. 1e6) heap_mb (grown_m *. 1e6) (spread *. 1e6);
    ignore (Sys.opaque_identity (kept, live));
    if !failures > 0 then exit 1
  end
