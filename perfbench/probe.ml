(* The host-speed probe: a fixed CPU kernel timed between segments of
   requests.  One probe unit (pu) is the wall time of one pass, 40-70 us
   on a shared 2-vCPU Xeon VM.

   Such a host changes speed every 10-50 ms, so the probe is short and
   runs often: between segments of about a millisecond of requests, some
   5 % of the timed phase.  It then sees the host the requests around it
   saw.

   The kernel mixes what a request does: scattered reads and writes of a
   32 KB table, integer hashing, float arithmetic, string comparison and
   short-lived allocation.  Of the kernels tried, one that stays in the L1
   cache tracked the requests' slowdowns best.  It keeps nothing: its
   table is allocated once, and every value it allocates dies within one
   iteration, on the minor heap.  So no data is promoted and its speed
   does not depend on how large the program's major heap is. *)

let table_words = 1 lsl 12
let iterations = 2_500

let table = Array.init table_words (fun i -> i * 2654435761)
let keys = Array.init 64 (fun i -> Printf.sprintf "key-%06d" (i * 7919))

let pass () =
  let x = ref 0x9e3779b9 in
  let acc = ref 0 in
  let f = ref 1.0 in
  for i = 1 to iterations do
    x := ((!x * 25214903917) + 11) land 0xffff_ffff_ffff;
    let j = (!x lsr 17) land (table_words - 1) in
    let v = Array.unsafe_get table j in
    Array.unsafe_set table j (v lxor i);
    let pair = Sys.opaque_identity (v, i) in
    acc := !acc + (fst pair land 0xff) + snd pair;
    f := (!f *. 1.000001) +. (float_of_int (v land 1023) *. 1e-9);
    if String.compare keys.(j land 63) keys.(i land 63) > 0 then incr acc
  done;
  ignore (Sys.opaque_identity (!acc, !f))

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* One probe: one pass, its wall time in seconds. *)
let run () =
  let t0 = now_s () in
  pass ();
  now_s () -. t0
