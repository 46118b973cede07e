(* The benchmark command.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --workload W --replay FILE

   A run prints notes and the command that reproduces it on stderr,
   writes the request lines it served to perfbench/out/W.requests (and,
   traced, the replay's spans to perfbench/out/W.spans.tsv), and prints
   one JSON object as the last line of stdout.  It exits 1 when any
   response is not OK or any row count disagrees with the reference.

   --replay feeds the lines of FILE to [Server.handle_line] on a fresh
   server set up as for workload W and prints each response line. *)

open Dqep_perfbench
module Server = Dqep_serve.Server
module Json = Dqep_util.Json

let out_dir = Filename.concat "perfbench" "out"

let usage () =
  Printf.eprintf
    "usage: main.exe --workload (%s) --seed N --seconds S --trace 0|1\n\
    \       main.exe --workload W --replay FILE\n"
    (String.concat "|" (List.map (fun w -> w.Workload.name) Workload.all));
  exit 2

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v, unit) ->
                  ( name,
                    Json.Obj
                      [ ("value", Json.Float v); ("unit", Json.String unit) ] ))
                metrics) ) ])

let replay_file (w : Workload.t) file =
  let catalog = Bench.Paper_catalog.make ~relations:w.Workload.relations in
  let acquire, release =
    Server.db_pool ~build:(fun () -> Bench.build_db w catalog) ~slots:1 ()
  in
  let server =
    Server.create
      ~config:(Server.config ~cache_capacity:w.Workload.cache_capacity ())
      ~acquire ~release catalog
  in
  let ic = open_in file in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      try
        while true do
          print_endline (Server.handle_line server (input_line ic))
        done
      with End_of_file -> ())

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and replay = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N request-stream seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--replay", Arg.Set_string replay, "FILE serve the request lines of FILE") ]
    (fun _ -> usage ())
    "perfbench";
  let w = match Workload.find !workload with Some w -> w | None -> usage () in
  if !replay <> "" then replay_file w !replay
  else begin
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
    let limit =
      Measure.Seconds (float_of_int !seconds /. float_of_int Bench.rounds)
    in
    let traced = !trace = 1 in
    match Bench.run w ~seed:!seed ~limit ~trace:traced with
    | exception Measure.Incorrect msg ->
      Printf.eprintf "perfbench: incorrect output: %s\n" msg;
      print_endline (result_line ~correct:false ~attempted:1 ~failed:1 []);
      exit 1
    | r ->
      mkdir_p out_dir;
      let requests_file = Filename.concat out_dir (w.Workload.name ^ ".requests") in
      with_out requests_file (fun oc ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            r.Bench.lines);
      Option.iter
        (fun write ->
          with_out (Filename.concat out_dir (w.Workload.name ^ ".spans.tsv")) write)
        r.Bench.write_spans;
      prerr_endline r.Bench.note;
      List.iter
        (fun (name, v, unit) -> Printf.eprintf "  %-36s %14.6g %s\n" name v unit)
        r.Bench.metrics;
      Printf.eprintf
        "reproduce: DQEP_ENGINE=%s DQEP_WORKERS=%d bash perfbench/run.sh \
         --workload %s --seed %d --seconds %d --trace %d\n\
         requests: %s (the first %d lines are warm-up); serve them again with \
         bash perfbench/run.sh --workload %s --replay %s\n"
        (Bench.engine ()) (Bench.workers ()) w.Workload.name !seed !seconds
        !trace requests_file r.Bench.warm w.Workload.name requests_file;
      let shown =
        if traced then r.Bench.metrics
        else
          List.filter
            (fun (name, _, _) -> not (String.starts_with ~prefix:"host." name))
            r.Bench.metrics
      in
      let correct = r.Bench.failed = 0 in
      print_endline
        (result_line ~correct ~attempted:r.Bench.attempted ~failed:r.Bench.failed
           shown);
      if not correct then exit 1
  end
