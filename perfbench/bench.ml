(* One benchmark run: set-up, the timed closed loop through
   [Server.handle_line], the correctness gate, and (traced runs) the
   layer-by-layer replay.

   One client sends the next request only after the previous response:
   a closed loop, one client, no sockets.  The server runs with its
   default engine and worker count ([DQEP_ENGINE], [DQEP_WORKERS]). *)

module Server = Dqep_serve.Server
module Protocol = Dqep_serve.Protocol
module Plan_cache = Dqep_serve.Plan_cache
module Catalog = Dqep_catalog.Catalog
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool
module Paper_catalog = Dqep_workload.Paper_catalog
module Sql = Dqep_sql.Sql
module Reference = Dqep_exec.Reference
module Exec_common = Dqep_exec.Exec_common
module Session = Dqep_exec.Session
module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter

let now = Measure.now
let fail = Measure.fail

(* A run is this many rounds, each in a fresh child process: set-up,
   then an equal share of the timed phase.  Processes of one binary on
   one host differ in speed by several percent (memory placement, the
   host's state while they run); pooling several per run averages that
   out, and [setup_s] is the median of the rounds' set-ups. *)
let rounds = 5

(* [setup_s] is the set-up's wall time rescaled to a host whose probe pass
   takes this long (about the median on a shared 2-vCPU Xeon VM): raw
   set-up time on such a host swings by half between quiet and busy
   minutes, which would hide the set-up work a change adds or removes. *)
let reference_probe_s = 40e-6

type env = {
  catalog : Catalog.t;
  db : Database.t;
  server : Server.t;
  bodies : string array;
  next : unit -> int;  (** the seeded stream of body indices *)
  warm : int;  (** stream positions served before timing *)
  acquired : float ref;  (** when the last request borrowed the database *)
  released : float ref;  (** ... and when it gave it back *)
}

let build_db (w : Workload.t) catalog =
  Database.build ~frames:w.Workload.frames ~seed:Workload.data_seed catalog

(* The row count of every body served must be the same every time it is
   served; the counts are checked against the reference evaluator after
   the timed phase. *)
let note_rows rows_of_body b rows =
  let seen = rows_of_body.(b) in
  if seen < 0 then rows_of_body.(b) <- rows
  else if seen <> rows then
    fail "body %d returned %d rows, earlier %d" b rows seen

let parse_ok line =
  match Protocol.parse_response line with
  | Ok (Protocol.Ok_reply { rows; cache; _ }) -> Some (rows, cache)
  | Ok _ | Error _ -> None

(* Catalog, database, server and warm-up: everything before the first
   timed request.  The acquire/release pair lends the one database and
   stamps the time, splitting each request into the part before
   execution, execution, and the part after. *)
let setup (w : Workload.t) ~seed ~rows_of_body =
  let catalog = Paper_catalog.make ~relations:w.Workload.relations in
  let db = build_db w catalog in
  let acquired = ref 0. and released = ref 0. in
  let acquire ~shape:_ =
    acquired := now ();
    db
  in
  let release ~shape:_ _ = released := now () in
  let server =
    Server.create
      ~config:(Server.config ~cache_capacity:w.Workload.cache_capacity ())
      ~acquire ~release catalog
  in
  let bodies = Workload.bodies w ~seed in
  let next = Workload.stream w ~seed in
  let warm = List.length w.Workload.shapes + w.Workload.warmup in
  for _ = 1 to warm do
    let b = next () in
    let resp = Server.handle_line server bodies.(b) in
    match parse_ok resp with
    | Some (rows, _) -> note_rows rows_of_body b rows
    | None -> fail "warm-up request failed: %s -> %s" bodies.(b) resp
  done;
  { catalog; db; server; bodies; next; warm; acquired; released }

(* Each distinct request body's row count against the naive reference
   evaluator over the same data. *)
let verify (w : Workload.t) ~bodies rows_of_body =
  let catalog = Paper_catalog.make ~relations:w.Workload.relations in
  let db = build_db w catalog in
  Array.iteri
    (fun b rows ->
      if rows >= 0 then
        match Protocol.parse_request bodies.(b) with
        | Ok (Protocol.Run r) -> (
          let ast =
            match Sql.parse r.Protocol.sql with
            | Ok ast -> ast
            | Error m -> fail "body %d: %s" b m
          in
          let memory_pages = Option.value r.Protocol.memory_pages ~default:64 in
          match
            ( Sql.to_logical catalog (Plan_cache.generalize ast),
              Plan_cache.bind catalog ast ~bindings:r.Protocol.bindings
                ~memory_pages )
          with
          | Ok logical, Ok bindings ->
            let expected = List.length (snd (Reference.eval db bindings logical)) in
            if expected <> rows then
              fail "body %d: server returned %d rows, reference %d" b rows
                expected
          | Error m, _ | _, Error m -> fail "body %d: %s" b m)
        | Ok _ | Error _ -> fail "body %d does not parse" b)
    rows_of_body

(* What one round measured, sent from its child process to the parent. *)
type round = {
  setup_s : float;
  heap_peak_mb : float;  (** [Gc.top_heap_words] at the end of the timed phase *)
  setup_raw_s : float;
  probe_fresh_s : float;  (** the probe around set-up, median of two bursts *)
  t : Measure.timed;
  failed : int;
  rows : int;
  rows_of_body : int array;
  front_s : float;  (** summed over timed requests: before acquire *)
  exec_s : float;  (** acquire to release *)
  back_s : float;  (** release to response *)
  hits : int;
  misses : int;
  evictions : int;
  logical_reads : int;
  physical_reads : int;
  physical_writes : int;
  budget_aborts : int;  (** the supervisor's aborts of over-budget attempts *)
  failovers : int;  (** ... and its switches to another alternative *)
  replay : Replay.result option;  (** traced runs, first round only *)
}

let n_bodies (w : Workload.t) =
  List.length w.Workload.shapes * (w.Workload.per_shape + 1)

(* One round.  With [replay], the round then replays its own stream
   through the layers, in the same process, right after its timed phase,
   so the replay's times compare with this round's server times. *)
let round (w : Workload.t) ~seed ~limit ~replay =
  let burst () = List.init 101 (fun _ -> Probe.run ()) in
  let before = burst () in
  let rows_of_body = Array.make (n_bodies w) (-1) in
  let t0 = now () in
  let e = setup w ~seed ~rows_of_body in
  let setup_raw_s = now () -. t0 in
  let probe_fresh_s = Measure.median (before @ burst ()) in
  let setup_s = setup_raw_s *. reference_probe_s /. probe_fresh_s in
  let roles = Buffer.create (if replay then 4096 else 1) in
  let pending = Array.make Measure.segment_cap 0 in
  let pending_resp = Array.make Measure.segment_cap "" in
  let npending = ref 0 in
  let failed = ref 0 and rows = ref 0 in
  let front = ref 0. and exec = ref 0. and back = ref 0. in
  let request _ =
    let b = e.next () in
    let t_start = now () in
    let resp = Server.handle_line e.server e.bodies.(b) in
    let t_end = now () in
    front := !front +. (!(e.acquired) -. t_start);
    exec := !exec +. (!(e.released) -. !(e.acquired));
    back := !back +. (t_end -. !(e.released));
    pending.(!npending) <- b;
    pending_resp.(!npending) <- resp;
    incr npending;
    t_end -. t_start
  in
  let segment_done () =
    for j = 0 to !npending - 1 do
      match parse_ok pending_resp.(j) with
      | Some (r, cache) ->
        note_rows rows_of_body pending.(j) r;
        rows := !rows + r;
        if replay then
          Buffer.add_char roles (if cache = Protocol.Hit then 'h' else 'm')
      | None ->
        incr failed;
        if replay then Buffer.add_char roles 'e'
    done;
    npending := 0
  in
  let supervisor c = Trace.get (Session.obs (Server.session e.server)) c in
  let aborts0 = supervisor Counter.Budget_aborts in
  let failovers0 = supervisor Counter.Failovers in
  let stats0 = Server.stats e.server in
  let pool0 = Buffer_pool.stats (Database.pool e.db) in
  let t = Measure.run_segments ~segment_done ~limit request in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let stats1 = Server.stats e.server in
  let pool1 = Buffer_pool.stats (Database.pool e.db) in
  let delta f = f stats1 - f stats0 in
  let pool_delta f = f pool1 - f pool0 in
  let budget_aborts = supervisor Counter.Budget_aborts - aborts0 in
  let failovers = supervisor Counter.Failovers - failovers0 in
  let replay =
    if replay && !failed = 0 then begin
      (* The stream is a function of the seed: draw it again rather than
         keep it during the timed phase. *)
      let next = Workload.stream w ~seed in
      let stream =
        Array.init (e.warm + t.Measure.requests) (fun _ -> next ())
      in
      Some
        (Replay.run ~catalog:e.catalog ~db:(build_db w e.catalog)
           ~cache_capacity:w.Workload.cache_capacity ~bodies:e.bodies ~stream
           ~warm:e.warm ~rows_of_body ~roles:(Buffer.contents roles))
    end
    else None
  in
  { setup_s; setup_raw_s; heap_peak_mb; probe_fresh_s; t; failed = !failed;
    rows = !rows;
    rows_of_body; front_s = !front;
    exec_s = !exec; back_s = !back;
    hits = delta (fun s -> s.Server.cache_hits);
    misses = delta (fun s -> s.Server.cache_misses);
    evictions = delta (fun s -> s.Server.cache_evictions);
    logical_reads = pool_delta (fun s -> s.Buffer_pool.logical_reads);
    physical_reads = pool_delta (fun s -> s.Buffer_pool.physical_reads);
    physical_writes = pool_delta (fun s -> s.Buffer_pool.physical_writes);
    budget_aborts; failovers; replay }

(* Run [f] in a forked child and return its result; the parent waits for
   the child to end.  The parent spawns no domains before its last fork. *)
let in_child f =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let res =
      try Ok (f ()) with
      | Measure.Incorrect m -> Error m
      | e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr wr in
    Marshal.to_channel oc (res : (round, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let res =
      try (Marshal.from_channel ic : (round, string) result)
      with End_of_file -> Error "a round's process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    (match res with Ok r -> r | Error m -> raise (Measure.Incorrect m))

type counts = {
  served : int;  (** timed requests, all rounds *)
  rows : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  logical_reads : int;  (** buffer pool, timed phases *)
  physical_reads : int;
  physical_writes : int;
  failovers : int;  (** the server's supervisor, timed phases *)
  layers : (string * int) list;  (** the replay's counts; empty untraced *)
}

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
  counts : counts;
  lines : string list;  (** the first round's request lines, warm-up first *)
  warm : int;
  write_spans : (out_channel -> unit) option;
  note : string;
}

let engine () = Exec_common.engine_name (Exec_common.default_engine ())
let workers () = Exec_common.default_workers ()

(* [limit] applies to each of the [rounds] rounds. *)
let run (w : Workload.t) ~seed ~limit ~trace =
  let parts =
    List.init rounds (fun k ->
        in_child (fun () -> round w ~seed ~limit ~replay:(trace && k = 0)))
  in
  let first = List.hd parts in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 parts in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0. parts in
  let merged f =
    List.fold_left
      (fun acc r -> Measure.Hist.merge acc (f r))
      (Measure.Hist.create ()) parts
  in
  let n = sum (fun r -> r.t.Measure.requests) in
  let fn = float_of_int n in
  let failed = sum (fun r -> r.failed) in
  (* One row count per body across all rounds. *)
  let rows_of_body = Array.make (n_bodies w) (-1) in
  List.iter
    (fun r ->
      Array.iteri
        (fun b rows -> if rows >= 0 then note_rows rows_of_body b rows)
        r.rows_of_body)
    parts;
  let bodies = Workload.bodies w ~seed in
  let verify_s =
    let t0 = now () in
    if failed = 0 then verify w ~bodies rows_of_body;
    now () -. t0
  in
  (* Every round serves the same stream; draw the first round's again. *)
  let warm = List.length w.Workload.shapes + w.Workload.warmup in
  let stream =
    let next = Workload.stream w ~seed in
    Array.init (warm + first.t.Measure.requests) (fun _ -> next ())
  in
  let req_cost_pu =
    sumf (fun r -> r.t.Measure.cost_pu *. float_of_int r.t.Measure.requests) /. fn
  in
  let lat_pu = merged (fun r -> r.t.Measure.lat_pu) in
  let lat_ms = merged (fun r -> r.t.Measure.lat_ms) in
  let probe_s = merged (fun r -> r.t.Measure.probe_s) in
  let p50_pu, _ = Measure.Hist.percentile lat_pu 0.5 in
  let p99_pu, above = Measure.Hist.percentile lat_pu 0.99 in
  let probe q = fst (Measure.Hist.percentile probe_s q) *. 1000. in
  let median_of f = Measure.median (List.map f parts) in
  let end_to_end =
    [ ("req_cost_pu", req_cost_pu, "pu");
      ("latency_p50_pu", p50_pu, "pu");
      ("latency_p99_pu", p99_pu, "pu");
      ("setup_s", median_of (fun r -> r.setup_s), "s");
      ("heap_peak_mb", median_of (fun r -> r.heap_peak_mb), "MB");
      ("ok_frac", float_of_int (n - failed) /. fn, "1") ]
  in
  let host =
    [ ("host.probe_ms", probe 0.5, "ms");
      ("host.probe_iqr_ms", probe 0.75 -. probe 0.25, "ms");
      ("host.probe_fresh_ms", median_of (fun r -> r.probe_fresh_s) *. 1000., "ms");
      ("host.setup_raw_s", median_of (fun r -> r.setup_raw_s), "s");
      ("host.throughput_rps", fn /. sumf (fun r -> r.t.Measure.wall_s), "1/s");
      ("host.latency_p50_ms", fst (Measure.Hist.percentile lat_ms 0.5), "ms");
      ("host.latency_p99_ms", fst (Measure.Hist.percentile lat_ms 0.99), "ms");
      ( "host.cpu_ms_per_req",
        sumf (fun r -> r.t.Measure.cpu_s) *. 1000. /. fn,
        "ms" ) ]
  in
  let hits = sum (fun r -> r.hits) and misses = sum (fun r -> r.misses) in
  let evictions = sum (fun r -> r.evictions) in
  let per_layer =
    match first.replay with
    | None -> []
    | Some rp ->
      let us x = x /. fn *. 1e6 in
      let exec_us = us (sumf (fun r -> r.exec_s)) in
      (* The replay's stage times against the same round's server, the
         replay's rescaled to the host speed the server phase saw. *)
      let first_exec_us =
        first.exec_s /. float_of_int first.t.Measure.requests *. 1e6
      in
      let drift =
        fst (Measure.Hist.percentile first.t.Measure.probe_s 0.5)
        /. rp.Replay.probe_s
      in
      [ ("server.front_us", us (sumf (fun r -> r.front_s)), "us");
        ("server.exec_us", exec_us, "us");
        ("server.back_us", us (sumf (fun r -> r.back_s)), "us");
        ( "exec.supervision_us",
          first_exec_us
          -. (drift *. (rp.Replay.resolve_us +. (rp.Replay.execute_ms *. 1000.))),
          "us" );
        ( "plan_cache.hit_ratio",
          float_of_int hits /. float_of_int (Int.max 1 (hits + misses)),
          "1" );
        ("plan_cache.evictions_per_req", float_of_int evictions /. fn, "count");
        ( "exec.budget_aborts_per_req",
          float_of_int (sum (fun r -> r.budget_aborts)) /. fn,
          "count" );
        ( "exec.failovers_per_req",
          float_of_int (sum (fun r -> r.failovers)) /. fn,
          "count" ) ]
      @ rp.Replay.metrics
      @ [ ( "trace.overhead",
            rp.Replay.req_cost_pu /. first.t.Measure.cost_pu,
            "1" ) ]
  in
  { attempted = n;
    failed;
    metrics = (if trace then per_layer @ host else end_to_end @ host);
    counts =
      { served = n; rows = sum (fun r -> r.rows); cache_hits = hits;
        cache_misses = misses; cache_evictions = evictions;
        logical_reads = sum (fun r -> r.logical_reads);
        physical_reads = sum (fun r -> r.physical_reads);
        physical_writes = sum (fun r -> r.physical_writes);
        failovers = sum (fun r -> r.failovers);
        layers =
          (match first.replay with None -> [] | Some r -> r.Replay.counts) };
    lines = Array.to_list (Array.map (fun b -> bodies.(b)) stream);
    warm;
    write_spans = Option.map Replay.write_spans first.replay;
    note =
      Printf.sprintf
        "%s seed %d: %d timed requests over %d rounds (%d latency samples \
         above p99), %d distinct bodies verified in %.1f s; engine %s, \
         workers %d; closed loop, 1 client"
        w.Workload.name seed n rounds above
        (Array.fold_left
           (fun acc r -> if r >= 0 then acc + 1 else acc)
           0 rows_of_body)
        verify_s (engine ()) (workers ()) }
