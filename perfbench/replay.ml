(* The traced replay: the same request stream, fed through each layer's
   public entry point in the order [Server.handle_run] calls them, with
   one span per call.

     Protocol.parse_request -> Sql.parse -> Plan_cache.key
     -> Plan_cache.find (miss: Sql.to_logical, Optimizer.optimize,
        Plan_cache.store) -> Plan_cache.bind -> Startup.resolve
     -> Executor.execute -> feedback deposit -> Protocol.render_response

   The replay keeps its own plan cache (same capacity), its own database
   (same data) and its own feedback, so its cache roles follow the
   server's request for request; every request's rows and cache role are
   checked against what the server answered.  Breaker, session admission
   and the resilience supervisor are not replayed: their cost is the
   server's execution window minus resolve and execute
   ([exec.supervision_us]).

   Spans live in one preallocated float array (start and end per stage
   per request) and are written out after the run.  Every stage span's
   parent is its request's root span. *)

module Protocol = Dqep_serve.Protocol
module Plan_cache = Dqep_serve.Plan_cache
module Sql = Dqep_sql.Sql
module Optimizer = Dqep_optimizer.Optimizer
module Startup = Dqep_plans.Startup
module Executor = Dqep_exec.Executor
module Buffer_pool = Dqep_storage.Buffer_pool
module Database = Dqep_storage.Database
module Env = Dqep_cost.Env
module Bindings = Dqep_cost.Bindings
module Feedback = Dqep_obs.Feedback

(* Stage 0 is the request's root span. *)
let stages =
  [| "request"; "protocol.parse"; "sql.parse"; "plan_cache.key";
     "plan_cache.find"; "sql.to_logical"; "optimizer.optimize";
     "plan_cache.store"; "plan_cache.bind"; "startup.resolve";
     "executor.execute"; "plan_cache.feedback"; "protocol.render" |]

let nstages = Array.length stages
let st name =
  let rec go i = if stages.(i) = name then i else go (i + 1) in
  go 0

let s_parse = st "protocol.parse"
let s_sql = st "sql.parse"
let s_key = st "plan_cache.key"
let s_find = st "plan_cache.find"
let s_logical = st "sql.to_logical"
let s_optimize = st "optimizer.optimize"
let s_store = st "plan_cache.store"
let s_bind = st "plan_cache.bind"
let s_resolve = st "startup.resolve"
let s_execute = st "executor.execute"
let s_feedback = st "plan_cache.feedback"
let s_render = st "protocol.render"

type result = {
  req_cost_pu : float;  (** traced cost per request, as the server's *)
  probe_s : float;  (** median probe of the replay's timed phase *)
  resolve_us : float;  (** mean per timed request *)
  execute_ms : float;
  metrics : (string * float * string) list;
  counts : (string * int) list;  (** summed over timed requests *)
  marks : Float.Array.t;  (** span start and end per stage per request *)
}

let get_ok what = function
  | Ok v -> v
  | Error m -> Measure.fail "replay %s: %s" what m

let run ~catalog ~db ~cache_capacity ~bodies ~stream ~warm ~rows_of_body
    ~roles =
  let total = Array.length stream in
  let n = total - warm in
  let marks = Float.Array.make (total * nstages * 2) nan in
  let cache = Plan_cache.create ~capacity:cache_capacity () in
  let fingerprint = Plan_cache.fingerprint catalog in
  let session_fb = Feedback.create () in
  let pool = Database.pool db in
  let mode = Optimizer.dynamic ~uncertain_memory:true () in
  let optimizes = ref 0 and groups = ref 0 and candidates = ref 0 in
  let choose_nodes = ref 0 and decisions = ref 0 and evaluations = ref 0 in
  let rows = ref 0 and logical = ref 0 and physical = ref 0 and writes = ref 0 in
  let request i =
    let timed = i >= warm in
    let b = stream.(i) in
    let base = i * nstages * 2 in
    let span s f =
      let t0 = Measure.now () in
      let v = f () in
      Float.Array.set marks (base + (2 * s)) t0;
      Float.Array.set marks (base + (2 * s) + 1) (Measure.now ());
      v
    in
    let t_start = Measure.now () in
    Float.Array.set marks base t_start;
    let run =
      match span s_parse (fun () -> Protocol.parse_request bodies.(b)) with
      | Ok (Protocol.Run r) -> r
      | Ok _ | Error _ -> Measure.fail "replay: body %d is not a RUN" b
    in
    let ast = get_ok "parse" (span s_sql (fun () -> Sql.parse run.Protocol.sql)) in
    let key = span s_key (fun () -> Plan_cache.key ast) in
    let plan, role =
      match
        span s_find (fun () -> Plan_cache.find cache ~fingerprint ~key)
      with
      | Plan_cache.Hit plan -> (plan, Protocol.Hit)
      | Plan_cache.Miss | Plan_cache.Invalidated_drift ->
        let logical =
          get_ok "to_logical"
            (span s_logical (fun () ->
                 Sql.to_logical catalog (Plan_cache.generalize ast)))
        in
        let refine env =
          let env =
            Env.refine_dists env
              ~selectivities:(Feedback.selectivity_dists session_fb)
          in
          Env.refine_dists env
            ~selectivities:
              (Feedback.selectivity_dists (Plan_cache.shape_feedback cache ~key))
        in
        let r =
          get_ok "optimize"
            (span s_optimize (fun () ->
                 Optimizer.optimize ~refine ~mode catalog logical))
        in
        span s_store (fun () ->
            Plan_cache.store cache ~fingerprint ~key r.Optimizer.plan);
        if timed then begin
          incr optimizes;
          groups := !groups + r.Optimizer.stats.Optimizer.groups;
          candidates := !candidates + r.Optimizer.stats.Optimizer.candidates;
          choose_nodes := !choose_nodes + r.Optimizer.stats.Optimizer.choose_nodes
        end;
        (r.Optimizer.plan, Protocol.Miss)
    in
    let bindings =
      get_ok "bind"
        (span s_bind (fun () ->
             Plan_cache.bind catalog ast ~bindings:run.Protocol.bindings
               ~memory_pages:(Option.value run.Protocol.memory_pages ~default:64)))
    in
    let env, resolution =
      span s_resolve (fun () ->
          let env = Env.of_bindings catalog bindings in
          (env, Startup.resolve env plan))
    in
    let tuples, io =
      span s_execute (fun () ->
          Buffer_pool.resize pool (Executor.memory_pages env);
          let before = Buffer_pool.stats pool in
          let tuples, _ = Executor.execute db env resolution.Startup.plan in
          (tuples, Buffer_pool.diff ~before ~after:(Buffer_pool.stats pool)))
    in
    span s_feedback (fun () ->
        let shape_fb = Plan_cache.shape_feedback cache ~key in
        List.iter
          (fun (p, s) ->
            Feedback.observe_selectivity session_fb p s;
            Feedback.observe_selectivity shape_fb p s)
          bindings.Bindings.selectivities);
    let nrows = List.length tuples in
    ignore
      (span s_render (fun () ->
           Protocol.render_response
             (Protocol.Ok_reply
                { id = None; rows = nrows; cache = role;
                  latency_ms = (Measure.now () -. t_start) *. 1000. })));
    let t_end = Measure.now () in
    Float.Array.set marks (base + 1) t_end;
    if nrows <> rows_of_body.(b) then
      Measure.fail "replay of request %d: %d rows, server %d" i nrows
        rows_of_body.(b);
    if timed then begin
      let server_role = roles.[i - warm] in
      if server_role <> (if role = Protocol.Hit then 'h' else 'm') then
        Measure.fail "replay of request %d: cache %s, server %c" i
          (Protocol.cache_role_name role) server_role;
      let rs = resolution.Startup.stats in
      decisions := !decisions + rs.Startup.choose_decisions;
      evaluations := !evaluations + rs.Startup.cost_evaluations;
      rows := !rows + nrows;
      logical := !logical + io.Buffer_pool.logical_reads;
      physical := !physical + io.Buffer_pool.physical_reads;
      writes := !writes + io.Buffer_pool.physical_writes
    end;
    t_end -. t_start
  in
  for i = 0 to warm - 1 do
    ignore (request i)
  done;
  let t =
    Measure.run_segments ~limit:(Measure.Requests n) (fun i ->
        request (warm + i))
  in
  (* Per-stage totals over the timed requests. *)
  let total_of = Array.make nstages 0. in
  for i = warm to total - 1 do
    for s = 0 to nstages - 1 do
      let a = Float.Array.get marks (((i * nstages) + s) * 2) in
      if not (Float.is_nan a) then
        total_of.(s) <-
          total_of.(s)
          +. (Float.Array.get marks ((((i * nstages) + s) * 2) + 1) -. a)
    done
  done;
  let per_req s = total_of.(s) /. float_of_int n in
  let us s = per_req s *. 1e6 in
  let covered = ref 0. in
  for s = 1 to nstages - 1 do
    covered := !covered +. total_of.(s)
  done;
  let fn = float_of_int n in
  let per_call x =
    if !optimizes = 0 then 0. else float_of_int x /. float_of_int !optimizes
  in
  let logical_f = float_of_int !logical in
  let metrics =
    [ ("protocol.parse_us", us s_parse, "us");
      ("protocol.render_us", us s_render, "us");
      ("plan_cache.key_us", us s_key, "us");
      ("plan_cache.find_us", us s_find, "us");
      ("plan_cache.bind_us", us s_bind, "us");
      ("sql.parse_us", us s_sql, "us");
      ("sql.to_logical_us", us s_logical, "us");
      ("optimizer.optimize_ms", per_req s_optimize *. 1e3, "ms");
      ("optimizer.groups", per_call !groups, "count");
      ("optimizer.candidates", per_call !candidates, "count");
      ("optimizer.choose_nodes", per_call !choose_nodes, "count");
      ("startup.resolve_us", us s_resolve, "us");
      ("startup.choose_decisions", float_of_int !decisions /. fn, "count");
      ("startup.cost_evaluations", float_of_int !evaluations /. fn, "count");
      ("executor.execute_ms", per_req s_execute *. 1e3, "ms");
      ("executor.rows_per_req", float_of_int !rows /. fn, "count");
      ("buffer_pool.logical_reads_per_req", logical_f /. fn, "count");
      ("buffer_pool.physical_reads_per_req", float_of_int !physical /. fn, "count");
      ("buffer_pool.physical_writes_per_req", float_of_int !writes /. fn, "count");
      ( "buffer_pool.hit_ratio",
        (if !logical = 0 then 1. else 1. -. (float_of_int !physical /. logical_f)),
        "1" );
      ("trace.coverage", !covered /. total_of.(0), "1") ]
  in
  { req_cost_pu = t.Measure.cost_pu;
    probe_s = fst (Measure.Hist.percentile t.Measure.probe_s 0.5);
    resolve_us = us s_resolve;
    execute_ms = per_req s_execute *. 1e3;
    metrics;
    counts =
      [ ("optimizer.calls", !optimizes); ("optimizer.groups", !groups);
        ("optimizer.candidates", !candidates);
        ("optimizer.choose_nodes", !choose_nodes);
        ("startup.choose_decisions", !decisions);
        ("startup.cost_evaluations", !evaluations); ("replay.rows", !rows);
        ("replay.logical_reads", !logical); ("replay.physical_reads", !physical);
        ("replay.physical_writes", !writes) ];
    marks }

(* One line per span: request, span id, parent span id (-1 for a root),
   name, start and end in microseconds of the monotonic clock. *)
let write_spans r oc =
  output_string oc "request\tspan\tparent\tname\tstart_us\tend_us\n";
  for i = 0 to (Float.Array.length r.marks / (nstages * 2)) - 1 do
    for s = 0 to nstages - 1 do
      let k = ((i * nstages) + s) * 2 in
      let a = Float.Array.get r.marks k in
      if not (Float.is_nan a) then
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%.3f\t%.3f\n" i ((i * nstages) + s)
          (if s = 0 then -1 else i * nstages)
          stages.(s) (a *. 1e6)
          (Float.Array.get r.marks (k + 1) *. 1e6)
    done
  done
