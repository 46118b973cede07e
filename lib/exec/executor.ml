module Interval = Dqep_util.Interval
module Timer = Dqep_util.Timer
module Trace = Dqep_obs.Trace
module Counter = Dqep_obs.Counter
module Schema = Dqep_algebra.Schema
module Physical = Dqep_algebra.Physical
module Predicate = Dqep_algebra.Predicate
module Col = Dqep_algebra.Col
module Catalog = Dqep_catalog.Catalog
module Env = Dqep_cost.Env
module Plan = Dqep_plans.Plan
module Startup = Dqep_plans.Startup
module Database = Dqep_storage.Database
module Buffer_pool = Dqep_storage.Buffer_pool
module Heap_file = Dqep_storage.Heap_file
module Btree = Dqep_storage.Btree

type run_stats = {
  tuples : int;
  io : Buffer_pool.stats;
  cpu_seconds : float;
  resolved_plan : Plan.t;
  choose_nodes : int;
  retries : int;
  faults_absorbed : int;
  budget_aborts : int;
  failovers : int;
  replans : int;
}

exception Infeasible of Dqep_plans.Validate.problem list
exception Invalid_plan of Dqep_util.Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Infeasible problems ->
      Some
        (Format.asprintf "Executor.Infeasible(%a)"
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
              Dqep_plans.Validate.pp_problem)
           problems)
    | Invalid_plan diags ->
      Some
        (Format.asprintf "Executor.Invalid_plan(%s)"
           (Dqep_util.Diagnostic.list_to_string diags))
    | _ -> None)

let memory_pages = Exec_common.memory_pages

(* Activation-time validation (paper, Section 2).  The full static
   verifier runs first: corruption — broken DAG identity, inverted cost
   intervals, non-equivalent choose alternatives — is unrecoverable and
   raises [Invalid_plan] up front.  Catalog drift (the feasibility subset
   of diagnostics, equivalent to [Validate.check]) is survivable: a plan
   referencing a dropped object either loses only some choose-plan
   alternatives — then the pruned plan runs — or is truly dead and raises
   [Infeasible] instead of an arbitrary [Invalid_argument] mid-iteration.

   Plans and catalogs are immutable, so the static part of the verdict —
   the corrupt diagnostics and [Validate.check]'s result — is a function
   of the (plan node, catalog) pair and is computed once per pair: a
   cached plan served many times is verified once, and a catalog swap
   re-verifies it.  The memo holds its plan keys weakly, so it keeps
   alive no plan the plan cache has dropped.  Pruning depends on the
   env and still runs per call. *)
type verdict = {
  corrupt : Dqep_util.Diagnostic.t list;
  valid : (unit, Dqep_plans.Validate.problem list) result;
}

module Verdicts = Ephemeron.K1.Make (struct
  type t = Plan.t

  let equal = ( == )
  let hash (p : Plan.t) = Hashtbl.hash p.Plan.pid
end)

let verdicts : (Catalog.t * verdict) Verdicts.t = Verdicts.create 64
let verdicts_mu = Mutex.create ()

let compute_verdict catalog plan =
  { corrupt =
      Dqep_analysis.Verify.plan ~catalog plan
      |> Dqep_util.Diagnostic.errors
      |> List.filter (fun (d : Dqep_util.Diagnostic.t) ->
             not
               (Dqep_util.Diagnostic.is_feasibility d.Dqep_util.Diagnostic.code));
    valid = Dqep_plans.Validate.check catalog plan }

let verdict catalog plan =
  let cached =
    Mutex.protect verdicts_mu (fun () -> Verdicts.find_opt verdicts plan)
  in
  match cached with
  | Some (c, v) when c == catalog -> v
  | Some _ | None ->
    (* Computed outside the lock: two domains racing on a new pair both
       compute the same verdict, and either store is correct. *)
    let v = compute_verdict catalog plan in
    Mutex.protect verdicts_mu (fun () ->
        Verdicts.replace verdicts plan (catalog, v));
    v

let check_feasible db env plan =
  let catalog = Database.catalog db in
  let { corrupt; valid } = verdict catalog plan in
  if corrupt <> [] then raise (Invalid_plan corrupt);
  match valid with
  | Ok () -> plan
  | Error problems -> (
    match Dqep_plans.Validate.prune_infeasible env catalog plan with
    | Some pruned -> pruned
    | None -> raise (Infeasible problems))

(* --- helpers --------------------------------------------------------------- *)

let base_schema = Exec_common.base_schema

(* Stream a heap file page by page, copying each page's tuples out while
   pinned. *)
let heap_iterator db gov schema heap =
  let pages = ref [] in
  let buffered = ref [] in
  { Iterator.schema;
    open_ =
      (fun () ->
        pages := Heap_file.page_ids heap;
        buffered := []);
    next =
      (fun () ->
        let rec go () =
          Governor.check gov;
          match !buffered with
          | t :: rest ->
            buffered := rest;
            Some t
          | [] -> (
            match !pages with
            | [] -> None
            | page :: rest ->
              pages := rest;
              let copied = ref [] in
              Buffer_pool.with_page (Database.pool db) page (fun p ->
                  match p.Dqep_storage.Page.payload with
                  | Dqep_storage.Page.Heap h ->
                    for slot = h.count - 1 downto 0 do
                      copied := h.tuples.(slot) :: !copied
                    done
                  | Dqep_storage.Page.Free | Dqep_storage.Page.Btree _ ->
                    invalid_arg "Executor: corrupt heap page");
              buffered := !copied;
              go ())
        in
        go ());
    close = (fun () -> ()) }

(* Fetch records for a list of rids, one at a time. *)
let rid_fetch_iterator db gov schema rids_ref =
  { Iterator.schema;
    open_ = (fun () -> ());
    next =
      (fun () ->
        Governor.check gov;
        match !rids_ref with
        | [] -> None
        | rid :: rest ->
          rids_ref := rest;
          Some (Heap_file.fetch (Database.pool db) rid));
    close = (fun () -> ()) }

(* --- operators ---------------------------------------------------------- *)

let filter_iterator pred child = { child with Iterator.next = pred child.Iterator.next }

let schema_of db plan = Plan.schema (Database.catalog db) plan

(* Per-operator cardinality tap: counts rows through the trace's ring of
   observed operators.  Wrapped around a compiled node only when the
   trace asked for taps, so the default path pays nothing.  Rows are
   buffered in a local ref and reported once per drain (at end-of-stream
   or close), keeping the per-tuple cost to one increment. *)
let tap_iterator obs (plan : Plan.t) (it : Iterator.t) =
  let op = Physical.name plan.Plan.op in
  let pid = plan.Plan.pid in
  let rows = ref 0 in
  let reported = ref false in
  { it with
    Iterator.open_ =
      (fun () ->
        rows := 0;
        reported := false;
        it.Iterator.open_ ());
    next =
      (fun () ->
        match it.Iterator.next () with
        | Some t ->
          incr rows;
          Some t
        | None ->
          if not !reported then begin
            reported := true;
            Trace.tap obs ~pid ~op ~rows:!rows;
            rows := 0
          end;
          None);
    close =
      (fun () ->
        if (not !reported) && !rows > 0 then begin
          reported := true;
          Trace.tap obs ~pid ~op ~rows:!rows;
          rows := 0
        end;
        it.Iterator.close ()) }

let rec compile_node db env gov obs mat ckpt (plan : Plan.t) : Iterator.t =
  let it = compile_op db env gov obs mat ckpt plan in
  if Trace.taps_enabled obs then tap_iterator obs plan it else it

and compile_op db env gov obs mat ckpt (plan : Plan.t) : Iterator.t =
  match List.assoc_opt plan.Plan.pid mat with
  | Some tuples ->
    (* The subplan was already materialized (mid-query adaptation):
       serve its temporary result. *)
    Iterator.of_list (schema_of db plan) tuples
  | None ->
  match plan.Plan.op with
  | Physical.File_scan rel ->
    heap_iterator db gov (base_schema db rel) (Database.heap db rel)
  | Physical.Btree_scan { rel; attr } ->
    let schema = base_schema db rel in
    let rids = ref [] in
    let base = rid_fetch_iterator db gov schema rids in
    { base with
      Iterator.open_ =
        (fun () ->
          Governor.check gov;
          let acc = ref [] in
          Btree.range (Database.pool db) (Database.index db ~rel ~attr) ~lo:None
            ~hi:None (fun _ rid -> acc := rid :: !acc);
          rids := List.rev !acc) }
  | Physical.Filter pred ->
    let child = compile_child db env gov obs mat ckpt plan in
    let matches = Pred_eval.select_matches env child.Iterator.schema pred in
    filter_iterator
      (fun next ->
        fun () ->
          let rec go () =
            match next () with
            | None -> None
            | Some t -> if matches t then Some t else go ()
          in
          go ())
      child
  | Physical.Filter_btree_scan { rel; attr; pred } ->
    let schema = base_schema db rel in
    let rids = ref [] in
    let base = rid_fetch_iterator db gov schema rids in
    { base with
      Iterator.open_ =
        (fun () ->
          Governor.check gov;
          let cutoff = Pred_eval.threshold env pred in
          let acc = ref [] in
          if cutoff > 0 then
            Btree.range (Database.pool db) (Database.index db ~rel ~attr) ~lo:None
              ~hi:(Some (cutoff - 1)) (fun _ rid -> acc := rid :: !acc);
          rids := List.rev !acc) }
  | Physical.Hash_join preds -> hash_join db env gov obs mat ckpt plan preds
  | Physical.Merge_join preds -> merge_join db env gov obs mat ckpt plan preds
  | Physical.Index_join { preds; inner_rel; inner_attr; inner_filter } ->
    index_join db env gov obs mat ckpt plan preds ~inner_rel ~inner_attr ~inner_filter
  | Physical.Sort cols -> sort db env gov obs mat ckpt plan cols
  | Physical.Choose_plan ->
    let resolved = Startup.resolve env plan in
    (* Alternatives may concatenate the same columns in different
       orders; the parent binds positions against this node's nominal
       schema (the first alternative's), so permute if needed. *)
    Iterator.remap ~target:(schema_of db plan)
      (compile_node db env gov obs mat ckpt resolved.Startup.plan)

and compile_child db env gov obs mat ckpt (plan : Plan.t) =
  match plan.Plan.inputs with
  | [ child ] -> compile_node db env gov obs mat ckpt child
  | _ -> invalid_arg "Executor: expected unary operator"

and compile_children db env gov obs mat ckpt (plan : Plan.t) =
  match plan.Plan.inputs with
  | [ l; r ] ->
    (compile_node db env gov obs mat ckpt l, compile_node db env gov obs mat ckpt r)
  | _ -> invalid_arg "Executor: expected binary operator"

and hash_join db env gov obs mat ckpt (plan : Plan.t) preds =
  let left_it, right_it = compile_children db env gov obs mat ckpt plan in
  let left_schema = left_it.Iterator.schema
  and right_schema = right_it.Iterator.schema in
  let schema = Schema.concat left_schema right_schema in
  let left_width, right_width =
    match plan.Plan.inputs with
    | [ l; r ] -> (l.Plan.bytes_per_row, r.Plan.bytes_per_row)
    | _ -> assert false
  in
  let results = ref [] in
  let residual = Pred_eval.equi_matches ~left:left_schema ~right:right_schema preds in
  (* The hash key covers every predicate, but verify defensively. *)
  let emit l r = if residual l r then results := Array.append l r :: !results in
  let pending = ref [] in
  { Iterator.schema;
    open_ =
      (fun () ->
        results := [];
        let build = Iterator.consume left_it in
        (* Build completion is a blocking point: checkpoint the fully
           consumed build side before any probe work. *)
        (match plan.Plan.inputs with
        | [ l; _ ] -> Checkpoint.take ckpt db env l ~schema:left_schema build
        | _ -> ());
        let probe = Iterator.consume right_it in
        Exec_common.hash_join_core ~gov ~obs db env ~left_schema ~right_schema
          ~left_width ~right_width ~preds ~emit build probe;
        pending := List.rev !results);
    next =
      (fun () ->
        match !pending with
        | [] -> None
        | t :: rest ->
          pending := rest;
          Some t);
    close = (fun () -> ()) }

and merge_join db env gov obs mat ckpt (plan : Plan.t) preds =
  let left_it, right_it = compile_children db env gov obs mat ckpt plan in
  let left_schema = left_it.Iterator.schema
  and right_schema = right_it.Iterator.schema in
  let schema = Schema.concat left_schema right_schema in
  let first =
    match preds with
    | p :: _ -> p
    | [] -> invalid_arg "Executor: merge join without predicates"
  in
  let lpos = Schema.position_exn left_schema first.Predicate.left in
  let rpos = Schema.position_exn right_schema first.Predicate.right in
  let residual = Pred_eval.equi_matches ~left:left_schema ~right:right_schema preds in
  let right_width =
    match plan.Plan.inputs with
    | [ _; r ] -> r.Plan.bytes_per_row
    | _ -> invalid_arg "Executor: merge join expects two inputs"
  in
  let right_arr = ref [||] in
  let rpointer = ref 0 in
  let group = ref [||] in
  let group_idx = ref 0 in
  let current_left = ref None in
  let charged = ref 0 in
  let release () =
    Governor.release gov !charged;
    charged := 0
  in
  { Iterator.schema;
    open_ =
      (fun () ->
        release ();
        left_it.Iterator.open_ ();
        let right = Iterator.consume right_it in
        (* The materialized right side is this operator's working set. *)
        Governor.charge gov (List.length right * Int.max 1 right_width);
        charged := List.length right * Int.max 1 right_width;
        right_arr := Array.of_list right;
        rpointer := 0;
        group := [||];
        group_idx := 0;
        current_left := None);
    next =
      (fun () ->
        Governor.check gov;
        let rec emit () =
          match !current_left with
          | Some l when !group_idx < Array.length !group ->
            let r = !group.(!group_idx) in
            incr group_idx;
            if residual l r then Some (Array.append l r) else emit ()
          | _ -> (
            match left_it.Iterator.next () with
            | None -> None
            | Some l ->
              let key = l.(lpos) in
              (* Advance to the right group with this key. *)
              let arr = !right_arr in
              while
                !rpointer < Array.length arr && arr.(!rpointer).(rpos) < key
              do
                incr rpointer
              done;
              let start = !rpointer in
              let stop = ref start in
              while !stop < Array.length arr && arr.(!stop).(rpos) = key do
                incr stop
              done;
              (* Do not advance [rpointer] past the group: the next left
                 tuple may carry the same key. *)
              group := Array.sub arr start (!stop - start);
              group_idx := 0;
              current_left := Some l;
              emit ())
        in
        emit ());
    close =
      (fun () ->
        left_it.Iterator.close ();
        right_arr := [||];
        release ()) }

and index_join db env gov obs mat ckpt (plan : Plan.t) preds ~inner_rel ~inner_attr
    ~inner_filter =
  let outer_it =
    match plan.Plan.inputs with
    | [ o ] -> compile_node db env gov obs mat ckpt o
    | _ -> invalid_arg "Executor: index join expects one input"
  in
  let outer_schema = outer_it.Iterator.schema in
  let inner_schema = base_schema db inner_rel in
  let schema = Schema.concat outer_schema inner_schema in
  let probe_pred =
    match
      List.find_opt
        (fun (p : Predicate.equi) ->
          p.Predicate.right.Col.rel = inner_rel
          && p.Predicate.right.Col.attr = inner_attr)
        preds
    with
    | Some p -> p
    | None -> invalid_arg "Executor: index join predicate not found"
  in
  let outer_pos = Schema.position_exn outer_schema probe_pred.Predicate.left in
  let residual = Pred_eval.equi_matches ~left:outer_schema ~right:inner_schema preds in
  let inner_ok =
    match inner_filter with
    | None -> fun _ -> true
    | Some pred -> Pred_eval.select_matches env inner_schema pred
  in
  let pending = ref [] in
  { Iterator.schema;
    open_ =
      (fun () ->
        (* Re-open contract (see Iterator): discard any tuples pending
           from a previous, possibly partial, consumption — without this
           a drain-close-reconsume sequence replays stale results. *)
        pending := [];
        outer_it.Iterator.open_ ());
    next =
      (fun () ->
        let rec go () =
          Governor.check gov;
          match !pending with
          | t :: rest ->
            pending := rest;
            Some t
          | [] -> (
            match outer_it.Iterator.next () with
            | None -> None
            | Some outer ->
              let rids =
                Btree.search (Database.pool db)
                  (Database.index db ~rel:inner_rel ~attr:inner_attr)
                  outer.(outer_pos)
              in
              pending :=
                List.filter_map
                  (fun rid ->
                    let inner = Heap_file.fetch (Database.pool db) rid in
                    if inner_ok inner && residual outer inner then
                      Some (Array.append outer inner)
                    else None)
                  rids;
              go ())
        in
        go ());
    close = outer_it.Iterator.close }

and sort db env gov obs mat ckpt (plan : Plan.t) cols =
  let child = compile_child db env gov obs mat ckpt plan in
  let schema = child.Iterator.schema in
  let positions = List.map (Schema.position_exn schema) cols in
  let compare_tuples = Exec_common.compare_on positions in
  let width = plan.Plan.bytes_per_row in
  let pending = ref [] in
  { Iterator.schema;
    open_ =
      (fun () ->
        let tuples = Iterator.consume child in
        let sorted =
          Exec_common.sort_core ~gov ~obs db env ~width ~compare_tuples tuples
        in
        (* The sort's output is fully materialized here — the other
           blocking point — and carries the node's order property. *)
        Checkpoint.take ckpt db env plan ~schema sorted;
        pending := sorted);
    next =
      (fun () ->
        match !pending with
        | [] -> None
        | t :: rest ->
          pending := rest;
          Some t);
    close = (fun () -> pending := []) }

(* compile_node resolves any remaining choose-plan operators lazily, and
   materialized substitution is checked before anything else, so plans
   containing overridden choose nodes compile correctly. *)
let compile_with db env ?(gov = Governor.none) ?(obs = Trace.null)
    ?(materialized = []) ?(checkpoint = Checkpoint.disabled) plan =
  compile_node db env gov obs materialized checkpoint plan

let compile db env plan = compile_with db env plan

(* The plan root's cancellation point and row accounting: every tuple
   delivered out of the engine passes one governor check. *)
let governed_iterator gov it =
  if Governor.is_unlimited gov then it
  else
    { it with
      Iterator.next =
        (fun () ->
          Governor.check gov;
          match it.Iterator.next () with
          | None -> None
          | Some t ->
            Governor.count_rows gov 1;
            Some t) }

(* Drain the plan and return its tuples with their schema. *)
let execute db env ?(gov = Governor.none) ?(obs = Trace.null)
    ?(materialized = []) ?(checkpoint = Checkpoint.disabled) plan =
  let it =
    governed_iterator gov
      (compile_with db env ~gov ~obs ~materialized ~checkpoint plan)
  in
  let tuples = Iterator.consume it in
  Trace.add obs Counter.Rows_out (List.length tuples);
  Trace.incr obs Counter.Batches_out;
  (tuples, it.Iterator.schema)

let run db ?(gov = Governor.none) ?(obs = Trace.null)
    ?(risk = Dqep_cost.Risk.Expected) bindings plan =
  let env = Env.of_bindings (Database.catalog db) bindings in
  let plan = check_feasible db env plan in
  let choose_nodes = Plan.choose_count plan in
  let resolved =
    if Plan.contains_choose plan then (Startup.resolve ~risk env plan).Startup.plan
    else plan
  in
  let pool = Database.pool db in
  Buffer_pool.resize pool (memory_pages env);
  (* Every run records through a trace — the caller's when one was
     supplied, a private one otherwise — and [run_stats] is a view over
     its counter deltas.  Teeing the buffer pool into the run trace is
     what replaces the old before/after stats subtraction. *)
  let rt = if Trace.enabled obs then obs else Trace.create () in
  let before = Buffer_pool.stats_of_trace rt in
  Buffer_pool.attach_obs pool rt;
  let (tuples, _), cpu_seconds =
    Fun.protect
      ~finally:(fun () -> Buffer_pool.detach_obs pool)
      (fun () ->
        Timer.cpu (fun () ->
            Trace.span rt "run" (fun () ->
                execute db env ~gov ~obs:rt resolved)))
  in
  Trace.gauge rt "cpu_seconds" cpu_seconds;
  ( tuples,
    { tuples = List.length tuples;
      io = Buffer_pool.diff ~before ~after:(Buffer_pool.stats_of_trace rt);
      cpu_seconds;
      resolved_plan = resolved;
      choose_nodes;
      retries = 0;
      faults_absorbed = 0;
      budget_aborts = 0;
      failovers = 0;
      replans = 0 } )
