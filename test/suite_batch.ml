(* The execution engine against the naive reference evaluator.

   1. Randomized differential harness: seeded random catalogs and queries
      (Plangen), optimized in static and dynamic modes, every plan run
      through the engine — supervised by [Executor.run], and resolved up
      front then drained by [Executor.execute] — and through
      [Reference.eval], asserting multiset-equal results and asserting
      the buffer pool holds zero pins after every single run.
   2. Iterator re-open semantics: consuming twice — or closing
      half-drained and consuming again — yields the same result.

   The suite keeps the name it had when it also held a second,
   batch-at-a-time engine to the same harness. *)

module D = Dqep

let optimize_exn ~mode catalog query =
  Result.get_ok (D.Optimizer.optimize ~mode catalog query)

(* --- randomized differential harness ------------------------------------- *)

let differential_seeds = 50

let assert_no_leaks label db =
  match D.Buffer_pool.leak_check (D.Database.pool db) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" label msg

let run_differential () =
  let runs = ref 0 in
  for seed = 1 to differential_seeds do
    let inst = D.Plangen.generate ~seed in
    let catalog = inst.D.Plangen.catalog in
    let query = inst.D.Plangen.query in
    let db = D.Database.build ~seed:(seed * 7919) catalog in
    let modes =
      [ ("static", D.Optimizer.static);
        ("dynamic", D.Optimizer.dynamic ~uncertain_memory:true ()) ]
    in
    List.iter
      (fun (mode_name, mode) ->
        let plan = (optimize_exn ~mode catalog query).D.Optimizer.plan in
        List.iter
          (fun bseed ->
            let b = D.Plangen.bindings inst ~seed:bseed in
            let expected =
              let schema, tuples = D.Reference.eval db b query in
              D.Reference.normalize schema tuples
            in
            let check label tuples schema =
              incr runs;
              let got = D.Reference.normalize schema tuples in
              if not (D.Reference.multiset_equal expected got) then
                Alcotest.failf
                  "seed %d, %s plan, bindings %d, %s: %d rows differ from \
                   the reference's %d"
                  seed mode_name bseed label (List.length got)
                  (List.length expected);
              assert_no_leaks
                (Printf.sprintf "seed %d, %s: pin leak" seed label)
                db
            in
            let tuples, stats = D.Executor.run db b plan in
            check "Executor.run" tuples
              (D.Plan.schema catalog stats.D.Executor.resolved_plan);
            let env = D.Env.of_bindings catalog b in
            let resolved =
              if D.Plan.contains_choose plan then
                (D.Startup.resolve env plan).D.Startup.plan
              else plan
            in
            let tuples, schema = D.Executor.execute db env resolved in
            check "Executor.execute" tuples schema)
          [ 1; 2 ])
      modes
  done;
  (* The acceptance bar: at least 200 randomized differential plan runs. *)
  Alcotest.(check bool)
    (Printf.sprintf "enough differential runs (%d)" !runs)
    true (!runs >= 200)

let test_differential () =
  Test_util.with_watchdog ~deadline:300.
    "batch: randomized differential harness" run_differential

(* --- iterator re-open semantics ------------------------------------------ *)

let reopen_query = D.Queries.chain ~relations:2

let reopen_bindings =
  D.Bindings.make ~selectivities:[ ("hv1", 0.6); ("hv2", 0.7) ] ~memory_pages:64

(* A hand-built index-join plan for [reopen_query]: the index join
   operator buffers pending probe results across [next] calls, which is
   exactly the state a re-open must discard (a partial drain followed by
   a fresh consume used to replay stale tuples). *)
let reopen_fixture () =
  let q = reopen_query in
  let db = D.Database.build ~seed:17 q.D.Queries.catalog in
  let b = reopen_bindings in
  let env = D.Env.of_bindings q.D.Queries.catalog b in
  let builder = D.Plan.Builder.create env in
  let join =
    D.Predicate.equi
      ~left:(D.Col.make ~rel:"R1" ~attr:"jr")
      ~right:(D.Col.make ~rel:"R2" ~attr:"jl")
  in
  let pred i =
    D.Predicate.select ~rel:(D.Paper_catalog.rel_name i) ~attr:"a"
      (D.Predicate.Host_var (D.Queries.host_var i))
  in
  let scan =
    D.Plan.Builder.operator builder (D.Physical.File_scan "R1") ~inputs:[]
      ~rels:[ "R1" ]
      ~rows:(D.Estimate.base_rows env "R1")
      ~bytes_per_row:512 ~props:D.Props.unordered
  in
  let filtered =
    D.Plan.Builder.operator builder
      (D.Physical.Filter (pred 1))
      ~inputs:[ scan ] ~rels:[ "R1" ]
      ~rows:(D.Estimate.select_rows env (pred 1) scan.D.Plan.rows)
      ~bytes_per_row:512 ~props:D.Props.unordered
  in
  let plan =
    D.Plan.Builder.operator builder
      (D.Physical.Index_join
         { preds = [ join ]; inner_rel = "R2"; inner_attr = "jl";
           inner_filter = Some (pred 2) })
      ~inputs:[ filtered ] ~rels:[ "R1"; "R2" ]
      ~rows:
        (D.Estimate.join_rows env [ join ] filtered.D.Plan.rows
           (D.Estimate.base_rows env "R2"))
      ~bytes_per_row:1024 ~props:D.Props.unordered
  in
  (db, env, plan)

let test_row_reopen () =
  let db, env, plan = reopen_fixture () in
  let it = D.Executor.compile db env plan in
  let first = D.Iterator.consume it in
  Alcotest.(check bool) "fixture produces rows" true (List.length first > 2);
  let second = D.Iterator.consume it in
  Alcotest.(check bool) "full reconsume equals first run" true
    (D.Reference.multiset_equal first second);
  (* Partial drain, close, then a fresh consume. *)
  it.D.Iterator.open_ ();
  ignore (it.D.Iterator.next ());
  ignore (it.D.Iterator.next ());
  it.D.Iterator.close ();
  let third = D.Iterator.consume it in
  Alcotest.(check bool) "consume after partial drain equals first run" true
    (D.Reference.multiset_equal first third)

(* The fixture's answer agrees with the reference evaluator's answer to
   the same logical query. *)
let test_reopen_fixture_differential () =
  let db, env, plan = reopen_fixture () in
  let it = D.Executor.compile db env plan in
  let got =
    D.Reference.normalize it.D.Iterator.schema (D.Iterator.consume it)
  in
  let schema, expected =
    D.Reference.eval db reopen_bindings reopen_query.D.Queries.query
  in
  Alcotest.(check bool) "fixture rows present" true (List.length got > 2);
  Alcotest.(check bool) "engine and reference agree" true
    (D.Reference.multiset_equal (D.Reference.normalize schema expected) got)

let suite =
  ( "batch",
    [ Alcotest.test_case "randomized differential: row vs reference" `Slow
        test_differential;
      Alcotest.test_case "row iterator re-open semantics" `Quick
        test_row_reopen;
      Alcotest.test_case "re-open fixture differential" `Quick
        test_reopen_fixture_differential ] )
