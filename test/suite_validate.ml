(* Plan feasibility validation (activation-time catalog checks). *)

module D = Dqep

let base_query = D.Queries.chain ~relations:2

let optimize_exn ~mode (q : D.Queries.t) =
  Result.get_ok (D.Optimizer.optimize ~mode q.D.Queries.catalog q.D.Queries.query)

(* The same schema minus the index on R1.a (as if it were dropped after
   compile time). *)
let catalog_without_index ~rel ~attr =
  let c = base_query.D.Queries.catalog in
  D.Catalog.create ~page_bytes:(D.Catalog.page_bytes c)
    ~relations:(D.Catalog.relations c)
    ~indexes:
      (List.filter
         (fun (i : D.Index.t) -> not (i.D.Index.relation = rel && i.D.Index.attribute = attr))
         (D.Catalog.indexes c))
    ()

let catalog_without_relation name =
  let c = base_query.D.Queries.catalog in
  D.Catalog.create ~page_bytes:(D.Catalog.page_bytes c)
    ~relations:(List.filter (fun (r : D.Relation.t) -> r.D.Relation.name <> name) (D.Catalog.relations c))
    ~indexes:(List.filter (fun (i : D.Index.t) -> i.D.Index.relation <> name) (D.Catalog.indexes c))
    ()

let test_valid_plan_checks () =
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  match D.Validate.check base_query.D.Queries.catalog r.D.Optimizer.plan with
  | Ok () -> ()
  | Error ps ->
    Alcotest.failf "valid plan rejected: %a" D.Validate.pp_problem (List.hd ps)

let test_dropped_index_detected () =
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  match D.Validate.check catalog r.D.Optimizer.plan with
  | Ok () -> Alcotest.fail "missing index not detected"
  | Error problems ->
    Alcotest.(check bool) "mentions the index" true
      (List.mem (D.Validate.Missing_index { rel = "R1"; attr = "a" }) problems)

let test_dropped_relation_detected () =
  let r = optimize_exn ~mode:D.Optimizer.static base_query in
  let catalog = catalog_without_relation "R2" in
  match D.Validate.check catalog r.D.Optimizer.plan with
  | Ok () -> Alcotest.fail "missing relation not detected"
  | Error problems ->
    Alcotest.(check bool) "mentions the relation" true
      (List.mem (D.Validate.Missing_relation "R2") problems)

let test_prune_keeps_feasible_alternatives () =
  (* Dropping one index invalidates only the alternatives that use it:
     the pruned dynamic plan still runs and still adapts. *)
  let r = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  let env = D.Env.dynamic catalog in
  match D.Validate.prune_infeasible env catalog r.D.Optimizer.plan with
  | None -> Alcotest.fail "everything pruned"
  | Some pruned ->
    (match D.Validate.check catalog pruned with
    | Ok () -> ()
    | Error ps ->
      Alcotest.failf "pruned plan still infeasible: %a" D.Validate.pp_problem
        (List.hd ps));
    Alcotest.(check bool) "smaller than the original" true
      (D.Plan.node_count pruned < D.Plan.node_count r.D.Optimizer.plan);
    (* The pruned plan must still produce correct results.  The data was
       generated under the original catalog; the dropped index only
       removes access paths. *)
    let db = D.Database.build ~seed:3 base_query.D.Queries.catalog in
    let b =
      D.Bindings.make
        ~selectivities:[ ("hv1", 0.1); ("hv2", 0.5) ]
        ~memory_pages:64
    in
    let tuples, stats = D.Executor.run db b pruned in
    let schema =
      D.Plan.schema base_query.D.Queries.catalog stats.D.Executor.resolved_plan
    in
    let ref_schema, expected =
      D.Reference.eval db b base_query.D.Queries.query
    in
    Alcotest.(check bool) "pruned plan result correct" true
      (D.Reference.multiset_equal
         (D.Reference.normalize ref_schema expected)
         (D.Reference.normalize schema tuples))

let test_prune_everything () =
  let r = optimize_exn ~mode:D.Optimizer.static base_query in
  let catalog = catalog_without_relation "R1" in
  let env = D.Env.dynamic catalog in
  Alcotest.(check bool) "nothing survives" true
    (D.Validate.prune_infeasible env catalog r.D.Optimizer.plan = None)

let test_static_plan_brittleness () =
  (* The contrast the paper draws: a static plan that used the dropped
     index is dead, while the dynamic plan survives by pruning. *)
  let static = optimize_exn ~mode:D.Optimizer.static base_query in
  let dynamic = optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query in
  let catalog = catalog_without_index ~rel:"R1" ~attr:"a" in
  let static_ok = D.Validate.check catalog static.D.Optimizer.plan = Ok () in
  let dynamic_survives =
    D.Validate.prune_infeasible (D.Env.dynamic catalog) catalog
      dynamic.D.Optimizer.plan
    <> None
  in
  Alcotest.(check bool) "static plan became infeasible" false static_ok;
  Alcotest.(check bool) "dynamic plan survives" true dynamic_survives

(* --- the executor's memoized activation check ---------------------------- *)

(* What [Executor.check_feasible] decides, recomputed from scratch: the
   feasibility check, then pruning.  Pruned plans are fresh nodes, so
   outcomes compare by shape and cost. *)
type outcome = Runs of int * int * D.Interval.t | Dead of D.Validate.problem list

let outcome_of_plan (p : D.Plan.t) =
  Runs (D.Plan.node_count p, D.Plan.choose_count p, p.D.Plan.total_cost)

let uncached env catalog plan =
  match D.Validate.check catalog plan with
  | Ok () -> outcome_of_plan plan
  | Error problems -> (
    match D.Validate.prune_infeasible env catalog plan with
    | Some pruned -> outcome_of_plan pruned
    | None -> Dead problems)

let checked db env plan =
  match D.Executor.check_feasible db env plan with
  | p -> outcome_of_plan p
  | exception D.Executor.Infeasible problems -> Dead problems

let check_outcome name expected actual =
  Alcotest.(check bool) name true (expected = actual)

let test_verdict_follows_catalog_swap () =
  (* A plan checked under catalog A, then activated on catalog B that
     dropped an index, gets B's verdict, not A's memoized one. *)
  let without = catalog_without_index ~rel:"R1" ~attr:"a" in
  let db_a = D.Database.build ~seed:3 base_query.D.Queries.catalog in
  let db_b = D.Database.build ~seed:3 without in
  let env_a = D.Env.dynamic base_query.D.Queries.catalog in
  let env_b = D.Env.dynamic without in
  List.iter
    (fun (name, mode, dies) ->
      let plan = (optimize_exn ~mode base_query).D.Optimizer.plan in
      check_outcome (name ^ " under A") (outcome_of_plan plan)
        (checked db_a env_a plan);
      let expected = uncached env_b without plan in
      Alcotest.(check bool) (name ^ " dies under B") dies
        (match expected with Dead _ -> true | Runs _ -> false);
      check_outcome (name ^ " under B") expected (checked db_b env_b plan);
      check_outcome (name ^ " under A again") (outcome_of_plan plan)
        (checked db_a env_a plan))
    [ ("dynamic", D.Optimizer.dynamic (), false);
      ("static", D.Optimizer.static, true) ]

let test_verdict_across_domains () =
  (* One fresh plan activated from 4 domains, alternating between two
     catalogs: every verdict matches the uncached one. *)
  let without = catalog_without_index ~rel:"R1" ~attr:"a" in
  let plan =
    (optimize_exn ~mode:(D.Optimizer.dynamic ()) base_query).D.Optimizer.plan
  in
  let sides =
    [| (D.Database.build ~seed:3 base_query.D.Queries.catalog,
        D.Env.dynamic base_query.D.Queries.catalog);
       (D.Database.build ~seed:3 without, D.Env.dynamic without) |]
  in
  let expected =
    Array.map (fun (db, env) -> uncached env (D.Database.catalog db) plan) sides
  in
  let worker d () =
    List.init 200 (fun i ->
        let side = (i + d) mod 2 in
        let db, env = sides.(side) in
        checked db env plan = expected.(side))
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let agreed = List.concat_map Domain.join domains in
  Alcotest.(check int) "every verdict agrees" 800
    (List.length (List.filter Fun.id agreed))

let suite =
  ( "validate",
    [ Alcotest.test_case "valid plan passes" `Quick test_valid_plan_checks;
      Alcotest.test_case "dropped index detected" `Quick test_dropped_index_detected;
      Alcotest.test_case "dropped relation detected" `Quick
        test_dropped_relation_detected;
      Alcotest.test_case "pruning keeps feasible alternatives" `Quick
        test_prune_keeps_feasible_alternatives;
      Alcotest.test_case "pruning can empty a plan" `Quick test_prune_everything;
      Alcotest.test_case "static brittle, dynamic survives" `Quick
        test_static_plan_brittleness;
      Alcotest.test_case "verdict follows a catalog swap" `Quick
        test_verdict_follows_catalog_swap;
      Alcotest.test_case "verdict agrees across domains" `Quick
        test_verdict_across_domains ] )
