module Interval = Dqep_util.Interval
module Env = Dqep_cost.Env
module Schema = Dqep_algebra.Schema
module Predicate = Dqep_algebra.Predicate
module Col = Dqep_algebra.Col
module Catalog = Dqep_catalog.Catalog

let threshold env (p : Predicate.select) =
  let sel = Interval.mid (Env.selectivity env p) in
  let dom =
    Catalog.domain_size (Env.catalog env) ~rel:p.target.Col.rel
      ~attr:p.target.Col.attr
  in
  int_of_float (Float.round (sel *. float_of_int dom))

(* Both tests are staged: positions and the cutoff are resolved once,
   at the first tuple, so every later call only indexes and compares.
   Deferring to the first tuple keeps operators that never see one (a
   point binding that selects nothing) from paying the lookups. *)
let select_matches env schema (p : Predicate.select) =
  let test =
    lazy
      (let pos = Schema.position_exn schema p.Predicate.target in
       let cutoff = threshold env p in
       fun (tuple : Iterator.tuple) -> tuple.(pos) < cutoff)
  in
  fun tuple -> Lazy.force test tuple

let equi_matches ~left ~right preds =
  let test =
    lazy
      (let value (c : Col.t) =
         match Schema.position left c with
         | Some i -> fun (l : Iterator.tuple) (_ : Iterator.tuple) -> l.(i)
         | None ->
           let i = Schema.position_exn right c in
           fun _ r -> r.(i)
       in
       let tests =
         List.map
           (fun (p : Predicate.equi) ->
             let a = value p.Predicate.left and b = value p.Predicate.right in
             fun l r -> Int.equal (a l r) (b l r))
           preds
       in
       fun l r -> List.for_all (fun test -> test l r) tests)
  in
  fun ltuple rtuple -> Lazy.force test ltuple rtuple
