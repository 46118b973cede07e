(** Turning predicates into executable tests over tuples.

    A selection predicate [attr <= :hv] with selectivity [s] over a
    uniform domain of size [d] is realized as [value < round (s * d)], so
    the realized fraction of matching records approximates [s]. *)

val threshold : Dqep_cost.Env.t -> Dqep_algebra.Predicate.select -> int
(** Exclusive upper bound on matching attribute values under the (point)
    environment. *)

val select_matches :
  Dqep_cost.Env.t ->
  Dqep_algebra.Schema.t ->
  Dqep_algebra.Predicate.select ->
  Iterator.tuple ->
  bool
(** [select_matches env schema p] is the per-tuple test.  The
    attribute's position and the cutoff are resolved once, at the first
    tuple tested.
    @raise Not_found if the attribute is not in [schema]. *)

val equi_matches :
  left:Dqep_algebra.Schema.t ->
  right:Dqep_algebra.Schema.t ->
  Dqep_algebra.Predicate.equi list ->
  Iterator.tuple ->
  Iterator.tuple ->
  bool
(** Whether two tuples (from the left/right schemas) satisfy all join
    predicates; predicates are located on either side automatically.
    Staged like {!select_matches}: positions are resolved once, at the
    first pair tested. *)
