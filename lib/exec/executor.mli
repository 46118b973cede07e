(** The execution engine: compiles physical plans to iterators over a
    materialized {!Dqep_storage.Database}.

    All data access flows through the database's buffer pool, so physical
    I/O is accounted: hash joins whose build input exceeds memory
    partition to temporary files (Grace hash join), sorts spill to
    disk-based runs, and index scans fetch records through B-trees.

    Choose-plan operators are resolved at open time via
    {!Dqep_plans.Startup} — the run-time half of the paper's 1989
    contribution. *)

type run_stats = {
  tuples : int;
  io : Dqep_storage.Buffer_pool.stats;  (** physical I/O delta of the run *)
  cpu_seconds : float;
  resolved_plan : Dqep_plans.Plan.t;  (** after choose-plan decisions *)
  choose_nodes : int;
      (** choose-plan operators the submitted plan carried (0 for a
          static plan) — with [Optimizer.stats.alternatives_pruned],
          how risk postures compare from the shell *)
  retries : int;  (** attempts repeated after a transient fault *)
  faults_absorbed : int;  (** injected faults survived without failing the run *)
  budget_aborts : int;  (** attempts aborted by the I/O budget guard *)
  failovers : int;  (** re-resolutions onto another choose-plan alternative *)
  replans : int;  (** incremental re-optimizations after a busted estimate *)
}
(** The resilience counters are zero for a plain {!run}; they are filled
    in by {!Resilience.run}. *)

exception Infeasible of Dqep_plans.Validate.problem list
(** The plan references catalog objects that no longer exist and pruning
    infeasible choose-plan alternatives left nothing runnable — a full
    re-optimization is needed (paper, Section 2). *)

exception Invalid_plan of Dqep_util.Diagnostic.t list
(** The static verifier found corruption beyond catalog drift — a broken
    DAG, ill-formed cost intervals, non-equivalent choose alternatives.
    Unlike {!Infeasible}, nothing can be pruned around this. *)

val check_feasible :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  Dqep_plans.Plan.t ->
  Dqep_plans.Plan.t
(** Activation-time validation, the executor's pre-activation hook into
    the static analysis pass ({!Dqep_analysis.Verify}): the full verifier
    runs first and rejects corrupt plans; catalog-drift findings then
    take the classic path ({!Dqep_plans.Validate}) — the plan is returned
    unchanged when it checks out, pruned when only some choose-plan
    alternatives are infeasible.  The verifier and catalog-check verdict
    is memoized per (plan node, catalog) pair, both compared by physical
    equality, so a cached plan is verified once per catalog; pruning
    still runs on every call.  Domain-safe.
    @raise Invalid_plan on error-severity diagnostics outside the
    feasibility subset.
    @raise Infeasible when nothing feasible remains. *)

val compile :
  Dqep_storage.Database.t -> Dqep_cost.Env.t -> Dqep_plans.Plan.t -> Iterator.t
(** Compile a plan under a point environment (from actual bindings).
    Dynamic plans are resolved first.
    @raise Invalid_argument on malformed plans. *)

val compile_with :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?materialized:(int * Iterator.tuple list) list ->
  ?checkpoint:Checkpoint.t ->
  Dqep_plans.Plan.t ->
  Iterator.t
(** Like {!compile}, but nodes whose pid appears in [materialized] are
    served from the given temporary results instead of being executed —
    the execution half of mid-query adaptation ({!Midquery}).  When a
    [gov] is given, every iterator's [next] is a cancellation point and
    the spilling operators charge their working sets against its memory
    budget ({!Governor}); default {!Governor.none} governs nothing.
    [obs] (default {!Dqep_obs.Trace.null}) records spill counters and —
    when the trace has taps enabled — per-operator cardinalities.
    [checkpoint] (default {!Checkpoint.disabled}) captures fully
    materialized intermediates at blocking points — a hash join's
    completed build side, a sort's output — and may raise
    {!Checkpoint.Estimate_busted} when an observation escapes the plan's
    validity band. *)

val execute :
  Dqep_storage.Database.t ->
  Dqep_cost.Env.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?materialized:(int * Iterator.tuple list) list ->
  ?checkpoint:Checkpoint.t ->
  Dqep_plans.Plan.t ->
  Iterator.tuple list * Dqep_algebra.Schema.t
(** Compile and drain the plan, returning its tuples and their schema.
    [gov], [obs], [materialized] and [checkpoint] as in {!compile_with};
    the plan root additionally counts delivered rows against the
    governor's row limit and records [Rows_out]/[Batches_out] on the
    trace (one batch per drain). *)

val run :
  Dqep_storage.Database.t ->
  ?gov:Governor.t ->
  ?obs:Dqep_obs.Trace.t ->
  ?risk:Dqep_cost.Risk.t ->
  Dqep_cost.Bindings.t ->
  Dqep_plans.Plan.t ->
  Iterator.tuple list * run_stats
(** Resolve, execute and drain a plan, reporting I/O and CPU.
    [gov] as in {!execute}.  [risk] scalarizes any
    residual cost uncertainty during start-up resolution
    ({!Dqep_plans.Startup.resolve}); default [Expected], which is the
    historical behaviour.  The run records through [obs] when one is
    supplied (the buffer pool is teed into it for the duration, a "run"
    span brackets execution) and {!run_stats} is computed as a view over
    the trace's counter deltas. *)

val memory_pages : Dqep_cost.Env.t -> int
(** The engine's working-memory budget under the environment. *)
