module Ast = Flex_sql.Ast

(** SQL query evaluation over a {!Database}. The executor plays the role of
    the paper's "any existing database": FLEX only parses queries and
    post-processes results, so the engine implements ordinary SQL semantics
    with no privacy awareness.

    Supported: projections with aliases and [*]/[t.*]; WHERE with 3-valued
    logic; inner/left/right/full/cross joins (hash join on equality keys,
    nested loop otherwise); USING/NATURAL; GROUP BY + HAVING with
    COUNT/SUM/AVG/MIN/MAX/MEDIAN/STDDEV (and DISTINCT variants); derived
    tables and chained CTEs; IN/EXISTS/scalar subqueries (correlated
    subqueries resolve free columns against enclosing scopes);
    UNION/EXCEPT/INTERSECT (with ALL); DISTINCT; ORDER BY (including
    unprojected source columns) with LIMIT/OFFSET.

    Implementation: expressions are compiled once per relation into closures
    with column offsets pre-resolved ({!Compiled}); rows travel in dynamic
    arrays ({!Row_vec}); joins, grouping, DISTINCT and set operations share a
    [Value.t array]-keyed hashtable ({!Row_table}). The original interpreter
    is kept as {!Reference}, the differential-testing oracle. *)

exception Error of string

type header = Compiled.header = { alias : string option; name : string }

type rel = { headers : header array; rows : Value.t array list }
(** Intermediate relation carrying alias qualifiers for resolution. *)

type result_set = { columns : string list; rows : Value.t array list }

val columnar_enabled : bool ref
(** The {!Columnar} batch engine's master switch (= {!Columnar.enabled}, on
    by default). Recognised queries run through vectorized kernels over
    typed column chunks; everything else — and everything when the switch
    is off — runs the row pipeline. Results are bit-identical either way
    (enforced by the 3-way differential suite), so toggling it never
    changes a DP release. *)

val run : Database.t -> Ast.query -> result_set
(** Execute a query sequentially on the calling thread.
    @raise Error (and {!Eval.Error} / {!Aggregate.Error}) on semantic
    errors: unknown tables or columns, arity mismatches, aggregates outside
    grouping. *)

val run_plan : Database.t -> Plan.t -> result_set
(** Execute a logical plan through the same compiled operators as {!run}.
    [run_plan (Plan.of_query q) ≡ run q] bit-for-bit; optimized plans
    ({!Optimizer.rewrite}) may permute row order (hash-join build-side
    swaps and join reorder follow the probe relation's order), so results
    compare as multisets. *)

val run_plan_analyzed :
  Database.t -> Plan.t -> result_set * Plan.Analyze.trace
(** {!run_plan} with EXPLAIN ANALYZE collection: every plan operator records
    its output cardinality and inclusive elapsed time into the returned
    trace (paths follow the {!Plan.Analyze} scheme, so
    {!Plan.render_analyzed} can annotate the plan text). The result set is
    identical to [run_plan]'s — tracing only observes. *)

val run_optimized :
  ?metrics:Metrics.t -> Database.t -> Ast.query -> result_set
(** [run_plan db (Optimizer.plan ?metrics q)] — same result multiset as
    [run db q]; row order may differ when the optimizer reorders joins or
    swaps hash-join build sides. *)

val explain_analyze :
  ?optimize:bool ->
  ?metrics:Metrics.t ->
  ?show_rows:bool ->
  Database.t ->
  Ast.query ->
  string * result_set
(** Execute [q] (through the optimizer by default) collecting per-operator
    stats and render the annotated plan. [show_rows] (default [true])
    prints actual row counts; pass [false] to render counts as [?] — actual
    cardinalities of private tables are gated exactly like EXPLAIN's
    estimates (see {!Plan.Analyze.suffix}). The result set is returned too,
    but EXPLAIN ANALYZE surfaces normally discard it. *)

val run_sql :
  ?optimize:bool ->
  ?metrics:Metrics.t ->
  Database.t ->
  string ->
  (result_set, string) result
(** Parse and run; all failures as [Error message]. [~optimize:true]
    (default false) routes through {!run_optimized}. *)

val run_sql_exn :
  ?optimize:bool ->
  ?metrics:Metrics.t ->
  Database.t ->
  string ->
  result_set

val resolve_opt : header array -> Ast.col_ref -> int option
(** Column resolution: qualified references match the alias; unqualified
    references take the first name match. *)
