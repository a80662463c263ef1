module Ast = Flex_sql.Ast

(** Columnar batch execution: vectorized filter / hash-equijoin / GROUP BY /
    top-K kernels over {!Chunk} columns for the recognised query subset
    (single-table scans and left-deep INNER equijoins with conjunctive
    predicates, column projections and group keys, standard aggregates).

    Every entry point returns [None] — and the caller runs the row pipeline
    unchanged — when the query falls outside the subset or raises any
    engine error during columnar evaluation (the columnar plan evaluates
    predicates on pre-join supersets of the row pipeline's input, so its
    error set is a superset: falling back on error reproduces the row
    pipeline's result or its error exactly). Accepted queries return
    results bit-identical to the row pipeline, which is what keeps DP
    releases invariant under {!enabled}. *)

type header = Compiled.header = { alias : string option; name : string }

type result_set = { chead : header array; crows : Value.t array Row_vec.t }

val enabled : bool ref
(** Master switch, on by default; the differential suites toggle it. *)

val query : Database.t -> Ast.query -> result_set option
(** Full CTE-free [SELECT] (no grouping) including ORDER BY/LIMIT/OFFSET. *)

val select : Database.t -> Ast.select -> result_set option
(** One select body, grouped or not (the executor's sort/slice tail runs on
    top, including its hidden-order-key re-evaluation). *)

val plan_query : Database.t -> Plan.t -> result_set option
(** Plan-side {!query}: scan chains with pushed-down filters and
    build-on-right inner hash joins. *)

val plan_select : Database.t -> Plan.select_plan -> result_set option
(** Plan-side {!select}. *)
