module Ast = Flex_sql.Ast

(** SQL aggregate functions over a group's values. NULLs are skipped (except
    by star-counts); empty inputs yield NULL (0 for counts). *)

exception Error of string

val compute :
  Ast.agg_func -> distinct:bool -> star:bool -> nrows:int -> Value.t list -> Value.t
(** [compute func ~distinct ~star ~nrows values]: [values] are the evaluated
    argument values over the group's rows ([nrows] of them); [star] marks
    [COUNT( * )]. *)

val distinct_values : Value.t list -> Value.t list
val non_null : Value.t list -> Value.t list

val compute_iter :
  Ast.agg_func ->
  distinct:bool ->
  star:bool ->
  nrows:int ->
  iter:((Value.t -> unit) -> unit) ->
  Value.t
(** Streaming [compute]: [iter f] applies [f] to the argument values in row
    order. Single-pass for the common non-distinct aggregates; equivalent to
    [compute] in results and errors. *)
