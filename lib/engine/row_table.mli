(** Hashtable keyed by [Value.t array] with SQL-consistent hash/equal
    ([Int 2] = [Float 2.]); shared by joins, GROUP BY, DISTINCT and set
    operations. *)

include Hashtbl.S with type key = Value.t array

module Scalar : Hashtbl.S with type key = Value.t
(** Single-column key variant: no per-row key array allocation. *)

module Int_key : Hashtbl.S with type key = int
(** Unboxed variant for key columns proven all-small-int. *)

val small_int_key : Value.t -> bool
(** [Int i] with [|i| < 2^53] (exactly representable as a float). *)

val int_key_of : Value.t -> int option
(** The int a value indexes under in an all-small-int table: small ints
    themselves, floats equal (SQL [=]) to one; [None] can never match. *)

val dedupe_rows : Value.t array Row_vec.t -> Value.t array Row_vec.t
(** Keep the first occurrence of each distinct row, preserving order. *)

val counts_of : Value.t array Row_vec.t -> int ref t
(** Multiset view of a row vector (row -> multiplicity). *)
