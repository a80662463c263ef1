(** Growable array used as the executor's row container: O(1) amortised
    append, O(1) indexing, cheap slicing for LIMIT/OFFSET. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val get : 'a t -> int -> 'a
(** Bounds-checked; @raise Invalid_argument when out of range. *)

val unsafe_get : 'a t -> int -> 'a
val push : 'a t -> 'a -> unit
val of_list : 'a list -> 'a t
val of_array : 'a array -> 'a t
(** Copies its input; the vector never aliases caller storage. *)

val wrap : 'a array -> 'a t
(** Takes ownership of the array without copying; the caller must not
    mutate it afterwards. For kernels that build exact-size output. *)

val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val map : ('a -> 'b) -> 'a t -> 'b t
val filter : ('a -> bool) -> 'a t -> 'a t
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val slice : 'a t -> offset:int -> limit:int option -> 'a t
(** Clamped slice: safe for any LIMIT/OFFSET combination, replacing the old
    non-tail-recursive list [take]. *)
