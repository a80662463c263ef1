(** Seeded random-number generation.

    Every source of randomness in the repository (noise, data generation,
    corpus sampling) flows through a value of this type so that tests and
    benchmarks are reproducible. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh generator; the default seed is fixed so runs are deterministic. *)

val split : t -> t
(** Derive an independent generator, advancing the parent. *)

val float : t -> float -> float
(** [float t b] is uniform in [\[0, b)]. *)

val int : t -> int -> int
(** [int t b] is uniform in [\[0, b)]. *)

val bool : t -> bool

val uniform_pos : t -> float
(** Uniform in (0, 1]; never 0, safe as a log argument. *)

val bernoulli : t -> float -> bool

val exponential : t -> mean:float -> float

val gaussian : t -> mean:float -> stddev:float -> float

val zipf_table : n:int -> s:float -> float array
(** Precomputed CDF for a Zipf distribution over ranks [1..n]. *)

val zipf : t -> float array -> int
(** Sample a rank in [1..n] from a table built by {!zipf_table}. *)

val shuffle : t -> 'a array -> unit

val choose : t -> 'a array -> 'a

val weighted_index : t -> float array -> int
(** Index sampled proportionally to the given non-negative weights. *)
