(** A metrics registry: named counters, gauges and log-bucketed histograms,
    safe to update from any domain or systhread (updates are atomics on the
    hot path; registration and scraping take a mutex), exported as
    Prometheus text exposition and as JSON.

    Instruments with the same name and different [labels] land in one
    family (one [# TYPE] block); the kind must agree. Scrape-time values —
    remaining budgets, cache sizes, counters owned elsewhere — register
    a {!collect} callback instead of an instrument.

    Privacy note for DP deployments: nothing in this module looks at private
    data, but callers choose what they register. The service registers only
    operational series (request counts, latencies, budget accounting, cache
    counters) — never query results or private-table row counts;
    see DESIGN.md "Telemetry and privacy". *)

type t

val create : unit -> t

module Counter : sig
  type t

  val inc : t -> float -> unit
  (** Add [v >= 0]; negative increments are ignored. *)

  val incr : t -> unit
  val value : t -> float
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
end

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> Counter.t
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

val histogram :
  t -> ?help:string -> ?labels:(string * string) list -> ?buckets:float array -> string ->
  Histogram.t
(** [buckets] are the upper bounds (sorted ascending; a final [+Inf] bucket
    is implicit). Defaults to {!log_buckets}[ ()]. *)

val log_buckets : ?start:float -> ?factor:float -> ?count:int -> unit -> float array
(** Log-spaced bounds [start *. factor^i]: by default 24 buckets doubling
    from 1 microsecond, covering ~1us to ~8.4s of latency in seconds. *)

val estimate_quantile :
  upper:float array -> cumulative:int array -> count:int -> float -> float option
(** Histogram quantile estimate: linear interpolation inside the bucket the
    rank lands in (the first bucket's lower bound is 0); ranks beyond the
    last finite bound clamp to that bound. [None] when [count <= 0]. *)

val collect :
  t -> ?help:string -> kind:[ `Counter | `Gauge ] -> string ->
  (unit -> ((string * string) list * float) list) -> unit
(** Register a callback sampled at every scrape: it returns one
    [(labels, value)] per series. Exceptions in callbacks drop that family's
    samples for the scrape instead of failing it. *)

(** {2 Scraping} *)

type value =
  | Sample of float
  | Hist of { upper : float array; cumulative : int array; count : int; sum : float }
      (** [cumulative.(i)] counts observations [<= upper.(i)]; [count] is
          the [+Inf] total. *)

type sample = { labels : (string * string) list; value : value }
type family = { name : string; help : string; kind : string; samples : sample list }

val snapshot : t -> family list
(** Families in registration order; kind is ["counter"], ["gauge"] or
    ["histogram"]. *)

val to_prometheus : t -> string
(** Prometheus text exposition format (version 0.0.4). *)

val to_json : t -> string
(** [{"families":[{"name","kind","help","samples":[...]}]}]; histogram
    samples carry [count]/[sum]/[buckets] plus estimated
    [quantiles.{p50,p95,p99}] whenever [count > 0]. *)
