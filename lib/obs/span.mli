(** Per-query trace spans: a span tree is created at the service boundary
    and threaded (as a [t option]) through parse, analysis, execution and
    perturbation. Spans record monotonized wall-clock timestamps from
    {!Clock}; durations are therefore never negative.

    Threading is by parent handle: [enter parent name] starts a child;
    {!timed} wraps a stage and hands the callback the child so it can nest
    further. All spans of one tree share the root's mutex, so a tree may be
    grown from any thread. Passing [None] everywhere makes the whole
    facility a no-op (telemetry off). *)

type t

val root : string -> t
(** Start a new trace with an open root span. *)

val enter : t -> string -> t
(** Start a child span under [parent]. *)

val finish : t -> unit
(** Close the span (records its end time). Idempotent: the first call
    wins. Finishing a parent does not finish its children. *)

val timed : t option -> string -> (t option -> 'a) -> 'a
(** [timed parent name f] runs [f] inside a fresh child span, finishing it
    when [f] returns or raises. With [None] it is just [f None]. *)

(** {2 Inspection} *)

type view = {
  name : string;
  start_ns : float;
  duration_ns : float;  (** 0. when the span was never finished *)
  children : view list;  (** in creation order *)
}

val view : t -> view
(** A consistent snapshot of the tree rooted at [t] (take it after
    {!finish}; open descendants report [duration_ns = 0.]). *)

val find : view -> string list -> view option
(** [find v path] descends by child name; [find v []] is [Some v]. *)

val duration_of : view -> string list -> float
(** Duration at [path], or [0.] when the span is absent or unfinished. *)

val to_json : view -> string
(** [{"name":..,"start_ns":..,"duration_ns":..,"children":[..]}]. *)
