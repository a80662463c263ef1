(** A fixed-size flight recorder: the last N finished requests with their
    span trees, analyst, outcome and budget charge, so a slow or anomalous
    request from minutes ago is reconstructable without grepping audit logs.

    Writes go to one mutex-guarded ring of exactly [capacity] slots, so at
    most [capacity] records are ever retained.

    Privacy note: records carry raw SQL and analyst names — operator-only
    loopback scrape, never the unauthenticated wire (see DESIGN.md
    "Telemetry and privacy"). *)

type t

type record = {
  seq : int;  (** global order; higher = newer *)
  ts_ns : float;
  id : string option;  (** client-supplied request id, when given *)
  analyst : string;
  sql : string;
  key : string option;  (** canonical statement key, when the query factored *)
  outcome : string;
  epsilon : float;
  delta : float;
  duration_ns : float;
  trace : Span.view option;
}

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 256 retained flights. *)

val capacity : t -> int

val record :
  t ->
  ts_ns:float ->
  ?id:string ->
  analyst:string ->
  sql:string ->
  ?key:string ->
  outcome:string ->
  ?epsilon:float ->
  ?delta:float ->
  duration_ns:float ->
  ?trace:Span.view ->
  unit ->
  unit
(** Append one finished request; the oldest record is overwritten once the
    ring is full. Thread-safe. *)

val recorded : t -> int
(** Total records ever written (>= retained). *)

val snapshot : ?limit:int -> t -> record list
(** Newest first, truncated to [limit]. *)

val to_json : ?limit:int -> t -> string
(** [{"capacity":..,"recorded":..,"flights":[{..,"trace":{..}}]}]. *)
