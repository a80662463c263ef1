(** The FLEX query service: the paper's §1/§7 deployment shape — middleware
    that intercepts analysts' SQL, analyses it, charges a per-analyst budget
    and perturbs results before anything leaves the trusted side.

    The request pipeline (per {!Wire.request} [Query]):

    + parse (trailing semicolons tolerated — analysts type them);
    + canonicalize and look up / compute the elastic-sensitivity analysis
      (memoized across analysts on canonical AST + metrics fingerprint +
      option flags; rejections are cached verdicts too);
    + admission: §3.7.1 typed rejections pass through as [Rejected] with
      their §5.1 bucket; per-query epsilon above the configured cap is
      rejected before touching the budget;
    + smooth-sensitivity per column, execute on the shared read-only
      database handle;
    + atomically charge the ledger ([epsilon * aggregate-columns] under
      basic composition) — an unaffordable request gets a typed [Refused]
      and {e never} a noisy answer;
    + perturb and release, audit-log the stage timings.

    [handle] is re-entrant: sessions can be driven concurrently from any
    number of threads (the ledger, cache and audit log carry their own
    locks; each session carries its own RNG). The TCP front end is
    line-delimited JSON, one thread per connection. *)

module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng

type config = {
  default_epsilon : float;  (** per-query epsilon when the request omits it *)
  default_delta : float;
  analyst_epsilon : float;  (** total budget granted by a plain Hello *)
  analyst_delta : float;
  max_epsilon_per_query : float;  (** admission cap on a single request *)
  public_optimization : bool;
  unique_optimization : bool;
  cross_joins : bool;
  optimize_queries : bool;
      (** execute through the cost-based plan optimizer ({!Flex_engine.Optimizer}),
          with the sensitivity metrics doubling as cardinality statistics; the
          privacy analysis always sees the original AST. Releases are unchanged
          up to row order and floating-point rounding (join reorder can
          re-associate float SUM/AVG accumulation). *)
  explain_estimates : bool;
      (** render per-operator [~N rows] cardinality annotations in EXPLAIN
          responses — and serve EXPLAIN ANALYZE at all. Off by default:
          estimates are uncharged and seeded from exact private-table row
          counts ({!Flex_engine.Metrics.row_count}), and EXPLAIN ANALYZE
          executes the query, so its per-operator timings (not just its row
          counts) scale with private cardinalities and selectivities.
          Enabling this declares table cardinalities public in the
          deployment's threat model; EXPLAIN ANALYZE additionally requires
          an authenticated session (hello) and is audit-logged, though it
          remains uncharged. *)
  telemetry : bool;
      (** maintain a metrics registry and per-query trace spans (on by
          default). Releases are bit-identical either way: telemetry never
          touches the RNG or the result path. Off, the audit log's stage
          timings read zero and {!registry} is [None]. *)
  release_cache : bool;
      (** answer from the store of finalized noisy releases — the DP
          post-processing freebie. Each aggregate query is factored
          ({!Flex_sql.Factor}) into a releasable {e core} (FROM/WHERE/GROUP
          BY + base aggregates) and a post-processing suffix (HAVING, ORDER
          BY/LIMIT, projection arithmetic); the store is keyed on the
          canonical core, so an identical repeat replays the same bytes
          ([cached: true], [Replayed] in the audit log) and a {e different}
          query over the same core is answered by evaluating its suffix over
          the stored noisy rows ([cached: true, derived: true], [Derived] in
          the audit log) — either way zero budget, no execution, no fresh
          noise. A miss pays for the whole core once (epsilon for {e all} its
          base aggregates), so later derivations are genuinely free. On by
          default. Off, every query re-executes, draws fresh noise, and is
          charged again (correct accounting, strictly worse utility per
          epsilon for dashboard workloads). *)
  rate_limit_qps : float option;
      (** per-analyst token-bucket admission: each analyst may issue at
          most this many [Query] requests per second (with about one
          second of burst). A request over the limit is answered
          [Rejected {bucket = "rate_limit"}], audit-logged with the same
          outcome, and charged nothing — the decision is scheduling, not
          privacy, so it never touches the ledger. [None] (the default)
          disables the limiter. *)
  statement_capacity : int;
      (** distinct query shapes tracked by the statement-statistics table
          ({!statements}); past it the least-called shape is evicted.
          Default 512. Only meaningful with [telemetry]. *)
  flight_capacity : int;
      (** finished requests the flight recorder ({!flights}) retains.
          Default 256. Only meaningful with [telemetry]. *)
}

val default_config : config
(** eps 0.1 / delta 1e-8 per query, totals 10.0 / 1e-4, cap 1.0, paper-default
    optimisation flags, EXPLAIN cardinality annotations off, telemetry and
    release replay on. *)

type t

val create :
  ?audit:Audit.t ->
  ?config:config ->
  ?cache_capacity:int ->
  ?registry:Flex_obs.Registry.t ->
  ?release_store:Release_store.t ->
  db:Database.t ->
  metrics:Metrics.t ->
  ledger:Ledger.t ->
  rng:Rng.t ->
  unit ->
  t
(** [registry] lets several servers (or the embedding process) share one
    metrics registry; a fresh one is created otherwise. Ignored when
    [config.telemetry] is false. [release_store] supplies a (typically
    journaled, see {!Release_store.open_}) store of past releases; with
    [config.release_cache] and no store given, a fresh in-memory one is
    created; with [config.release_cache] false, any given store is ignored
    and nothing is ever replayed. *)

type session

val session : t -> session
(** A fresh anonymous session with an independent RNG stream; [Hello] names
    its analyst. *)

val session_analyst : session -> string option
(** The analyst a [Hello] attached to this session, if any — what the
    connection layer records in audit events for requests it sheds before
    they ever reach {!handle}. *)

val log_overload : t -> analyst:string option -> line:string -> unit
(** Audit-log a request the connection layer shed before parsing (worker
    queue full): outcome [Rejected "overload"], the raw wire line standing
    in for the SQL (truncated to 200 bytes). Counted under [rejected];
    charges nothing. *)

val handle : t -> session -> Wire.request -> Wire.response
(** Serve one request. Never raises. *)

val handle_line : t -> session -> string -> string
(** [handle] at the wire: JSON line in, JSON line out (malformed input
    yields an [error] response line). *)

type counters = {
  queries : int;  (** Query requests seen *)
  granted : int;  (** charged releases ({e excludes} replays and derivations) *)
  replayed : int;  (** zero-budget exact replays from the release store *)
  derived : int;
      (** zero-budget derivations: store hits answered by evaluating a
          post-processing suffix over the stored noisy rows *)
  rejected : int;
  rate_limited : int;
      (** the subset of [rejected] turned away by the per-analyst token
          bucket ([config.rate_limit_qps]) *)
  refused : int;
}

val counters : t -> counters
val cache : t -> (Flex_core.Elastic.analysis, Flex_core.Errors.reason) result Cache.t

val release_store : t -> Release_store.t option
(** The server's release store ([None] when [config.release_cache] is off). *)

val registry : t -> Flex_obs.Registry.t option
(** The server's metrics registry ([None] when telemetry is off) — what
    [Stats] snapshots and the [--stats-port] HTTP endpoint scrapes. The
    wire [Stats] response omits analyst-labelled families (remaining
    budget, burn rate, exhaustion forecast): the op needs no hello, and
    those series disclose other analysts' names and consumption. *)

val statements : t -> Flex_obs.Statements.t option
(** Per-shape statement statistics keyed on the canonical core key the
    release store uses, so every post-processing variant of one core
    aggregates into a single row. [None] when telemetry is off. Rows carry
    canonical SQL text: operator-only loopback surface ([/statements]),
    never the unauthenticated wire. *)

val flights : t -> Flex_obs.Flight.t option
(** The flight recorder: the last [config.flight_capacity] finished
    requests with their span trees, analyst, outcome and budget charge.
    [None] when telemetry is off. Records carry raw SQL and analyst names:
    operator-only loopback surface ([/flights]), never the unauthenticated
    wire. Pure observation — fixed-seed DP releases are bit-identical with
    the recorder on or off. *)

val refresh_data : t -> db:Database.t -> metrics:Metrics.t -> int
(** Swap in a new data epoch atomically (new database handle + metrics,
    hence a new fingerprint) and strand every stored release minted against
    the old epoch — a replayed answer must never outlive the data it
    described. Returns the number of releases stranded. In-flight requests
    finish against whichever epoch they snapshotted at admission. *)

(** {2 TCP front end} *)

type listener

val listen : ?backlog:int -> ?port:int -> ?idle_timeout:float -> t -> listener
(** Bind 127.0.0.1 (port 0 — the default — picks an ephemeral one).
    Accepted sockets get [TCP_NODELAY] (the one-line request/response
    protocol would otherwise pay Nagle/delayed-ACK latency every round
    trip) and a receive timeout of [idle_timeout] seconds (default 300;
    [0] disables), after which a silent client's connection is dropped —
    a dead peer may not pin an fd and a thread forever.

    This thread-per-connection front end is the baseline the event-driven
    {!Reactor} is benchmarked against; prefer the reactor for high
    connection counts. *)

val port : listener -> int

val serve : listener -> unit
(** Accept loop in the calling thread; returns after {!stop}. *)

val start : listener -> Thread.t
(** [serve] on a background thread. *)

val stop : listener -> unit
(** Stop accepting, hang up every live connection, and join all connection
    threads; pending requests finish first, so the ledger is quiescent when
    this returns. Idempotent. *)
