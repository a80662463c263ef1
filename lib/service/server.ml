module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng
module Sens = Flex_dp.Sens
module Flex = Flex_core.Flex
module Errors = Flex_core.Errors
module Elastic = Flex_core.Elastic
module Parser = Flex_sql.Parser
module Canon = Flex_sql.Canon
module Registry = Flex_obs.Registry
module Span = Flex_obs.Span
module Clock = Flex_obs.Clock
module Statements = Flex_obs.Statements
module Flight = Flex_obs.Flight

type config = {
  default_epsilon : float;
  default_delta : float;
  analyst_epsilon : float;
  analyst_delta : float;
  max_epsilon_per_query : float;
  public_optimization : bool;
  unique_optimization : bool;
  cross_joins : bool;
  optimize_queries : bool;
      (* execute through the cost-based plan optimizer ({!Optimizer}), with
         the sensitivity metrics doubling as cardinality statistics; the
         privacy analysis always sees the original AST *)
  explain_estimates : bool;
      (* render ~N cardinality annotations in EXPLAIN responses and serve
         EXPLAIN ANALYZE at all; off by default because estimates are seeded
         from exact private-table row counts and ANALYZE executes the query
         (row counts AND per-operator timings reveal private cardinalities),
         which these uncharged operations would otherwise disclose *)
  telemetry : bool;
      (* metrics registry and per-query trace spans; releases are
         bit-identical either way (telemetry never touches the RNG) *)
  release_cache : bool;
      (* replay finalized noisy releases for identical (query, budget,
         epoch, mechanism) requests at zero additional budget — the DP
         post-processing freebie. Off, every repeat re-executes,
         re-perturbs, and is charged again. *)
  rate_limit_qps : float option;
      (* per-analyst token-bucket admission: each analyst may issue at most
         this many queries per second (with ~1 s of burst); a request over
         the limit gets Rejected {bucket="rate_limit"}, audit-logged, and is
         charged nothing. None = unlimited. *)
  statement_capacity : int;
      (* distinct query shapes tracked by the statement-statistics table
         (least-called evicted past this); only meaningful with telemetry *)
  flight_capacity : int;
      (* finished requests retained by the flight recorder; only meaningful
         with telemetry *)
}

let default_config =
  {
    default_epsilon = 0.1;
    default_delta = 1e-8;
    analyst_epsilon = 10.0;
    analyst_delta = 1e-4;
    max_epsilon_per_query = 1.0;
    public_optimization = true;
    unique_optimization = true;
    cross_joins = false;
    optimize_queries = true;
    explain_estimates = false;
    telemetry = true;
    release_cache = true;
    rate_limit_qps = None;
    statement_capacity = 512;
    flight_capacity = 256;
  }

(* The write-side instruments; scrape-time values (budgets, cache)
   register collect callbacks instead — see [register_collectors]. *)
type instruments = {
  m_queries : Registry.Counter.t;
  m_granted : Registry.Counter.t;
  m_replayed : Registry.Counter.t;
  m_derived : Registry.Counter.t;
  m_rejected : Registry.Counter.t;
  m_rate_limited : Registry.Counter.t;
  m_refused : Registry.Counter.t;
  m_latency : Registry.Histogram.t;
  m_stage : (string list * Registry.Histogram.t) list;
      (* span path in the query trace -> stage histogram *)
}

type t = {
  config : config;
  (* the data epoch: [db], [metrics] and [fingerprint] are replaced together
     under [lock] by [refresh_data]; [handle_query] snapshots the triple once
     so a whole request sees one consistent epoch *)
  mutable db : Database.t;
  mutable metrics : Metrics.t;
  mutable fingerprint : string;
  ledger : Ledger.t;
  analysis_cache : (Elastic.analysis, Errors.reason) result Cache.t;
  (* raw SQL text -> (canonical cache key, factoring). Both are pure
     functions of the text, so entries never go stale; memoizing the
     factoring too keeps the derived fast path (parse + memo + store probe +
     suffix evaluation) in single-digit microseconds — a dashboard refresh
     pays the core/suffix split once per distinct query text. *)
  canon_memo : (string * Flex_sql.Factor.t option) Cache.t;
  release_store : Release_store.t option;  (* Some iff [config.release_cache] *)
  limiter : Rate_limit.t option;  (* Some iff [config.rate_limit_qps] *)
  audit : Audit.t;
  rng : Rng.t;
  registry : Registry.t option;  (* Some iff [config.telemetry] *)
  instruments : instruments option;
  (* statement stats and the flight recorder key on canonical SQL and carry
     raw query text / analyst names: operator-only loopback surfaces, never
     the unauthenticated wire. Some iff [config.telemetry]. *)
  statements : Statements.t option;
  flights : Flight.t option;
  start_ns : float;
  lock : Mutex.t;  (* guards counters and rng splitting *)
  mutable queries : int;
  mutable granted : int;
  mutable replayed : int;
  mutable derived : int;
  mutable rejected : int;
  mutable rate_limited : int;
  mutable refused : int;
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let instr t f = match t.instruments with Some i -> f i | None -> ()

let make_instruments reg =
  let stage name =
    Registry.histogram reg ~help:"Query pipeline stage latency in seconds"
      ~labels:[ ("stage", name) ] "flex_stage_seconds"
  in
  {
    m_queries = Registry.counter reg ~help:"Query requests seen" "flex_queries_total";
    m_granted =
      Registry.counter reg ~help:"Queries granted a noisy release" "flex_granted_total";
    m_replayed =
      Registry.counter reg ~help:"Queries served from the release store (zero budget)"
        "flex_replayed_total";
    m_derived =
      Registry.counter reg
        ~help:
          "Queries answered by post-processing a stored release (materialized-view \
           derivation, zero budget)"
        "flex_release_derived_total";
    m_rejected =
      Registry.counter reg ~help:"Queries rejected (parse/unsupported/admission/other)"
        "flex_rejected_total";
    m_rate_limited =
      Registry.counter reg
        ~help:"Queries rejected by the per-analyst token-bucket rate limit"
        "flex_rate_limited_total";
    m_refused =
      Registry.counter reg ~help:"Queries refused by the budget ledger" "flex_refused_total";
    m_latency =
      Registry.histogram reg ~help:"End-to-end query latency in seconds" "flex_query_seconds";
    m_stage =
      [
        ([ "parse" ], stage "parse");
        ([ "cache" ], stage "analysis");
        ([ "smooth" ], stage "smooth");
        ([ "execute" ], stage "execute");
        ([ "perturb" ], stage "perturb");
        ([ "charge" ], stage "charge");
      ];
  }

let uptime_seconds t = Float.max 1e-9 ((Clock.now_ns () -. t.start_ns) /. 1e9)

(* Everything registered here is operational: request counts, budget
   accounting the analysts already see in their responses, cache
   counters. No query results and no private-table row counts. *)
let register_collectors t reg =
  Registry.collect reg ~help:"Seconds since the server was created" ~kind:`Gauge
    "flex_uptime_seconds" (fun () -> [ ([], uptime_seconds t) ]);
  Registry.collect reg ~help:"Query requests per second since start" ~kind:`Gauge "flex_qps"
    (fun () ->
      let q = with_lock t (fun () -> t.queries) in
      [ ([], float_of_int q /. uptime_seconds t) ]);
  Registry.collect reg ~help:"Per-analyst remaining epsilon budget" ~kind:`Gauge
    "flex_analyst_remaining_epsilon" (fun () ->
      List.map
        (fun (s : Ledger.summary) ->
          ([ ("analyst", s.analyst) ], s.epsilon_limit -. s.epsilon_spent))
        (Ledger.summaries t.ledger));
  Registry.collect reg ~help:"Per-analyst remaining delta budget" ~kind:`Gauge
    "flex_analyst_remaining_delta" (fun () ->
      List.map
        (fun (s : Ledger.summary) ->
          ([ ("analyst", s.analyst) ], s.delta_limit -. s.delta_spent))
        (Ledger.summaries t.ledger));
  (* Budget observatory: burn rate and a naive linear exhaustion forecast,
     both derived at scrape time from ledger state — nothing is sampled on
     the query path. Like the remaining-budget series, they label analyst
     names, so they stay off the unauthenticated wire (see
     [wire_omitted_families]). *)
  Registry.collect reg ~help:"Per-analyst epsilon spent per second of uptime" ~kind:`Gauge
    "flex_analyst_epsilon_burn_per_second" (fun () ->
      let up = uptime_seconds t in
      List.map
        (fun (s : Ledger.summary) -> ([ ("analyst", s.analyst) ], s.epsilon_spent /. up))
        (Ledger.summaries t.ledger));
  Registry.collect reg
    ~help:
      "Naive linear forecast of seconds until the analyst's epsilon budget is exhausted \
       (-1 = no spend yet)"
    ~kind:`Gauge "flex_analyst_epsilon_exhaustion_seconds" (fun () ->
      let up = uptime_seconds t in
      List.map
        (fun (s : Ledger.summary) ->
          let rate = s.epsilon_spent /. up in
          let remaining = Float.max 0.0 (s.epsilon_limit -. s.epsilon_spent) in
          ([ ("analyst", s.analyst) ], if rate <= 0.0 then -1.0 else remaining /. rate))
        (Ledger.summaries t.ledger));
  Registry.collect reg ~help:"Registered analysts" ~kind:`Gauge "flex_analysts" (fun () ->
      [ ([], float_of_int (List.length (Ledger.analysts t.ledger))) ]);
  (match t.statements with
  | None -> ()
  | Some st ->
    Registry.collect reg ~help:"Distinct query shapes tracked by statement statistics"
      ~kind:`Gauge "flex_statements_tracked" (fun () ->
        [ ([], float_of_int (Statements.size st)) ]);
    Registry.collect reg ~help:"Statement-statistics entries evicted at capacity"
      ~kind:`Counter "flex_statements_evicted_total" (fun () ->
        [ ([], float_of_int (Statements.evictions st)) ]));
  (match t.flights with
  | None -> ()
  | Some fl ->
    Registry.collect reg ~help:"Requests written to the flight recorder" ~kind:`Counter
      "flex_flights_recorded_total" (fun () -> [ ([], float_of_int (Flight.recorded fl)) ]));
  Registry.collect reg ~help:"Analysis cache lookups" ~kind:`Counter "flex_cache_lookups_total"
    (fun () ->
      [
        ([ ("result", "hit") ], float_of_int (Cache.hits t.analysis_cache));
        ([ ("result", "miss") ], float_of_int (Cache.misses t.analysis_cache));
      ]);
  Registry.collect reg ~help:"Analysis cache entries" ~kind:`Gauge "flex_cache_entries"
    (fun () -> [ ([], float_of_int (Cache.length t.analysis_cache)) ]);
  (match t.release_store with
  | None -> ()
  | Some store ->
    Registry.collect reg ~help:"Release store lookups" ~kind:`Counter
      "flex_release_cache_lookups_total" (fun () ->
        let s = Release_store.stats store in
        [
          ([ ("result", "hit") ], float_of_int s.hits);
          ([ ("result", "miss") ], float_of_int s.misses);
        ]);
    Registry.collect reg ~help:"Release store entries" ~kind:`Gauge
      "flex_release_cache_entries" (fun () ->
        [ ([], float_of_int (Release_store.length store)) ]);
    Registry.collect reg ~help:"Release store entries dropped" ~kind:`Counter
      "flex_release_cache_evictions_total" (fun () ->
        let s = Release_store.stats store in
        [
          ([ ("reason", "capacity") ], float_of_int s.evictions);
          ([ ("reason", "stale_epoch") ], float_of_int s.stale_dropped);
        ]));
  Registry.collect reg ~help:"Audit events logged" ~kind:`Counter "flex_audit_events_total"
    (fun () -> [ ([], float_of_int (Audit.count t.audit)) ])

let create ?(audit = Audit.null ()) ?(config = default_config) ?cache_capacity ?registry
    ?release_store ~db ~metrics ~ledger ~rng () =
  let registry =
    if config.telemetry then
      Some (match registry with Some r -> r | None -> Registry.create ())
    else None
  in
  let release_store =
    if config.release_cache then
      Some (match release_store with Some s -> s | None -> Release_store.create ())
    else None
  in
  let t =
    {
      config;
      db;
      metrics;
      fingerprint = Metrics.fingerprint metrics;
      ledger;
      analysis_cache = Cache.create ?capacity:cache_capacity ();
      canon_memo = Cache.create ?capacity:cache_capacity ();
      release_store;
      limiter =
        Option.map (fun qps -> Rate_limit.create ~qps ()) config.rate_limit_qps;
      audit;
      rng;
      registry;
      instruments = Option.map make_instruments registry;
      statements =
        (if config.telemetry then
           Some (Statements.create ~capacity:config.statement_capacity ())
         else None);
      flights =
        (if config.telemetry then Some (Flight.create ~capacity:config.flight_capacity ())
         else None);
      start_ns = Clock.now_ns ();
      lock = Mutex.create ();
      queries = 0;
      granted = 0;
      replayed = 0;
      derived = 0;
      rejected = 0;
      rate_limited = 0;
      refused = 0;
    }
  in
  Option.iter (register_collectors t) registry;
  t

type session = { mutable analyst : string option; rng : Rng.t }

let session t = with_lock t (fun () -> { analyst = None; rng = Rng.split t.rng })

let bucket_string reason =
  match Errors.bucket_of reason with
  | Errors.Parse_bucket -> "parse"
  | Errors.Unsupported_bucket -> "unsupported"
  | Errors.Other_bucket -> "other"

let base_event ?id ~analyst ~sql () : Audit.event =
  {
    analyst;
    sql;
    request_id = id;
    outcome = Audit.Failed;
    epsilon = 0.0;
    delta = 0.0;
    max_noise_scale = 0.0;
    cache_hit = false;
    parse_ns = 0.0;
    analysis_ns = 0.0;
    smooth_ns = 0.0;
    execution_ns = 0.0;
    perturbation_ns = 0.0;
    total_ns = 0.0;
  }

(* Close the query's root span and derive the audit stage timings plus the
   latency-histogram observations from one consistent view of the trace.
   With telemetry off ([root = None]) the event keeps its zeroed timings.
   The view is returned alongside so the flight recorder can retain the full
   span tree without re-snapshotting. *)
let finalize t root (base : Audit.event) : Audit.event * Span.view option =
  match root with
  | None -> (base, None)
  | Some r ->
    Span.finish r;
    let v = Span.view r in
    let d path = Span.duration_of v path in
    instr t (fun i ->
        Registry.Histogram.observe i.m_latency (d [] /. 1e9);
        List.iter
          (fun (path, h) ->
            if Option.is_some (Span.find v path) then
              Registry.Histogram.observe h (d path /. 1e9))
          i.m_stage);
    ( {
        base with
        parse_ns = d [ "parse" ];
        analysis_ns = d [ "cache" ];
        smooth_ns = d [ "smooth" ];
        execution_ns = d [ "execute" ];
        perturbation_ns = d [ "perturb" ];
        total_ns = d [];
      },
      Some v )

let statement_outcome : Audit.outcome -> Statements.outcome option = function
  | Audit.Granted -> Some `Granted
  | Audit.Replayed -> Some `Replayed
  | Audit.Derived -> Some `Derived
  | Audit.Rejected _ -> Some `Rejected
  | Audit.Refused -> Some `Refused
  | Audit.Failed -> Some `Failed
  | Audit.Analyzed -> None

let outcome_string : Audit.outcome -> string = function
  | Audit.Granted -> "granted"
  | Audit.Replayed -> "replayed"
  | Audit.Derived -> "derived"
  | Audit.Rejected bucket -> "rejected:" ^ bucket
  | Audit.Refused -> "refused"
  | Audit.Failed -> "failed"
  | Audit.Analyzed -> "analyzed"

(* Fold one finished request into the flight recorder and (when its
   canonical core key is known) the statement-statistics table. Pure
   observation — no RNG, no ledger, no result bytes — so releases are
   bit-identical recorder on or off. [event] is the final audit event
   (outcome and timings settled); [view] the closed span tree, if any. *)
let record_obs t ?key ?(rows = 0) (event : Audit.event) (view : Span.view option) =
  let now = Clock.now_ns () in
  Option.iter
    (fun fl ->
      Flight.record fl ~ts_ns:now ?id:event.request_id ~analyst:event.analyst
        ~sql:event.sql ?key ~outcome:(outcome_string event.outcome)
        ~epsilon:event.epsilon ~delta:event.delta ~duration_ns:event.total_ns
        ?trace:view ())
    t.flights;
  match (key, t.statements, statement_outcome event.outcome) with
  | Some key, Some st, Some outcome ->
    let stages =
      match view with
      | None -> []
      | Some v ->
        List.filter_map
          (fun (c : Span.view) ->
            if c.duration_ns > 0.0 then Some (c.name, c.duration_ns) else None)
          v.children
    in
    Statements.record st ~now_ns:now ~key ~outcome ~stages ~rows ~epsilon:event.epsilon
      ~delta:event.delta ~total_ns:event.total_ns ()
  | _ -> ()

(* Admission of the request's privacy parameters: Flex.options would raise
   on out-of-range values, and the per-query cap keeps any single request
   from draining an analyst's budget in one bite. *)
let validate_privacy t ~epsilon ~delta =
  if (not (Float.is_finite epsilon)) || epsilon <= 0.0 then
    Error (Printf.sprintf "per-query epsilon must be positive and finite (got %g)" epsilon)
  else if (not (Float.is_finite delta)) || delta <= 0.0 || delta >= 1.0 then
    Error (Printf.sprintf "per-query delta must be in (0, 1) (got %g)" delta)
  else if epsilon > t.config.max_epsilon_per_query then
    Error
      (Printf.sprintf "per-query epsilon %g exceeds the service cap %g" epsilon
         t.config.max_epsilon_per_query)
  else Ok ()

let options_for t ~epsilon ~delta =
  Flex.options ~public_optimization:t.config.public_optimization
    ~unique_optimization:t.config.unique_optimization ~cross_joins:t.config.cross_joins ~epsilon
    ~delta ()

(* The epoch triple, snapshotted once per request so analysis, execution and
   perturbation all see the same data even if [refresh_data] races in. *)
let epoch t = with_lock t (fun () -> (t.db, t.metrics, t.fingerprint))

(* The analysis depends on options only through the catalog flags, never
   through epsilon/delta, so one cache entry serves every privacy level.
   The caller times canonicalization (the "canon" span); the lookup ("cache")
   contains the "analysis" child only on a miss. *)
let analyze_cached t ?span ~canon ~fingerprint ~metrics ~options ast =
  let flags =
    Printf.sprintf "pub=%b;uniq=%b;cross=%b" t.config.public_optimization
      t.config.unique_optimization t.config.cross_joins
  in
  let key = Cache.key ~sql_canonical:canon ~fingerprint ~flags in
  Span.timed span "cache" (fun cache_span ->
      Cache.find_or_compute t.analysis_cache ~key (fun () ->
          Flex.analyze_ast ?span:cache_span ~options ~metrics ast))

(* Everything that determines the mechanism instance beyond the query and
   the budget. Two requests whose flags differ run distinct mechanisms and
   must never share a stored release. *)
let release_flags (o : Flex.options) =
  Printf.sprintf "pub=%b;uniq=%b;cross=%b;bins=%b;round=%b;smooth=%s;noise=%s"
    o.public_optimization o.unique_optimization o.cross_joins o.enumerate_bins
    o.round_counts
    (match o.smoothing with `Smooth -> "smooth" | `Elastic_k0 -> "elastic_k0")
    (match o.noise with `Laplace -> "laplace" | `Cauchy -> "cauchy")

let parse sql =
  match Parser.parse sql with Ok ast -> Ok ast | Error e -> Error (Errors.Parse_error e)

let budget_report t analyst =
  match
    ( Ledger.limits t.ledger ~analyst,
      Ledger.spent t.ledger ~analyst,
      Ledger.remaining t.ledger ~analyst )
  with
  | Some (el, dl), Some (es, ds), Some (re, rd) ->
    Wire.Budget_report
      {
        analyst;
        epsilon_limit = el;
        delta_limit = dl;
        epsilon_spent = es;
        delta_spent = ds;
        remaining_epsilon = re;
        remaining_delta = rd;
        queries = Ledger.spends t.ledger ~analyst;
      }
  | _ -> Wire.Error_msg (Printf.sprintf "unknown analyst %S" analyst)

let handle_hello t session ~analyst ~epsilon ~delta =
  let eps = Option.value epsilon ~default:t.config.analyst_epsilon in
  let del = Option.value delta ~default:t.config.analyst_delta in
  let attach () =
    session.analyst <- Some analyst;
    budget_report t analyst
  in
  match Ledger.register t.ledger ~analyst ~epsilon:eps ~delta:del with
  | Ok () -> attach ()
  | Error (Ledger.Already_registered existing) -> (
    match (epsilon, delta) with
    | None, None -> attach () (* plain re-attach keeps the existing limits *)
    | _ ->
      Wire.Error_msg
        (Printf.sprintf "analyst %S already registered with budget (%g, %g)" analyst
           existing.epsilon existing.delta))
  | Error err -> Wire.Error_msg (Ledger.error_to_string err)

let reject t ~root ~(base : Audit.event) ?key reason =
  let bucket = bucket_string reason in
  with_lock t (fun () -> t.rejected <- t.rejected + 1);
  instr t (fun i -> Registry.Counter.incr i.m_rejected);
  let finalized, view = finalize t root base in
  let event = { finalized with outcome = Audit.Rejected bucket } in
  Audit.log t.audit event;
  record_obs t ?key event view;
  Wire.Rejected { bucket; reason = Errors.to_string reason }

(* EXPLAIN ANALYZE: execute the plan and render per-operator row counts and
   timings. The execution itself is the disclosure: per-operator elapsed
   time scales with private row counts and predicate selectivities, so an
   uncharged op that anyone may call without limit would be a timing side
   channel (and a free resource sink — think cross joins) even with the
   rows=? masking. It therefore requires an authenticated session (hello)
   AND the [explain_estimates] opt-in that already declares table
   cardinalities public, and every execution is audit-logged; within that
   posture it stays uncharged, like EXPLAIN. *)
let analyzed_plan t session ~sql ast =
  match session.analyst with
  | None -> Wire.Error_msg "no analyst: send hello first"
  | Some analyst ->
    let base = base_event ~analyst ~sql () in
    if not t.config.explain_estimates then begin
      Audit.log t.audit { base with outcome = Audit.Rejected "admission" };
      Wire.Rejected
        {
          bucket = "admission";
          reason =
            "EXPLAIN ANALYZE executes the query against the private database \
             and is only served when the deployment opts in via \
             explain_estimates (flex_serve --explain-estimates)";
        }
    end
    else begin
      let reject reason =
        Audit.log t.audit { base with outcome = Audit.Rejected (bucket_string reason) };
        Wire.Rejected { bucket = bucket_string reason; reason = Errors.to_string reason }
      in
      match
        Flex_engine.Executor.explain_analyze ~optimize:t.config.optimize_queries
          ~metrics:t.metrics ~show_rows:true t.db ast
      with
      | plan, _ ->
        Audit.log t.audit { base with outcome = Audit.Analyzed };
        Wire.Analyzed_report { plan }
      | exception Flex_engine.Executor.Error m ->
        reject (Errors.Analysis_error ("execution: " ^ m))
      | exception Flex_engine.Eval.Error m ->
        reject (Errors.Analysis_error ("evaluation: " ^ m))
      | exception Flex_engine.Aggregate.Error m ->
        reject (Errors.Analysis_error ("aggregation: " ^ m))
    end

(* Token-bucket admission: a scheduling decision ahead of everything else
   (no parse, no analysis, no ledger), so a runaway dashboard is turned
   away at the door instead of queueing work. The denial is audit-logged —
   operators tune --rate-limit from these events and the
   flex_rate_limited_total counter. *)
let rate_limited t ~analyst =
  match t.limiter with
  | None -> false
  | Some rl -> not (Rate_limit.allow rl ~key:analyst)

let handle_query t session ~sql ~epsilon ~delta ~id =
  match session.analyst with
  | None -> Wire.Error_msg "no analyst: send hello first"
  | Some analyst when rate_limited t ~analyst ->
    with_lock t (fun () ->
        t.queries <- t.queries + 1;
        t.rejected <- t.rejected + 1;
        t.rate_limited <- t.rate_limited + 1);
    instr t (fun i ->
        Registry.Counter.incr i.m_queries;
        Registry.Counter.incr i.m_rejected;
        Registry.Counter.incr i.m_rate_limited);
    let event =
      { (base_event ?id ~analyst ~sql ()) with outcome = Audit.Rejected "rate_limit" }
    in
    Audit.log t.audit event;
    record_obs t event None;
    Wire.Rejected
      {
        bucket = "rate_limit";
        reason =
          Printf.sprintf
            "analyst %S exceeded the per-analyst rate limit (%g queries/s); retry later"
            analyst
            (match t.limiter with Some rl -> Rate_limit.qps rl | None -> 0.0);
      }
  | Some analyst -> (
    with_lock t (fun () -> t.queries <- t.queries + 1);
    instr t (fun i -> Registry.Counter.incr i.m_queries);
    let epsilon = Option.value epsilon ~default:t.config.default_epsilon in
    let delta = Option.value delta ~default:t.config.default_delta in
    let base = base_event ?id ~analyst ~sql () in
    match validate_privacy t ~epsilon ~delta with
    | Error msg ->
      with_lock t (fun () -> t.rejected <- t.rejected + 1);
      instr t (fun i -> Registry.Counter.incr i.m_rejected);
      let event = { base with outcome = Audit.Rejected "admission" } in
      Audit.log t.audit event;
      record_obs t event None;
      Wire.Rejected { bucket = "admission"; reason = msg }
    | Ok () -> (
      let root = if t.config.telemetry then Some (Span.root "query") else None in
      match Span.timed root "parse" (fun _ -> Parser.parse_statement sql) with
      | Ok (Flex_sql.Ast.Explain ast) ->
        (* EXPLAIN typed where a query was expected: answer with the plans,
           charge nothing *)
        let logical, optimized =
          Flex_engine.Optimizer.explain ~metrics:t.metrics
            ~estimates:t.config.explain_estimates ast
        in
        Wire.Plan_report { logical; optimized }
      | Ok (Flex_sql.Ast.Explain_analyze ast) -> analyzed_plan t session ~sql ast
      | Error e -> reject t ~root ~base (Errors.Parse_error e)
      | Ok (Flex_sql.Ast.Query ast) -> (
        let options = options_for t ~epsilon ~delta in
        let db, metrics, fingerprint = epoch t in
        (* Factor into a releasable core + post-processing suffix. The store
           is keyed on the core, so every HAVING/ORDER BY/LIMIT/projection
           variant of one dashboard collides onto a single paid release;
           without a store there is nothing to share the core through and the
           original whole-query path applies unchanged. *)
        let canon, fact =
          Span.timed root "canon" (fun _ ->
              fst
                (Cache.find_or_compute t.canon_memo ~key:sql (fun () ->
                     let fact =
                       match t.release_store with
                       | None -> None
                       | Some _ -> Flex_sql.Factor.factor ast
                     in
                     match fact with
                     | Some f -> (f.core_sql, fact)
                     | None -> (Canon.cache_key ast, None))))
        in
        (* What actually analyzes/executes on a miss: the canonical core for
           factorable queries (paying once for all its base aggregates), the
           original AST otherwise. *)
        let exec_ast = match fact with Some f -> f.core | None -> ast in
        let release_key =
          Release_store.key ~sql_canonical:canon ~fingerprint
            ~flags:(release_flags options) ~epsilon ~delta
        in
        (* The analyst-visible answer for a stored (or just-minted) entry:
           factored queries evaluate their suffix over the stored noisy rows
           (restoring output names, order and arithmetic); everything else is
           served verbatim. Suffix evaluation is deterministic, so a replay
           of the same entry always reproduces the same bytes. *)
        let answer_of (entry : Release_store.entry) =
          match fact with
          | None -> (entry.columns, entry.rows)
          | Some f ->
            let rs =
              Flex.post_process f.suffix ~columns:entry.columns entry.rows
            in
            (rs.columns, rs.rows)
        in
        let wire_rows rows =
          List.map (fun row -> List.map Wire.json_of_value (Array.to_list row)) rows
        in
        let is_derived =
          match fact with Some f -> not (Flex_sql.Factor.trivial f) | None -> false
        in
        let replay =
          match t.release_store with
          | None -> None
          | Some store ->
            Span.timed root "replay" (fun _ -> Release_store.find store release_key)
        in
        match replay with
        | Some (entry : Release_store.entry) -> (
          (* Zero-budget answer: the core's bytes already left the server for
             this (core, budget, epoch, mechanism); replaying them — or
             evaluating a post-processing suffix over them — touches no
             database, RNG or ledger. *)
          match answer_of entry with
          | exception (Flex_engine.Eval.Error _ | Flex_engine.Compiled.Error _) ->
            reject t ~root ~base ~key:canon
              (Errors.Analysis_error "post-processing suffix failed on the stored release")
          | columns, rows ->
            with_lock t (fun () ->
                if is_derived then t.derived <- t.derived + 1
                else t.replayed <- t.replayed + 1);
            instr t (fun i ->
                Registry.Counter.incr (if is_derived then i.m_derived else i.m_replayed));
            let max_noise_scale =
              List.fold_left (fun acc (_, s) -> Float.max acc s) 0.0 entry.noise_scales
            in
            let remaining_epsilon, remaining_delta =
              Option.value ~default:(0.0, 0.0) (Ledger.remaining t.ledger ~analyst)
            in
            let finalized, view = finalize t root { base with cache_hit = true } in
            let event =
              {
                finalized with
                outcome = (if is_derived then Audit.Derived else Audit.Replayed);
                max_noise_scale;
              }
            in
            Audit.log t.audit event;
            record_obs t ~key:canon ~rows:(List.length rows) event view;
            Wire.Result
              {
                columns;
                rows = wire_rows rows;
                epsilon_spent = 0.0;
                delta_spent = 0.0;
                remaining_epsilon;
                remaining_delta;
                cache_hit = true;
                cached = true;
                derived = is_derived;
                bins_enumerated = entry.bins_enumerated;
                noise_scales = entry.noise_scales;
              })
        | None -> (
          let analyzed, cache_hit =
            analyze_cached t ?span:root ~canon ~fingerprint ~metrics ~options exec_ast
          in
          let base = { base with cache_hit } in
          match analyzed with
          | Error reason -> reject t ~root ~base ~key:canon reason
          | Ok analysis -> (
            let column_releases = Flex.smooth_columns ?span:root ~options analysis in
            match
              Flex.execute ?span:root ~optimize:t.config.optimize_queries
                ~metrics ~db exec_ast
            with
            | Error reason -> reject t ~root ~base ~key:canon reason
            | Ok result_set -> (
              let n = float_of_int (List.length column_releases) in
              let cost_eps = epsilon *. n and cost_delta = delta *. n in
              (* The atomic gate: journal-then-charge before any noisy value
                 exists, so refusal can never follow a release. *)
              match
                Span.timed root "charge" (fun _ ->
                    Ledger.spend t.ledger ~analyst ~epsilon:cost_eps ~delta:cost_delta
                      ~label:"flex-query")
              with
              | Error (Ledger.Exhausted e) ->
                with_lock t (fun () -> t.refused <- t.refused + 1);
                instr t (fun i -> Registry.Counter.incr i.m_refused);
                let finalized, view = finalize t root base in
                let event = { finalized with outcome = Audit.Refused } in
                Audit.log t.audit event;
                record_obs t ~key:canon event view;
                Wire.Refused
                  {
                    analyst;
                    requested_epsilon = cost_eps;
                    requested_delta = cost_delta;
                    remaining_epsilon = e.remaining_epsilon;
                    remaining_delta = e.remaining_delta;
                  }
              | Error err -> Wire.Error_msg (Ledger.error_to_string err)
              | Ok (remaining_epsilon, remaining_delta) ->
                let release =
                  Flex.perturb ?span:root ~rng:session.rng ~options ~metrics ~db
                    ~analysis ~column_releases result_set
                in
                with_lock t (fun () -> t.granted <- t.granted + 1);
                instr t (fun i -> Registry.Counter.incr i.m_granted);
                let noise_scales =
                  List.map
                    (fun (cr : Flex.column_release) -> (cr.name, cr.noise_scale))
                    release.column_releases
                in
                (* Journal the release before responding (charge happened
                   above): a crash after the charge but before the journal
                   loses an answer nobody ever saw; a crash after the journal
                   replays this exact entry forever. Either way, no second
                   noise draw can leave the server for a charged key. If two
                   sessions raced the same cold key, the store keeps the first
                   and we respond with whatever it kept. *)
                let entry =
                  {
                    Release_store.key = release_key;
                    fingerprint;
                    analyst;
                    epsilon;
                    delta;
                    epsilon_spent = cost_eps;
                    delta_spent = cost_delta;
                    columns = release.noisy.columns;
                    rows = release.noisy.rows;
                    bins_enumerated = release.bins_enumerated;
                    noise_scales;
                  }
                in
                let stored =
                  match t.release_store with
                  | None -> entry
                  | Some store -> Release_store.record store entry
                in
                let max_noise_scale =
                  List.fold_left (fun acc (_, s) -> Float.max acc s) 0.0
                    stored.noise_scales
                in
                match answer_of stored with
                | exception (Flex_engine.Eval.Error _ | Flex_engine.Compiled.Error _)
                  ->
                  (* The core is paid and journaled (the charge stands), but
                     this request's suffix cannot evaluate over it. *)
                  reject t ~root ~base ~key:canon
                    (Errors.Analysis_error
                       "post-processing suffix failed on the released core")
                | columns, rows ->
                  let finalized, view = finalize t root base in
                  let event =
                    {
                      finalized with
                      outcome = Audit.Granted;
                      epsilon = cost_eps;
                      delta = cost_delta;
                      max_noise_scale;
                    }
                  in
                  Audit.log t.audit event;
                  record_obs t ~key:canon ~rows:(List.length rows) event view;
                  Wire.Result
                    {
                      columns;
                      rows = wire_rows rows;
                      epsilon_spent = cost_eps;
                      delta_spent = cost_delta;
                      remaining_epsilon;
                      remaining_delta;
                      cache_hit;
                      cached = false;
                      derived = false;
                      bins_enumerated = stored.bins_enumerated;
                      noise_scales = stored.noise_scales;
                    }))))))

(* EXPLAIN is free: it renders plan shapes without touching the database,
   so it is neither charged nor counted as a query. Because it is free, the
   ~N cardinality annotations — seeded from exact private-table row counts —
   are suppressed unless the deployment opts in via [explain_estimates]
   (i.e. declares table cardinalities public). An EXPLAIN ANALYZE prefix in
   the text routes to the executed-plan report, which additionally requires
   hello (it touches the private data). *)
let handle_explain t session ~sql =
  match Parser.parse_statement sql with
  | Error e ->
    let reason = Errors.Parse_error e in
    Wire.Rejected { bucket = bucket_string reason; reason = Errors.to_string reason }
  | Ok (Flex_sql.Ast.Explain_analyze ast) -> analyzed_plan t session ~sql ast
  | Ok (Flex_sql.Ast.Query ast) | Ok (Flex_sql.Ast.Explain ast) ->
    let logical, optimized =
      Flex_engine.Optimizer.explain ~metrics:t.metrics
        ~estimates:t.config.explain_estimates ast
    in
    Wire.Plan_report { logical; optimized }

let handle_analyze t ~sql =
  let options =
    options_for t ~epsilon:t.config.default_epsilon ~delta:t.config.default_delta
  in
  match parse sql with
  | Error reason -> Wire.Rejected { bucket = bucket_string reason; reason = Errors.to_string reason }
  | Ok ast -> (
    let _, metrics, fingerprint = epoch t in
    let analyzed, cache_hit =
      analyze_cached t ~canon:(Canon.cache_key ast) ~fingerprint ~metrics ~options ast
    in
    match analyzed with
    | Error reason ->
      Wire.Rejected { bucket = bucket_string reason; reason = Errors.to_string reason }
    | Ok analysis ->
      let columns =
        List.map
          (fun (cr : Flex.column_release) ->
            {
              Wire.column = cr.name;
              sensitivity = Sens.to_string cr.elastic;
              smooth_bound = cr.smooth.smooth_bound;
              noise_scale = cr.noise_scale;
            })
          (Flex.smooth_columns ~options analysis)
      in
      Wire.Analysis
        { cache_hit; is_histogram = analysis.is_histogram; joins = analysis.joins; columns })

(* Per-analyst budget series stay off the wire [Stats] response: the op
   needs no hello, and those series label every analyst's name with their
   budget consumption, where [Budget_info] only ever discloses the caller's
   own. The burn-rate / exhaustion-forecast observatory series carry the
   same analyst labels and follow the same rule. Operators still get them
   all on the loopback-only /metrics scrape. (Statement stats and flight
   records never even reach the registry: they hold raw SQL and live only
   behind the loopback /statements and /flights endpoints.) *)
let wire_omitted_families =
  [
    "flex_analyst_remaining_epsilon";
    "flex_analyst_remaining_delta";
    "flex_analyst_epsilon_burn_per_second";
    "flex_analyst_epsilon_exhaustion_seconds";
  ]

let json_of_registry ?(omit = []) reg : Json.t =
  let sample (s : Registry.sample) =
    let labels =
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels))
    in
    match s.value with
    | Registry.Sample v -> Json.Obj [ labels; ("value", Json.Num v) ]
    | Registry.Hist { upper; cumulative; count; sum } ->
      let quantiles =
        match
          ( Registry.estimate_quantile ~upper ~cumulative ~count 0.5,
            Registry.estimate_quantile ~upper ~cumulative ~count 0.95,
            Registry.estimate_quantile ~upper ~cumulative ~count 0.99 )
        with
        | Some p50, Some p95, Some p99 ->
          [
            ( "quantiles",
              Json.Obj
                [ ("p50", Json.Num p50); ("p95", Json.Num p95); ("p99", Json.Num p99) ] );
          ]
        | _ -> []
      in
      Json.Obj
        ([
           labels;
           ("count", Json.Num (float_of_int count));
           ("sum", Json.Num sum);
           ( "buckets",
             Json.List
               (List.mapi
                  (fun i u ->
                    Json.Obj
                      [
                        ("le", Json.Num u);
                        ("count", Json.Num (float_of_int cumulative.(i)));
                      ])
                  (Array.to_list upper)) );
         ]
        @ quantiles)
  in
  let family (f : Registry.family) =
    Json.Obj
      [
        ("name", Json.Str f.name);
        ("kind", Json.Str f.kind);
        ("help", Json.Str f.help);
        ("samples", Json.List (List.map sample f.samples));
      ]
  in
  let families =
    List.filter
      (fun (f : Registry.family) -> not (List.mem f.name omit))
      (Registry.snapshot reg)
  in
  Json.Obj [ ("families", Json.List (List.map family families)) ]

let stats_report t =
  let c = with_lock t (fun () -> (t.queries, t.granted, t.rejected, t.refused)) in
  let queries, granted, rejected, refused = c in
  let uptime = uptime_seconds t in
  let rs =
    match t.release_store with
    | None -> None
    | Some store -> Some (Release_store.stats store)
  in
  let release_hits = match rs with Some s -> s.hits | None -> 0 in
  let release_misses = match rs with Some s -> s.misses | None -> 0 in
  let release_derived = with_lock t (fun () -> t.derived) in
  Wire.Stats_report
    {
      queries;
      granted;
      rejected;
      refused;
      cache_hits = Cache.hits t.analysis_cache;
      cache_misses = Cache.misses t.analysis_cache;
      cache_entries = Cache.length t.analysis_cache;
      release_hits;
      release_misses;
      release_derived;
      release_evictions =
        (match rs with Some s -> s.evictions + s.stale_dropped | None -> 0);
      release_entries = (match rs with Some s -> s.entries | None -> 0);
      release_hit_rate =
        float_of_int release_hits /. float_of_int (max 1 (release_hits + release_misses));
      analysts = List.length (Ledger.analysts t.ledger);
      uptime_seconds = uptime;
      qps = float_of_int queries /. uptime;
      metrics =
        (match t.registry with
        | Some reg -> json_of_registry ~omit:wire_omitted_families reg
        | None -> Json.Null);
    }

let handle t session req =
  try
    match (req : Wire.request) with
    | Hello { analyst; epsilon; delta } -> handle_hello t session ~analyst ~epsilon ~delta
    | Query { sql; epsilon; delta; id } -> handle_query t session ~sql ~epsilon ~delta ~id
    | Analyze { sql } -> handle_analyze t ~sql
    | Explain { sql } -> handle_explain t session ~sql
    | Budget_info -> (
      match session.analyst with
      | None -> Wire.Error_msg "no analyst: send hello first"
      | Some analyst -> budget_report t analyst)
    | Stats -> stats_report t
    | Quit -> Wire.Bye
  with exn -> Wire.Error_msg ("internal error: " ^ Printexc.to_string exn)

let handle_line t session line =
  match Wire.request_of_line line with
  | Error msg -> Wire.response_to_line (Wire.Error_msg msg)
  | Ok req -> Wire.response_to_line ?id:(Wire.request_id req) (handle t session req)

type counters = {
  queries : int;
  granted : int;
  replayed : int;
  derived : int;
  rejected : int;
  rate_limited : int;
  refused : int;
}

let counters t =
  with_lock t (fun () ->
      {
        queries = t.queries;
        granted = t.granted;
        replayed = t.replayed;
        derived = t.derived;
        rejected = t.rejected;
        rate_limited = t.rate_limited;
        refused = t.refused;
      })

let session_analyst (s : session) = s.analyst

(* The reactor sheds a request it never parsed (worker queue full): record
   the refusal in the audit log like every other admission decision. The
   raw line stands in for the SQL — truncated, it may not even be JSON. *)
let log_overload t ~analyst ~line =
  let sql =
    if String.length line <= 200 then line else String.sub line 0 200 ^ "..."
  in
  with_lock t (fun () -> t.rejected <- t.rejected + 1);
  instr t (fun i -> Registry.Counter.incr i.m_rejected);
  let event =
    {
      (base_event ~analyst:(Option.value analyst ~default:"") ~sql ()) with
      outcome = Audit.Rejected "overload";
    }
  in
  Audit.log t.audit event;
  record_obs t event None

let cache t = t.analysis_cache
let release_store t = t.release_store
let registry t = t.registry
let statements t = t.statements
let flights t = t.flights

(* Data reload: swap in the new epoch atomically, then strand every stored
   release minted against the old fingerprint — a replayed answer must never
   outlive the data it described. Analysis-cache entries are keyed on the
   fingerprint too and simply stop matching. Returns how many releases were
   stranded. *)
let refresh_data t ~db ~metrics =
  with_lock t (fun () ->
      t.db <- db;
      t.metrics <- metrics;
      t.fingerprint <- Metrics.fingerprint metrics);
  match t.release_store with
  | None -> 0
  | Some store -> Release_store.invalidate_epoch store ~keep:(Metrics.fingerprint metrics)

(* {2 TCP front end} *)

type listener = {
  server : t;
  sock : Unix.file_descr;
  lport : int;
  idle_timeout : float;
  llock : Mutex.t;
  mutable running : bool;
  mutable conns : (Unix.file_descr * Thread.t) list;
  mutable accept_thread : Thread.t option;
}

let listen ?(backlog = 16) ?(port = 0) ?(idle_timeout = 300.0) t =
  let sock = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt sock SO_REUSEADDR true;
  Unix.bind sock (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock backlog;
  let lport =
    match Unix.getsockname sock with ADDR_INET (_, p) -> p | _ -> assert false
  in
  {
    server = t;
    sock;
    lport;
    idle_timeout;
    llock = Mutex.create ();
    running = true;
    conns = [];
    accept_thread = None;
  }

let port l = l.lport

let conn_loop l fd =
  let session = session l.server in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let continue = ref true in
     while !continue do
       match input_line ic with
       | exception (End_of_file | Sys_error _) -> continue := false
       | line ->
         let resp, id, stop =
           match Wire.request_of_line line with
           | Error msg -> (Wire.Error_msg msg, None, false)
           | Ok req ->
             (handle l.server session req, Wire.request_id req, req = Wire.Quit)
         in
         output_string oc (Wire.response_to_line ?id resp);
         output_char oc '\n';
         flush oc;
         if stop then continue := false
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  Mutex.lock l.llock;
  l.conns <- List.filter (fun (fd', _) -> fd' <> fd) l.conns;
  Mutex.unlock l.llock;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
  close_in_noerr ic (* closes [fd]; [oc] shares it and is already flushed *)

let serve l =
  let continue = ref true in
  while !continue do
    match Unix.accept l.sock with
    | fd, _ ->
      if not l.running then (try Unix.close fd with _ -> ())
      else begin
        (* one-JSON-line request/response: Nagle + delayed ACK would add a
           round-trip of latency to every exchange *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        (* a dead or silent client may not pin this thread (and its fd)
           forever: a blocked read gives up after the idle timeout, which
           the reader below treats as a hangup *)
        (if l.idle_timeout > 0.0 then
           try Unix.setsockopt_float fd Unix.SO_RCVTIMEO l.idle_timeout
           with Unix.Unix_error _ -> ());
        Mutex.lock l.llock;
        let th = Thread.create (fun () -> conn_loop l fd) () in
        l.conns <- (fd, th) :: l.conns;
        Mutex.unlock l.llock
      end
    | exception Unix.Unix_error _ -> if not l.running then continue := false
  done

let start l =
  let th = Thread.create serve l in
  l.accept_thread <- Some th;
  th

let stop l =
  Mutex.lock l.llock;
  let was_running = l.running in
  l.running <- false;
  let acc = l.accept_thread in
  l.accept_thread <- None;
  Mutex.unlock l.llock;
  if was_running then begin
    (* shutdown wakes a blocked accept (Linux), and keeps waking it: an
       accept entered after this point fails immediately too. *)
    (try Unix.shutdown l.sock Unix.SHUTDOWN_ALL with _ -> ());
    (match acc with Some th -> Thread.join th | None -> ());
    (try Unix.close l.sock with _ -> ());
    let conns = Mutex.protect l.llock (fun () -> l.conns) in
    List.iter (fun (fd, _) -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()) conns;
    List.iter (fun (_, th) -> try Thread.join th with _ -> ()) conns
  end
