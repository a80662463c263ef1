module Wire = Flex_service.Wire
module Server = Flex_service.Server
module Reactor = Flex_service.Reactor
module Workers = Flex_service.Workers
module Rate_limit = Flex_service.Rate_limit
module Load_driver = Flex_service.Load_driver
module Audit = Flex_service.Audit
module Json = Flex_service.Json
module Ledger = Flex_dp.Ledger
module Rng = Flex_dp.Rng
module Registry = Flex_obs.Registry

(* --- workers ------------------------------------------------------------------- *)

let workers_tests =
  [
    Alcotest.test_case "jobs run exactly once and stats add up" `Quick (fun () ->
        let pool = Workers.create ~workers:2 ~capacity:64 () in
        let hits = Atomic.make 0 in
        for _ = 1 to 50 do
          Alcotest.(check bool) "submit accepted" true
            (Workers.try_submit pool (fun () -> Atomic.incr hits))
        done;
        Workers.shutdown pool;
        Alcotest.(check int) "every job ran" 50 (Atomic.get hits);
        let s = Workers.stats pool in
        Alcotest.(check int) "submitted" 50 s.submitted;
        Alcotest.(check int) "completed" 50 s.completed;
        Alcotest.(check int) "rejected" 0 s.rejected;
        Alcotest.(check int) "nothing inflight" 0 (Workers.inflight pool));
    Alcotest.test_case "full queue refuses instead of blocking" `Quick (fun () ->
        let pool = Workers.create ~workers:1 ~capacity:1 () in
        let gate = Mutex.create () and go = Condition.create () in
        let released = ref false in
        let running = Mutex.create () and started = Condition.create () in
        let worker_started = ref false in
        (* pin the single worker on a job we control *)
        assert (
          Workers.try_submit pool (fun () ->
              Mutex.protect running (fun () ->
                  worker_started := true;
                  Condition.broadcast started);
              Mutex.lock gate;
              while not !released do
                Condition.wait go gate
              done;
              Mutex.unlock gate));
        Mutex.protect running (fun () ->
            while not !worker_started do
              Condition.wait started running
            done);
        (* one slot waits, the next is refused *)
        Alcotest.(check bool) "queued" true (Workers.try_submit pool (fun () -> ()));
        Alcotest.(check bool) "refused at capacity" false
          (Workers.try_submit pool (fun () -> ()));
        Alcotest.(check int) "two inflight" 2 (Workers.inflight pool);
        Mutex.protect gate (fun () ->
            released := true;
            Condition.broadcast go);
        Workers.shutdown pool;
        let s = Workers.stats pool in
        Alcotest.(check int) "one refusal counted" 1 s.rejected;
        Alcotest.(check int) "queued job drained by shutdown" 2 s.completed;
        Alcotest.(check bool) "submit after shutdown refused" false
          (Workers.try_submit pool (fun () -> ())));
    Alcotest.test_case "job exceptions are contained" `Quick (fun () ->
        let pool = Workers.create ~workers:1 ~capacity:8 () in
        let after = Atomic.make false in
        assert (Workers.try_submit pool (fun () -> failwith "boom"));
        assert (Workers.try_submit pool (fun () -> Atomic.set after true));
        Workers.shutdown pool;
        Alcotest.(check bool) "the pool survived the raise" true (Atomic.get after));
    Alcotest.test_case "sizes are validated and reported" `Quick (fun () ->
        (match Workers.create ~workers:0 ~capacity:4 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "workers:0 accepted");
        (match Workers.create ~workers:1 ~capacity:0 () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "capacity:0 accepted");
        let pool = Workers.create ~workers:3 ~capacity:5 () in
        Alcotest.(check int) "workers" 3 (Workers.workers pool);
        Alcotest.(check int) "capacity" 5 (Workers.capacity pool);
        Alcotest.(check int) "idle pool has nothing inflight" 0 (Workers.inflight pool);
        Workers.shutdown pool);
    Alcotest.test_case "one worker runs jobs in submission order" `Quick (fun () ->
        let pool = Workers.create ~workers:1 ~capacity:64 () in
        let order = ref [] in
        for i = 1 to 40 do
          assert (Workers.try_submit pool (fun () -> order := i :: !order))
        done;
        Workers.shutdown pool;
        Alcotest.(check (list int)) "FIFO" (List.init 40 (fun i -> i + 1)) (List.rev !order));
    Alcotest.test_case "submitters on several threads each get every job run once" `Quick
      (fun () ->
        let submitters = 4 and per = 25 in
        let pool = Workers.create ~workers:2 ~capacity:(submitters * per) () in
        let hits = Array.init (submitters * per) (fun _ -> Atomic.make 0) in
        let refused = Atomic.make 0 in
        let submit s =
          for i = 0 to per - 1 do
            let slot = hits.((s * per) + i) in
            if not (Workers.try_submit pool (fun () -> Atomic.incr slot)) then
              Atomic.incr refused
          done
        in
        let ts = List.init submitters (fun s -> Thread.create submit s) in
        List.iter Thread.join ts;
        Workers.shutdown pool;
        Alcotest.(check int) "nothing refused below capacity" 0 (Atomic.get refused);
        Array.iteri
          (fun i a -> Alcotest.(check int) (Fmt.str "job %d ran once" i) 1 (Atomic.get a))
          hits;
        let s = Workers.stats pool in
        Alcotest.(check int) "submitted" (submitters * per) s.submitted;
        Alcotest.(check int) "completed" (submitters * per) s.completed);
    Alcotest.test_case "shutdown is idempotent and later submits are counted refusals"
      `Quick (fun () ->
        let pool = Workers.create ~workers:2 ~capacity:8 () in
        let ran = Atomic.make 0 in
        for _ = 1 to 6 do
          assert (Workers.try_submit pool (fun () -> Atomic.incr ran))
        done;
        Workers.shutdown pool;
        Workers.shutdown pool;
        Alcotest.(check int) "queued jobs drained" 6 (Atomic.get ran);
        Alcotest.(check bool) "refused once" false (Workers.try_submit pool (fun () -> ()));
        Alcotest.(check bool) "refused twice" false (Workers.try_submit pool (fun () -> ()));
        let s = Workers.stats pool in
        Alcotest.(check int) "submitted" 6 s.submitted;
        Alcotest.(check int) "completed" 6 s.completed;
        Alcotest.(check int) "rejected" 2 s.rejected;
        Alcotest.(check int) "nothing inflight" 0 (Workers.inflight pool));
  ]

(* --- rate limiting ------------------------------------------------------------- *)

let rate_limit_tests =
  [
    Alcotest.test_case "burst spends down, refill is continuous" `Quick (fun () ->
        let rl = Rate_limit.create ~qps:2.0 () in
        (* burst defaults to max 1 qps = 2 tokens *)
        Alcotest.(check bool) "1st" true (Rate_limit.allow ~now:100.0 rl ~key:"a");
        Alcotest.(check bool) "2nd" true (Rate_limit.allow ~now:100.0 rl ~key:"a");
        Alcotest.(check bool) "3rd denied" false (Rate_limit.allow ~now:100.0 rl ~key:"a");
        (* half a second refills one token at 2 qps *)
        Alcotest.(check bool) "refilled" true (Rate_limit.allow ~now:100.5 rl ~key:"a");
        Alcotest.(check bool) "spent again" false (Rate_limit.allow ~now:100.5 rl ~key:"a");
        (* a long sleep caps at burst, not unbounded credit *)
        Alcotest.(check bool) "cap 1" true (Rate_limit.allow ~now:200.0 rl ~key:"a");
        Alcotest.(check bool) "cap 2" true (Rate_limit.allow ~now:200.0 rl ~key:"a");
        Alcotest.(check bool) "cap hit" false (Rate_limit.allow ~now:200.0 rl ~key:"a");
        let s = Rate_limit.stats rl in
        Alcotest.(check int) "allowed" 5 s.allowed;
        Alcotest.(check int) "denied" 3 s.denied);
    Alcotest.test_case "buckets are per key" `Quick (fun () ->
        let rl = Rate_limit.create ~burst:1.0 ~qps:1.0 () in
        Alcotest.(check bool) "a" true (Rate_limit.allow ~now:5.0 rl ~key:"a");
        Alcotest.(check bool) "a exhausted" false (Rate_limit.allow ~now:5.0 rl ~key:"a");
        Alcotest.(check bool) "b unaffected" true (Rate_limit.allow ~now:5.0 rl ~key:"b");
        Alcotest.(check int) "two keys" 2 (Rate_limit.stats rl).keys);
    Alcotest.test_case "invalid parameters are refused" `Quick (fun () ->
        List.iter
          (fun f ->
            match f () with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "expected Invalid_argument")
          [
            (fun () -> Rate_limit.create ~qps:0.0 ());
            (fun () -> Rate_limit.create ~qps:Float.nan ());
            (fun () -> Rate_limit.create ~burst:0.5 ~qps:1.0 ());
          ]);
  ]

(* --- reactor fixtures ----------------------------------------------------------- *)

let fixture =
  lazy
    (Flex_workload.Uber.generate ~sizes:Flex_workload.Uber.small_sizes
       (Rng.create ~seed:7 ()))

let make_server ?audit ?config ?ledger () =
  let db, metrics = Lazy.force fixture in
  let ledger = match ledger with Some l -> l | None -> Ledger.in_memory () in
  let server =
    Server.create ?audit ?config ~db ~metrics ~ledger ~rng:(Rng.create ~seed:11 ()) ()
  in
  (server, ledger)

let with_reactor ?config server f =
  let r = Reactor.listen ?config server in
  ignore (Reactor.start r);
  Fun.protect ~finally:(fun () -> Reactor.stop r) (fun () -> f r)

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_string fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let send fd req = send_string fd (Wire.request_to_line req ^ "\n")

(* blocking line reads over the raw fd; [None] on EOF *)
let reader fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec next () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i ->
      let s = Buffer.contents buf in
      let line = String.sub s 0 i in
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      Some line
    | None -> (
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        next ()
      | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> None)
  in
  next

let recv next =
  match next () with
  | None -> Alcotest.fail "unexpected EOF from the reactor"
  | Some line -> Result.get_ok (Wire.response_of_line line)

let eventually ?(timeout = 5.0) pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      loop ()
    end
  in
  loop ()

(* --- reactor: protocol behavior ------------------------------------------------- *)

let reactor_tests =
  [
    Alcotest.test_case "round trips, replay, and quit over the reactor" `Quick (fun () ->
        let server, ledger = make_server () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send fd (Wire.Hello { analyst = "alice"; epsilon = None; delta = None });
            (match recv next with
            | Wire.Budget_report b -> Alcotest.(check string) "analyst" "alice" b.analyst
            | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
            let sql = "SELECT COUNT(*) FROM trips" in
            (match
               send fd (Wire.Query { sql; epsilon = Some 0.5; delta = None; id = None });
               recv next
             with
            | Wire.Result res ->
              Alcotest.(check bool) "charged" false res.cached;
              Alcotest.(check (float 0.0)) "spent" 0.5 res.epsilon_spent
            | other -> Alcotest.failf "query: %s" (Wire.response_to_line other));
            (* the repeat replays from the release store: zero budget *)
            (match
               send fd (Wire.Query { sql; epsilon = Some 0.5; delta = None; id = None });
               recv next
             with
            | Wire.Result res -> Alcotest.(check bool) "replayed" true res.cached
            | other -> Alcotest.failf "replay: %s" (Wire.response_to_line other));
            Alcotest.(check bool) "one charge" true
              (match Ledger.spent ledger ~analyst:"alice" with
              | Some (e, _) -> e = 0.5
              | None -> false);
            send fd Wire.Quit;
            (match recv next with
            | Wire.Bye -> ()
            | other -> Alcotest.failf "quit: %s" (Wire.response_to_line other));
            (* quit closes the connection from the server side *)
            Alcotest.(check bool) "EOF after bye" true (next () = None);
            Unix.close fd;
            Alcotest.(check bool) "conn swept" true
              (eventually (fun () -> (Reactor.stats r).connections_open = 0))));
    Alcotest.test_case "pipelined requests are answered in order" `Quick (fun () ->
        let server, _ = make_server () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            (* one write carrying hello + 8 queries with distinct epsilons:
               responses must come back in submission order *)
            let epsilons = [ 0.5; 0.25; 0.125; 0.0625; 0.5; 0.03125; 0.25; 0.125 ] in
            let burst = Buffer.create 512 in
            Buffer.add_string burst
              (Wire.request_to_line
                 (Wire.Hello { analyst = "pipe"; epsilon = None; delta = None })
              ^ "\n");
            List.iter
              (fun e ->
                Buffer.add_string burst
                  (Wire.request_to_line
                     (Wire.Query
                        {
                          (* distinct epsilon per request defeats the release
                             store: every answer carries its own spend *)
                          sql = "SELECT COUNT(*) FROM trips";
                          epsilon = Some e;
                          delta = None;
                          id = None;
                        })
                  ^ "\n"))
              epsilons;
            send_string fd (Buffer.contents burst);
            (match recv next with
            | Wire.Budget_report _ -> ()
            | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
            List.iteri
              (fun i e ->
                match recv next with
                | Wire.Result res ->
                  if not res.cached then
                    Alcotest.(check (float 0.0))
                      (Printf.sprintf "answer %d matches request %d" i i)
                      e res.epsilon_spent
                  else
                    (* a replayed repeat spends nothing but still proves
                       ordering via its position *)
                    ()
                | other -> Alcotest.failf "query %d: %s" i (Wire.response_to_line other))
              epsilons;
            Unix.close fd));
    Alcotest.test_case "malformed and oversized frames get typed errors" `Quick (fun () ->
        let server, _ = make_server () in
        let config = { Reactor.default_config with max_line_bytes = 1024 } in
        with_reactor ~config server (fun r ->
            (* malformed JSON: an error response, connection stays usable *)
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send_string fd "this is not json\n";
            (match recv next with
            | Wire.Error_msg _ -> ()
            | other -> Alcotest.failf "garbage: %s" (Wire.response_to_line other));
            send fd Wire.Stats;
            (match recv next with
            | Wire.Stats_report _ -> ()
            | other -> Alcotest.failf "stats after garbage: %s" (Wire.response_to_line other));
            Unix.close fd;
            (* an over-long frame: error response, then hangup *)
            let fd2 = connect (Reactor.port r) in
            let next2 = reader fd2 in
            send_string fd2 (String.make 4096 'x');
            (match recv next2 with
            | Wire.Error_msg m ->
              Alcotest.(check bool) "mentions the cap" true
                (Astring.String.is_infix ~affix:"exceeds" m)
            | other -> Alcotest.failf "oversize: %s" (Wire.response_to_line other));
            Alcotest.(check bool) "closed after oversize" true (next2 () = None);
            Unix.close fd2));
    Alcotest.test_case "connection cap refuses with a typed overload reply" `Quick
      (fun () ->
        let server, _ = make_server () in
        let config = { Reactor.default_config with max_connections = 2 } in
        with_reactor ~config server (fun r ->
            let fd1 = connect (Reactor.port r) in
            let fd2 = connect (Reactor.port r) in
            (* make sure both are accepted before the third knocks *)
            let n1 = reader fd1 and n2 = reader fd2 in
            send fd1 Wire.Stats;
            ignore (recv n1);
            send fd2 Wire.Stats;
            ignore (recv n2);
            let fd3 = connect (Reactor.port r) in
            let n3 = reader fd3 in
            (match recv n3 with
            | Wire.Rejected rej ->
              Alcotest.(check string) "bucket" "overload" rej.bucket
            | other -> Alcotest.failf "cap: %s" (Wire.response_to_line other));
            Alcotest.(check bool) "refused conn closed" true (n3 () = None);
            Alcotest.(check bool) "refusal counted" true
              ((Reactor.stats r).conn_refused_total >= 1);
            List.iter Unix.close [ fd1; fd2; fd3 ]));
    Alcotest.test_case "idle sweep reaps half-open and slowloris connections" `Quick
      (fun () ->
        let server, _ = make_server () in
        let config = { Reactor.default_config with idle_timeout = 0.3 } in
        with_reactor ~config server (fun r ->
            (* half-open: connects, never sends a byte *)
            let silent = connect (Reactor.port r) in
            (* slowloris: sends half a frame and stalls *)
            let slow = connect (Reactor.port r) in
            send_string slow "{\"op\":\"sta";
            (* a live connection keeps itself alive across sweeps *)
            let live = connect (Reactor.port r) in
            let nl = reader live in
            Alcotest.(check bool) "three open" true
              (eventually (fun () -> (Reactor.stats r).connections_open = 3));
            for _ = 1 to 6 do
              Thread.delay 0.1;
              send live Wire.Stats;
              ignore (recv nl)
            done;
            Alcotest.(check bool) "idle pair reaped" true
              (eventually (fun () ->
                   let s = Reactor.stats r in
                   s.idle_closed_total >= 2 && s.connections_open = 1));
            (* the survivor still works *)
            send live Wire.Stats;
            (match recv nl with
            | Wire.Stats_report _ -> ()
            | other -> Alcotest.failf "live conn: %s" (Wire.response_to_line other));
            List.iter Unix.close [ silent; slow; live ]));
    Alcotest.test_case "mid-frame disconnect is cleaned up, partial frame dropped"
      `Quick (fun () ->
        let buf = Buffer.create 256 in
        let server, _ = make_server ~audit:(Audit.to_buffer buf) () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            send_string fd "{\"op\":\"query\",\"sql\":\"SELECT COUNT(*) FR";
            Unix.close fd;
            Alcotest.(check bool) "conn closed" true
              (eventually (fun () -> (Reactor.stats r).connections_open = 0));
            (* the torn fragment was never parsed or served *)
            Alcotest.(check string) "no audit event" "" (Buffer.contents buf)));
    Alcotest.test_case "stopped reactor refuses new connections" `Quick (fun () ->
        let server, _ = make_server () in
        let r = Reactor.listen server in
        ignore (Reactor.start r);
        let fd = connect (Reactor.port r) in
        let next = reader fd in
        send fd Wire.Stats;
        (match recv next with
        | Wire.Stats_report _ -> ()
        | other -> Alcotest.failf "stats: %s" (Wire.response_to_line other));
        Reactor.stop r;
        Reactor.stop r (* idempotent *);
        Unix.close fd;
        match connect (Reactor.port r) with
        | exception Unix.Unix_error (ECONNREFUSED, _, _) -> ()
        | fd2 ->
          (* the listener backlog may absorb the SYN; the fd must then be dead *)
          let n2 = reader fd2 in
          send fd2 Wire.Stats;
          Alcotest.(check bool) "no service after stop" true (n2 () = None);
          Unix.close fd2);
    Alcotest.test_case "reactor registers connection metrics" `Quick (fun () ->
        let server, _ = make_server () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send fd Wire.Stats;
            ignore (recv next);
            let reg = Option.get (Server.registry server) in
            let families = Registry.snapshot reg in
            let value name =
              List.find_opt (fun (f : Registry.family) -> f.name = name) families
              |> Option.map (fun (f : Registry.family) ->
                     List.fold_left
                       (fun acc (s : Registry.sample) ->
                         match s.value with Registry.Sample v -> acc +. v | _ -> acc)
                       0.0 f.samples)
            in
            Alcotest.(check (option (float 0.0))) "one connection open" (Some 1.0)
              (value "flex_connections_open");
            Alcotest.(check bool) "inflight gauge present" true
              (value "flex_requests_inflight" <> None);
            Alcotest.(check (option (float 0.0))) "no sheds yet" (Some 0.0)
              (value "flex_overload_rejections_total");
            Unix.close fd));
  ]

(* --- admission control under load ----------------------------------------------- *)

let overload_tests =
  [
    Alcotest.test_case "rate limit rejects with its own bucket and charges nothing"
      `Quick (fun () ->
        let buf = Buffer.create 512 in
        let config =
          { Server.default_config with rate_limit_qps = Some 2.0; release_cache = false }
        in
        let server, ledger = make_server ~audit:(Audit.to_buffer buf) ~config () in
        let session = Server.session server in
        (match
           Server.handle server session
             (Wire.Hello { analyst = "hasty"; epsilon = None; delta = None })
         with
        | Wire.Budget_report _ -> ()
        | other -> Alcotest.failf "hello: %s" (Wire.response_to_line other));
        (* burst is 2 tokens; a tight loop of 6 queries cannot refill more
           than a rounding error's worth, so at least 3 must be limited *)
        let limited = ref 0 and granted = ref 0 in
        for _ = 1 to 6 do
          match
            Server.handle server session
              (Wire.Query
                 { sql = "SELECT COUNT(*) FROM trips"; epsilon = Some 0.25; delta = None; id = None })
          with
          | Wire.Result _ -> incr granted
          | Wire.Rejected rej when rej.bucket = "rate_limit" -> incr limited
          | other -> Alcotest.failf "query: %s" (Wire.response_to_line other)
        done;
        Alcotest.(check bool) "most were limited" true (!limited >= 3);
        let c = Server.counters server in
        Alcotest.(check int) "counter agrees" !limited c.rate_limited;
        Alcotest.(check bool) "limited requests charged nothing" true
          (match Ledger.spent ledger ~analyst:"hasty" with
          | Some (e, _) -> e = 0.25 *. float_of_int !granted
          | None -> false);
        (* every limited request is audit-logged with the rate_limit bucket *)
        let events =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> l <> "")
          |> List.map Json.of_string_exn
        in
        let rate_limit_events =
          List.filter
            (fun e ->
              Option.bind (Json.mem "bucket" e) Json.to_str = Some "rate_limit")
            events
        in
        Alcotest.(check int) "audited" !limited (List.length rate_limit_events));
    Alcotest.test_case "log_overload audits the shed line, truncated" `Quick (fun () ->
        let buf = Buffer.create 256 in
        let server, ledger = make_server ~audit:(Audit.to_buffer buf) () in
        Server.log_overload server ~analyst:(Some "alice") ~line:(String.make 300 'q');
        Server.log_overload server ~analyst:None ~line:"short";
        let events =
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.filter (fun l -> l <> "")
          |> List.map Json.of_string_exn
        in
        Alcotest.(check int) "two events" 2 (List.length events);
        let first = List.nth events 0 in
        Alcotest.(check (option string)) "outcome" (Some "rejected")
          (Option.bind (Json.mem "outcome" first) Json.to_str);
        Alcotest.(check (option string)) "bucket" (Some "overload")
          (Option.bind (Json.mem "bucket" first) Json.to_str);
        Alcotest.(check bool) "line truncated" true
          (match Option.bind (Json.mem "sql" first) Json.to_str with
          | Some s -> String.length s = 203 (* 200 + "..." *)
          | None -> false);
        Alcotest.(check int) "rejections counted" 2 (Server.counters server).rejected;
        Alcotest.(check bool) "nothing charged" true (Ledger.analysts ledger = []));
    Alcotest.test_case
      "forced overload sheds with a typed reply and conserves every analyst's budget"
      `Slow (fun () ->
        (* one worker, a two-slot queue, and eight closed-loop analysts: the
           flood must shed. Epsilon 0.25 and a budget of 1.0 are powers of
           two, so conservation below is exact float arithmetic, not
           approximate: any double charge or unbooked grant breaks it. *)
        let n_conns = 8 and n_requests = 12 in
        let budget = 1.0 in
        let config =
          {
            Server.default_config with
            default_epsilon = 0.25;
            analyst_epsilon = budget;
            release_cache = false;
          }
        in
        let rconfig = { Reactor.default_config with workers = 1; max_pending = 2 } in
        let rec attempt tries =
          let ledger = Ledger.in_memory () in
          let server, _ = make_server ~config ~ledger () in
          let outcome, shed =
            with_reactor ~config:rconfig server (fun r ->
                let o =
                  Load_driver.run ~port:(Reactor.port r) ~connections:n_conns
                    ~requests:n_requests
                    ~hello:(fun i -> Some (Printf.sprintf "ov-%d" i))
                    ~make_request:(fun ~conn:_ ~seq:_ ->
                      Wire.Query
                        {
                          sql =
                            "SELECT t.status, COUNT(*) FROM trips t GROUP BY t.status";
                          epsilon = None;
                          delta = None;
                          id = None;
                        })
                    ()
                in
                (o, (Reactor.stats r).shed_total))
          in
          Alcotest.(check int) "every request answered" outcome.sent
            (outcome.ok + outcome.rejected + outcome.refused + outcome.errors);
          (* [errors] is not zero here: a shed Hello leaves its connection
             unauthenticated, so its later queries draw "no analyst" errors —
             the expected face of overload, never a hung connection *)
          let counters = Server.counters server in
          let spends =
            List.map
              (fun a ->
                match Ledger.spent ledger ~analyst:a with
                | Some (e, _) -> e
                | None -> 0.0)
              (Ledger.analysts ledger)
          in
          let total = List.fold_left ( +. ) 0.0 spends in
          Alcotest.(check bool) "ledger total = 0.25 x grants, exactly" true
            (total = 0.25 *. float_of_int counters.granted);
          Alcotest.(check bool) "no analyst over budget" true
            (List.for_all (fun e -> e <= budget) spends);
          if outcome.overload > 0 then begin
            Alcotest.(check bool) "reactor shed at least the rejections seen" true
              (shed >= outcome.overload)
          end
          else if tries > 1 then attempt (tries - 1)
          else
            Alcotest.fail
              "the undersized queue never shed in five floods — overload path untested"
        in
        attempt 5);
    Alcotest.test_case "load driver reports a sane closed-loop outcome" `Quick (fun () ->
        let server, _ = make_server () in
        with_reactor server (fun r ->
            let outcome =
              Load_driver.run ~port:(Reactor.port r) ~connections:4 ~requests:6
                ~make_request:(fun ~conn ~seq:_ ->
                  Wire.Query
                    {
                      sql = "SELECT COUNT(*) FROM trips";
                      (* distinct epsilon per connection: one charge each,
                         then replays *)
                      epsilon = Some (Float.ldexp 1.0 (-1 - (conn mod 4)));
                      delta = None;
                      id = None;
                    })
                ()
            in
            (* 4 hellos + 24 queries *)
            Alcotest.(check int) "sent" 28 outcome.sent;
            Alcotest.(check int) "all ok" 28 outcome.ok;
            Alcotest.(check int) "errors" 0 outcome.errors;
            Alcotest.(check int) "replays counted" 20 outcome.cached;
            Alcotest.(check int) "one latency per round trip" 28
              (Array.length outcome.latencies);
            let sorted = Array.copy outcome.latencies in
            Array.sort compare sorted;
            Alcotest.(check bool) "latencies sorted" true (sorted = outcome.latencies);
            Alcotest.(check bool) "percentiles ordered" true
              (Load_driver.percentile outcome 0.5 <= Load_driver.percentile outcome 0.99);
            Alcotest.(check bool) "positive qps" true (Load_driver.qps outcome > 0.0)));
  ]

(* --- reactor: observability ------------------------------------------------------ *)

let observability_tests =
  [
    Alcotest.test_case "id echoes and the span tree completes over the reactor" `Quick
      (fun () ->
        let buf = Buffer.create 1024 in
        let server, _ = make_server ~audit:(Audit.to_buffer buf) () in
        with_reactor server (fun r ->
            let fd = connect (Reactor.port r) in
            let next = reader fd in
            send fd (Wire.Hello { analyst = "alice"; epsilon = None; delta = None });
            ignore (recv next);
            send fd
              (Wire.Query
                 {
                   sql = "SELECT COUNT(*) FROM trips";
                   epsilon = Some 0.5;
                   delta = None;
                   id = Some "corr-42";
                 });
            (match next () with
            | None -> Alcotest.fail "unexpected EOF"
            | Some line ->
              Alcotest.(check (option string)) "response echoes the id" (Some "corr-42")
                (Wire.response_id_of_line line);
              (match Wire.response_of_line line with
              | Ok (Wire.Result _) -> ()
              | Ok other -> Alcotest.failf "query: %s" (Wire.response_to_line other)
              | Error e -> Alcotest.failf "decode: %s" e));
            (* a request without an id gets a response without one — old
               clients never see the field *)
            send fd
              (Wire.Query
                 {
                   sql = "SELECT COUNT(*) FROM trips";
                   epsilon = Some 0.5;
                   delta = None;
                   id = None;
                 });
            (match next () with
            | None -> Alcotest.fail "unexpected EOF"
            | Some line ->
              Alcotest.(check (option string)) "no unsolicited id" None
                (Wire.response_id_of_line line));
            Unix.close fd;
            (* the audit line written on the worker thread has the complete
               stage breakdown: the span tree survived the reactor's
               parse-on-event-loop / execute-on-worker split *)
            Alcotest.(check bool) "audit flushed" true
              (eventually (fun () -> Buffer.length buf > 0));
            (match
               Json.of_string (List.hd (String.split_on_char '\n' (Buffer.contents buf)))
             with
            | Error e -> Alcotest.failf "audit line does not parse: %s" e
            | Ok j ->
              Alcotest.(check (option string)) "audit joins on the id" (Some "corr-42")
                (Option.bind (Json.mem "id" j) Json.to_str);
              List.iter
                (fun field ->
                  match Option.bind (Json.mem field j) Json.to_num with
                  | Some v when v > 0.0 -> ()
                  | Some v -> Alcotest.failf "%s not positive over the reactor: %g" field v
                  | None -> Alcotest.failf "missing %s" field)
                [ "parse_ns"; "execution_ns"; "perturbation_ns"; "total_ns" ]);
            (* and the flight recorder holds the same request with its trace *)
            match Server.flights server with
            | None -> Alcotest.fail "flight recorder expected"
            | Some fl -> (
              match Flex_obs.Flight.snapshot fl with
              | [] -> Alcotest.fail "no flight recorded"
              | records -> (
                match
                  List.find_opt
                    (fun r -> r.Flex_obs.Flight.id = Some "corr-42")
                    records
                with
                | None -> Alcotest.fail "flight with the request id not found"
                | Some r -> (
                  match r.trace with
                  | None -> Alcotest.fail "flight trace missing"
                  | Some v ->
                    let names =
                      List.map (fun (c : Flex_obs.Span.view) -> c.name) v.children
                    in
                    List.iter
                      (fun n ->
                        if not (List.mem n names) then
                          Alcotest.failf "span %S missing from the reactor trace: [%s]" n
                            (String.concat "; " names))
                      [ "parse"; "execute"; "perturb" ])))));
  ]

let suites =
  [
    ("reactor-workers", workers_tests);
    ("reactor-rate-limit", rate_limit_tests);
    ("reactor-protocol", reactor_tests);
    ("reactor-observability", observability_tests);
    ("reactor-overload", overload_tests);
  ]
