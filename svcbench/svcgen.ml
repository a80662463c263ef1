(* svcgen: the OCaml half of the service benchmark (svcbench/run.py).

     svcgen gen WORKLOAD SEED COUNT OUT
       write the workload's data (CSV + metrics), prior state (ledger and
       release journals) and request streams under OUT, all derived from
       SEED; COUNT is the number of distinct requests per connection for
       the cold workloads (the dashboard cycles a fixed panel list).

     svcgen probe DIR ANALYST
       time, in process, the public functions the server does not span:
       Wire.request_of_line over DIR/requests.txt, Wire.response_to_line
       over DIR/responses.txt, Ledger.open_ and Ledger.spend on a copy of
       DIR/ledger0.journal. Prints one JSON object.

   The generator uses the repository's own workload generators (Uber,
   Qgen, Tpch) so the inputs are the schemas the paper evaluates; every
   generated query is parsed, factored and analysed here so a stream never
   holds a request the server would reject. *)

module Rng = Flex_dp.Rng
module Ledger = Flex_dp.Ledger
module Value = Flex_engine.Value
module Table = Flex_engine.Table
module Database = Flex_engine.Database
module Metrics = Flex_engine.Metrics
module Csv = Flex_engine.Csv
module Flex = Flex_core.Flex
module Release_store = Flex_service.Release_store
module Wire = Flex_service.Wire
module Json = Wire.Json

(* Budgets are powers of two and every charge is a power of two times a
   small column count, so ledger sums are exact in binary floating point
   and epsilon conservation can be checked with [=]. *)
let analyst_epsilon = ldexp 1.0 20
let analyst_delta = ldexp 1.0 (-4)
let query_delta = ldexp 1.0 (-30)

(* analyst_cold's stated prior state: grants per analyst already in the
   ledger journal. Per-grant cost grows with an analyst's history, so each
   connection rotates over a pool of [pool_size] analysts, all at this
   depth, switching every [rotate_every] requests: a window then adds only
   a small share of grants to any one analyst, and a faster program does
   not push its analysts much deeper than a slower one. Both cold workloads
   also start with archived releases filling the store to its default
   capacity (Release_store.create's 4096), so each miss evicts one entry
   and the store's memory does not grow with the number of requests a run
   serves. *)
let history_depth = 2048
let pool_size = 16
let rotate_every = 8
let history_epsilon = ldexp 1.0 (-10)
let store_capacity = 4096
let archive_analysts = 8

let tpch_scale = 0.002

(* analyst_cold's data: the Uber schema at a quarter of the default sizes, so
   execution is a smaller share of each request than on tpch_join (the
   engine-bound workload) and the write path (analysis, smoothing, ledger,
   release store) shows. *)
let cold_sizes =
  { Flex_workload.Uber.cities = 20; drivers = 375; users = 625; trips = 5_000; user_tags = 225 }

(* --- files ---------------------------------------------------------------- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let mkdir_p path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* Floats always carry a '.' or an exponent so the CSV sniffer reads them
   back as floats, keeping every column's type what the generator made. *)
let field_of_value = function
  | Value.Null -> ""
  | Value.Bool b -> string_of_bool b
  | Value.Int i -> string_of_int i
  | Value.Float f ->
    let s = Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
    else s ^ ".0"
  | Value.String s -> Csv.escape_field s

let write_csv dir table =
  let buf = Buffer.create 65536 in
  let header = Array.to_list (Table.columns table) in
  Buffer.add_string buf (String.concat "," (List.map Csv.escape_field header));
  Buffer.add_char buf '\n';
  Array.iter
    (fun row ->
      Buffer.add_string buf
        (String.concat "," (Array.to_list (Array.map field_of_value row)));
      Buffer.add_char buf '\n')
    (Table.rows table);
  write_file (Filename.concat dir (Table.name table ^ ".csv")) (Buffer.contents buf)

(* --- requests --------------------------------------------------------------- *)

type request = { sql : string; epsilon : float }

let request_json r =
  Json.to_string
    (Json.Obj
       [
         ("sql", Json.str r.sql);
         ("epsilon", Json.num r.epsilon);
         ("delta", Json.num query_delta);
       ])

let write_stream path reqs =
  write_file path (String.concat "" (List.map (fun r -> request_json r ^ "\n") reqs))

(* The release-store key the server derives for a query (Server.handle_query):
   the factored core's text, else the whole query's canonical form. *)
let core_key ast =
  match Flex_sql.Factor.factor ast with
  | Some f -> (f.core_sql, f.core, Some f)
  | None -> (Flex_sql.Canon.cache_key ast, ast, None)

let admissible ~metrics ~epsilon exec_ast =
  let options = Flex.options ~epsilon ~delta:query_delta () in
  match Flex.analyze_ast ~options ~metrics exec_ast with Ok _ -> true | Error _ -> false

(* Draw [count] requests per connection whose cores are pairwise distinct
   across all connections and admissible, so every request misses the
   release store and the analysis cache and is granted. [draw] returns a
   query with its shape class. Which class each slot holds is fixed by
   running the same selection under a fixed seed, so every workload seed
   sends the same mix of shapes in the same order (a shape with few
   distinct literals runs out at the same slot) and the seed varies only
   literals and data: run-to-run differences come from the program, not
   from the mix. *)
let distinct_streams ~metrics ~connections ~count ~draw rng =
  let slots = connections * count in
  let select rng ~want =
    let seen = Hashtbl.create slots in
    let attempts = ref 0 in
    Array.init slots (fun slot ->
        let rec go () =
          incr attempts;
          if !attempts > 200 * slots then
            failwith "svcgen: the generator cannot produce enough distinct admissible queries";
          let cls, sql, epsilon = draw rng in
          if not (want slot cls) then go ()
          else
            match Flex_sql.Parser.parse sql with
            | Error _ -> go ()
            | Ok ast ->
              let key, exec_ast, _ = core_key ast in
              if Hashtbl.mem seen key || not (admissible ~metrics ~epsilon exec_ast) then go ()
              else begin
                Hashtbl.add seen key ();
                (cls, { sql; epsilon })
              end
        in
        go ())
  in
  let schedule = Array.map fst (select (Rng.create ~seed:0x5eed ()) ~want:(fun _ _ -> true)) in
  let picked = select rng ~want:(fun slot cls -> cls = schedule.(slot)) in
  Array.init connections (fun c ->
      List.init count (fun k -> snd picked.((k * connections) + c)))

let pow2_epsilon rng = ldexp 1.0 (-(7 + Rng.int rng 3))

(* --- dashboard_replay ---------------------------------------------------- *)

(* A fixed dashboard: a few releasable cores over the Uber schema, each
   shown through several post-processing suffixes (identity, HAVING,
   ORDER BY ... LIMIT, projection arithmetic). Literals come from the seed. *)
let dashboard_panels rng ~n_cities =
  let d1 = Flex_workload.Datagen.day_of_2016 (Rng.int rng 180) in
  let fare = 10 + Rng.int rng 40 in
  let city = 1 + Rng.int rng n_cities in
  let vehicle = Rng.choose rng [| "car"; "suv"; "motorbike" |] in
  let scale = 2 + Rng.int rng 9 in
  let by_status =
    Fmt.str "FROM trips t WHERE t.requested_at >= '%s' GROUP BY t.status" d1
  in
  let by_city = Fmt.str "FROM trips t WHERE t.fare > %d GROUP BY t.city_id" fare in
  let city_count =
    Fmt.str "FROM trips t WHERE t.status = 'completed' AND t.city_id = %d" city
  in
  let by_driver_status =
    Fmt.str
      "FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE d.vehicle = '%s' GROUP \
       BY d.status"
      vehicle
  in
  let by_city_vehicle_status =
    Fmt.str
      "FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE t.requested_at >= '%s' \
       GROUP BY t.city_id, d.vehicle, t.status"
      d1
  in
  (* Suffix constants that decide how many rows a panel shows are fixed, so
     every seed's dashboard has the same panel sizes (the answer-size mix
     sets the replay cost); the seed varies data, filters and arithmetic.
     The last panel, a city x vehicle x status table of several hundred
     rows, is one request in 13 and costs several times any other, so the
     dashboard's p99 round trip is the cost of replaying that panel rather
     than the host's scheduling hiccups, which set the tail of the small
     panels. *)
  [
    Fmt.str "SELECT t.status AS status, COUNT(*) AS n %s" by_status;
    Fmt.str "SELECT t.status AS status, COUNT(*) AS n %s ORDER BY n DESC LIMIT 2" by_status;
    Fmt.str "SELECT t.status AS status, COUNT(*) * %d AS n %s" scale by_status;
    Fmt.str "SELECT t.city_id AS city, COUNT(*) AS n %s" by_city;
    Fmt.str "SELECT t.city_id AS city, COUNT(*) AS n %s ORDER BY n DESC LIMIT 5" by_city;
    Fmt.str "SELECT t.city_id AS city, COUNT(*) AS n %s ORDER BY city LIMIT 20" by_city;
    Fmt.str "SELECT t.city_id AS city, COUNT(*) / %d AS n %s ORDER BY n DESC" scale by_city;
    Fmt.str "SELECT COUNT(*) AS n %s" city_count;
    Fmt.str "SELECT COUNT(*) * %d + 1 AS n %s" scale city_count;
    Fmt.str "SELECT d.status AS status, COUNT(*) AS n %s" by_driver_status;
    Fmt.str "SELECT d.status AS status, COUNT(*) AS n %s ORDER BY n DESC LIMIT 1"
      by_driver_status;
    Fmt.str "SELECT d.status AS status, COUNT(*) * %d AS n %s HAVING COUNT(*) > 0" scale
      by_driver_status;
    Fmt.str
      "SELECT t.city_id AS city, d.vehicle AS vehicle, t.status AS status, COUNT(*) AS n %s"
      by_city_vehicle_status;
  ]

(* --- analyst_cold ----------------------------------------------------------- *)

let qgen_draw ~(sizes : Flex_workload.Uber.sizes) rng =
  match
    Flex_workload.Qgen.generate rng ~count:1 ~n_cities:sizes.cities
      ~n_drivers:sizes.drivers ~n_users:sizes.users
  with
  | [ q ] ->
    let cls =
      Fmt.str "%s/%s/%b/%b"
        (Flex_workload.Qgen.category_name q.category)
        (match q.relationship with
        | Some r -> Flex_workload.Qgen.relationship_name r
        | None -> "-")
        q.has_join q.is_histogram
    in
    (cls, q.sql, pow2_epsilon rng)
  | _ -> assert false

(* --- tpch_join --------------------------------------------------------------- *)

let nations =
  [|
    "ALGERIA"; "ARGENTINA"; "BRAZIL"; "CANADA"; "EGYPT"; "ETHIOPIA"; "FRANCE";
    "GERMANY"; "INDIA"; "INDONESIA"; "IRAN"; "IRAQ"; "JAPAN"; "JORDAN"; "KENYA";
    "MOROCCO"; "MOZAMBIQUE"; "PERU"; "CHINA"; "ROMANIA"; "SAUDI ARABIA"; "VIETNAM";
    "RUSSIA"; "UNITED KINGDOM"; "UNITED STATES";
  |]

let priorities = [| "1-URGENT"; "2-HIGH"; "3-MEDIUM"; "4-NOT SPECIFIED"; "5-LOW" |]

(* Table 3's join queries (Tpch.queries Q4, Q13, Q16, Q21) with their
   literals redrawn per request. Date windows have the specification's
   fixed widths, so the literals change each request's core but not its
   cost class. *)
let tpch_draw rng =
  let year = 1993 + Rng.int rng 5 and month = 1 + Rng.int rng 12 in
  let day = 1 + Rng.int rng 28 in
  let shift k =
    let m = month - 1 + k in
    Fmt.str "%d-%02d-%02d" (year + (m / 12)) ((m mod 12) + 1) day
  in
  let template = Rng.int rng 4 in
  let sql =
    match template with
    | 0 ->
      Fmt.str
        "SELECT o.o_orderpriority, COUNT(DISTINCT o.o_orderkey) AS order_count FROM \
         orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey WHERE o.o_orderdate >= \
         '%s' AND o.o_orderdate < '%s' AND l.l_commitdate < l.l_receiptdate GROUP BY \
         o.o_orderpriority"
        (shift 0) (shift 3)
    | 1 ->
      Fmt.str
        "SELECT c_count, COUNT(*) AS custdist FROM (SELECT c.c_custkey AS ck, \
         COUNT(o.o_orderkey) AS c_count FROM customer c LEFT JOIN orders o ON \
         c.c_custkey = o.o_custkey WHERE c.c_nationkey <> %d AND c.c_acctbal > %d GROUP \
         BY c.c_custkey) c_orders GROUP BY c_count"
        (Rng.int rng 25) (Rng.int rng 1000 - 999)
    | 2 ->
      let sizes =
        List.sort_uniq compare (List.init 8 (fun _ -> 1 + Rng.int rng 50))
      in
      Fmt.str
        "SELECT p.p_brand, p.p_type, p.p_size, COUNT(DISTINCT ps.ps_suppkey) AS \
         supplier_cnt FROM partsupp ps JOIN part p ON p.p_partkey = ps.ps_partkey WHERE \
         p.p_brand <> 'Brand#%d%d' AND p.p_size IN (%s) GROUP BY p.p_brand, p.p_type, \
         p.p_size"
        (1 + Rng.int rng 5) (1 + Rng.int rng 5)
        (String.concat ", " (List.map string_of_int sizes))
    | _ ->
      Fmt.str
        "SELECT s.s_name, COUNT(*) AS numwait FROM supplier s JOIN lineitem l1 ON \
         s.s_suppkey = l1.l_suppkey JOIN orders o ON o.o_orderkey = l1.l_orderkey JOIN \
         nation n ON s.s_nationkey = n.n_nationkey WHERE o.o_orderstatus = 'F' AND \
         l1.l_receiptdate > l1.l_commitdate AND o.o_orderpriority = '%s' AND n.n_name = \
         '%s' AND o.o_orderdate >= '%s' AND o.o_orderdate < '%s' GROUP BY s.s_name"
        (Rng.choose rng priorities) (Rng.choose rng nations) (shift 0) (shift 12)
  in
  (string_of_int template, sql, pow2_epsilon rng)

(* --- gen ------------------------------------------------------------------- *)

type plan = {
  pools : string list list;  (** one pool of analysts per connection *)
  rotate : int;  (** requests per analyst before the connection switches; 0 = never *)
  cycle : bool;  (** cycle the stream (dashboard) or consume it once *)
  expect : string;  (** "store" (zero-epsilon replay/derivation) or "granted" *)
  prime : (string * string) option;  (** priming analyst and its stream file *)
  depth : int;
  prefill : int;
}

let plan_json p =
  Json.to_string
    (Json.Obj
       [
         ("pools", Json.List (List.map (fun a -> Json.List (List.map Json.str a)) p.pools));
         ("rotate", Json.int p.rotate);
         ("cycle", Json.bool p.cycle);
         ("expect", Json.str p.expect);
         ( "prime",
           match p.prime with
           | None -> Json.Null
           | Some (a, f) -> Json.Obj [ ("analyst", Json.str a); ("stream", Json.str f) ] );
         ("history_depth", Json.int p.depth);
         ("release_prefill", Json.int p.prefill);
         ("analyst_epsilon", Json.num analyst_epsilon);
         ("analyst_delta", Json.num analyst_delta);
       ])

let write_data out (db, metrics) =
  let data = Filename.concat out "data" in
  mkdir_p data;
  List.iter (fun n -> write_csv data (Database.find db n)) (Database.table_names db);
  Metrics.save metrics (Filename.concat out "metrics.txt");
  (* the server reads these files back; key the state on what it will see *)
  Metrics.fingerprint (Metrics.load (Filename.concat out "metrics.txt"))

let write_history state ~analysts =
  let ledger = Ledger.open_ (Filename.concat state "ledger.journal") in
  List.iter
    (fun analyst ->
      (match Ledger.register ledger ~analyst ~epsilon:analyst_epsilon ~delta:analyst_delta with
      | Ok () -> ()
      | Error e -> failwith (Ledger.error_to_string e));
      for _ = 1 to history_depth do
        match
          Ledger.spend ledger ~analyst ~epsilon:history_epsilon ~delta:query_delta
            ~label:"history"
        with
        | Ok _ -> ()
        | Error e -> failwith (Ledger.error_to_string e)
      done)
    analysts;
  Ledger.close ledger

(* Archived releases of [rows] rows each, about the size of the workload's
   own releases, owned by analysts the run never uses. *)
let write_archive state ~fingerprint ~rows rng =
  let store =
    Release_store.open_ ~capacity:store_capacity ~fingerprint
      (Filename.concat state "releases.journal")
  in
  for i = 0 to store_capacity - 1 do
    let epsilon = ldexp 1.0 (-8) in
    let key =
      Release_store.key
        ~sql_canonical:(Printf.sprintf "archived release %d" i)
        ~fingerprint ~flags:"archive" ~epsilon ~delta:query_delta
    in
    ignore
      (Release_store.record store
         {
           Release_store.key;
           fingerprint;
           analyst = Printf.sprintf "archive-%d" (i mod archive_analysts);
           epsilon;
           delta = query_delta;
           epsilon_spent = epsilon;
           delta_spent = query_delta;
           columns = [ "key"; "n" ];
           rows =
             List.init rows (fun r ->
                 [| Value.String (Printf.sprintf "group %d" r); Value.Float (Rng.float rng 1000.0) |]);
           bins_enumerated = false;
           noise_scales = [ ("n", 1.0 /. epsilon) ];
         })
  done;
  Release_store.close store

let gen workload seed count out =
  mkdir_p out;
  let state = Filename.concat out "state" in
  mkdir_p state;
  let rng = Rng.create ~seed () in
  let data_rng = Rng.split rng and stream_rng = Rng.split rng and state_rng = Rng.split rng in
  let sizes = Flex_workload.Uber.default_sizes in
  let plan =
    match workload with
    | "dashboard_replay" ->
      ignore (write_data out (Flex_workload.Uber.generate ~sizes data_rng));
      let metrics = Metrics.load (Filename.concat out "metrics.txt") in
      let epsilon = pow2_epsilon stream_rng in
      let panels =
        List.map
          (fun sql -> { sql; epsilon })
          (dashboard_panels stream_rng ~n_cities:sizes.cities)
      in
      List.iter
        (fun r ->
          match Flex_sql.Parser.parse r.sql with
          | Error e -> failwith ("svcgen: dashboard panel does not parse: " ^ e)
          | Ok ast -> (
            match core_key ast with
            | _, exec_ast, Some _ when admissible ~metrics ~epsilon exec_ast -> ()
            | _ -> failwith ("svcgen: dashboard panel is not a releasable core: " ^ r.sql)))
        panels;
      write_stream (Filename.concat out "prime.jsonl") panels;
      write_stream (Filename.concat out "stream0.jsonl") panels;
      {
        pools = [ [ "viewer" ] ];
        rotate = 0;
        cycle = true;
        expect = "store";
        prime = Some ("publisher", "prime.jsonl");
        depth = 0;
        prefill = 0;
      }
    | "analyst_cold" ->
      let sizes = cold_sizes in
      let fingerprint = write_data out (Flex_workload.Uber.generate ~sizes data_rng) in
      let metrics = Metrics.load (Filename.concat out "metrics.txt") in
      let pools =
        List.map
          (fun c -> List.init pool_size (Printf.sprintf "cold-%c%02d" c))
          [ 'a'; 'b' ]
      in
      write_history state ~analysts:(List.concat pools);
      write_archive state ~fingerprint ~rows:2 state_rng;
      let streams =
        distinct_streams ~metrics ~connections:2 ~count ~draw:(qgen_draw ~sizes) stream_rng
      in
      Array.iteri
        (fun i s -> write_stream (Filename.concat out (Printf.sprintf "stream%d.jsonl" i)) s)
        streams;
      {
        pools;
        rotate = rotate_every;
        cycle = false;
        expect = "granted";
        prime = None;
        depth = history_depth;
        prefill = store_capacity;
      }
    | "tpch_join" ->
      let fingerprint = write_data out (Flex_workload.Tpch.generate ~scale:tpch_scale data_rng) in
      let metrics = Metrics.load (Filename.concat out "metrics.txt") in
      write_archive state ~fingerprint ~rows:30 state_rng;
      let streams = distinct_streams ~metrics ~connections:2 ~count ~draw:tpch_draw stream_rng in
      Array.iteri
        (fun i s -> write_stream (Filename.concat out (Printf.sprintf "stream%d.jsonl" i)) s)
        streams;
      {
        pools = [ [ "tpch-a" ]; [ "tpch-b" ] ];
        rotate = 0;
        cycle = false;
        expect = "granted";
        prime = None;
        depth = 0;
        prefill = store_capacity;
      }
    | w -> failwith ("svcgen: unknown workload " ^ w)
  in
  write_file (Filename.concat out "plan.json") (plan_json plan ^ "\n")

(* --- probe ----------------------------------------------------------------- *)

let time_per_call f items =
  let n = List.length items in
  if n = 0 then 0.0
  else begin
    (* one untimed pass warms allocation paths; the median of five timed
       passes is reported *)
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
    let pass () =
      let t0 = Unix.gettimeofday () in
      List.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
      (Unix.gettimeofday () -. t0) /. float_of_int n
    in
    let xs = List.sort compare (List.init 5 (fun _ -> pass ())) in
    List.nth xs 2
  end

let copy_file src dst =
  let s = In_channel.with_open_bin src In_channel.input_all in
  write_file dst s

let probe dir analyst =
  let requests = read_lines (Filename.concat dir "requests.txt") in
  let decode_s = time_per_call Wire.request_of_line requests in
  let responses =
    List.filter_map
      (fun line ->
        match Wire.response_of_line line with
        | Ok r -> Some (Wire.response_id_of_line line, r)
        | Error _ -> None)
      (read_lines (Filename.concat dir "responses.txt"))
  in
  let encode_s = time_per_call (fun (id, r) -> Wire.response_to_line ?id r) responses in
  (* Ledger.open_ replays the journal the workload's server starts from;
     spends then charge the first analyst at that depth, on a copy. *)
  let journal = Filename.concat dir "ledger-probe.journal" in
  let opens =
    List.init 3 (fun _ ->
        copy_file (Filename.concat dir "ledger0.journal") journal;
        let t0 = Unix.gettimeofday () in
        let l = Ledger.open_ journal in
        let dt = Unix.gettimeofday () -. t0 in
        Ledger.close l;
        dt)
  in
  let open_s = List.nth (List.sort compare opens) 1 in
  copy_file (Filename.concat dir "ledger0.journal") journal;
  let ledger = Ledger.open_ journal in
  (match Ledger.register ledger ~analyst ~epsilon:analyst_epsilon ~delta:analyst_delta with
  | Ok () | Error (Ledger.Already_registered _) -> ()
  | Error e -> failwith (Ledger.error_to_string e));
  let spends = 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to spends do
    match
      Ledger.spend ledger ~analyst ~epsilon:history_epsilon ~delta:query_delta ~label:"probe"
    with
    | Ok _ -> ()
    | Error e -> failwith (Ledger.error_to_string e)
  done;
  let spend_s = (Unix.gettimeofday () -. t0) /. float_of_int spends in
  Ledger.close ledger;
  Sys.remove journal;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("wire.decode_us", Json.num (decode_s *. 1e6));
            ("wire.encode_us", Json.num (encode_s *. 1e6));
            ("ledger.spend_us", Json.num (spend_s *. 1e6));
            ("ledger.open_s", Json.num open_s);
            ("requests", Json.int (List.length requests));
            ("responses", Json.int (List.length responses));
          ]))

let () =
  match Array.to_list Sys.argv with
  | [ _; "gen"; workload; seed; count; out ] ->
    gen workload (int_of_string seed) (int_of_string count) out
  | [ _; "probe"; dir; analyst ] -> probe dir analyst
  | _ ->
    prerr_endline "usage: svcgen gen WORKLOAD SEED COUNT OUT | svcgen probe DIR ANALYST";
    exit 2
