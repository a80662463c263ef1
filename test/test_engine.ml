module Value = Flex_engine.Value
module Table = Flex_engine.Table
module Database = Flex_engine.Database
module Executor = Flex_engine.Executor
module Metrics = Flex_engine.Metrics
module Csv = Flex_engine.Csv
module Eval = Flex_engine.Eval

let v_int i = Value.Int i
let v_str s = Value.String s
let v_float f = Value.Float f

(* Small fixture: people in cities with pets. *)
let fixture () =
  let cities =
    Table.create ~name:"cities" ~columns:[ "id"; "name" ]
      [
        [| v_int 1; v_str "sf" |];
        [| v_int 2; v_str "nyc" |];
        [| v_int 3; v_str "la" |];
      ]
  in
  let people =
    Table.create ~name:"people" ~columns:[ "id"; "name"; "city_id"; "age" ]
      [
        [| v_int 1; v_str "ada"; v_int 1; v_int 36 |];
        [| v_int 2; v_str "bob"; v_int 1; v_int 25 |];
        [| v_int 3; v_str "cyd"; v_int 2; v_int 40 |];
        [| v_int 4; v_str "dan"; v_int 2; Value.Null |];
        [| v_int 5; v_str "eve"; Value.Null; v_int 31 |];
      ]
  in
  let pets =
    Table.create ~name:"pets" ~columns:[ "owner_id"; "kind" ]
      [
        [| v_int 1; v_str "cat" |];
        [| v_int 1; v_str "dog" |];
        [| v_int 2; v_str "cat" |];
        [| v_int 9; v_str "fish" |];
      ]
  in
  Database.of_tables [ cities; people; pets ]

let run sql =
  match Executor.run_sql (fixture ()) sql with
  | Ok r -> r
  | Error e -> Alcotest.failf "query failed (%s): %s" sql e

let run_err sql =
  match Executor.run_sql (fixture ()) sql with
  | Ok _ -> Alcotest.failf "expected failure: %s" sql
  | Error _ -> ()

let scalar sql =
  match (run sql).rows with
  | [ [| v |] ] -> v
  | rows -> Alcotest.failf "expected one cell, got %d rows" (List.length rows)

let int_scalar sql =
  match Value.to_int (scalar sql) with
  | Some i -> i
  | None -> Alcotest.failf "expected integer result for %s" sql

let check_int sql expected =
  Alcotest.(check int) sql expected (int_scalar sql)

(* --- value semantics --------------------------------------------------------- *)

let value_tests =
  [
    Alcotest.test_case "ordering across types" `Quick (fun () ->
        Alcotest.(check bool) "null first" true (Value.compare Value.Null (v_int 0) < 0);
        Alcotest.(check bool) "int/float mix" true (Value.compare (v_int 2) (v_float 2.5) < 0);
        Alcotest.(check bool) "int = float" true (Value.equal (v_int 2) (v_float 2.0)));
    Alcotest.test_case "sql equality with null" `Quick (fun () ->
        Alcotest.(check bool) "null = x is unknown" true
          (Value.sql_equal Value.Null (v_int 1) = None));
    Alcotest.test_case "3-valued AND/OR" `Quick (fun () ->
        Alcotest.(check bool) "false AND null = false" true
          (Eval.and3 (Value.Bool false) Value.Null = Value.Bool false);
        Alcotest.(check bool) "true AND null = null" true
          (Eval.and3 (Value.Bool true) Value.Null = Value.Null);
        Alcotest.(check bool) "true OR null = true" true
          (Eval.or3 (Value.Bool true) Value.Null = Value.Bool true));
    Alcotest.test_case "like matching" `Quick (fun () ->
        let m p s = Eval.like (v_str s) (v_str p) = Value.Bool true in
        Alcotest.(check bool) "prefix" true (m "a%" "abc");
        Alcotest.(check bool) "suffix" true (m "%c" "abc");
        Alcotest.(check bool) "underscore" true (m "a_c" "abc");
        Alcotest.(check bool) "no match" false (m "a_c" "abcd");
        Alcotest.(check bool) "literal percent matches anywhere" true (m "%b%" "abc"));
  ]

(* --- selection, projection, expressions --------------------------------------- *)

let select_tests =
  [
    Alcotest.test_case "count star" `Quick (fun () -> check_int "SELECT COUNT(*) FROM people" 5);
    Alcotest.test_case "where filtering" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE age > 30" 3;
        (* NULL age rows are dropped by the predicate *)
        check_int "SELECT COUNT(*) FROM people WHERE age <= 30" 1);
    Alcotest.test_case "projection names" `Quick (fun () ->
        let r = run "SELECT name AS person, age FROM people LIMIT 1" in
        Alcotest.(check (list string)) "columns" [ "person"; "age" ] r.columns);
    Alcotest.test_case "star expansion" `Quick (fun () ->
        let r = run "SELECT * FROM cities" in
        Alcotest.(check (list string)) "columns" [ "id"; "name" ] r.columns;
        Alcotest.(check int) "rows" 3 (List.length r.rows));
    Alcotest.test_case "arithmetic and functions" `Quick (fun () ->
        Alcotest.(check bool) "int division truncates" true
          (scalar "SELECT 7 / 2" = v_int 3);
        Alcotest.(check bool) "mixed division is float" true
          (scalar "SELECT 7.0 / 2" = v_float 3.5);
        Alcotest.(check bool) "upper" true (scalar "SELECT UPPER('abc')" = v_str "ABC");
        Alcotest.(check bool) "coalesce" true (scalar "SELECT COALESCE(NULL, 5)" = v_int 5);
        Alcotest.(check bool) "case" true
          (scalar "SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END" = v_str "b"));
    Alcotest.test_case "distinct" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM (SELECT DISTINCT kind FROM pets) k" 3);
    Alcotest.test_case "in and between" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE id IN (1, 3, 5)" 3;
        check_int "SELECT COUNT(*) FROM people WHERE age BETWEEN 25 AND 36" 3);
    Alcotest.test_case "is null" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE age IS NULL" 1;
        check_int "SELECT COUNT(*) FROM people WHERE age IS NOT NULL" 4);
    Alcotest.test_case "order by and limit" `Quick (fun () ->
        let r = run "SELECT name FROM people ORDER BY age DESC LIMIT 2" in
        match r.rows with
        | [ [| a |]; [| b |] ] ->
          Alcotest.(check bool) "cyd first" true (a = v_str "cyd");
          Alcotest.(check bool) "ada second" true (b = v_str "ada")
        | _ -> Alcotest.fail "unexpected rows");
    Alcotest.test_case "order by null first ascending" `Quick (fun () ->
        let r = run "SELECT name FROM people ORDER BY age ASC LIMIT 1" in
        match r.rows with
        | [ [| v |] ] -> Alcotest.(check bool) "dan (null age)" true (v = v_str "dan")
        | _ -> Alcotest.fail "unexpected rows");
    Alcotest.test_case "offset" `Quick (fun () ->
        let r = run "SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 2" in
        match r.rows with
        | [ [| a |]; [| b |] ] ->
          Alcotest.(check bool) "ids 3,4" true (a = v_int 3 && b = v_int 4)
        | _ -> Alcotest.fail "unexpected rows");
  ]

(* --- joins --------------------------------------------------------------------- *)

let join_tests =
  [
    Alcotest.test_case "inner equijoin" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p JOIN pets x ON p.id = x.owner_id" 3);
    Alcotest.test_case "left join preserves unmatched" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p LEFT JOIN pets x ON p.id = x.owner_id" 6;
        (* unmatched rows carry NULLs *)
        check_int
          "SELECT COUNT(*) FROM people p LEFT JOIN pets x ON p.id = x.owner_id \
           WHERE x.kind IS NULL"
          3);
    Alcotest.test_case "right join mirrors left" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM pets x RIGHT JOIN people p ON p.id = x.owner_id" 6);
    Alcotest.test_case "full join" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p FULL JOIN pets x ON p.id = x.owner_id" 7);
    Alcotest.test_case "cross join" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM cities CROSS JOIN pets" 12;
        check_int "SELECT COUNT(*) FROM cities, pets" 12);
    Alcotest.test_case "null keys never match" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p JOIN cities c ON p.city_id = c.id" 4);
    Alcotest.test_case "using and natural" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people JOIN cities USING (id)" 3;
        (* natural join matches on every shared column: id AND name, which
           never agree across these tables *)
        check_int "SELECT COUNT(*) FROM people NATURAL JOIN cities" 0);
    Alcotest.test_case "self join" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people a JOIN people b ON a.city_id = b.city_id" 8);
    Alcotest.test_case "join with residual predicate" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people a JOIN people b ON a.city_id = b.city_id \
           AND a.id < b.id"
          2);
    Alcotest.test_case "non-equality join condition" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM cities a JOIN cities b ON a.id < b.id" 3);
    Alcotest.test_case "hash join equals nested loop" `Quick (fun () ->
        (* same condition expressed once hashable, once not *)
        let a =
          int_scalar
            "SELECT COUNT(*) FROM people p JOIN pets x ON p.id = x.owner_id"
        in
        let b =
          int_scalar
            "SELECT COUNT(*) FROM people p JOIN pets x ON p.id <= x.owner_id AND \
             p.id >= x.owner_id"
        in
        Alcotest.(check int) "equal counts" a b);
  ]

(* --- grouping and aggregates ------------------------------------------------------ *)

let group_tests =
  [
    Alcotest.test_case "group by with counts" `Quick (fun () ->
        let r = run "SELECT city_id, COUNT(*) AS n FROM people GROUP BY city_id ORDER BY n DESC" in
        Alcotest.(check int) "three groups" 3 (List.length r.rows));
    Alcotest.test_case "count ignores nulls, count star does not" `Quick (fun () ->
        check_int "SELECT COUNT(age) FROM people" 4;
        check_int "SELECT COUNT(*) FROM people" 5);
    Alcotest.test_case "count distinct" `Quick (fun () ->
        check_int "SELECT COUNT(DISTINCT kind) FROM pets" 3);
    Alcotest.test_case "sum avg min max" `Quick (fun () ->
        check_int "SELECT SUM(age) FROM people" 132;
        Alcotest.(check bool) "avg" true (scalar "SELECT AVG(age) FROM people" = v_float 33.0);
        check_int "SELECT MIN(age) FROM people" 25;
        check_int "SELECT MAX(age) FROM people" 40);
    Alcotest.test_case "median and stddev" `Quick (fun () ->
        Alcotest.(check bool) "median" true
          (scalar "SELECT MEDIAN(age) FROM people" = v_float 33.5);
        match scalar "SELECT STDDEV(age) FROM people" with
        | Value.Float f -> Alcotest.(check (float 0.01)) "stddev" (sqrt 42.0) f
        | _ -> Alcotest.fail "stddev not float");
    Alcotest.test_case "aggregates over empty input" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE age > 100" 0;
        Alcotest.(check bool) "sum of empty is null" true
          (scalar "SELECT SUM(age) FROM people WHERE age > 100" = Value.Null));
    Alcotest.test_case "having filters groups" `Quick (fun () ->
        let r =
          run "SELECT city_id, COUNT(*) FROM people GROUP BY city_id HAVING COUNT(*) >= 2"
        in
        Alcotest.(check int) "two groups" 2 (List.length r.rows));
    Alcotest.test_case "group by expression" `Quick (fun () ->
        let r = run "SELECT age % 2, COUNT(*) FROM people WHERE age IS NOT NULL GROUP BY age % 2" in
        Alcotest.(check int) "parity groups" 2 (List.length r.rows));
    Alcotest.test_case "aggregate of expression" `Quick (fun () ->
        check_int "SELECT SUM(age * 2) FROM people" 264);
  ]

(* --- subqueries, CTEs, set ops ------------------------------------------------------ *)

let query_tests =
  [
    Alcotest.test_case "derived table" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM (SELECT id FROM people WHERE age > 30) old" 3);
    Alcotest.test_case "cte" `Quick (fun () ->
        check_int
          "WITH old AS (SELECT id FROM people WHERE age > 30) SELECT COUNT(*) FROM old"
          3);
    Alcotest.test_case "cte chaining" `Quick (fun () ->
        check_int
          "WITH a AS (SELECT id FROM people WHERE age > 30), b AS (SELECT id \
           FROM a WHERE id > 1) SELECT COUNT(*) FROM b"
          2);
    Alcotest.test_case "cte column rename" `Quick (fun () ->
        check_int
          "WITH t (pid) AS (SELECT id FROM people) SELECT COUNT(pid) FROM t" 5);
    Alcotest.test_case "in subquery" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people WHERE id IN (SELECT owner_id FROM pets)" 2);
    Alcotest.test_case "exists" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE EXISTS (SELECT 1 FROM pets)" 5);
    Alcotest.test_case "scalar subquery" `Quick (fun () ->
        check_int "SELECT COUNT(*) FROM people WHERE age > (SELECT AVG(age) FROM people)" 2);
    Alcotest.test_case "union distinct vs all" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM (SELECT kind FROM pets UNION SELECT kind FROM pets) u" 3;
        check_int
          "SELECT COUNT(*) FROM (SELECT kind FROM pets UNION ALL SELECT kind FROM pets) u"
          8);
    Alcotest.test_case "except and intersect" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM (SELECT id FROM people EXCEPT SELECT owner_id FROM pets) e"
          3;
        check_int
          "SELECT COUNT(*) FROM (SELECT id FROM people INTERSECT SELECT owner_id \
           FROM pets) i"
          2);
    Alcotest.test_case "grouped subquery as relation" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM (SELECT city_id, COUNT(*) AS n FROM people GROUP \
           BY city_id) g WHERE g.n >= 2"
          2);
    Alcotest.test_case "aggregate of grouped subquery" `Quick (fun () ->
        check_int
          "SELECT MAX(n) FROM (SELECT COUNT(*) AS n FROM people GROUP BY city_id) g" 2);
    Alcotest.test_case "errors" `Quick (fun () ->
        run_err "SELECT nosuch FROM people";
        run_err "SELECT * FROM nosuch";
        run_err "SELECT COUNT(*) FROM people WHERE age > (SELECT id FROM people)";
        run_err "SELECT a FROM people UNION SELECT a, b FROM pets");
  ]

(* --- metrics -------------------------------------------------------------------------- *)

let metrics_tests =
  [
    Alcotest.test_case "mf matches SQL oracle" `Quick (fun () ->
        let db = fixture () in
        let m = Metrics.compute db in
        (* most frequent city_id among people is 1 or 2, both appear twice *)
        Alcotest.(check (option int)) "people.city_id" (Some 2)
          (Metrics.mf m ~table:"people" ~column:"city_id");
        Alcotest.(check (option int)) "pets.owner_id" (Some 2)
          (Metrics.mf m ~table:"pets" ~column:"owner_id");
        Alcotest.(check (option int)) "unique ids" (Some 1)
          (Metrics.mf m ~table:"people" ~column:"id");
        (* cross-check against the paper's collection query *)
        let oracle =
          match
            Executor.run_sql db
              "SELECT COUNT(owner_id) AS c FROM pets GROUP BY owner_id ORDER BY c \
               DESC LIMIT 1"
          with
          | Ok { rows = [ [| v |] ]; _ } -> Value.to_int v
          | _ -> None
        in
        Alcotest.(check (option int)) "sql oracle agrees" oracle
          (Metrics.mf m ~table:"pets" ~column:"owner_id"));
    Alcotest.test_case "vr is max minus min" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Alcotest.(check (option (float 1e-9))) "age range" (Some 15.0)
          (Metrics.vr m ~table:"people" ~column:"age");
        Alcotest.(check (option (float 1e-9))) "no numeric values" None
          (Metrics.vr m ~table:"people" ~column:"name"));
    Alcotest.test_case "public registry" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Alcotest.(check bool) "not public by default" false (Metrics.is_public m "cities");
        Metrics.set_public m "cities";
        Alcotest.(check bool) "now public" true (Metrics.is_public m "CITIES");
        Metrics.clear_public m "cities";
        Alcotest.(check bool) "cleared" false (Metrics.is_public m "cities"));
    Alcotest.test_case "serialisation roundtrip" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Metrics.set_public m "cities";
        let m2 = Metrics.of_lines (Metrics.to_lines m) in
        Alcotest.(check (list string)) "same lines" (Metrics.to_lines m) (Metrics.to_lines m2);
        Alcotest.(check bool) "public preserved" true (Metrics.is_public m2 "cities"));
    Alcotest.test_case "row counts and totals" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Alcotest.(check (option int)) "people rows" (Some 5) (Metrics.row_count m ~table:"people");
        Alcotest.(check int) "total" 12 (Metrics.total_rows m));
    Alcotest.test_case "column listing from metrics" `Quick (fun () ->
        let m = Metrics.compute (fixture ()) in
        Alcotest.(check (list string)) "people columns"
          [ "age"; "city_id"; "id"; "name" ]
          (Metrics.columns m ~table:"people"));
  ]

(* --- csv ---------------------------------------------------------------------------------- *)

let csv_tests =
  [
    Alcotest.test_case "roundtrip through a file" `Quick (fun () ->
        let path = Filename.temp_file "oflex" ".csv" in
        let r = run "SELECT id, name FROM cities ORDER BY id" in
        Csv.save_result r path;
        let t = Csv.load_table ~name:"cities2" path in
        Alcotest.(check int) "rows" 3 (Table.row_count t);
        Alcotest.(check bool) "value sniffed as int" true
          ((Table.rows t).(0).(0) = v_int 1);
        Sys.remove path);
    Alcotest.test_case "quoted fields" `Quick (fun () ->
        let path = Filename.temp_file "oflex" ".csv" in
        let oc = open_out path in
        output_string oc "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n";
        close_out oc;
        let t = Csv.load_table ~name:"q" path in
        Alcotest.(check bool) "comma preserved" true ((Table.rows t).(0).(0) = v_str "x,y");
        Alcotest.(check bool) "escaped quotes" true
          ((Table.rows t).(0).(1) = v_str "he said \"hi\"");
        Sys.remove path);
    Alcotest.test_case "empty cell is NULL" `Quick (fun () ->
        let path = Filename.temp_file "oflex" ".csv" in
        let oc = open_out path in
        output_string oc "a,b\n1,\n";
        close_out oc;
        let t = Csv.load_table ~name:"n" path in
        Alcotest.(check bool) "null" true (Value.is_null (Table.rows t).(0).(1));
        Sys.remove path);
  ]

let suites =
  [
    ("value", value_tests);
    ("executor-select", select_tests);
    ("executor-join", join_tests);
    ("executor-group", group_tests);
    ("executor-query", query_tests);
    ("metrics", metrics_tests);
    ("csv", csv_tests);
  ]

(* --- correlated subqueries (appended) --------------------------------------- *)

let correlated_tests =
  [
    Alcotest.test_case "correlated EXISTS" `Quick (fun () ->
        (* people who own at least one pet *)
        check_int
          "SELECT COUNT(*) FROM people p WHERE EXISTS (SELECT 1 FROM pets x \
           WHERE x.owner_id = p.id)"
          2);
    Alcotest.test_case "correlated NOT EXISTS" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p WHERE NOT EXISTS (SELECT 1 FROM pets x \
           WHERE x.owner_id = p.id)"
          3);
    Alcotest.test_case "correlated scalar subquery" `Quick (fun () ->
        (* per-person pet count used as a filter *)
        check_int
          "SELECT COUNT(*) FROM people p WHERE (SELECT COUNT(*) FROM pets x \
           WHERE x.owner_id = p.id) >= 2"
          1);
    Alcotest.test_case "correlated IN" `Quick (fun () ->
        check_int
          "SELECT COUNT(*) FROM people p WHERE 'cat' IN (SELECT kind FROM pets x \
           WHERE x.owner_id = p.id)"
          2);
    Alcotest.test_case "inner scope shadows outer" `Quick (fun () ->
        (* the inner p refers to the subquery's own people alias *)
        check_int
          "SELECT COUNT(*) FROM people p WHERE p.id = (SELECT MIN(q.id) FROM \
           people q)"
          1);
    Alcotest.test_case "unknown columns still error" `Quick (fun () ->
        run_err "SELECT COUNT(*) FROM people p WHERE EXISTS (SELECT nosuch FROM pets)");
  ]

let suites = suites @ [ ("executor-correlated", correlated_tests) ]

(* --- plan / EXPLAIN (appended) ------------------------------------------------ *)

module Plan = Flex_engine.Plan

let explain sql =
  match Plan.explain_sql sql with
  | Ok s -> s
  | Error e -> Alcotest.failf "explain failed: %s" e

let contains s sub = Astring.String.is_infix ~affix:sub s

let plan_tests =
  [
    Alcotest.test_case "equijoins plan as hash joins" `Quick (fun () ->
        let s = explain "SELECT COUNT(*) FROM people p JOIN pets x ON p.id = x.owner_id" in
        Alcotest.(check bool) "hash" true (contains s "hash on p.id = x.owner_id");
        Alcotest.(check bool) "aggregate" true (contains s "Aggregate [COUNT(*)]"));
    Alcotest.test_case "non-equality conditions plan as nested loops" `Quick (fun () ->
        let s = explain "SELECT 1 FROM cities a JOIN cities b ON a.id < b.id" in
        Alcotest.(check bool) "nested" true (contains s "nested loop"));
    Alcotest.test_case "residual conjuncts are counted" `Quick (fun () ->
        let s =
          explain
            "SELECT 1 FROM people p JOIN pets x ON p.id = x.owner_id AND p.age > 30"
        in
        Alcotest.(check bool) "residual" true (contains s "+1 residual"));
    Alcotest.test_case "sort, slice and ctes appear" `Quick (fun () ->
        let s =
          explain
            "WITH w AS (SELECT id FROM people) SELECT id FROM w ORDER BY id DESC LIMIT 3"
        in
        Alcotest.(check bool) "cte" true (contains s "CTE w:");
        Alcotest.(check bool) "sort" true (contains s "Sort [id DESC]");
        Alcotest.(check bool) "slice" true (contains s "Slice LIMIT 3"));
    Alcotest.test_case "set operations" `Quick (fun () ->
        let s = explain "SELECT id FROM people UNION ALL SELECT owner_id FROM pets" in
        Alcotest.(check bool) "union all" true (contains s "UNION ALL"));
    Alcotest.test_case "group by and having" `Quick (fun () ->
        let s =
          explain
            "SELECT city_id, COUNT(*) FROM people GROUP BY city_id HAVING COUNT(*) > 1"
        in
        Alcotest.(check bool) "group" true (contains s "GROUP BY city_id");
        Alcotest.(check bool) "having" true (contains s "HAVING"));
  ]

let suites = suites @ [ ("plan", plan_tests) ]

(* --- scalar function coverage (appended) --------------------------------------- *)

let function_tests =
  [
    Alcotest.test_case "string functions" `Quick (fun () ->
        Alcotest.(check bool) "length" true (scalar "SELECT LENGTH('hello')" = v_int 5);
        Alcotest.(check bool) "trim" true (scalar "SELECT TRIM('  x  ')" = v_str "x");
        Alcotest.(check bool) "substr 2-arg" true (scalar "SELECT SUBSTR('hello', 2)" = v_str "ello");
        Alcotest.(check bool) "substr 3-arg" true (scalar "SELECT SUBSTR('hello', 2, 3)" = v_str "ell");
        Alcotest.(check bool) "substr past end" true (scalar "SELECT SUBSTR('hi', 9)" = v_str "");
        Alcotest.(check bool) "concat fn" true
          (scalar "SELECT CONCAT('a', 'b', 'c')" = v_str "abc"));
    Alcotest.test_case "date extraction" `Quick (fun () ->
        Alcotest.(check bool) "year" true (scalar "SELECT YEAR('2016-03-14')" = v_int 2016);
        Alcotest.(check bool) "month" true (scalar "SELECT MONTH('2016-03-14')" = v_int 3);
        Alcotest.(check bool) "year of garbage" true
          (Value.is_null (scalar "SELECT YEAR('xyzw-aa')")));
    Alcotest.test_case "numeric functions" `Quick (fun () ->
        Alcotest.(check bool) "round to digits" true
          (scalar "SELECT ROUND(3.14159, 2)" = v_float 3.14);
        Alcotest.(check bool) "floor" true (scalar "SELECT FLOOR(3.9)" = v_int 3);
        Alcotest.(check bool) "ceil" true (scalar "SELECT CEIL(3.1)" = v_int 4);
        Alcotest.(check bool) "sqrt" true (scalar "SELECT SQRT(16.0)" = v_float 4.0);
        Alcotest.(check bool) "sqrt of negative is null" true
          (Value.is_null (scalar "SELECT SQRT(-1.0)"));
        Alcotest.(check bool) "greatest" true (scalar "SELECT GREATEST(1, 5, 3)" = v_int 5);
        Alcotest.(check bool) "least" true (scalar "SELECT LEAST(1, 5, 3)" = v_int 1));
    Alcotest.test_case "null propagation in functions" `Quick (fun () ->
        Alcotest.(check bool) "lower null" true (Value.is_null (scalar "SELECT LOWER(NULL)"));
        Alcotest.(check bool) "abs null" true (Value.is_null (scalar "SELECT ABS(NULL)"));
        Alcotest.(check bool) "nullif equal" true (Value.is_null (scalar "SELECT NULLIF(3, 3)"));
        Alcotest.(check bool) "nullif differs" true (scalar "SELECT NULLIF(3, 4)" = v_int 3));
    Alcotest.test_case "casts" `Quick (fun () ->
        Alcotest.(check bool) "string to int" true (scalar "SELECT CAST('42' AS int)" = v_int 42);
        Alcotest.(check bool) "junk to int is null" true
          (Value.is_null (scalar "SELECT CAST('junk' AS int)"));
        Alcotest.(check bool) "int to varchar" true
          (scalar "SELECT CAST(7 AS varchar(10))" = v_str "7");
        Alcotest.(check bool) "string to bool" true
          (scalar "SELECT CAST('true' AS boolean)" = Value.Bool true);
        Alcotest.(check bool) "float to int truncates" true
          (scalar "SELECT CAST(3.7 AS int)" = v_int 3));
    Alcotest.test_case "unknown function errors" `Quick (fun () ->
        run_err "SELECT FROBNICATE(1) FROM people");
  ]

let suites = suites @ [ ("eval-functions", function_tests) ]

(* --- differential tests: compiled executor vs reference interpreter ------- *)

module Reference = Flex_engine.Reference
module Uber = Flex_workload.Uber
module Qgen = Flex_workload.Qgen
module Rng = Flex_dp.Rng

(* Exact cell equality: structural, except NaN = NaN so float aggregates
   cannot produce spurious diffs. *)
let cell_equal (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Float x, Value.Float y -> x = y || (Float.is_nan x && Float.is_nan y)
  | _ -> a = b

let row_to_string row =
  Array.to_list row |> List.map Value.to_string |> String.concat ", "

(* Both pipelines must agree on columns, row values AND row order (or both
   must fail). *)
let check_same db sql =
  match (Executor.run_sql db sql, Reference.run_sql db sql) with
  | Error _, Error _ -> ()
  | Ok _, Error e -> Alcotest.failf "compiled ok, reference failed (%s): %s" sql e
  | Error e, Ok _ -> Alcotest.failf "compiled failed, reference ok (%s): %s" sql e
  | Ok a, Ok b ->
    Alcotest.(check (list string)) (sql ^ ": columns") b.Reference.columns a.Executor.columns;
    if List.length a.Executor.rows <> List.length b.Reference.rows then
      Alcotest.failf "row count differs (%s): compiled %d, reference %d" sql
        (List.length a.Executor.rows)
        (List.length b.Reference.rows);
    List.iteri
      (fun i (ra, rb) ->
        let same =
          Array.length ra = Array.length rb
          && (let ok = ref true in
              Array.iteri (fun j va -> if not (cell_equal va rb.(j)) then ok := false) ra;
              !ok)
        in
        if not same then
          Alcotest.failf "row %d differs (%s): compiled [%s], reference [%s]" i sql
            (row_to_string ra) (row_to_string rb))
      (List.combine a.Executor.rows b.Reference.rows)

(* Hand-written queries over the fixture hitting the edge cases the generated
   workload rarely produces. *)
let edge_case_queries =
  [
    (* multi-key hash joins, including NULL key columns (never match) *)
    "SELECT p.name, q.name FROM people p JOIN people q \
     ON p.city_id = q.city_id AND p.age = q.age";
    "SELECT p.name, q.name FROM people p LEFT JOIN people q \
     ON p.city_id = q.city_id AND p.age = q.age ORDER BY p.id, q.id";
    "SELECT p.name, c.name FROM people p JOIN cities c ON p.city_id = c.id";
    (* RIGHT / FULL outer joins, unmatched sides on both ends *)
    "SELECT p.name, t.kind FROM people p RIGHT JOIN pets t ON p.id = t.owner_id";
    "SELECT p.name, t.kind FROM people p FULL JOIN pets t ON p.id = t.owner_id";
    "SELECT c.name, p.name FROM cities c FULL JOIN people p ON c.id = p.city_id \
     ORDER BY c.id, p.id";
    (* non-equality join condition: nested loop path *)
    "SELECT p.name, q.name FROM people p JOIN people q ON p.age < q.age";
    (* DISTINCT and set operations, with and without ALL *)
    "SELECT DISTINCT city_id FROM people";
    "SELECT city_id FROM people UNION SELECT id FROM cities";
    "SELECT city_id FROM people UNION ALL SELECT id FROM cities";
    "SELECT id FROM cities EXCEPT SELECT city_id FROM people";
    "SELECT city_id FROM people EXCEPT ALL SELECT id FROM cities";
    "SELECT city_id FROM people INTERSECT SELECT id FROM cities";
    "SELECT city_id FROM people INTERSECT ALL SELECT city_id FROM people";
    (* ORDER BY on unprojected source keys, positional, DESC, ties *)
    "SELECT name FROM people ORDER BY age DESC, id";
    "SELECT name FROM people ORDER BY city_id, name";
    "SELECT name, age FROM people ORDER BY 2 DESC";
    "SELECT city_id, COUNT(*) FROM people GROUP BY city_id ORDER BY COUNT(*) DESC, city_id";
    (* grouping edge cases *)
    "SELECT COUNT(*) FROM people WHERE age > 100";
    "SELECT AVG(age) FROM people WHERE FALSE";
    "SELECT city_id, COUNT(DISTINCT age), SUM(age) FROM people GROUP BY city_id \
     HAVING COUNT(*) > 1";
    (* correlated subqueries *)
    "SELECT name FROM people p WHERE EXISTS \
     (SELECT 1 FROM pets t WHERE t.owner_id = p.id)";
    "SELECT name, (SELECT COUNT(*) FROM pets t WHERE t.owner_id = p.id) FROM people p";
    "SELECT name FROM people p WHERE age > \
     (SELECT AVG(age) FROM people q WHERE q.city_id = p.city_id)";
    (* LIMIT / OFFSET *)
    "SELECT name FROM people ORDER BY id LIMIT 2 OFFSET 1";
    "SELECT name FROM people ORDER BY id LIMIT 0";
  ]

let differential_tests =
  [
    Alcotest.test_case "edge cases agree with reference" `Quick (fun () ->
        let db = fixture () in
        List.iter (check_same db) edge_case_queries);
    Alcotest.test_case "generated workload agrees with reference" `Quick (fun () ->
        let rng = Rng.create ~seed:7 () in
        let db, _metrics = Uber.generate ~sizes:Uber.small_sizes rng in
        let queries =
          Qgen.generate rng ~count:50 ~n_cities:12 ~n_drivers:120 ~n_users:200
        in
        List.iter
          (fun (q : Qgen.t) ->
            check_same db q.sql;
            check_same db q.population_sql)
          queries);
  ]

let suites = suites @ [ ("executor-differential", differential_tests) ]

(* --- columnar 3-way differential: reference = row-compiled = columnar ----- *)

let with_columnar on f =
  let prev = !Executor.columnar_enabled in
  Executor.columnar_enabled := on;
  Fun.protect ~finally:(fun () -> Executor.columnar_enabled := prev) f

(* The columnar engine must be indistinguishable from the row pipeline:
   reference agrees with both, and the two compiled paths agree with each
   other cell-for-cell (same values, same row order, same error/ok split).
   Anything short of that would make DP releases depend on the engine
   toggle. *)
let check_columnar_3way db sql =
  with_columnar false (fun () -> check_same db sql);
  with_columnar true (fun () -> check_same db sql);
  let row = with_columnar false (fun () -> Executor.run_sql db sql) in
  let col = with_columnar true (fun () -> Executor.run_sql db sql) in
  match (row, col) with
  | Error _, Error _ -> ()
  | Ok _, Error e -> Alcotest.failf "columnar failed, row ok (%s): %s" sql e
  | Error e, Ok _ -> Alcotest.failf "row failed, columnar ok (%s): %s" sql e
  | Ok a, Ok b ->
    Alcotest.(check (list string)) (sql ^ ": columns") a.Executor.columns b.Executor.columns;
    if List.length a.Executor.rows <> List.length b.Executor.rows then
      Alcotest.failf "row count differs (%s): row %d, columnar %d" sql
        (List.length a.Executor.rows)
        (List.length b.Executor.rows);
    List.iteri
      (fun i (ra, rb) ->
        let same =
          Array.length ra = Array.length rb
          && (let ok = ref true in
              Array.iteri (fun j va -> if not (cell_equal va rb.(j)) then ok := false) ra;
              !ok)
        in
        if not same then
          Alcotest.failf "row %d differs (%s): row [%s], columnar [%s]" i sql
            (row_to_string ra) (row_to_string rb))
      (List.combine a.Executor.rows b.Executor.rows)

(* Trap fixture for the typed kernels: NULL-heavy key and measure columns, a
   mixed Int/Float column (boxed in the chunk), a dictionary column with
   NULLs, negative and repeated join keys. *)
let null_mixed_fixture () =
  let n = 40 in
  let facts =
    Table.create ~name:"facts" ~columns:[ "id"; "k"; "grp"; "m"; "mix"; "tag" ]
      (List.init n (fun i ->
           [|
             v_int i;
             (if i mod 3 = 0 then Value.Null else v_int (i mod 5));
             (if i mod 7 = 0 then Value.Null else v_int ((i mod 4) - 2));
             (if i mod 4 = 0 then Value.Null else v_float (float_of_int i /. 4.0));
             (if i mod 2 = 0 then v_int i else v_float (float_of_int i +. 0.5));
             (match i mod 5 with
             | 0 -> Value.Null
             | 1 -> v_str "red"
             | 2 -> v_str "green"
             | 3 -> v_str "blue"
             | _ -> v_str "red");
           |]))
  in
  let dims =
    Table.create ~name:"dims" ~columns:[ "k"; "label" ]
      [
        [| v_int 0; v_str "zero" |];
        [| v_int 1; v_str "one" |];
        [| v_int 2; v_str "two" |];
        [| v_int 2; v_str "two-again" |];
        [| Value.Null; v_str "null-key" |];
        [| v_int 4; v_str "four" |];
      ]
  in
  Database.of_tables [ facts; dims ]

let null_mixed_queries =
  [
    "SELECT * FROM facts";
    "SELECT id, m FROM facts WHERE k = 2";
    "SELECT id FROM facts WHERE m > 3.0 AND tag = 'red'";
    (* NULL join keys never match; duplicate build keys fan out *)
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k";
    "SELECT f.id, d.label FROM facts f JOIN dims d ON f.k = d.k WHERE d.label = 'two'";
    (* grouping by NULL-heavy, negative-ranged and dictionary keys *)
    "SELECT k, COUNT(*) FROM facts GROUP BY k";
    "SELECT grp, COUNT(*), SUM(m), MIN(m), MAX(m) FROM facts GROUP BY grp";
    "SELECT tag, COUNT(*), AVG(m) FROM facts GROUP BY tag HAVING COUNT(*) > 2";
    "SELECT tag, COUNT(m) FROM facts GROUP BY tag";
    (* aggregates over the mixed Int/Float column (boxed in the chunk) *)
    "SELECT SUM(mix), MIN(mix), MAX(mix), AVG(mix) FROM facts";
    "SELECT k, SUM(mix) FROM facts GROUP BY k";
    (* aggregate over an empty group set and an all-NULL slice *)
    "SELECT SUM(m) FROM facts WHERE id < 0";
    "SELECT AVG(m) FROM facts WHERE k IS NULL AND m IS NULL";
    (* top-K over a NULL-heavy float key, ties broken by id *)
    "SELECT id, m FROM facts ORDER BY m DESC, id LIMIT 7";
    "SELECT id FROM facts ORDER BY k, id LIMIT 10 OFFSET 3";
    "SELECT tag, m FROM facts ORDER BY tag, m LIMIT 12";
  ]

(* Top-K fixture with heavy ties (k has 5 distinct values plus NULLs) so the
   size-k heap's index tiebreak is actually exercised, and stability without
   an explicit tiebreak column is observable. *)
let topk_fixture () =
  let rows =
    List.init 100 (fun i ->
        [|
          v_int i;
          (if i mod 7 = 0 then Value.Null else v_int (i mod 5));
          v_float (float_of_int (i mod 4) /. 2.0);
        |])
  in
  Database.of_tables [ Table.create ~name:"s" ~columns:[ "id"; "k"; "f" ] rows ]

let topk_queries =
  [
    "SELECT id, k FROM s ORDER BY k LIMIT 10";
    "SELECT id, k FROM s ORDER BY k DESC LIMIT 10";
    (* ties with no tiebreak column: selection must stay stable *)
    "SELECT id FROM s ORDER BY k LIMIT 25";
    "SELECT id, k FROM s ORDER BY k, id DESC LIMIT 10 OFFSET 5";
    "SELECT id, f, k FROM s ORDER BY f DESC, k LIMIT 13";
    (* LIMIT at or past the input size: the full-sort path *)
    "SELECT id FROM s ORDER BY k LIMIT 200";
    "SELECT id FROM s ORDER BY k LIMIT 0";
    "SELECT id FROM s ORDER BY k LIMIT 10 OFFSET 95";
    "SELECT id FROM s ORDER BY k LIMIT 10 OFFSET 200";
  ]

let columnar_differential_tests =
  [
    Alcotest.test_case "edge cases agree 3-way with columnar" `Quick (fun () ->
        let db = fixture () in
        List.iter (check_columnar_3way db) edge_case_queries);
    Alcotest.test_case "generated workload agrees 3-way with columnar" `Quick (fun () ->
        let rng = Rng.create ~seed:11 () in
        let db, _metrics = Uber.generate ~sizes:Uber.small_sizes rng in
        let queries =
          Qgen.generate rng ~count:40 ~n_cities:12 ~n_drivers:120 ~n_users:200
        in
        List.iter
          (fun (q : Qgen.t) ->
            check_columnar_3way db q.sql;
            check_columnar_3way db q.population_sql)
          queries);
    Alcotest.test_case "NULL-heavy and mixed-type traps agree 3-way" `Quick (fun () ->
        let db = null_mixed_fixture () in
        List.iter (check_columnar_3way db) null_mixed_queries);
    Alcotest.test_case "top-K ties and NULL ordering agree 3-way" `Quick (fun () ->
        let db = topk_fixture () in
        List.iter (check_columnar_3way db) topk_queries);
  ]

let suites = suites @ [ ("columnar-differential", columnar_differential_tests) ]

(* --- explicit expectations for the new join/set-op edge cases ------------- *)

let edge_expectation_tests =
  [
    Alcotest.test_case "multi-key join skips NULL keys" `Quick (fun () ->
        (* dan (NULL age) and eve (NULL city_id) must not self-match *)
        let r =
          run
            "SELECT p.name FROM people p JOIN people q \
             ON p.city_id = q.city_id AND p.age = q.age ORDER BY p.id"
        in
        Alcotest.(check (list string)) "only non-NULL keys join"
          [ "ada"; "bob"; "cyd" ]
          (List.map (fun row -> Value.to_string row.(0)) r.rows));
    Alcotest.test_case "right join keeps unmatched right rows" `Quick (fun () ->
        let r =
          run "SELECT p.name, t.kind FROM people p RIGHT JOIN pets t ON p.id = t.owner_id"
        in
        Alcotest.(check int) "rows" 4 (List.length r.rows);
        let unmatched =
          List.filter (fun row -> Value.is_null row.(0)) r.rows
        in
        Alcotest.(check int) "fish owner missing" 1 (List.length unmatched));
    Alcotest.test_case "full join keeps both unmatched sides" `Quick (fun () ->
        let r =
          run "SELECT c.name, p.name FROM cities c FULL JOIN people p ON c.id = p.city_id"
        in
        (* 4 matched pairs; la has no people; eve has no city *)
        Alcotest.(check int) "rows" 6 (List.length r.rows);
        Alcotest.(check bool) "la unmatched" true
          (List.exists
             (fun row -> row.(0) = v_str "la" && Value.is_null row.(1))
             r.rows);
        Alcotest.(check bool) "eve unmatched" true
          (List.exists
             (fun row -> Value.is_null row.(0) && row.(1) = v_str "eve")
             r.rows));
    Alcotest.test_case "cross join with equality keys filters rows" `Quick (fun () ->
        (* regression: a Cross join carrying equality keys must apply them as
           filters, not drop every row *)
        let open Flex_sql.Ast in
        let col t c = Col { table = Some t; column = c } in
        let q =
          {
            ctes = [];
            body =
              Select
                {
                  distinct = false;
                  projections = [ Proj_expr (col "p" "name", None) ];
                  from =
                    [
                      Join
                        {
                          kind = Cross;
                          left = Table { name = "people"; alias = Some "p" };
                          right = Table { name = "cities"; alias = Some "c" };
                          cond = On (Binop (Eq, col "p" "city_id", col "c" "id"));
                        };
                    ];
                  where = None;
                  group_by = [];
                  having = None;
                };
            order_by = [ (col "p" "name", Asc) ];
            limit = None;
            offset = None;
          }
        in
        let r = Executor.run (fixture ()) q in
        Alcotest.(check (list string)) "equality keys act as filter"
          [ "ada"; "bob"; "cyd"; "dan" ]
          (List.map (fun row -> Value.to_string row.(0)) r.rows));
    Alcotest.test_case "distinct and set ops dedupe consistently" `Quick (fun () ->
        let r = run "SELECT DISTINCT kind FROM pets ORDER BY kind" in
        Alcotest.(check (list string)) "distinct" [ "cat"; "dog"; "fish" ]
          (List.map (fun row -> Value.to_string row.(0)) r.rows);
        let r =
          run "SELECT city_id FROM people INTERSECT SELECT id FROM cities"
        in
        Alcotest.(check int) "intersect" 2 (List.length r.rows));
    Alcotest.test_case "order by unprojected key" `Quick (fun () ->
        let r = run "SELECT name FROM people ORDER BY age DESC, id" in
        Alcotest.(check (list string)) "columns hidden again" [ "name" ] r.columns;
        Alcotest.(check (list string)) "order from hidden key"
          [ "cyd"; "ada"; "eve"; "bob"; "dan" ]
          (List.map (fun row -> Value.to_string row.(0)) r.rows));
    Alcotest.test_case "large limit is stack-safe" `Quick (fun () ->
        (* regression: take was not tail-recursive *)
        let rows = List.init 400_000 (fun i -> [| v_int i |]) in
        let t = Table.create ~name:"big" ~columns:[ "n" ] rows in
        let db = Database.of_tables [ t ] in
        match Executor.run_sql db "SELECT n FROM big LIMIT 399999" with
        | Ok r -> Alcotest.(check int) "rows" 399_999 (List.length r.rows)
        | Error e -> Alcotest.failf "limit query failed: %s" e);
  ]

let suites = suites @ [ ("executor-edge-cases", edge_expectation_tests) ]

(* --- aggregate functions over one group's values -------------------------- *)

module Aggregate = Flex_engine.Aggregate
module Ast = Flex_sql.Ast

let value_t = Alcotest.testable Value.pp cell_equal

let agg ?(distinct = false) ?(star = false) func values =
  Aggregate.compute func ~distinct ~star ~nrows:(List.length values) values

let all_agg_funcs =
  [ Ast.Count; Ast.Sum; Ast.Avg; Ast.Min; Ast.Max; Ast.Median; Ast.Stddev ]

let aggregate_tests =
  [
    Alcotest.test_case "NULLs are skipped; COUNT(*) counts every row" `Quick (fun () ->
        let vs = [ v_int 3; Value.Null; v_int 1; Value.Null; v_int 2 ] in
        let check name func expected = Alcotest.check value_t name expected (agg func vs) in
        check "COUNT" Ast.Count (v_int 3);
        Alcotest.check value_t "COUNT(*)" (v_int 5) (agg ~star:true Ast.Count vs);
        check "SUM" Ast.Sum (v_int 6);
        check "AVG" Ast.Avg (v_float 2.0);
        check "MIN" Ast.Min (v_int 1);
        check "MAX" Ast.Max (v_int 3);
        check "MEDIAN" Ast.Median (v_float 2.0);
        check "STDDEV" Ast.Stddev (v_float 1.0));
    Alcotest.test_case "empty and all-NULL groups: counts are 0, the rest NULL" `Quick
      (fun () ->
        List.iter
          (fun (label, vs) ->
            List.iter
              (fun func ->
                let expected = if func = Ast.Count then v_int 0 else Value.Null in
                Alcotest.check value_t
                  (label ^ " " ^ Ast.agg_func_name func)
                  expected (agg func vs))
              all_agg_funcs;
            Alcotest.check value_t (label ^ " COUNT(*)") (v_int (List.length vs))
              (agg ~star:true Ast.Count vs))
          [ ("empty", []); ("all NULL", [ Value.Null; Value.Null ]) ];
        (* a sample standard deviation needs two values *)
        Alcotest.check value_t "STDDEV of one value" Value.Null (agg Ast.Stddev [ v_int 4 ]));
    Alcotest.test_case "SUM is exact on integers and widens on a float" `Quick (fun () ->
        let big = max_int / 2 in
        Alcotest.check value_t "integer SUM is exact" (v_int (big + 1))
          (agg Ast.Sum [ v_int big; v_int 1 ]);
        Alcotest.check value_t "one float makes a float SUM" (v_float 1.5)
          (agg Ast.Sum [ v_int 1; Value.Null; v_float 0.5 ]);
        Alcotest.check value_t "MIN compares across Int and Float" (v_float 1.5)
          (agg Ast.Min [ v_int 2; v_float 1.5 ]);
        Alcotest.check value_t "MIN/MAX order strings" (v_str "b")
          (agg Ast.Max [ v_str "a"; v_str "b"; Value.Null ]);
        List.iter
          (fun func ->
            match agg func [ v_int 1; v_str "x" ] with
            | exception Aggregate.Error _ -> ()
            | v ->
              Alcotest.failf "%s over a string returned %s" (Ast.agg_func_name func)
                (Value.to_string v))
          [ Ast.Sum; Ast.Avg; Ast.Median; Ast.Stddev ]);
    Alcotest.test_case "DISTINCT dedups before COUNT, SUM and AVG" `Quick (fun () ->
        let vs = [ v_int 1; v_int 1; v_int 2; Value.Null; v_int 2; v_int 3 ] in
        Alcotest.check value_t "COUNT" (v_int 5) (agg Ast.Count vs);
        Alcotest.check value_t "COUNT DISTINCT" (v_int 3) (agg ~distinct:true Ast.Count vs);
        Alcotest.check value_t "SUM DISTINCT" (v_int 6) (agg ~distinct:true Ast.Sum vs);
        Alcotest.check value_t "AVG DISTINCT" (v_float 2.0) (agg ~distinct:true Ast.Avg vs);
        Alcotest.check value_t "MAX ignores DISTINCT" (v_int 3) (agg ~distinct:true Ast.Max vs));
    Alcotest.test_case "compute_iter agrees with compute, errors included" `Quick (fun () ->
        let inputs =
          [
            [];
            [ Value.Null ];
            List.init 9 (fun i -> v_int ((i * 7) mod 5));
            [ v_float 2.5; Value.Null; v_float (-1.0); v_float 2.5 ];
            [ v_int 4; v_float 0.25; Value.Null; v_int 4; v_float nan ];
            [ v_str "b"; v_str "a"; Value.Null; v_str "b" ];
          ]
        in
        let outcome f = match f () with v -> Ok v | exception Aggregate.Error e -> Error e in
        List.iteri
          (fun n vs ->
            List.iter
              (fun (func, star) ->
                List.iter
                  (fun distinct ->
                    let label =
                      Fmt.str "input %d %s%s%s" n (Ast.agg_func_name func)
                        (if distinct then " DISTINCT" else "")
                        (if star then " (*)" else "")
                    in
                    let nrows = List.length vs in
                    let whole =
                      outcome (fun () -> Aggregate.compute func ~distinct ~star ~nrows vs)
                    in
                    let streamed =
                      outcome (fun () ->
                          Aggregate.compute_iter func ~distinct ~star ~nrows
                            ~iter:(fun f -> List.iter f vs))
                    in
                    match (whole, streamed) with
                    | Ok a, Ok b -> Alcotest.check value_t label a b
                    | Error _, Error _ -> ()
                    | Ok _, Error e -> Alcotest.failf "%s: only compute_iter failed: %s" label e
                    | Error e, Ok _ -> Alcotest.failf "%s: only compute failed: %s" label e)
                  [ false; true ])
              ((Ast.Count, true) :: List.map (fun f -> (f, false)) all_agg_funcs))
          inputs);
  ]

let suites = suites @ [ ("aggregate", aggregate_tests) ]

(* --- one sequential executor shared by concurrent requests ----------------- *)

(* The service runs many requests at once on worker threads over one shared
   database; each query executes sequentially. Whatever the engine caches
   across queries (column chunks, dictionaries) must leave every answer
   identical to a lone sequential run, row order included. *)

let same_result a b =
  match (a, b) with
  | Error x, Error y -> x = y
  | Ok (x : Executor.result_set), Ok (y : Executor.result_set) ->
    x.columns = y.columns
    && List.length x.rows = List.length y.rows
    && List.for_all2
         (fun ra rb ->
           Array.length ra = Array.length rb && Array.for_all2 cell_equal ra rb)
         x.rows y.rows
  | _ -> false

let uber_workload ~seed ~count =
  let rng = Rng.create ~seed () in
  let db, _metrics = Uber.generate ~sizes:Uber.small_sizes rng in
  let queries = Qgen.generate rng ~count ~n_cities:12 ~n_drivers:120 ~n_users:200 in
  (db, List.concat_map (fun (q : Qgen.t) -> [ q.sql; q.population_sql ]) queries)

(* Run [sqls] on [threads] systhreads at once, every thread the whole list in
   its own rotation, and return the SQL of each answer that differs from the
   sequential one. *)
let concurrent_mismatches ~threads db sqls =
  let expected = List.map (fun sql -> (sql, Executor.run_sql db sql)) sqls in
  let n = List.length expected in
  let arr = Array.of_list expected in
  let bad = Array.make threads [] in
  let work t =
    for i = 0 to n - 1 do
      let sql, want = arr.((i + (t * n / threads)) mod n) in
      if not (same_result want (Executor.run_sql db sql)) then bad.(t) <- sql :: bad.(t)
    done
  in
  let ts = List.init threads (fun t -> Thread.create work t) in
  List.iter Thread.join ts;
  List.concat (Array.to_list bad)

let big_sort_fixture () =
  let rows =
    List.init 5_000 (fun i ->
        [|
          v_int i;
          (if i mod 11 = 0 then Value.Null else v_int (i * 31 mod 37));
          v_float (float_of_int (i mod 13) /. 4.0);
        |])
  in
  Database.of_tables [ Table.create ~name:"big" ~columns:[ "id"; "k"; "f" ] rows ]

let shared_engine_tests =
  let check_concurrent columnar =
    with_columnar columnar (fun () ->
        let db, sqls = uber_workload ~seed:13 ~count:20 in
        match concurrent_mismatches ~threads:4 db sqls with
        | [] -> ()
        | sql :: _ as bad ->
          Alcotest.failf "%d concurrent answers differ, e.g. %s" (List.length bad) sql)
  in
  [
    Alcotest.test_case "threads sharing a database agree with a lone run (row)" `Quick
      (fun () -> check_concurrent false);
    Alcotest.test_case "threads sharing a database agree with a lone run (columnar)" `Quick
      (fun () -> check_concurrent true);
    Alcotest.test_case "repeat runs return identical rows in identical order" `Quick
      (fun () ->
        let db, sqls = uber_workload ~seed:17 ~count:15 in
        let db', _ = uber_workload ~seed:17 ~count:15 in
        List.iter
          (fun columnar ->
            with_columnar columnar (fun () ->
                List.iter
                  (fun sql ->
                    let first = Executor.run_sql db sql in
                    if not (same_result first (Executor.run_sql db sql)) then
                      Alcotest.failf "second run differs (%s)" sql;
                    if not (same_result first (Executor.run_sql db' sql)) then
                      Alcotest.failf "regenerated database answers differently (%s)" sql)
                  sqls))
          [ false; true ]);
    Alcotest.test_case "TPC-H queries agree 3-way with columnar" `Quick (fun () ->
        let db, _metrics = Flex_workload.Tpch.generate ~scale:0.002 (Rng.create ~seed:41 ()) in
        List.iter
          (fun (q : Flex_workload.Tpch.query) ->
            check_columnar_3way db q.sql;
            check_columnar_3way db (Flex_workload.Tpch.population_sql q.name))
          Flex_workload.Tpch.queries);
    Alcotest.test_case "top-K over 5,000 rows agrees 3-way with columnar" `Quick (fun () ->
        let db = big_sort_fixture () in
        List.iter (check_columnar_3way db)
          [
            "SELECT id, k FROM big ORDER BY k LIMIT 10";
            "SELECT id, k FROM big ORDER BY k DESC, id LIMIT 50";
            "SELECT id FROM big ORDER BY f, k DESC LIMIT 100 OFFSET 2500";
            "SELECT id FROM big ORDER BY k LIMIT 10 OFFSET 4990";
            "SELECT k, COUNT(*) FROM big GROUP BY k ORDER BY COUNT(*) DESC, k LIMIT 5";
            "SELECT id FROM big WHERE k > 20 ORDER BY f DESC LIMIT 7";
          ]);
  ]

let suites = suites @ [ ("shared-engine", shared_engine_tests) ]
