module Poly = Flex_dp.Poly
module Sens = Flex_dp.Sens
module Rng = Flex_dp.Rng
module Laplace = Flex_dp.Laplace
module Smooth = Flex_dp.Smooth
module Budget = Flex_dp.Budget
module Sparse_vector = Flex_dp.Sparse_vector

let check_float = Alcotest.(check (float 1e-9))

(* --- Poly ------------------------------------------------------------------- *)

let poly_gen =
  QCheck.Gen.(
    map
      (fun coeffs -> Poly.of_coeffs (Array.of_list coeffs))
      (list_size (int_range 0 5) (map (fun i -> float_of_int i) (int_range 0 50))))

let arb_poly = QCheck.make ~print:Poly.to_string poly_gen

let poly_tests =
  [
    Alcotest.test_case "constants" `Quick (fun () ->
        check_float "const" 5.0 (Poly.eval (Poly.const 5.0) 17);
        check_float "zero" 0.0 (Poly.eval Poly.zero 3);
        Alcotest.(check int) "degree of zero" (-1) (Poly.degree Poly.zero));
    Alcotest.test_case "linear evaluation" `Quick (fun () ->
        let p = Poly.linear 65.0 1.0 in
        check_float "at 0" 65.0 (Poly.eval p 0);
        check_float "at 19" 84.0 (Poly.eval p 19));
    Alcotest.test_case "multiplication degree" `Quick (fun () ->
        let p = Poly.mul (Poly.linear 1.0 2.0) (Poly.linear 3.0 4.0) in
        Alcotest.(check int) "degree" 2 (Poly.degree p);
        check_float "value at 2" (5.0 *. 11.0) (Poly.eval p 2));
    Alcotest.test_case "normalisation drops trailing zeros" `Quick (fun () ->
        let p = Poly.of_coeffs [| 1.0; 0.0; 0.0 |] in
        Alcotest.(check int) "degree" 0 (Poly.degree p));
    Alcotest.test_case "negative coefficients rejected" `Quick (fun () ->
        Alcotest.check_raises "invalid"
          (Invalid_argument "Poly.of_coeffs: coefficients must be non-negative")
          (fun () -> ignore (Poly.of_coeffs [| -1.0 |])));
    Alcotest.test_case "pretty printing" `Quick (fun () ->
        Alcotest.(check string) "131+2k" "131 + 2k" (Poly.to_string (Poly.linear 131.0 2.0));
        Alcotest.(check string) "zero" "0" (Poly.to_string Poly.zero));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"add is pointwise" ~count:200 (QCheck.pair arb_poly arb_poly)
         (fun (p, q) ->
           List.for_all
             (fun k -> Float.abs (Poly.eval (Poly.add p q) k -. (Poly.eval p k +. Poly.eval q k)) < 1e-6)
             [ 0; 1; 2; 7; 30 ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mul is pointwise" ~count:200 (QCheck.pair arb_poly arb_poly)
         (fun (p, q) ->
           List.for_all
             (fun k ->
               let lhs = Poly.eval (Poly.mul p q) k and rhs = Poly.eval p k *. Poly.eval q k in
               Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1.0 (Float.abs rhs))
             [ 0; 1; 2; 7; 30 ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"dominates implies pointwise geq" ~count:200
         (QCheck.pair arb_poly arb_poly) (fun (p, q) ->
           QCheck.assume (Poly.dominates p q);
           List.for_all (fun k -> Poly.eval p k >= Poly.eval q k -. 1e-9) [ 0; 1; 5; 40 ]));
  ]

(* --- Sens -------------------------------------------------------------------- *)

let arb_sens =
  QCheck.make ~print:Sens.to_string
    QCheck.Gen.(
      map
        (fun ps ->
          List.fold_left (fun acc p -> Sens.max_ acc (Sens.of_poly p)) Sens.zero ps)
        (list_size (int_range 1 4) poly_gen))

let sens_tests =
  [
    Alcotest.test_case "constructors" `Quick (fun () ->
        check_float "one at 9" 1.0 (Sens.eval Sens.one 9);
        check_float "linear" 67.0 (Sens.eval (Sens.linear 65.0 1.0) 2);
        Alcotest.(check bool) "zero is zero" true (Sens.is_zero Sens.zero));
    Alcotest.test_case "max keeps both branches" `Quick (fun () ->
        (* 100 (const) vs 2k: crossover at k = 50 *)
        let s = Sens.max_ (Sens.const 100.0) (Sens.linear 0.0 2.0) in
        check_float "below crossover" 100.0 (Sens.eval s 10);
        check_float "above crossover" 200.0 (Sens.eval s 100));
    Alcotest.test_case "domination pruning" `Quick (fun () ->
        let s = Sens.max_ (Sens.linear 5.0 1.0) (Sens.linear 3.0 1.0) in
        Alcotest.(check int) "single poly survives" 1 (List.length (Sens.polys s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"add distributes over max pointwise" ~count:200
         (QCheck.pair arb_sens arb_sens) (fun (a, b) ->
           List.for_all
             (fun k ->
               let lhs = Sens.eval (Sens.add a b) k and rhs = Sens.eval a k +. Sens.eval b k in
               Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1.0 rhs)
             [ 0; 1; 3; 10; 80 ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mul distributes over max pointwise" ~count:200
         (QCheck.pair arb_sens arb_sens) (fun (a, b) ->
           List.for_all
             (fun k ->
               let lhs = Sens.eval (Sens.mul a b) k and rhs = Sens.eval a k *. Sens.eval b k in
               Float.abs (lhs -. rhs) <= 1e-6 *. Float.max 1.0 rhs)
             [ 0; 1; 3; 10; 80 ]));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"max is pointwise max" ~count:200 (QCheck.pair arb_sens arb_sens)
         (fun (a, b) ->
           List.for_all
             (fun k ->
               Float.abs (Sens.eval (Sens.max_ a b) k -. Float.max (Sens.eval a k) (Sens.eval b k))
               < 1e-6)
             [ 0; 1; 3; 10; 80 ]));
  ]

(* --- Rng / Laplace ------------------------------------------------------------- *)

let laplace_tests =
  [
    Alcotest.test_case "determinism under equal seeds" `Quick (fun () ->
        let a = Rng.create ~seed:7 () and b = Rng.create ~seed:7 () in
        for _ = 1 to 100 do
          check_float "same draw" (Laplace.sample a ~scale:3.0) (Laplace.sample b ~scale:3.0)
        done);
    Alcotest.test_case "zero scale is noiseless" `Quick (fun () ->
        let rng = Rng.create () in
        check_float "no noise" 42.0 (Laplace.add_noise rng ~scale:0.0 42.0));
    Alcotest.test_case "empirical mean and variance" `Quick (fun () ->
        let rng = Rng.create ~seed:11 () in
        let n = 50_000 in
        let scale = 2.0 in
        let samples = Array.init n (fun _ -> Laplace.sample rng ~scale) in
        let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
          /. float_of_int n
        in
        Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.1);
        Alcotest.(check bool) "variance near 2b^2" true (Float.abs (var -. 8.0) < 0.8));
    Alcotest.test_case "cdf endpoints" `Quick (fun () ->
        check_float "median" 0.5 (Laplace.cdf ~scale:1.0 0.0);
        Alcotest.(check bool) "monotone" true
          (Laplace.cdf ~scale:1.0 1.0 > Laplace.cdf ~scale:1.0 (-1.0)));
    Alcotest.test_case "confidence width" `Quick (fun () ->
        (* P(|X| <= w) = 1 - alpha with w = -b ln(alpha) *)
        let w = Laplace.confidence_width ~scale:1.0 ~alpha:0.05 in
        check_float "analytic" (-.log 0.05) w);
    Alcotest.test_case "zipf is skewed" `Quick (fun () ->
        let rng = Rng.create ~seed:3 () in
        let table = Rng.zipf_table ~n:100 ~s:1.2 in
        let counts = Array.make 101 0 in
        for _ = 1 to 10_000 do
          let r = Rng.zipf rng table in
          counts.(r) <- counts.(r) + 1
        done;
        Alcotest.(check bool) "rank 1 most frequent" true
          (counts.(1) > counts.(10) && counts.(1) > counts.(50)));
  ]

(* --- Smooth sensitivity --------------------------------------------------------- *)

let smooth_tests =
  [
    Alcotest.test_case "beta formula" `Quick (fun () ->
        check_float "eps/2ln(2/delta)"
          (0.7 /. (2.0 *. log (2.0 /. 1e-8)))
          (Smooth.beta ~epsilon:0.7 ~delta:1e-8));
    Alcotest.test_case "constant sensitivity maximises at k=0" `Quick (fun () ->
        let r = Smooth.of_sens ~beta:0.01 (Sens.const 5.0) in
        check_float "bound" 5.0 r.Smooth.smooth_bound;
        Alcotest.(check int) "argmax" 0 r.Smooth.argmax_k);
    Alcotest.test_case "clamped by database size" `Quick (fun () ->
        let r = Smooth.of_sens ~beta:0.001 ~n:3 (Sens.linear 1.0 1.0) in
        Alcotest.(check bool) "argmax within n" true (r.Smooth.argmax_k <= 3));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"theorem 3 cutoff matches brute force" ~count:60 arb_sens
         (fun s ->
           QCheck.assume (not (Sens.is_zero s));
           let beta = 0.05 in
           let r = Smooth.of_sens ~beta s in
           let brute = ref 0.0 in
           for k = 0 to 2000 do
             let v = exp (-.beta *. float_of_int k) *. Sens.eval s k in
             if v > !brute then brute := v
           done;
           Float.abs (r.Smooth.smooth_bound -. !brute)
           <= 1e-9 *. Float.max 1.0 !brute));
    Alcotest.test_case "noise scale is 2S/eps" `Quick (fun () ->
        let r = Smooth.of_sens ~beta:0.01 (Sens.const 10.0) in
        check_float "scale" 200.0 (Smooth.noise_scale ~epsilon:0.1 r));
  ]

(* --- Budget ------------------------------------------------------------------------ *)

let budget_tests =
  [
    Alcotest.test_case "charges accumulate" `Quick (fun () ->
        let b = Budget.create ~epsilon:1.0 ~delta:1e-6 in
        Budget.charge b ~epsilon:0.3 ~delta:1e-7;
        Budget.charge b ~epsilon:0.3 ~delta:1e-7;
        let e, d = Budget.spent_basic b in
        check_float "eps" 0.6 e;
        check_float "delta" 2e-7 d);
    Alcotest.test_case "exhaustion raises" `Quick (fun () ->
        let b = Budget.create ~epsilon:0.5 ~delta:1e-6 in
        Budget.charge b ~epsilon:0.4 ~delta:0.0;
        Alcotest.(check bool) "cannot afford" false (Budget.can_afford b ~epsilon:0.2 ~delta:0.0);
        (match Budget.charge b ~epsilon:0.2 ~delta:0.0 with
        | () -> Alcotest.fail "expected Exhausted"
        | exception Budget.Exhausted _ -> ());
        let e, _ = Budget.spent_basic b in
        check_float "failed charge not recorded" 0.4 e);
    Alcotest.test_case "strong composition beats basic for many queries" `Quick (fun () ->
        let b = Budget.create ~epsilon:1000.0 ~delta:1.0 in
        for _ = 1 to 200 do
          Budget.charge b ~epsilon:0.05 ~delta:0.0
        done;
        let eb, _ = Budget.spent_basic b in
        let es, _ = Budget.spent_strong b in
        Alcotest.(check bool) "strong < basic" true (es < eb));
    Alcotest.test_case "remaining is clipped at zero" `Quick (fun () ->
        let b = Budget.create ~epsilon:0.1 ~delta:1e-6 in
        Budget.charge b ~epsilon:0.1 ~delta:1e-6;
        let e, d = Budget.remaining b in
        check_float "eps" 0.0 e;
        check_float "delta" 0.0 d);
    Alcotest.test_case "non-positive or non-finite limits are typed errors" `Quick
      (fun () ->
        let invalid ~epsilon ~delta field =
          (match Budget.create_checked ~epsilon ~delta with
          | Error { field = f; _ } -> Alcotest.(check string) "field" field f
          | Ok _ -> Alcotest.failf "accepted eps=%g delta=%g" epsilon delta);
          match Budget.create ~epsilon ~delta with
          | exception Budget.Invalid_budget { field = f; _ } ->
            Alcotest.(check string) "field (exn)" field f
          | _ -> Alcotest.failf "create accepted eps=%g delta=%g" epsilon delta
        in
        invalid ~epsilon:0.0 ~delta:1e-6 "epsilon";
        invalid ~epsilon:(-1.0) ~delta:1e-6 "epsilon";
        invalid ~epsilon:Float.nan ~delta:1e-6 "epsilon";
        invalid ~epsilon:Float.infinity ~delta:1e-6 "epsilon";
        invalid ~epsilon:1.0 ~delta:0.0 "delta";
        invalid ~epsilon:1.0 ~delta:Float.nan "delta";
        invalid ~epsilon:1.0 ~delta:Float.neg_infinity "delta";
        match Budget.create_checked ~epsilon:1.0 ~delta:1e-9 with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "rejected a valid budget: %a" Budget.pp_invalid e);
  ]

(* --- Sparse vector ------------------------------------------------------------------ *)

let sparse_vector_tests =
  [
    Alcotest.test_case "below threshold answers nothing" `Quick (fun () ->
        let rng = Rng.create ~seed:5 () in
        let sv = Sparse_vector.create rng ~epsilon:10.0 ~threshold:1000.0 in
        (match Sparse_vector.query sv ~sensitivity:1.0 1.0 with
        | Sparse_vector.Below -> ()
        | _ -> Alcotest.fail "expected Below");
        Alcotest.(check int) "answered" 0 (Sparse_vector.answered sv));
    Alcotest.test_case "clearly above threshold answers and halts" `Quick (fun () ->
        let rng = Rng.create ~seed:5 () in
        let sv = Sparse_vector.create rng ~epsilon:10.0 ~threshold:10.0 in
        (match Sparse_vector.query sv ~sensitivity:1.0 10_000.0 with
        | Sparse_vector.Above v -> Alcotest.(check bool) "near truth" true (Float.abs (v -. 10_000.0) < 100.0)
        | _ -> Alcotest.fail "expected Above");
        (match Sparse_vector.query sv ~sensitivity:1.0 10_000.0 with
        | Sparse_vector.Halted -> ()
        | _ -> Alcotest.fail "expected Halted"));
    Alcotest.test_case "multiple answers up to quota" `Quick (fun () ->
        let rng = Rng.create ~seed:9 () in
        let sv = Sparse_vector.create ~max_answers:3 rng ~epsilon:10.0 ~threshold:0.0 in
        let answers = ref 0 in
        for _ = 1 to 10 do
          match Sparse_vector.query sv ~sensitivity:1.0 1_000.0 with
          | Sparse_vector.Above _ -> incr answers
          | Sparse_vector.Below | Sparse_vector.Halted -> ()
        done;
        Alcotest.(check int) "three answers" 3 !answers);
  ]

let suites =
  [
    ("poly", poly_tests);
    ("sens", sens_tests);
    ("laplace", laplace_tests);
    ("smooth", smooth_tests);
    ("budget", budget_tests);
    ("sparse-vector", sparse_vector_tests);
  ]

(* --- Cauchy (appended) ---------------------------------------------------- *)

module Cauchy = Flex_dp.Cauchy

let cauchy_tests =
  [
    Alcotest.test_case "determinism and zero scale" `Quick (fun () ->
        let a = Rng.create ~seed:7 () and b = Rng.create ~seed:7 () in
        for _ = 1 to 50 do
          check_float "same draw" (Cauchy.sample a ~scale:2.0) (Cauchy.sample b ~scale:2.0)
        done;
        check_float "no noise" 0.0 (Cauchy.sample a ~scale:0.0));
    Alcotest.test_case "median is zero" `Quick (fun () ->
        let rng = Rng.create ~seed:13 () in
        let n = 20_000 in
        let below = ref 0 in
        for _ = 1 to n do
          if Cauchy.sample rng ~scale:1.0 < 0.0 then incr below
        done;
        let frac = float_of_int !below /. float_of_int n in
        Alcotest.(check bool) "about half below 0" true (Float.abs (frac -. 0.5) < 0.02));
    Alcotest.test_case "quartiles at +-scale" `Quick (fun () ->
        (* P(X <= scale) = 3/4 for a Cauchy centred at 0 *)
        check_float "cdf at scale" 0.75 (Cauchy.cdf ~scale:2.0 2.0);
        check_float "cdf at -scale" 0.25 (Cauchy.cdf ~scale:2.0 (-2.0)));
    Alcotest.test_case "mechanism constants" `Quick (fun () ->
        check_float "beta" (0.5 /. 6.0) (Cauchy.beta ~epsilon:0.5);
        check_float "scale" (6.0 *. 10.0 /. 0.5) (Cauchy.noise_scale ~epsilon:0.5 10.0));
    Alcotest.test_case "heavier tails than laplace" `Quick (fun () ->
        (* P(|X| > 20) is far larger for Cauchy(1) than Laplace(1) *)
        let cauchy_tail = 2.0 *. (1.0 -. Cauchy.cdf ~scale:1.0 20.0) in
        let laplace_tail = 2.0 *. (1.0 -. Laplace.cdf ~scale:1.0 20.0) in
        Alcotest.(check bool) "tail dominance" true (cauchy_tail > 100.0 *. laplace_tail));
  ]

let suites = suites @ [ ("cauchy", cauchy_tests) ]

(* --- Rng helpers (appended) -------------------------------------------------- *)

let rng_tests =
  [
    Alcotest.test_case "split produces an independent stream" `Quick (fun () ->
        let a = Rng.create ~seed:1 () in
        let b = Rng.split a in
        let xs = List.init 20 (fun _ -> Rng.int a 1000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1000) in
        Alcotest.(check bool) "streams differ" true (xs <> ys));
    Alcotest.test_case "uniform_pos never returns zero" `Quick (fun () ->
        let rng = Rng.create ~seed:2 () in
        for _ = 1 to 10_000 do
          let u = Rng.uniform_pos rng in
          if u <= 0.0 || u > 1.0 then Alcotest.failf "out of range: %f" u
        done);
    Alcotest.test_case "bernoulli respects its probability" `Quick (fun () ->
        let rng = Rng.create ~seed:3 () in
        let hits = ref 0 in
        for _ = 1 to 20_000 do
          if Rng.bernoulli rng 0.3 then incr hits
        done;
        let p = float_of_int !hits /. 20_000.0 in
        Alcotest.(check bool) "near 0.3" true (Float.abs (p -. 0.3) < 0.02));
    Alcotest.test_case "exponential has the requested mean" `Quick (fun () ->
        let rng = Rng.create ~seed:4 () in
        let total = ref 0.0 in
        for _ = 1 to 20_000 do
          total := !total +. Rng.exponential rng ~mean:5.0
        done;
        Alcotest.(check bool) "mean near 5" true (Float.abs ((!total /. 20_000.0) -. 5.0) < 0.3));
    Alcotest.test_case "gaussian moments" `Quick (fun () ->
        let rng = Rng.create ~seed:5 () in
        let n = 20_000 in
        let samples = Array.init n (fun _ -> Rng.gaussian rng ~mean:2.0 ~stddev:3.0) in
        let mean = Array.fold_left ( +. ) 0.0 samples /. float_of_int n in
        let var =
          Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples
          /. float_of_int n
        in
        Alcotest.(check bool) "mean" true (Float.abs (mean -. 2.0) < 0.1);
        Alcotest.(check bool) "variance" true (Float.abs (var -. 9.0) < 0.5));
    Alcotest.test_case "weighted_index follows the weights" `Quick (fun () ->
        let rng = Rng.create ~seed:6 () in
        let counts = Array.make 3 0 in
        for _ = 1 to 30_000 do
          let i = Rng.weighted_index rng [| 1.0; 2.0; 7.0 |] in
          counts.(i) <- counts.(i) + 1
        done;
        let share i = float_of_int counts.(i) /. 30_000.0 in
        Alcotest.(check bool) "10%" true (Float.abs (share 0 -. 0.1) < 0.02);
        Alcotest.(check bool) "20%" true (Float.abs (share 1 -. 0.2) < 0.02);
        Alcotest.(check bool) "70%" true (Float.abs (share 2 -. 0.7) < 0.02));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let rng = Rng.create ~seed:7 () in
        let a = Array.init 50 Fun.id in
        let b = Array.copy a in
        Rng.shuffle rng b;
        Alcotest.(check bool) "same multiset" true
          (List.sort compare (Array.to_list b) = Array.to_list a);
        Alcotest.(check bool) "actually moved" true (a <> b));
    Alcotest.test_case "split is reproducible from the seed" `Quick (fun () ->
        let children seed =
          let p = Rng.create ~seed () in
          List.init 3 (fun _ ->
              let c = Rng.split p in
              List.init 20 (fun _ -> Rng.int c 1_000_000))
        in
        Alcotest.(check (list (list int))) "same seed, same children" (children 42)
          (children 42);
        Alcotest.(check bool) "another seed, other children" true (children 42 <> children 43));
    Alcotest.test_case "successive splits differ and advance the parent" `Quick (fun () ->
        let draws r = List.init 20 (fun _ -> Rng.int r 1_000_000) in
        let p = Rng.create ~seed:8 () in
        let c1 = draws (Rng.split p) in
        let c2 = draws (Rng.split p) in
        Alcotest.(check bool) "siblings differ" true (c1 <> c2);
        let untouched = draws (Rng.create ~seed:8 ()) in
        Alcotest.(check bool) "the parent moved on" true (draws p <> untouched));
  ]

let suites = suites @ [ ("rng", rng_tests) ]
