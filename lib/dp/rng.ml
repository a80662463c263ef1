type t = Random.State.t

let create ?(seed = 0x5eed) () = Random.State.make [| seed; seed lxor 0x9e3779b9 |]

let split t =
  let s1 = Random.State.bits t and s2 = Random.State.bits t in
  Random.State.make [| s1; s2 |]

let float t bound = Random.State.float t bound

let int t bound = Random.State.int t bound

let bool t = Random.State.bool t

(* Uniform in (0, 1]: never returns 0.0, safe as a log argument. *)
let uniform_pos t =
  let u = Random.State.float t 1.0 in
  if u > 0.0 then u else 1.0

(* Bernoulli trial with success probability [p]. *)
let bernoulli t p = Random.State.float t 1.0 < p

(* Standard exponential via inverse CDF. *)
let exponential t ~mean = -.mean *. log (uniform_pos t)

(* Standard normal via Box-Muller; used by data generators, not mechanisms. *)
let gaussian t ~mean ~stddev =
  let u1 = uniform_pos t and u2 = Random.State.float t 1.0 in
  mean +. (stddev *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* Zipf-distributed rank in [1, n] with exponent [s], by inverse-CDF table
   lookup. Used to give join keys realistically skewed frequencies. *)
let zipf_table ~n ~s =
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  cdf

let zipf t cdf =
  let u = Random.State.float t 1.0 in
  (* Binary search for the first index whose cdf exceeds u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  1 + search 0 (Array.length cdf - 1)

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array"
  else a.(Random.State.int t (Array.length a))

(* Pick an index according to the given non-negative weights. *)
let weighted_index t weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: weights sum to zero";
  let u = Random.State.float t total in
  let n = Array.length weights in
  let rec go i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else go (i + 1) acc
  in
  go 0 0.0
