(* Hot-path updates are single [Atomic]s; floats go through a CAS loop
   (Atomic on a boxed float compares the box read, so a lost race just
   retries). Registration and scraping are rare and take the registry
   mutex. *)

let rec atomic_add_float a v =
  let seen = Atomic.get a in
  if not (Atomic.compare_and_set a seen (seen +. v)) then atomic_add_float a v

module Counter = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.0
  let inc t v = if v > 0.0 then atomic_add_float t v
  let incr t = inc t 1.0
  let value t = Atomic.get t
end

module Gauge = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.0
  let set t v = Atomic.set t v
  let add t v = atomic_add_float t v
  let value t = Atomic.get t
end

module Histogram = struct
  type t = {
    upper : float array;
    counts : int Atomic.t array; (* one per bound + overflow *)
    sum : float Atomic.t;
  }

  let make upper =
    {
      upper;
      counts = Array.init (Array.length upper + 1) (fun _ -> Atomic.make 0);
      sum = Atomic.make 0.0;
    }

  (* first bucket whose upper bound admits [v]; the overflow slot otherwise *)
  let bucket_of t v =
    let n = Array.length t.upper in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= t.upper.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let observe t v =
    ignore (Atomic.fetch_and_add t.counts.(bucket_of t v) 1);
    atomic_add_float t.sum v

  let totals t = (Array.map Atomic.get t.counts, Atomic.get t.sum)

  let count t = fst (totals t) |> Array.fold_left ( + ) 0
  let sum t = snd (totals t)
end

let log_buckets ?(start = 1e-6) ?(factor = 2.0) ?(count = 24) () =
  Array.init count (fun i -> start *. (factor ** float_of_int i))

(* Histogram quantile estimate in the Prometheus style: find the bucket the
   rank lands in, interpolate linearly inside it (the first bucket's lower
   bound is 0), and clamp ranks beyond the last finite bound to that bound. *)
let estimate_quantile ~upper ~cumulative ~count q =
  if count <= 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int count in
    let n = Array.length upper in
    let rec find i =
      if i >= n then n else if float_of_int cumulative.(i) >= rank then i else find (i + 1)
    in
    let i = find 0 in
    if i >= n then Some (if n = 0 then 0.0 else upper.(n - 1))
    else
      let lo = if i = 0 then 0.0 else upper.(i - 1) in
      let hi = upper.(i) in
      let below = if i = 0 then 0 else cumulative.(i - 1) in
      let in_bucket = cumulative.(i) - below in
      if in_bucket <= 0 then Some hi
      else Some (lo +. ((hi -. lo) *. ((rank -. float_of_int below) /. float_of_int in_bucket)))
  end

(* --- registry ---------------------------------------------------------------- *)

type value =
  | Sample of float
  | Hist of { upper : float array; cumulative : int array; count : int; sum : float }

type sample = { labels : (string * string) list; value : value }
type family = { name : string; help : string; kind : string; samples : sample list }

type source =
  | Instrument of { labels : (string * string) list; read : unit -> value }
  | Callback of (unit -> ((string * string) list * float) list)

type fam = {
  f_name : string;
  f_help : string;
  f_kind : string;
  mutable sources : source list; (* reverse registration order *)
}

type t = { lock : Mutex.t; mutable fams : fam list (* reverse registration order *) }

let create () = { lock = Mutex.create (); fams = [] }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let register t ~name ~help ~kind source =
  with_lock t (fun () ->
      match List.find_opt (fun f -> f.f_name = name) t.fams with
      | Some f ->
        if f.f_kind <> kind then
          invalid_arg
            (Printf.sprintf "Registry: %s already registered as a %s (not a %s)" name f.f_kind
               kind);
        f.sources <- source :: f.sources
      | None -> t.fams <- { f_name = name; f_help = help; f_kind = kind; sources = [ source ] } :: t.fams)

let counter t ?(help = "") ?(labels = []) name =
  let c = Counter.make () in
  register t ~name ~help ~kind:"counter"
    (Instrument { labels; read = (fun () -> Sample (Counter.value c)) });
  c

let gauge t ?(help = "") ?(labels = []) name =
  let g = Gauge.make () in
  register t ~name ~help ~kind:"gauge"
    (Instrument { labels; read = (fun () -> Sample (Gauge.value g)) });
  g

let histogram t ?(help = "") ?(labels = []) ?buckets name =
  let upper = match buckets with Some b -> b | None -> log_buckets () in
  let h = Histogram.make upper in
  let read () =
    let counts, sum = Histogram.totals h in
    let n = Array.length upper in
    let cumulative = Array.make n 0 in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := !acc + counts.(i);
      cumulative.(i) <- !acc
    done;
    Hist { upper; cumulative; count = !acc + counts.(n); sum }
  in
  register t ~name ~help ~kind:"histogram" (Instrument { labels; read });
  h

let collect t ?(help = "") ~kind name f =
  let kind = match kind with `Counter -> "counter" | `Gauge -> "gauge" in
  register t ~name ~help ~kind (Callback f)

let snapshot t =
  let fams = with_lock t (fun () -> List.rev t.fams) in
  List.map
    (fun f ->
      let samples =
        List.concat_map
          (fun source ->
            match source with
            | Instrument { labels; read } -> (
              match read () with
              | v -> [ { labels; value = v } ]
              | exception _ -> [])
            | Callback cb -> (
              match cb () with
              | series -> List.map (fun (labels, v) -> { labels; value = Sample v }) series
              | exception _ -> []))
          (List.rev f.sources)
      in
      { name = f.f_name; help = f.f_help; kind = f.f_kind; samples })
    fams

(* --- Prometheus text exposition ---------------------------------------------- *)

let labels_string labels =
  match labels with
  | [] -> ""
  | _ ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (Textenc.prom_label_escape v)) labels)
    ^ "}"

let to_prometheus t =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun f ->
      if f.help <> "" then line "# HELP %s %s" f.name (Textenc.prom_help_escape f.help);
      line "# TYPE %s %s" f.name f.kind;
      List.iter
        (fun s ->
          match s.value with
          | Sample v -> line "%s%s %s" f.name (labels_string s.labels) (Textenc.number v)
          | Hist { upper; cumulative; count; sum } ->
            Array.iteri
              (fun i u ->
                line "%s_bucket%s %d" f.name
                  (labels_string (s.labels @ [ ("le", Textenc.number u) ]))
                  cumulative.(i))
              upper;
            line "%s_bucket%s %d" f.name (labels_string (s.labels @ [ ("le", "+Inf") ])) count;
            line "%s_sum%s %s" f.name (labels_string s.labels) (Textenc.number sum);
            line "%s_count%s %d" f.name (labels_string s.labels) count)
        f.samples)
    (snapshot t);
  Buffer.contents b

(* --- JSON --------------------------------------------------------------------- *)

let to_json t =
  let b = Buffer.create 4096 in
  let str s = Buffer.add_char b '"'; Buffer.add_string b (Textenc.json_escape s); Buffer.add_char b '"' in
  let sep first = if !first then first := false else Buffer.add_char b ',' in
  Buffer.add_string b "{\"families\":[";
  let ffirst = ref true in
  List.iter
    (fun f ->
      sep ffirst;
      Buffer.add_string b "{\"name\":";
      str f.name;
      Buffer.add_string b ",\"kind\":";
      str f.kind;
      Buffer.add_string b ",\"help\":";
      str f.help;
      Buffer.add_string b ",\"samples\":[";
      let sfirst = ref true in
      List.iter
        (fun s ->
          sep sfirst;
          Buffer.add_string b "{\"labels\":{";
          let lfirst = ref true in
          List.iter
            (fun (k, v) ->
              sep lfirst;
              str k;
              Buffer.add_char b ':';
              str v)
            s.labels;
          Buffer.add_string b "}";
          (match s.value with
          | Sample v ->
            Buffer.add_string b ",\"value\":";
            Buffer.add_string b (Textenc.number v)
          | Hist { upper; cumulative; count; sum } ->
            Buffer.add_string b (Printf.sprintf ",\"count\":%d,\"sum\":%s,\"buckets\":[" count (Textenc.number sum));
            let bfirst = ref true in
            Array.iteri
              (fun i u ->
                sep bfirst;
                Buffer.add_string b
                  (Printf.sprintf "{\"le\":%s,\"count\":%d}" (Textenc.number u) cumulative.(i)))
              upper;
            Buffer.add_string b "]";
            (match
               ( estimate_quantile ~upper ~cumulative ~count 0.5,
                 estimate_quantile ~upper ~cumulative ~count 0.95,
                 estimate_quantile ~upper ~cumulative ~count 0.99 )
             with
            | Some p50, Some p95, Some p99 ->
              Buffer.add_string b
                (Printf.sprintf ",\"quantiles\":{\"p50\":%s,\"p95\":%s,\"p99\":%s}"
                   (Textenc.number p50) (Textenc.number p95) (Textenc.number p99))
            | _ -> ()));
          Buffer.add_string b "}")
        f.samples;
      Buffer.add_string b "]}")
    (snapshot t);
  Buffer.add_string b "]}";
  Buffer.contents b
