(* A fixed-size flight recorder for finished requests: one mutex-guarded ring
   of exactly [capacity] slots, overwritten oldest-first. The memory bound is
   the point: capacity records, each holding the request line, outcome,
   budget charge and (when telemetry is on) the span tree. *)

type record = {
  seq : int;
  ts_ns : float;
  id : string option; (* client-supplied request id, when given *)
  analyst : string;
  sql : string;
  key : string option; (* canonical statement key, when the query factored *)
  outcome : string;
  epsilon : float;
  delta : float;
  duration_ns : float;
  trace : Span.view option;
}

type t = {
  lock : Mutex.t;
  ring : record option array;
  mutable seq : int; (* records ever written; the next write lands at [seq mod capacity] *)
}

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  { lock = Mutex.create (); ring = Array.make capacity None; seq = 0 }

let capacity t = Array.length t.ring

let record t ~ts_ns ?id ~analyst ~sql ?key ~outcome ?(epsilon = 0.0) ?(delta = 0.0)
    ~duration_ns ?trace () =
  Mutex.protect t.lock (fun () ->
      let seq = t.seq in
      t.ring.(seq mod Array.length t.ring) <-
        Some { seq; ts_ns; id; analyst; sql; key; outcome; epsilon; delta; duration_ns; trace };
      t.seq <- seq + 1)

let recorded t = Mutex.protect t.lock (fun () -> t.seq)

let snapshot ?limit t =
  Mutex.protect t.lock (fun () ->
      let cap = Array.length t.ring in
      let retained = min t.seq cap in
      let n = match limit with Some l when l >= 0 -> min l retained | _ -> retained in
      (* newest first: walk back from the last written slot *)
      List.init n (fun i -> Option.get t.ring.((t.seq - 1 - i) mod cap)))

(* --- JSON ---------------------------------------------------------------------- *)

let record_to_json b (r : record) =
  Buffer.add_string b
    (Printf.sprintf "{\"seq\":%d,\"ts_ns\":%s" r.seq (Textenc.number r.ts_ns));
  (match r.id with
  | Some id -> Buffer.add_string b (Printf.sprintf ",\"id\":\"%s\"" (Textenc.json_escape id))
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf ",\"analyst\":\"%s\",\"sql\":\"%s\"" (Textenc.json_escape r.analyst)
       (Textenc.json_escape r.sql));
  (match r.key with
  | Some k -> Buffer.add_string b (Printf.sprintf ",\"key\":\"%s\"" (Textenc.json_escape k))
  | None -> ());
  Buffer.add_string b
    (Printf.sprintf ",\"outcome\":\"%s\",\"epsilon\":%s,\"delta\":%s,\"duration_ns\":%s"
       (Textenc.json_escape r.outcome) (Textenc.number r.epsilon) (Textenc.number r.delta)
       (Textenc.number r.duration_ns));
  (match r.trace with
  | Some v ->
    Buffer.add_string b ",\"trace\":";
    Buffer.add_string b (Span.to_json v)
  | None -> ());
  Buffer.add_char b '}'

let to_json ?limit t =
  let rs = snapshot ?limit t in
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"capacity\":%d,\"recorded\":%d,\"flights\":[" (capacity t)
       (recorded t));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      record_to_json b r)
    rs;
  Buffer.add_string b "]}";
  Buffer.contents b
