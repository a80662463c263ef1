(* A growable array used as the executor's row container. Replaces the
   linked-list row plumbing: O(1) amortised append, O(1) indexing, and
   constant-factor-cheap slicing for LIMIT/OFFSET. Polymorphic so the same
   module carries rows ([Value.t array]) and auxiliary index vectors. *)

type 'a t = { mutable data : 'a array; mutable len : int }

let create () : 'a t = { data = [||]; len = 0 }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Row_vec.get";
  v.data.(i)

let unsafe_get v i = Array.unsafe_get v.data i

let push v x =
  if v.len = Array.length v.data then begin
    let cap = if v.len = 0 then 16 else 2 * v.len in
    let data = Array.make cap x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

let of_array a = { data = Array.copy a; len = Array.length a }

let wrap a = { data = a; len = Array.length a }

let to_array v = Array.sub v.data 0 v.len

let to_list v =
  let rec go i acc = if i < 0 then acc else go (i - 1) (v.data.(i) :: acc) in
  go (v.len - 1) []

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let map f v =
  if v.len = 0 then create ()
  else begin
    (* exact-size allocation; elements filled in order *)
    let data = Array.make v.len (f (Array.unsafe_get v.data 0)) in
    for i = 1 to v.len - 1 do
      Array.unsafe_set data i (f (Array.unsafe_get v.data i))
    done;
    { data; len = v.len }
  end

let filter p v =
  let out = create () in
  iter (fun x -> if p x then push out x) v;
  out

let fold_left f acc v =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) v;
  !acc

(* [slice v ~offset ~limit] clamps both bounds, so any combination of
   LIMIT/OFFSET (including out-of-range or negative) is safe — this subsumes
   the old non-tail-recursive [take]/[drop] on lists. *)
let slice v ~offset ~limit =
  let offset = max 0 offset in
  let start = min offset v.len in
  let avail = v.len - start in
  let n = match limit with None -> avail | Some l -> max 0 (min l avail) in
  { data = Array.sub v.data start n; len = n }
