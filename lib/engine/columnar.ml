module Ast = Flex_sql.Ast
module Vec = Row_vec

(* Columnar batch execution over {!Chunk} columns. The recognizer accepts a
   subset of queries — single-table scans and left-deep INNER equijoins with
   conjunctive filters, column projections/group keys, and the standard
   aggregates — and runs them through vectorized kernels: filters become
   selection vectors over typed arrays (no row materialisation), the hash
   equijoin extracts keys column-wise (with the dense-int counting-sort fast
   path of the row engine), GROUP BY aggregates accumulate into per-group
   typed arrays, and ORDER BY+LIMIT runs {!Key_sort} top-K over column key
   arrays. Everything else returns [None] and the row pipeline runs as
   before.

   Bit-identity contract: for every accepted query, the result must be
   bit-identical to the row pipeline — same rows, same order, same float
   bits — because DP releases must not change when this engine is toggled.
   The kernels therefore replicate the row pipeline's evaluation orders
   exactly (probe-side row order in joins with build-row-order candidates,
   first-appearance group order, ascending per-group accumulation, the
   sort tiebreak on row index), and output cells are fetched as the
   already-boxed values of the original table rows wherever possible.
   Anywhere a divergence cannot be ruled out statically, the recognizer
   bails; anywhere the row pipeline could raise a semantic error that the
   columnar plan might not (it evaluates filters on pre-join supersets, so
   its error set is a superset — never a subset — of the row pipeline's),
   errors are caught and the query falls back to the row path, which then
   decides between result and error exactly as before. *)

type header = Compiled.header = { alias : string option; name : string }

type result_set = { chead : header array; crows : Value.t array Vec.t }

let enabled = ref true

(* Raised when recognition or execution leaves the supported subset;
   callers translate it to [None]. *)
exception Fallback

let fallback : unit -> 'a = fun () -> raise Fallback

let two_53 = 9007199254740992

(* --- recognition ----------------------------------------------------------- *)

let no_subquery e = Ast.expr_subqueries e = []

let has_aggregate e =
  Ast.fold_expr (fun acc e -> acc || match e with Ast.Agg _ -> true | _ -> false) false e

let plain_expr e = if (not (no_subquery e)) || has_aggregate e then fallback ()

type step = {
  s_table : Table.t;
  s_alias : string option;
  s_cond : Ast.expr option; (* ON condition joining this table to the prefix *)
  mutable s_groups : (Ast.expr list * bool) list;
      (* predicate groups in application order; a group is the per-table
         slice of one source predicate's conjuncts, flagged [true] when the
         source predicate had several (so non-boolean conjunct values must
         fall back: the row engine's AND would error) *)
}

let step_of_table db name alias cond =
  match Database.find_opt db name with
  | None -> fallback ()
  | Some t ->
      let alias = match alias with Some a -> Some a | None -> Some (Table.name t) in
      { s_table = t; s_alias = alias; s_cond = cond; s_groups = [] }

let rec flatten_tref db (tr : Ast.table_ref) acc =
  match tr with
  | Ast.Table { name; alias } -> step_of_table db name alias None :: acc
  | Ast.Join { kind = Ast.Inner; left; right = Ast.Table { name; alias }; cond = Ast.On e }
    ->
      flatten_tref db left (step_of_table db name alias (Some e) :: acc)
  | _ -> fallback ()

(* A plan-side scan chain: Filter* over Scan, predicates innermost first. *)
let rec scan_chain db (r : Plan.rel) preds =
  match r with
  | Plan.Filter { pred; input } -> scan_chain db input (pred :: preds)
  | Plan.Scan { table; alias } -> (step_of_table db table (Some alias) None, preds)
  | _ -> fallback ()

let rec is_scan_chain = function
  | Plan.Scan _ -> true
  | Plan.Filter { input; _ } -> is_scan_chain input
  | _ -> false

(* Steps left to right, plus predicates sitting above join subtrees, each
   with the number of prefix tables its columns must resolve within. *)
let rec flatten_rel db (r : Plan.rel) : (step * Ast.expr list) list * (int * Ast.expr) list
    =
  match r with
  | Plan.Scan _ -> ([ scan_chain db r [] ], [])
  | Plan.Filter { input; pred } ->
      if is_scan_chain r then ([ scan_chain db r [] ], [])
      else begin
        let steps, preds = flatten_rel db input in
        (steps, preds @ [ (List.length steps, pred) ])
      end
  | Plan.Join { kind = Ast.Inner; cond = Ast.On e; build_left = false; left; right } ->
      let steps, preds = flatten_rel db left in
      let step, sfs = scan_chain db right [] in
      (steps @ [ ({ step with s_cond = Some e }, sfs) ], preds)
  | _ -> fallback ()

(* --- the slab: combined headers over per-table chunks ----------------------- *)

type ctx = {
  chunks : Chunk.t array;
  headers : header array; (* full combined, alias-qualified *)
  col_tbl : int array; (* combined column -> table index *)
  col_off : int array; (* combined column -> offset within its table *)
  tbl_start : int array; (* table index -> first combined column *)
}

(* Logical rows over the joined tables: [n] rows, each mapping through
   [maps.(t)] to a physical row of table [t] ([None] = identity). Map
   composition after a join is lazy: tables never read downstream (not
   projected, ordered, grouped or join-probed) never pay for it. *)
type slab = { n : int; maps : int array option Lazy.t array }

let map_of (slab : slab) t = Lazy.force slab.maps.(t)

let ctx_of_steps (steps : step array) : ctx =
  let chunks = Array.map (fun s -> Chunk.of_table s.s_table) steps in
  let headers = Vec.create () and col_tbl = Vec.create () and col_off = Vec.create () in
  let tbl_start = Array.make (Array.length steps) 0 in
  Array.iteri
    (fun t (s : step) ->
      tbl_start.(t) <- Vec.length headers;
      Array.iteri
        (fun j name ->
          Vec.push headers { alias = s.s_alias; name };
          Vec.push col_tbl t;
          Vec.push col_off j)
        (Table.columns s.s_table))
    steps;
  {
    chunks;
    headers = Vec.to_array headers;
    col_tbl = Vec.to_array col_tbl;
    col_off = Vec.to_array col_off;
    tbl_start;
  }

let phys_of (slab : slab) t : int -> int =
  match map_of slab t with None -> (fun i -> i) | Some m -> fun i -> m.(i)

(* Boxed cell fetch by logical row, through the original table rows. *)
let fetcher ctx (slab : slab) ci : int -> Value.t =
  let t = ctx.col_tbl.(ci) in
  let rows = ctx.chunks.(t).Chunk.rows and off = ctx.col_off.(ci) in
  match map_of slab t with
  | None -> fun i -> rows.(i).(off)
  | Some m -> fun i -> rows.(m.(i)).(off)

(* Resolve a column reference and check it lands in table [t]. *)
let resolve_in ctx t (c : Ast.col_ref) =
  match Compiled.resolve_opt ctx.headers c with
  | Some ci when ctx.col_tbl.(ci) = t -> ci
  | _ -> fallback ()

let value_of_lit : Ast.lit -> Value.t = function
  | Ast.Null -> Value.Null
  | Ast.Bool b -> Value.Bool b
  | Ast.Int i -> Value.Int i
  | Ast.Float f -> Value.Float f
  | Ast.String s -> Value.String s

(* --- filter kernels --------------------------------------------------------- *)

(* A compiled per-table predicate over physical row indices. Typed kernels
   are total (no errors, Bool/Null results only); generic ones evaluate a
   compiled closure over a scratch row and surface the raw value so the
   caller can replicate 3-valued AND semantics. *)
type pred = P_typed of (int -> bool) | P_generic of (int -> Value.t)

let test_op (op : Ast.binop) (c : int) =
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0
  | _ -> assert false

let flip_op : Ast.binop -> Ast.binop = function
  | Ast.Lt -> Ast.Gt
  | Ast.Le -> Ast.Ge
  | Ast.Gt -> Ast.Lt
  | Ast.Ge -> Ast.Le
  | op -> op

let not_null_fn (col : Chunk.col) : int -> bool =
  match col.Chunk.data with
  | Chunk.Strings s -> fun p -> s.Chunk.codes.(p) >= 0
  | _ -> (
      match col.Chunk.nulls with
      | None -> fun _ -> true
      | Some m -> fun p -> not m.(p))

(* Value.compare's rank for every value a typed column can hold. *)
let col_rank (d : Chunk.data) =
  match d with Chunk.Ints _ | Chunk.Floats _ -> 2 | Chunk.Strings _ -> 3 | Chunk.Boxed -> 0

let lit_rank : Value.t -> int = function
  | Value.Null -> 0
  | Value.Bool _ -> 1
  | Value.Int _ | Value.Float _ -> 2
  | Value.String _ -> 3

(* column-vs-literal comparison: SQL 3-valued — NULL operand drops the row *)
let col_vs_lit (col : Chunk.col) op (lit : Value.t) : pred option =
  let nn = not_null_fn col in
  let const_rank () =
    (* ranks differ for every non-NULL cell, so the comparison is constant *)
    if Value.is_null lit then Some (P_typed (fun _ -> false))
    else begin
      let c = compare (col_rank col.Chunk.data) (lit_rank lit) in
      if test_op op c then Some (P_typed nn) else Some (P_typed (fun _ -> false))
    end
  in
  match (col.Chunk.data, lit) with
  | Chunk.Boxed, _ -> None
  | Chunk.Ints a, Value.Int k -> Some (P_typed (fun p -> nn p && test_op op (compare a.(p) k)))
  | Chunk.Ints a, Value.Float f ->
      Some (P_typed (fun p -> nn p && test_op op (compare (float_of_int a.(p)) f)))
  | Chunk.Floats a, Value.Int k ->
      let f = float_of_int k in
      Some (P_typed (fun p -> nn p && test_op op (compare (a.(p) : float) f)))
  | Chunk.Floats a, Value.Float f ->
      Some (P_typed (fun p -> nn p && test_op op (compare (a.(p) : float) f)))
  | Chunk.Strings s, Value.String v -> (
      match op with
      | Ast.Eq -> (
          match Chunk.dict_code s v with
          | Some c -> Some (P_typed (fun p -> s.Chunk.codes.(p) = c))
          | None -> Some (P_typed (fun _ -> false)))
      | Ast.Neq -> (
          match Chunk.dict_code s v with
          | Some c ->
              Some
                (P_typed
                   (fun p ->
                     let x = s.Chunk.codes.(p) in
                     x >= 0 && x <> c))
          | None -> Some (P_typed (fun p -> s.Chunk.codes.(p) >= 0)))
      | _ ->
          Some
            (P_typed
               (fun p ->
                 s.Chunk.codes.(p) >= 0 && test_op op (compare (s.Chunk.vals.(p) : string) v)))
      )
  | (Chunk.Ints _ | Chunk.Floats _ | Chunk.Strings _), _ -> const_rank ()

let col_vs_col (ca : Chunk.col) op (cb : Chunk.col) : pred option =
  let nna = not_null_fn ca and nnb = not_null_fn cb in
  match (ca.Chunk.data, cb.Chunk.data) with
  | Chunk.Boxed, _ | _, Chunk.Boxed -> None
  | Chunk.Ints a, Chunk.Ints b ->
      Some (P_typed (fun p -> nna p && nnb p && test_op op (compare a.(p) b.(p))))
  | Chunk.Floats a, Chunk.Floats b ->
      Some (P_typed (fun p -> nna p && nnb p && test_op op (compare (a.(p) : float) b.(p))))
  | Chunk.Ints a, Chunk.Floats b ->
      Some
        (P_typed (fun p -> nna p && nnb p && test_op op (compare (float_of_int a.(p)) b.(p))))
  | Chunk.Floats a, Chunk.Ints b ->
      Some
        (P_typed
           (fun p -> nna p && nnb p && test_op op (compare (a.(p) : float) (float_of_int b.(p)))))
  | Chunk.Strings a, Chunk.Strings b ->
      Some
        (P_typed
           (fun p ->
             a.Chunk.codes.(p) >= 0
             && b.Chunk.codes.(p) >= 0
             && test_op op (compare (a.Chunk.vals.(p) : string) b.Chunk.vals.(p))))
  | da, db ->
      (* distinct typed ranks: constant comparison wherever both non-NULL *)
      let c = compare (col_rank da) (col_rank db) in
      if test_op op c then Some (P_typed (fun p -> nna p && nnb p))
      else Some (P_typed (fun _ -> false))

(* Never-called subquery hook: recognition already rejected subqueries. *)
let no_subquery_fn : Compiled.subquery = fun _ _ -> fallback ()

(* Compile one conjunct into a per-physical-row predicate for table [t]. *)
let compile_pred ctx t (e : Ast.expr) : pred =
  let chunk = ctx.chunks.(t) in
  let col_of c = chunk.Chunk.cols.(ctx.col_off.(resolve_in ctx t c)) in
  let typed =
    match e with
    | Ast.Binop (((Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge) as op), a, b) -> (
        match (a, b) with
        | Ast.Col c, Ast.Lit l -> col_vs_lit (col_of c) op (value_of_lit l)
        | Ast.Lit l, Ast.Col c -> col_vs_lit (col_of c) (flip_op op) (value_of_lit l)
        | Ast.Col c1, Ast.Col c2 -> col_vs_col (col_of c1) op (col_of c2)
        | _ -> None)
    | Ast.Is_null { subject = Ast.Col c; negated } ->
        let ci = resolve_in ctx t c in
        let col = chunk.Chunk.cols.(ctx.col_off.(ci)) in
        let isnull =
          match col.Chunk.data with
          | Chunk.Strings s -> fun p -> s.Chunk.codes.(p) < 0
          | Chunk.Boxed ->
              let rows = chunk.Chunk.rows and off = ctx.col_off.(ci) in
              fun p -> Value.is_null rows.(p).(off)
          | _ -> (
              match col.Chunk.nulls with
              | None -> fun _ -> false
              | Some m -> fun p -> m.(p))
        in
        Some (P_typed (if negated then fun p -> not (isnull p) else isnull))
    | _ -> None
  in
  match typed with
  | Some p -> p
  | None ->
      (* generic: compile against the combined headers, evaluate over a
         scratch row filled with just this conjunct's columns *)
      let needed =
        List.map
          (fun c ->
            let ci = resolve_in ctx t c in
            (ci, ctx.col_off.(ci)))
          (Ast.expr_columns e)
      in
      let closure =
        Compiled.compile ~subquery:no_subquery_fn ~headers:ctx.headers ~outer:[] e
      in
      let scratch = Array.make (Array.length ctx.headers) Value.Null in
      let rows = chunk.Chunk.rows in
      P_generic
        (fun p ->
          List.iter (fun (ci, off) -> scratch.(ci) <- rows.(p).(off)) needed;
          closure scratch)

(* Apply one predicate group to the surviving physical rows of a table.
   Within a group every generic conjunct is evaluated on every input row —
   the row engine's AND evaluates all operands before combining, so its
   error/3-valued behaviour depends on all of them — while typed conjuncts
   (total, error-free) may short-circuit each other. *)
let apply_group (chunk : Chunk.t) (sel : int array option) (conjs : Ast.expr list)
    ~strict ~(compile : Ast.expr -> pred) : int array option =
  let preds = List.map compile conjs in
  let typed = List.filter_map (function P_typed f -> Some f | _ -> None) preds in
  let gens = List.filter_map (function P_generic g -> Some g | _ -> None) preds in
  let keep p =
    let ok = ref (List.for_all (fun f -> f p) typed) in
    List.iter
      (fun g ->
        match g p with
        | Value.Bool true -> ()
        | Value.Bool false | Value.Null -> ok := false
        | _ ->
            (* the row engine's AND raises on non-boolean operands; a lone
               conjunct just falls to is_truthy = false *)
            if strict then fallback () else ok := false)
      gens;
    !ok
  in
  let out = Vec.create () in
  (match sel with
  | None ->
      for p = 0 to chunk.Chunk.n - 1 do
        if keep p then Vec.push out p
      done
  | Some s -> Array.iter (fun p -> if keep p then Vec.push out p) s);
  Some (Vec.to_array out)

let selection_of ctx t (s : step) : int array option =
  let compile = compile_pred ctx t in
  List.fold_left
    (fun sel (conjs, strict) ->
      apply_group ctx.chunks.(t) sel conjs ~strict ~compile)
    None s.s_groups

(* --- hash equijoin ---------------------------------------------------------- *)

let small_int v = v > -two_53 && v < two_53

(* Join the accumulated slab (probe side, logical row order preserved) with
   table [bt]'s filtered rows (build side) on [probe_ci = build col]. The
   candidate order per key is the build side's ascending row order and the
   output follows the probe scan — exactly the row engine's hash join. *)
let join_step ctx (slab : slab) ~bt ~probe_ci ~build_off (bsel : int array option) : slab =
  let bchunk = ctx.chunks.(bt) in
  let bcol = bchunk.Chunk.cols.(build_off) in
  let nb = match bsel with None -> bchunk.Chunk.n | Some s -> Array.length s in
  let iter_build f =
    match bsel with
    | None ->
        for p = 0 to bchunk.Chunk.n - 1 do
          f p
        done
    | Some s -> Array.iter f s
  in
  let pt = ctx.col_tbl.(probe_ci) in
  let pcol = ctx.chunks.(pt).Chunk.cols.(ctx.col_off.(probe_ci)) in
  let pphys = phys_of slab pt in
  let pnn = not_null_fn pcol in
  let pfetch = fetcher ctx slab probe_ci in
  let pmap = map_of slab pt in
  (* probe-side key extraction mirroring Row_table.int_key_of *)
  let probe_int : (int -> int option) Lazy.t =
    lazy
      (match pcol.Chunk.data with
      | Chunk.Ints a ->
          fun i ->
            let p = pphys i in
            if pnn p && small_int a.(p) then Some a.(p) else None
      | Chunk.Floats _ | Chunk.Boxed ->
          fun i ->
            let v = pfetch i in
            if Value.is_null v then None else Row_table.int_key_of v
      | Chunk.Strings _ -> fun _ -> None)
  in
  let probe_str : (int -> string option) Lazy.t =
    lazy
      (match pcol.Chunk.data with
      | Chunk.Strings s ->
          fun i ->
            let p = pphys i in
            if s.Chunk.codes.(p) >= 0 then Some s.Chunk.vals.(p) else None
      | Chunk.Boxed -> (
          fun i -> match pfetch i with Value.String s -> Some s | _ -> None)
      | _ -> fun _ -> None)
  in
  let np = slab.n in
  (* Generic emit: probe rows in logical order, candidates per probe row in
     build row order, through a per-strategy candidate iterator. One closure
     for the whole loop, not one per probe row. *)
  let emit_generic (cand : int -> (int -> unit) -> unit) : int array * int array =
    let op = Vec.create () and ob = Vec.create () in
    let cur = ref 0 in
    let push p =
      Vec.push op !cur;
      Vec.push ob p
    in
    for i = 0 to np - 1 do
      cur := i;
      cand i push
    done;
    (Vec.to_array op, Vec.to_array ob)
  in
  (* Strategy selection replicates the row join: dense counting-sort for
     small-int keys in a modest range, then an unboxed int-keyed table, a
     string table (scalar-keyed in the row engine, but only strings can
     match a string column), or the boxed scalar table. *)
  let opa, oba =
    match bcol.Chunk.data with
    | Chunk.Ints a -> (
        (* valid (key, physical row) pairs in build row order; monomorphic.
           An unselected null-free column is its own key array ([kphys] =
           identity, no copies at all). *)
        let keys, kphys, nk =
          match (bsel, bcol.Chunk.nulls) with
          | None, None -> (a, None, bchunk.Chunk.n)
          | None, Some mask ->
              let keys = Array.make (max nb 1) 0 and kp = Array.make (max nb 1) 0 in
              let nk = ref 0 in
              for p = 0 to bchunk.Chunk.n - 1 do
                if not mask.(p) then begin
                  keys.(!nk) <- a.(p);
                  kp.(!nk) <- p;
                  incr nk
                end
              done;
              (keys, Some kp, !nk)
          | Some s, None ->
              let keys = Array.make (max nb 1) 0 and kp = Array.make (max nb 1) 0 in
              for q = 0 to Array.length s - 1 do
                let p = s.(q) in
                keys.(q) <- a.(p);
                kp.(q) <- p
              done;
              (keys, Some kp, Array.length s)
          | Some s, Some mask ->
              let keys = Array.make (max nb 1) 0 and kp = Array.make (max nb 1) 0 in
              let nk = ref 0 in
              for q = 0 to Array.length s - 1 do
                let p = s.(q) in
                if not mask.(p) then begin
                  keys.(!nk) <- a.(p);
                  kp.(!nk) <- p;
                  incr nk
                end
              done;
              (keys, Some kp, !nk)
        in
        let all_small = ref true in
        let lo = ref max_int and hi = ref min_int in
        for q = 0 to nk - 1 do
          let v = keys.(q) in
          if not (small_int v) then all_small := false;
          if v < !lo then lo := v;
          if v > !hi then hi := v
        done;
        if not !all_small then begin
          (* the row engine would use the boxed scalar table *)
          let tbl : int Vec.t Row_table.Scalar.t = Row_table.Scalar.create (max 16 nb) in
          for q = 0 to nk - 1 do
            let v = Value.Int keys.(q) in
            let p = match kphys with None -> q | Some kp -> kp.(q) in
            match Row_table.Scalar.find_opt tbl v with
            | Some cell -> Vec.push cell p
            | None ->
                let cell = Vec.create () in
                Vec.push cell p;
                Row_table.Scalar.replace tbl v cell
          done;
          emit_generic (fun i f ->
              let v = pfetch i in
              if not (Value.is_null v) then
                match Row_table.Scalar.find_opt tbl v with
                | None -> ()
                | Some cell -> Vec.iter f cell)
        end
        else begin
          let lo = !lo and hi = !hi in
          let range = if nk = 0 then 0 else hi - lo + 1 in
          if range > 0 && range <= max 1024 (8 * nb) then begin
            (* dense id keys: counting-sort buckets, no hashing at all *)
            (* counting sort without a separate cursor array: count into
               [starts], inclusive prefix sum (so [starts.(b)] = bucket end),
               then fill in descending [q] with [starts.(b)] as a falling
               cursor. Descending order into falling positions keeps
               build-row order inside each bucket, and the cursor comes to
               rest at the bucket start, restoring the usual
               [starts.(b) .. starts.(b+1)-1] layout for the probe. *)
            let starts = Array.make (range + 1) 0 in
            for q = 0 to nk - 1 do
              let b = keys.(q) - lo in
              starts.(b) <- starts.(b) + 1
            done;
            for i = 1 to range - 1 do
              starts.(i) <- starts.(i) + starts.(i - 1)
            done;
            starts.(range) <- nk;
            let items = Array.make (max nk 1) 0 in
            (match kphys with
            | None ->
                for q = nk - 1 downto 0 do
                  let b = keys.(q) - lo in
                  let pos = starts.(b) - 1 in
                  starts.(b) <- pos;
                  items.(pos) <- q
                done
            | Some kp ->
                for q = nk - 1 downto 0 do
                  let b = keys.(q) - lo in
                  let pos = starts.(b) - 1 in
                  starts.(b) <- pos;
                  items.(pos) <- kp.(q)
                done);
            match pcol.Chunk.data with
            | Chunk.Ints pa ->
                (* fused dense probe: count pass then exact-size fill pass.
                   [lo..hi] are small ints, so any probe key inside the
                   range passes Row_table's small-int guard for free. *)
                let pmask = pcol.Chunk.nulls in
                let total = ref 0 in
                (match (pmap, pmask) with
                | None, None ->
                    for i = 0 to np - 1 do
                      let k = pa.(i) in
                      if k >= lo && k <= hi then
                        total := !total + starts.(k - lo + 1) - starts.(k - lo)
                    done
                | None, Some mask ->
                    for i = 0 to np - 1 do
                      if not mask.(i) then begin
                        let k = pa.(i) in
                        if k >= lo && k <= hi then
                          total := !total + starts.(k - lo + 1) - starts.(k - lo)
                      end
                    done
                | Some m, None ->
                    for i = 0 to np - 1 do
                      let k = pa.(m.(i)) in
                      if k >= lo && k <= hi then
                        total := !total + starts.(k - lo + 1) - starts.(k - lo)
                    done
                | Some m, Some mask ->
                    for i = 0 to np - 1 do
                      let p = m.(i) in
                      if not mask.(p) then begin
                        let k = pa.(p) in
                        if k >= lo && k <= hi then
                          total := !total + starts.(k - lo + 1) - starts.(k - lo)
                      end
                    done);
                let op = Array.make !total 0 and ob = Array.make !total 0 in
                let w = ref 0 in
                (match (pmap, pmask) with
                | None, None ->
                    for i = 0 to np - 1 do
                      let k = pa.(i) in
                      if k >= lo && k <= hi then
                        for q = starts.(k - lo) to starts.(k - lo + 1) - 1 do
                          op.(!w) <- i;
                          ob.(!w) <- items.(q);
                          incr w
                        done
                    done
                | None, Some mask ->
                    for i = 0 to np - 1 do
                      if not mask.(i) then begin
                        let k = pa.(i) in
                        if k >= lo && k <= hi then
                          for q = starts.(k - lo) to starts.(k - lo + 1) - 1 do
                            op.(!w) <- i;
                            ob.(!w) <- items.(q);
                            incr w
                          done
                      end
                    done
                | Some m, None ->
                    for i = 0 to np - 1 do
                      let k = pa.(m.(i)) in
                      if k >= lo && k <= hi then
                        for q = starts.(k - lo) to starts.(k - lo + 1) - 1 do
                          op.(!w) <- i;
                          ob.(!w) <- items.(q);
                          incr w
                        done
                    done
                | Some m, Some mask ->
                    for i = 0 to np - 1 do
                      let p = m.(i) in
                      if not mask.(p) then begin
                        let k = pa.(p) in
                        if k >= lo && k <= hi then
                          for q = starts.(k - lo) to starts.(k - lo + 1) - 1 do
                            op.(!w) <- i;
                            ob.(!w) <- items.(q);
                            incr w
                          done
                      end
                    done);
                (op, ob)
            | _ ->
                let probe_int = Lazy.force probe_int in
                emit_generic (fun i f ->
                    match probe_int i with
                    | Some k when k >= lo && k <= hi ->
                        for q = starts.(k - lo) to starts.(k - lo + 1) - 1 do
                          f items.(q)
                        done
                    | _ -> ())
          end
          else begin
            let tbl : int Vec.t Row_table.Int_key.t =
              Row_table.Int_key.create (max 16 nb)
            in
            for q = 0 to nk - 1 do
              let k = keys.(q) in
              let p = match kphys with None -> q | Some kp -> kp.(q) in
              match Row_table.Int_key.find_opt tbl k with
              | Some cell -> Vec.push cell p
              | None ->
                  let cell = Vec.create () in
                  Vec.push cell p;
                  Row_table.Int_key.replace tbl k cell
            done;
            let probe_int = Lazy.force probe_int in
            emit_generic (fun i f ->
                match probe_int i with
                | None -> ()
                | Some k -> (
                    match Row_table.Int_key.find_opt tbl k with
                    | None -> ()
                    | Some cell -> Vec.iter f cell))
          end
        end)
    | Chunk.Strings s ->
        let tbl : (string, int Vec.t) Hashtbl.t = Hashtbl.create (max 16 nb) in
        iter_build (fun p ->
            if s.Chunk.codes.(p) >= 0 then begin
              let v = s.Chunk.vals.(p) in
              match Hashtbl.find_opt tbl v with
              | Some cell -> Vec.push cell p
              | None ->
                  let cell = Vec.create () in
                  Vec.push cell p;
                  Hashtbl.replace tbl v cell
            end);
        let probe_str = Lazy.force probe_str in
        emit_generic (fun i f ->
            match probe_str i with
            | None -> ()
            | Some v -> (
                match Hashtbl.find_opt tbl v with
                | None -> ()
                | Some cell -> Vec.iter f cell))
    | Chunk.Floats _ | Chunk.Boxed ->
        let rows = bchunk.Chunk.rows in
        let tbl : int Vec.t Row_table.Scalar.t = Row_table.Scalar.create (max 16 nb) in
        iter_build (fun p ->
            let v = rows.(p).(build_off) in
            if not (Value.is_null v) then
              match Row_table.Scalar.find_opt tbl v with
              | Some cell -> Vec.push cell p
              | None ->
                  let cell = Vec.create () in
                  Vec.push cell p;
                  Row_table.Scalar.replace tbl v cell);
        emit_generic (fun i f ->
            let v = pfetch i in
            if not (Value.is_null v) then
              match Row_table.Scalar.find_opt tbl v with
              | None -> ()
              | Some cell -> Vec.iter f cell)
  in
  let n_out = Array.length opa in
  let maps = Array.make (Array.length ctx.chunks) (Lazy.from_val None) in
  for t = 0 to bt - 1 do
    maps.(t) <-
      lazy
        (Some
           (match map_of slab t with
           | None -> opa
           | Some m ->
               let r = Array.make n_out 0 in
               for i = 0 to n_out - 1 do
                 r.(i) <- m.(Array.unsafe_get opa i)
               done;
               r))
  done;
  maps.(bt) <- Lazy.from_val (Some oba);
  { n = n_out; maps }

(* --- filter + join pipeline ------------------------------------------------- *)

(* Attach predicates to their tables as groups. [prefix] limits resolution
   to the first [prefix] tables (plan Filters above a join subtree compile
   against that prefix relation in the row engine). *)
let attach ctx (steps : step array) ?prefix (e : Ast.expr) =
  let headers =
    match prefix with
    | None -> ctx.headers
    | Some p ->
        let stop =
          if p >= Array.length steps then Array.length ctx.headers else ctx.tbl_start.(p)
        in
        Array.sub ctx.headers 0 stop
  in
  let conjs = Ast.conjuncts e in
  let strict = List.length conjs > 1 in
  let by_table = Array.make (Array.length steps) [] in
  List.iter
    (fun c ->
      plain_expr c;
      let tids =
        List.map
          (fun cr ->
            match Compiled.resolve_opt headers cr with
            | Some ci -> ctx.col_tbl.(ci)
            | None -> fallback ())
          (Ast.expr_columns c)
      in
      let t =
        match List.sort_uniq compare tids with
        | [] -> 0
        | [ t ] -> t
        | _ -> fallback () (* cross-table conjunct: row path only *)
      in
      by_table.(t) <- c :: by_table.(t))
    conjs;
  Array.iteri
    (fun t cs ->
      if cs <> [] then steps.(t).s_groups <- steps.(t).s_groups @ [ (List.rev cs, strict) ])
    by_table

(* Resolve each step's ON condition to a single (prefix col, build col)
   equality, replicating the row engine's split_join_condition orientation
   (left-hand resolution against the prefix tried first). *)
let join_keys ctx (steps : step array) =
  Array.mapi
    (fun t (s : step) ->
      if t = 0 then begin
        (match s.s_cond with Some _ -> fallback () | None -> ());
        None
      end
      else begin
        let e = match s.s_cond with Some e -> e | None -> fallback () in
        let prefix = Array.sub ctx.headers 0 ctx.tbl_start.(t) in
        let width =
          (if t + 1 < Array.length steps then ctx.tbl_start.(t + 1)
           else Array.length ctx.headers)
          - ctx.tbl_start.(t)
        in
        let mine = Array.sub ctx.headers ctx.tbl_start.(t) width in
        match Ast.conjuncts e with
        | [ Ast.Binop (Ast.Eq, Ast.Col a, Ast.Col b) ] -> (
            match (Compiled.resolve_opt prefix a, Compiled.resolve_opt mine b) with
            | Some li, Some ri -> Some (li, ri)
            | _ -> (
                match (Compiled.resolve_opt prefix b, Compiled.resolve_opt mine a) with
                | Some li, Some ri -> Some (li, ri)
                | _ -> fallback ()))
        | _ -> fallback ()
      end)
    steps

let build_slab ctx (steps : step array) : slab =
  let sels = Array.mapi (fun t s -> selection_of ctx t s) steps in
  let keys = join_keys ctx steps in
  let slab = ref { n = (match sels.(0) with None -> ctx.chunks.(0).Chunk.n | Some s -> Array.length s); maps = Array.make (Array.length steps) (Lazy.from_val None) } in
  (!slab).maps.(0) <- Lazy.from_val sels.(0);
  for t = 1 to Array.length steps - 1 do
    match keys.(t) with
    | None -> fallback ()
    | Some (li, ri) ->
        slab := join_step ctx !slab ~bt:t ~probe_ci:li ~build_off:(ri + 0) sels.(t)
  done;
  !slab

(* --- projection / aggregation tails ------------------------------------------ *)

(* Expanded projections must all be plain column references for the
   column-fetch materialiser; anything else falls back to the row path. *)
let projection_cols ctx (projections : (Ast.expr * string) list) : int array =
  Array.of_list
    (List.map
       (fun (e, _) ->
         match e with
         | Ast.Col c -> (
             plain_expr e;
             match Compiled.resolve_opt ctx.headers c with
             | Some ci -> ci
             | None -> fallback ())
         | _ -> fallback ())
       projections)

(* Materialise output rows for the given logical rows (identity when
   [order] is [None]), replicating the row engine's fresh-array projection.
   When the projection is the identity over a single table, output rows
   share the table's row arrays (structurally identical, zero copying). *)
let materialize ctx (slab : slab) (proj : int array) ~(order : int array option) ~start
    ~take : Value.t array Vec.t =
  let w = Array.length proj in
  let identity =
    Array.length ctx.chunks = 1
    && w = Array.length ctx.headers
    && Array.for_all2 (fun a b -> a = b) proj (Array.init w (fun i -> i))
  in
  if identity then begin
    let rows = ctx.chunks.(0).Chunk.rows in
    let make : int -> Value.t array =
      match (order, map_of slab 0) with
      | None, None -> fun k -> rows.(start + k)
      | None, Some m -> fun k -> rows.(m.(start + k))
      | Some o, None -> fun k -> rows.(o.(start + k))
      | Some o, Some m -> fun k -> rows.(m.(o.(start + k)))
    in
    Vec.wrap (Array.init take make)
  end
  else begin
    (* Wide projections (the equijoin SELECT-* shape) materialise
       column-at-a-time from the selection vectors: gather each source
       table's physical row indices for the output window once, then fill
       each output column with a tight loop over the chunk's typed array.
       Ints/Floats box straight off the flat array (the same bits the row
       holds, and a sequential read instead of a pointer chase through
       scattered row arrays); Strings share one pre-boxed Value per
       dictionary entry, so repeated join keys allocate nothing; Boxed and
       mixed columns keep reading through the rows. Results are structurally
       identical to the row path — same values, same order. *)
    let boxed_dicts : (int * int, Value.t array) Hashtbl.t = Hashtbl.create 4 in
    Array.iter
      (fun ci ->
        let t = ctx.col_tbl.(ci) and off = ctx.col_off.(ci) in
        if not (Hashtbl.mem boxed_dicts (t, off)) then
          match (ctx.chunks.(t).Chunk.cols.(off)).Chunk.data with
          | Chunk.Strings s ->
              Hashtbl.add boxed_dicts (t, off)
                (Array.map (fun v -> Value.String v) s.Chunk.dict)
          | _ -> ())
      proj;
    let fill_cols phys_of =
      let out = Array.init take (fun _ -> Array.make w Value.Null) in
      let pi_cache : (int, int array) Hashtbl.t = Hashtbl.create 4 in
      let phys_idx t =
        match Hashtbl.find_opt pi_cache t with
        | Some pi -> pi
        | None ->
            let pi : int array = phys_of t in
            Hashtbl.add pi_cache t pi;
            pi
      in
      for j = 0 to w - 1 do
        let ci = proj.(j) in
        let t = ctx.col_tbl.(ci) and off = ctx.col_off.(ci) in
        let pi = phys_idx t in
        let chunk = ctx.chunks.(t) in
        let col = chunk.Chunk.cols.(off) in
        match (col.Chunk.data, col.Chunk.nulls) with
        | Chunk.Ints a, None ->
            for k = 0 to take - 1 do
              out.(k).(j) <- Value.Int a.(pi.(k))
            done
        | Chunk.Ints a, Some nu ->
            for k = 0 to take - 1 do
              let i = pi.(k) in
              out.(k).(j) <- (if nu.(i) then Value.Null else Value.Int a.(i))
            done
        | Chunk.Floats a, None ->
            for k = 0 to take - 1 do
              out.(k).(j) <- Value.Float a.(pi.(k))
            done
        | Chunk.Floats a, Some nu ->
            for k = 0 to take - 1 do
              let i = pi.(k) in
              out.(k).(j) <- (if nu.(i) then Value.Null else Value.Float a.(i))
            done
        | Chunk.Strings s, _ ->
            (* codes carry NULL as -1, so the nulls mask is already folded in *)
            let boxed = Hashtbl.find boxed_dicts (t, off) in
            for k = 0 to take - 1 do
              let c = s.Chunk.codes.(pi.(k)) in
              out.(k).(j) <- (if c < 0 then Value.Null else boxed.(c))
            done
        | Chunk.Boxed, _ ->
            let rows = chunk.Chunk.rows in
            for k = 0 to take - 1 do
              out.(k).(j) <- rows.(pi.(k)).(off)
            done
      done;
      out
    in
    let phys_direct t =
      match map_of slab t with
      | None -> Array.init take (fun k -> start + k)
      | Some m -> Array.init take (fun k -> m.(start + k))
    in
    let phys_ordered o t =
      match map_of slab t with
      | None -> Array.init take (fun k -> o.(start + k))
      | Some m -> Array.init take (fun k -> m.(o.(start + k)))
    in
    (* No ORDER BY: read output rows straight through the lazy maps — no
       per-window gather arrays, just one bounds-free int indirection per
       cell. The per-column [match] on the map is a predictable branch. *)
    let rows_direct () =
      let src j =
        let t = ctx.col_tbl.(proj.(j)) in
        (ctx.chunks.(t).Chunk.rows, map_of slab t, ctx.col_off.(proj.(j)))
      in
      match proj with
      | [| _ |] ->
          let rows0, m0, o0 = src 0 in
          Array.init take (fun k ->
              let i = start + k in
              [| (match m0 with None -> rows0.(i) | Some m -> rows0.(m.(i))).(o0) |])
      | [| _; _ |] ->
          let rows0, m0, o0 = src 0 and rows1, m1, o1 = src 1 in
          Array.init take (fun k ->
              let i = start + k in
              [|
                (match m0 with None -> rows0.(i) | Some m -> rows0.(m.(i))).(o0);
                (match m1 with None -> rows1.(i) | Some m -> rows1.(m.(i))).(o1);
              |])
      | [| _; _; _ |] ->
          let rows0, m0, o0 = src 0 and rows1, m1, o1 = src 1 in
          let rows2, m2, o2 = src 2 in
          Array.init take (fun k ->
              let i = start + k in
              [|
                (match m0 with None -> rows0.(i) | Some m -> rows0.(m.(i))).(o0);
                (match m1 with None -> rows1.(i) | Some m -> rows1.(m.(i))).(o1);
                (match m2 with None -> rows2.(i) | Some m -> rows2.(m.(i))).(o2);
              |])
      | _ -> fill_cols phys_direct
    in
    (* ORDER BY: gather each source table's row pointers for the output
       window first (monomorphic loops over the order/map variants), then
       build output rows from those pointers. *)
    let rows_ordered o =
      let rp_cache : (int, Value.t array array) Hashtbl.t = Hashtbl.create 4 in
      let row_ptrs t : Value.t array array =
        match Hashtbl.find_opt rp_cache t with
        | Some rp -> rp
        | None ->
            let rows = ctx.chunks.(t).Chunk.rows in
            let rp =
              match map_of slab t with
              | None -> Array.init take (fun k -> rows.(o.(start + k)))
              | Some m -> Array.init take (fun k -> rows.(m.(o.(start + k))))
            in
            Hashtbl.add rp_cache t rp;
            rp
      in
      match proj with
      | [| c0 |] ->
          let rp0 = row_ptrs ctx.col_tbl.(c0) and o0 = ctx.col_off.(c0) in
          Array.init take (fun k -> [| rp0.(k).(o0) |])
      | [| c0; c1 |] ->
          let rp0 = row_ptrs ctx.col_tbl.(c0) and o0 = ctx.col_off.(c0) in
          let rp1 = row_ptrs ctx.col_tbl.(c1) and o1 = ctx.col_off.(c1) in
          Array.init take (fun k -> [| rp0.(k).(o0); rp1.(k).(o1) |])
      | [| c0; c1; c2 |] ->
          let rp0 = row_ptrs ctx.col_tbl.(c0) and o0 = ctx.col_off.(c0) in
          let rp1 = row_ptrs ctx.col_tbl.(c1) and o1 = ctx.col_off.(c1) in
          let rp2 = row_ptrs ctx.col_tbl.(c2) and o2 = ctx.col_off.(c2) in
          Array.init take (fun k -> [| rp0.(k).(o0); rp1.(k).(o1); rp2.(k).(o2) |])
      | _ -> fill_cols (phys_ordered o)
    in
    Vec.wrap (match order with None -> rows_direct () | Some o -> rows_ordered o)
  end

(* --- GROUP BY --------------------------------------------------------------- *)

(* First-appearance group ids over the slab's logical rows. Dense integer /
   dictionary codes avoid hashing; otherwise grouping goes through the same
   Value-keyed tables as the row engine (same equality, same order). *)
let group_ids ctx (slab : slab) (kcis : int list) ~want_rows =
  let n = slab.n in
  let gids = Array.make n 0 in
  let first = Vec.create () in
  let grows : int Vec.t Vec.t = Vec.create () in
  let enter code_tbl i code =
    match code_tbl code with
    | Some g ->
        gids.(i) <- g;
        if want_rows then Vec.push (Vec.unsafe_get grows g) i
    | None ->
        let g = Vec.length first in
        gids.(i) <- g;
        Vec.push first i;
        if want_rows then begin
          let cell = Vec.create () in
          Vec.push cell i;
          Vec.push grows cell
        end
  in
  (* try dense codes: every key column as ints in [0, range), NULL = 0 *)
  let dense_code ci =
    let t = ctx.col_tbl.(ci) in
    let col = ctx.chunks.(t).Chunk.cols.(ctx.col_off.(ci)) in
    let phys = phys_of slab t in
    match col.Chunk.data with
    | Chunk.Strings s ->
        Some ((fun i -> s.Chunk.codes.(phys i) + 1), Array.length s.Chunk.dict + 1)
    | Chunk.Ints a ->
        let nn = not_null_fn col in
        let lo = ref max_int and hi = ref min_int and seen = ref false in
        for i = 0 to n - 1 do
          let p = phys i in
          if nn p then begin
            seen := true;
            if a.(p) < !lo then lo := a.(p);
            if a.(p) > !hi then hi := a.(p)
          end
        done;
        if not !seen then Some ((fun _ -> 0), 1)
        else begin
          let lo = !lo in
          let range = !hi - lo + 2 in
          if range <= max 65536 ((4 * n) + 1) then
            Some
              ( (fun i ->
                  let p = phys i in
                  if nn p then a.(p) - lo + 1 else 0),
                range )
          else None
        end
    | _ -> None
  in
  let dense = lazy (
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | ci :: rest -> ( match dense_code ci with Some c -> go (c :: acc) rest | None -> None)
    in
    match go [] kcis with
    | None -> None
    | Some codes ->
        let total = List.fold_left (fun acc (_, r) -> acc * r) 1 codes in
        if total > 0 && total <= 1 lsl 21 then Some (codes, total) else None)
  in
  (* single dense key: monomorphic loops over the raw code arrays, no
     per-row closures or option boxing. [register] is only called once per
     distinct group, so the hot path is array reads and one branch. *)
  let single_dense =
    match kcis with
    | [ ci ] -> (
        let t = ctx.col_tbl.(ci) in
        let col = ctx.chunks.(t).Chunk.cols.(ctx.col_off.(ci)) in
        let m = map_of slab t in
        let scan_register (idx : int array) i c =
          let g = Vec.length first in
          idx.(c) <- g;
          gids.(i) <- g;
          Vec.push first i;
          if want_rows then begin
            let cell = Vec.create () in
            Vec.push cell i;
            Vec.push grows cell
          end
        in
        match col.Chunk.data with
        | Chunk.Strings str when Array.length str.Chunk.dict + 1 <= 1 lsl 21 ->
            let codes = str.Chunk.codes in
            let idx = Array.make (Array.length str.Chunk.dict + 1) (-1) in
            (match m with
            | None ->
                for i = 0 to n - 1 do
                  let c = codes.(i) + 1 in
                  let g = idx.(c) in
                  if g >= 0 then begin
                    gids.(i) <- g;
                    if want_rows then Vec.push (Vec.unsafe_get grows g) i
                  end
                  else scan_register idx i c
                done
            | Some m ->
                for i = 0 to n - 1 do
                  let c = codes.(m.(i)) + 1 in
                  let g = idx.(c) in
                  if g >= 0 then begin
                    gids.(i) <- g;
                    if want_rows then Vec.push (Vec.unsafe_get grows g) i
                  end
                  else scan_register idx i c
                done);
            true
        | Chunk.Ints a -> (
            let mask = match col.Chunk.nulls with None -> [||] | Some b -> b in
            (* min/max scan over live physical rows, nulls excluded *)
            let lo = ref max_int and hi = ref min_int and seen = ref false in
            (match m with
            | None ->
                if Array.length mask = 0 then begin
                  seen := n > 0;
                  for i = 0 to n - 1 do
                    if a.(i) < !lo then lo := a.(i);
                    if a.(i) > !hi then hi := a.(i)
                  done
                end
                else
                  for i = 0 to n - 1 do
                    if not mask.(i) then begin
                      seen := true;
                      if a.(i) < !lo then lo := a.(i);
                      if a.(i) > !hi then hi := a.(i)
                    end
                  done
            | Some m ->
                for i = 0 to n - 1 do
                  let p = m.(i) in
                  if Array.length mask = 0 || not mask.(p) then begin
                    seen := true;
                    if a.(p) < !lo then lo := a.(p);
                    if a.(p) > !hi then hi := a.(p)
                  end
                done);
            let lo, range = if !seen then (!lo, !hi - !lo + 2) else (0, 1) in
            if range <= max 65536 ((4 * n) + 1) && range <= 1 lsl 21 then begin
              let idx = Array.make range (-1) in
              (match m with
              | None ->
                  if Array.length mask = 0 then
                    for i = 0 to n - 1 do
                      let c = a.(i) - lo + 1 in
                      let g = idx.(c) in
                      if g >= 0 then begin
                        gids.(i) <- g;
                        if want_rows then Vec.push (Vec.unsafe_get grows g) i
                      end
                      else scan_register idx i c
                    done
                  else
                    for i = 0 to n - 1 do
                      let c = if mask.(i) then 0 else a.(i) - lo + 1 in
                      let g = idx.(c) in
                      if g >= 0 then begin
                        gids.(i) <- g;
                        if want_rows then Vec.push (Vec.unsafe_get grows g) i
                      end
                      else scan_register idx i c
                    done
              | Some m ->
                  for i = 0 to n - 1 do
                    let p = m.(i) in
                    let c =
                      if Array.length mask > 0 && mask.(p) then 0 else a.(p) - lo + 1
                    in
                    let g = idx.(c) in
                    if g >= 0 then begin
                      gids.(i) <- g;
                      if want_rows then Vec.push (Vec.unsafe_get grows g) i
                    end
                    else scan_register idx i c
                  done);
              true
            end
            else false)
        | _ -> false)
    | _ -> false
  in
  (if single_dense then ()
  else
  match Lazy.force dense with
  | Some (codes, total) ->
      let idx = Array.make total (-1) in
      let combined i =
        let c = ref 0 in
        List.iter (fun (f, r) -> c := (!c * r) + f i) codes;
        !c
      in
      for i = 0 to n - 1 do
        let c = combined i in
        enter (fun c -> if idx.(c) >= 0 then Some idx.(c) else None) i c;
        if idx.(c) < 0 then idx.(c) <- gids.(i)
      done
  | None -> (
      match kcis with
      | [ ci ] ->
          let f = fetcher ctx slab ci in
          let tbl : int Row_table.Scalar.t = Row_table.Scalar.create 64 in
          for i = 0 to n - 1 do
            let v = f i in
            (match Row_table.Scalar.find_opt tbl v with
            | Some g ->
                gids.(i) <- g;
                if want_rows then Vec.push (Vec.unsafe_get grows g) i
            | None ->
                let g = Vec.length first in
                Row_table.Scalar.replace tbl v g;
                gids.(i) <- g;
                Vec.push first i;
                if want_rows then begin
                  let cell = Vec.create () in
                  Vec.push cell i;
                  Vec.push grows cell
                end)
          done
      | kcis ->
          let fs = Array.of_list (List.map (fetcher ctx slab) kcis) in
          let tbl : int Row_table.t = Row_table.create 64 in
          for i = 0 to n - 1 do
            let key = Array.map (fun f -> f i) fs in
            (match Row_table.find_opt tbl key with
            | Some g ->
                gids.(i) <- g;
                if want_rows then Vec.push (Vec.unsafe_get grows g) i
            | None ->
                let g = Vec.length first in
                Row_table.replace tbl key g;
                gids.(i) <- g;
                Vec.push first i;
                if want_rows then begin
                  let cell = Vec.create () in
                  Vec.push cell i;
                  Vec.push grows cell
                end)
          done));
  (gids, Vec.to_array first, grows)

(* --- eager aggregate kernels ------------------------------------------------- *)

(* A slot admits an eager kernel when its per-group value can be computed by
   a typed accumulator whose result provably matches Aggregate.compute_iter:
   COUNT( * ) (group size), and non-DISTINCT COUNT/SUM/AVG/MIN/MAX over a
   typed column. Each kernel is one column-at-a-time loop over the slab's
   logical rows in ascending order — the row engine's exact accumulation
   order, so float sums see the same addition sequence. The loop bodies are
   specialised on (map, null mask) so the hot path runs without per-row
   closure calls; an absent mask is the empty array sentinel. *)
type eager = { run : unit -> unit; value : int -> Value.t }

let eager_of ctx (slab : slab) ~ngroups ~(gcount : int array) ~(gids : int array)
    ((func, distinct, arg) : Ast.agg_func * bool * Ast.agg_arg) : eager option =
  let n = slab.n in
  if distinct then None
  else
    match (func, arg) with
    | Ast.Count, Ast.Star ->
        Some { run = (fun () -> ()); value = (fun g -> Value.Int gcount.(g)) }
    | (Ast.Count | Ast.Sum | Ast.Avg | Ast.Min | Ast.Max), Ast.Arg (Ast.Col c) -> (
        match Compiled.resolve_opt ctx.headers c with
        | None -> None
        | Some ci -> (
            let t = ctx.col_tbl.(ci) in
            let col = ctx.chunks.(t).Chunk.cols.(ctx.col_off.(ci)) in
            let m = map_of slab t in
            let mask = match col.Chunk.nulls with None -> [||] | Some b -> b in
            let nncnt = Array.make ngroups 0 in
            match (func, col.Chunk.data) with
            | Ast.Count, (Chunk.Ints _ | Chunk.Floats _) ->
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then begin
                            let g = gids.(i) in
                            nncnt.(g) <- nncnt.(g) + 1
                          end
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then begin
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1
                        end
                      done
                in
                Some { run; value = (fun g -> Value.Int nncnt.(g)) }
            | Ast.Count, Chunk.Strings s ->
                let codes = s.Chunk.codes in
                let run () =
                  match m with
                  | None ->
                      for i = 0 to n - 1 do
                        if codes.(i) >= 0 then begin
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1
                        end
                      done
                  | Some m ->
                      for i = 0 to n - 1 do
                        if codes.(m.(i)) >= 0 then begin
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1
                        end
                      done
                in
                Some { run; value = (fun g -> Value.Int nncnt.(g)) }
            | Ast.Sum, Chunk.Ints a ->
                let isum = Array.make ngroups 0 in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1;
                          isum.(g) <- isum.(g) + a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then begin
                            let g = gids.(i) in
                            nncnt.(g) <- nncnt.(g) + 1;
                            isum.(g) <- isum.(g) + a.(i)
                          end
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then begin
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1;
                          isum.(g) <- isum.(g) + a.(p)
                        end
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g -> if nncnt.(g) = 0 then Value.Null else Value.Int isum.(g));
                  }
            | (Ast.Sum | Ast.Avg), Chunk.Floats a ->
                let fsum = Array.make ngroups 0.0 in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1;
                          fsum.(g) <- fsum.(g) +. a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then begin
                            let g = gids.(i) in
                            nncnt.(g) <- nncnt.(g) + 1;
                            fsum.(g) <- fsum.(g) +. a.(i)
                          end
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then begin
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1;
                          fsum.(g) <- fsum.(g) +. a.(p)
                        end
                      done
                in
                let value =
                  if func = Ast.Sum then fun g ->
                    if nncnt.(g) = 0 then Value.Null else Value.Float fsum.(g)
                  else fun g ->
                    if nncnt.(g) = 0 then Value.Null
                    else Value.Float (fsum.(g) /. float_of_int nncnt.(g))
                in
                Some { run; value }
            | Ast.Avg, Chunk.Ints a ->
                let fsum = Array.make ngroups 0.0 in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1;
                          fsum.(g) <- fsum.(g) +. float_of_int a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then begin
                            let g = gids.(i) in
                            nncnt.(g) <- nncnt.(g) + 1;
                            fsum.(g) <- fsum.(g) +. float_of_int a.(i)
                          end
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then begin
                          let g = gids.(i) in
                          nncnt.(g) <- nncnt.(g) + 1;
                          fsum.(g) <- fsum.(g) +. float_of_int a.(p)
                        end
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g ->
                        if nncnt.(g) = 0 then Value.Null
                        else Value.Float (fsum.(g) /. float_of_int nncnt.(g)));
                  }
            | (Ast.Min | Ast.Max), Chunk.Ints a ->
                let lt = func = Ast.Min in
                let best = Array.make ngroups 0 in
                let hit g v =
                  if nncnt.(g) = 0 then best.(g) <- v
                  else if (if lt then v < best.(g) else v > best.(g)) then best.(g) <- v;
                  nncnt.(g) <- nncnt.(g) + 1
                in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          hit gids.(i) a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then hit gids.(i) a.(i)
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then hit gids.(i) a.(p)
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g -> if nncnt.(g) = 0 then Value.Null else Value.Int best.(g));
                  }
            | (Ast.Min | Ast.Max), Chunk.Floats a ->
                let lt = func = Ast.Min in
                let best = Array.make ngroups 0.0 in
                (* Value.compare on floats is Stdlib.compare *)
                let hit g v =
                  if nncnt.(g) = 0 then best.(g) <- v
                  else if
                    (if lt then compare (v : float) best.(g) < 0
                     else compare (v : float) best.(g) > 0)
                  then best.(g) <- v;
                  nncnt.(g) <- nncnt.(g) + 1
                in
                let run () =
                  match m with
                  | None ->
                      if Array.length mask = 0 then
                        for i = 0 to n - 1 do
                          hit gids.(i) a.(i)
                        done
                      else
                        for i = 0 to n - 1 do
                          if not mask.(i) then hit gids.(i) a.(i)
                        done
                  | Some m ->
                      for i = 0 to n - 1 do
                        let p = m.(i) in
                        if Array.length mask = 0 || not mask.(p) then hit gids.(i) a.(p)
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g -> if nncnt.(g) = 0 then Value.Null else Value.Float best.(g));
                  }
            | (Ast.Min | Ast.Max), Chunk.Strings st ->
                let lt = func = Ast.Min in
                let codes = st.Chunk.codes and vals = st.Chunk.vals in
                let best = Array.make ngroups "" in
                let hit g p =
                  if codes.(p) >= 0 then begin
                    let v = vals.(p) in
                    if nncnt.(g) = 0 then best.(g) <- v
                    else if
                      (if lt then compare (v : string) best.(g) < 0
                       else compare (v : string) best.(g) > 0)
                    then best.(g) <- v;
                    nncnt.(g) <- nncnt.(g) + 1
                  end
                in
                let run () =
                  match m with
                  | None ->
                      for i = 0 to n - 1 do
                        hit gids.(i) i
                      done
                  | Some m ->
                      for i = 0 to n - 1 do
                        hit gids.(i) m.(i)
                      done
                in
                Some
                  {
                    run;
                    value =
                      (fun g -> if nncnt.(g) = 0 then Value.Null else Value.String best.(g));
                  }
            | _ -> None))
    | _ -> None

(* --- select-body execution ---------------------------------------------------- *)

type task = {
  steps : step array;
  projections : Ast.projection list;
  group_by : Ast.expr list;
  having : Ast.expr option;
}

(* The grouped tail: replicates select_tail's grouped path over the slab,
   with eager typed accumulators when every slot admits one, and the exact
   lazy compute_iter evaluation otherwise. *)
let run_grouped ctx (slab : slab) (task : task)
    (projections : (Ast.expr * string) list) (out_headers : header array) : result_set =
  let n = slab.n in
  let kcis =
    List.map
      (fun e ->
        plain_expr e;
        match e with
        | Ast.Col c -> (
            match Compiled.resolve_opt ctx.headers c with
            | Some ci -> ci
            | None -> fallback ())
        | _ -> fallback ())
      task.group_by
  in
  (* HAVING legitimately contains aggregates; only subqueries fall back *)
  Option.iter (fun h -> if not (no_subquery h) then fallback ()) task.having;
  (* compile HAVING first, then projections: slot registration order must
     match the row engine's *)
  let slots = Compiled.make_slots () in
  let compile e =
    Compiled.compile ~subquery:no_subquery_fn ~agg:slots ~headers:ctx.headers ~outer:[] e
  in
  let chaving = Option.map compile task.having in
  let cps = Array.of_list (List.map (fun (e, _) -> compile e) projections) in
  let slot_arr = Array.of_list (Compiled.slots slots) in
  let spec_arr = Array.of_list (Compiled.specs slots) in
  let nslots = Array.length slot_arr in
  let single_group = kcis = [] in
  let gids, first, grows =
    (* we need ngroups before building accumulators, so: group first without
       row lists, decide eagerness, and only re-collect row lists when some
       slot needs them. Grouping is deterministic, so the second pass (over
       the same data) yields identical ids. An aggregate query without
       GROUP BY is one big group and needs no grouping pass at all. *)
    if single_group then
      (Array.make n 0, [| (if n > 0 then 0 else -1) |], Vec.create ())
    else group_ids ctx slab kcis ~want_rows:false
  in
  let ngroups = Array.length first in
  let gcount = Array.make ngroups 0 in
  let eager_slots =
    let rec go k acc =
      if k >= nslots then Some (List.rev acc)
      else
        match eager_of ctx slab ~ngroups ~gcount ~gids spec_arr.(k) with
        | Some e -> go (k + 1) (e :: acc)
        | None -> None
    in
    go 0 []
  in
  let values_of : int -> Value.t Lazy.t array =
    match eager_slots with
    | Some eagers ->
        if single_group then gcount.(0) <- n
        else
          for i = 0 to n - 1 do
            let g = gids.(i) in
            gcount.(g) <- gcount.(g) + 1
          done;
        List.iter (fun (e : eager) -> e.run ()) eagers;
        let eagers = Array.of_list eagers in
        fun g -> Array.map (fun (e : eager) -> Lazy.from_val (e.value g)) eagers
    | None ->
        (* generic path: per-group row lists + Aggregate.compute_iter with
           argument closures evaluated over a scratch row *)
        let grows =
          if single_group then begin
            let all = Vec.create () in
            let cell = Vec.create () in
            for i = 0 to n - 1 do
              Vec.push cell i
            done;
            Vec.push all cell;
            all
          end
          else if Vec.length grows > 0 then grows
          else begin
            let _, _, grows = group_ids ctx slab kcis ~want_rows:true in
            grows
          end
        in
        let scratch = Array.make (Array.length ctx.headers) Value.Null in
        let fill_of k =
          match spec_arr.(k) with
          | _, _, Ast.Star -> []
          | _, _, Ast.Arg e ->
              List.map
                (fun c ->
                  match Compiled.resolve_opt ctx.headers c with
                  | Some ci -> (ci, fetcher ctx slab ci)
                  | None -> fallback ())
                (Ast.expr_columns e)
        in
        let fills = Array.init nslots fill_of in
        let compute_slot k g =
          let sl = slot_arr.(k) in
          let grows = Vec.unsafe_get grows g in
          let gn = Vec.length grows in
          match sl.Compiled.arg with
          | None ->
              Aggregate.compute sl.Compiled.func ~distinct:sl.Compiled.distinct
                ~star:sl.Compiled.star ~nrows:gn []
          | Some c ->
              let fill = fills.(k) in
              Aggregate.compute_iter sl.Compiled.func ~distinct:sl.Compiled.distinct
                ~star:sl.Compiled.star ~nrows:gn ~iter:(fun f ->
                  Vec.iter
                    (fun i ->
                      List.iter (fun (ci, fc) -> scratch.(ci) <- fc i) fill;
                      f (c scratch))
                    grows)
        in
        fun g -> Array.init nslots (fun k -> lazy (compute_slot k g))
  in
  (* representative row per group: the group's first source row, with just
     the columns HAVING/projections actually read (fresh array per group —
     lazy slot forcing must not observe a reused buffer) *)
  let rep_cols =
    let tbl = Hashtbl.create 16 in
    let add e =
      List.iter
        (fun c ->
          match Compiled.resolve_opt ctx.headers c with
          | Some ci -> Hashtbl.replace tbl ci ()
          | None -> ())
        (Ast.expr_columns e)
    in
    List.iter (fun (e, _) -> add e) projections;
    Option.iter add task.having;
    Hashtbl.fold (fun ci () acc -> (ci, fetcher ctx slab ci) :: acc) tbl []
  in
  let width = Array.length ctx.headers in
  let out = Vec.create () in
  for g = 0 to ngroups - 1 do
    let representative = Array.make width Value.Null in
    let fi = first.(g) in
    if fi >= 0 then List.iter (fun (ci, f) -> representative.(ci) <- f fi) rep_cols;
    Compiled.set_group slots (values_of g);
    let keep =
      match chaving with None -> true | Some c -> Eval.is_truthy (c representative)
    in
    if keep then Vec.push out (Array.map (fun c -> c representative) cps)
  done;
  { chead = out_headers; crows = out }

(* Run one recognised select body (no ORDER BY handling): the WHERE-filtered
   join pipeline plus either a plain column projection or the grouped tail. *)
let run_body db (task : task) : result_set =
  ignore db;
  let ctx = ctx_of_steps task.steps in
  let slab = build_slab ctx task.steps in
  let projections = Compiled.expand_projections ctx.headers task.projections in
  let any_agg =
    List.exists (fun (e, _) -> has_aggregate e) projections
    || (match task.having with Some h -> has_aggregate h | None -> false)
  in
  let out_headers =
    Array.of_list
      (List.map (fun ((_, name) : _ * string) -> { alias = None; name }) projections)
  in
  if task.group_by = [] && not any_agg then begin
    (match task.having with Some _ -> fallback () | None -> ());
    List.iter (fun (e, _) -> plain_expr e) projections;
    let proj = projection_cols ctx projections in
    { chead = out_headers;
      crows = materialize ctx slab proj ~order:None ~start:0 ~take:slab.n }
  end
  else run_grouped ctx slab task projections out_headers

(* Full ungrouped queries including ORDER BY + LIMIT/OFFSET: sort keys come
   straight from the slab's typed columns ({!Key_sort}), only the surviving
   window is materialised. *)
let run_query db (task : task) ~(order_by : (Ast.expr * Ast.order_dir) list)
    ~(limit : int option) ~(offset : int option) : result_set =
  ignore db;
  let ctx = ctx_of_steps task.steps in
  (match task.having with Some _ -> fallback () | None -> ());
  let projections = Compiled.expand_projections ctx.headers task.projections in
  if
    List.exists (fun (e, _) -> has_aggregate e) projections
    || task.group_by <> []
  then fallback ();
  List.iter (fun (e, _) -> plain_expr e) projections;
  let out_headers =
    Array.of_list
      (List.map (fun ((_, name) : _ * string) -> { alias = None; name }) projections)
  in
  let proj = projection_cols ctx projections in
  let nproj = Array.length proj in
  (* resolve order keys against the visible output first (as sort_slice
     does), then as hidden source columns (the row engine's hidden
     projection trick resolves them against the source headers) *)
  let keys =
    List.filter_map
      (fun (e, dir) ->
        plain_expr e;
        match e with
        | Ast.Lit (Ast.Int pos) when pos >= 1 && pos <= nproj -> Some (proj.(pos - 1), dir)
        | Ast.Lit _ -> None (* constant key: every comparison is 0 *)
        | Ast.Col c -> (
            match Compiled.resolve_opt out_headers c with
            | Some j -> Some (proj.(j), dir)
            | None -> (
                match Compiled.resolve_opt ctx.headers c with
                | Some ci -> Some (ci, dir)
                | None -> fallback ()))
        | _ -> fallback ())
      order_by
  in
  let slab = build_slab ctx task.steps in
  let n = slab.n in
  let order =
    if keys = [] then None
    else begin
      let gathered ci : Key_sort.key =
        let t = ctx.col_tbl.(ci) in
        let col = ctx.chunks.(t).Chunk.cols.(ctx.col_off.(ci)) in
        let phys = phys_of slab t in
        let shared = map_of slab t = None in
        let gather_f : 'a. 'a array -> 'a array =
         fun a -> if shared then a else Array.init n (fun i -> a.(phys i))
        in
        let nulls () =
          match col.Chunk.nulls with
          | None -> None
          | Some m -> Some (gather_f m)
        in
        match col.Chunk.data with
        | Chunk.Ints a -> Key_sort.K_int (gather_f a, nulls ())
        | Chunk.Floats a -> Key_sort.K_float (gather_f a, nulls ())
        | Chunk.Strings s ->
            let m =
              if Array.exists (fun c -> c < 0) s.Chunk.codes then
                Some (Array.init n (fun i -> s.Chunk.codes.(phys i) < 0))
              else None
            in
            Key_sort.K_string (gather_f s.Chunk.vals, m)
        | Chunk.Boxed ->
            let f = fetcher ctx slab ci in
            Key_sort.K_val (Array.init n f)
      in
      let cmps =
        Array.of_list
          (List.map
             (fun (ci, dir) ->
               let c = Key_sort.compare_fn (gathered ci) in
               match dir with Ast.Asc -> c | Ast.Desc -> fun a b -> -c a b)
             keys)
      in
      let nk = Array.length cmps in
      let cmp a b =
        let rec go i =
          if i >= nk then compare (a : int) b
          else
            let c = cmps.(i) a b in
            if c <> 0 then c else go (i + 1)
        in
        go 0
      in
      let wanted =
        match limit with
        | None -> None
        | Some l ->
            let k = max 0 (Option.value offset ~default:0) + max 0 l in
            if k < n then Some k else None
      in
      Some (Key_sort.sorted ~cmp ~n ~wanted)
    end
  in
  (* replicate Row_vec.slice's clamping over the (possibly top-K-truncated)
     ordered index space before materialising anything *)
  let olen = match order with None -> n | Some o -> Array.length o in
  let start = min (max 0 (Option.value offset ~default:0)) olen in
  let take =
    match limit with None -> olen - start | Some l -> max 0 (min l (olen - start))
  in
  { chead = out_headers; crows = materialize ctx slab proj ~order ~start ~take }

(* --- recognisers / public entry points ---------------------------------------- *)

let task_of_select db (s : Ast.select) : task =
  if s.distinct then fallback ();
  let steps =
    match s.from with [ tr ] -> Array.of_list (flatten_tref db tr []) | _ -> fallback ()
  in
  if Array.length steps = 0 then fallback ();
  let ctx0 = ctx_of_steps steps in
  (match s.where with Some w -> attach ctx0 steps w | None -> ());
  { steps; projections = s.projections; group_by = s.group_by; having = s.having }

let task_of_select_plan db (sp : Plan.select_plan) : task =
  if sp.Plan.distinct then fallback ();
  let source = match sp.Plan.source with Some r -> r | None -> fallback () in
  let with_filters, prefix_preds = flatten_rel db source in
  let steps = Array.of_list (List.map fst with_filters) in
  if Array.length steps = 0 then fallback ();
  let ctx0 = ctx_of_steps steps in
  (* scan-level filters first (innermost first), then predicates above join
     subtrees (inner to outer), then WHERE — the row engine's evaluation
     order *)
  List.iteri
    (fun t (_, sfs) -> List.iter (fun pred -> attach ctx0 steps ~prefix:(t + 1) pred) sfs)
    with_filters;
  List.iter (fun (ptables, pred) -> attach ctx0 steps ~prefix:ptables pred) prefix_preds;
  (match sp.Plan.where with Some w -> attach ctx0 steps w | None -> ());
  {
    steps;
    projections = sp.Plan.projections;
    group_by = sp.Plan.group_by;
    having = sp.Plan.having;
  }

let guard (f : unit -> result_set) : result_set option =
  try Some (f ())
  with Fallback | Compiled.Error _ | Eval.Error _ | Aggregate.Error _ -> None

let query db (q : Ast.query) : result_set option =
  if not !enabled then None
  else
    guard (fun () ->
        if q.Ast.ctes <> [] then fallback ();
        match q.Ast.body with
        | Ast.Select s ->
            run_query db (task_of_select db s) ~order_by:q.Ast.order_by
              ~limit:q.Ast.limit ~offset:q.Ast.offset
        | _ -> fallback ())

let select db (s : Ast.select) : result_set option =
  if not !enabled then None else guard (fun () -> run_body db (task_of_select db s))

let plan_query db (p : Plan.t) : result_set option =
  if not !enabled then None
  else
    guard (fun () ->
        if p.Plan.ctes <> [] then fallback ();
        match p.Plan.body with
        | Plan.Plan_select sp ->
            run_query db (task_of_select_plan db sp) ~order_by:p.Plan.order_by
              ~limit:p.Plan.limit ~offset:p.Plan.offset
        | _ -> fallback ())

let plan_select db (sp : Plan.select_plan) : result_set option =
  if not !enabled then None
  else guard (fun () -> run_body db (task_of_select_plan db sp))
