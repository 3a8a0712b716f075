(** Unit tests for the counted-relation storage layer: values, tuples,
    the [⊎] operator, indexes, and overlay views. *)

open Util

(* ---------------- Value ---------------- *)

let value_compare () =
  Alcotest.(check bool) "int order" true (Value.compare (Value.int 1) (Value.int 2) < 0);
  Alcotest.(check bool)
    "cross numeric equality" true
    (Value.equal (Value.int 2) (Value.float 2.0));
  Alcotest.(check bool)
    "cross numeric order" true
    (Value.compare (Value.int 2) (Value.float 2.5) < 0);
  Alcotest.(check bool)
    "kinds ordered deterministically" true
    (Value.compare (Value.str "a") (Value.bool true) < 0);
  Alcotest.(check int)
    "equal values hash equal" (Value.hash (Value.int 2))
    (Value.hash (Value.float 2.0))

let value_arith () =
  Alcotest.(check bool) "int add" true (Value.equal (Value.add (Value.int 2) (Value.int 3)) (Value.int 5));
  Alcotest.(check bool)
    "promotion" true
    (Value.equal (Value.add (Value.int 2) (Value.float 0.5)) (Value.float 2.5));
  Alcotest.check_raises "division by zero" (Value.Type_error "division by zero")
    (fun () -> ignore (Value.div (Value.int 1) (Value.int 0)));
  (try
     ignore (Value.add (Value.str "a") (Value.int 1));
     Alcotest.fail "expected Type_error"
   with Value.Type_error _ -> ())

let value_printing () =
  Alcotest.(check string) "symbol bare" "abc" (Value.to_string (Value.str "abc"));
  Alcotest.(check string) "odd string quoted" "\"A b\"" (Value.to_string (Value.str "A b"));
  Alcotest.(check string) "int" "42" (Value.to_string (Value.int 42));
  Alcotest.(check string) "float" "2.5" (Value.to_string (Value.float 2.5))

(* ---------------- Tuple ---------------- *)

let tuple_basics () =
  let t = Tuple.of_ints [ 1; 2; 3 ] in
  Alcotest.(check int) "arity" 3 (Tuple.arity t);
  Alcotest.(check bool) "equal" true (Tuple.equal t (Tuple.of_ints [ 1; 2; 3 ]));
  Alcotest.(check bool)
    "project" true
    (Tuple.equal (Tuple.project [| 2; 0 |] t) (Tuple.of_ints [ 3; 1 ]));
  Alcotest.(check bool)
    "length-first compare" true
    (Tuple.compare (Tuple.of_ints [ 9 ]) (Tuple.of_ints [ 1; 1 ]) < 0);
  Alcotest.(check int)
    "hash consistent with cross-kind equality"
    (Tuple.hash (Tuple.of_list [ Value.int 1 ]))
    (Tuple.hash (Tuple.of_list [ Value.float 1.0 ]))

(* ---------------- Relation ---------------- *)

let rel_counts () =
  let r = Relation.create 2 in
  let ab = Tuple.of_strs [ "a"; "b" ] in
  Relation.add r ab 2;
  Relation.add r ab 3;
  Alcotest.(check int) "accumulates" 5 (Relation.count r ab);
  Relation.add r ab (-5);
  Alcotest.(check bool) "drops at zero" false (Relation.mem r ab);
  Alcotest.(check int) "cardinal" 0 (Relation.cardinal r)

let rel_negative_counts () =
  let r = Relation.create 2 in
  let ab = Tuple.of_strs [ "a"; "b" ] in
  Relation.add r ab (-2);
  Alcotest.(check int) "negative kept (delta)" (-2) (Relation.count r ab);
  check_rel "negative part" (rel_of_pairs "ab 2") (Relation.negative_part r);
  Alcotest.(check int) "positive part empty" 0 (Relation.cardinal (Relation.positive_part r))

let rel_arity_mismatch () =
  let r = Relation.create 2 in
  try
    Relation.add r (Tuple.of_strs [ "a" ]) 1;
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let rel_set_ops () =
  let a = rel_of_pairs "ab 2; cd" in
  let b = rel_of_pairs "ab -1; ef 3" in
  check_rel "union" (rel_of_pairs "ab; cd; ef 3") (Relation.union a b);
  check_rel "diff" (rel_of_pairs "ab 3; cd; ef -3") (Relation.diff a b);
  check_rel "to_set" (rel_of_pairs "ab; cd") (Relation.to_set a);
  Alcotest.(check bool)
    "equal_sets ignores counts" true
    (Relation.equal_sets (rel_of_pairs "ab 5; cd") (rel_of_pairs "ab; cd"));
  Alcotest.(check bool)
    "equal_counted sees counts" false
    (Relation.equal_counted (rel_of_pairs "ab 5") (rel_of_pairs "ab"))

let rel_set_delta () =
  let old_ = rel_of_pairs "ab 2; cd" in
  let new_ = rel_of_pairs "ab 1; ef" in
  check_rel "set delta" (rel_of_pairs "cd -1; ef") (Relation.set_delta ~old_ ~new_)

let rel_index_probe () =
  let r = rel_of_pairs "ab; ac; bc; bd 2" in
  Relation.ensure_index r [| 0 |];
  let hits = ref [] in
  Relation.probe r [| 0 |] (Tuple.of_strs [ "b" ]) (fun t c -> hits := (t, c) :: !hits);
  Alcotest.(check int) "two b-edges" 2 (List.length !hits);
  (* index follows subsequent mutation *)
  Relation.add r (Tuple.of_strs [ "b"; "e" ]) 1;
  Relation.add r (Tuple.of_strs [ "b"; "c" ]) (-1);
  let hits = ref 0 in
  Relation.probe r [| 0 |] (Tuple.of_strs [ "b" ]) (fun _ _ -> incr hits);
  Alcotest.(check int) "after updates" 2 !hits;
  (* probe on both columns *)
  let hit = ref 0 in
  Relation.probe r [| 0; 1 |] (Tuple.of_strs [ "b"; "d" ]) (fun _ c -> hit := c);
  Alcotest.(check int) "exact probe sees count" 2 !hit

let rel_printing () =
  Alcotest.(check string)
    "sorted with counts" "{a,b; a,c 2; m,n -1}"
    (Relation.to_string
       (Relation.of_list 2
          [
            (Tuple.of_strs [ "a"; "c" ], 2);
            (Tuple.of_strs [ "m"; "n" ], -1);
            (Tuple.of_strs [ "a"; "b" ], 1);
          ]))

(* ---------------- Relation_view ---------------- *)

let view_overlay () =
  let base = rel_of_pairs "ab 2; cd" in
  let delta = rel_of_pairs "ab -2; ef" in
  let v = Relation_view.overlay base delta in
  Alcotest.(check bool) "ab cancelled" false (Relation_view.mem v (Tuple.of_strs [ "a"; "b" ]));
  Alcotest.(check int) "ef visible" 1 (Relation_view.count v (Tuple.of_strs [ "e"; "f" ]));
  Alcotest.(check int) "cd unchanged" 1 (Relation_view.count v (Tuple.of_strs [ "c"; "d" ]));
  (* iter sees each visible tuple once *)
  let seen = ref [] in
  Relation_view.iter (fun t c -> seen := (Tuple.to_string t, c) :: !seen) v;
  Alcotest.(check int) "two visible tuples" 2 (List.length !seen);
  check_rel "force materializes" (rel_of_pairs "cd; ef") (Relation_view.force v)

let view_overlay_probe () =
  let base = rel_of_pairs "ab; ac; bd" in
  let delta = rel_of_pairs "ab -1; ae" in
  let v = Relation_view.overlay base delta in
  let hits = ref [] in
  Relation_view.probe v [| 0 |] (Tuple.of_strs [ "a" ]) (fun t _ -> hits := t :: !hits);
  let names = List.sort compare (List.map Tuple.to_string !hits) in
  Alcotest.(check (list string)) "a-edges" [ "(a, c)"; "(a, e)" ] names

let view_collapse () =
  let base = rel_of_pairs "ab" in
  match Relation_view.overlay base (Relation.create 2) with
  | Relation_view.Concrete _ -> ()
  | Relation_view.Overlay _ -> Alcotest.fail "empty delta should collapse"

(* ---------------- sorted entries ---------------- *)

(* The sorted order is [Array.stable_sort]'s over the reverse of the
   table's iteration order, even for tuples that compare equal without
   being equal (an [Int] and a [Float] around 2^53) — the order frames
   and snapshots have always been encoded in. *)
let sorted_matches_stable_sort () =
  let big = 1 lsl 53 in
  let pool =
    [| Value.int big; Value.int (big + 1); Value.int (big - 1);
       Value.float (float_of_int big); Value.float (float_of_int big +. 2.);
       Value.int 3; Value.float 3.5; Value.str "x" |]
  in
  let st = Random.State.make [| 23 |] in
  for _ = 1 to 50 do
    let r = Relation.create 2 in
    for _ = 1 to 1 + Random.State.int st 600 do
      let v () = pool.(Random.State.int st (Array.length pool)) in
      Relation.add r (Tuple.of_list [ v (); v () ]) 1
    done;
    let want = Array.of_list (Relation.fold (fun t c acc -> (t, c) :: acc) r []) in
    Array.stable_sort (fun (x, _) (y, _) -> Tuple.compare x y) want;
    Alcotest.(check bool) "same order as Array.stable_sort" true
      (Array.to_list want = Relation.to_sorted_list r)
  done

(* A relation built just now holds young entries.  Sorting one of more
   than 256 rows must not force a minor collection (neither the entry
   array nor the merge buffer may be seeded with a young entry). *)
let sorted_forces_no_minor () =
  Gc.minor ();
  let r = Relation.create 2 in
  for i = 0 to 1999 do
    Relation.add r (Tuple.of_ints [ i * 7919 mod 2000; i ]) 1
  done;
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let rows = ref 0 in
  Relation.iter_sorted (fun _ _ -> incr rows) r;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "all rows" 2000 !rows;
  Alcotest.(check int) "no minor collection" 0 (after - before)

(* ---------------- canonical order (qcheck) ---------------- *)

(* The sort kernel against its reference: [Array.stable_sort] by
   [Tuple.compare] over the reverse of [iter] order, the order snapshots
   and frames have always been written in.  A case is an arity (0–3), a
   column kind and rows with small signed counts, adds that cancel
   included.  [Ints] relations take the flat-column path: small values,
   negatives, [min_int], [max_int], any int, and ints around 2^53;
   [One_float] puts one [Float] among such ints, including floats that
   tie with an [Int] past 2^53 ([float_of_int (2^53 + 1) = 2^53]);
   [Mixed] draws strings and booleans too.  Mostly a few hundred rows,
   sometimes a few thousand, so both digit widths of the radix passes
   run. *)
type column_kind = Ints | One_float | Mixed

let big = 1 lsl 53

let int_value_gen =
  QCheck.Gen.(
    frequency
      [ (6, map Value.int (int_range (-20) 20)); (1, return (Value.int min_int));
        (1, return (Value.int max_int)); (2, map Value.int int);
        (2, map (fun d -> Value.int (big + d)) (int_range (-2) 2)) ])

let float_value_gen =
  QCheck.Gen.(
    oneof
      [ map (fun d -> Value.float (float_of_int (big + d))) (int_range (-2) 2);
        map (fun x -> Value.float (float_of_int x)) (int_range (-20) 20);
        map Value.float (float_range (-20.) 20.) ])

let order_case_gen =
  QCheck.Gen.(
    let* arity = int_range 0 3 and* kind = oneofl [ Ints; One_float; Mixed ] in
    let* n = frequency [ (9, int_range 0 300); (1, int_range 2000 3000) ] in
    let value =
      match kind with
      | Ints | One_float -> int_value_gen
      | Mixed ->
        frequency
          [ (3, int_value_gen); (1, float_value_gen);
            (1, map Value.str (string_size ~gen:printable (int_range 0 2)));
            (1, map Value.bool bool) ]
    in
    let* rows = list_repeat n (pair (array_repeat arity value) (int_range (-2) 3)) in
    let* at = int_bound (max 0 (n - 1)) and* col = int_bound (max 0 (arity - 1)) in
    let* f = float_value_gen in
    if kind = One_float && n > 0 && arity > 0 then (fst (List.nth rows at)).(col) <- f;
    return (arity, rows))

let print_order_case (arity, rows) =
  Printf.sprintf "arity %d: %s" arity
    (String.concat "; "
       (List.map (fun (vals, c) -> Printf.sprintf "%s %d" (Tuple.to_string (Tuple.make vals)) c) rows))

let order_case = QCheck.make ~print:print_order_case order_case_gen

let relation_of_case (arity, rows) =
  let r = Relation.create arity in
  List.iter (fun (vals, c) -> Relation.add r (Tuple.make (Array.copy vals)) c) rows;
  r

(* The reference order: the stored tuples themselves, with their counts. *)
let reference_order r =
  let rows = Array.of_list (Relation.fold (fun t c acc -> (t, c) :: acc) r []) in
  Array.stable_sort (fun (x, _) (y, _) -> Tuple.compare x y) rows;
  Array.to_list rows

let same_rows a b =
  List.length a = List.length b && List.for_all2 (fun (t, c) (u, d) -> t == u && c = d) a b

let sorted_is_reference_order case =
  let r = relation_of_case case in
  let want = reference_order r in
  let iterated = ref [] in
  Relation.iter_sorted (fun t c -> iterated := (t, c) :: !iterated) r;
  same_rows want (Relation.to_sorted_list r) && same_rows want (List.rev !iterated)

(* [Wire.put_relation], whose all-[Int] rows are written from the sort's
   flat columns, against the bytes of the reference order's rows written
   one [put_tuple] at a time. *)
let put_relation_is_reference_encoding case =
  let module Wire = Ivm_wire.Wire in
  let r = relation_of_case case in
  let size = Wire.relation_size r in
  let want =
    Wire.block size (fun w ->
        Wire.put_u32 w (Relation.arity r);
        Wire.put_u32 w (Relation.cardinal r);
        List.iter
          (fun (t, c) ->
            Wire.put_tuple w t;
            Wire.put_i64 w c)
          (reference_order r))
  in
  Bytes.equal want (Wire.block size (fun w -> Wire.put_relation w r))

(* ---------------- table layout ---------------- *)

(* The main table must keep [Hashtbl.Make (Tuple)]'s layout, so a
   relation and a reference table of mutable counts — the structure
   earlier releases stored — driven through the same operations visit
   the same stored tuples, with the same counts, in the same order.
   Keys are drawn fresh or re-used from earlier operations, each column
   re-used as an [Int] or as the [Float] that ties with it under
   [Tuple.compare], so a lookup can name a stored tuple by an equal but
   different key.  A case grows past 1,024 tuples (four resizes from
   the default 64 buckets), then is copied into a fresh relation,
   cleared and driven on. *)
module Ref_tbl = Hashtbl.Make (Tuple)

type layout_op = Add | Set | Remove | Patch | Union | Copy

let layout_op_gen =
  QCheck.Gen.(
    quad
      (frequencyl [ (70, Add); (8, Set); (8, Remove); (8, Patch); (4, Union); (1, Copy) ])
      (int_bound 1_000_000) bool (int_range (-3) 3))

let layout_case_gen =
  QCheck.Gen.(
    pair (list_size (int_range 2500 3500) layout_op_gen)
      (list_size (int_range 0 300) layout_op_gen))

let ref_add m t c =
  match Ref_tbl.find_opt m t with
  | Some n -> if !n + c = 0 then Ref_tbl.remove m t else n := !n + c
  | None -> if c <> 0 then Ref_tbl.add m t (ref c)

let ref_copy m =
  let m' = Ref_tbl.create (Ref_tbl.length m) in
  Ref_tbl.iter (fun t n -> Ref_tbl.replace m' t (ref !n)) m;
  m'

let same_layout r m =
  let entries = Relation.fold (fun t c acc -> (Tuple.to_array t, c) :: acc) r [] in
  let want = Ref_tbl.fold (fun t n acc -> (Tuple.to_array t, !n) :: acc) m [] in
  let visited = ref 0 and sentinel = ref false in
  Relation.iter
    (fun t c ->
      incr visited;
      if Tuple.arity t <> 2 || c = 0 then sentinel := true)
    r;
  entries = want
  && Relation.cardinal r = Ref_tbl.length m
  && !visited = Relation.cardinal r
  && not !sentinel

let same_sorted r m =
  let want =
    List.stable_sort (fun (x, _) (y, _) -> Tuple.compare x y)
      (Ref_tbl.fold (fun t n acc -> (t, !n) :: acc) m [])
  in
  let arrays = List.map (fun (t, c) -> (Tuple.to_array t, c)) in
  arrays (Relation.to_sorted_list r) = arrays want

let same_layout_as_hashtbl (ops, tail) =
  let r = ref (Relation.create 2) and m = ref (Ref_tbl.create 64) in
  let keys = Hashtbl.create 4096 and peak = ref 0 and ok = ref true in
  let twin = function Value.Int i -> Value.float (float_of_int i) | v -> v in
  (* [sel] picks a fresh key (mostly, for an [Add]) or an earlier one
     (mostly, otherwise); [tie] re-uses it with tying float columns *)
  let key op sel tie =
    let fresh = if op = Add then sel land 3 <> 0 else sel land 3 = 0 in
    let n = Hashtbl.length keys in
    if n = 0 || fresh then (
      let t = Tuple.of_ints [ sel / 4 mod 300; sel / 1200 mod 300 ] in
      Hashtbl.add keys n t;
      t)
    else
      let t = Hashtbl.find keys (sel / 4 mod n) in
      if tie then Tuple.map twin t else t
  in
  let step (op, sel, tie, c) =
    let t = key op sel tie in
    (match op with
    | Add ->
      Relation.add !r t c;
      ref_add !m t c
    | Set ->
      Relation.set_count !r t c;
      ref_add !m t
        (c - match Ref_tbl.find_opt !m t with Some n -> !n | None -> 0)
    | Remove ->
      Relation.remove !r t;
      Ref_tbl.remove !m t
    | Patch -> (
      let before = match Ref_tbl.find_opt !m t with Some n -> !n | None -> 0 in
      let refused = c <> 0 && before + c < 0 in
      match Relation.patch !r t c with
      | () ->
        if refused then ok := false;
        ref_add !m t c
      | exception Invalid_argument _ -> if not refused then ok := false)
    | Union ->
      let l = List.init (1 + (sel mod 20)) (fun i -> (key Add (sel + (i * 5)) tie, c + i - 9)) in
      let other = Relation.of_list 2 l and m_other = Ref_tbl.create (List.length l) in
      List.iter (fun (t, c) -> ref_add m_other t c) l;
      Relation.union_into ~into:!r other;
      Ref_tbl.iter (fun t n -> ref_add !m t !n) m_other
    | Copy ->
      r := Relation.copy !r;
      m := ref_copy !m);
    peak := max !peak (Relation.cardinal !r);
    ok := !ok && Relation.cardinal !r = Ref_tbl.length !m;
    if op = Copy || sel mod 128 = 0 then ok := !ok && same_layout !r !m
  in
  List.iter step ops;
  ok := !ok && same_layout !r !m && same_sorted !r !m && !peak > 1024;
  (* regrow from the default size (a copy starts at its own size), so
     [clear] has a grown table to take back to the initial length *)
  let grown = Relation.create 2 and grown_m = Ref_tbl.create 64 in
  Relation.union_into ~into:grown !r;
  Ref_tbl.iter (fun t n -> ref_add grown_m t !n) !m;
  r := grown;
  m := grown_m;
  ok := !ok && same_layout !r !m;
  Relation.clear !r;
  Ref_tbl.reset !m;
  List.iter step tail;
  !ok && same_layout !r !m && same_sorted !r !m

(* ---------------- index layout ---------------- *)

(* Every secondary-index group must keep the layout of the
   [Hashtbl.Make (Tuple)] bucket it replaced, so a probe enumerates a
   group in the order earlier releases did.  A relation indexed on
   [|0|], [|1|] and [|1;0|] runs beside a reference of that structure —
   a main [Ref_tbl] plus, per index, a table from projection to a table
   of the group's tuples — through random adds, sets, removes, patches,
   unions and copies.  Half the fresh tuples share column 0, so that
   group passes two doublings (more than 64 members); keys re-use
   earlier tuples as the [Float]s that tie with their [Int]s; every
   group is probed, by its key and by its tied twin, and so are the
   keys of groups that have emptied.  Then the big group is emptied and
   re-created, and the relation cleared and re-indexed. *)
let index_cols = [ [| 0 |]; [| 1 |]; [| 1; 0 |] ]

type ref_rel = { m : int ref Ref_tbl.t; ixs : (int array * unit Ref_tbl.t Ref_tbl.t) list }

let ref_rel n = { m = Ref_tbl.create n; ixs = List.map (fun c -> (c, Ref_tbl.create 16)) index_cols }

let ref_link rr t =
  List.iter
    (fun (cols, ix) ->
      let key = Tuple.project cols t in
      match Ref_tbl.find_opt ix key with
      | Some g -> Ref_tbl.replace g t ()
      | None ->
        let g = Ref_tbl.create 4 in
        Ref_tbl.add ix key g;
        Ref_tbl.replace g t ())
    rr.ixs

let ref_unlink rr t =
  List.iter
    (fun (cols, ix) ->
      let key = Tuple.project cols t in
      match Ref_tbl.find_opt ix key with
      | None -> ()
      | Some g ->
        Ref_tbl.remove g t;
        if Ref_tbl.length g = 0 then Ref_tbl.remove ix key)
    rr.ixs

let ref_set rr t c =
  match Ref_tbl.find_opt rr.m t with
  | Some _ when c = 0 ->
    Ref_tbl.remove rr.m t;
    ref_unlink rr t
  | Some n -> n := c
  | None when c = 0 -> ()
  | None ->
    Ref_tbl.add rr.m t (ref c);
    ref_link rr t

let ref_count rr t = match Ref_tbl.find_opt rr.m t with Some n -> !n | None -> 0

(* A copy, as [Relation.copy] makes it: the main table refilled in
   iteration order, then each index rebuilt in the copy's order. *)
let ref_rel_copy rr =
  let out = ref_rel (Ref_tbl.length rr.m) in
  Ref_tbl.iter (fun t n -> Ref_tbl.replace out.m t (ref !n)) rr.m;
  Ref_tbl.iter (fun t _ -> ref_link out t) out.m;
  out

let twin = function Value.Int i -> Value.float (float_of_int i) | v -> v

let same_probes r rr pool =
  let ok = ref (Relation.index_count r = List.length index_cols) in
  List.iter
    (fun (cols, ix) ->
      let keys = Ref_tbl.create 256 in
      List.iter (fun t -> Ref_tbl.replace keys (Tuple.project cols t) ()) pool;
      Ref_tbl.iter (fun key _ -> Ref_tbl.replace keys key ()) ix;
      Ref_tbl.iter
        (fun key () ->
          let want =
            match Ref_tbl.find_opt ix key with
            | None -> []
            | Some g ->
              Ref_tbl.fold (fun t () acc -> (Tuple.to_array t, ref_count rr t) :: acc) g []
          in
          List.iter
            (fun key ->
              let got = ref [] in
              Relation.probe r cols key (fun t c -> got := (Tuple.to_array t, c) :: !got);
              ok := !ok && !got = want)
            [ key; Tuple.map twin key ])
        keys)
    rr.ixs;
  !ok

let index_layout_as_nested_hashtbl (ops, tail) =
  let r = Relation.create 2 and rr = ref (ref_rel 64) in
  List.iter (Relation.ensure_index r) index_cols;
  let r = ref r and pool = ref [] and n_pool = ref 0 and ok = ref true in
  let key op sel tie =
    let fresh = if op = Add then sel land 3 <> 0 else sel land 3 = 0 in
    if !n_pool = 0 || fresh then begin
      let a = if sel land 4 = 0 then 7 else sel / 8 mod 40 in
      let t = Tuple.of_ints [ a; sel / 320 mod 600 ] in
      pool := t :: !pool;
      incr n_pool;
      t
    end
    else
      let t = List.nth !pool (sel / 4 mod !n_pool) in
      if tie then Tuple.map twin t else t
  in
  let step (op, sel, tie, c) =
    let t = key op sel tie in
    (match op with
    | Add ->
      Relation.add !r t c;
      ref_set !rr t (ref_count !rr t + c)
    | Set ->
      Relation.set_count !r t c;
      ref_set !rr t c
    | Remove ->
      Relation.remove !r t;
      ref_set !rr t 0
    | Patch -> (
      let before = ref_count !rr t in
      match Relation.patch !r t c with
      | () -> ref_set !rr t (before + c)
      | exception Invalid_argument _ -> if c = 0 || before + c >= 0 then ok := false)
    | Union ->
      let l = List.init (1 + (sel mod 20)) (fun i -> (key Add (sel + (i * 5)) tie, c + i - 9)) in
      Relation.union_into ~into:!r (Relation.of_list 2 l);
      (* applied in the other relation's order, as [union_into] does *)
      let other = Ref_tbl.create (List.length l) in
      List.iter (fun (t, c) -> ref_add other t c) l;
      Ref_tbl.iter (fun t n -> ref_set !rr t (ref_count !rr t + !n)) other
    | Copy ->
      r := Relation.copy !r;
      rr := ref_rel_copy !rr);
    if op = Copy || sel mod 256 = 0 then ok := !ok && same_probes !r !rr !pool
  in
  List.iter step ops;
  ok := !ok && same_probes !r !rr !pool;
  (* the big group: past two doublings, then emptied and re-created *)
  let seven = Tuple.of_ints [ 7 ] and members = ref [] in
  Relation.probe !r [| 0 |] seven (fun t _ -> members := t :: !members);
  ok := !ok && List.length !members > 64;
  List.iter
    (fun t ->
      Relation.remove !r t;
      ref_set !rr t 0)
    !members;
  Relation.probe !r [| 0 |] seven (fun _ _ -> ok := false);
  ok := !ok && same_probes !r !rr !pool;
  List.iteri
    (fun i t ->
      if i mod 3 = 0 then begin
        Relation.add !r t 2;
        ref_set !rr t 2
      end)
    !members;
  ok := !ok && same_probes !r !rr !pool;
  Relation.clear !r;
  Ref_tbl.reset !rr.m;
  rr := { !rr with ixs = (ref_rel 0).ixs };
  ok := !ok && Relation.index_count !r = 0;
  List.iter (Relation.ensure_index !r) index_cols;
  List.iter step tail;
  !ok && same_probes !r !rr !pool

let suite =
  [
    quick "value compare/equal/hash" value_compare;
    quick "value arithmetic" value_arith;
    quick "value printing" value_printing;
    quick "tuple basics" tuple_basics;
    quick "relation count accumulation" rel_counts;
    quick "relation negative counts" rel_negative_counts;
    quick "relation arity mismatch" rel_arity_mismatch;
    quick "relation set operations" rel_set_ops;
    quick "relation set_delta" rel_set_delta;
    quick "relation index probing" rel_index_probe;
    quick "relation printing" rel_printing;
    quick "overlay view semantics" view_overlay;
    quick "overlay view probing" view_overlay_probe;
    quick "overlay collapses when delta empty" view_collapse;
    quick "sorted entries: Array.stable_sort order" sorted_matches_stable_sort;
    quick "sorted entries: no forced minor collection" sorted_forces_no_minor;
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"sorted entries: reference stable sort, every column kind" order_case
         sorted_is_reference_order);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"Wire.put_relation: the reference order's put_tuple bytes" order_case
         put_relation_is_reference_encoding);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:20
         ~name:"main table keeps Hashtbl.Make (Tuple)'s layout"
         (QCheck.make layout_case_gen) same_layout_as_hashtbl);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:20
         ~name:"indexes keep nested Hashtbl.Make (Tuple)'s probe order"
         (QCheck.make layout_case_gen) index_layout_as_nested_hashtbl);
  ]
