module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation

exception Corrupt of string

(* Codec generation.  Bumped whenever any encoding below changes shape;
   the containing artifacts (snapshot, WAL, serve protocol) embed it in
   their own version handshakes. *)
let version = 1

(* ---------------- sizing ---------------- *)

(* Byte counts of the encodings below, computed without encoding. *)
let string_size s = 4 + String.length s

let value_size = function
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 1 + string_size s
  | Value.Bool _ -> 2

(* An all-[Int] row is 9 bytes a value and its 8-byte count, so such a
   relation is sized from its cardinal without reading a tuple. *)
let relation_size r =
  if Relation.all_ints r then 8 + (Relation.cardinal r * (8 + (9 * Relation.arity r)))
  else
    Relation.fold
      (fun t _ acc ->
        Array.fold_left (fun acc v -> acc + value_size v) (acc + 8) (Tuple.to_array t))
      r 8

let changes_size changes =
  List.fold_left
    (fun acc (pred, delta) -> acc + string_size pred + relation_size delta)
    4 changes

(* ---------------- encoding ---------------- *)

(* One exact-size block, filled front to back.  The [Bytes.set_*] and
   [blit] bounds checks stop a write pass that outruns its size pass;
   [block] catches one that falls short. *)
type writer = { buf : bytes; mutable off : int }

let block n fill =
  let w = { buf = Bytes.create n; off = 0 } in
  fill w;
  if w.off <> n then
    invalid_arg (Printf.sprintf "Wire.block: sized %d bytes, wrote %d" n w.off);
  w.buf

let put_u8 w n =
  Bytes.set_uint8 w.buf w.off (n land 0xff);
  w.off <- w.off + 1

let put_u32 w n =
  Bytes.set_int32_le w.buf w.off (Int32.of_int n);
  w.off <- w.off + 4

let put_i64 w n =
  Bytes.set_int64_le w.buf w.off (Int64.of_int n);
  w.off <- w.off + 8

let put_raw w s =
  Bytes.blit_string s 0 w.buf w.off (String.length s);
  w.off <- w.off + String.length s

let put_string w s =
  put_u32 w (String.length s);
  put_raw w s

let put_value w = function
  | Value.Int n ->
    put_u8 w 0;
    put_i64 w n
  | Value.Float f ->
    put_u8 w 1;
    Bytes.set_int64_le w.buf w.off (Int64.bits_of_float f);
    w.off <- w.off + 8
  | Value.Str s ->
    put_u8 w 2;
    put_string w s
  | Value.Bool b ->
    put_u8 w 3;
    put_u8 w (if b then 1 else 0)

let put_tuple w t = Array.iter (put_value w) (Tuple.to_array t)

(* An all-[Int] relation is written from the sort's flat columns: tag 0
   and the i64 per value, then the count — [put_value]'s bytes. *)
let put_relation w r =
  let k = Relation.arity r in
  put_u32 w k;
  put_u32 w (Relation.cardinal r);
  Relation.iter_sorted_rows r
    ~ints:(fun cols off ->
      for j = off to off + k - 1 do
        put_u8 w 0;
        put_i64 w cols.(j)
      done;
      put_i64 w cols.(off + k))
    ~tuples:(fun t c ->
      put_tuple w t;
      put_i64 w c)

let put_changes w changes =
  put_u32 w (List.length changes);
  List.iter
    (fun (pred, delta) ->
      put_string w pred;
      put_relation w delta)
    changes

(* ---------------- decoding ---------------- *)

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }
let pos r = r.pos
let remaining r = String.length r.src - r.pos

let corrupt r msg = raise (Corrupt (Printf.sprintf "byte %d: %s" r.pos msg))

let need r n what =
  if remaining r < n then
    corrupt r (Printf.sprintf "truncated %s (need %d bytes, have %d)" what n (remaining r))

let get_u8 r =
  need r 1 "u8";
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_u32 r =
  need r 4 "u32";
  let v = Int32.to_int (String.get_int32_le r.src r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let get_i64 r =
  need r 8 "i64";
  let v = Int64.to_int (String.get_int64_le r.src r.pos) in
  r.pos <- r.pos + 8;
  v

let get_string r =
  let len = get_u32 r in
  need r len "string body";
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let get_value r =
  match get_u8 r with
  | 0 -> Value.Int (get_i64 r)
  | 1 ->
    need r 8 "float";
    let v = Value.Float (Int64.float_of_bits (String.get_int64_le r.src r.pos)) in
    r.pos <- r.pos + 8;
    v
  (* Interned on decode: a reloaded database shares string boxes with
     freshly parsed programs and keeps the [==] equality fast path. *)
  | 2 -> Value.str (get_string r)
  | 3 -> (
    match get_u8 r with
    | 0 -> Value.Bool false
    | 1 -> Value.Bool true
    | b -> corrupt r (Printf.sprintf "bad bool byte %d" b))
  | tag -> corrupt r (Printf.sprintf "bad value tag %d" tag)

let get_tuple r ~arity = Tuple.make (Array.init arity (fun _ -> get_value r))

(* A relation's arity and row count, both checked. *)
let relation_header r =
  let arity = get_u32 r in
  if arity > 0xFFFF then corrupt r (Printf.sprintf "implausible arity %d" arity);
  let rows = get_u32 r in
  (* The row count is untrusted and sizes the table: reject one the
     remaining bytes cannot hold.  The smallest row is a 2-byte [Bool]
     per column plus its 8-byte count. *)
  let min_row = (2 * arity) + 8 in
  if rows > remaining r / min_row then
    corrupt r
      (Printf.sprintf "%d rows of arity %d cannot fit in %d bytes" rows arity
         (remaining r));
  (arity, rows)

let get_relation r =
  let arity, rows = relation_header r in
  let rel = Relation.create ~size:(max 16 rows) arity in
  for _ = 1 to rows do
    let t = get_tuple r ~arity in
    let c = get_i64 r in
    Relation.add rel t c
  done;
  rel

let skip r n what =
  need r n what;
  r.pos <- r.pos + n

(* [get_value]'s checks without the value *)
let skip_value r =
  match get_u8 r with
  | 0 -> skip r 8 "i64"
  | 1 -> skip r 8 "float"
  | 2 -> skip r (get_u32 r) "string body"
  | 3 -> (
    match get_u8 r with
    | 0 | 1 -> ()
    | b -> corrupt r (Printf.sprintf "bad bool byte %d" b))
  | tag -> corrupt r (Printf.sprintf "bad value tag %d" tag)

let skip_relation r =
  let arity, rows = relation_header r in
  for _ = 1 to rows do
    for _ = 1 to arity do
      skip_value r
    done;
    skip r 8 "i64"
  done;
  arity

let get_changes r =
  List.init (get_u32 r) (fun _ ->
      let pred = get_string r in
      let delta = get_relation r in
      (pred, delta))
