module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation

exception Corrupt of string

(* Codec generation.  Bumped whenever any encoding below changes shape;
   the containing artifacts (snapshot, WAL, serve protocol) embed it in
   their own version handshakes. *)
let version = 1

(* ---------------- encoding ---------------- *)

let put_u8 buf n = Buffer.add_uint8 buf (n land 0xff)
let put_u32 buf n = Buffer.add_int32_le buf (Int32.of_int n)
let put_i64 buf n = Buffer.add_int64_le buf (Int64.of_int n)

let put_string buf s =
  put_u32 buf (String.length s);
  Buffer.add_string buf s

let put_value buf = function
  | Value.Int n ->
    put_u8 buf 0;
    put_i64 buf n
  | Value.Float f ->
    put_u8 buf 1;
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.Str s ->
    put_u8 buf 2;
    put_string buf s
  | Value.Bool b ->
    put_u8 buf 3;
    put_u8 buf (if b then 1 else 0)

let put_tuple buf t = Array.iter (put_value buf) (Tuple.to_array t)

let put_relation buf r =
  put_u32 buf (Relation.arity r);
  put_u32 buf (Relation.cardinal r);
  Relation.iter_sorted
    (fun t c ->
      put_tuple buf t;
      put_i64 buf c)
    r

(* Byte counts of the encodings above, computed without encoding. *)
let string_size s = 4 + String.length s

let value_size = function
  | Value.Int _ | Value.Float _ -> 9
  | Value.Str s -> 1 + string_size s
  | Value.Bool _ -> 2

let relation_size r =
  Relation.fold
    (fun t _ acc -> Array.fold_left (fun acc v -> acc + value_size v) (acc + 8) (Tuple.to_array t))
    r 8

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

let get_relation r =
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
  let rel = Relation.create ~size:(max 16 rows) arity in
  for _ = 1 to rows do
    let t = get_tuple r ~arity in
    let c = get_i64 r in
    Relation.add rel t c
  done;
  rel
