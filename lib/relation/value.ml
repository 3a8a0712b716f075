type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let kind_rank = function
  | Int _ -> 0
  | Float _ -> 1
  | Str _ -> 2
  | Bool _ -> 3

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | _ -> Int.compare (kind_rank a) (kind_rank b)

(* The equality hot path: a compiled match compares a bound value against
   every scanned tuple's column.  Physical equality first — interned
   strings ({!str}) and values copied out of stored tuples share boxes, so
   the fallback structural walk runs only on genuinely distinct values or
   un-interned duplicates. *)
let equal a b = a == b || compare a b = 0

let hash = function
  | Int x -> Hashtbl.hash x
  | Float x ->
    (* Hash an integral float like the equal integer so that [equal]
       implies equal hashes (Int 2 = Float 2.0 under [compare]). *)
    if Float.is_integer x && Float.abs x < 1e18 then Hashtbl.hash (int_of_float x)
    else Hashtbl.hash x
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b

let needs_quotes s =
  s = ""
  (* bare, these lex as the NOT keyword / boolean literals, not symbols *)
  || s = "not" || s = "true" || s = "false"
  || (match s.[0] with 'a' .. 'z' -> false | _ -> true)
  || String.exists
       (fun c ->
         not ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
             || (c >= '0' && c <= '9') || c = '_'))
       s

(* A string literal the Datalog lexer can read back: only the escapes it
   knows (backslash-escaped quote, backslash, n, t, r); every other byte
   passes through raw.  OCaml's %S would emit decimal escapes like \001
   that the lexer rejects. *)
let quoted s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Shortest representation that parses back to the same float.  Integral
   floats keep a ".0" so they re-read as Float, not Int; infinities use an
   overflowing literal since the lexer has no keyword for them.  NaN (not
   constructible by the evaluator's arithmetic) stays display-only. *)
let float_repr x =
  if Float.is_nan x then "nan"
  else if x = Float.infinity then "1e999"
  else if x = Float.neg_infinity then "-1e999"
  else if Float.is_integer x && Float.abs x < 1e16 then Printf.sprintf "%.1f" x
  else
    let try_prec p =
      let s = Printf.sprintf "%.*g" p x in
      if float_of_string s = x then Some s else None
    in
    let s =
      match try_prec 15 with
      | Some s -> s
      | None ->
        (match try_prec 16 with Some s -> s | None -> Printf.sprintf "%.17g" x)
    in
    (* %g drops the point for integral values once the exponent fits the
       precision ("35757007246772772") — that would re-lex as an Int *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let pp ppf = function
  | Int x -> Format.pp_print_int ppf x
  | Float x -> Format.pp_print_string ppf (float_repr x)
  | Str s ->
    if needs_quotes s then Format.pp_print_string ppf (quoted s)
    else Format.pp_print_string ppf s
  | Bool b -> Format.pp_print_bool ppf b

let to_string v = Format.asprintf "%a" pp v

(* ------------------------------------------------------------------ *)
(* Hash-consing of strings                                              *)
(* ------------------------------------------------------------------ *)

(* Canonical [Str] boxes, hash-consed through a weak set so the pool never
   keeps a string alive on its own.  Interning buys the [==] fast path in
   {!equal} (one pointer compare instead of a byte-wise walk on the join
   kernel's innermost loop) and makes snapshot/WAL reload share boxes with
   freshly parsed programs.  Ingress points (the Datalog/SQL parsers, the
   store codec, {!str}) intern; values already inside tuples stay interned
   as they flow through joins, so the hot path never touches the pool.

   The pool is guarded by a mutex: interning happens at parse/load time,
   not during parallel delta evaluation, so the lock is uncontended. *)
module Pool = Weak.Make (struct
  type nonrec t = t

  let equal a b =
    match a, b with
    | Str x, Str y -> String.equal x y
    | _ -> a == b  (* only Str values enter the pool *)

  let hash = function Str s -> Hashtbl.hash s | v -> Hashtbl.hash v
end)

let pool = Pool.create 1024
let pool_lock = Mutex.create ()

let str s =
  let v = Str s in
  Mutex.lock pool_lock;
  let c = try Pool.merge pool v with e -> Mutex.unlock pool_lock; raise e in
  Mutex.unlock pool_lock;
  c

(** Canonicalize one value: strings go through the intern pool, other
    kinds pass through.  The store codec interns every decoded string so a
    reloaded database joins as fast as a freshly built one. *)
let intern = function Str s -> str s | v -> v

(** Number of live interned strings (observability / tests). *)
let interned_count () =
  Mutex.lock pool_lock;
  let n = Pool.count pool in
  Mutex.unlock pool_lock;
  n

let int x = Int x
let float x = Float x
let bool b = Bool b

let is_numeric = function Int _ | Float _ -> true | Str _ | Bool _ -> false

let as_number = function
  | Int x -> float_of_int x
  | Float x -> x
  | (Str _ | Bool _) as v -> type_error "expected a number, got %s" (to_string v)

let arith name int_op float_op a b =
  match a, b with
  | Int x, Int y -> Int (int_op x y)
  | Float x, Float y -> Float (float_op x y)
  | Int x, Float y -> Float (float_op (float_of_int x) y)
  | Float x, Int y -> Float (float_op x (float_of_int y))
  | _ -> type_error "%s: non-numeric operand (%s, %s)" name (to_string a) (to_string b)

let add a b = arith "+" ( + ) ( +. ) a b
let sub a b = arith "-" ( - ) ( -. ) a b
let mul a b = arith "*" ( * ) ( *. ) a b

let div a b =
  match b with
  | Int 0 -> type_error "division by zero"
  | Float 0. -> type_error "division by zero"
  | _ -> arith "/" ( / ) ( /. ) a b

let neg = function
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | (Str _ | Bool _) as v -> type_error "-: non-numeric operand %s" (to_string v)
