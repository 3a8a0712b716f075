(** Minimal JSON: an emitter and a small recursive-descent parser.

    Just enough for the Chrome [trace_event] writer ({!Trace}), the bench
    reports ([--regress], [serve_load --json]), and the monitor's JSON
    endpoints — no external dependency.  Numbers are floats on parse
    (ints print without a fractional part when exact); strings are
    escaped per RFC 8259. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [int n] is [Num (float_of_int n)]. *)
val int : int -> t

(** Compact (no-whitespace) serialization. *)
val to_string : t -> string

exception Parse_error of string

(** Parse a complete JSON document.
    @raise Parse_error on malformed input or trailing garbage. *)
val of_string : string -> t

(* Accessors for tests / report readers.  All are total: a shape
   mismatch yields [None]. *)

val member : string -> t -> t option
val to_float_opt : t -> float option
val to_string_opt : t -> string option
