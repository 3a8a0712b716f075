(** The primitives the instruments share: a bounded history ring, an
    environment on/off switch and the slow-event log line.  {!Trace},
    {!Attribution}, {!Reqtrace} and the lineage store keep their
    histories in a {!Ring}; Attribution and Reqtrace take their switch
    and slow log from here. *)

(** A bounded ring: the newest [capacity] values, oldest evicted first.
    Every operation takes the ring's own mutex, so any domain may push
    or read. *)
module Ring : sig
  type 'a t

  (** @raise Invalid_argument unless [capacity > 0]. *)
  val create : int -> 'a t

  val push : 'a t -> 'a -> unit

  (** Values evicted by {!push} since {!create}; {!clear} and {!drain}
      leave it alone. *)
  val dropped : 'a t -> int

  val newest : 'a t -> 'a option
  val newest_first : 'a t -> 'a list
  val oldest_first : 'a t -> 'a list

  (** The contents oldest first, emptying the ring atomically. *)
  val drain : 'a t -> 'a list

  val clear : 'a t -> unit
end

(** [switch env] is on unless [env] is set to [0], [off], [false] or
    [no] (or [OFF]/[FALSE]). *)
val switch : string -> bool ref

(** [threshold env] parses [env] as milliseconds; [None] when unset or
    unparsable. *)
val threshold : string -> float option ref

(** [slow_log threshold ~event ~total_ns fields] prints one JSON line
    [{"event": event, …}] to stderr when [total_ns] exceeds the
    threshold.  [fields timing] lays out the rest of the object, placing
    [timing] — [total_ms] then [threshold_ms] — where it belongs. *)
val slow_log :
  float option ref -> event:string -> total_ns:int ->
  ((string * Json.t) list -> (string * Json.t) list) -> unit
