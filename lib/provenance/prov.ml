(** Provenance capture store — see the interface for the contract. *)

module Tuple = Ivm_relation.Tuple
module Json = Ivm_obs.Json
module Metrics = Ivm_obs.Metrics

type mode = Add | Remove

type support = {
  rule : string;
  subgoals : (string * Tuple.t) array;
  mult : int;
}

type event = { batch : int; kind : [ `Derived | `Deleted ] }

type lineage = {
  first_derived : int option;
  last_deleted : int option;
  events : event list;
}

type batch_info = { seq : int; algorithm : string }

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

(* Mutable twin of [support]: the mult is bumped in place as equal
   instantiations accumulate. *)
type sup = {
  s_rule : string;
  s_subgoals : (string * Tuple.t) array;
  mutable s_mult : int;
}

type entry = {
  mutable sups : sup list;  (* bounded by the per-tuple support cap *)
  mutable sup_truncated : bool;
  mutable first_derived : int option;
  mutable last_deleted : int option;
  mutable events : event list;  (* newest first, bounded *)
}

module Key = struct
  type t = string * Tuple.t

  let equal (p1, t1) (p2, t2) = String.equal p1 p2 && Tuple.equal t1 t2
  let hash (p, t) = (String.hash p * 31) + Tuple.hash t
end

module Tbl = Hashtbl.Make (Key)

let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let suspend_depth = Atomic.make 0
let mode_ref = ref Add
let table : entry Tbl.t = Tbl.create 4096

(* Rule strings interned so equal supports share one box and the
   membership test can start with a pointer compare. *)
let interned_rules : (string, string) Hashtbl.t = Hashtbl.create 64
let seq = ref 0
let ring : batch_info Ivm_obs.Instr.Ring.t = Ivm_obs.Instr.Ring.create 64
let max_events = 16
let last_truncate_reason : string option ref = ref None

let max_supports_v =
  ref
    (match Sys.getenv_opt "IVM_PROV_MAX_SUPPORTS" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> 8)
    | None -> 8)

(* Size accounting, guarded by [lock]. *)
let n_entries = ref 0
let n_supports = ref 0
let n_subgoals = ref 0
let n_events = ref 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_supports =
  Metrics.gauge ~help:"Provenance supports currently stored"
    "ivm_prov_supports_stored"

let m_tuples =
  Metrics.gauge ~help:"Tuples with a provenance entry" "ivm_prov_tuples_tracked"

let m_bytes =
  Metrics.gauge ~help:"Approximate bytes held by the provenance store"
    "ivm_prov_bytes_estimate"

let m_records =
  Metrics.counter ~help:"Provenance capture events (support add/remove)"
    "ivm_prov_records_total"

let m_truncations =
  Metrics.counter
    ~help:
      "Store-wide support truncations (rule redefinition, recompute, restore)"
    "ivm_prov_truncations_total"

let m_dropped =
  Metrics.counter ~help:"Supports dropped by the per-tuple bound"
    "ivm_prov_supports_dropped_total"

let m_unmatched =
  Metrics.counter
    ~help:
      "Support removals with no matching support (expected under DRed \
       over-deletion)"
    "ivm_prov_unmatched_removals_total"

(* Word-count model: entry ≈ 10 words (box + 5 fields + table slot),
   support ≈ 6, each subgoal reference ≈ 3, each lineage event ≈ 3. *)
let bytes_estimate () =
  8 * ((!n_entries * 10) + (!n_supports * 6) + (!n_subgoals * 3) + (!n_events * 3))

let sync_gauges () =
  Metrics.set m_supports (float_of_int !n_supports);
  Metrics.set m_tuples (float_of_int !n_entries);
  Metrics.set m_bytes (float_of_int (bytes_estimate ()))

(* ------------------------------------------------------------------ *)
(* State management                                                    *)
(* ------------------------------------------------------------------ *)

let enabled () = Atomic.get enabled_flag
let capturing () = Atomic.get enabled_flag && Atomic.get suspend_depth = 0

let with_suspended f =
  Atomic.incr suspend_depth;
  Fun.protect ~finally:(fun () -> Atomic.decr suspend_depth) f

let set_mode m = mode_ref := m

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset_store () =
  Tbl.reset table;
  Hashtbl.reset interned_rules;
  n_entries := 0;
  n_supports := 0;
  n_subgoals := 0;
  n_events := 0;
  seq := 0;
  Ivm_obs.Instr.Ring.clear ring;
  last_truncate_reason := None;
  sync_gauges ()

let reset () = locked reset_store

let set_enabled b =
  locked (fun () ->
      if b <> Atomic.get enabled_flag then begin
        Atomic.set enabled_flag b;
        reset_store ()
      end)

let max_supports () = !max_supports_v
let set_max_supports n = if n > 0 then max_supports_v := n

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let entry_of key =
  match Tbl.find_opt table key with
  | Some e -> e
  | None ->
    let e =
      {
        sups = [];
        sup_truncated = false;
        first_derived = None;
        last_deleted = None;
        events = [];
      }
    in
    Tbl.add table key e;
    incr n_entries;
    e

let intern_rule r =
  match Hashtbl.find_opt interned_rules r with
  | Some r -> r
  | None ->
    Hashtbl.add interned_rules r r;
    r

let same_subgoals a b =
  Array.length a = Array.length b
  &&
  let n = Array.length a in
  let rec go i =
    i >= n
    ||
    let p1, t1 = a.(i) and p2, t2 = b.(i) in
    String.equal p1 p2 && Tuple.equal t1 t2 && go (i + 1)
  in
  go 0

let drop_sups e =
  List.iter
    (fun s ->
      decr n_supports;
      n_subgoals := !n_subgoals - Array.length s.s_subgoals)
    e.sups;
  e.sups <- [];
  e.sup_truncated <- false

let pseudo p = String.length p > 0 && p.[0] = '$'

let record ~pred ~rule ~head ~count ~subgoals =
  if count <> 0 && capturing () && not (pseudo pred) then
    locked (fun () ->
        Metrics.inc m_records;
        let rule = intern_rule rule in
        let sg =
          Array.of_list (List.filter (fun (p, _) -> not (pseudo p)) subgoals)
        in
        let e = entry_of (pred, head) in
        let remove = !mode_ref = Remove || count < 0 in
        let c = abs count in
        let find () =
          List.find_opt
            (fun s ->
              (s.s_rule == rule || String.equal s.s_rule rule)
              && same_subgoals s.s_subgoals sg)
            e.sups
        in
        if remove then
          match find () with
          | Some s ->
            s.s_mult <- s.s_mult - c;
            if s.s_mult <= 0 then begin
              e.sups <- List.filter (fun s' -> s' != s) e.sups;
              decr n_supports;
              n_subgoals := !n_subgoals - Array.length sg
            end
          | None -> Metrics.inc m_unmatched
        else begin
          (match find () with
          | Some s -> s.s_mult <- s.s_mult + c
          | None ->
            if List.length e.sups >= !max_supports_v then begin
              e.sup_truncated <- true;
              Metrics.inc m_dropped
            end
            else begin
              e.sups <- { s_rule = rule; s_subgoals = sg; s_mult = c } :: e.sups;
              incr n_supports;
              n_subgoals := !n_subgoals + Array.length sg
            end);
          ()
        end;
        sync_gauges ())

let batch_begin ~algorithm =
  if capturing () then
    locked (fun () ->
        incr seq;
        Ivm_obs.Instr.Ring.push ring { seq = !seq; algorithm })

let current_batch () = !seq

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let on_transition ~pred tup kind =
  if capturing () && not (pseudo pred) then
    locked (fun () ->
        let e = entry_of (pred, tup) in
        let b = !seq in
        (match kind with
        | `Derived -> if e.first_derived = None then e.first_derived <- Some b
        | `Deleted ->
          e.last_deleted <- Some b;
          drop_sups e);
        (match e.events with
        | { batch; kind = k } :: _ when batch = b && k = kind ->
          () (* same transition already noted this batch *)
        | _ ->
          let before = List.length e.events in
          e.events <- take max_events ({ batch = b; kind } :: e.events);
          n_events := !n_events + List.length e.events - before);
        sync_gauges ())

let truncate_supports ~reason =
  if enabled () then
    locked (fun () ->
        Tbl.iter (fun _ e -> drop_sups e) table;
        last_truncate_reason := Some reason;
        Metrics.inc m_truncations;
        sync_gauges ())

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let compare_subgoal (p1, t1) (p2, t2) =
  match String.compare p1 p2 with 0 -> Tuple.compare t1 t2 | c -> c

let compare_support a b =
  match String.compare a.rule b.rule with
  | 0 ->
    (* Lexicographic on the subgoal arrays — support order must not leak
       the domain interleaving that built the store. *)
    let la = Array.length a.subgoals and lb = Array.length b.subgoals in
    let rec go i =
      if i >= la || i >= lb then Stdlib.compare la lb
      else
        match compare_subgoal a.subgoals.(i) b.subgoals.(i) with
        | 0 -> go (i + 1)
        | c -> c
    in
    go 0
  | c -> c

let supports_of ~pred tup =
  locked (fun () ->
      match Tbl.find_opt table (pred, tup) with
      | None -> []
      | Some e ->
        List.sort compare_support
          (List.map
             (fun s ->
               { rule = s.s_rule; subgoals = s.s_subgoals; mult = s.s_mult })
             e.sups))

let supports_truncated ~pred tup =
  locked (fun () ->
      match Tbl.find_opt table (pred, tup) with
      | None -> false
      | Some e -> e.sup_truncated)

let lineage_of ~pred tup =
  locked (fun () ->
      match Tbl.find_opt table (pred, tup) with
      | None -> None
      | Some e ->
        if e.first_derived = None && e.last_deleted = None && e.events = []
        then None
        else
          Some
            {
              first_derived = e.first_derived;
              last_deleted = e.last_deleted;
              events = e.events;
            })

let batches () = Ivm_obs.Instr.Ring.newest_first ring
let supports_stored () = !n_supports
let tuples_tracked () = !n_entries

let status_json () =
  Json.Obj
    [
      ("enabled", Json.Bool (enabled ()));
      ("capturing", Json.Bool (capturing ()));
      ("batches_seen", Json.int !seq);
      ("tuples_tracked", Json.int !n_entries);
      ("supports_stored", Json.int !n_supports);
      ("bytes_estimate", Json.int (bytes_estimate ()));
      ("max_supports_per_tuple", Json.int !max_supports_v);
      ("truncations", Json.int (Metrics.counter_value m_truncations));
      ("supports_dropped", Json.int (Metrics.counter_value m_dropped));
      ("unmatched_removals", Json.int (Metrics.counter_value m_unmatched));
      ( "last_truncation",
        match !last_truncate_reason with
        | None -> Json.Null
        | Some r -> Json.Str r );
    ]
