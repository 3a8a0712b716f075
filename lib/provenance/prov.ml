(** Batch lineage store — see the interface for the contract. *)

module Tuple = Ivm_relation.Tuple
module Json = Ivm_obs.Json
module Metrics = Ivm_obs.Metrics

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

type entry = {
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
let table : entry Tbl.t = Tbl.create 4096
let seq = ref 0
let ring : batch_info Ivm_obs.Instr.Ring.t = Ivm_obs.Instr.Ring.create 64
let max_events = 16

(* Size accounting, guarded by [lock]. *)
let n_entries = ref 0
let n_events = ref 0

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let m_tuples =
  Metrics.gauge ~help:"Tuples with a lineage entry" "ivm_prov_tuples_tracked"

let m_bytes =
  Metrics.gauge ~help:"Approximate bytes held by the lineage store"
    "ivm_prov_bytes_estimate"

(* Word-count model: entry ≈ 8 words (box + 3 fields + table slot), each
   lineage event ≈ 3. *)
let bytes_estimate () = 8 * ((!n_entries * 8) + (!n_events * 3))

let sync_gauges () =
  Metrics.set m_tuples (float_of_int !n_entries);
  Metrics.set m_bytes (float_of_int (bytes_estimate ()))

(* ------------------------------------------------------------------ *)
(* State management                                                    *)
(* ------------------------------------------------------------------ *)

let enabled () = Atomic.get enabled_flag

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset_store () =
  Tbl.reset table;
  n_entries := 0;
  n_events := 0;
  seq := 0;
  Ivm_obs.Instr.Ring.clear ring;
  sync_gauges ()

let reset () = locked reset_store

let set_enabled b =
  locked (fun () ->
      if b <> Atomic.get enabled_flag then begin
        Atomic.set enabled_flag b;
        reset_store ()
      end)

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let entry_of key =
  match Tbl.find_opt table key with
  | Some e -> e
  | None ->
    let e = { first_derived = None; last_deleted = None; events = [] } in
    Tbl.add table key e;
    incr n_entries;
    e

let pseudo p = String.length p > 0 && p.[0] = '$'

let batch_begin ~algorithm =
  if enabled () then
    locked (fun () ->
        incr seq;
        Ivm_obs.Instr.Ring.push ring { seq = !seq; algorithm })

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let on_transition ~pred tup kind =
  if enabled () && not (pseudo pred) then
    locked (fun () ->
        let e = entry_of (pred, tup) in
        let b = !seq in
        (match kind with
        | `Derived -> if e.first_derived = None then e.first_derived <- Some b
        | `Deleted -> e.last_deleted <- Some b);
        (match e.events with
        | { batch; kind = k } :: _ when batch = b && k = kind ->
          () (* same transition already noted this batch *)
        | _ ->
          let before = List.length e.events in
          e.events <- take max_events ({ batch = b; kind } :: e.events);
          n_events := !n_events + List.length e.events - before);
        sync_gauges ())

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let lineage_of ~pred tup =
  locked (fun () ->
      match Tbl.find_opt table (pred, tup) with
      | None -> None
      | Some e ->
        Some
          ({
             first_derived = e.first_derived;
             last_deleted = e.last_deleted;
             events = e.events;
           }
            : lineage))

let batches () = Ivm_obs.Instr.Ring.newest_first ring
let tuples_tracked () = !n_entries

let status_json () =
  Json.Obj
    [
      ("enabled", Json.Bool (enabled ()));
      ("batches_seen", Json.int !seq);
      ("tuples_tracked", Json.int !n_entries);
      ("bytes_estimate", Json.int (bytes_estimate ()));
    ]
