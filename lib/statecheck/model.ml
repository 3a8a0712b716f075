(** The trivially-correct reference model the harness compares the real
    {!Ivm.View_manager} against.

    State is as plain as possible: base relations are maps from tuple to
    multiplicity, derived relations are recomputed from scratch by
    {!Naive.evaluate} whenever asked, and durability is a persisted
    snapshot plus a list of after-images — one per logged batch, each
    tagged with the WAL byte extent the interpreter {e observed} on the
    real store after the corresponding [apply].  Crash damage then
    resolves exactly: a record survives if and only if its extent fits
    inside the undamaged prefix. *)

module Tuple = Ivm_relation.Tuple
module Ast = Ivm_datalog.Ast
module Vm = Ivm.View_manager
module Smap = Naive.Smap

module Tmap = Map.Make (struct
  type t = Tuple.t

  let compare = Tuple.compare
end)

(** pred → tuple → multiplicity (> 0) *)
type base = int Tmap.t Smap.t

type snapshot = {
  s_rules : Ast.rule list;
  s_base : base;
  s_algo : Vm.algorithm;  (** algorithm when the snapshot was cut *)
}

type record = {
  r_after : base;  (** base state after replaying this WAL record *)
  r_end : int;  (** observed WAL byte extent once it was logged *)
}

(** WAL header size of the real store ({!Ivm_store.Store}): damage must
    stay inside the frame region or recovery refuses the file outright. *)
let wal_header_bytes = 12

type store = { mutable snapshot : snapshot; mutable records : record list }

type t = {
  duplicate : bool;
  mutable rules : Ast.rule list;
  mutable base : base;
  mutable algorithm : Vm.algorithm;
  mutable store : store option;  (** survives close/crash once created *)
  mutable attached : bool;  (** a live handle is logging to the store *)
}

let create ~duplicate ~algorithm ~rules () =
  {
    duplicate;
    rules;
    base = Smap.empty;
    algorithm;
    store = None;
    attached = false;
  }

(* ------------------------------------------------------------------ *)
(* Views of the state                                                   *)
(* ------------------------------------------------------------------ *)

let resolve (t : t) : Vm.algorithm =
  match t.algorithm with
  | Vm.Auto -> if Naive.recursive t.rules then Vm.Dred_counted else Vm.Counting
  | a -> a

let head_preds (t : t) = Naive.head_preds t.rules

let count (t : t) pred tup =
  match Smap.find_opt pred t.base with
  | None -> 0
  | Some m -> Option.value ~default:0 (Tmap.find_opt tup m)

(** Sorted [(tuple, multiplicity)] list of one base relation. *)
let base_counts (t : t) pred : (Tuple.t * int) list =
  match Smap.find_opt pred t.base with None -> [] | Some m -> Tmap.bindings m

let base_tuples (t : t) pred : Tuple.t list =
  List.map fst (base_counts t pred)

(** Recompute every derived relation from scratch (as sets). *)
let derived (t : t) : Naive.Tset.t Smap.t =
  let base_lists =
    Smap.map (fun m -> List.map fst (Tmap.bindings m)) t.base
  in
  Naive.evaluate t.rules ~base:base_lists

let derived_tuples (t : t) pred : Tuple.t list =
  Naive.tuples_of (derived t) pred

(* ------------------------------------------------------------------ *)
(* Batches                                                              *)
(* ------------------------------------------------------------------ *)

(** Net multiplicity change per (pred, tuple) — the model of
    [Changes.merge]: entries for the same tuple collapse before any
    semantics rule applies, so [+f; -f] in one batch is a no-op. *)
let net_of_entries (entries : (bool * string * Tuple.t) list) :
    ((string * Tuple.t) * int) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ins, p, tup) ->
      let key = (p, Tuple.to_string tup) in
      let prev =
        match Hashtbl.find_opt tbl key with Some (_, n) -> n | None -> 0
      in
      Hashtbl.replace tbl key ((p, tup), prev + (if ins then 1 else -1)))
    entries;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.filter (fun (_, n) -> n <> 0)
  |> List.sort compare

(** Would [Changes.normalize_base] accept this batch in the current
    state?  (Deletions must not exceed stored multiplicities; under set
    semantics a net deletion needs the tuple present.)  The interpreter
    skips steps that fail this, which keeps shrinking sound. *)
let batch_ok (t : t) (entries : (bool * string * Tuple.t) list) : bool =
  List.for_all
    (fun ((p, tup), net) ->
      let have = count t p tup in
      if t.duplicate then have + net >= 0 else net > 0 || have > 0)
    (net_of_entries entries)

let apply_batch (t : t) (entries : (bool * string * Tuple.t) list) : unit =
  List.iter
    (fun ((p, tup), net) ->
      let have = count t p tup in
      let next =
        if t.duplicate then max 0 (have + net)
        else if net > 0 then 1
        else if have > 0 then 0
        else invalid_arg "Statecheck.Model.apply_batch: invalid deletion"
      in
      let m = Option.value ~default:Tmap.empty (Smap.find_opt p t.base) in
      let m = if next = 0 then Tmap.remove tup m else Tmap.add tup next m in
      t.base <- Smap.add p m t.base)
    (net_of_entries entries)

(* ------------------------------------------------------------------ *)
(* Durability                                                           *)
(* ------------------------------------------------------------------ *)

let cut_snapshot (t : t) : snapshot =
  { s_rules = t.rules; s_base = t.base; s_algo = t.algorithm }

(** Fold everything logged so far into a fresh snapshot — what the real
    store does on [compact], rule changes, and algorithm switches. *)
let resnapshot (t : t) : unit =
  match t.store with
  | Some s when t.attached ->
    s.snapshot <- cut_snapshot t;
    s.records <- []
  | _ -> ()

(** Record one logged batch's after-image with the WAL extent the
    interpreter observed on the real store. *)
let log_record (t : t) ~(wal_end : int) : unit =
  match t.store with
  | Some s when t.attached ->
    s.records <- s.records @ [ { r_after = t.base; r_end = wal_end } ]
  | _ -> ()

(** Current WAL extent: the last record's end, or just the header. *)
let wal_end (t : t) : int =
  match t.store with
  | None -> wal_header_bytes
  | Some s -> (
    match List.rev s.records with
    | [] -> wal_header_bytes
    | last :: _ -> last.r_end)

let durable (t : t) = t.attached && t.store <> None
let has_store (t : t) = t.store <> None

let close (t : t) : unit = t.attached <- false

(** Drop the handle and damage the log: keep only the records whose
    extent fits inside the surviving prefix. *)
let crash (t : t) (damage : Cmd.damage) : unit =
  (match (t.store, damage) with
  | Some s, Cmd.Truncate n ->
    let limit = wal_end t - n in
    s.records <- List.filter (fun r -> r.r_end <= limit) s.records
  | Some s, Cmd.Flip k ->
    (* the frame containing byte [k] and everything after it is lost *)
    s.records <- List.filter (fun r -> r.r_end <= k) s.records
  | _, Cmd.No_damage | None, _ -> ());
  t.attached <- false

(** Open the store.  First time: persist the current in-memory state
    (the real [make_durable]).  Later: disk wins — restore rules,
    algorithm and base from the snapshot plus surviving records, exactly
    what recovery replays.  Returns the number of WAL records the real
    store is expected to replay. *)
let open_store (t : t) : int =
  match t.store with
  | None ->
    t.store <- Some { snapshot = cut_snapshot t; records = [] };
    t.attached <- true;
    0
  | Some s ->
    t.rules <- s.snapshot.s_rules;
    t.algorithm <- s.snapshot.s_algo;
    (t.base <-
       (match List.rev s.records with
       | [] -> s.snapshot.s_base
       | last :: _ -> last.r_after));
    t.attached <- true;
    List.length s.records

(** The algorithm recovery must run under: the one every surviving WAL
    record was logged with (switches resnapshot, so a log tail is always
    single-algorithm). *)
let stored_algorithm (t : t) : Vm.algorithm =
  match t.store with None -> t.algorithm | Some s -> s.snapshot.s_algo

(* ------------------------------------------------------------------ *)
(* Rule and algorithm changes                                           *)
(* ------------------------------------------------------------------ *)

let rule_mem rules r = List.exists (fun r' -> r' = r) rules

let add_rule (t : t) (r : Ast.rule) : unit =
  if not (rule_mem t.rules r) then t.rules <- t.rules @ [ r ];
  resnapshot t

let remove_rule (t : t) (r : Ast.rule) : unit =
  t.rules <- List.filter (fun r' -> r' <> r) t.rules;
  resnapshot t

let set_algorithm (t : t) (a : Vm.algorithm) : unit =
  if a <> t.algorithm then begin
    t.algorithm <- a;
    resnapshot t
  end
