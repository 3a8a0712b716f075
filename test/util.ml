(** Shared helpers for the test suites. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Ast = Ivm_datalog.Ast
module Parser = Ivm_datalog.Parser
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Seminaive = Ivm_eval.Seminaive

(** Alcotest testable for relations compared including counts. *)
let relation_counted : Relation.t Alcotest.testable =
  Alcotest.testable Relation.pp Relation.equal_counted

(** Alcotest testable for relations compared as sets. *)
let relation_set : Relation.t Alcotest.testable =
  Alcotest.testable Relation.pp Relation.equal_sets

(** Parse a whole program text (rules and facts), build the database, load
    the facts, and materialize all views. *)
let db_of_source ?(semantics = Database.Set_semantics) ?extra_base src =
  let statements = Parser.parse_program src in
  let rules, facts = Parser.split statements in
  let program = Program.make ?extra_base rules in
  let db = Database.create ~semantics program in
  List.iter (fun (p, vals) -> Database.load db p [ Tuple.of_list vals ]) facts;
  Seminaive.evaluate db;
  db

(** Parse tuples like ["ab; cd"] into 2-character symbol pairs — the
    paper's compact notation [link = {ab, mn}]. *)
let pairs s =
  String.split_on_char ';' s
  |> List.filter_map (fun w ->
         let w = String.trim w in
         if w = "" then None
         else begin
           assert (String.length w = 2);
           Some (Tuple.of_strs [ String.make 1 w.[0]; String.make 1 w.[1] ])
         end)

(** [rel_of_pairs "ab; ac 2"] — pairs with optional counts. *)
let rel_of_pairs s =
  let entries =
    String.split_on_char ';' s
    |> List.filter_map (fun w ->
           let w = String.trim w in
           if w = "" then None
           else
             match String.split_on_char ' ' w with
             | [ p ] ->
               Some (Tuple.of_strs [ String.make 1 p.[0]; String.make 1 p.[1] ], 1)
             | [ p; c ] ->
               Some
                 ( Tuple.of_strs [ String.make 1 p.[0]; String.make 1 p.[1] ],
                   int_of_string c )
             | _ -> failwith ("bad pair spec: " ^ w))
  in
  Relation.of_list 2 entries

(** [f ()] and the words it allocated, minor plus major, promotions not
    counted.  The minor count is [Gc.minor_words]: on OCaml 5.1 the minor
    count of [Gc.counters] misses most of what is allocated since the last
    minor collection (626 of 5,000 words for a thousand 5-word blocks). *)
let allocated_words f =
  Gc.minor ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(** A 21-byte [apply] request whose one relation (arity 2) declares
    [rows] rows and carries none of them: a hostile row-count header. *)
let hostile_apply_payload rows =
  let empty =
    Ivm_serve.Protocol.encode_request
      (Ivm_serve.Protocol.Apply { changes = [ ("link", Relation.create 2) ]; trace = "" })
  in
  Alcotest.(check int) "apply header is 21 bytes" 21 (String.length empty);
  let b = Bytes.of_string empty in
  Bytes.set_int32_le b 17 (Int32.of_int rows);
  Bytes.to_string b

let check_rel ?(counted = true) msg expected actual =
  let t = if counted then relation_counted else relation_set in
  Alcotest.check t msg expected actual

(** Relation stored for [pred] in [db]. *)
let rel db pred = Database.relation db pred

(** Canonical dump of a relation: entries sorted by tuple, with counts.
    Iteration-order independent — route any assertion that compares dumped
    relation text through this (or {!Relation.to_string}, which sorts the
    same way) rather than through raw fold/iter order. *)
let sorted_entries (r : Relation.t) : (Tuple.t * int) list =
  Relation.to_sorted_list r

(** Canonical dump of every derived relation of [db] — predicates sorted
    by name, tuples sorted within each relation.  Two databases are in the
    same derived state iff their dumps are byte-identical, whatever the
    internal hash-table order (used by the domains-1-vs-4 determinism
    properties). *)
let canonical_dump (db : Database.t) : string =
  let program = Database.program db in
  String.concat "\n"
    (List.map
       (fun p -> p ^ " = " ^ Relation.to_string (Database.relation db p))
       (List.sort String.compare (Program.derived_preds program)))

let quick name f = Alcotest.test_case name `Quick f

(** Decisions of Auto's cost rule so far with this [choice]
    (["incremental"] or ["reevaluate"]): the
    [ivm_auto_choice_total{choice}] counter. *)
let choice_total choice =
  Ivm_obs.Metrics.counter_value
    (Ivm_obs.Metrics.counter ~labels:[ ("choice", choice) ] "ivm_auto_choice_total")
