(** The View_manager front door: algorithm selection, the update API, and
    the audit. *)

open Util
module Vm = Ivm.View_manager

let tc_source =
  {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- path(X, Z), link(Z, Y).
    link(a,b). link(b,c).
  |}

let hop_source = {|
  hop(X, Y) :- link(X, Z), link(Z, Y).
  link(a,b). link(b,c).
|}

let auto_resolution () =
  let vm = Vm.of_source ~algorithm:Vm.Auto hop_source in
  Alcotest.(check bool) "nonrecursive → counting" true (Vm.resolve vm = Vm.Counting);
  let vm = Vm.of_source ~algorithm:Vm.Auto tc_source in
  Alcotest.(check bool) "recursive → dred-counted" true (Vm.resolve vm = Vm.Dred_counted)

let algorithm_names () =
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Vm.algorithm_name a) true
        (Vm.algorithm_of_string (Vm.algorithm_name a) = Some a))
    [
      Vm.Counting; Vm.Dred; Vm.Dred_counted; Vm.Recursive_counting; Vm.Recompute;
      Vm.Auto;
    ];
  Alcotest.(check bool) "unknown" true (Vm.algorithm_of_string "nope" = None)

let all_algorithms_agree () =
  (* the same update stream through every applicable algorithm ends in the
     same sets *)
  let run algorithm semantics =
    let vm = Vm.of_source ~algorithm ~semantics tc_source in
    ignore (Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ]);
    ignore (Vm.delete vm "link" [ Tuple.of_strs [ "b"; "c" ] ]);
    ignore
      (Vm.update vm "link" ~old_tuple:(Tuple.of_strs [ "a"; "b" ])
         ~new_tuple:(Tuple.of_strs [ "a"; "c" ]));
    Vm.relation vm "path"
  in
  let reference = run Vm.Recompute Database.Set_semantics in
  List.iter
    (fun (name, algorithm, semantics) ->
      let r = run algorithm semantics in
      if not (Relation.equal_sets reference r) then
        Alcotest.failf "%s: %s <> %s" name (Relation.to_string r)
          (Relation.to_string reference))
    [
      ("dred", Vm.Dred, Database.Set_semantics);
      ("dred-counted", Vm.Dred_counted, Database.Set_semantics);
      ("auto", Vm.Auto, Database.Set_semantics);
      ("recursive-counting", Vm.Recursive_counting, Database.Duplicate_semantics);
    ]

let apply_reports_deltas () =
  let vm = Vm.of_source ~semantics:Database.Duplicate_semantics hop_source in
  let deltas = Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ] in
  match List.assoc_opt "hop" deltas with
  | Some d -> check_rel "Δhop" (rel_of_pairs "bd") d
  | None -> Alcotest.fail "expected a hop delta"

let audit_detects_corruption () =
  let vm = Vm.of_source hop_source in
  Alcotest.(check (result unit string)) "clean" (Ok ()) (Vm.audit vm);
  (* corrupt the materialization behind the manager's back *)
  Relation.add (Vm.relation vm "hop") (Tuple.of_strs [ "z"; "z" ]) 1;
  match Vm.audit vm with
  | Ok () -> Alcotest.fail "audit missed the corruption"
  | Error msg ->
    Alcotest.(check bool) "names the view" true
      (String.length msg > 0
      && String.sub msg 0 3 = "hop")

let recompute_mode_works () =
  let vm = Vm.of_source ~algorithm:Vm.Recompute hop_source in
  let deltas = Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ] in
  Alcotest.(check int) "no deltas reported" 0 (List.length deltas);
  Alcotest.(check bool)
    "view still right" true
    (Relation.mem (Vm.relation vm "hop") (Tuple.of_strs [ "b"; "d" ]))

let extra_base_relations () =
  let vm =
    Vm.of_source ~extra_base:[ ("wire", 2) ]
      {|
        conn(X, Y) :- link(X, Y).
        conn(X, Y) :- wire(X, Y).
        link(a,b).
      |}
  in
  ignore (Vm.insert vm "wire" [ Tuple.of_strs [ "b"; "c" ] ]);
  check_rel ~counted:false "both sources" (rel_of_pairs "ab; bc")
    (Vm.relation vm "conn")

let empty_program () =
  let vm = Vm.of_source "" in
  Alcotest.(check (result unit string)) "empty audit" (Ok ()) (Vm.audit vm)

(* ------------------------------------------------------------------ *)
(* The algorithm contract: refusals change nothing                      *)
(* ------------------------------------------------------------------ *)

module Store = Ivm_store.Store

let base_rule = "path(X, Y) :- link(X, Y)."
let recursive_rule = "path(X, Y) :- path(X, Z), link(Z, Y)."

(* Every combination outside the contract.  [rules]'s last rule makes the
   program recursive; [by_rule] rows are supported without it, so adding
   it is refused too. *)
let unsupported =
  [
    ("counting on a recursive program", Database.Set_semantics, Vm.Counting,
     [ base_rule; recursive_rule ], true);
    ("dred under duplicate semantics", Database.Duplicate_semantics, Vm.Dred,
     [ "hop(X, Y) :- link(X, Z), link(Z, Y)." ], false);
    ("dred-counted under duplicate semantics", Database.Duplicate_semantics,
     Vm.Dred_counted, [ "hop(X, Y) :- link(X, Z), link(Z, Y)." ], false);
    ("auto on a recursive program under duplicate semantics",
     Database.Duplicate_semantics, Vm.Auto, [ base_rule; recursive_rule ], true);
    ("recursive-counting under set semantics", Database.Set_semantics,
     Vm.Recursive_counting, [ "hop(X, Y) :- link(X, Z), link(Z, Y)." ], false);
  ]

let facts = "link(a, b). link(b, c). link(b, c)."

(* Everything a refusal must leave as it was. *)
let observe vm dir =
  let files =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f ->
           (f, In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all))
  in
  ( Database.canonical_digest (Vm.database vm),
    Vm.algorithm_name (Vm.algorithm vm),
    Vm.state_version vm,
    (Option.get (Vm.store_status vm)).Store.wal_records,
    files )

let refused name algorithm f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument msg ->
    let prefix = Printf.sprintf "View_manager: %s refused" (Vm.algorithm_name algorithm) in
    if not (String.starts_with ~prefix msg) then
      Alcotest.failf "%s: message %S does not start %S" name msg prefix

(* A durable manager over [rules] under [algorithm], one batch logged. *)
let durable_manager ~dir ~semantics ~algorithm rules =
  let vm =
    Vm.of_source ~semantics ~algorithm ~durable:dir
      (String.concat "\n" rules ^ "\n" ^ facts)
  in
  ignore (Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ]);
  vm

let refusals_change_nothing () =
  List.iter
    (fun (name, semantics, algorithm, rules, by_rule) ->
      Test_store.with_dir (fun root ->
          let dir = Filename.concat root "store" in
          let src = String.concat "\n" rules ^ "\n" ^ facts in
          (* create: nothing materialized, no store directory *)
          refused ("create: " ^ name) algorithm (fun () ->
              Vm.of_source ~semantics ~algorithm ~durable:dir src);
          if Sys.file_exists dir then Alcotest.failf "create: %s: left %s" name dir;
          (* set_algorithm, from recomputation (which supports everything) *)
          let vm = durable_manager ~dir ~semantics ~algorithm:Vm.Recompute rules in
          let before = observe vm dir in
          refused ("set_algorithm: " ^ name) algorithm (fun () ->
              Vm.set_algorithm vm algorithm);
          if observe vm dir <> before then
            Alcotest.failf "set_algorithm: %s: state changed" name;
          Vm.close_store vm;
          (* open_durable on the store that manager left; reopening it
             under recomputation then finds everything as it was *)
          refused ("open_durable: " ^ name) algorithm (fun () ->
              Vm.open_durable ~algorithm dir);
          let vm, _ = Vm.open_durable ~algorithm:Vm.Recompute dir in
          if observe vm dir <> before then
            Alcotest.failf "open_durable: %s: state changed" name;
          Vm.close_store vm;
          (* add_rule, when the new rule is what leaves the contract *)
          if by_rule then begin
            let dir = Filename.concat root "prefix" in
            let prefix = List.filteri (fun i _ -> i < List.length rules - 1) rules in
            let vm = durable_manager ~dir ~semantics ~algorithm prefix in
            let before = observe vm dir in
            refused ("add_rule: " ^ name) algorithm (fun () ->
                Vm.add_rule_text vm (List.nth rules (List.length rules - 1)));
            if observe vm dir <> before then
              Alcotest.failf "add_rule: %s: state changed" name;
            Vm.close_store vm
          end))
    unsupported

(* Recomputation maintains a recursive program under duplicate semantics
   through counting's evaluator: the same multiset as recursive counting,
   whether created with it or switched to it. *)
let recompute_recursive_duplicates () =
  let make algorithm =
    Vm.of_source ~semantics:Database.Duplicate_semantics ~algorithm
      (String.concat "\n" [ base_rule; recursive_rule; facts ])
  in
  let reference = make Vm.Recursive_counting in
  let created = make Vm.Recompute in
  let switched = make Vm.Recursive_counting in
  Vm.set_algorithm switched Vm.Recompute;
  let step f =
    List.iter (fun vm -> ignore (f vm)) [ reference; created; switched ];
    List.iter
      (fun (name, vm) ->
        Alcotest.(check (result unit string)) (name ^ ": audit") (Ok ()) (Vm.audit vm);
        Alcotest.check relation_counted (name ^ ": path") (Vm.relation reference "path")
          (Vm.relation vm "path"))
      [ ("created", created); ("switched", switched) ]
  in
  step (fun vm -> Vm.insert vm "link" [ Tuple.of_strs [ "c"; "d" ] ]);
  Alcotest.(check int) "six paths" 6 (Relation.cardinal (Vm.relation created "path"));
  step (fun vm -> Vm.delete vm "link" [ Tuple.of_strs [ "a"; "b" ] ])

let suite =
  [
    quick "auto resolves per the paper's recommendation" auto_resolution;
    quick "algorithm name round trip" algorithm_names;
    quick "all algorithms agree on final state" all_algorithms_agree;
    quick "apply reports per-view deltas" apply_reports_deltas;
    quick "audit detects corruption" audit_detects_corruption;
    quick "recompute mode" recompute_mode_works;
    quick "extra base relations" extra_base_relations;
    quick "empty program" empty_program;
    quick "unsupported combinations refused, nothing changed" refusals_change_nothing;
    quick "recompute: recursive program, duplicate semantics"
      recompute_recursive_duplicates;
  ]
