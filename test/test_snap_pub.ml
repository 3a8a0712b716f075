(** The incremental snapshot publisher (lib/serve/snap_pub).

    The load-bearing property: the shadow a publish leaves published is
    indistinguishable from a fresh [Database.copy] — same canonical
    digest after every publish, across generated traces of batch
    applies, rule changes and algorithm switches, under all four
    maintenance algorithms — and a reader domain querying while the
    writer commits only ever sees acknowledged states, in order.  Plus
    directed tests for the two stalled-reader fallbacks (invariant 13: a
    pinned snapshot is never mutated — neither the shadow nor the live
    database a reader still holds) and the [Relation.patch] / index-free
    copy primitives the publisher is built on. *)

module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Parser = Ivm_datalog.Parser
module Database = Ivm_eval.Database
module Query = Ivm_eval.Query
module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Snap_pub = Ivm_serve.Snap_pub
module Q = QCheck

let seed_src = "hop(X,Y) :- link(X,Z), link(Z,Y)."
let extra_rule = Parser.parse_rule "far(X,Y) :- hop(X,Z), link(Z,Y)."

(* ---------------- primitives the publisher rests on ---------------- *)

let test_patch_guard () =
  let r = Relation.create 2 in
  let t = Tuple.of_ints [ 1; 2 ] in
  Relation.patch r t 3;
  Alcotest.(check int) "patched in" 3 (Relation.count r t);
  Relation.patch r t (-1);
  Alcotest.(check int) "patched down" 2 (Relation.count r t);
  Alcotest.check_raises "below zero rejected"
    (Invalid_argument
       "Relation.patch: count would go negative (2-3) for (1, 2)")
    (fun () -> Relation.patch r t (-3));
  Relation.patch r t (-2);
  Alcotest.(check int) "patched to absence" 0 (Relation.count r t)

let test_copy_without_indexes () =
  let vm = Vm.of_source ~algorithm:Vm.Counting seed_src in
  let changes =
    Changes.insertions (Vm.program vm) "link"
      [ Tuple.of_ints [ 1; 2 ]; Tuple.of_ints [ 2; 3 ]; Tuple.of_ints [ 3; 1 ] ]
  in
  ignore (Vm.apply vm changes);
  let db = Vm.database vm in
  let shadow = Database.copy ~with_indexes:false db in
  Alcotest.(check string) "digest-equal to the original"
    (Database.canonical_digest db)
    (Database.canonical_digest shadow);
  (* queries against the index-free copy rebuild indexes on demand *)
  let rows q db = Relation.to_sorted_list (Query.run_text db q).Query.rows in
  Alcotest.(check bool) "query answers match" true
    (rows "hop(X, Y)" db = rows "hop(X, Y)" shadow)

(* ---------------- the publish-equivalence property ---------------- *)

type op =
  | Apply of (bool * int * int) list  (** (insert?, x, y) over link *)
  | Rule_toggle  (** add [extra_rule] if absent, remove it if present *)
  | Algo of Vm.algorithm

type scenario = { duplicate : bool; algo : Vm.algorithm; ops : op list }

let algo_pool duplicate =
  if duplicate then [ Vm.Counting; Vm.Recursive_counting; Vm.Recompute; Vm.Auto ]
  else [ Vm.Counting; Vm.Dred; Vm.Recompute; Vm.Auto ]

let gen_scenario =
  let open Q.Gen in
  bool >>= fun duplicate ->
  let algos = algo_pool duplicate in
  oneofl algos >>= fun algo ->
  let gen_entry =
    frequencyl [ (7, true); (3, false) ] >>= fun ins ->
    int_range 0 5 >>= fun x ->
    int_range 0 5 >|= fun y -> (ins, x, y)
  in
  let gen_op =
    frequency
      [
        (7, list_size (int_range 1 8) gen_entry >|= fun es -> Apply es);
        (2, return Rule_toggle);
        (2, oneofl algos >|= fun a -> Algo a);
      ]
  in
  list_size (int_range 3 12) gen_op >|= fun ops -> { duplicate; algo; ops }

let print_scenario s =
  let op = function
    | Apply es ->
      Printf.sprintf "apply[%s]"
        (String.concat ";"
           (List.map
              (fun (ins, x, y) ->
                Printf.sprintf "%c(%d,%d)" (if ins then '+' else '-') x y)
              es))
    | Rule_toggle -> "rule-toggle"
    | Algo a -> "algo:" ^ Vm.algorithm_name a
  in
  Printf.sprintf "{dup=%b; algo=%s; [%s]}" s.duplicate
    (Vm.algorithm_name s.algo)
    (String.concat " " (List.map op s.ops))

(** Run one scenario, publishing after every mutation and requiring the
    published snapshot to digest-equal a fresh [Database.copy] of the
    live database.  Generated deletes are clamped to valid ones against
    a running count map, so every batch is well-formed. *)
let run_scenario (s : scenario) : bool =
  let semantics =
    if s.duplicate then Database.Duplicate_semantics
    else Database.Set_semantics
  in
  let vm = Vm.of_source ~semantics ~algorithm:s.algo seed_src in
  let pub = Snap_pub.create ~readers:2 vm in
  let counts : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let has_extra = ref false in
  let check_pub what =
    (* a publish leaves the shadow published; were it the live database,
       the digests below would agree without testing anything *)
    let shadow = Snap_pub.current pub in
    if shadow == Vm.database vm then
      Q.Test.fail_reportf "after %s: the live database is still published" what;
    let got = Database.canonical_digest shadow in
    let want = Database.canonical_digest (Database.copy (Vm.database vm)) in
    if got <> want then
      Q.Test.fail_reportf "after %s: shadow %s, fresh copy %s" what got want
  in
  List.iter
    (fun op ->
      match op with
      | Apply entries ->
        let entries =
          List.filter_map
            (fun (ins, x, y) ->
              let c = Option.value ~default:0 (Hashtbl.find_opt counts (x, y)) in
              if ins then begin
                Hashtbl.replace counts (x, y) (c + 1);
                Some (Tuple.of_ints [ x; y ], 1)
              end
              else if c > 0 then begin
                Hashtbl.replace counts (x, y) (c - 1);
                Some (Tuple.of_ints [ x; y ], -1)
              end
              else None)
            entries
        in
        if entries <> [] then begin
          let changes = Changes.of_list (Vm.program vm) [ ("link", entries) ] in
          let track = Changes.collector () in
          (match Vm.apply_group ~track vm [ changes ] with
          | [ Ok _ ] -> ()
          | [ Error e ] -> Q.Test.fail_reportf "apply_group failed: %s" e
          | _ -> assert false);
          ignore (Snap_pub.publish ~track pub : Snap_pub.mode);
          check_pub "apply"
        end
      | Rule_toggle ->
        if !has_extra then Vm.remove_rule vm extra_rule
        else Vm.add_rule vm extra_rule;
        has_extra := not !has_extra;
        (* untracked: the publisher must detect the resnapshot and
           full-copy *)
        ignore (Snap_pub.publish pub : Snap_pub.mode);
        check_pub "rule change"
      | Algo a ->
        Vm.set_algorithm vm a;
        ignore (Snap_pub.publish pub : Snap_pub.mode);
        check_pub "set_algorithm")
    s.ops;
  let st = Snap_pub.stats pub in
  st.Snap_pub.publishes = st.Snap_pub.incremental + st.Snap_pub.full_copies

(* Run a fixed-seed qcheck property, failing the Alcotest case with the
   counterexample. *)
let check_property ~count ~name ~print gen prop =
  let cell = Q.Test.make_cell ~count ~name (Q.make ~print gen) prop in
  match
    Q.TestResult.get_state
      (Q.Test.check_cell ~rand:(Random.State.make [| 0xD1CE |]) cell)
  with
  | Q.TestResult.Success -> ()
  | Q.TestResult.Failed { instances = c :: _ } ->
    Alcotest.failf "%s failed on %s\n%s" name
      (print c.Q.TestResult.instance)
      (String.concat "\n" c.Q.TestResult.msg_l)
  | Q.TestResult.Failed { instances = [] } ->
    Alcotest.failf "%s failed without a counterexample" name
  | Q.TestResult.Failed_other { msg } -> Alcotest.fail msg
  | Q.TestResult.Error { exn; instance; _ } ->
    Alcotest.failf "%s raised %s on %s" name (Printexc.to_string exn)
      (print instance.Q.TestResult.instance)

let test_publish_equivalence () =
  check_property ~count:220 ~name:"snap_pub publish equivalence"
    ~print:print_scenario gen_scenario run_scenario

(* ---------------- a reader domain against the writer ---------------- *)

(* Groups of [link] toggles under set semantics: each pair in a group is
   inserted if absent and deleted if present, so every batch is valid
   and the model is a plain edge set with hop = link ∘ link. *)
type reader_scenario = { r_algo : Vm.algorithm; groups : (int * int) list list }

let gen_reader_scenario =
  let open Q.Gen in
  oneofl [ Vm.Counting; Vm.Dred; Vm.Recompute; Vm.Auto ] >>= fun r_algo ->
  let pair = pair (int_range 0 5) (int_range 0 5) in
  list_size (int_range 4 16) (list_size (int_range 1 6) pair >|= List.sort_uniq compare)
  >|= fun groups -> { r_algo; groups }

let print_reader_scenario s =
  Printf.sprintf "{algo=%s; [%s]}" (Vm.algorithm_name s.r_algo)
    (String.concat " "
       (List.map
          (fun g ->
            String.concat ";" (List.map (fun (x, y) -> Printf.sprintf "(%d,%d)" x y) g))
          s.groups))

type answer = (int * int) list * (int * int) list  (** link rows, hop rows *)

(* The model's answer after each acknowledged prefix of the groups
   (index 0: nothing applied), and each group as signed link changes. *)
let model (groups : (int * int) list list) : answer array * (Tuple.t * int) list list =
  let links = Hashtbl.create 16 in
  let answer () : answer =
    let ls = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) links []) in
    let hop =
      List.concat_map
        (fun (x, z) -> List.filter_map (fun (z', y) -> if z = z' then Some (x, y) else None) ls)
        ls
    in
    (ls, List.sort_uniq compare hop)
  in
  let a0 = answer () in
  let steps =
    List.map
      (fun g ->
        let changes =
          List.map
            (fun e ->
              let c = if Hashtbl.mem links e then -1 else 1 in
              if c > 0 then Hashtbl.replace links e () else Hashtbl.remove links e;
              (Tuple.of_ints [ fst e; snd e ], c))
            g
        in
        (answer (), changes))
      groups
  in
  (Array.of_list (a0 :: List.map fst steps), List.map snd steps)

let answer_of (db : Database.t) : answer =
  let int_at t i = match Tuple.get t i with Ivm_relation.Value.Int n -> n | _ -> -1 in
  let rows q =
    Relation.fold
      (fun t c acc -> if c > 0 then (int_at t 0, int_at t 1) :: acc else acc)
      (Query.run_text db q).Query.rows []
    |> List.sort_uniq compare
  in
  (rows "link(X, Y)", rows "hop(X, Y)")

(* The writer applies and publishes every group; a reader domain queries
   in a loop meanwhile.  Each answer must be the model's at a prefix
   already committed when the query finished, at or after the prefix of
   the answer before it. *)
let run_reader_scenario (s : reader_scenario) : bool =
  let vm = Vm.of_source ~algorithm:s.r_algo seed_src in
  let pub = Snap_pub.create ~readers:1 vm in
  let expected, groups = model s.groups in
  let committed = Atomic.make 0 and finished = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let rec loop last answers =
          let stop = Atomic.get finished in
          let db = Snap_pub.acquire pub ~reader:0 in
          let a =
            Fun.protect
              ~finally:(fun () -> Snap_pub.release pub ~reader:0)
              (fun () -> answer_of db)
          in
          let hi = Atomic.get committed in
          let rec find j =
            if j > hi then None else if expected.(j) = a then Some j else find (j + 1)
          in
          match find last with
          | None ->
            Error (Printf.sprintf "answer %d matches no prefix in [%d, %d]" answers last hi)
          | Some j -> if stop then Ok (answers + 1) else loop j (answers + 1)
        in
        loop 0 0)
  in
  let write () =
    List.iteri
      (fun k entries ->
        let track = Changes.collector () in
        let changes = Changes.of_list (Vm.program vm) [ ("link", entries) ] in
        (match Vm.apply_group ~track vm [ changes ] with
        | [ Ok _ ] -> ()
        | _ -> failwith "apply_group failed");
        Atomic.set committed (k + 1);
        ignore (Snap_pub.publish ~track pub : Snap_pub.mode))
      groups
  in
  let wrote = Result.map_error Printexc.to_string (try Ok (write ()) with e -> Error e) in
  Atomic.set finished true;
  match (wrote, Domain.join reader) with
  | Error msg, _ | _, Error msg -> Q.Test.fail_reportf "%s" msg
  | Ok (), Ok answers -> answers > 0

let test_reader_domain () =
  let domains0 = Ivm_par.domains () in
  Fun.protect
    ~finally:(fun () -> Ivm_par.set_domains domains0)
    (fun () ->
      List.iter
        (fun domains ->
          Ivm_par.set_domains domains;
          check_property ~count:40
            ~name:(Printf.sprintf "reader domain sees committed prefixes (%d domains)" domains)
            ~print:print_reader_scenario gen_reader_scenario run_reader_scenario)
        [ 1; 4 ])

(* ---------------- stalled reader: bounded wait, fallback ------------ *)

let test_stalled_reader_fallback () =
  let vm = Vm.of_source ~algorithm:Vm.Counting seed_src in
  let pub = Snap_pub.create ~max_wait_s:0.01 ~readers:1 vm in
  let apply xs =
    let changes =
      Changes.of_list (Vm.program vm)
        [ ("link", List.map (fun (x, y) -> (Tuple.of_ints [ x; y ], 1)) xs) ]
    in
    let track = Changes.collector () in
    (match Vm.apply_group ~track vm [ changes ] with
    | [ Ok _ ] -> ()
    | _ -> Alcotest.fail "apply_group failed");
    Snap_pub.publish ~track pub
  in
  (* a reader pins the initial shadow and never releases *)
  let pinned = Snap_pub.acquire pub ~reader:0 in
  let d0 = Database.canonical_digest pinned in
  (* the shadow is pinned: the first publish must give up after
     max_wait_s and copy the live database instead of patching it *)
  let m1 = apply [ (1, 2) ] in
  Alcotest.(check string) "first publish falls back" "full_fallback"
    (Snap_pub.mode_name m1);
  let m2 = apply [ (2, 3) ] in
  Alcotest.(check string) "second publish patches the fresh shadow"
    "incremental" (Snap_pub.mode_name m2);
  let st = Snap_pub.stats pub in
  Alcotest.(check bool) "stalled fallback counted" true
    (st.Snap_pub.full_stalled >= 1);
  Alcotest.(check int) "reader lag grows" 2 (Snap_pub.reader_lag pub 0);
  (* invariant 13: the snapshot the reader pinned was never mutated *)
  Alcotest.(check string) "pinned snapshot unchanged" d0
    (Database.canonical_digest pinned);
  Snap_pub.release pub ~reader:0;
  Alcotest.(check int) "idle reader has no lag" 0 (Snap_pub.reader_lag pub 0);
  ignore (apply [ (3, 4) ] : Snap_pub.mode);
  Alcotest.(check string) "published tracks live after release"
    (Database.canonical_digest (Vm.database vm))
    (Database.canonical_digest (Snap_pub.current pub))

(* ---------------- stalled reader on the live database ---------------- *)

(* A reader that fetched the live database during a publish still holds
   it when the publish ends.  The writer waits max_wait_s, then moves
   maintenance to an equal copy; the held database never changes again.
   To catch the live database deterministically, the test pins the
   shadow on cell 0, so the publish waits in its step 2 with the live
   database published; a holder domain pins that on cell 1 and only then
   lets the shadow go. *)
let test_live_pin_forks () =
  let max_wait_s = 0.3 in
  let vm = Vm.of_source ~algorithm:Vm.Counting seed_src in
  let pub = Snap_pub.create ~max_wait_s ~readers:2 vm in
  let group i =
    let changes =
      Changes.of_list (Vm.program vm) [ ("link", [ (Tuple.of_ints [ i; i + 1 ], 1) ]) ]
    in
    let track = Changes.collector () in
    (match Vm.apply_group ~track vm [ changes ] with
    | [ Ok _ ] -> ()
    | _ -> Alcotest.fail "apply_group failed");
    Snap_pub.publish ~track pub
  in
  ignore (group 0 : Snap_pub.mode);
  let live = Vm.database vm in
  ignore (Snap_pub.acquire pub ~reader:0 : Database.t);
  let go = Atomic.make false and let_go = Atomic.make false in
  let holder =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do Domain.cpu_relax () done;
        let deadline = Unix.gettimeofday () +. (10. *. max_wait_s) in
        let rec grab () =
          let db = Snap_pub.acquire pub ~reader:1 in
          if db == live then Some db
          else begin
            Snap_pub.release pub ~reader:1;
            if Unix.gettimeofday () > deadline then None
            else begin
              Domain.cpu_relax ();
              grab ()
            end
          end
        in
        let held = grab () in
        Snap_pub.release pub ~reader:0;
        Option.map
          (fun db ->
            let d0 = Database.canonical_digest db in
            while not (Atomic.get let_go) do Unix.sleepf 0.001 done;
            let d1 = Database.canonical_digest db in
            Snap_pub.release pub ~reader:1;
            (d0, d1))
          held)
  in
  Atomic.set go true;
  let t0 = Unix.gettimeofday () in
  let m = group 1 in
  let took = Unix.gettimeofday () -. t0 in
  let state1 = Database.canonical_digest (Snap_pub.current pub) in
  let st = Snap_pub.stats pub in
  let modes = List.init 20 (fun i -> Snap_pub.mode_name (group (i + 2))) in
  Atomic.set let_go true;
  match Domain.join holder with
  | None -> Alcotest.fail "the holder never saw the live database published"
  | Some (d0, d1) ->
    Alcotest.(check bool) "the writer waited max_wait_s" true (took >= max_wait_s);
    Alcotest.(check bool) "the writer forked off the held database" true
      (Vm.database vm != live);
    Alcotest.(check string) "the fork is a counted fallback" "full_fallback"
      (Snap_pub.mode_name m);
    Alcotest.(check int) "counted as a stalled reader" 1 st.Snap_pub.full_stalled;
    Alcotest.(check string) "the held database holds group 1" state1 d0;
    Alcotest.(check string) "held database unchanged over 20 more groups" d0 d1;
    Alcotest.(check (list string)) "the 20 groups after patch the shadow"
      (List.init 20 (fun _ -> "incremental"))
      modes;
    Alcotest.(check bool) "audit ok" true (Vm.audit vm = Ok ());
    Alcotest.(check string) "published equals live"
      (Database.canonical_digest (Vm.database vm))
      (Database.canonical_digest (Snap_pub.current pub))

(* ---------------- a re-evaluated batch still patches ---------------- *)

(* A live batch that swaps half of [link] takes Auto's re-evaluate
   branch, under Counting (hop) and under DRed (a closure).  The
   re-evaluated unit commits its delta through the same recording commit
   as the incremental phases, so the collector stays complete: the
   publisher patches, copies nothing, and publishes the live state. *)
let test_reevaluated_batch_patches () =
  List.iter
    (fun (what, src) ->
      let edges = List.init 12 (fun i -> (i, ((i * 5) + 1) mod 12)) in
      let vm = Vm.of_source src in
      let tuples c xs = List.map (fun (x, y) -> (Tuple.of_ints [ x; y ], c)) xs in
      ignore (Vm.apply vm (Changes.of_list (Vm.program vm) [ ("link", tuples 1 edges) ]));
      let pub = Snap_pub.create ~readers:1 vm in
      let gone = List.filteri (fun i _ -> i mod 2 = 0) edges in
      let fresh = List.init 6 (fun i -> (i, (i + 7) mod 12)) in
      let changes =
        Changes.of_list (Vm.program vm) [ ("link", tuples (-1) gone @ tuples 1 fresh) ]
      in
      let track = Changes.collector () in
      let before = Util.choice_total "reevaluate" in
      (match Vm.apply_group ~track vm [ changes ] with
      | [ Ok _ ] -> ()
      | _ -> Alcotest.fail "apply_group failed");
      Alcotest.(check int) (what ^ ": one unit re-evaluated") 1
        (Util.choice_total "reevaluate" - before);
      Alcotest.(check string) (what ^ ": published by patching") "incremental"
        (Snap_pub.mode_name (Snap_pub.publish ~track pub));
      Alcotest.(check int) (what ^ ": no full copy") 0 (Snap_pub.stats pub).Snap_pub.full_copies;
      Alcotest.(check string) (what ^ ": published equals live")
        (Database.canonical_digest (Vm.database vm))
        (Database.canonical_digest (Snap_pub.current pub)))
    [
      ("counting", seed_src);
      ("dred", "path(X,Y) :- link(X,Y). path(X,Y) :- path(X,Z), link(Z,Y).");
    ]

(* ---------------- the collected sets stay the collector's ----------- *)

(* Group N inserts a tuple and group N+1 deletes it.  The shadow is
   patched with each group's collected set in turn and must end equal to
   the live database, and patching must leave both sets as they were:
   they belong to the collector, and the publisher never copies them. *)
let test_sets_untouched () =
  let vm = Vm.of_source ~algorithm:Vm.Counting seed_src in
  let link (x, y) c =
    Changes.of_list (Vm.program vm) [ ("link", [ (Tuple.of_ints [ x; y ], c) ]) ]
  in
  ignore (Vm.apply vm (link (2, 3) 1));
  let pub = Snap_pub.create ~readers:1 vm in
  let group changes =
    let track = Changes.collector () in
    (match Vm.apply_group ~track vm [ changes ] with
    | [ Ok _ ] -> ()
    | _ -> Alcotest.fail "apply_group failed");
    let set = Changes.collected track in
    let before = List.map (fun (p, r) -> (p, Relation.to_sorted_list r)) set in
    Alcotest.(check string) "group publishes incrementally" "incremental"
      (Snap_pub.mode_name (Snap_pub.publish ~track pub));
    (set, before)
  in
  let inserted = group (link (1, 2) 1) in
  let deleted = group (link (1, 2) (-1)) in
  Alcotest.(check string) "published equals live"
    (Database.canonical_digest (Vm.database vm))
    (Database.canonical_digest (Snap_pub.current pub));
  List.iter
    (fun (what, (set, before)) ->
      Alcotest.(check int) (what ^ ": link and hop changed") 2 (List.length set);
      List.iter2
        (fun (p, r) (p', rows) ->
          Alcotest.(check string) (what ^ ": same predicate") p' p;
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s set unchanged by the patch" what p)
            true
            (Relation.to_sorted_list r = rows))
        set before)
    [ ("insert group", inserted); ("delete group", deleted) ]

(* ---------------- collector: whole relations, copy-on-write -------- *)

(* A two-batch group whose batches both change [hop] (batch 2 restores
   the [link] batch 1 deletes, so part of [hop] nets out).  The
   collector adopts batch 1's committed [hop] delta and must copy it
   before merging batch 2's: batch 1's returned deltas must equal what
   batch 1 returns on its own, and the collected set must be the ⊎ of
   both commits — stored counts after the group less those before it,
   tuple by tuple. *)
let test_collector_two_batches () =
  List.iter
    (fun (label, semantics, algorithm) ->
      let src = "hop(X,Y) :- link(X,Z), link(Z,Y). link(1,2). link(2,3). link(3,4)." in
      let vm = Vm.of_source ~semantics ~algorithm src
      and alone = Vm.of_source ~semantics ~algorithm src in
      let batch xs =
        Changes.of_list (Vm.program vm)
          [ ("link", List.map (fun (x, y, c) -> (Tuple.of_ints [ x; y ], c)) xs) ]
      in
      let b1 = batch [ (0, 1, 1); (2, 3, -1) ] and b2 = batch [ (4, 5, 1); (2, 3, 1) ] in
      let preds = Ivm_datalog.Program.(base_preds (Vm.program vm) @ derived_preds (Vm.program vm)) in
      let before = List.map (fun p -> (p, Relation.copy (Vm.relation vm p))) preds in
      let track = Changes.collector () in
      let d1, d2 =
        match Vm.apply_group ~track vm [ b1; b2 ] with
        | [ Ok d1; Ok d2 ] -> (d1, d2)
        | _ -> Alcotest.fail "apply_group failed"
      in
      let rows d = List.map (fun (p, r) -> (p, Relation.to_sorted_list r)) d in
      Alcotest.(check bool) (label ^ ": both batches change hop") true
        (List.mem_assoc "hop" d1 && List.mem_assoc "hop" d2);
      Alcotest.(check bool) (label ^ ": batch 1's deltas unchanged by batch 2") true
        (rows d1 = rows (Vm.apply alone b1));
      let commits =
        List.filter_map
          (fun (p, old) ->
            let net = Relation.create (Relation.arity old) in
            Relation.iter (fun t c -> Relation.add net t c) (Vm.relation vm p);
            Relation.iter (fun t c -> Relation.add net t (-c)) old;
            if Relation.is_empty net then None else Some (p, net))
          before
        |> List.sort (fun (p, _) (q, _) -> String.compare p q)
      in
      Alcotest.(check bool) (label ^ ": collected = ⊎ of both commits") true
        (rows (Changes.collected track) = rows commits))
    [
      ("counting, duplicates", Database.Duplicate_semantics, Vm.Counting);
      ("dred-counted", Database.Set_semantics, Vm.Dred_counted);
    ]

let suite =
  [
    Alcotest.test_case "Relation.patch guards negative counts" `Quick
      test_patch_guard;
    Alcotest.test_case "copy ~with_indexes:false rebuilds on demand" `Quick
      test_copy_without_indexes;
    Alcotest.test_case "publish equivalence (220 generated traces)" `Quick
      test_publish_equivalence;
    Alcotest.test_case "stalled reader triggers counted full-copy fallback"
      `Quick test_stalled_reader_fallback;
    Alcotest.test_case "reader pinned on the live database forks the writer"
      `Quick test_live_pin_forks;
    Alcotest.test_case "reader domain sees only committed prefixes, in order"
      `Quick test_reader_domain;
    Alcotest.test_case "patching leaves each group's set unchanged" `Quick
      test_sets_untouched;
    Alcotest.test_case "a re-evaluated batch patches, no full copy" `Quick
      test_reevaluated_batch_patches;
    Alcotest.test_case "a two-batch group collects the ⊎ of its commits" `Quick
      test_collector_two_batches;
  ]
