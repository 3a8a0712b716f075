(** Trace interpreter: runs every {!Cmd.step} against the real
    {!Ivm.View_manager} and the reference {!Model} in lockstep, checking
    the equivalence invariant after each step.

    Preconditions are re-checked against the model before each step and
    violating steps are {e skipped} (on both sides), so deleting an
    arbitrary prefix or subset of a trace still yields a well-formed run
    — the property QCheck shrinking depends on.  A check failure raises
    {!Check_failed} carrying the executed prefix as a replayable trace,
    which the test layer prints as a shell script. *)

module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Ast = Ivm_datalog.Ast
module Parser = Ivm_datalog.Parser
module Database = Ivm_eval.Database
module Query = Ivm_eval.Query
module Json = Ivm_obs.Json
module Store = Ivm_store.Store
module Prov = Ivm_prov.Prov
module Prov_query = Ivm_prov.Prov_query
module Monitor = Ivm_monitor.Monitor
module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Snap_pub = Ivm_serve.Snap_pub
module Smap = Naive.Smap

(** Deliberate-fault injection, for proving the harness catches bugs and
    shrinks them: [Drop_every k] silently drops one inserted tuple from
    every [k]-th insert-bearing real batch — the model keeps it, so the
    equivalence check must fail and shrink to a tiny trace. *)
type fault = Drop_every of int

type ctx = {
  dir : string;  (** scratch directory; the store lives in [dir/store] *)
  init_algorithm : Vm.algorithm;  (** the trace header's algorithm *)
  model : Model.t;
  mutable vm : Vm.t;
  mutable monitor : Monitor.t option;
  mutable prov_on : bool;
  mutable executed : Cmd.step list;  (** non-skipped steps, reversed *)
  fault : fault option;
  mutable inserts_seen : int;
  mutable pub : Snap_pub.t option;
      (** publish mode: an {!Ivm_serve.Snap_pub} kept in lockstep, its
          published snapshot digest-checked against the live database
          after every mutating step *)
  mutable last_track : Changes.collector option;
      (** the collector threaded through the last [real_apply], consumed
          by the publish step *)
}

exception Check_failed of { message : string; trace : Cmd.trace }

let store_path ctx = Filename.concat ctx.dir Cmd.store_dir

let executed_trace ctx : Cmd.trace =
  {
    Cmd.duplicate = ctx.model.Model.duplicate;
    algorithm = ctx.init_algorithm;
    steps = List.rev ctx.executed;
  }

let fail ctx fmt =
  Printf.ksprintf
    (fun message -> raise (Check_failed { message; trace = executed_trace ctx }))
    fmt

(* ------------------------------------------------------------------ *)
(* The equivalence check                                                *)
(* ------------------------------------------------------------------ *)

let tuple_list_str tuples =
  String.concat " " (List.map Tuple.to_string tuples)

let distinct_tuples (r : Relation.t) : Tuple.t list =
  List.map fst (Relation.to_sorted_list r)

(** Real ≡ model: base relations equal with multiplicities, every
    derived relation equal as a tuple set (counted correctness is
    [audit]'s job, which traces also drive), [status_json] well-formed
    and agreeing on the resolved algorithm, and — when durable — the
    real store's WAL extent and record count matching the model's. *)
let check ctx ~(after : Cmd.step) : unit =
  let m = ctx.model in
  let program = Vm.program ctx.vm in
  let after_s = Cmd.to_line after in
  (* base relations, with counts *)
  List.iter
    (fun pred ->
      if Ivm_datalog.Program.mem_pred program pred then begin
        let real = Relation.to_sorted_list (Vm.relation ctx.vm pred) in
        let want = Model.base_counts m pred in
        if real <> want then
          fail ctx
            "after %s: base %s diverged\n  real:  %s\n  model: %s" after_s pred
            (String.concat " "
               (List.map
                  (fun (t, c) -> Printf.sprintf "%s:%d" (Tuple.to_string t) c)
                  real))
            (String.concat " "
               (List.map
                  (fun (t, c) -> Printf.sprintf "%s:%d" (Tuple.to_string t) c)
                  want))
      end)
    (Naive.base_preds m.Model.rules);
  (* derived relations, as sets *)
  let derived = Model.derived m in
  List.iter
    (fun pred ->
      let real = distinct_tuples (Vm.relation ctx.vm pred) in
      let want = Naive.tuples_of derived pred in
      if real <> want then
        fail ctx
          "after %s: view %s diverged\n  real:  %s\n  model: %s" after_s pred
          (tuple_list_str real) (tuple_list_str want))
    (Model.head_preds m);
  if Vm.algorithm ctx.vm <> m.Model.algorithm then
    fail ctx "after %s: algorithm %s, model has %s" after_s
      (Vm.algorithm_name (Vm.algorithm ctx.vm)) (Vm.algorithm_name m.Model.algorithm);
  (* status_json sanity: round-trips and names the resolved algorithm *)
  let status =
    try Json.of_string (Json.to_string (Vm.status_json ctx.vm))
    with e ->
      fail ctx "after %s: status_json did not round-trip: %s" after_s
        (Printexc.to_string e)
  in
  (match Option.bind (Json.member "algorithm" status) Json.to_string_opt with
  | Some name ->
    let want = Vm.algorithm_name (Model.resolve m) in
    if name <> want then
      fail ctx "after %s: status_json algorithm %S, model resolves %S" after_s
        name want
  | None -> fail ctx "after %s: status_json lacks \"algorithm\"" after_s);
  (* durable store bookkeeping *)
  match Vm.store_status ctx.vm with
  | None ->
    if Model.durable m then
      fail ctx "after %s: model durable, real manager is not" after_s
  | Some st ->
    if not (Model.durable m) then
      fail ctx "after %s: real manager durable, model is not" after_s;
    let records =
      match m.Model.store with None -> 0 | Some s -> List.length s.records
    in
    if st.Store.wal_records <> records then
      fail ctx "after %s: wal_records %d, model has %d" after_s
        st.Store.wal_records records;
    if st.Store.wal_bytes <> Model.wal_end m then
      fail ctx "after %s: wal_bytes %d, model extent %d" after_s
        st.Store.wal_bytes (Model.wal_end m)

(* ------------------------------------------------------------------ *)
(* Preconditions                                                        *)
(* ------------------------------------------------------------------ *)

let defined_ok rules =
  (* every body predicate is the base relation or some rule's head *)
  let heads = Naive.head_preds rules in
  List.for_all
    (fun (r : Ast.rule) ->
      List.for_all
        (fun p -> p = "link" || List.mem p heads)
        (Ast.body_preds r))
    rules

let algorithm_ok (m : Model.t) (a : Vm.algorithm) ~(rules : Ast.rule list) =
  let recursive = Naive.recursive rules in
  if recursive && m.Model.duplicate then
    (* the model never enters recursive duplicate semantics: over the
       generator's cyclic data, counting through recursion diverges *)
    false
  else
    match a with
    | Vm.Counting -> not recursive
    | Vm.Recursive_counting -> m.Model.duplicate && not recursive
    | Vm.Dred | Vm.Dred_counted -> not m.Model.duplicate
    | Vm.Recompute | Vm.Auto -> true

let arity_of_rule (r : Ast.rule) = List.length r.Ast.head.Ast.args

(** May [step] run in the given model state?  Steps failing this are
    skipped on both sides (shrink-soundness).  Pure in the sense that it
    only reads the model and the two lifecycle flags — the generator
    uses it too, threading its own simulated state. *)
let precondition_pure (m : Model.t) ~(prov_on : bool) ~(monitored : bool)
    (step : Cmd.step) : bool =
  match step with
  | Cmd.Insert (p, _) -> p = "link"
  | Cmd.Delete (p, t) -> p = "link" && Model.count m p t > 0
  | Cmd.Batch entries ->
    entries <> []
    && List.for_all (fun (_, p, _) -> p = "link") entries
    && Model.batch_ok m entries
  | Cmd.Add_rule r ->
    let rules' = m.Model.rules @ [ r ] in
    (not (List.mem r m.Model.rules))
    && defined_ok rules'
    && algorithm_ok m m.Model.algorithm ~rules:rules'
  | Cmd.Del_rule r ->
    let rules' = List.filter (fun r' -> r' <> r) m.Model.rules in
    List.mem r m.Model.rules
    && List.length rules' > 0
    && defined_ok rules'
    && algorithm_ok m m.Model.algorithm ~rules:rules'
  | Cmd.Algorithm a -> a <> m.Model.algorithm
  | Cmd.Audit -> true
  | Cmd.Query (p, arity) ->
    List.exists
      (fun (r : Ast.rule) ->
        r.Ast.head.Ast.pred = p && arity_of_rule r = arity)
      m.Model.rules
  | Cmd.Open -> not (Model.durable m)
  | Cmd.Close | Cmd.Compact -> Model.durable m
  | Cmd.Crash damage -> (
    Model.durable m
    &&
    let hi = Model.wal_end m in
    match damage with
    | Cmd.No_damage -> true
    | Cmd.Truncate n -> n >= 1 && hi - n >= Model.wal_header_bytes
    | Cmd.Flip k -> k >= Model.wal_header_bytes && k < hi)
  | Cmd.Prov_on -> not prov_on
  | Cmd.Prov_off -> prov_on
  | Cmd.Why _ -> prov_on
  | Cmd.Whynot (p, _) -> p = "link" || List.mem p (Model.head_preds m)
  | Cmd.Monitor_start -> not monitored
  | Cmd.Monitor_stop -> monitored

let precondition (ctx : ctx) (step : Cmd.step) : bool =
  precondition_pure ctx.model ~prov_on:ctx.prov_on
    ~monitored:(ctx.monitor <> None) step

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

let changes_of_entries program (entries : (bool * string * Tuple.t) list) :
    Changes.t =
  let by_pred = Hashtbl.create 4 in
  List.iter
    (fun (ins, p, t) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_pred p) in
      Hashtbl.replace by_pred p ((t, if ins then 1 else -1) :: prev))
    entries;
  Changes.of_list program
    (Hashtbl.fold (fun p l acc -> (p, List.rev l) :: acc) by_pred []
    |> List.sort compare)

(** Apply a real batch, recording the resulting WAL extent in the model
    when durable.  The fault hook mutilates only the real batch. *)
let real_apply ctx (entries : (bool * string * Tuple.t) list) : unit =
  let has_insert = List.exists (fun (ins, _, _) -> ins) entries in
  let entries_real =
    match ctx.fault with
    | Some (Drop_every k) when has_insert ->
      ctx.inserts_seen <- ctx.inserts_seen + 1;
      if ctx.inserts_seen mod k = 0 then
        let dropped = ref false in
        List.filter
          (fun (ins, _, _) ->
            if ins && not !dropped then (
              dropped := true;
              false)
            else true)
          entries
      else entries
    | _ -> entries
  in
  (if entries_real <> [] then
     let changes = changes_of_entries (Vm.program ctx.vm) entries_real in
     match ctx.pub with
     | None -> ignore (Vm.apply ctx.vm changes)
     | Some _ -> (
       (* publish mode routes through the server's group-commit path so
          the commit sites feed the net-change collector *)
       let track = Changes.collector () in
       ctx.last_track <- Some track;
       match Vm.apply_group ~track ctx.vm [ changes ] with
       | [ Ok _ ] -> ()
       | [ Error e ] -> failwith e
       | _ -> assert false));
  Model.apply_batch ctx.model entries;
  (* a durable apply appends exactly one WAL record (even when the batch
     normalizes to nothing); mirror it with the observed extent *)
  match Vm.store_status ctx.vm with
  | Some st when st.Store.wal_bytes > Model.wal_end ctx.model ->
    Model.log_record ctx.model ~wal_end:st.Store.wal_bytes
  | _ -> ()

let flip_byte path off =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      let b = Bytes.create 1 in
      if Unix.read fd b 0 1 = 1 then begin
        Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        ignore (Unix.write fd b 0 1)
      end)

let exec (ctx : ctx) (step : Cmd.step) : unit =
  let m = ctx.model in
  match step with
  | Cmd.Insert (p, t) -> real_apply ctx [ (true, p, t) ]
  | Cmd.Delete (p, t) -> real_apply ctx [ (false, p, t) ]
  | Cmd.Batch entries -> real_apply ctx entries
  | Cmd.Add_rule r ->
    Vm.add_rule ctx.vm r;
    Model.add_rule m r
  | Cmd.Del_rule r ->
    Vm.remove_rule ctx.vm r;
    Model.remove_rule m r
  | Cmd.Algorithm a when algorithm_ok m a ~rules:m.Model.rules ->
    Vm.set_algorithm ctx.vm a;
    Model.set_algorithm m a
  | Cmd.Algorithm a -> (
    (* outside the contract: refused, and neither side changes *)
    match Vm.set_algorithm ctx.vm a with
    | () -> fail ctx "algorithm %s accepted outside the contract" (Vm.algorithm_name a)
    | exception Invalid_argument _ -> ())
  | Cmd.Audit -> (
    match Vm.audit ctx.vm with
    | Ok () -> ()
    | Error e -> fail ctx "audit failed: %s" e)
  | Cmd.Query (p, arity) ->
    let q =
      Printf.sprintf "%s(%s)" p
        (String.concat ", " (List.init arity (fun i -> Printf.sprintf "X%d" i)))
    in
    let result = Query.run_text (Vm.database ctx.vm) q in
    let real = distinct_tuples result.Query.rows in
    let want = Model.derived_tuples m p in
    if real <> want then
      fail ctx "query %s diverged\n  real:  %s\n  model: %s" q
        (tuple_list_str real) (tuple_list_str want)
  | Cmd.Open ->
    if not (Model.has_store m) then begin
      Vm.make_durable ctx.vm ~dir:(store_path ctx);
      ignore (Model.open_store m)
    end
    else begin
      (* disk wins: drop the in-memory manager, recover from the store *)
      if ctx.prov_on then begin
        Vm.disable_provenance ctx.vm;
        ctx.prov_on <- false
      end;
      Vm.close_store ctx.vm;
      let algorithm = Model.stored_algorithm m in
      let vm, recovery =
        try Vm.open_durable ~algorithm (store_path ctx)
        with e ->
          fail ctx "open_durable raised %s" (Printexc.to_string e)
      in
      ctx.vm <- vm;
      (* the old publisher wraps the dropped manager; re-seed from the
         recovered one *)
      (match ctx.pub with
      | Some _ -> ctx.pub <- Some (Snap_pub.create ~readers:1 vm)
      | None -> ());
      let expected = Model.open_store m in
      let replayed = List.length recovery.Store.replayed in
      if replayed <> expected then
        fail ctx "recovery replayed %d records, model expects %d" replayed
          expected
    end
  | Cmd.Close ->
    Vm.close_store ctx.vm;
    Model.close m
  | Cmd.Compact ->
    Vm.compact ctx.vm;
    Model.resnapshot m
  | Cmd.Crash damage ->
    (* a kill: drop the handle without compaction, lose the provenance
       store (it is process state), then damage the log on disk *)
    if ctx.prov_on then begin
      Vm.disable_provenance ctx.vm;
      ctx.prov_on <- false
    end;
    let wal = Store.wal_file (store_path ctx) in
    Vm.close_store ctx.vm;
    (match damage with
    | Cmd.No_damage -> ()
    | Cmd.Truncate n ->
      let size = (Unix.stat wal).Unix.st_size in
      Unix.truncate wal (max 0 (size - n))
    | Cmd.Flip k -> flip_byte wal k);
    Model.crash m damage
  | Cmd.Prov_on ->
    Vm.enable_provenance ctx.vm;
    ctx.prov_on <- true
  | Cmd.Prov_off ->
    Vm.disable_provenance ctx.vm;
    ctx.prov_on <- false
  | Cmd.Why (p, t) -> (
    let access = Vm.provenance_access ctx.vm in
    let present =
      List.exists
        (fun t' -> Tuple.compare t t' = 0)
        (if p = "link" then Model.base_tuples m p else Model.derived_tuples m p)
    in
    match (Prov_query.why access p t, present) with
    | ( Prov_query.Why_tree
          { t_kind = Prov_query.Derived { derivations; truncated = false; _ }; _ },
        true )
      when Vm.algorithm ctx.vm <> Vm.Dred ->
      (* Every resolution but explicit DRed stores exact counts: the
         derivations [why] finds must add up to the stored count. *)
      let stored = Relation.count (Vm.relation ctx.vm p) t in
      if derivations <> stored then
        fail ctx "why %s%s: %d derivations found, stored count %d" p
          (Tuple.to_string t) derivations stored
    | Prov_query.Why_tree _, true | Prov_query.Why_absent, false -> ()
    | Prov_query.Why_tree _, false ->
      fail ctx "why %s%s: tree for a tuple the model lacks" p
        (Tuple.to_string t)
    | Prov_query.Why_absent, true ->
      fail ctx "why %s%s: absent, but the model derives it" p
        (Tuple.to_string t)
    | Prov_query.Why_unknown_pred, _ ->
      fail ctx "why %s%s: unknown predicate" p (Tuple.to_string t))
  | Cmd.Whynot (p, t) -> (
    let access = Vm.provenance_access ctx.vm in
    let present =
      List.exists
        (fun t' -> Tuple.compare t t' = 0)
        (if p = "link" then Model.base_tuples m p else Model.derived_tuples m p)
    in
    match (Prov_query.whynot access p t, present) with
    | Prov_query.Whynot_present _, false ->
      fail ctx "why not %s%s: present, but the model lacks it" p
        (Tuple.to_string t)
    | (Prov_query.Whynot_base | Prov_query.Whynot_no_rules
      | Prov_query.Whynot_failures _), true ->
      fail ctx "why not %s%s: failure report for a tuple the model derives" p
        (Tuple.to_string t)
    | _ -> ())
  | Cmd.Monitor_start ->
    let vm_ref = ctx in
    let config =
      {
        Monitor.default_config with
        status = (fun () -> Vm.status_json vm_ref.vm);
        explain = Some (fun q -> Vm.explain_json vm_ref.vm q);
      }
    in
    ctx.monitor <- Some (Monitor.start ~config ~port:0 ())
  | Cmd.Monitor_stop -> (
    match ctx.monitor with
    | Some srv ->
      Monitor.stop srv;
      ctx.monitor <- None
    | None -> ())

(** Steps after which the server's writer would publish a snapshot. *)
let publishes_after = function
  | Cmd.Insert _ | Cmd.Delete _ | Cmd.Batch _ | Cmd.Add_rule _
  | Cmd.Del_rule _ | Cmd.Algorithm _ | Cmd.Open | Cmd.Compact -> true
  | Cmd.Audit | Cmd.Query _ | Cmd.Close | Cmd.Crash _ | Cmd.Prov_on
  | Cmd.Prov_off | Cmd.Why _ | Cmd.Whynot _ | Cmd.Monitor_start
  | Cmd.Monitor_stop -> false

(** Publish-mode postcondition: run a publish (tracked when the step was
    a batch apply, untracked — a counted full-copy fallback — otherwise)
    and require the published snapshot's canonical digest to equal the
    live database's.  This is exactly the invariant the server's readers
    depend on: an incrementally patched shadow is indistinguishable from
    a [Database.copy]. *)
let publish_check ctx ~(after : Cmd.step) : unit =
  match ctx.pub with
  | None -> ()
  | Some pub when publishes_after after ->
    let track = ctx.last_track in
    ctx.last_track <- None;
    ignore (Snap_pub.publish ?track pub : Snap_pub.mode);
    let snap = Snap_pub.acquire pub ~reader:0 in
    let got = Database.canonical_digest snap in
    Snap_pub.release pub ~reader:0;
    let want = Database.canonical_digest (Vm.database ctx.vm) in
    if got <> want then
      fail ctx
        "after %s: published snapshot diverged from live database\n\
        \  published: %s\n  live:      %s" (Cmd.to_line after) got want
  | Some _ -> ctx.last_track <- None

(* ------------------------------------------------------------------ *)
(* Running whole traces                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(** The permanent seed rule every trace starts from
    ({!Cmd.seed_rule_text}). *)
let seed_rule : Ast.rule = Parser.parse_rule Cmd.seed_rule_text

type outcome = {
  executed : int;  (** steps run (preconditions held) *)
  skipped : int;  (** steps skipped by precondition *)
}

(** Run one trace to completion.  Raises {!Check_failed} (carrying the
    executed prefix) when the real system and the model disagree; any
    other exception from the real side is wrapped the same way.

    [publish] additionally keeps an {!Ivm_serve.Snap_pub} in lockstep —
    batch applies route through {!Vm.apply_group} with a net-change
    collector, every mutating step publishes, and the published
    snapshot must digest-equal the live database ({!publish_check}). *)
let run ?fault ?(publish = false) (trace : Cmd.trace) : outcome =
  let dir = Filename.temp_dir "ivm_statecheck" "" in
  Prov.set_enabled false;
  Prov.reset ();
  let semantics =
    if trace.Cmd.duplicate then Database.Duplicate_semantics
    else Database.Set_semantics
  in
  let model =
    Model.create ~duplicate:trace.Cmd.duplicate ~algorithm:trace.Cmd.algorithm
      ~rules:[ seed_rule ] ()
  in
  let vm =
    Vm.create ~semantics ~algorithm:trace.Cmd.algorithm [ seed_rule ]
  in
  let ctx =
    {
      dir;
      init_algorithm = trace.Cmd.algorithm;
      model;
      vm;
      monitor = None;
      prov_on = false;
      executed = [];
      fault;
      inserts_seen = 0;
      pub = (if publish then Some (Snap_pub.create ~readers:1 vm) else None);
      last_track = None;
    }
  in
  let executed = ref 0 and skipped = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      (match ctx.monitor with Some srv -> Monitor.stop srv | None -> ());
      if ctx.prov_on then Vm.disable_provenance ctx.vm;
      Prov.set_enabled false;
      Prov.reset ();
      Vm.close_store ctx.vm;
      rm_rf dir)
    (fun () ->
      List.iter
        (fun step ->
          if precondition ctx step then begin
            ctx.executed <- step :: ctx.executed;
            incr executed;
            (try exec ctx step with
            | Check_failed _ as e -> raise e
            | e ->
              fail ctx "step %s raised %s" (Cmd.to_line step)
                (Printexc.to_string e));
            publish_check ctx ~after:step;
            check ctx ~after:step
          end
          else incr skipped)
        trace.Cmd.steps;
      { executed = !executed; skipped = !skipped })

(** [run] as a result, with the failing prefix rendered as a replayable
    script — what the QCheck property and the corpus replayer print. *)
let run_result ?fault ?publish (trace : Cmd.trace) : (outcome, string) result =
  match run ?fault ?publish trace with
  | outcome -> Ok outcome
  | exception Check_failed { message; trace = prefix } ->
    Error
      (Printf.sprintf "%s\n\nreplay with:\n%s" message (Cmd.to_script prefix))
