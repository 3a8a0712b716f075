(** Scenario generation for the statecheck harness.

    Traces are generated {e state-aware}: the generator threads the same
    {!Model} the interpreter will run, so almost every generated step's
    precondition holds at run time (the interpreter still re-checks and
    skips, which is what keeps list-shrinking sound).  Crash damage is
    bounded by a conservative WAL-extent estimate — every record frame
    is at least {!min_record_bytes} bytes, so damage generated against
    the estimate always lands inside the real log's frame region.

    The generated command vocabulary {e is} the public API surface:
    batches, rule add/remove, algorithm switches, queries, audit,
    snapshot/compact, durable close and crash-reopen with torn or
    bit-flipped WAL tails, provenance spot-checks, and the monitor. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Ast = Ivm_datalog.Ast
module Parser = Ivm_datalog.Parser
module Vm = Ivm.View_manager
module Q = QCheck

(* ------------------------------------------------------------------ *)
(* The program pool                                                     *)
(* ------------------------------------------------------------------ *)

(** Every rule the generator may add or remove.  [link] is the only base
    relation; [Interp.seed_rule] ([hop]) is permanent.  [tc] is the
    recursive pair — set semantics only (recursive duplicate maintenance
    is outside every algorithm's contract). *)
let pool : Ast.rule list =
  List.map Parser.parse_rule
    [
      "hop(X, Y) :- link(X, Y).";
      "tri(X, Y) :- hop(X, Z), link(Z, Y).";
      "only_tri(X, Y) :- tri(X, Y), not hop(X, Y).";
      "up(X, Y) :- hop(X, Y), X < Y.";
      "tc(X, Y) :- link(X, Y).";
      "tc(X, Y) :- tc(X, Z), link(Z, Y).";
      "big(X, Y) :- tc(X, Y), not link(X, Y).";
    ]

let symbols = [| "a"; "b"; "c"; "d"; "e"; "f" |]

(** Conservative lower bound on one WAL record frame (length word, CRC,
    sequence, change count — before any payload). *)
let min_record_bytes = 20

let initial_algorithms ~duplicate : Vm.algorithm list =
  if duplicate then [ Vm.Counting; Vm.Recursive_counting; Vm.Recompute; Vm.Auto ]
  else [ Vm.Counting; Vm.Dred; Vm.Dred_counted; Vm.Recompute; Vm.Auto ]

(* ------------------------------------------------------------------ *)
(* State-aware step generation                                          *)
(* ------------------------------------------------------------------ *)

type sim = {
  model : Model.t;
  mutable prov_on : bool;
  mutable monitored : bool;
}

let pick st arr = arr.(Random.State.int st (Array.length arr))

let gen_tuple st =
  Tuple.of_list [ Value.Str (pick st symbols); Value.Str (pick st symbols) ]

let gen_present_tuple st (s : sim) : Tuple.t option =
  match Model.base_tuples s.model "link" with
  | [] -> None
  | tuples -> Some (List.nth tuples (Random.State.int st (List.length tuples)))

let gen_batch st (s : sim) : Cmd.step =
  let n = 2 + Random.State.int st 4 in
  let deleted = ref [] in
  let entries =
    List.init n (fun _ ->
        let deletable =
          List.filter
            (fun t -> not (List.exists (fun d -> Tuple.compare d t = 0) !deleted))
            (Model.base_tuples s.model "link")
        in
        if deletable <> [] && Random.State.int st 3 = 0 then begin
          let t = List.nth deletable (Random.State.int st (List.length deletable)) in
          deleted := t :: !deleted;
          (false, "link", t)
        end
        else (true, "link", gen_tuple st))
  in
  (* deleting a tuple inserted earlier in the same batch nets to zero —
     harmless — but deleting more copies than stored is invalid; keep
     only batches the model accepts *)
  if Model.batch_ok s.model entries then Cmd.Batch entries
  else Cmd.Batch (List.filter (fun (ins, _, _) -> ins) entries)

(** Candidate steps in the current simulated state, with weights. *)
let candidates st (s : sim) : (int * Cmd.step) list =
  let m = s.model in
  let durable = Model.durable m in
  let opt w cond step = if cond then [ (w, step) ] else [] in
  let insert = (5, Cmd.Insert ("link", gen_tuple st)) in
  let delete =
    match gen_present_tuple st s with
    | Some t -> [ (3, Cmd.Delete ("link", t)) ]
    | None -> []
  in
  let batch = [ (3, gen_batch st s) ] in
  let addable =
    List.filter
      (fun r ->
        Interp.precondition_pure m ~prov_on:s.prov_on ~monitored:s.monitored
          (Cmd.Add_rule r))
      pool
  in
  let add_rule =
    match addable with
    | [] -> []
    | rs -> [ (2, Cmd.Add_rule (List.nth rs (Random.State.int st (List.length rs)))) ]
  in
  let removable =
    List.filter
      (fun r ->
        Interp.precondition_pure m ~prov_on:s.prov_on ~monitored:s.monitored
          (Cmd.Del_rule r))
      m.Model.rules
  in
  let del_rule =
    match removable with
    | [] -> []
    | rs -> [ (1, Cmd.Del_rule (List.nth rs (Random.State.int st (List.length rs)))) ]
  in
  let switchable =
    List.filter
      (fun a ->
        Interp.precondition_pure m ~prov_on:s.prov_on ~monitored:s.monitored
          (Cmd.Algorithm a))
      [
        Vm.Counting; Vm.Dred; Vm.Dred_counted; Vm.Recursive_counting; Vm.Recompute;
        Vm.Auto;
      ]
  in
  let algorithm =
    match switchable with
    | [] -> []
    | algos ->
      [ (1, Cmd.Algorithm (List.nth algos (Random.State.int st (List.length algos)))) ]
  in
  let query =
    match Model.head_preds m with
    | [] -> []
    | heads ->
      let p = List.nth heads (Random.State.int st (List.length heads)) in
      let arity =
        List.find_map
          (fun (r : Ast.rule) ->
            if r.Ast.head.Ast.pred = p then Some (List.length r.Ast.head.Ast.args)
            else None)
          m.Model.rules
        |> Option.value ~default:2
      in
      [ (2, Cmd.Query (p, arity)) ]
  in
  let crash =
    if not durable then []
    else
      let hi = Model.wal_end m - Model.wal_header_bytes in
      let damage =
        if hi <= 0 then Cmd.No_damage
        else
          match Random.State.int st 3 with
          | 0 -> Cmd.No_damage
          | 1 -> Cmd.Truncate (1 + Random.State.int st hi)
          | _ -> Cmd.Flip (Model.wal_header_bytes + Random.State.int st hi)
      in
      [ (2, Cmd.Crash damage) ]
  in
  let spot_fact st =
    let p =
      if Random.State.bool st then "link"
      else
        match Model.head_preds m with
        | [] -> "link"
        | hs -> List.nth hs (Random.State.int st (List.length hs))
    in
    let present =
      if p = "link" then Model.base_tuples m p else Model.derived_tuples m p
    in
    let t =
      if present <> [] && Random.State.int st 10 < 7 then
        List.nth present (Random.State.int st (List.length present))
      else gen_tuple st
    in
    (p, t)
  in
  List.concat
    [
      [ insert ];
      delete;
      batch;
      add_rule;
      del_rule;
      algorithm;
      [ (1, Cmd.Audit) ];
      query;
      opt 2 (not durable) Cmd.Open;
      opt 1 durable Cmd.Close;
      opt 1 durable Cmd.Compact;
      crash;
      opt 1 (not s.prov_on) Cmd.Prov_on;
      opt 1 s.prov_on Cmd.Prov_off;
      (if s.prov_on then
         let p, t = spot_fact st in
         [ (2, Cmd.Why (p, t)) ]
       else []);
      (let p, t = spot_fact st in
       [ (1, Cmd.Whynot (p, t)) ]);
      opt 1 (not s.monitored) Cmd.Monitor_start;
      opt 1 s.monitored Cmd.Monitor_stop;
    ]

let weighted_pick st (cands : (int * 'a) list) : 'a =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 cands in
  let n = Random.State.int st total in
  let rec go n = function
    | [] -> assert false
    | (w, x) :: rest -> if n < w then x else go (n - w) rest
  in
  go n cands

(** Advance the simulation as the interpreter will (using the
    conservative WAL estimate for durable batches). *)
let sim_exec (s : sim) (step : Cmd.step) : unit =
  let m = s.model in
  match step with
  | Cmd.Insert (p, t) ->
    Model.apply_batch m [ (true, p, t) ];
    if Model.durable m then
      Model.log_record m ~wal_end:(Model.wal_end m + min_record_bytes)
  | Cmd.Delete (p, t) ->
    Model.apply_batch m [ (false, p, t) ];
    if Model.durable m then
      Model.log_record m ~wal_end:(Model.wal_end m + min_record_bytes)
  | Cmd.Batch entries ->
    Model.apply_batch m entries;
    if Model.durable m then
      Model.log_record m ~wal_end:(Model.wal_end m + min_record_bytes)
  | Cmd.Add_rule r -> Model.add_rule m r
  | Cmd.Del_rule r -> Model.remove_rule m r
  | Cmd.Algorithm a ->
    (* a switch outside the contract is refused and changes nothing *)
    if Interp.algorithm_ok m a ~rules:m.Model.rules then Model.set_algorithm m a
  | Cmd.Open -> ignore (Model.open_store m)
  | Cmd.Close -> Model.close m
  | Cmd.Compact -> Model.resnapshot m
  | Cmd.Crash damage -> Model.crash m damage
  | Cmd.Prov_on -> s.prov_on <- true
  | Cmd.Prov_off -> s.prov_on <- false
  | Cmd.Monitor_start -> s.monitored <- true
  | Cmd.Monitor_stop -> s.monitored <- false
  | Cmd.Audit | Cmd.Query _ | Cmd.Why _ | Cmd.Whynot _ -> ()

(* ------------------------------------------------------------------ *)
(* Traces                                                               *)
(* ------------------------------------------------------------------ *)

let gen_trace ?(min_len = 25) ?(max_len = 45) ?duplicate ?algorithm () :
    Cmd.trace Q.Gen.t =
 fun st ->
  let duplicate =
    match duplicate with Some d -> d | None -> Random.State.bool st
  in
  let algorithm =
    match algorithm with
    | Some a -> a
    | None -> pick st (Array.of_list (initial_algorithms ~duplicate))
  in
  let s =
    {
      model =
        Model.create ~duplicate ~algorithm ~rules:[ Interp.seed_rule ] ();
      prov_on = false;
      monitored = false;
    }
  in
  let len = min_len + Random.State.int st (max_len - min_len + 1) in
  let steps = ref [] in
  let emit step =
    steps := step :: !steps;
    sim_exec s step
  in
  while List.length !steps < len do
    let step = weighted_pick st (candidates st s) in
    if
      Interp.precondition_pure s.model ~prov_on:s.prov_on
        ~monitored:s.monitored step
    then begin
      emit step;
      (* a crash kills the process: the next thing that can happen is a
         reopen, so keep the pair adjacent *)
      match step with Cmd.Crash _ -> emit Cmd.Open | _ -> ()
    end
  done;
  { Cmd.duplicate; algorithm; steps = List.rev !steps }

let print_trace (t : Cmd.trace) : string =
  Cmd.to_string t ^ "\n" ^ Cmd.to_script t

(** Shrinking drops steps (chunks, then singletons); the interpreter's
    precondition-skip keeps any sublist well-formed. *)
let shrink_trace (t : Cmd.trace) : Cmd.trace Q.Iter.t =
  Q.Iter.map (fun steps -> { t with Cmd.steps }) (Q.Shrink.list t.Cmd.steps)

let arbitrary ?min_len ?max_len ?duplicate ?algorithm () :
    Cmd.trace Q.arbitrary =
  Q.make ~print:print_trace ~shrink:shrink_trace
    (gen_trace ?min_len ?max_len ?duplicate ?algorithm ())
