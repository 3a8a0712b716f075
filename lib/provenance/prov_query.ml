(** [why], [why not] and [lineage] queries — see the interface. *)

module Tuple = Ivm_relation.Tuple
module Value = Ivm_relation.Value
module Ast = Ivm_datalog.Ast
module Pretty = Ivm_datalog.Pretty
module Json = Ivm_obs.Json

type db_access = {
  rules_for : string -> Ast.rule list;
  is_base : string -> bool;
  known_pred : string -> bool;
  holds : string -> Tuple.t -> bool;
  count : string -> Tuple.t -> int;
  probe : string -> (int * Value.t) list -> (Tuple.t -> int -> unit) -> unit;
  mult_for : string -> int -> int;
}

(* ------------------------------------------------------------------ *)
(* Expression evaluation over partial environments                     *)
(* ------------------------------------------------------------------ *)

let rec eval_expr lookup (e : Ast.expr) : Value.t option =
  match e with
  | Ast.Eterm (Ast.Const v) -> Some v
  | Ast.Eterm (Ast.Var x) -> lookup x
  | Ast.Eadd (a, b) -> arith2 lookup Value.add a b
  | Ast.Esub (a, b) -> arith2 lookup Value.sub a b
  | Ast.Emul (a, b) -> arith2 lookup Value.mul a b
  | Ast.Ediv (a, b) -> arith2 lookup Value.div a b
  | Ast.Eneg a -> (
    match eval_expr lookup a with
    | Some v -> ( try Some (Value.neg v) with Value.Type_error _ -> None)
    | None -> None)

and arith2 lookup f a b =
  match (eval_expr lookup a, eval_expr lookup b) with
  | Some va, Some vb -> ( try Some (f va vb) with Value.Type_error _ -> None)
  | _ -> None

(* Numeric comparison across Int/Float, the kind order otherwise —
   matching the evaluator's comparison-literal semantics. *)
let cmp_values (op : Ast.cmp_op) a b =
  let c =
    if Value.is_numeric a && Value.is_numeric b then
      Float.compare (Value.as_number a) (Value.as_number b)
    else Value.compare a b
  in
  match op with
  | Ast.Eq -> c = 0
  | Ast.Neq -> c <> 0
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0

let ground_atom lookup (a : Ast.atom) : Tuple.t option =
  let rec go acc = function
    | [] -> Some (Tuple.of_list (List.rev acc))
    | e :: rest -> (
      match eval_expr lookup e with
      | Some v -> go (v :: acc) rest
      | None -> None)
  in
  go [] a.Ast.args

let fact_to_string pred tup =
  pred ^ "("
  ^ String.concat ", " (List.map Value.to_string (Tuple.to_list tup))
  ^ ")"

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* ------------------------------------------------------------------ *)
(* The bounded search                                                   *)
(* ------------------------------------------------------------------ *)

type failure = {
  f_rule : string;
  f_progress : int;
  f_total : int;
  f_failing : string option;
  f_bindings : (string * Value.t) list;
  f_note : string;
}

let lookup_in env x = List.assoc_opt x env

(* Re-evaluate one aggregate literal under [env] (group variables must
   be bound), weighing each source tuple by its count as the evaluator
   reads it. *)
let compute_agg access env (agg : Ast.aggregate) : (Value.t, string) result =
  let src = agg.Ast.agg_source in
  if not (access.known_pred src.Ast.pred) then
    Error ("unknown predicate " ^ src.Ast.pred)
  else begin
    let lookup = lookup_in env in
    let extend_src env tup =
      let rec go env args vals =
        match (args, vals) with
        | [], [] -> Some env
        | e :: args, v :: vals -> (
          match e with
          | Ast.Eterm (Ast.Var x) -> (
            match List.assoc_opt x env with
            | Some v' -> if Value.equal v' v then go env args vals else None
            | None -> go ((x, v) :: env) args vals)
          | e -> (
            match eval_expr (lookup_in env) e with
            | Some v' -> if Value.equal v' v then go env args vals else None
            | None -> None))
        | _ -> None
      in
      go env src.Ast.args (Tuple.to_list tup)
    in
    let bound =
      List.concat
        (List.mapi
           (fun j e ->
             match eval_expr lookup e with Some v -> [ (j, v) ] | None -> [])
           src.Ast.args)
    in
    let cnt = ref 0 and sum = ref 0.0 and all_int = ref true in
    let mn = ref None and mx = ref None and bad = ref None in
    access.probe src.Ast.pred bound (fun tup c ->
        match extend_src env tup with
        | None -> ()
        | Some env' -> (
          let w = access.mult_for src.Ast.pred c in
          cnt := !cnt + w;
          match agg.Ast.agg_fn with
          | Ast.Count -> ()
          | fn -> (
            match eval_expr (lookup_in env') agg.Ast.agg_arg with
            | None -> bad := Some "aggregated expression not evaluable"
            | Some v -> (
              match fn with
              | Ast.Count -> ()
              | Ast.Min ->
                mn :=
                  Some
                    (match !mn with
                    | None -> v
                    | Some m -> if Value.compare v m < 0 then v else m)
              | Ast.Max ->
                mx :=
                  Some
                    (match !mx with
                    | None -> v
                    | Some m -> if Value.compare v m > 0 then v else m)
              | Ast.Sum | Ast.Avg -> (
                try
                  (match v with Value.Int _ -> () | _ -> all_int := false);
                  sum := !sum +. (Value.as_number v *. float_of_int w)
                with Value.Type_error _ ->
                  bad := Some "non-numeric value under sum/avg")))));
    match !bad with
    | Some msg -> Error msg
    | None ->
      if !cnt = 0 then Error "the group is empty (no source tuples match)"
      else (
        match agg.Ast.agg_fn with
        | Ast.Count -> Ok (Value.Int !cnt)
        | Ast.Min -> (
          match !mn with Some v -> Ok v | None -> Error "no values")
        | Ast.Max -> (
          match !mx with Some v -> Ok v | None -> Error "no values")
        | Ast.Sum ->
          Ok
            (if !all_int && Float.is_integer !sum then
               Value.Int (int_of_float !sum)
             else Value.Float !sum)
        | Ast.Avg -> Ok (Value.Float (!sum /. float_of_int !cnt)))
  end

let search_budget = 20_000

(* One tuple's search budget, shared by its candidate rules. *)
type budget = { mutable left : int; mutable ran_out : bool }

let new_budget () = { left = search_budget; ran_out = false }

let mk_fail (r : Ast.rule) ~progress ~failing ~env note =
  {
    f_rule = Pretty.rule_to_string r;
    f_progress = progress;
    f_total = List.length r.Ast.body;
    f_failing = failing;
    f_bindings = List.rev env;
    f_note = note;
  }

type outcome = {
  head_env : (string * Value.t) list;  (** bindings from the head alone *)
  matched : bool;  (** at least one instantiation was found *)
  deepest : failure option Lazy.t;
      (** the deepest failure met, built only if asked for *)
}

(* The backtracking search of [why] and [why not] over one rule with its
   head bound to [tuple]: unify the head, then instantiate body literals
   most-bound-first against the live relations.  [on_match env mult] is
   called for every instantiation whose head evaluates to [tuple], with
   [mult] the product of its positive subgoals' counts as the evaluator
   reads them; the search stops when it returns [false] or [budget] runs
   out. *)
let search budget access tuple (r : Ast.rule) ~on_match : outcome =
  (* Head unification: bind variables, check constants, defer computed
     arguments until the body binds their variables. *)
  let vals = Tuple.to_list tuple in
  let head_failure note =
    {
      head_env = [];
      matched = false;
      deepest = lazy (Some (mk_fail r ~progress:(-1) ~failing:None ~env:[] note));
    }
  in
  if List.length r.Ast.head.Ast.args <> List.length vals then
    head_failure "head arity mismatch"
  else begin
    let head_fail = ref None in
    let deferred = ref [] in
    let env0 =
      List.fold_left2
        (fun env e v ->
          if !head_fail <> None then env
          else
            match e with
            | Ast.Eterm (Ast.Var x) -> (
              match List.assoc_opt x env with
              | Some v' ->
                if Value.equal v' v then env
                else begin
                  head_fail :=
                    Some
                      (Printf.sprintf
                         "head variable %s would need to be both %s and %s" x
                         (Value.to_string v') (Value.to_string v));
                  env
                end
              | None -> (x, v) :: env)
            | Ast.Eterm (Ast.Const c) ->
              if Value.equal c v then env
              else begin
                head_fail :=
                  Some
                    (Printf.sprintf "head constant %s does not match %s"
                       (Value.to_string c) (Value.to_string v));
                env
              end
            | e ->
              deferred := (e, v) :: !deferred;
              env)
        [] r.Ast.head.Ast.args vals
    in
    match !head_fail with
    | Some msg -> head_failure ("head cannot match: " ^ msg)
    | None ->
      let lits = Array.of_list r.Ast.body in
      let n = Array.length lits in
      let used = Array.make n false in
      let best_progress = ref (-1) in
      let best = ref None in
      let matched = ref false and stop = ref false in
      let live () =
        (not !stop)
        && (budget.left > 0
           ||
           (budget.ran_out <- true;
            false))
      in
      (* [failing] is a literal index; [note] is only rendered for the
         failure that is finally reported. *)
      let record_fail env progress failing note =
        if progress > !best_progress then begin
          best_progress := progress;
          best := Some (progress, failing, env, note)
        end
      in
      let check_deferred env =
        let lookup = lookup_in env in
        let rec go = function
          | [] -> Ok ()
          | (e, v) :: rest -> (
            match eval_expr lookup e with
            | Some v' ->
              if Value.equal v' v then go rest
              else
                Error
                  (Printf.sprintf "head expression evaluates to %s, not %s"
                     (Value.to_string v') (Value.to_string v))
            | None -> Error "head expression not determined by the body")
        in
        go !deferred
      in
      let extend env (a : Ast.atom) tup =
        let rec go env args vals =
          match (args, vals) with
          | [], [] -> Some env
          | e :: args, v :: vals -> (
            match e with
            | Ast.Eterm (Ast.Var x) -> (
              match List.assoc_opt x env with
              | Some v' -> if Value.equal v' v then go env args vals else None
              | None -> go ((x, v) :: env) args vals)
            | e -> (
              match eval_expr (lookup_in env) e with
              | Some v' -> if Value.equal v' v then go env args vals else None
              | None -> None))
          | _ -> None
        in
        go env a.Ast.args (Tuple.to_list tup)
      in
      (* Pick the next literal: ready comparisons first, then binding
         comparisons, ground negations, the most-bound positive atom,
         ready aggregates; [`Stuck] when something is left but nothing
         can make progress. *)
      let pick env =
        let lookup = lookup_in env in
        let evb e = eval_expr lookup e in
        let ready_cmp = ref None and binder = ref None in
        let ready_neg = ref None and best_pos = ref None in
        let ready_agg = ref None in
        Array.iteri
          (fun i lit ->
            if not used.(i) then
              match lit with
              | Ast.Lcmp (l, op, rr) -> (
                match (evb l, evb rr) with
                | Some a, Some b ->
                  if !ready_cmp = None then ready_cmp := Some (i, op, a, b)
                | None, Some v -> (
                  match (l, op) with
                  | Ast.Eterm (Ast.Var x), Ast.Eq ->
                    if !binder = None then binder := Some (i, x, v)
                  | _ -> ())
                | Some v, None -> (
                  match (rr, op) with
                  | Ast.Eterm (Ast.Var x), Ast.Eq ->
                    if !binder = None then binder := Some (i, x, v)
                  | _ -> ())
                | None, None -> ())
              | Ast.Lneg a -> (
                match ground_atom lookup a with
                | Some tup ->
                  if !ready_neg = None then ready_neg := Some (i, a, tup)
                | None -> ())
              | Ast.Lagg agg ->
                if
                  List.for_all
                    (fun x -> lookup x <> None)
                    agg.Ast.agg_group_by
                  && !ready_agg = None
                then ready_agg := Some (i, agg)
              | Ast.Lpos a ->
                let nb =
                  List.length
                    (List.filter (fun e -> evb e <> None) a.Ast.args)
                in
                let better =
                  match !best_pos with
                  | Some (_, _, nb') -> nb > nb'
                  | None -> true
                in
                if better then best_pos := Some (i, a, nb))
          lits;
        match (!ready_cmp, !binder, !ready_neg, !best_pos, !ready_agg) with
        | Some c, _, _, _, _ -> Some (`Cmp c)
        | None, Some b, _, _, _ -> Some (`Bind b)
        | None, None, Some ng, _, _ -> Some (`Neg ng)
        | None, None, None, Some p, _ -> Some (`Pos p)
        | None, None, None, None, Some ag -> Some (`Agg ag)
        | None, None, None, None, None ->
          let stuck = ref None in
          Array.iteri
            (fun i _ -> if (not used.(i)) && !stuck = None then stuck := Some i)
            lits;
          Option.map (fun i -> `Stuck i) !stuck
      in
      let rec step env progress mult =
        if live () then begin
          budget.left <- budget.left - 1;
          match pick env with
          | None -> (
            match check_deferred env with
            | Ok () ->
              matched := true;
              if not (on_match env mult) then stop := true
            | Error msg -> record_fail env progress None (fun () -> msg))
          | Some (`Cmp (i, op, a, b)) ->
            used.(i) <- true;
            if cmp_values op a b then step env (progress + 1) mult
            else
              record_fail env progress (Some i) (fun () ->
                  Printf.sprintf "comparison is false (%s vs %s)"
                    (Value.to_string a) (Value.to_string b));
            used.(i) <- false
          | Some (`Bind (i, x, v)) ->
            used.(i) <- true;
            step ((x, v) :: env) (progress + 1) mult;
            used.(i) <- false
          | Some (`Neg (i, a, tup)) ->
            used.(i) <- true;
            if access.holds a.Ast.pred tup then
              record_fail env progress (Some i) (fun () ->
                  "negated subgoal holds: " ^ fact_to_string a.Ast.pred tup)
            else step env (progress + 1) mult;
            used.(i) <- false
          | Some (`Pos (i, a, _)) ->
            used.(i) <- true;
            let lookup = lookup_in env in
            let bound =
              List.concat
                (List.mapi
                   (fun j e ->
                     match eval_expr lookup e with
                     | Some v -> [ (j, v) ]
                     | None -> [])
                   a.Ast.args)
            in
            let found = ref false in
            if access.known_pred a.Ast.pred then
              access.probe a.Ast.pred bound (fun tup c ->
                  if live () then
                    match extend env a tup with
                    | Some env' ->
                      found := true;
                      step env' (progress + 1)
                        (mult * access.mult_for a.Ast.pred c)
                    | None -> ());
            if (not !found) && not !stop then
              record_fail env progress (Some i) (fun () ->
                  if bound = [] then Printf.sprintf "no %s facts at all" a.Ast.pred
                  else
                    Printf.sprintf "no matching %s fact under these bindings"
                      a.Ast.pred);
            used.(i) <- false
          | Some (`Agg (i, agg)) ->
            used.(i) <- true;
            (match compute_agg access env agg with
            | Ok v -> (
              let x = agg.Ast.agg_result in
              match lookup_in env x with
              | Some v' ->
                if Value.equal v' v then step env (progress + 1) mult
                else
                  record_fail env progress (Some i) (fun () ->
                      Printf.sprintf "aggregate evaluates to %s, not %s"
                        (Value.to_string v) (Value.to_string v'))
              | None -> step ((x, v) :: env) (progress + 1) mult)
            | Error msg ->
              record_fail env progress (Some i) (fun () -> msg));
            used.(i) <- false
          | Some (`Stuck i) ->
            record_fail env progress (Some i) (fun () ->
                "subgoal cannot be instantiated (unbound variables)")
        end
      in
      step env0 0 1;
      let deepest =
        lazy
          (Option.map
             (fun (progress, failing, env, note) ->
               mk_fail r ~progress
                 ~failing:(Option.map (fun i -> Pretty.literal_to_string lits.(i)) failing)
                 ~env (note ()))
             !best)
      in
      { head_env = env0; matched = !matched; deepest }
  end

(* ------------------------------------------------------------------ *)
(* why                                                                 *)
(* ------------------------------------------------------------------ *)

type tree = { t_pred : string; t_tuple : Tuple.t; t_kind : kind }

and kind =
  | Base
  | Derived of {
      supports : deriv list;
      derivations : int;
      elided : int;
      truncated : bool;
    }
  | Cycle
  | Depth_limit
  | Unsupported

and deriv = {
  d_rule : string;
  d_mult : int;
  d_note : string option;
  d_children : tree list;
}

type why_result = Why_unknown_pred | Why_absent | Why_tree of tree

let compare_subgoal (p1, t1) (p2, t2) =
  match String.compare p1 p2 with 0 -> Tuple.compare t1 t2 | c -> c

(* One instantiation of a rule deriving a tuple. *)
type inst = {
  rule_index : int;  (** position among the predicate's rules *)
  rule : string;
  note : string option;
  subgoals : (string * Tuple.t) list;  (** positive subgoals, body order *)
  mult : int;
}

(* Every instantiation of every rule deriving [tuple], ordered by rule
   then subgoals so the output does not depend on relation iteration
   order; and whether the search ran out of budget. *)
let instantiations access pred tuple =
  let budget = new_budget () in
  let found = ref [] in
  List.iteri
    (fun rule_index (r : Ast.rule) ->
      let rule = Pretty.rule_to_string r in
      let note =
        if List.exists (function Ast.Lagg _ -> true | _ -> false) r.Ast.body then
          Some "aggregate subgoal not expanded"
        else None
      in
      let atoms =
        List.filter_map (function Ast.Lpos a -> Some a | _ -> None) r.Ast.body
      in
      ignore
        (search budget access tuple r ~on_match:(fun env mult ->
             let subgoals =
               List.map
                 (fun (a : Ast.atom) ->
                   (a.Ast.pred, Option.get (ground_atom (lookup_in env) a)))
                 atoms
             in
             found := { rule_index; rule; note; subgoals; mult } :: !found;
             true)))
    (access.rules_for pred);
  let order a b =
    match Int.compare a.rule_index b.rule_index with
    | 0 -> List.compare compare_subgoal a.subgoals b.subgoals
    | c -> c
  in
  (List.sort order !found, budget.ran_out)

let why ?(max_depth = 8) ?(max_width = 4) access pred tuple =
  if not (access.known_pred pred) then Why_unknown_pred
  else if not (access.holds pred tuple) then Why_absent
  else begin
    (* A tuple can appear under many branches; search it once. *)
    let memo = Hashtbl.create 64 in
    let instantiations p t =
      match Hashtbl.find_opt memo (p, t) with
      | Some r -> r
      | None ->
        let r = instantiations access p t in
        Hashtbl.add memo (p, t) r;
        r
    in
    let rec node path depth p t =
      let mk k = { t_pred = p; t_tuple = t; t_kind = k } in
      if access.is_base p then mk Base
      else if
        List.exists
          (fun (p', t') -> String.equal p p' && Tuple.equal t t')
          path
      then mk Cycle
      else if depth >= max_depth then mk Depth_limit
      else
        match instantiations p t with
        | [], _ -> mk Unsupported
        | found, truncated ->
          let shown = take max_width found in
          let path = (p, t) :: path in
          let deriv i =
            {
              d_rule = i.rule;
              d_mult = i.mult;
              d_note = i.note;
              d_children =
                List.map (fun (p', t') -> node path (depth + 1) p' t') i.subgoals;
            }
          in
          mk
            (Derived
               {
                 supports = List.map deriv shown;
                 derivations = List.fold_left (fun acc i -> acc + i.mult) 0 found;
                 elided = List.length found - List.length shown;
                 truncated;
               })
    in
    Why_tree (node [] 0 pred tuple)
  end

(* ------------------------------------------------------------------ *)
(* why not                                                             *)
(* ------------------------------------------------------------------ *)

type whynot_result =
  | Whynot_unknown_pred
  | Whynot_present of int
  | Whynot_base
  | Whynot_no_rules
  | Whynot_failures of failure list

let analyze_rule budget access tuple (r : Ast.rule) : failure =
  let o = search budget access tuple r ~on_match:(fun _ _ -> false) in
  let fail ~progress note = mk_fail r ~progress ~failing:None ~env:o.head_env note in
  if o.matched then
    fail ~progress:(List.length r.Ast.body)
      "every subgoal is satisfiable — a derivation exists, so the stored \
       view may be stale"
  else
    match Lazy.force o.deepest with
    | Some f -> f
    | None when budget.ran_out ->
      fail ~progress:0 "search budget exhausted before a definite failure was found"
    | None -> fail ~progress:0 "no subgoal attempted"

let whynot access pred tuple =
  if not (access.known_pred pred) then Whynot_unknown_pred
  else begin
    let c = access.count pred tuple in
    if c > 0 then Whynot_present c
    else if access.is_base pred then Whynot_base
    else
      match access.rules_for pred with
      | [] -> Whynot_no_rules
      | rules ->
        let budget = new_budget () in
        Whynot_failures (List.map (analyze_rule budget access tuple) rules)
  end

(* ------------------------------------------------------------------ *)
(* lineage                                                             *)
(* ------------------------------------------------------------------ *)

type lineage_report = {
  l_pred : string;
  l_tuple : Tuple.t;
  l_present : bool;
  l_count : int;
  l_info : Prov.lineage option;
  l_batches : Prov.batch_info list;
}

type lineage_result = Lineage_unknown_pred | Lineage of lineage_report

let lineage access pred tuple =
  if not (access.known_pred pred) then Lineage_unknown_pred
  else
    Lineage
      {
        l_pred = pred;
        l_tuple = tuple;
        l_present = access.holds pred tuple;
        l_count = access.count pred tuple;
        l_info = Prov.lineage_of ~pred tuple;
        l_batches = Prov.batches ();
      }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let rec render_tree buf indent t =
  let pad = String.make indent ' ' in
  let fact = fact_to_string t.t_pred t.t_tuple in
  match t.t_kind with
  | Base -> Buffer.add_string buf (Printf.sprintf "%s%s  [base fact]\n" pad fact)
  | Cycle ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s  [cycle: already shown above]\n" pad fact)
  | Depth_limit ->
    Buffer.add_string buf (Printf.sprintf "%s%s  [depth limit]\n" pad fact)
  | Unsupported ->
    Buffer.add_string buf
      (Printf.sprintf
         "%s%s  [present, but the search found no derivation — it ran out \
          of budget, or the stored view is stale]\n"
         pad fact)
  | Derived { supports; derivations; truncated; _ } ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s  [derived]  (%d derivation%s, %d shown%s)\n" pad fact
         derivations
         (if derivations = 1 then "" else "s")
         (List.length supports)
         (if truncated then "; search budget exhausted" else ""));
    List.iter
      (fun d ->
        Buffer.add_string buf
          (Printf.sprintf "%s  via %s%s%s\n" pad d.d_rule
             (if d.d_mult > 1 then Printf.sprintf " (x%d)" d.d_mult else "")
             (match d.d_note with Some n -> "  [" ^ n ^ "]" | None -> ""));
        List.iter (render_tree buf (indent + 4)) d.d_children)
      supports

let pp_why fmt = function
  | Why_unknown_pred -> Format.pp_print_string fmt "unknown predicate\n"
  | Why_absent ->
    Format.pp_print_string fmt
      "the tuple is not in the view — try 'why not'\n"
  | Why_tree t ->
    let buf = Buffer.create 256 in
    render_tree buf 0 t;
    Format.pp_print_string fmt (Buffer.contents buf)

let pp_bindings fmt = function
  | [] -> ()
  | bs ->
    Format.fprintf fmt " with %s"
      (String.concat ", "
         (List.map (fun (x, v) -> x ^ "=" ^ Value.to_string v) bs))

let pp_whynot pred tuple fmt = function
  | Whynot_unknown_pred -> Format.fprintf fmt "unknown predicate %s\n" pred
  | Whynot_present c ->
    Format.fprintf fmt
      "%s IS present (count %d) — use 'why' for its derivations\n"
      (fact_to_string pred tuple) c
  | Whynot_base ->
    Format.fprintf fmt
      "%s is an absent base fact — it was never inserted (or was deleted); \
       insert it with +%s.\n"
      (fact_to_string pred tuple)
      (fact_to_string pred tuple)
  | Whynot_no_rules ->
    Format.fprintf fmt "no rules derive %s\n" (fact_to_string pred tuple)
  | Whynot_failures fs ->
    Format.fprintf fmt "%s is absent; candidate rules:\n"
      (fact_to_string pred tuple);
    List.iter
      (fun f ->
        Format.fprintf fmt "  rule: %s\n" f.f_rule;
        if f.f_progress < 0 then Format.fprintf fmt "    %s\n" f.f_note
        else begin
          Format.fprintf fmt "    deepest attempt satisfied %d/%d subgoals%a\n"
            f.f_progress f.f_total pp_bindings f.f_bindings;
          match f.f_failing with
          | Some lit ->
            Format.fprintf fmt "    first failing subgoal: %s — %s\n" lit
              f.f_note
          | None -> Format.fprintf fmt "    %s\n" f.f_note
        end)
      fs

let algorithm_of batches seq =
  match List.find_opt (fun b -> b.Prov.seq = seq) batches with
  | Some b -> Some b.Prov.algorithm
  | None -> None

let batch_str batches seq =
  match algorithm_of batches seq with
  | Some a -> Printf.sprintf "batch %d (%s)" seq a
  | None -> Printf.sprintf "batch %d" seq

let pp_lineage fmt = function
  | Lineage_unknown_pred -> Format.pp_print_string fmt "unknown predicate\n"
  | Lineage r -> (
    Format.fprintf fmt "%s: %s\n"
      (fact_to_string r.l_pred r.l_tuple)
      (if r.l_present then Printf.sprintf "present (count %d)" r.l_count
       else "absent");
    match r.l_info with
    | None ->
      Format.pp_print_string fmt
        "  no lineage recorded (derived before provenance was enabled, or \
         capture is off)\n"
    | Some info ->
      (match info.Prov.first_derived with
      | Some b ->
        Format.fprintf fmt "  first derived: %s\n" (batch_str r.l_batches b)
      | None -> Format.pp_print_string fmt "  first derived: before capture\n");
      (match info.Prov.last_deleted with
      | Some b ->
        Format.fprintf fmt "  last deleted: %s\n" (batch_str r.l_batches b)
      | None -> Format.pp_print_string fmt "  last deleted: never\n");
      if info.Prov.events <> [] then begin
        Format.pp_print_string fmt "  events (newest first):\n";
        List.iter
          (fun (e : Prov.event) ->
            Format.fprintf fmt "    %s: %s\n" (batch_str r.l_batches e.batch)
              (match e.kind with `Derived -> "derived" | `Deleted -> "deleted"))
          info.Prov.events
      end)

(* ---------------- JSON ---------------- *)

let value_json = function
  | Value.Int n -> Json.int n
  | Value.Float f -> Json.Num f
  | Value.Str s -> Json.Str s
  | Value.Bool b -> Json.Bool b

let fact_json pred tup =
  Json.Obj
    [
      ("pred", Json.Str pred);
      ("args", Json.List (List.map value_json (Tuple.to_list tup)));
    ]

let rec tree_json t =
  let base k extra =
    Json.Obj
      ((("fact", fact_json t.t_pred t.t_tuple) :: ("kind", Json.Str k) :: extra))
  in
  match t.t_kind with
  | Base -> base "base" []
  | Cycle -> base "cycle" []
  | Depth_limit -> base "depth_limit" []
  | Unsupported -> base "unsupported" []
  | Derived { supports; derivations; elided; truncated } ->
    base "derived"
      [
        ("truncated", Json.Bool truncated);
        ("derivations", Json.int derivations);
        ("elided", Json.int elided);
        ("supports", Json.List (List.map deriv_json supports));
      ]

and deriv_json d =
  Json.Obj
    ([
       ("rule", Json.Str d.d_rule);
       ("mult", Json.int d.d_mult);
       ("subgoals", Json.List (List.map tree_json d.d_children));
     ]
    @ match d.d_note with Some n -> [ ("note", Json.Str n) ] | None -> [])

let why_json = function
  | Why_unknown_pred -> Json.Obj [ ("result", Json.Str "unknown_pred") ]
  | Why_absent -> Json.Obj [ ("result", Json.Str "absent") ]
  | Why_tree t ->
    Json.Obj [ ("result", Json.Str "tree"); ("tree", tree_json t) ]

let failure_json f =
  Json.Obj
    [
      ("rule", Json.Str f.f_rule);
      ("satisfied", Json.int f.f_progress);
      ("body_literals", Json.int f.f_total);
      ( "failing",
        match f.f_failing with Some l -> Json.Str l | None -> Json.Null );
      ( "bindings",
        Json.Obj (List.map (fun (x, v) -> (x, value_json v)) f.f_bindings) );
      ("note", Json.Str f.f_note);
    ]

let whynot_json = function
  | Whynot_unknown_pred -> Json.Obj [ ("result", Json.Str "unknown_pred") ]
  | Whynot_present c ->
    Json.Obj [ ("result", Json.Str "present"); ("count", Json.int c) ]
  | Whynot_base -> Json.Obj [ ("result", Json.Str "base_absent") ]
  | Whynot_no_rules -> Json.Obj [ ("result", Json.Str "no_rules") ]
  | Whynot_failures fs ->
    Json.Obj
      [
        ("result", Json.Str "failures");
        ("rules", Json.List (List.map failure_json fs));
      ]

let lineage_json = function
  | Lineage_unknown_pred -> Json.Obj [ ("result", Json.Str "unknown_pred") ]
  | Lineage r ->
    let opt_int = function Some n -> Json.int n | None -> Json.Null in
    Json.Obj
      [
        ("result", Json.Str "lineage");
        ("fact", fact_json r.l_pred r.l_tuple);
        ("present", Json.Bool r.l_present);
        ("count", Json.int r.l_count);
        ( "info",
          match r.l_info with
          | None -> Json.Null
          | Some info ->
            Json.Obj
              [
                ("first_derived", opt_int info.Prov.first_derived);
                ("last_deleted", opt_int info.Prov.last_deleted);
                ( "events",
                  Json.List
                    (List.map
                       (fun (e : Prov.event) ->
                         Json.Obj
                           [
                             ("batch", Json.int e.batch);
                             ( "kind",
                               Json.Str
                                 (match e.kind with
                                 | `Derived -> "derived"
                                 | `Deleted -> "deleted") );
                           ])
                       info.Prov.events) );
              ] );
        ( "batches",
          Json.List
            (List.map
               (fun (b : Prov.batch_info) ->
                 Json.Obj
                   [
                     ("seq", Json.int b.seq);
                     ("algorithm", Json.Str b.algorithm);
                   ])
               r.l_batches) );
      ]
