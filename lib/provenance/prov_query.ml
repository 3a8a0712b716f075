(** [why], [why not] and [lineage] queries — see the interface. *)

module Tuple = Ivm_relation.Tuple
module Value = Ivm_relation.Value
module Ast = Ivm_datalog.Ast
module Pretty = Ivm_datalog.Pretty
module Json = Ivm_obs.Json
module Compile = Ivm_eval.Compile
module Rule_eval = Ivm_eval.Rule_eval
module Agg = Ivm_eval.Agg

type db_access = {
  rules_for : string -> Ast.rule list;
  is_base : string -> bool;
  known_pred : string -> bool;
  holds : string -> Tuple.t -> bool;
  count : string -> Tuple.t -> int;
  probe : string -> (int * Value.t) list -> (Tuple.t -> int -> unit) -> unit;
  mult_for : string -> int -> int;
}

let fact_to_string pred tup =
  pred ^ "("
  ^ String.concat ", " (List.map Value.to_string (Tuple.to_list tup))
  ^ ")"

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* ------------------------------------------------------------------ *)
(* Partial bindings                                                     *)
(* ------------------------------------------------------------------ *)

(* The search runs the evaluator's own primitives on {!Compile}d rules
   over a partial {!Rule_eval.binding}: a value is known once every slot
   it reads is bound. *)

let term_opt b = function
  | Compile.Cconst v -> Some v
  | Compile.Cvar s -> if Rule_eval.is_bound b s then Some b.(s) else None

(* [None] while a slot is unbound, or on a type error. *)
let value_opt b e =
  match Rule_eval.expr_value b e with
  | v -> Some v
  | exception (Rule_eval.Plan_error _ | Value.Type_error _) -> None

(* The bound columns of an atom, as a probe key. *)
let bound_columns b args =
  let cols = ref [] in
  for j = Array.length args - 1 downto 0 do
    match term_opt b args.(j) with Some v -> cols := (j, v) :: !cols | None -> ()
  done;
  !cols

let ground b args =
  if Array.for_all (fun t -> term_opt b t <> None) args then
    Some (Tuple.make (Array.map (fun t -> Option.get (term_opt b t)) args))
  else None

(* The slots a compiled match binds, prepended in column order to
   [order] (newest first). *)
let newly_bound ops order =
  Array.fold_left
    (fun acc -> function Rule_eval.Mbind (_, s) -> s :: acc | _ -> acc)
    order ops

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

(* Algorithm 6.1's value for the group [key] of a GROUPBY subgoal: the
   group's source tuples, weighted as the evaluator reads them, folded
   into an {!Agg} accumulator. *)
let group_value access (spec : Compile.agg_spec) key : (Value.t, string) result =
  let src = spec.gsource.cpred in
  if not (access.known_pred src) then Error ("unknown predicate " ^ src)
  else begin
    let b = Rule_eval.binding spec.gnslots in
    Array.iteri (fun k g -> b.(g) <- Tuple.get key k) spec.ggroup;
    let ops = Rule_eval.compile_match ~bound:(Rule_eval.is_bound b) spec.gsource.cargs in
    let st = Agg.create spec.gfn in
    match
      access.probe src (bound_columns b spec.gsource.cargs) (fun tup c ->
          let w = access.mult_for src c in
          if w > 0 && Rule_eval.matches b ops tup then
            Agg.update st (Rule_eval.expr_value b spec.garg) w)
    with
    | () ->
      Option.to_result ~none:"the group is empty (no source tuples match)"
        (Agg.value st)
    | exception Value.Type_error msg -> Error msg
  end

let search_budget = 20_000

(* One tuple's search budget, shared by its candidate rules. *)
type budget = { mutable left : int; mutable ran_out : bool }

let new_budget () = { left = search_budget; ran_out = false }

(* Bindings by variable name, oldest first. *)
let named (cr : Compile.t) b order =
  List.rev_map (fun s -> (cr.slot_names.(s), b.(s))) order

let mk_fail (cr : Compile.t) ~progress ~failing ~bindings note =
  {
    f_rule = cr.name;
    f_progress = progress;
    f_total = Array.length cr.clits;
    f_failing = failing;
    f_bindings = bindings;
    f_note = note;
  }

type outcome = {
  head_bindings : (string * Value.t) list;  (** bound by the head alone *)
  matched : bool;  (** at least one instantiation was found *)
  deepest : failure option Lazy.t;
      (** the deepest failure met, built only if asked for *)
}

(* Unify the head of [cr] with [tuple]: bind its variables and check its
   constants (one compiled match), and defer computed arguments until the
   body binds their variables.  [Ok (binding, order, deferred)], or the
   reason the head cannot match. *)
let unify_head (cr : Compile.t) tuple =
  if Array.length cr.chead <> Tuple.arity tuple then Error "head arity mismatch"
  else begin
    let terms = ref [] and deferred = ref [] in
    Array.iteri
      (fun i e ->
        let v = Tuple.get tuple i in
        match e with
        | Compile.Xterm t -> terms := (t, v) :: !terms
        | e -> deferred := (e, v) :: !deferred)
      cr.chead;
    let pattern = Array.of_list (List.rev_map fst !terms) in
    let vals = Tuple.of_list (List.rev_map snd !terms) in
    let b = Rule_eval.binding cr.nslots in
    let ops = Rule_eval.compile_match ~bound:(fun _ -> false) pattern in
    if Rule_eval.matches b ops vals then Ok (b, newly_bound ops [], !deferred)
    else
      (* the match stopped at its first failing column *)
      let v p = Value.to_string (Tuple.get vals p) in
      Error
        ("head cannot match: "
        ^ Option.get
            (Array.find_map
               (function
                 | Rule_eval.Mconst (p, c) when not (Value.equal c (Tuple.get vals p)) ->
                   Some
                     (Printf.sprintf "head constant %s does not match %s"
                        (Value.to_string c) (v p))
                 | Rule_eval.Mslot (p, s) when not (Value.equal b.(s) (Tuple.get vals p)) ->
                   Some
                     (Printf.sprintf "head variable %s would need to be both %s and %s"
                        cr.slot_names.(s) (Value.to_string b.(s)) (v p))
                 | _ -> None)
               ops))
  end

(* The backtracking search of [why] and [why not] over one compiled rule
   with its head bound to [tuple]: unify the head, then instantiate body
   literals most-bound-first against the live relations.  [on_match b
   mult] is called for every instantiation whose head evaluates to
   [tuple], with [mult] the product of its positive subgoals' counts as
   the evaluator reads them; the search stops when it returns [false] or
   [budget] runs out.  A binding, once handed to [step], is never
   mutated: extending it copies it. *)
let search budget access tuple (cr : Compile.t) ~on_match : outcome =
  match unify_head cr tuple with
  | Error note ->
    {
      head_bindings = [];
      matched = false;
      deepest =
        lazy (Some (mk_fail cr ~progress:(-1) ~failing:None ~bindings:[] note));
    }
  | Ok (b0, order0, deferred) ->
    let lits = cr.clits in
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
    let record_fail b order progress failing note =
      if progress > !best_progress then begin
        best_progress := progress;
        best := Some (progress, failing, b, order, note)
      end
    in
    let check_deferred b =
      let rec go = function
        | [] -> Ok ()
        | (e, v) :: rest -> (
          match value_opt b e with
          | Some v' ->
            if Value.equal v' v then go rest
            else
              Error
                (Printf.sprintf "head expression evaluates to %s, not %s"
                   (Value.to_string v') (Value.to_string v))
          | None -> Error "head expression not determined by the body")
      in
      go deferred
    in
    (* Pick the next literal: ready comparisons first, then binding
       comparisons, ground negations, the most-bound positive atom, ready
       aggregates; [`Stuck] when something is left but nothing can make
       progress. *)
    let pick b =
      let ready_cmp = ref None and binder = ref None in
      let ready_neg = ref None and best_pos = ref None in
      let ready_agg = ref None in
      let bind_if i e v =
        match e with
        | Compile.Xterm (Compile.Cvar s) -> if !binder = None then binder := Some (i, s, v)
        | _ -> ()
      in
      Array.iteri
        (fun i lit ->
          if not used.(i) then
            match lit with
            | Compile.Ccmp (l, op, r) -> (
              match (value_opt b l, value_opt b r) with
              | Some x, Some y -> if !ready_cmp = None then ready_cmp := Some (i, op, x, y)
              | None, Some v -> if op = Ast.Eq then bind_if i l v
              | Some v, None -> if op = Ast.Eq then bind_if i r v
              | None, None -> ())
            | Compile.Cneg a -> (
              match ground b a.cargs with
              | Some tup -> if !ready_neg = None then ready_neg := Some (i, a.cpred, tup)
              | None -> ())
            | Compile.Cagg (spec, args) ->
              (* args: the grouping variables, then the result *)
              let groups = Array.sub args 0 (Array.length args - 1) in
              if !ready_agg = None then
                Option.iter
                  (fun key -> ready_agg := Some (i, spec, args, key))
                  (ground b groups)
            | Compile.Catom a ->
              let nb = List.length (bound_columns b a.cargs) in
              let better =
                match !best_pos with Some (_, _, nb') -> nb > nb' | None -> true
              in
              if better then best_pos := Some (i, a, nb))
        lits;
      match (!ready_cmp, !binder, !ready_neg, !best_pos, !ready_agg) with
      | Some c, _, _, _, _ -> Some (`Cmp c)
      | None, Some bd, _, _, _ -> Some (`Bind bd)
      | None, None, Some ng, _, _ -> Some (`Neg ng)
      | None, None, None, Some (i, a, _), _ -> Some (`Pos (i, a))
      | None, None, None, None, Some ag -> Some (`Agg ag)
      | None, None, None, None, None ->
        let stuck = ref None in
        Array.iteri
          (fun i _ -> if (not used.(i)) && !stuck = None then stuck := Some i)
          lits;
        Option.map (fun i -> `Stuck i) !stuck
    in
    let rec step b order progress mult =
      if live () then begin
        budget.left <- budget.left - 1;
        match pick b with
        | None -> (
          match check_deferred b with
          | Ok () ->
            matched := true;
            if not (on_match b mult) then stop := true
          | Error msg -> record_fail b order progress None (fun () -> msg))
        | Some (`Cmp (i, op, x, y)) ->
          used.(i) <- true;
          if Rule_eval.cmp_holds op x y then step b order (progress + 1) mult
          else
            record_fail b order progress (Some i) (fun () ->
                Printf.sprintf "comparison is false (%s vs %s)" (Value.to_string x)
                  (Value.to_string y));
          used.(i) <- false
        | Some (`Bind (i, s, v)) ->
          used.(i) <- true;
          let b' = Array.copy b in
          b'.(s) <- v;
          step b' (s :: order) (progress + 1) mult;
          used.(i) <- false
        | Some (`Neg (i, pred, tup)) ->
          used.(i) <- true;
          if access.holds pred tup then
            record_fail b order progress (Some i) (fun () ->
                "negated subgoal holds: " ^ fact_to_string pred tup)
          else step b order (progress + 1) mult;
          used.(i) <- false
        | Some (`Pos (i, (a : Compile.catom))) ->
          used.(i) <- true;
          let key = bound_columns b a.cargs in
          let ops = Rule_eval.compile_match ~bound:(Rule_eval.is_bound b) a.cargs in
          let order' = newly_bound ops order in
          let found = ref false in
          if access.known_pred a.cpred then
            access.probe a.cpred key (fun tup c ->
                if live () then begin
                  let b' = Array.copy b in
                  if Rule_eval.matches b' ops tup then begin
                    found := true;
                    step b' order' (progress + 1) (mult * access.mult_for a.cpred c)
                  end
                end);
          if (not !found) && not !stop then
            record_fail b order progress (Some i) (fun () ->
                if key = [] then Printf.sprintf "no %s facts at all" a.cpred
                else Printf.sprintf "no matching %s fact under these bindings" a.cpred);
          used.(i) <- false
        | Some (`Agg (i, spec, args, key)) ->
          used.(i) <- true;
          (* join the group's tuple of the grouped relation, as the
             evaluator does: only the result column can fail to match *)
          (match group_value access spec key with
          | Ok v ->
            let ops = Rule_eval.compile_match ~bound:(Rule_eval.is_bound b) args in
            let b' = Array.copy b in
            if Rule_eval.matches b' ops (Tuple.append key v) then
              step b' (newly_bound ops order) (progress + 1) mult
            else
              record_fail b order progress (Some i) (fun () ->
                  Printf.sprintf "aggregate evaluates to %s, not %s" (Value.to_string v)
                    (Value.to_string (Option.get (term_opt b args.(Array.length args - 1)))))
          | Error msg -> record_fail b order progress (Some i) (fun () -> msg));
          used.(i) <- false
        | Some (`Stuck i) ->
          record_fail b order progress (Some i) (fun () ->
              "subgoal cannot be instantiated (unbound variables)")
      end
    in
    step b0 order0 0 1;
    let deepest =
      lazy
        (Option.map
           (fun (progress, failing, b, order, note) ->
             mk_fail cr ~progress
               ~failing:
                 (Option.map
                    (fun i -> Pretty.literal_to_string (List.nth cr.source.body i))
                    failing)
               ~bindings:(named cr b order) (note ()))
           !best)
    in
    { head_bindings = named cr b0 order0; matched = !matched; deepest }

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
      let cr = Compile.compile r in
      let note =
        if Array.exists (function Compile.Cagg _ -> true | _ -> false) cr.clits then
          Some "aggregate subgoal not expanded"
        else None
      in
      let atoms =
        List.filter_map
          (function Compile.Catom a -> Some a | _ -> None)
          (Array.to_list cr.clits)
      in
      ignore
        (search budget access tuple cr ~on_match:(fun b mult ->
             let subgoals =
               List.map
                 (fun (a : Compile.catom) -> (a.cpred, Option.get (ground b a.cargs)))
                 atoms
             in
             found := { rule_index; rule = cr.name; note; subgoals; mult } :: !found;
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
  let cr = Compile.compile r in
  let o = search budget access tuple cr ~on_match:(fun _ _ -> false) in
  let fail ~progress note =
    mk_fail cr ~progress ~failing:None ~bindings:o.head_bindings note
  in
  if o.matched then
    fail ~progress:(Array.length cr.clits)
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
