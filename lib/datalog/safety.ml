(** Safety (range restriction) checks, Section 6.1: "Negation is safe as
    long as the variables that occur in a negated subgoal also occur in some
    positive subgoal of the same rule."  We additionally check the usual
    Datalog conditions so every rule can be evaluated bottom-up:

    - arguments of body atoms (including grouped subgoals) are variables or
      constants — arithmetic belongs in heads and comparison literals;
    - every head variable is bound by a positive subgoal, an aggregate
      output, or an equality [V = expr] over bound variables;
    - every variable of a negated subgoal or comparison is likewise bound
      (the target of a binding equality excepted);
    - a GROUPBY literal's grouping variables occur in its source atom, its
      result variable does not, and the source's local variables leak
      nowhere else in the rule. *)

open Ast

exception Unsafe of string

let fail fmt = Format.kasprintf (fun s -> raise (Unsafe s)) fmt

let term_of_expr = function Eterm t -> Some t | _ -> None

let atom_terms (a : atom) ~ctx =
  List.map
    (fun e ->
      match term_of_expr e with
      | Some t -> t
      | None ->
        fail "%s: argument of %s must be a variable or constant" ctx a.pred)
    a.args

(** The binding fixpoint: the variables a bottom-up evaluation of [body]
    binds — those of positive atoms, aggregate outputs, and equalities
    [V = expr] over bound variables — in first-binding order (an atom's in
    argument order), and which literals bind.  An equality binds its lone
    unbound side. *)
let binding_fixpoint (body : literal list) =
  let order = ref [] and bound = ref Sset.empty in
  let bind v =
    if not (Sset.mem v !bound) then begin
      bound := Sset.add v !bound;
      order := v :: !order
    end
  in
  let is_bound e = Sset.subset (expr_vars e) !bound in
  let progress = ref true in
  let consumed = Array.make (List.length body) false in
  while !progress do
    progress := false;
    List.iteri
      (fun i lit ->
        if not consumed.(i) then
          match lit with
          | Lpos a ->
            List.iter (fun e -> Sset.iter bind (expr_vars e)) a.args;
            consumed.(i) <- true;
            progress := true
          | Lagg agg ->
            List.iter bind (agg.agg_group_by @ [ agg.agg_result ]);
            consumed.(i) <- true;
            progress := true
          | Lcmp (Eterm (Var v), Eq, e) when (not (Sset.mem v !bound)) && is_bound e ->
            bind v;
            consumed.(i) <- true;
            progress := true
          | Lcmp (e, Eq, Eterm (Var v)) when (not (Sset.mem v !bound)) && is_bound e ->
            bind v;
            consumed.(i) <- true;
            progress := true
          | Lneg _ | Lcmp _ -> ())
      body
  done;
  (List.rev !order, !bound, consumed)

(** Check [r] given its body's {!binding_fixpoint}. *)
let check_bound (r : rule) ~bound ~consumed =
  let ctx = Pretty.rule_to_string r in
  (* body atoms are term-only *)
  List.iter
    (fun lit ->
      match lit with
      | Lpos a | Lneg a -> ignore (atom_terms a ~ctx)
      | Lagg agg -> ignore (atom_terms agg.agg_source ~ctx)
      | Lcmp _ -> ())
    r.body;
  (* aggregate literal well-formedness *)
  List.iter
    (fun lit ->
      match lit with
      | Lagg agg ->
        let src_vars = atom_vars agg.agg_source in
        List.iter
          (fun v ->
            if not (Sset.mem v src_vars) then
              fail "%s: grouping variable %s does not occur in the grouped atom"
                ctx v)
          agg.agg_group_by;
        if Sset.mem agg.agg_result src_vars then
          fail "%s: aggregate result %s also occurs in the grouped atom" ctx
            agg.agg_result;
        if List.mem agg.agg_result agg.agg_group_by then
          fail "%s: aggregate result %s is also a grouping variable" ctx
            agg.agg_result;
        if not (Sset.subset (expr_vars agg.agg_arg) src_vars) then
          fail "%s: aggregated expression uses variables outside the grouped atom"
            ctx;
        (* locals must not escape *)
        let locals = Sset.remove agg.agg_result (aggregate_local_vars agg) in
        let elsewhere =
          List.fold_left
            (fun acc l -> if l == lit then acc else Sset.union acc (literal_vars l))
            (atom_vars r.head) r.body
        in
        let escaped = Sset.inter locals elsewhere in
        if not (Sset.is_empty escaped) then
          fail "%s: variable %s is local to the aggregation but used elsewhere"
            ctx (Sset.choose escaped)
      | Lpos _ | Lneg _ | Lcmp _ -> ())
    r.body;
  let require what vs =
    let missing = Sset.diff vs bound in
    if not (Sset.is_empty missing) then
      fail "%s: %s variable %s is not bound by any positive subgoal" ctx what
        (Sset.choose missing)
  in
  require "head" (atom_vars r.head);
  List.iteri
    (fun i lit ->
      match lit with
      | Lneg a -> require "negated" (atom_vars a)
      | Lcmp (a, _, b) when not consumed.(i) ->
        require "comparison" (Sset.union (expr_vars a) (expr_vars b))
      | Lpos _ | Lagg _ | Lcmp _ -> ())
    r.body

let check_rule (r : rule) =
  let _, bound, consumed = binding_fixpoint r.body in
  check_bound r ~bound ~consumed

let check_query (body : literal list) =
  let columns, bound, consumed = binding_fixpoint body in
  let head = { pred = "$query$"; args = List.map (fun v -> Eterm (Var v)) columns } in
  let rule = { head; body } in
  check_bound rule ~bound ~consumed;
  (columns, rule)

let check_program rules = List.iter check_rule rules
