(** Compilation of AST rules into a slot-based form: every variable of a
    rule gets an integer slot, so bindings are arrays rather than string
    maps on the hot path.  GROUPBY subgoals split into

    - an {e aggregate spec} describing how the grouped relation [T] is
      computed from its source relation [U] (with its own local slot space,
      since variables of the source that are not grouping variables are
      local to the aggregation, Section 6.2), and
    - a rule-level pseudo-atom [T(G1, …, Gk, Res)] joined like any other
      subgoal. *)

open Ivm_datalog.Ast
module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple

type slot = int

type cterm = Cvar of slot | Cconst of Value.t

type cexpr =
  | Xterm of cterm
  | Xadd of cexpr * cexpr
  | Xsub of cexpr * cexpr
  | Xmul of cexpr * cexpr
  | Xdiv of cexpr * cexpr
  | Xneg of cexpr

type catom = { cpred : string; cargs : cterm array }

(** How to compute the grouped relation of one GROUPBY literal.  Slots here
    are local to the spec (the source atom's variables), independent of the
    enclosing rule's slots.  The grouped relation has columns
    [group values @ [aggregate value]]. *)
type agg_spec = {
  gsource : catom;  (** pattern matched against tuples of [U] *)
  gnslots : int;
  ggroup : slot array;  (** local slots of the grouping variables, in order *)
  garg : cexpr;  (** aggregated expression, over local slots *)
  gfn : agg_fn;
  gsignature : string;
      (** canonical key: equal specs compute equal grouped relations *)
}

type clit =
  | Catom of catom
  | Cneg of catom
  | Cagg of agg_spec * cterm array
      (** rule-level view of the grouped relation: args are the grouping
          variables then the result variable, as rule slots *)
  | Ccmp of cexpr * cmp_op * cexpr

type t = {
  source : rule;
  name : string;
  head_pred : string;
  nslots : int;
  slot_names : string array;
  chead : cexpr array;
  clits : clit array;
}

(* -------------------------------------------------------------------- *)

let term_of_expr_exn ctx = function
  | Eterm t -> t
  | _ -> invalid_arg (ctx ^ ": body atom arguments must be terms")

module Smap = Map.Make (String)

type slots = { mutable map : slot Smap.t; mutable next : slot }

let fresh_slots () = { map = Smap.empty; next = 0 }

let slot_of slots v =
  match Smap.find_opt v slots.map with
  | Some s -> s
  | None ->
    let s = slots.next in
    slots.next <- s + 1;
    slots.map <- Smap.add v s slots.map;
    s

let compile_term slots = function
  | Var v -> Cvar (slot_of slots v)
  | Const c -> Cconst c

let rec compile_expr slots = function
  | Eterm t -> Xterm (compile_term slots t)
  | Eadd (a, b) -> Xadd (compile_expr slots a, compile_expr slots b)
  | Esub (a, b) -> Xsub (compile_expr slots a, compile_expr slots b)
  | Emul (a, b) -> Xmul (compile_expr slots a, compile_expr slots b)
  | Ediv (a, b) -> Xdiv (compile_expr slots a, compile_expr slots b)
  | Eneg a -> Xneg (compile_expr slots a)

let compile_atom slots (a : atom) =
  {
    cpred = a.pred;
    cargs =
      Array.of_list
        (List.map (fun e -> compile_term slots (term_of_expr_exn a.pred e)) a.args);
  }

(* A canonical signature for an aggregate spec: local slots make it
   independent of the enclosing rule's variable names, so two GROUPBY
   literals over the same source pattern share cached grouped relations. *)
let spec_signature ~source ~group ~arg ~fn =
  let buf = Buffer.create 64 in
  let term = function
    | Cvar s -> Buffer.add_string buf (Printf.sprintf "$%d" s)
    | Cconst c -> Buffer.add_string buf (Value.to_string c)
  in
  let rec expr = function
    | Xterm t -> term t
    | Xadd (a, b) -> Buffer.add_string buf "(+ "; expr a; Buffer.add_char buf ' '; expr b; Buffer.add_char buf ')'
    | Xsub (a, b) -> Buffer.add_string buf "(- "; expr a; Buffer.add_char buf ' '; expr b; Buffer.add_char buf ')'
    | Xmul (a, b) -> Buffer.add_string buf "(* "; expr a; Buffer.add_char buf ' '; expr b; Buffer.add_char buf ')'
    | Xdiv (a, b) -> Buffer.add_string buf "(/ "; expr a; Buffer.add_char buf ' '; expr b; Buffer.add_char buf ')'
    | Xneg a -> Buffer.add_string buf "(~ "; expr a; Buffer.add_char buf ')'
  in
  Buffer.add_string buf (source.cpred ^ "(");
  Array.iter (fun t -> term t; Buffer.add_char buf ',') source.cargs;
  Buffer.add_string buf ")[";
  Array.iter (fun s -> Buffer.add_string buf (Printf.sprintf "$%d," s)) group;
  Buffer.add_string buf ("]" ^ agg_fn_name fn ^ "(");
  expr arg;
  Buffer.add_char buf ')';
  Buffer.contents buf

(** Compile a GROUPBY literal's spec in its own local slot space. *)
let compile_agg_spec (agg : aggregate) : agg_spec =
  let slots = fresh_slots () in
  let gsource = compile_atom slots agg.agg_source in
  let ggroup = Array.of_list (List.map (fun v -> slot_of slots v) agg.agg_group_by) in
  let garg = compile_expr slots agg.agg_arg in
  {
    gsource;
    gnslots = slots.next;
    ggroup;
    garg;
    gfn = agg.agg_fn;
    gsignature = spec_signature ~source:gsource ~group:ggroup ~arg:garg ~fn:agg.agg_fn;
  }

(** Arity of the grouped relation a spec denotes. *)
let spec_arity spec = Array.length spec.ggroup + 1

let compile ?name (r : rule) : t =
  let slots = fresh_slots () in
  (* Body first so that slot order roughly follows binding order. *)
  let clits =
    Array.of_list @@ List.map
      (fun lit ->
        match lit with
        | Lpos a -> Catom (compile_atom slots a)
        | Lneg a -> Cneg (compile_atom slots a)
        | Lagg agg ->
          let spec = compile_agg_spec agg in
          let args =
            Array.of_list
              (List.map
                 (fun v -> Cvar (slot_of slots v))
                 (agg.agg_group_by @ [ agg.agg_result ]))
          in
          Cagg (spec, args)
        | Lcmp (a, op, b) -> Ccmp (compile_expr slots a, op, compile_expr slots b))
      r.body
  in
  let chead = Array.of_list (List.map (compile_expr slots) r.head.args) in
  let slot_names = Array.make slots.next "_" in
  Smap.iter (fun v s -> slot_names.(s) <- v) slots.map;
  {
    source = r;
    name =
      (match name with Some n -> n | None -> Ivm_datalog.Pretty.rule_to_string r);
    head_pred = r.head.pred;
    nslots = slots.next;
    slot_names;
    chead;
    clits;
  }

(** Indices of body literals that denote a relation that can change
    (positive atoms, negated atoms, aggregates) — the candidate delta
    positions of Definition 4.1.  Comparisons never change. *)
let delta_positions t =
  let acc = ref [] in
  Array.iteri
    (fun i lit ->
      match lit with
      | Catom _ | Cneg _ | Cagg _ -> acc := i :: !acc
      | Ccmp _ -> ())
    t.clits;
  List.rev !acc

(** Predicate referenced by a body literal, if any. *)
let lit_pred = function
  | Catom a | Cneg a -> Some a.cpred
  | Cagg (spec, _) -> Some spec.gsource.cpred
  | Ccmp _ -> None
