(** The join engine: evaluates one compiled rule body against caller-chosen
    relation views and emits head tuples with derivation counts.

    The caller decides, per body literal, what relation stands behind it —
    this is the whole trick of the paper's rewrites.  A delta rule
    [Δ(p) :- s1ν & … & Δ(si) & … & sn] (Definition 4.1) is evaluated by
    passing the new view for literals before [i], the delta relation for
    literal [i] (the {e seed}), and the old view after; initial
    materialization passes the stored relations everywhere with no seed.

    Counts multiply across subgoals (Section 3); a per-subgoal count
    transform implements the set-semantics clamp of Section 5.1 ("we assume
    that each tuple of stratum [i] or less has a count of one").

    Join order: the seed literal first (deltas are the most restrictive
    input, as Section 6.1 notes), then remaining enumerable literals
    greedily by number of bound argument positions (ties to the smaller
    relation); membership filters (negated subgoals and [Filter_present]
    subgoals), comparisons and equality binders run as soon as their
    variables are bound.  A membership filter is never a join driver,
    however small its view: it is one hash lookup per binding, where
    enumerating it would bind its variables from the wrong side.

    Probes are {e compiled}: which argument positions are bound when a
    literal executes is fully determined at plan-build time (boundness only
    grows along the plan), so each join step carries its probe columns, a
    resolved access path ({!Relation_view.prepare_probe}) and a reusable
    key buffer.  The per-binding work is filling the buffer and one hash
    lookup — no column lists, no [Tuple.of_list], no index search. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation_view = Ivm_relation.Relation_view
open Compile

type count_xform = int -> int

let identity_count c = c

(** The set-semantics clamp: a true tuple counts once. *)
let set_count c = if c > 0 then 1 else 0

type subgoal_input =
  | Enumerate of Relation_view.t * count_xform
      (** join against this relation (positive atoms, grouped relations,
          or a precomputed [Δ(¬Q)] for a negated delta position) *)
  | Filter_absent of Relation_view.t
      (** negated subgoal in a non-delta position: succeeds, with count 1,
          when the bound tuple does {e not} hold in the view *)
  | Filter_present of Relation_view.t
      (** membership-only positive subgoal: succeeds, with count 1, when
          the bound tuple holds in the view; placed once its variables are
          bound, never enumerated *)

exception Plan_error of string

(* ------------------------------------------------------------------ *)
(* Bindings and expression evaluation                                   *)
(* ------------------------------------------------------------------ *)

(* A binding is a plain value array; [unbound], a box no tuple or
   constant shares, marks a slot nothing has bound yet. *)
let unbound = Value.Str (String.make 1 '\000')

let binding nslots = Array.make nslots unbound

let is_bound (binding : Value.t array) s = binding.(s) != unbound

let term_value (binding : Value.t array) = function
  | Cconst c -> c
  | Cvar s ->
    let v = binding.(s) in
    if v == unbound then raise (Plan_error "unbound variable in expression") else v

let rec expr_value binding = function
  | Xterm t -> term_value binding t
  | Xadd (a, b) -> Value.add (expr_value binding a) (expr_value binding b)
  | Xsub (a, b) -> Value.sub (expr_value binding a) (expr_value binding b)
  | Xmul (a, b) -> Value.mul (expr_value binding a) (expr_value binding b)
  | Xdiv (a, b) -> Value.div (expr_value binding a) (expr_value binding b)
  | Xneg a -> Value.neg (expr_value binding a)

let cmp_holds op a b =
  let c = Value.compare a b in
  match op with
  | Ivm_datalog.Ast.Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

(* ------------------------------------------------------------------ *)
(* Compiled matching of atom argument vectors against tuples            *)
(* ------------------------------------------------------------------ *)

(* One column of a compiled match.  Which slots are bound when a pattern
   is matched is known when it is compiled (boundness only grows along a
   plan), so each column is a constant check, a check against a slot
   bound earlier, or the binding of its slot — the first occurrence of a
   variable unbound so far. *)
type mop = Mconst of int * Value.t | Mslot of int * slot | Mbind of int * slot

let compile_match ~(bound : slot -> bool) (args : cterm array) : mop array =
  let seen = ref [] in
  (* [Array.mapi] applies in index order, so [seen] is the prefix's *)
  Array.mapi
    (fun i -> function
      | Cconst v -> Mconst (i, v)
      | Cvar s when bound s || List.mem s !seen -> Mslot (i, s)
      | Cvar s ->
        seen := s :: !seen;
        Mbind (i, s))
    args

(* Top level, so a match allocates nothing.  A failed match may leave
   some of its slots bound: nothing reads them before the next match of
   the same pattern rebinds them. *)
let rec match_from (binding : Value.t array) (ops : mop array) (vals : Value.t array) i =
  i >= Array.length ops
  || (match ops.(i) with
     | Mconst (p, v) -> Value.equal v vals.(p)
     | Mslot (p, s) -> Value.equal binding.(s) vals.(p)
     | Mbind (p, s) ->
       binding.(s) <- vals.(p);
       true)
     && match_from binding ops vals (i + 1)

let matches binding ops (tup : Tuple.t) = match_from binding ops tup.vals 0

(* ------------------------------------------------------------------ *)
(* Plans                                                                *)
(* ------------------------------------------------------------------ *)

(** Where a probe-key column's value comes from at execution time. *)
type filler = Fconst of Value.t | Fslot of slot

(* One join step, probe-compiled: [j_fill.(p)] fills [j_buf.(p)] for the
   bound column [p] of the key; [j_probe] is the access path resolved at
   plan-build time; [j_match] checks and binds each probed tuple.  The
   key tuple handed to the probe wraps [j_buf] transiently — probes
   never retain the key (they hand back stored tuples), so the buffer is
   refilled for the next binding without reallocating. *)
type cjoin = {
  j_match : mop array;
  j_probe : Relation_view.prepared;
  j_fill : filler array;
  j_buf : Value.t array;
  j_xform : count_xform;
}

(* A compiled membership filter — [Filter_absent] when [n_present] is
   false, [Filter_present] when true: every column is bound when it runs,
   so the fill spec covers the whole tuple. *)
type cneg = {
  n_present : bool;
  n_view : Relation_view.t;
  n_fill : filler array;
  n_buf : Value.t array;
}

type step =
  | Sjoin of cjoin
  | Sneg of cneg
  | Scmp of cexpr * Ivm_datalog.Ast.cmp_op * cexpr
  | Sbind of slot * cexpr

let lit_args = function
  | Catom a | Cneg a -> a.cargs
  | Cagg (_, args) -> args
  | Ccmp _ -> [||]

let cterm_slots args =
  Array.to_list args |> List.filter_map (function Cvar s -> Some s | Cconst _ -> None)

let rec cexpr_slots = function
  | Xterm (Cvar s) -> [ s ]
  | Xterm (Cconst _) -> []
  | Xadd (a, b) | Xsub (a, b) | Xmul (a, b) | Xdiv (a, b) ->
    cexpr_slots a @ cexpr_slots b
  | Xneg a -> cexpr_slots a

let buf_dummy = Value.bool false

(* Boundness at placement time is boundness at execution time (it only
   grows along the plan), so the probe columns — constants plus already
   bound variables, in position order — are known here, and the access
   path can be resolved now. *)
let compile_join bound (args : cterm array) view xform =
  let fills = ref [] in
  for i = Array.length args - 1 downto 0 do
    match args.(i) with
    | Cconst v -> fills := (i, Fconst v) :: !fills
    | Cvar s -> if bound.(s) then fills := (i, Fslot s) :: !fills
  done;
  let cols = Array.of_list (List.map fst !fills) in
  let fill = Array.of_list (List.map snd !fills) in
  {
    j_match = compile_match ~bound:(fun s -> bound.(s)) args;
    j_probe = Relation_view.prepare_probe view cols;
    j_fill = fill;
    j_buf = Array.make (Array.length fill) buf_dummy;
    j_xform = xform;
  }

let compile_neg ~present (args : cterm array) view =
  let fill = Array.map (function Cconst v -> Fconst v | Cvar s -> Fslot s) args in
  {
    n_present = present;
    n_view = view;
    n_fill = fill;
    n_buf = Array.make (Array.length fill) buf_dummy;
  }

let build_plan ?seed ~(inputs : int -> subgoal_input) (cr : Compile.t) : step list =
  let n = Array.length cr.clits in
  let placed = Array.make n false in
  let bound = Array.make cr.nslots false in
  let steps = ref [] in
  let push s = steps := s :: !steps in
  let bind_args args =
    List.iter (fun s -> bound.(s) <- true) (cterm_slots args)
  in
  let all_bound slots = List.for_all (fun s -> bound.(s)) slots in
  let place_join i =
    placed.(i) <- true;
    let args = lit_args cr.clits.(i) in
    (match inputs i with
    | Enumerate (view, xform) -> push (Sjoin (compile_join bound args view xform))
    | Filter_absent _ ->
      raise (Plan_error "cannot enumerate a negated subgoal without a delta")
    | Filter_present _ ->
      raise (Plan_error "cannot enumerate a membership-only subgoal"));
    bind_args args
  in
  (* Place every filter / binder whose prerequisites are met. *)
  let rec settle () =
    let progress = ref false in
    Array.iteri
      (fun i lit ->
        if not placed.(i) then
          match lit with
          | Ccmp (Xterm (Cvar s), Eq, e) when (not bound.(s)) && all_bound (cexpr_slots e) ->
            placed.(i) <- true;
            push (Sbind (s, e));
            bound.(s) <- true;
            progress := true
          | Ccmp (e, Eq, Xterm (Cvar s)) when (not bound.(s)) && all_bound (cexpr_slots e) ->
            placed.(i) <- true;
            push (Sbind (s, e));
            bound.(s) <- true;
            progress := true
          | Ccmp (a, op, b)
            when all_bound (cexpr_slots a) && all_bound (cexpr_slots b) ->
            placed.(i) <- true;
            push (Scmp (a, op, b));
            progress := true
          | Catom a | Cneg a -> (
            match inputs i with
            | (Filter_absent view | Filter_present view) as input
              when all_bound (cterm_slots a.cargs) ->
              let present = match input with Filter_present _ -> true | _ -> false in
              placed.(i) <- true;
              push (Sneg (compile_neg ~present a.cargs view));
              progress := true
            | _ -> ())
          | _ -> ())
      cr.clits;
    if !progress then settle ()
  in
  (match seed with
  | Some i -> place_join i
  | None -> ());
  settle ();
  let enumerable i =
    (not placed.(i))
    &&
    match cr.clits.(i) with
    | Catom _ | Cagg _ | Cneg _ -> (
      match inputs i with Enumerate _ -> true | Filter_absent _ | Filter_present _ -> false)
    | Ccmp _ -> false
  in
  let boundness i =
    let args = lit_args cr.clits.(i) in
    Array.fold_left
      (fun acc t ->
        match t with
        | Cconst _ -> acc + 1
        | Cvar s -> if bound.(s) then acc + 1 else acc)
      0 args
  in
  let size i =
    match inputs i with
    | Enumerate (view, _) -> Relation_view.cardinal_estimate view
    | Filter_absent _ | Filter_present _ -> max_int
  in
  let rec joins () =
    let best = ref None in
    for i = 0 to n - 1 do
      if enumerable i then
        let score = (boundness i, size i) in
        match !best with
        | Some (_, (b, sz)) when (b, -sz) >= (fst score, -snd score) -> ()
        | _ -> best := Some (i, score)
    done;
    match !best with
    | Some (i, _) ->
      place_join i;
      settle ();
      joins ()
    | None -> ()
  in
  joins ();
  (* Everything must be placed now; otherwise the rule was unsafe. *)
  Array.iteri
    (fun i p ->
      if not p then
        raise
          (Plan_error
             (Printf.sprintf "literal %d of rule %s could not be planned" i
                (Ivm_datalog.Pretty.rule_to_string cr.source))))
    placed;
  List.rev !steps

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

let fill_buf (binding : Value.t array) (fill : filler array) (buf : Value.t array) =
  for p = 0 to Array.length fill - 1 do
    buf.(p) <- (match fill.(p) with Fconst v -> v | Fslot s -> binding.(s))
  done

(* Each position's input is asked for once per evaluation: the planner
   consults it repeatedly (filter placement, ranking, placement), and a
   caller's [inputs] may build a fresh view on every call. *)
let memo_inputs n (inputs : int -> subgoal_input) =
  let memo = Array.make n None in
  fun i ->
    match memo.(i) with
    | Some x -> x
    | None ->
      let x = inputs i in
      memo.(i) <- Some x;
      x

let eval_body ?seed ~(inputs : int -> subgoal_input) ~emit (cr : Compile.t) : unit =
  let inputs = memo_inputs (Array.length cr.clits) inputs in
  (* Short-circuit: an empty enumerable or membership-only input means no
     derivations. *)
  let empty_input = ref false in
  Array.iteri
    (fun i lit ->
      match lit with
      | Ccmp _ -> ()
      | Catom _ | Cagg _ | Cneg _ -> (
        match inputs i with
        | Enumerate (view, _) | Filter_present view ->
          if Relation_view.cardinal_estimate view = 0 then empty_input := true
        | Filter_absent _ -> ()))
    cr.clits;
  if not !empty_input then begin
    let plan = Array.of_list (build_plan ?seed ~inputs cr) in
    let binding = binding cr.nslots in
    let nsteps = Array.length plan in
    let head () =
      let vals = Array.make (Array.length cr.chead) unbound in
      for i = 0 to Array.length vals - 1 do
        vals.(i) <- expr_value binding cr.chead.(i)
      done;
      Tuple.make vals
    in
    (* [counts.(k)] is the derivation count entering step [k], and
       [probes.(k)] step [k]'s probe with its per-tuple continuation, both
       built once per evaluation: a probe allocates no closure. *)
    let counts = Array.make (nsteps + 1) 0 in
    let probes = Array.make nsteps (fun (_ : Tuple.t) -> ()) in
    let rec run k cnt =
      if cnt <> 0 then
        if k = nsteps then begin
          let head = head () in
          Ivm_obs.Metrics.inc Stats.derivations_c;
          emit head cnt
        end
        else
          match plan.(k) with
          | Sjoin j ->
            fill_buf binding j.j_fill j.j_buf;
            counts.(k) <- cnt;
            Ivm_obs.Metrics.inc Stats.probes_c;
            (* Transient key over the reusable buffer: probes look the key
               up but only ever hand back stored tuples, so the buffer can
               be refilled for the next binding. *)
            probes.(k) (Tuple.make j.j_buf)
          | Sneg ng ->
            fill_buf binding ng.n_fill ng.n_buf;
            Ivm_obs.Metrics.inc Stats.probes_c;
            if Relation_view.holds ng.n_view (Tuple.make ng.n_buf) = ng.n_present then
              run (k + 1) cnt
          | Scmp (a, op, b) ->
            if cmp_holds op (expr_value binding a) (expr_value binding b) then
              run (k + 1) cnt
          | Sbind (s, e) ->
            binding.(s) <- expr_value binding e;
            run (k + 1) cnt
    in
    Array.iteri
      (fun k step ->
        match step with
        | Sjoin j ->
          probes.(k) <-
            Relation_view.prober j.j_probe (fun tup c ->
                Ivm_obs.Metrics.inc Stats.tuples_scanned_c;
                let c = j.j_xform c in
                if c <> 0 && matches binding j.j_match tup then run (k + 1) (counts.(k) * c))
        | Sneg _ | Scmp _ | Sbind _ -> ())
      plan;
    run 0 1
  end

(** Evaluate the body of [cr], calling [emit head_tuple count] once per
    derivation (the caller accumulates with [⊎]).  [seed], when given, is
    the body-literal index enumerated first — the delta position.  Literals
    whose input relation is empty short-circuit the whole evaluation.

    Only the [ivm_rule_applications_total] counter is bumped here.  Per-rule
    attribution and the [rule] trace span are taken once per task by the
    round engine ({!Par_eval}), the one place maintenance rules run, so
    ad-hoc queries are never measured as maintenance. *)
let eval ?seed ~(inputs : int -> subgoal_input) ~emit (cr : Compile.t) : unit =
  Ivm_obs.Metrics.inc Stats.rule_applications_c;
  eval_body ?seed ~inputs ~emit cr
