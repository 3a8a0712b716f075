(** DRed — Delete and Rederive (Section 7): incremental maintenance of
    (general) recursive views with stratified negation and aggregation,
    under set semantics.

    The program's derived predicates are partitioned into maintenance units
    — SCCs of mutually recursive predicates — processed in dependency
    order ("stratum by stratum").  For each unit, given the deletions
    [Del] and insertions [Add] accumulated from base changes and lower
    units:

    + {b Delete} an overestimate: semi-naive evaluation of the δ⁻-rules
      [δ⁻(p) :- s1 & … & δ⁻(si) & … & sn], where non-delta subgoals read
      the {e old} materialized relations.  A deletion reaches [δ⁻(si)]
      through a positive subgoal from [Del], through a negated subgoal from
      [Add] (a newly-true [q] falsifies [¬q]), and through a GROUPBY
      subgoal from the old tuples of changed groups (Algorithm 6.1).
    + {b Rederive}: [δ⁺(p) :- δ⁻(p) & s1ν & … & snν] — every overdeleted
      tuple that still has a derivation in the {e new} database is put
      back.  Within a recursive unit the fixpoint lets rederived tuples
      support further rederivations.
    + {b Insert}: semi-naive evaluation of the Δ⁺-rules over the new
      relations, seeded by [Add] of lower strata, by [Del] through negated
      subgoals, and by the new tuples of changed groups.

    By Theorem 7.1 the result contains a tuple iff it has a derivation in
    the updated database.  Stored counts are treated as set membership:
    deleting a tuple cancels its whole stored count, so DRed composes with
    materializations produced by either evaluation mode.

    Each phase is a {!Ivm_eval.Par_eval.fixpoint} over the unit's
    predicates, reading and writing the maintenance context Counting
    uses ({!Delta.ctx}); {!Delta.maintain} runs the phases as a unit's
    step and commits the batch.

    {b Counted DRed} ([~mode:Counted]) combines DRed with Counting on each
    SCC (a nonrecursive unit runs Counting's delta rules), after
    Hu, Motik & Horrocks (arXiv:1711.03987): every stored tuple holds its
    one-step derivation count (Section 5.1's clamp applied inside the
    unit, as {!Ivm_eval.Seminaive.evaluate} [~counts:true] stores it).
    The delete phase enumerates each lost derivation exactly once, in the
    round its first premise leaves (Definition 4.1's split across the
    rounds), and decrements its head.  Its overestimate is the unit's
    live delta itself: during the phase a tuple is overdeleted iff its
    live count is nonzero.  Rederivation evaluates no rule: it walks the
    live delta and puts back every overdeleted tuple whose count stayed
    positive — that count is its derivations over what survived the
    delete phase.  The insert phase, seeded by the put-backs and the
    insertions, counts each new derivation once, forward through the
    same frontier rounds.  Both commits look each emitted tuple's live
    entry up once.  A unit keeps [lag], its live delta one round behind,
    only when a rule has a unit atom after a literal other than a
    comparison ({!reads_lag}): right-linear and nonlinear closure do,
    left-linear closure does not. *)

module Relation = Ivm_relation.Relation
module Relation_view = Ivm_relation.Relation_view
module Ast = Ivm_datalog.Ast
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Compile = Ivm_eval.Compile
module Rule_eval = Ivm_eval.Rule_eval

let log_src = Logs.Src.create "ivm.dred" ~doc:"DRed maintenance"

module Log = (val Logs.src_log log_src)
module Metrics = Ivm_obs.Metrics
module Trace = Ivm_obs.Trace
module Stats = Ivm_eval.Stats
module Par_eval = Ivm_eval.Par_eval
module Pretty = Ivm_datalog.Pretty

(** The paper's DRed inefficiency metrics (Section 7 / bench E5–E6):
    tuples deleted by the step-1 overestimate, candidate support checks
    performed in step 2, and overdeleted tuples actually put back
    (deleted-then-rederived — pure wasted work relative to counting). *)
let overdeleted_c = Metrics.counter "ivm_dred_overdeleted_total"

let rederive_attempts_c = Metrics.counter "ivm_dred_rederive_attempts_total"
let rederived_c = Metrics.counter "ivm_dred_rederived_total"

(** Per maintenance unit per batch: size of the deletion overestimate. *)
let overestimate_h = Metrics.histogram "ivm_dred_overestimate_size"

let engine = Par_eval.engine "dred"

exception Duplicate_semantics_unsupported

(* DRed works in the shared maintenance context ({!Delta.ctx}) under set
   semantics.  A unit predicate's [full] delta is its live count delta,
   created when its unit starts and grown phase by phase: −stored for
   an overdeleted tuple, +stored back for a rederived one, +1 for an
   insertion while the tuple does not hold.  Its [propagated] delta, set
   when the unit ends, is the unit's (Add − Del) set transition — the ±1
   the next units and the aggregate indexes consume. *)

let live = Delta.full_delta
let stored ctx p = Database.relation ctx.Delta.db p

let holds_new ctx p tup =
  Relation.count (stored ctx p) tup + Relation.count (live ctx p) tup > 0

let rules ctx p =
  let db = ctx.Delta.db in
  List.map (Database.compile db) (Program.rules_for (Database.program db) p)

(** Round-0 seeds of a phase: every rule of the unit at each literal
    whose delta comes from outside the unit — the negative part
    (deletions) or the positive part (insertions) of the literal's
    delta, by [part]. *)
let phase_seeds ctx unit_preds ~inputs ~part =
  Par_eval.seeds ~rules:(rules ctx) ~inputs unit_preds ~delta:(function
    | Compile.Catom a when List.mem a.cpred unit_preds -> None
    | Compile.Ccmp _ -> None
    | lit -> Some (part (Delta.seed_relation ctx lit)))

(** Later rounds seed each occurrence of a unit predicate with its
    frontier. *)
let frontier_seeds ~rules ~inputs unit_preds frontier =
  Par_eval.seeds ~rules ~inputs unit_preds ~delta:(function
    | Compile.Catom a when List.mem a.cpred unit_preds -> frontier a.cpred
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Step 1: the deletion overestimate                                    *)
(* ------------------------------------------------------------------ *)

(** Step 1 for one unit: semi-naive δ⁻-rules, every non-seed subgoal
    reading the {e old} database.  Returns the overestimate δ⁻ per
    predicate, with the unit's live deltas already hiding it. *)
let delete_overestimate ctx unit_preds =
  let dminus = Hashtbl.create 4 in
  List.iter
    (fun p -> Hashtbl.replace dminus p (Relation.create (Relation.arity (live ctx p))))
    unit_preds;
  let inputs cr _ = Delta.inputs ctx cr (fun _ -> Delta.Old) in
  let commit p buf ~next =
    let stored = stored ctx p and dm = Hashtbl.find dminus p in
    Relation.iter
      (fun tup _ ->
        Metrics.inc Stats.probes_c;
        if Relation.mem stored tup && not (Relation.mem dm tup) then begin
          Relation.add dm tup 1;
          Relation.add next tup 1;
          Relation.add (live ctx p) tup (-Relation.count stored tup)
        end)
      buf
  in
  Par_eval.fixpoint engine ~preds:unit_preds ~commit
    ~step:(fun _ -> frontier_seeds ~rules:(rules ctx) ~inputs unit_preds)
    (phase_seeds ctx unit_preds ~inputs ~part:Relation.negative_part);
  dminus

(* ------------------------------------------------------------------ *)
(* Step 2: rederivation                                                 *)
(* ------------------------------------------------------------------ *)

let marker_pred p = "$dred_overestimate$" ^ p

(** The rederivation rule [δ⁺(p) :- δ⁻(p) & s1ν & … & snν] built as an AST
    rule whose first subgoal is a pseudo-predicate enumerating the
    still-deleted overestimate.  Head arguments that are expressions get a
    fresh variable in the marker atom and an equality filter, so
    rederivation also works for heads like [hop(S,D,C1+C2)]. *)
let rederive_rule (r : Ast.rule) : Ast.rule =
  let fresh = ref 0 in
  let marker_args, filters =
    List.fold_right
      (fun e (args, filters) ->
        match e with
        | Ast.Eterm (Ast.Var _) | Ast.Eterm (Ast.Const _) -> (e :: args, filters)
        | e ->
          incr fresh;
          let v = Printf.sprintf "$rederive%d" !fresh in
          ( Ast.Eterm (Ast.Var v) :: args,
            Ast.Lcmp (Ast.Eterm (Ast.Var v), Ast.Eq, e) :: filters ))
      r.head.args ([], [])
  in
  let marker = { Ast.pred = marker_pred r.head.pred; args = marker_args } in
  {
    Ast.head = { r.head with args = marker_args };
    body = (Ast.Lpos marker :: r.body) @ filters;
  }

(** Step 2 for one unit: puts rederivable tuples back (their hidden counts
    are restored in the live deltas), semi-naively.  Round 0 enumerates
    every overdeleted tuple and checks it for support in the new database;
    later rounds re-check only candidates joinable with the previous
    round's putbacks (a rederived tuple can support further rederivations
    within a recursive unit).  There the marker is a membership-only
    subgoal ({!Rule_eval.Filter_present}): the join runs from the
    putbacks through the rule's other subgoals and tests each head against
    the pending set, rather than enumerating pending candidates by the one
    column the putback binds.  Rederivation rules are compiled under their
    source rule's name, so attribution and trace spans name the
    program's rules.  Returns per-predicate putback counts. *)
let rederive ctx unit_preds (dminus : (string, Relation.t) Hashtbl.t) =
  let program = Database.program ctx.Delta.db in
  (* pend = δ⁻ tuples not yet put back *)
  let pend = Hashtbl.create 4 in
  let putbacks = Hashtbl.create 4 in
  List.iter
    (fun p ->
      Hashtbl.replace pend p (Relation.copy (Hashtbl.find dminus p));
      Hashtbl.replace putbacks p 0)
    unit_preds;
  let rederive_rules =
    List.map
      (fun p ->
        ( p,
          List.map
            (fun r ->
              Database.compile ctx.Delta.db ~name:(Pretty.rule_to_string r)
                (rederive_rule r))
            (Program.rules_for program p) ))
      unit_preds
  in
  let rules p =
    if Relation.is_empty (Hashtbl.find pend p) then [] else List.assoc p rederive_rules
  in
  (* position 0 is the marker: the head's still-pending candidates, a
     filter except in round 0, where it is the seed *)
  let inputs (cr : Compile.t) _ j =
    if j = 0 then
      Rule_eval.Filter_present (Relation_view.concrete (Hashtbl.find pend cr.head_pred))
    else Delta.inputs ctx cr (fun _ -> Delta.New) j
  in
  let commit p buf ~next =
    let pend_p = Hashtbl.find pend p in
    Relation.iter
      (fun tup _ ->
        Metrics.inc rederive_attempts_c;
        Metrics.inc Stats.probes_c;
        if Relation.mem pend_p tup && not (holds_new ctx p tup) then begin
          Relation.add (live ctx p) tup (Relation.count (stored ctx p) tup);
          Relation.remove pend_p tup;
          Relation.add next tup 1;
          Hashtbl.replace putbacks p (Hashtbl.find putbacks p + 1)
        end)
      buf
  in
  Par_eval.fixpoint engine ~preds:unit_preds ~commit
    ~step:(fun _ -> frontier_seeds ~rules ~inputs unit_preds)
    (List.concat_map
       (fun p ->
         List.map
           (fun rule ->
             let at = Some (0, Hashtbl.find pend p) in
             { Par_eval.head = p; rule; at; inputs = inputs rule 0 })
           (rules p))
       unit_preds);
  putbacks

(* ------------------------------------------------------------------ *)
(* Step 3: insertions                                                   *)
(* ------------------------------------------------------------------ *)

(** Step 3 for one unit: semi-naive Δ⁺-rules over the new relations. *)
let insert_new ctx unit_preds =
  let inputs cr _ = Delta.inputs ctx cr (fun _ -> Delta.New) in
  let commit p buf ~next =
    Relation.iter
      (fun tup _ ->
        if not (holds_new ctx p tup) then begin
          Relation.add (live ctx p) tup 1;
          Relation.add next tup 1
        end)
      buf
  in
  Par_eval.fixpoint engine ~preds:unit_preds ~commit
    ~step:(fun _ -> frontier_seeds ~rules:(rules ctx) ~inputs unit_preds)
    (phase_seeds ctx unit_preds ~inputs ~part:Relation.positive_part)

(* ------------------------------------------------------------------ *)
(* Counted DRed                                                         *)
(* ------------------------------------------------------------------ *)

(* Beside the live delta (membership, as above), counted DRed keeps per
   unit predicate its one-step count delta, which becomes the unit's
   full delta at the end.  Within a round, a delta rule seeded at
   position i reads the unit after this round's change before i and
   before it after i, so each derivation is enumerated once, at the last
   of its premises that changed this round.  "Before it" is [lag]: the
   live delta one round behind.  Only a unit atom after a seedable
   position reads it, and every position but a comparison is seedable,
   so a unit whose rules have no unit atom after a non-comparison
   literal (left-linear closure) keeps no [lag] at all. *)
type lag = {
  rels : (string, Relation.t) Hashtbl.t;
  mutable behind : string -> Relation.t option;
      (** the frontier [rels] has not caught up with *)
}

type counted = {
  counts : (string, Relation.t) Hashtbl.t;
  lag : lag option;  (** [None] when no rule of the unit reads it *)
}

(** Whether a rule of the unit reads [lag]: a unit atom after a
    non-comparison literal of its compiled body. *)
let reads_lag db unit_preds =
  let reads (cr : Compile.t) =
    let rec from seedable j =
      j < Array.length cr.clits
      &&
      match cr.clits.(j) with
      | Compile.Ccmp _ -> from seedable (j + 1)
      | Compile.Catom a when seedable && List.mem a.cpred unit_preds -> true
      | _ -> from true (j + 1)
    in
    from false 0
  in
  let program = Database.program db in
  List.exists
    (fun p -> List.exists (fun r -> reads (Database.compile db r)) (Program.rules_for program p))
    unit_preds

(** Bring [lag] up to the live delta on the tuples it is behind on. *)
let catch_up ctx u unit_preds =
  Option.iter
    (fun lag ->
      List.iter
        (fun p ->
          let rel = Hashtbl.find lag.rels p and live = live ctx p in
          Option.iter
            (Relation.iter (fun tup _ -> Relation.set_count rel tup (Relation.count live tup)))
            (lag.behind p))
        unit_preds;
      lag.behind <- (fun _ -> None))
    u.lag

(** A counted phase's inputs for a rule seeded at [i]: a unit position
    reads the live delta before [i] and [lag] after it, a position
    outside the unit [before] or [after]. *)
let counted_inputs ctx u unit_preds ~before ~after (cr : Compile.t) i j =
  match cr.clits.(j) with
  | Compile.Catom a when List.mem a.cpred unit_preds ->
    let view =
      if j < i then Delta.new_view ctx a.cpred
      else
        match u.lag with
        | Some lag -> Relation_view.overlay (stored ctx a.cpred) (Hashtbl.find lag.rels a.cpred)
        | None -> assert false (* [reads_lag] found no such position *)
    in
    Rule_eval.Enumerate (view, Rule_eval.set_count)
  | _ -> Delta.inputs ctx cr (fun j -> if j < i then before else after) j

(** One counted phase: round 0 from [init], then the unit's frontier
    rounds, [lag] catching up before each; outside the unit they read
    [later] on both sides, since all of that change lies in round 0. *)
let counted_fixpoint ctx u unit_preds ~commit ~later init =
  Par_eval.fixpoint engine ~preds:unit_preds ~commit
    ~step:(fun _ frontier ->
      catch_up ctx u unit_preds;
      Option.iter (fun lag -> lag.behind <- frontier) u.lag;
      frontier_seeds ~rules:(rules ctx)
        ~inputs:(counted_inputs ctx u unit_preds ~before:later ~after:later)
        unit_preds frontier)
    init;
  catch_up ctx u unit_preds

(** The three counted phases for one unit; returns the per-predicate
    overestimate and putback sizes.  The delete phase's overestimate is
    the live delta itself: there a tuple is overdeleted iff its live
    count is nonzero (−stored), and rederivation reads it from there. *)
let counted_phases ctx ~phase unit_preds =
  let per_pred () =
    let h = Hashtbl.create 4 in
    List.iter
      (fun p -> Hashtbl.replace h p (Relation.create (Relation.arity (live ctx p))))
      unit_preds;
    h
  in
  let u =
    {
      counts = per_pred ();
      lag =
        (if reads_lag ctx.Delta.db unit_preds then
           Some { rels = per_pred (); behind = (fun _ -> None) }
         else None);
    }
  in
  let putbacks = per_pred () in
  (* Delete: each lost derivation once — before the seed what survives
     this round, after it what held before it. *)
  phase "delete" (fun () ->
      (* the head of a lost derivation is stored: it held before *)
      let commit p buf ~next =
        let stored = stored ctx p and live = live ctx p in
        let counts = Hashtbl.find u.counts p in
        Metrics.add Stats.probes_c (Relation.cardinal buf);
        Relation.iter
          (fun tup c ->
            Relation.add counts tup (-c);
            let s = Relation.find live tup in
            if Relation.slot_count s = 0 then begin
              Relation.add next tup 1;
              Relation.bump live s tup (-Relation.count stored tup)
            end)
          buf
      in
      counted_fixpoint ctx u unit_preds ~commit ~later:Delta.Mid
        (phase_seeds ctx unit_preds
           ~inputs:(counted_inputs ctx u unit_preds ~before:Delta.Mid ~after:Delta.Old)
           ~part:Relation.negative_part));
  let overdeleted = List.map (fun p -> (p, Relation.cardinal (live ctx p))) unit_preds in
  (* Rederive: a filter — an overdeleted tuple whose count stayed
     positive has a derivation over what survived; its live entry
     (−stored) goes. *)
  phase "rederive" (fun () ->
      List.iter
        (fun p ->
          let counts = Hashtbl.find u.counts p in
          let live = live ctx p and putbacks = Hashtbl.find putbacks p in
          Metrics.add rederive_attempts_c (Relation.cardinal live);
          Relation.iter
            (fun tup c ->
              if Relation.count counts tup - c > 0 then begin
                Relation.remove live tup;
                Relation.add putbacks tup 1
              end)
            live)
        unit_preds);
  (* Insert: each new derivation once, seeded by the insertions and the
     put-backs ([lag] still hides the put-backs in round 0). *)
  phase "insert" (fun () ->
      Option.iter (fun lag -> lag.behind <- Hashtbl.find_opt putbacks) u.lag;
      let commit p buf ~next =
        let stored = stored ctx p and live = live ctx p and counts = Hashtbl.find u.counts p in
        Relation.iter
          (fun tup c ->
            Relation.add counts tup c;
            let s = Relation.find live tup in
            if Relation.count stored tup + Relation.slot_count s <= 0 then begin
              Relation.bump live s tup 1;
              Relation.add next tup 1
            end)
          buf
      in
      let inputs = counted_inputs ctx u unit_preds ~before:Delta.New ~after:Delta.Mid in
      counted_fixpoint ctx u unit_preds ~commit ~later:Delta.New
        (Par_eval.seeds ~rules:(rules ctx) ~inputs unit_preds ~delta:(function
          | Compile.Catom a when List.mem a.cpred unit_preds ->
            Some (Hashtbl.find putbacks a.cpred)
          | Compile.Ccmp _ -> None
          | lit -> Some (Relation.positive_part (Delta.seed_relation ctx lit)))));
  List.iter (fun p -> Delta.set_delta ctx p ~full:(Hashtbl.find u.counts p)) unit_preds;
  List.map
    (fun (p, d) -> (p, d, Relation.cardinal (Hashtbl.find putbacks p)))
    overdeleted

(* ------------------------------------------------------------------ *)

(** The three phases for one unit, the paper's or counted DRed's;
    returns the per-predicate overestimate and putback sizes. *)
let three_phases ~counted ctx unit_preds =
  let unit_name = String.concat "," unit_preds in
  (* a unit's predicates share a stratum *)
  let stratum =
    Program.stratum (Database.program ctx.Delta.db) (List.hd unit_preds)
  in
  (* each phase retags the ambient attribution context before its
     fan-outs *)
  let phase name f =
    Ivm_obs.Attribution.set_context ~stratum ~phase:name;
    Trace.span ("dred." ^ name) ~args:(fun () -> [ ("unit", unit_name) ]) f
  in
  Delta.open_unit ctx unit_preds;
  let sizes =
    if counted then counted_phases ctx ~phase unit_preds
    else begin
      let dminus = phase "delete" (fun () -> delete_overestimate ctx unit_preds) in
      let putbacks = phase "rederive" (fun () -> rederive ctx unit_preds dminus) in
      phase "insert" (fun () -> insert_new ctx unit_preds);
      List.iter (fun p -> Delta.set_delta ctx p ~full:(live ctx p)) unit_preds;
      List.map
        (fun p -> (p, Relation.cardinal (Hashtbl.find dminus p), Hashtbl.find putbacks p))
        unit_preds
    end
  in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 sizes in
  let unit_overdeleted = sum (fun (_, d, _) -> d)
  and unit_rederived = sum (fun (_, _, pb) -> pb) in
  Metrics.add overdeleted_c unit_overdeleted;
  Metrics.observe overestimate_h unit_overdeleted;
  Metrics.add rederived_c unit_rederived;
  Log.debug (fun m ->
      m "unit {%s}: overdeleted %d, rederived %d" unit_name unit_overdeleted
        unit_rederived);
  sizes

type mode = Paper | Counted

let batches_c label =
  Metrics.counter ~labels:[ ("algorithm", label) ] "ivm_maintain_batches_total"

(** The paper's phases on every unit. *)
let paper =
  {
    Delta.batches = batches_c "dred";
    span = "dred.maintain";
    step = (fun ~recursive:_ -> Delta.Phases (three_phases ~counted:false));
  }

(** Counted DRed's phases on an SCC, Counting's delta rules on a
    nonrecursive unit. *)
let counted =
  {
    Delta.batches = batches_c "dred-counted";
    span = "dred.maintain";
    step =
      (fun ~recursive ->
        if recursive then Delta.Phases (three_phases ~counted:true) else Delta.Derive);
  }

let algorithm = function Paper -> paper | Counted -> counted

(** Apply [changes] (base-relation deltas with ±1 counts) to [db],
    maintaining all views with DRed ([Paper]) or counted DRed.  Set
    semantics only (Section 7).
    @raise Duplicate_semantics_unsupported under duplicate semantics;
    @raise Changes.Invalid_changes on malformed change sets. *)
let maintain ?(mode = Paper) ?track (db : Database.t) (changes : Changes.t) :
    Delta.report =
  if Database.semantics db = Database.Duplicate_semantics then
    raise Duplicate_semantics_unsupported;
  Delta.maintain ?track (algorithm mode) db changes
