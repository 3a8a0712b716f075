(** The Blakeley–Larson–Tompa algorithm [BLT86], which the paper identifies
    as "a special case of the counting algorithm applied to
    select-project-join expressions (no negation, aggregation, or
    recursion)" (Section 2).

    We implement it as exactly that: a guard that admits only SPJ view
    definitions — each view defined by a single rule whose body is a
    conjunction of positive atoms over {e base} relations plus selection
    comparisons — delegating the actual maintenance to
    {!Ivm.Counting}.  Views over views, UNION (multiple rules), negation
    and GROUPBY are rejected, which is the historical comparison the paper
    draws: the counting algorithm strictly generalizes [BLT86]. *)

module Ast = Ivm_datalog.Ast
module Pretty = Ivm_datalog.Pretty
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Changes = Ivm.Changes
module Counting = Ivm.Counting

exception Not_spj of string

let fail fmt = Format.kasprintf (fun s -> raise (Not_spj s)) fmt

(** Check that every view of [program] is a select-project-join over base
    relations.  @raise Not_spj otherwise. *)
let check_spj (program : Program.t) : unit =
  List.iter
    (fun p ->
      match Program.rules_for program p with
      | [ rule ] ->
        List.iter
          (fun lit ->
            match lit with
            | Ast.Lpos a ->
              if Program.is_derived program a.pred then
                fail "view %s joins view %s: [BLT86] handles only views over \
                      base relations" p a.pred
            | Ast.Lcmp _ -> ()
            | Ast.Lneg _ ->
              fail "view %s uses negation, beyond select-project-join" p
            | Ast.Lagg _ ->
              fail "view %s uses aggregation, beyond select-project-join" p)
          rule.body
      | rules ->
        fail "view %s has %d rules (UNION): [BLT86] handles a single \
              select-project-join expression" p (List.length rules))
    (Program.derived_preds program)

(** Maintain an SPJ view database; behaviour and counts are identical to
    the counting algorithm on this restricted class.
    @raise Not_spj when the program falls outside [BLT86]'s domain. *)
let maintain (db : Database.t) (changes : Changes.t) : Ivm.Delta.report =
  check_spj (Database.program db);
  Counting.maintain db changes
