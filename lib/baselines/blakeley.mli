(** Blakeley–Larson–Tompa [BLT86] — per the paper's §2, "a special case of
    the counting algorithm applied to select-project-join expressions":
    a guard admitting only SPJ views over base relations (single rule, no
    negation/aggregation/UNION/view-over-view), delegating to
    {!Ivm.Counting}. *)

module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Changes = Ivm.Changes
module Counting = Ivm.Counting

exception Not_spj of string

(** @raise Not_spj when any view falls outside [BLT86]'s domain. *)
val check_spj : Program.t -> unit

(** @raise Not_spj outside the SPJ class; otherwise exactly
    {!Counting.maintain}. *)
val maintain : Database.t -> Changes.t -> Ivm.Delta.report
