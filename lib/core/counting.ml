(** The counting algorithm (Algorithm 4.1): the driver's [Derive] step
    ({!Delta.Derive}) on every view, in dependency order, behind the
    refusal of recursive programs.  For each rule [p :- s1 & … & sn] the
    [i]-th delta rule

    {v Δ(p) :- s1ν & … & s(i−1)ν & Δ(si) & s(i+1) & … & sn v}

    is evaluated only when [Δ(si)] is non-empty; the results are combined
    with [⊎] into [Δ(P)], and [Pν = P ⊎ Δ(P)] becomes visible to higher
    strata through an overlay. *)

module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database

exception Recursive_program of string

let algorithm =
  {
    Delta.batches =
      Ivm_obs.Metrics.counter ~labels:[ ("algorithm", "counting") ]
        "ivm_maintain_batches_total";
    span = "counting.maintain";
    step = (fun ~recursive:_ -> Delta.Derive);
  }

(** Apply [changes] (base-relation deltas) to [db], incrementally updating
    every materialized view.  @raise Recursive_program when the program
    has recursive views — use {!Dred} there (Section 7). *)
let maintain ?track (db : Database.t) (changes : Changes.t) : Delta.report =
  let program = Database.program db in
  Option.iter
    (fun p ->
      raise
        (Recursive_program
           (Printf.sprintf
              "predicate %s is recursive; the counting algorithm handles \
               nonrecursive views — use DRed for recursive views" p)))
    (List.find_opt (Program.recursive program) (Program.derived_preds program));
  Delta.maintain ?track algorithm db changes
