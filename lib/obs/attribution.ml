(* Per-rule cost attribution for maintenance batches — see the interface
   for the lifecycle, the wall-time semantics and the cost. *)

(* ---------------- enable switch ---------------- *)

let enabled_flag = Instr.switch "IVM_ATTRIBUTION"
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ---------------- ambient context ---------------- *)

(* Set by the algorithm layer before each round, read by [add] on the
   same, coordinating domain: both run between fan-outs, never during
   one, so a plain ref suffices. *)
let context : (int * string) ref = ref (0, "")

(** [set_context ~stratum ~phase] tags subsequent {!add} calls.  Call
    from the coordinating domain only, never during a fan-out. *)
let set_context ~stratum ~phase = context := (stratum, phase)

let get_context () = !context

(* ---------------- labeled metrics ---------------- *)

(* Cumulative per-rule families.  Counters are refreshed at batch_end
   from the finalized rows; the eval-time histogram is fed one real
   sample per rule task from [add].  Both run on the coordinating
   domain, so the handle cache needs no lock.  Label cardinality is
   bounded by the program's rule count plus max_rows. *)
type handles = {
  h_wall : Metrics.counter;
  h_din : Metrics.counter;
  h_dout : Metrics.counter;
  h_probes : Metrics.counter;
  h_idx : Metrics.counter;
  h_hist : Metrics.histogram;
}

let handle_cache : (string, handles) Hashtbl.t = Hashtbl.create 64

let handles_for rule =
  match Hashtbl.find_opt handle_cache rule with
  | Some h -> h
  | None ->
    let labels = [ ("rule", rule) ] in
    let h =
      {
        h_wall =
          Metrics.counter ~labels "ivm_rule_wall_ns_total"
            ~help:"Wall time spent evaluating this rule, nanoseconds";
        h_din =
          Metrics.counter ~labels "ivm_rule_delta_in_total"
            ~help:"Delta tuples seeding this rule's evaluations";
        h_dout =
          Metrics.counter ~labels "ivm_rule_delta_out_total"
            ~help:"Delta tuples derived by this rule";
        h_probes =
          Metrics.counter ~labels "ivm_rule_probes_total"
            ~help:"Index probes performed by this rule";
        h_idx =
          Metrics.counter ~labels "ivm_rule_index_builds_total"
            ~help:"Overlay/base indexes built on demand during this rule";
        h_hist =
          Metrics.histogram ~labels "ivm_rule_eval_ns"
            ~help:"Per-evaluation wall time of this rule, nanoseconds";
      }
    in
    Hashtbl.replace handle_cache rule h;
    h

(* ---------------- per-batch table ---------------- *)

type row = {
  rule : string;
  stratum : int;
  phase : string;  (** e.g. ["delta"], ["delete"], ["rederive"], ["insert"] *)
  mutable evals : int;  (** rule tasks folded into this row *)
  mutable wall_ns : int;
  mutable din : int;  (** Δ-tuples seeding the evaluations *)
  mutable dout : int;  (** derivations emitted *)
  mutable probes : int;
  mutable scanned : int;
  mutable derivations : int;
  mutable index_builds : int;
}

type batch = {
  algorithm : string;
  seq : int;  (** batch number since process start (1-based) *)
  total_wall_ns : int;  (** elapsed wall clock of the whole batch *)
  busy_wall_ns : int;  (** Σ row wall; may exceed total under parallelism *)
  truncated : int;  (** tasks folded into no row (table full) *)
  rows : row list;  (** wall-time descending *)
}

(* The table is bounded: a pathological program can't grow it without
   limit.  Overflow tasks are counted, not silently dropped. *)
let max_rows = 512

type collecting = {
  c_algorithm : string;
  c_seq : int;
  c_rows : (string * int * string, row) Hashtbl.t;
  mutable c_truncated : int;
}

let batch_seq = ref 0
let current : collecting option ref = ref None
let history : batch Instr.Ring.t = Instr.Ring.create 8

let batch_begin ~algorithm =
  if !enabled_flag then begin
    incr batch_seq;
    current :=
      Some
        {
          c_algorithm = algorithm;
          c_seq = !batch_seq;
          c_rows = Hashtbl.create 64;
          c_truncated = 0;
        }
  end

(** Fold one rule task's sample into the current batch (no-op when
    disabled or outside a batch).  Called by the round engine on the
    coordinating domain, in task order, beside the buffer commits — so
    no lock. *)
let add ~rule ~wall_ns ~din ~dout ~probes ~scanned ~derivations ~index_builds =
  match !current with
  | Some c when !enabled_flag -> (
    (* one real sample per task — the histogram's latency shape is
       genuine, not a batch-end reconstruction from row means *)
    Metrics.observe (handles_for rule).h_hist wall_ns;
    let stratum, phase = !context in
    let key = (rule, stratum, phase) in
    match Hashtbl.find_opt c.c_rows key with
    | Some r ->
      r.evals <- r.evals + 1;
      r.wall_ns <- r.wall_ns + wall_ns;
      r.din <- r.din + din;
      r.dout <- r.dout + dout;
      r.probes <- r.probes + probes;
      r.scanned <- r.scanned + scanned;
      r.derivations <- r.derivations + derivations;
      r.index_builds <- r.index_builds + index_builds
    | None ->
      if Hashtbl.length c.c_rows >= max_rows then
        c.c_truncated <- c.c_truncated + 1
      else
        Hashtbl.replace c.c_rows key
          { rule; stratum; phase; evals = 1; wall_ns; din; dout; probes;
            scanned; derivations; index_builds })
  | _ -> ()

(* Refresh the cumulative per-rule counters from the finalized rows —
   O(rows), not O(tasks); the histogram was already fed per task in
   [add]. *)
let publish_metrics (rows : row list) =
  List.iter
    (fun r ->
      let h = handles_for r.rule in
      Metrics.add h.h_wall r.wall_ns;
      Metrics.add h.h_din r.din;
      Metrics.add h.h_dout r.dout;
      Metrics.add h.h_probes r.probes;
      Metrics.add h.h_idx r.index_builds)
    rows

(* ---------------- slow-batch log ---------------- *)

let slow_threshold_ms = Instr.threshold "IVM_SLOW_BATCH_MS"

(** Override the [IVM_SLOW_BATCH_MS] threshold ([None] disables). *)
let set_slow_threshold_ms t = slow_threshold_ms := t

let row_json (r : row) : Json.t =
  Json.Obj
    [
      ("rule", Json.Str r.rule);
      ("stratum", Json.int r.stratum);
      ("phase", Json.Str r.phase);
      ("evals", Json.int r.evals);
      ("wall_ns", Json.int r.wall_ns);
      ("delta_in", Json.int r.din);
      ("delta_out", Json.int r.dout);
      ("probes", Json.int r.probes);
      ("scanned", Json.int r.scanned);
      ("derivations", Json.int r.derivations);
      ("index_builds", Json.int r.index_builds);
    ]

let batch_json (b : batch) : Json.t =
  Json.Obj
    [
      ("algorithm", Json.Str b.algorithm);
      ("seq", Json.int b.seq);
      ("total_wall_ns", Json.int b.total_wall_ns);
      ("busy_wall_ns", Json.int b.busy_wall_ns);
      ("truncated", Json.int b.truncated);
      ("rules", Json.List (List.map row_json b.rows));
    ]

let log_slow (b : batch) =
  Instr.slow_log slow_threshold_ms ~event:"slow_batch" ~total_ns:b.total_wall_ns
    (fun timing ->
      [ ("algorithm", Json.Str b.algorithm); ("seq", Json.int b.seq) ]
      @ timing
      @ [
          ("busy_ms", Json.Num (float_of_int b.busy_wall_ns /. 1e6));
          ("top_rules", Json.List (List.map row_json (List.filteri (fun i _ -> i < 3) b.rows)));
        ])

(* ---------------- finalization & access ---------------- *)

(** Close the current batch: sort rows by wall time, store it in the
    bounded history, refresh the labeled metric families, and emit the
    slow-batch log line if over threshold.  Returns the finalized batch
    ([None] when attribution is off or no batch was open). *)
let batch_end ~total_wall_ns : batch option =
  match !current with
  | Some c when !enabled_flag ->
    current := None;
    let rows = Hashtbl.fold (fun _ r acc -> r :: acc) c.c_rows [] in
    let rows =
      List.sort
        (fun a b ->
          match compare b.wall_ns a.wall_ns with
          | 0 -> compare (a.rule, a.stratum, a.phase) (b.rule, b.stratum, b.phase)
          | n -> n)
        rows
    in
    let b =
      {
        algorithm = c.c_algorithm;
        seq = c.c_seq;
        total_wall_ns;
        busy_wall_ns = List.fold_left (fun acc r -> acc + r.wall_ns) 0 rows;
        truncated = c.c_truncated;
        rows;
      }
    in
    Instr.Ring.push history b;
    publish_metrics b.rows;
    log_slow b;
    Some b
  | _ -> None

(** Most recently finished batch, if any. *)
let last () : batch option = Instr.Ring.newest history

(** Finished batches, newest first (bounded history). *)
let recent () : batch list = Instr.Ring.newest_first history

(* ---------------- rendering ---------------- *)

let ns_pp ppf ns =
  if ns >= 1_000_000_000 then
    Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then
    Format.fprintf ppf "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else Format.fprintf ppf "%dns" ns

(** The [explain last] cost table: batch header, then one line per row,
    slowest first ([top] bounds the rows printed; defaults to all). *)
let pp_batch ?top ppf (b : batch) =
  Format.fprintf ppf "batch #%d  algorithm=%s  total=%a  busy=%a  rules=%d%s@."
    b.seq b.algorithm ns_pp b.total_wall_ns ns_pp b.busy_wall_ns
    (List.length b.rows)
    (if b.truncated > 0 then
       Printf.sprintf "  (truncated: %d evals beyond %d-row table)"
         b.truncated max_rows
     else "");
  let rows =
    match top with
    | None -> b.rows
    | Some k -> List.filteri (fun i _ -> i < k) b.rows
  in
  Format.fprintf ppf
    "  %-10s %7s %5s %-9s %6s %7s %7s %9s %8s %6s@." "wall" "evals"
    "strat" "phase" "din" "dout" "probes" "scanned" "derived" "idx";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "  %-10s %7d %5d %-9s %6d %7d %7d %9d %8d %6d  %s@."
        (Format.asprintf "%a" ns_pp r.wall_ns)
        r.evals r.stratum
        (if r.phase = "" then "-" else r.phase)
        r.din r.dout r.probes r.scanned r.derivations r.index_builds r.rule)
    rows;
  if top <> None && List.length b.rows > List.length rows then
    Format.fprintf ppf "  … %d more rules@." (List.length b.rows - List.length rows)
