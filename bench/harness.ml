(** Bench harness utilities: deterministic workload setup, wall-clock
    timing with warm-up, work counters, and aligned table printing so every
    experiment renders the rows EXPERIMENTS.md records. *)

module Value = Ivm_relation.Value
module Tuple = Ivm_relation.Tuple
module Relation = Ivm_relation.Relation
module Parser = Ivm_datalog.Parser
module Program = Ivm_datalog.Program
module Database = Ivm_eval.Database
module Seminaive = Ivm_eval.Seminaive
module Stats = Ivm_eval.Stats
module Changes = Ivm.Changes
module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Update_gen = Ivm_workload.Update_gen
module Programs = Ivm_workload.Programs

(* ------------------------------------------------------------------ *)
(* Workload setup                                                       *)
(* ------------------------------------------------------------------ *)

(** Build a database over [src] with [link] loaded from a random graph. *)
let graph_db ?(semantics = Database.Set_semantics) ~src ~seed ~nodes ~edges () =
  let rng = Prng.create seed in
  let program = Program.make (Parser.parse_rules src) in
  let db = Database.create ~semantics program in
  Database.load db "link" (Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges));
  Seminaive.evaluate db;
  (db, rng)

let costed_graph_db ?(semantics = Database.Set_semantics) ~src ~seed ~nodes
    ~edges ~max_cost () =
  let rng = Prng.create seed in
  let program = Program.make (Parser.parse_rules src) in
  let db = Database.create ~semantics program in
  Database.load db "link"
    (Graph_gen.costed_tuples rng ~max_cost (Graph_gen.random rng ~nodes ~edges));
  Seminaive.evaluate db;
  (db, rng)

let layered_db ?(semantics = Database.Set_semantics) ~src ~seed ~layers ~width
    ~out_degree () =
  let rng = Prng.create seed in
  let program = Program.make (Parser.parse_rules src) in
  let db = Database.create ~semantics program in
  Database.load db "link"
    (Graph_gen.tuples (Graph_gen.layered_dag rng ~layers ~width ~out_degree));
  Seminaive.evaluate db;
  (db, rng)

(** A cumulative batch stream: each batch is drawn against the state its
    predecessors left behind (tracked on a private copy), so a measured
    pass can apply the whole stream to a fresh copy of [db0] and every
    deletion stays valid. *)
let cumulative_batches db0 ~track ~n gen =
  let tracker = Database.copy db0 in
  List.init n (fun _ ->
      let c = gen tracker in
      track tracker c;
      c)

let track_counting db c = ignore (Ivm.Counting.maintain db c)
let track_dred db c = ignore (Ivm.Dred.maintain db c)

(** A copy of [db] re-materialized with one-step derivation counts in its
    recursive units, the stored state counted DRed maintains. *)
let counted_copy db =
  let db = Database.copy db in
  Seminaive.evaluate ~counts:true db;
  db

(** Warm a database's demand-built indexes by flipping a synthetic edge
    (insert then delete — net zero) through the given maintenance
    algorithm, so copies taken afterwards carry every index the timed
    maintenance will probe.  A live database would have them already. *)
let warm db algorithm =
  let program = Database.program db in
  let arity = Program.arity program "link" in
  let tup =
    Tuple.make
      (Array.init arity (fun i ->
           if i < 2 then Value.Int (-424242 - i) else Value.Int 1))
  in
  let ins = Changes.insertions program "link" [ tup ] in
  let del = Changes.deletions program "link" [ tup ] in
  let maintain c =
    match algorithm with
    | `Counting -> ignore (Ivm.Counting.maintain db c)
    | `Dred -> ignore (Ivm.Dred.maintain db c)
    | `Dred_counted -> ignore (Ivm.Dred.maintain ~mode:Ivm.Dred.Counted db c)
    | `Recursive_counting -> ignore (Ivm.Recursive_counting.maintain db c)
  in
  maintain ins;
  maintain del

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

(** [timed f] — wall-clock seconds and result of one run. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (Unix.gettimeofday () -. t0, x)

(** Median wall-clock seconds of [repeat] runs of [setup ∘ op]; setup time
    excluded.  Each run gets a fresh state from [setup]. *)
let median_time ?(repeat = 5) ~setup op =
  let samples =
    List.init repeat (fun _ ->
        let st = setup () in
        fst (timed (fun () -> op st)))
  in
  let sorted = List.sort compare samples in
  List.nth sorted (repeat / 2)

(** Median wall-clock seconds of each of [ops], timed interleaved: each
    of [repeat] rounds runs every op once, in order, on a fresh state
    from [setup] with the heap settled by a full major collection first,
    so a slow phase of the host or a collection owed by the previous run
    lands on no one op. *)
let interleaved_medians ?(repeat = 7) ~setup ops =
  let samples = Array.make (List.length ops) [] in
  for _ = 1 to repeat do
    List.iteri
      (fun i op ->
        let st = setup () in
        Gc.full_major ();
        samples.(i) <- fst (timed (fun () -> op st)) :: samples.(i))
      ops
  done;
  Array.to_list
    (Array.map (fun l -> List.nth (List.sort compare l) (repeat / 2)) samples)

(** Nearest-rank percentile of an ascending array: the [ceil(p·n)]-th
    smallest sample ([0.] on an empty array). *)
let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(** Paired off/on timing of an optional instrument.  [pass enabled] times
    one pass with the instrument off or on.  After one warm-up of each,
    15 pairs run back to back, even pairs off first and odd pairs on
    first, so neither side always pays for the other's warm caches and
    drift in machine speed lands on both alike.  Returns the median off
    and on pass times and the per-pair overhead in percent as
    [(median, q1, q3)]. *)
let off_on pass =
  ignore (pass false);
  ignore (pass true);
  let samples =
    List.init 15 (fun i ->
        if i mod 2 = 0 then
          let off = pass false in
          (off, pass true)
        else
          let on = pass true in
          (pass false, on))
  in
  let median l = percentile (sorted_of l) 0.5 in
  let pct =
    sorted_of (List.map (fun (off, on) -> (on -. off) /. off *. 100.) samples)
  in
  ( median (List.map fst samples),
    median (List.map snd samples),
    (percentile pct 0.5, percentile pct 0.25, percentile pct 0.75) )

(** Run [op] on a fresh state and report (seconds, derivations). *)
let time_and_work ~setup op =
  let st = setup () in
  Stats.reset ();
  let t, _ = timed (fun () -> op st) in
  (t, Stats.derivations ())

(* ------------------------------------------------------------------ *)
(* Table printing                                                       *)
(* ------------------------------------------------------------------ *)

(* Optional CSV sink: when set, every printed table is also written to
   <dir>/<experiment>.csv for plotting. *)
let csv_dir : string option ref = ref None
let current_experiment = ref "experiment"

let print_header title claim =
  (match String.index_opt title ':' with
  | Some i -> current_experiment := String.lowercase_ascii (String.sub title 0 i)
  | None -> current_experiment := "experiment");
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=');
  Printf.printf "paper claim: %s\n\n" claim

let print_table (headers : string list) (rows : string list list) =
  let all = headers :: rows in
  let ncols = List.length headers in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let print_row row =
    List.iteri
      (fun c cell ->
        Printf.printf "%s%s" (if c = 0 then "  " else "  | ")
          (Printf.sprintf "%-*s" (List.nth widths c) cell))
      row;
    print_newline ()
  in
  print_row headers;
  Printf.printf "  %s\n"
    (String.concat "-+-"
       (List.map (fun w -> String.make (w + (2)) '-') widths));
  List.iter print_row rows;
  match !csv_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir (!current_experiment ^ ".csv") in
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun row ->
            output_string oc (String.concat "," (List.map String.trim row));
            output_char oc '\n')
          (headers :: rows));
    Printf.printf "  [csv: %s]\n" path

let fmt_time s =
  if s < 1e-4 then Printf.sprintf "%.1f µs" (s *. 1e6)
  else if s < 0.1 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.3f s" s

let fmt_ratio r = Printf.sprintf "%.1fx" r

let fmt_pct p = Printf.sprintf "%+.1f%%" p

let fmt_int = string_of_int

let fmt_bytes n =
  if n < 1024 then Printf.sprintf "%d B" n
  else if n < 1024 * 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.)
  else Printf.sprintf "%.2f MiB" (float_of_int n /. (1024. *. 1024.))

(** Summary verdict line printed under each table. *)
let verdict ok msg =
  Printf.printf "\n  %s %s\n" (if ok then "[shape holds]" else "[SHAPE DIVERGES]") msg
