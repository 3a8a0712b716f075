(** Randomized differential suite: all four maintenance algorithms —
    Counting (Algorithm 4.1), DRed (Section 7), the PF baseline [HD92]
    and full recomputation — driven over generated stratified programs
    (joins, union, negation, comparisons, GROUPBY) and seeded
    insert/delete streams, asserting identical final view states on
    their shared domain:

    - nonrecursive, set semantics: Counting ≡ DRed ≡ PF ≡ Recompute as
      sets;
    - nonrecursive, duplicate semantics: Counting ≡ Recompute with
      counts (DRed and PF are set-semantics algorithms);
    - recursive (transitive closure, both linearizations, nonlinear
      closure, and an odd/even unit under a negated stratum, over random
      and strongly connected graphs): counted DRed ≡ DRed ≡ PF ≡
      Recompute as sets (Counting is nonrecursive-only), and counted
      DRed's stored counts equal a fresh one-step-counted evaluation
      after every batch, on nonrecursive programs too;
    - [Auto] ≡ the algorithm it resolves to, explicitly, count for
      count, with every case taking both branches of Auto's cost rule
      (a one-change batch stays incremental, a half-swap re-evaluates):
      random programs under set semantics (counted DRed on the recursive
      ones), Counting under duplicate semantics, and negation and GROUPBY
      views over a closure (counted DRed);
    - [why] agrees with the stored counts: under every resolution but
      explicit DRed, the [mult]s of the derivations [why] finds for a
      present view tuple sum to its stored count, GROUPBY views included.

    Plus the determinism properties for the multicore path: for every
    algorithm, the exact same scenario replayed at [~domains:4] produces
    a canonical derived-state dump byte-identical to [~domains:1] —
    tuple-for-tuple and count-for-count (the ⊎-merge runs in fixed task
    order, so the domain count must be unobservable). *)

open Util
module Changes = Ivm.Changes
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Rc = Ivm.Recursive_counting
module Pf = Ivm_baselines.Pf
module Recompute = Ivm.Recompute
module Vm = Ivm.View_manager
module Prng = Ivm_workload.Prng
module Graph_gen = Ivm_workload.Graph_gen
module Update_gen = Ivm_workload.Update_gen
module Programs = Ivm_workload.Programs
module Pq = Ivm_prov.Prov_query

let q ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Program generator: random stratified views over a [link] base        *)
(* ------------------------------------------------------------------ *)

(** A random program shape: which optional strata are present.  Always
    includes the [hop] join; negation forces the [tri] stratum it
    negates against. *)
type shape = {
  seed : int;  (** seeds the graph and the update stream *)
  union_hop : bool;  (** a second [hop] rule — union with multiplicities *)
  tri : bool;  (** a deeper join stratum over [hop] *)
  negation : bool;  (** [only_tri(X,Y) :- tri(X,Y), not hop(X,Y)] *)
  cmp : bool;  (** a comparison filter stratum *)
  agg : int;  (** 0 = none, else one GROUPBY view (count/min/max/sum) *)
}

let source_of s =
  let b = Buffer.create 256 in
  Buffer.add_string b "hop(X, Y) :- link(X, Z), link(Z, Y).\n";
  if s.union_hop then Buffer.add_string b "hop(X, Y) :- link(X, Y).\n";
  if s.tri || s.negation then
    Buffer.add_string b "tri(X, Y) :- hop(X, Z), link(Z, Y).\n";
  if s.negation then
    Buffer.add_string b "only_tri(X, Y) :- tri(X, Y), not hop(X, Y).\n";
  if s.cmp then Buffer.add_string b "up_hop(X, Y) :- hop(X, Y), X < Y.\n";
  (match s.agg with
  | 1 ->
    Buffer.add_string b
      "out_deg(X, N) :- groupby(link(X, Y), [X], N = count()).\n"
  | 2 ->
    Buffer.add_string b
      "min_succ(X, M) :- groupby(hop(X, Y), [X], M = min(Y)).\n"
  | 3 ->
    Buffer.add_string b
      "max_succ(X, M) :- groupby(link(X, Y), [X], M = max(Y)).\n"
  | 4 ->
    Buffer.add_string b
      "succ_sum(X, S) :- groupby(hop(X, Y), [X], S = sum(Y)).\n"
  | _ -> ());
  Buffer.contents b

let shape_gen =
  QCheck.Gen.(
    map
      (fun (seed, (u, t, n, c, a)) ->
        { seed; union_hop = u; tri = t; negation = n; cmp = c; agg = a })
      (pair (int_range 1 1_000_000)
         (tup5 bool bool bool bool (int_range 0 4))))

let arb_shape =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "seed=%d\n%s" s.seed (source_of s))
    shape_gen

(** Nonlinear closure: one body reads the unit predicate twice, so a
    delta rule seeded there reads the new view before the seed and the
    old view after it. *)
let nonlinear_closure =
  {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- path(X, Z), path(Z, Y).
|}

(** Paths of odd and even length: a two-predicate unit whose second
    predicate has an empty frontier in round 0, with a negated stratum
    above it. *)
let odd_even =
  {|
    odd(X, Y) :- link(X, Y).
    odd(X, Y) :- even(X, Z), link(Z, Y).
    even(X, Y) :- odd(X, Z), link(Z, Y).
    only_odd(X, Y) :- odd(X, Y), not even(X, Y).
|}

(** A closure, a negation over [hop] and a GROUPBY count over the
    closure, all over [link]: nonrecursive units above and beside an SCC,
    where [Auto] runs Counting's delta rules on the former and counted
    DRed on the latter. *)
let mixed_strata =
  Programs.transitive_closure
  ^ {|
    hop(X, Y) :- link(X, Z), link(Z, Y).
    far(X, Y) :- path(X, Y), not hop(X, Y).
    reach(X, N) :- groupby(path(X, Y), [X], N = count()).
|}

let recursive_programs =
  [
    ("left-linear closure", Programs.transitive_closure);
    ("right-linear closure", Programs.transitive_closure_right);
    ("nonlinear closure", nonlinear_closure);
    ("odd/even", odd_even);
    ("mixed strata", mixed_strata);
  ]

let recursive_gen =
  QCheck.Gen.(
    map
      (fun (seed, (_, src)) -> (seed, src))
      (pair (int_range 1 1_000_000) (oneofl recursive_programs)))

let print_program (seed, src) = Printf.sprintf "seed=%d\n%s" seed src
let arb_recursive = QCheck.make ~print:print_program recursive_gen

(** A recursive program over a random graph, or over a strongly
    connected one (a ring through every node plus random chords). *)
let arb_recursive_graph =
  QCheck.make
    ~print:(fun ((seed, src), ring) ->
      Printf.sprintf "%s%s" (print_program (seed, src))
        (if ring then "(ring + chords)" else "(random graph)"))
    QCheck.Gen.(pair recursive_gen bool)

(** Nonrecursive shapes and recursive programs alike, as (seed, source). *)
let arb_program =
  QCheck.make ~print:print_program
    QCheck.Gen.(
      oneof [ map (fun s -> (s.seed, source_of s)) shape_gen; recursive_gen ])

(* ------------------------------------------------------------------ *)
(* Scenario plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let nodes = 10
let edges = 25
let steps = 3

(** Materialize [src] over [graph]; [~counts:true] stores one-step
    derivation counts in recursive units, as counted DRed needs. *)
let build ?counts ~semantics ~src graph =
  let program = Program.make (Parser.parse_rules src) in
  let db = Database.create ~semantics program in
  Database.load db "link" graph;
  Seminaive.evaluate ?counts db;
  db

let random_graph rng = Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges)

(** Every node on one ring, plus random chords: one strongly connected
    component, where every deletion over-deletes around cycles. *)
let ring_graph rng =
  Graph_gen.tuples
    (List.sort_uniq compare
       (Graph_gen.cycle nodes @ Graph_gen.random rng ~nodes ~edges:(edges - nodes)))

(** A counted-DRed runner: its database is materialized with one-step
    counts. *)
let dred_counted = ("dred-counted", fun db c -> ignore (Dred.maintain ~mode:Dred.Counted db c))

(** [Auto] through the manager's path, from one-step counts like counted
    DRed: Counting's delta rules on nonrecursive units, counted DRed on
    SCCs. *)
let auto = ("auto", fun db c -> ignore (Vm.apply (Vm.of_database db) c))

(** Drive the [runners] (name × maintain) in lockstep over one random
    stream: every batch is generated against the first database — all
    databases hold the same base state, so the deletions are valid for
    each — then applied to all of them; [agree] checks the final states.
    The ["dred-counted"] and ["auto"] runners start from one-step
    counts. *)
let lockstep ?(graph = random_graph) ~semantics ~src ~runners ~agree seed =
  let rng = Prng.create seed in
  let graph = graph rng in
  let dbs =
    List.map
      (fun (name, run) ->
        ( name,
          build
            ~counts:(List.mem name [ fst dred_counted; fst auto ])
            ~semantics ~src graph,
          run ))
      runners
  in
  let first = match dbs with (_, db, _) :: _ -> db | [] -> assert false in
  for _ = 1 to steps do
    let changes =
      Update_gen.mixed rng first "link" ~nodes
        ~dels:(Prng.int rng 4) ~ins:(Prng.int rng 4)
    in
    List.iter (fun (_, db, run) -> run db changes) dbs
  done;
  agree (List.map (fun (name, db, _) -> (name, db)) dbs)

let agree_as equal dbs =
  let (_, first), rest =
    match dbs with x :: rest -> (x, rest) | [] -> assert false
  in
  List.for_all
    (fun (_, db) ->
      List.for_all
        (fun p -> equal (Database.relation first p) (Database.relation db p))
        (Program.derived_preds (Database.program first)))
    rest

(* ------------------------------------------------------------------ *)
(* Differential properties                                              *)
(* ------------------------------------------------------------------ *)

let four_way_set =
  q ~count:110 "counting == dred == pf == recompute (sets, random programs)"
    arb_shape
    (fun s ->
      lockstep ~semantics:Database.Set_semantics ~src:(source_of s)
        ~runners:
          [
            ("counting", fun db c -> ignore (Counting.maintain db c));
            ("dred", fun db c -> ignore (Dred.maintain db c));
            ("pf", fun db c -> ignore (Pf.maintain db c));
            ("recompute", fun db c -> Recompute.maintain db c);
          ]
        ~agree:(agree_as Relation.equal_sets) s.seed)

let duplicate_counted =
  q ~count:60 "counting == recompute (counts, duplicate semantics)"
    arb_shape
    (fun s ->
      lockstep ~semantics:Database.Duplicate_semantics ~src:(source_of s)
        ~runners:
          [
            ("counting", fun db c -> ignore (Counting.maintain db c));
            ("recompute", fun db c -> Recompute.maintain db c);
          ]
        ~agree:(agree_as Relation.equal_counted) s.seed)

let recursive_set =
  q ~count:60 "dred == pf == recompute (sets, recursive closure)" arb_recursive
    (fun (seed, src) ->
      lockstep ~semantics:Database.Set_semantics ~src
        ~runners:
          [
            ("dred", fun db c -> ignore (Dred.maintain db c));
            ("pf", fun db c -> ignore (Pf.maintain db c));
            ("recompute", fun db c -> Recompute.maintain db c);
          ]
        ~agree:(agree_as Relation.equal_sets) seed)

let counted_recursive_set =
  q ~count:80
    "dred-counted == dred == pf == recompute (sets, recursive shapes, cyclic graphs)"
    arb_recursive_graph (fun ((seed, src), ring) ->
      lockstep
        ~graph:(if ring then ring_graph else random_graph)
        ~semantics:Database.Set_semantics ~src
        ~runners:
          [
            dred_counted;
            ("dred", fun db c -> ignore (Dred.maintain db c));
            ("pf", fun db c -> ignore (Pf.maintain db c));
            ("recompute", fun db c -> Recompute.maintain db c);
          ]
        ~agree:(agree_as Relation.equal_sets) seed)

(** A counted runner's stored counts (counted DRed's by default) after
    every batch equal those of a fresh evaluation with one-step counts —
    the audit a count-bearing manager runs. *)
let counts_exact ?(runner = dred_counted) ~graph ~src seed =
  let rng = Prng.create seed in
  let db = build ~counts:true ~semantics:Database.Set_semantics ~src (graph rng) in
  List.for_all
    (fun () ->
      let changes =
        Update_gen.mixed rng db "link" ~nodes ~dels:(Prng.int rng 5) ~ins:(Prng.int rng 5)
      in
      snd runner db changes;
      let fresh = Database.copy db in
      Seminaive.evaluate ~counts:true fresh;
      agree_as Relation.equal_counted [ ("maintained", db); ("fresh", fresh) ])
    (List.init (2 * steps) (fun _ -> ()))

let counted_audit =
  [
    q ~count:80 "dred-counted: counts equal a fresh counted evaluation (recursive)"
      arb_recursive_graph (fun ((seed, src), ring) ->
        counts_exact ~graph:(if ring then ring_graph else random_graph) ~src seed);
    q ~count:60 "dred-counted: counts equal a fresh counted evaluation (random programs)"
      arb_program (fun (seed, src) -> counts_exact ~graph:random_graph ~src seed);
  ]

(** Counted DRed and [Auto] against recomputation's one-step counts,
    count for count, on every recursive program in turn: the left-linear
    closure keeps no [lag], the right-linear and nonlinear closures and
    the odd/even unit keep it. *)
let counted_equals_recompute =
  q ~count:40
    "dred-counted == auto == recompute, count for count (every recursive program, cyclic graphs)"
    (QCheck.make
       ~print:(fun (seed, ring) ->
         Printf.sprintf "seed=%d %s" seed (if ring then "(ring + chords)" else "(random graph)"))
       QCheck.Gen.(pair (int_range 1 1_000_000) bool))
    (fun (seed, ring) ->
      List.for_all
        (fun (_, src) ->
          lockstep
            ~graph:(if ring then ring_graph else random_graph)
            ~semantics:Database.Set_semantics ~src
            ~runners:[ dred_counted; auto; ("recompute", fun db c -> Recompute.maintain db c) ]
            ~agree:(agree_as Relation.equal_counted) seed)
        recursive_programs)

(* ------------------------------------------------------------------ *)
(* Auto's cost rule: both branches equal the explicit algorithm         *)
(* ------------------------------------------------------------------ *)

(** Example 6.1's negation view next to a negation over a closure, and a
    GROUPBY view over the same closure: DRed units of every kind in one
    recursive program. *)
let mixed_recursive =
  [
    ( "negation over a closure",
      Programs.only_tri_hop
      ^ {|
    path(X, Y) :- link(X, Y).
    path(X, Y) :- path(X, Z), link(Z, Y).
    far(X, Y) :- path(X, Y), not hop(X, Y).
|} );
    ( "GROUPBY over a closure",
      Programs.transitive_closure
      ^ {|
    reach(X, N) :- groupby(path(X, Y), [X], N = count()).
    hub(X) :- reach(X, N), N > 3.
|} );
  ]

(** [k] distinct edges over [nodes], none of them [avoid]ed. *)
let distinct_edges rng ~avoid k =
  let rec draw k acc =
    if k = 0 then acc
    else
      let a = Prng.int rng nodes and b = Prng.int rng nodes in
      let t = Tuple.make [| Value.Int a; Value.Int b |] in
      if a = b || avoid t || List.exists (Tuple.equal t) acc then draw k acc
      else draw (k - 1) (t :: acc)
  in
  draw k []

(** Drive [Auto] and the algorithm it resolves to, explicitly, in
    lockstep over [steps] pairs of batches: a small one (one [link]
    change) and a large one (half of [link] swapped for as many fresh,
    distinct edges, so |link| does not move).  [link] starts with
    [edges] distinct edges and only the small batches move its size, by
    one each, so the first unit above [link], which reads [link] alone,
    sees a ratio of at most 1/23 on a small batch (under both
    thresholds: it stays incremental) and at least 1 on a large one (it
    re-evaluates): both branches run, and after every batch the two
    managers must agree count for count. *)
let auto_matches_explicit ~semantics ~src seed =
  let rng = Prng.create seed in
  let graph = distinct_edges rng ~avoid:(fun _ -> false) edges in
  (* one-step counts: [Auto] resolves a recursive program to counted DRed *)
  let build () = build ~counts:true ~semantics ~src graph in
  let auto = Vm.of_database (build ()) in
  let explicit = Vm.of_database ~algorithm:(Vm.resolve auto) (build ()) in
  let took choice changes =
    let before = choice_total choice in
    ignore (Vm.apply auto changes);
    ignore (Vm.apply explicit changes);
    choice_total choice > before
    && agree_as Relation.equal_counted
         [ ("auto", Vm.database auto); ("explicit", Vm.database explicit) ]
  in
  List.for_all
    (fun () ->
      let db = Vm.database auto in
      let small =
        if Prng.int rng 2 = 0 then Update_gen.deletions rng db "link" 1
        else Update_gen.edge_insertions rng db "link" ~nodes 1
      in
      let small_ok = took "incremental" small in
      let link = Database.relation db "link" in
      let half = (Relation.cardinal link + 1) / 2 in
      let large =
        Changes.merge
          (Update_gen.deletions rng db "link" half)
          (Changes.insertions (Database.program db) "link"
             (distinct_edges rng ~avoid:(Relation.mem link) half))
      in
      small_ok && took "reevaluate" large)
    (List.init steps (fun _ -> ()))

let auto_props =
  [
    q ~count:60 "auto == explicit, both branches (sets, random programs)"
      arb_program (fun (seed, src) ->
        auto_matches_explicit ~semantics:Database.Set_semantics ~src seed);
    q ~count:30 "auto == counting, both branches (duplicate semantics)" arb_shape
      (fun s ->
        auto_matches_explicit ~semantics:Database.Duplicate_semantics
          ~src:(source_of s) s.seed);
    (* recursive: Auto resolves to counted DRed *)
    q ~count:30 "auto == dred, both branches (negation and GROUPBY over a closure)"
      (QCheck.make ~print:print_program
         QCheck.Gen.(pair (int_range 1 1_000_000) (map snd (oneofl mixed_recursive))))
      (fun (seed, src) ->
        auto_matches_explicit ~semantics:Database.Set_semantics ~src seed);
  ]

(* ------------------------------------------------------------------ *)
(* Determinism: domains 4 ≡ domains 1, canonically dumped               *)
(* ------------------------------------------------------------------ *)

let with_domains d f =
  let prev = Ivm_par.domains () in
  Ivm_par.set_domains d;
  Fun.protect ~finally:(fun () -> Ivm_par.set_domains prev) f

(** Replay the exact same scenario under [domains] and return the
    canonical derived-state dump.  All randomness is re-derived from
    [seed], and update batches are generated from the database's own base
    state (identical across replays), so the two runs see identical
    inputs; byte-equal dumps mean the domain count is unobservable. *)
let replay ?counts ~domains ~semantics ~src ~maintain seed =
  with_domains domains (fun () ->
      let rng = Prng.create seed in
      let graph = Graph_gen.tuples (Graph_gen.random rng ~nodes ~edges) in
      let db = build ?counts ~semantics ~src graph in
      for _ = 1 to steps do
        let changes =
          Update_gen.mixed rng db "link" ~nodes
            ~dels:(Prng.int rng 4) ~ins:(Prng.int rng 4)
        in
        maintain db changes
      done;
      canonical_dump db)

let deterministic ?counts ~semantics ~src ~maintain seed =
  String.equal
    (replay ?counts ~domains:1 ~semantics ~src ~maintain seed)
    (replay ?counts ~domains:4 ~semantics ~src ~maintain seed)

let determinism_props =
  [
    q ~count:25 "counting: domains 4 == domains 1" arb_shape (fun s ->
        deterministic ~semantics:Database.Duplicate_semantics
          ~src:(source_of s)
          ~maintain:(fun db c -> ignore (Counting.maintain db c))
          s.seed);
    q ~count:25 "dred: domains 4 == domains 1 (nonrecursive)" arb_shape
      (fun s ->
        deterministic ~semantics:Database.Set_semantics ~src:(source_of s)
          ~maintain:(fun db c -> ignore (Dred.maintain db c))
          s.seed);
    q ~count:20 "dred: domains 4 == domains 1 (recursive)" arb_recursive
      (fun (seed, src) ->
        deterministic ~semantics:Database.Set_semantics ~src
          ~maintain:(fun db c -> ignore (Dred.maintain db c))
          seed);
    q ~count:15 "pf: domains 4 == domains 1 (recursive)" arb_recursive
      (fun (seed, src) ->
        deterministic ~semantics:Database.Set_semantics ~src
          ~maintain:(fun db c -> ignore (Pf.maintain db c))
          seed);
    q ~count:20 "recompute: domains 4 == domains 1" arb_program
      (fun (seed, src) ->
        deterministic ~semantics:Database.Set_semantics ~src
          ~maintain:(fun db c -> Recompute.maintain db c)
          seed);
    (* Recursive counting needs acyclic data: deletion-only streams over a
       layered DAG, duplicate semantics. *)
    q ~count:15 "recursive counting: domains 4 == domains 1"
      (QCheck.make
         ~print:(fun (seed, nonlinear) ->
           Printf.sprintf "seed=%d %s closure" seed
             (if nonlinear then "nonlinear" else "linear"))
         QCheck.Gen.(pair (int_range 1 1_000_000) bool))
      (fun (seed, nonlinear) ->
        let run domains =
          with_domains domains (fun () ->
              let rng = Prng.create seed in
              let program =
                Program.make
                  (Parser.parse_rules
                     (if nonlinear then nonlinear_closure
                      else Programs.transitive_closure))
              in
              let db =
                Database.create ~semantics:Database.Duplicate_semantics
                  program
              in
              Database.load db "link"
                (Graph_gen.tuples
                   (Graph_gen.layered_dag rng ~layers:5 ~width:4
                      ~out_degree:2));
              Rc.evaluate db;
              for _ = 1 to steps do
                let k = Prng.int rng 3 in
                ignore
                  (Rc.maintain db (Update_gen.deletions rng db "link" k))
              done;
              canonical_dump db)
        in
        String.equal (run 1) (run 4));
    q ~count:20 "dred-counted: domains 4 == domains 1 (recursive)" arb_recursive
      (fun (seed, src) ->
        deterministic ~counts:true ~semantics:Database.Set_semantics ~src
          ~maintain:(snd dred_counted) seed);
    q ~count:20 "dred-counted: domains 4 == domains 1 (nonrecursive)" arb_shape
      (fun s ->
        deterministic ~counts:true ~semantics:Database.Set_semantics
          ~src:(source_of s) ~maintain:(snd dred_counted) s.seed);
  ]

(** [Auto] on recursive programs, the mixed strata among them: its
    counts stay one-step exact and its sets equal recomputation's. *)
let auto_recursive =
  [
    q ~count:40 "auto: counts equal a fresh counted evaluation (recursive)"
      arb_recursive_graph (fun ((seed, src), ring) ->
        counts_exact ~runner:auto
          ~graph:(if ring then ring_graph else random_graph)
          ~src seed);
    q ~count:40 "auto == recompute (sets, recursive shapes, cyclic graphs)"
      arb_recursive_graph (fun ((seed, src), ring) ->
        lockstep
          ~graph:(if ring then ring_graph else random_graph)
          ~semantics:Database.Set_semantics ~src
          ~runners:[ auto; ("recompute", fun db c -> Recompute.maintain db c) ]
          ~agree:(agree_as Relation.equal_sets) seed);
  ]

(* ------------------------------------------------------------------ *)
(* why: the derivations found add up to the stored count               *)
(* ------------------------------------------------------------------ *)

(** For every present view tuple, the [mult]s of the derivations [why]
    finds sum to the stored count — every resolution but explicit DRed
    stores exact counts.  Only a search that ran out of budget is
    excused. *)
let why_sums_to_count (name, db) =
  let access = Vm.provenance_access (Vm.of_database db) in
  List.for_all
    (fun p ->
      Relation.fold
        (fun tup stored ok ->
          ok
          &&
          match Pq.why ~max_depth:1 access p tup with
          | Pq.Why_tree { t_kind = Pq.Derived { derivations; truncated; _ }; _ } ->
            truncated || derivations = stored
            || QCheck.Test.fail_reportf "%s: why %s found %d derivations, stored count %d"
                 name (Pq.fact_to_string p tup) derivations stored
          | _ ->
            QCheck.Test.fail_reportf "%s: why %s found no derivation" name
              (Pq.fact_to_string p tup))
        (Database.relation db p) true)
    (Program.derived_preds (Database.program db))

let recompute = ("recompute", fun db c -> Recompute.maintain db c)

let why_count_props =
  [
    q ~count:40 "why = count: random programs (counting, dred-counted, auto, recompute)"
      arb_shape (fun s ->
        lockstep ~semantics:Database.Set_semantics ~src:(source_of s)
          ~runners:
            [ ("counting", fun db c -> ignore (Counting.maintain db c)); dred_counted; auto; recompute ]
          ~agree:(List.for_all why_sums_to_count) s.seed);
    q ~count:25 "why = count: duplicate semantics (counting, auto, recompute)" arb_shape
      (fun s ->
        lockstep ~semantics:Database.Duplicate_semantics ~src:(source_of s)
          ~runners:[ ("counting", fun db c -> ignore (Counting.maintain db c)); auto; recompute ]
          ~agree:(List.for_all why_sums_to_count) s.seed);
    q ~count:15 "why = count: recursive programs, each in turn (dred-counted, auto, recompute)"
      (QCheck.make
         ~print:(fun (seed, ring) ->
           Printf.sprintf "seed=%d %s" seed (if ring then "(ring + chords)" else "(random graph)"))
         QCheck.Gen.(pair (int_range 1 1_000_000) bool))
      (fun (seed, ring) ->
        List.for_all
          (fun (_, src) ->
            lockstep
              ~graph:(if ring then ring_graph else random_graph)
              ~semantics:Database.Set_semantics ~src ~runners:[ dred_counted; auto; recompute ]
              ~agree:(List.for_all why_sums_to_count) seed)
          recursive_programs);
    (* Recursive counting needs acyclic data: deletion-only streams over a
       layered DAG, duplicate semantics. *)
    q ~count:15 "why = count: recursive counting on DAG data"
      (QCheck.make ~print:print_program
         QCheck.Gen.(
           pair (int_range 1 1_000_000)
             (oneofl
                [ Programs.transitive_closure; Programs.transitive_closure_right; nonlinear_closure ])))
      (fun (seed, src) ->
        let rng = Prng.create seed in
        let db = Database.create ~semantics:Database.Duplicate_semantics (Program.make (Parser.parse_rules src)) in
        Database.load db "link"
          (Graph_gen.tuples (Graph_gen.layered_dag rng ~layers:5 ~width:4 ~out_degree:2));
        Rc.evaluate db;
        List.for_all
          (fun () ->
            ignore (Rc.maintain db (Update_gen.deletions rng db "link" (Prng.int rng 3)));
            why_sums_to_count ("recursive-counting", db))
          (List.init steps (fun _ -> ())));
  ]

(** [why] compares and aggregates as the evaluator does.  [facts] are
    loaded, [inserted] applied as one batch under each resolution that
    stores exact counts, and then every view tuple's derivations must add
    up to its count. *)
let why_exact ~src ~facts ~inserted () =
  List.iter
    (fun (name, run) ->
      let program = Program.make (Parser.parse_rules src) in
      let db = Database.create ~semantics:Database.Set_semantics program in
      List.iter (fun (p, tups) -> Database.load db p tups) facts;
      Seminaive.evaluate ~counts:(List.mem name [ fst dred_counted; fst auto ]) db;
      run db (Changes.of_list program inserted);
      Alcotest.(check bool) (name ^ ": why = count") true (why_sums_to_count (name, db)))
    [ ("counting", fun db c -> ignore (Counting.maintain db c)); dred_counted; auto; recompute ]

let int1 x = Tuple.of_list [ Value.Int x ]
let keyed g v = Tuple.of_list [ Value.str g; v ]

(* 2^53 and 2^53 + 1 are equal as floats. *)
let why_exact_cases =
  let big = 9007199254740992 in
  let rng = Prng.create 34 in
  let float_groups n =
    List.concat
      (List.init 30 (fun g ->
           List.init n (fun _ ->
               keyed (Printf.sprintf "g%d" g) (Value.Float ((Prng.float rng -. 0.5) *. 20.)))))
  in
  [
    quick "why = count: an Int comparison past 2^53"
      (why_exact ~src:"big(X, Y) :- n(X), n(Y), X < Y."
         ~facts:[ ("n", [ int1 big ]) ]
         ~inserted:[ ("n", [ (int1 (big + 1), 1) ]) ]);
    quick "why = count: an Int sum past 2^53"
      (why_exact ~src:"t(P, T) :- groupby(n(P, X), [P], T = sum(X))."
         ~facts:[ ("n", [ keyed "a" (Value.Int (big + 1)) ]) ]
         ~inserted:[ ("n", [ (keyed "a" (Value.Int 2), 1) ]) ]);
    quick "why = count: float sum/avg groups after one insertion"
      (why_exact
         ~src:
           "s(P, T) :- groupby(f(P, X), [P], T = avg(X)).\n\
            u(P, T) :- groupby(f(P, X), [P], T = sum(X))."
         ~facts:[ ("f", float_groups 4) ]
         ~inserted:[ ("f", List.map (fun t -> (t, 1)) (float_groups 1)) ]);
  ]

let suite =
  [ four_way_set; duplicate_counted; recursive_set ]
  @ determinism_props @ auto_props
  @ (counted_recursive_set :: counted_equals_recompute :: counted_audit)
  @ auto_recursive @ why_count_props @ why_exact_cases
