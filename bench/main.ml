(* Benchmark harness entry point.

     dune exec bench/main.exe                 # all experiments + micro suite
     dune exec bench/main.exe -- e1 e6        # selected experiments
     dune exec bench/main.exe -- micro        # Bechamel micro suite only
     dune exec bench/main.exe -- --csv out e13 e15
                                              # tables also as out/e13.csv, ...
     dune exec bench/main.exe -- --regress out.json --baseline BENCH_5.json
                                              # kernel regression gate

   Each experiment prints the table EXPERIMENTS.md records; the micro suite
   gives one Bechamel measurement per experiment's headline operation. *)

open Harness
module Counting = Ivm.Counting
module Dred = Ivm.Dred
module Recursive_counting = Ivm.Recursive_counting
module Pf = Ivm_baselines.Pf

(* ------------------------------------------------------------------ *)
(* Bechamel micro suite: one Test.make per experiment.  Maintenance
   mutates the database, so each measured function applies a change and
   its inverse — the state is identical after every run. *)
(* ------------------------------------------------------------------ *)

let flip_pair db pred tuple =
  let program = Database.program db in
  let ins = Changes.insertions program pred [ tuple ] in
  let del = Changes.deletions program pred [ tuple ] in
  (ins, del)

let fresh_edge db rng ~nodes =
  let stored = Database.relation db "link" in
  let rec go () =
    let a = Prng.int rng nodes and b = Prng.int rng nodes in
    let t = Tuple.make [| Value.Int a; Value.Int b |] in
    if a = b || Relation.mem stored t then go () else t
  in
  go ()

let micro_tests () =
  let open Bechamel in
  (* X1 / E1: counting on the hop+tri_hop views *)
  let db_cnt, rng = graph_db ~src:Programs.hop_tri_hop ~seed:3 ~nodes:400 ~edges:2000 () in
  let e = fresh_edge db_cnt rng ~nodes:400 in
  let ins, del = flip_pair db_cnt "link" e in
  let t_e1 =
    Test.make ~name:"e1.counting-flip-edge(hop,tri_hop)@2k"
      (Staged.stage (fun () ->
           ignore (Counting.maintain db_cnt ins);
           ignore (Counting.maintain db_cnt del)))
  in
  let db_re, _ = graph_db ~src:Programs.hop_tri_hop ~seed:3 ~nodes:400 ~edges:2000 () in
  let t_e1b =
    Test.make ~name:"e1.recompute(hop,tri_hop)@2k"
      (Staged.stage (fun () -> Seminaive.evaluate db_re))
  in
  (* E2: evaluation of the hop join (counts are always tracked) *)
  let db_eval, _ = graph_db ~src:Programs.hop ~seed:5 ~nodes:400 ~edges:4000 () in
  let t_e2 =
    Test.make ~name:"e2.evaluate-hop@4k"
      (Staged.stage (fun () -> Seminaive.evaluate db_eval))
  in
  (* E5: DRed on transitive closure over a layered DAG *)
  let db_tc, _ =
    layered_db ~src:Programs.transitive_closure ~seed:7 ~layers:10 ~width:8
      ~out_degree:2 ()
  in
  let e_tc = Tuple.make [| Value.Int 0; Value.Int 79 |] in
  let ins_tc, del_tc = flip_pair db_tc "link" e_tc in
  let t_e5 =
    Test.make ~name:"e5.dred-flip-edge(tc-dag)"
      (Staged.stage (fun () ->
           ignore (Dred.maintain db_tc ins_tc);
           ignore (Dred.maintain db_tc del_tc)))
  in
  (* E5/E28: counted DRed on the same shape, from one-step counts *)
  let db_tcc = counted_copy db_tc in
  let t_e5c =
    Test.make ~name:"e5.dred-counted-flip-edge(tc-dag)"
      (Staged.stage (fun () ->
           ignore (Dred.maintain ~mode:Dred.Counted db_tcc ins_tc);
           ignore (Dred.maintain ~mode:Dred.Counted db_tcc del_tc)))
  in
  (* E6: PF on the same shape *)
  let db_pf, _ =
    layered_db ~src:Programs.transitive_closure ~seed:7 ~layers:10 ~width:8
      ~out_degree:2 ()
  in
  let ins_pf, del_pf = flip_pair db_pf "link" e_tc in
  let t_e6 =
    Test.make ~name:"e6.pf-flip-edge(tc-dag)"
      (Staged.stage (fun () ->
           ignore (Pf.maintain db_pf ins_pf);
           ignore (Pf.maintain db_pf del_pf)))
  in
  (* E8: aggregation *)
  let db_agg, rng_agg =
    costed_graph_db ~src:Programs.min_cost_hop ~seed:9 ~nodes:200 ~edges:1200
      ~max_cost:50 ()
  in
  let e_agg =
    let t2 = fresh_edge db_agg rng_agg ~nodes:200 in
    Tuple.make [| Tuple.get t2 0; Tuple.get t2 1; Value.Int 7 |]
  in
  let ins_agg, del_agg = flip_pair db_agg "link" e_agg in
  let t_e8 =
    Test.make ~name:"e8.counting-flip-edge(min_cost_hop)@1200"
      (Staged.stage (fun () ->
           ignore (Counting.maintain db_agg ins_agg);
           ignore (Counting.maintain db_agg del_agg)))
  in
  (* E10: negation *)
  let db_neg, rng_neg =
    graph_db ~semantics:Database.Duplicate_semantics ~src:Programs.only_tri_hop
      ~seed:11 ~nodes:80 ~edges:320 ()
  in
  let e_neg = fresh_edge db_neg rng_neg ~nodes:80 in
  let ins_neg, del_neg = flip_pair db_neg "link" e_neg in
  let t_e10 =
    Test.make ~name:"e10.counting-flip-edge(only_tri_hop)@320"
      (Staged.stage (fun () ->
           ignore (Counting.maintain db_neg ins_neg);
           ignore (Counting.maintain db_neg del_neg)))
  in
  (* E12: recursive counting on a DAG *)
  let db_rc =
    let rng = Prng.create 13 in
    let program = Program.make (Parser.parse_rules Programs.transitive_closure) in
    let db = Database.create ~semantics:Database.Duplicate_semantics program in
    Database.load db "link"
      (Graph_gen.tuples (Graph_gen.layered_dag rng ~layers:6 ~width:5 ~out_degree:2));
    Recursive_counting.evaluate db;
    db
  in
  let e_rc = Tuple.make [| Value.Int 0; Value.Int 9 |] in
  let ins_rc, del_rc = flip_pair db_rc "link" e_rc in
  let t_e12 =
    Test.make ~name:"e12.recursive-counting-flip-edge(dag)"
      (Staged.stage (fun () ->
           ignore (Recursive_counting.maintain db_rc ins_rc);
           ignore (Recursive_counting.maintain db_rc del_rc)))
  in
  (* The wire layer every serve reply, WAL record and snapshot passes
     through: a CRC over 64 KiB, and an [Applied] reply of about 20 KiB
     (the size of negation_counting's) encoded and framed as the server
     sends it, then framed, CRC-checked and decoded. *)
  let block = String.init (64 * 1024) (fun i -> Char.chr ((i * 7919) land 0xff)) in
  let t_crc =
    Test.make ~name:"wire.crc32-64KiB"
      (Staged.stage (fun () -> Ivm_wire.Crc32.digest block))
  in
  let applied_reply =
    let delta =
      Relation.of_list 2
        (List.init 790 (fun i ->
             (Tuple.make [| Value.Int i; Value.Int (i * 7) |], if i land 1 = 0 then 1 else -1)))
    in
    Ivm_serve.Protocol.Applied { seq = 1; deltas = [ ("hop", delta) ]; timings = [] }
  in
  let t_encode =
    Test.make ~name:"wire.applied-encode-20KiB"
      (Staged.stage (fun () -> Ivm_serve.Protocol.response_frame applied_reply))
  in
  let applied = Ivm_serve.Protocol.encode_response applied_reply in
  let t_roundtrip =
    Test.make ~name:"wire.applied-roundtrip-20KiB"
      (Staged.stage (fun () ->
           let frame = Ivm_wire.Frame.encode applied in
           let payload = String.sub frame 8 (String.length frame - 8) in
           if Ivm_wire.Crc32.digest payload <> String.get_int32_le frame 4 then
             failwith "frame CRC";
           Ivm_serve.Protocol.decode_response payload))
  in
  Test.make_grouped ~name:"ivm"
    [ t_e1; t_e1b; t_e2; t_e5; t_e5c; t_e6; t_e8; t_e10; t_e12; t_crc; t_encode;
      t_roundtrip ]

let kernel_tests () =
  let open Bechamel in
  (* The relation kernel under every layer above: lookups that hit,
     lookups that miss, fresh tuples added and removed again, and a full
     [iter], on a binary relation of 2^17 tuples grown by [add] the way a
     live database grows.  The probe keys are fresh tuples equal to the
     stored ones (as a delta's are); a run takes the next 1,024 of them,
     so it does not stay on cache-warm buckets and lasts long enough for
     a clean estimate. *)
  let n = 1 lsl 17 in
  let pair i j = Tuple.make [| Value.Int i; Value.Int j |] in
  let kernel = Relation.create 2 in
  for i = 0 to n - 1 do
    Relation.add kernel (pair i (i * 7)) 1
  done;
  let hits = Array.init n (fun i -> pair i (i * 7)) in
  let misses = Array.init n (fun i -> pair i ((i * 7) + 1)) in
  let batch keys f =
    let next = ref 0 in
    Staged.stage (fun () ->
        for i = !next to !next + 1023 do
          f keys.(i)
        done;
        next := (!next + 1024) land (n - 1))
  in
  let t_count_hit =
    Test.make ~name:"relation.count-hit-x1024@128k"
      (batch hits (fun t -> ignore (Relation.count kernel t : int)))
  in
  let t_count_miss =
    Test.make ~name:"relation.count-miss-x1024@128k"
      (batch misses (fun t -> ignore (Relation.count kernel t : int)))
  in
  let t_add =
    Test.make ~name:"relation.add-fresh+remove-x1024@128k"
      (batch misses (fun t ->
           Relation.add kernel t 1;
           Relation.add kernel t (-1)))
  in
  let t_iter =
    Test.make ~name:"relation.iter@128k"
      (Staged.stage (fun () ->
           let s = ref 0 in
           Relation.iter (fun _ c -> s := !s + c) kernel;
           !s))
  in
  Test.make_grouped ~name:"ivm" [ t_count_hit; t_count_miss; t_add; t_iter ]

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "\nBechamel micro suite (ns/run, OLS estimate)\n";
  Printf.printf "===========================================\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  (* No row runs Bechamel's per-sample stabilization: it compacts the
     whole heap, every micro database included, up to ten times before
     each sample, and that used up the quota — a maintenance row was left
     4–5 samples of 1–5 runs, too few for a fit (r² down to −95).  Without
     it each gets about a hundred. *)
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) ~kde:None ~stabilize:false ()
  in
  let rows_of tests =
    let raw = Benchmark.all cfg instances tests in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.fold
      (fun name ols_result acc ->
        let est =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
        in
        (name, est, r2) :: acc)
      results []
  in
  let suite = rows_of (micro_tests ()) in
  let kernel = rows_of (kernel_tests ()) in
  let rows =
    suite @ kernel
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  print_table
    [ "benchmark"; "time/run"; "r²" ]
    (List.map
       (fun (name, est, r2) ->
         [ name; fmt_time (est /. 1e9); Printf.sprintf "%.3f" r2 ])
       rows)

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --domains N anywhere: evaluate delta rules on N domains.
     --serve PORT anywhere: expose /metrics (and friends) while the
     benches run; the monitor's at_exit handler stops it. *)
  let args =
    let rec go acc = function
      | "--domains" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> Ivm_par.set_domains n
        | _ ->
          Printf.eprintf "--domains expects a positive integer, got %s\n" n;
          exit 1);
        go acc rest
      | "--serve" :: p :: rest ->
        (match int_of_string_opt p with
        | Some port when port >= 0 && port < 65536 ->
          let srv =
            Ivm_monitor.Monitor.start ~port ()
          in
          Printf.printf
            "monitoring on http://127.0.0.1:%d (/metrics /healthz /statusz \
             /trace)\n\
             %!"
            (Ivm_monitor.Monitor.port srv)
        | _ ->
          Printf.eprintf "--serve expects a port number, got %s\n" p;
          exit 1);
        go acc rest
      | x :: rest -> go (x :: acc) rest
      | [] -> List.rev acc
    in
    go [] args
  in
  (match args with
  | "--regress" :: out :: rest ->
    (* --regress OUT [--baseline FILE] *)
    let baseline =
      match rest with
      | [] -> None
      | [ "--baseline"; f ] -> Some f
      | x :: _ ->
        Printf.eprintf "unknown --regress option %s\n" x;
        exit 1
    in
    Regress.run ~out ?baseline ();
    exit 0
  | _ -> ());
  let args =
    match args with
    | "--csv" :: dir :: rest ->
      (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Harness.csv_dir := Some dir;
      rest
    | args -> args
  in
  let known = List.map fst Experiments.all in
  let bad = List.filter (fun a -> a <> "micro" && not (List.mem a known)) args in
  if bad <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\nknown: %s micro\n"
      (String.concat ", " bad) (String.concat " " known);
    exit 1
  end;
  let wanted name = args = [] || List.mem name args in
  Printf.printf
    "Reproduction benches — Gupta, Mumick & Subrahmanian, \"Maintaining Views \
     Incrementally\" (SIGMOD 1993)\n";
  List.iter
    (fun (name, run) -> if wanted name then run ())
    Experiments.all;
  if args = [] || List.mem "micro" args then run_micro ()
