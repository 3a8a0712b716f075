(* ivm-shell: an interactive materialized-view database.

   Load a Datalog program (rules + facts) or an SQL script, then stream
   updates against the base relations; every materialized view is kept
   exact by the configured maintenance algorithm.

     $ dune exec bin/ivm_shell.exe -- examples.dl
     ivm> +link(a, b).
     ivm> -link(b, c).
     ivm> show hop
     ivm> addrule far(X,Y) :- hop(X,Z), hop(Z,Y).
     ivm> audit

   Commands:
     +FACT.              insert a base fact          (e.g. +link(a,b).)
     -FACT.              delete a base fact
     show [PRED]         print one or all relations
     program             print the current rules
     addrule RULE        add a rule, maintain views incrementally
     delrule RULE        remove a rule, maintain views incrementally
     audit               compare maintained views against recomputation
     stats               cumulative evaluator work counters
     open DIR            open/create a durable store (snapshot + WAL)
     log status          durable-store status (seq, snapshot, log sizes)
     compact             fold the WAL into a fresh snapshot
     help                this text
     quit                exit *)

module Vm = Ivm.View_manager
module Changes = Ivm.Changes
module Relation = Ivm_relation.Relation
module Tuple = Ivm_relation.Tuple
module Parser = Ivm_datalog.Parser
module Program = Ivm_datalog.Program
module Stats = Ivm_eval.Stats

let help_text =
  "  +fact.           insert a base fact (e.g. +link(a,b).)\n\
  \  -fact.           delete a base fact\n\
  \  apply ±FACT; ±FACT; ...  apply several inserts (+) and deletes (-)\n\
  \                   as one atomic batch: one maintenance run, one\n\
  \                   write-ahead-log record (e.g. apply +link(a,b); -link(b,c).)\n\
  \  ?QUERY           run an ad-hoc query (e.g. ?hop(a, X), link(X, Y))\n\
  \  show [pred]      print one or all relations\n\
  \  program          print the current rules\n\
  \  addrule RULE     add a rule incrementally\n\
  \  delrule RULE     remove a rule incrementally\n\
  \  algorithm NAME   switch the maintenance algorithm in place: counting,\n\
  \                   dred, dred-counted, recursive-counting, recompute or\n\
  \                   auto (counts are re-derived when the target needs them)\n\
  \  audit            check views against recomputation\n\
  \  stats            evaluator work counters\n\
  \  metrics          dump the full metrics registry\n\
  \  trace on FILE    start tracing maintenance spans to FILE (Chrome\n\
  \                   trace_event JSON — load in chrome://tracing/Perfetto)\n\
  \  trace off        stop tracing and flush the file\n\
  \  trace status     is tracing on, and where\n\
  \  explain          program structure, strata, sizes\n\
  \  explain last     per-rule cost table of the most recent maintenance\n\
  \                   batch (wall time, Δ in/out, probes, index builds)\n\
  \  explain N        the same table N batches back (0 = most recent;\n\
  \                   an 8-batch history is kept)\n\
  \  provenance on/off/status  batch-lineage capture: per-tuple first\n\
  \                   derived / last deleted batches (backs lineage)\n\
  \  why FACT.        derivation tree of a view tuple down to base facts,\n\
  \                   found from the live relations (no capture needed)\n\
  \  why not FACT.    candidate rule instantiations for an absent tuple,\n\
  \                   each with its first failing or missing subgoal\n\
  \  lineage FACT.    batch history of a tuple: first derived, last deleted\n\
  \  monitor start PORT  serve /metrics /healthz /statusz /trace /why on\n\
  \                   localhost:PORT (HTTP; Prometheus + JSON)\n\
  \  monitor stop     stop the monitoring endpoint\n\
  \  save FILE        dump rules+facts to a reloadable file\n\
  \  open DIR         open an existing durable store (replay its log), or\n\
  \                   turn the current database durable in a fresh DIR\n\
  \  log status       durable store status: sequence number, snapshot and\n\
  \                   write-ahead log sizes\n\
  \  compact          fold the write-ahead log into a fresh snapshot\n\
  \  close            detach the durable store (keep running in memory;\n\
  \                   the directory stays reopenable)\n\
  \  crash [truncate N | flip K]  simulate a crash: drop the store handle\n\
  \                   without snapshotting and optionally damage the WAL\n\
  \                   tail — N bytes cut off the end, or the byte at\n\
  \                   offset K bit-flipped ('open DIR' then recovers;\n\
  \                   this is the statecheck harness's fault injector)\n\
  \  help             this text\n\
  \  quit             exit"

let show_relation vm name =
  Format.printf "%s = %a@." name Relation.pp (Vm.relation vm name)

let show_all vm =
  let program = Vm.program vm in
  List.iter
    (fun p -> show_relation vm p)
    (Program.base_preds program @ Program.derived_in_stratum_order program)

let parse_fact src =
  match Parser.parse_program src with
  | [ Ivm_datalog.Ast.Sfact (pred, vals) ] -> (pred, Tuple.of_list vals)
  | _ -> failwith "expected a single ground fact, e.g. link(a,b)."

let apply_and_report vm changes =
  let deltas = Vm.apply vm changes in
  if deltas = [] then Format.printf "(no view changed)@."
  else
    List.iter
      (fun (view, delta) ->
        Format.printf "Δ%s = %a@." view Relation.pp delta)
      deltas

(* One monitoring endpoint per shell process.  The status callback reads
   through the ref so 'open DIR' (which swaps the manager) is reflected
   on /statusz without restarting the server. *)
let monitor_server : Ivm_monitor.Monitor.t option ref = ref None

let monitor_config (vmref : Vm.t ref) =
  {
    Ivm_monitor.Monitor.default_config with
    status = (fun () -> Vm.status_json !vmref);
    explain = Some (fun q -> Vm.explain_json !vmref q);
  }

let start_monitor vmref port =
  match !monitor_server with
  | Some srv ->
    Format.printf "monitor already running on port %d ('monitor stop' first)@."
      (Ivm_monitor.Monitor.port srv)
  | None ->
    let srv = Ivm_monitor.Monitor.start ~config:(monitor_config vmref) ~port () in
    monitor_server := Some srv;
    Format.printf
      "monitoring on http://127.0.0.1:%d (/metrics /healthz /statusz /trace \
       /why)@."
      (Ivm_monitor.Monitor.port srv)

let sql_keywords = [ "select"; "insert"; "delete"; "update"; "create" ]

let looks_like_sql line =
  match String.index_opt line ' ' with
  | Some i -> List.mem (String.lowercase_ascii (String.sub line 0 i)) sql_keywords
  | None -> false

(* [vmref] because 'open DIR' on an existing store replaces the manager
   with the recovered one. *)
let execute ?sql (vmref : Vm.t ref) line =
  let vm = !vmref in
  let line = String.trim line in
  if line = "" then ()
  else if (match sql with Some _ -> looks_like_sql line | None -> false) then begin
    match sql with
    | Some session ->
      Format.printf "%a" Ivm_sql.Sql_session.pp_outcome
        (Ivm_sql.Sql_session.exec session line)
    | None -> assert false
  end
  else if line = "help" then print_endline help_text
  else if line = "program" then
    Format.printf "%a@." Ivm_datalog.Pretty.pp_program (Program.rules (Vm.program vm))
  else if line = "audit" then begin
    match Vm.audit vm with
    | Ok () -> Format.printf "ok: views match recomputation@."
    | Error msg -> Format.printf "MISMATCH:@.%s@." msg
  end
  else if line = "stats" then
    Format.printf "%a@." Stats.pp_snapshot (Stats.snapshot ())
  else if line = "metrics" then Format.printf "%a@." Ivm_obs.Metrics.pp ()
  else if line = "trace status" then begin
    if Ivm_obs.Trace.enabled () then
      Format.printf "tracing: on%s@."
        (match Ivm_obs.Trace.file_path () with
        | Some p -> " → " ^ p
        | None -> " (ring buffer only)")
    else Format.printf "tracing: off@."
  end
  else if line = "trace off" then begin
    match Ivm_obs.Trace.disable () with
    | Some path -> Format.printf "trace written to %s@." path
    | None -> Format.printf "tracing stopped@."
  end
  else if String.length line > 9 && String.sub line 0 9 = "trace on " then begin
    let path = String.trim (String.sub line 9 (String.length line - 9)) in
    Ivm_obs.Trace.enable_file path;
    Format.printf
      "tracing to %s (Chrome trace_event format; 'trace off' to flush)@." path
  end
  else if line = "explain" then begin
    let program = Vm.program vm in
    Format.printf "algorithm: %s (resolves to %s), semantics: %s@."
      (Vm.algorithm_name (Vm.algorithm vm))
      (Vm.algorithm_name (Vm.resolve vm))
      (match Vm.semantics vm with
      | Ivm_eval.Database.Set_semantics -> "set"
      | Ivm_eval.Database.Duplicate_semantics -> "duplicate");
    List.iter
      (fun p ->
        let info = Program.pred_info program p in
        Format.printf "  %-16s stratum %d%s  |%s| = %d%s@." p
          info.Program.stratum
          (if info.Program.is_base then " (base)    "
           else if info.Program.recursive then " recursive "
           else "           ")
          p
          (Relation.cardinal (Vm.relation vm p))
          (if info.Program.is_base then ""
           else Printf.sprintf "  (%d rules)" (List.length info.Program.defining_rules)))
      (Program.base_preds program @ Program.derived_in_stratum_order program)
  end
  else if line = "explain last" then begin
    match Ivm_obs.Attribution.last () with
    | Some batch ->
      Format.printf "%a@." (fun ppf b -> Ivm_obs.Attribution.pp_batch ppf b) batch
    | None ->
      if Ivm_obs.Attribution.enabled () then
        Format.printf "no maintenance batch recorded yet@."
      else
        Format.printf
          "attribution is disabled (IVM_ATTRIBUTION=0); no batches recorded@."
  end
  else if String.length line > 8 && String.sub line 0 8 = "explain " then begin
    (* 'explain last' is handled above; here: 'explain N', N batches back *)
    let arg = String.trim (String.sub line 8 (String.length line - 8)) in
    let recent = Ivm_obs.Attribution.recent () in
    let available =
      match List.length recent with
      | 0 -> "none recorded yet"
      | 1 -> "only 0 available"
      | n -> Printf.sprintf "0..%d available" (n - 1)
    in
    match int_of_string_opt arg with
    | Some n when n >= 0 -> (
      match List.nth_opt recent n with
      | Some batch ->
        Format.printf "%a@." (fun ppf b -> Ivm_obs.Attribution.pp_batch ppf b) batch
      | None -> Format.printf "no batch %d back (%s)@." n available)
    | _ ->
      Format.printf
        "usage: explain | explain last | explain N (0 = most recent; %s)@."
        available
  end
  else if line = "provenance on" then begin
    Vm.enable_provenance vm;
    Format.printf "provenance (lineage) capture on@."
  end
  else if line = "provenance off" then begin
    Vm.disable_provenance vm;
    Format.printf "provenance (lineage) capture off (store cleared)@."
  end
  else if line = "provenance status" then
    Format.printf "%s@."
      (Ivm_obs.Json.to_string (Ivm_prov.Prov.status_json ()))
  else if String.length line > 8 && String.sub line 0 8 = "why not " then begin
    match Vm.parse_fact (String.sub line 8 (String.length line - 8)) with
    | Error e -> Format.printf "error: %s@." e
    | Ok (pred, tup) ->
      let access = Vm.provenance_access vm in
      Format.printf "%a@."
        (Ivm_prov.Prov_query.pp_whynot pred tup)
        (Ivm_prov.Prov_query.whynot access pred tup)
  end
  else if String.length line > 4 && String.sub line 0 4 = "why " then begin
    match Vm.parse_fact (String.sub line 4 (String.length line - 4)) with
    | Error e -> Format.printf "error: %s@." e
    | Ok (pred, tup) ->
      let access = Vm.provenance_access vm in
      Format.printf "%a@." Ivm_prov.Prov_query.pp_why
        (Ivm_prov.Prov_query.why access pred tup)
  end
  else if String.length line > 8 && String.sub line 0 8 = "lineage " then begin
    match Vm.parse_fact (String.sub line 8 (String.length line - 8)) with
    | Error e -> Format.printf "error: %s@." e
    | Ok (pred, tup) ->
      let access = Vm.provenance_access vm in
      Format.printf "%a@." Ivm_prov.Prov_query.pp_lineage
        (Ivm_prov.Prov_query.lineage access pred tup)
  end
  else if String.length line > 14 && String.sub line 0 14 = "monitor start " then begin
    let port_s = String.trim (String.sub line 14 (String.length line - 14)) in
    match int_of_string_opt port_s with
    | Some port when port >= 0 && port < 65536 -> start_monitor vmref port
    | _ -> Format.printf "usage: monitor start PORT (0 picks a free port)@."
  end
  else if line = "monitor stop" then begin
    match !monitor_server with
    | Some srv ->
      Ivm_monitor.Monitor.stop srv;
      monitor_server := None;
      Format.printf "monitor stopped@."
    | None -> Format.printf "monitor is not running@."
  end
  else if String.length line > 5 && String.sub line 0 5 = "save " then begin
    let path = String.trim (String.sub line 5 (String.length line - 5)) in
    Out_channel.with_open_text path (fun oc ->
        let ppf = Format.formatter_of_out_channel oc in
        Ivm_eval.Database.dump ppf (Vm.database vm);
        Format.pp_print_flush ppf ());
    Format.printf "saved to %s@." path
  end
  else if line = "log status" then begin
    match Vm.store_status vm with
    | None -> Format.printf "not durable (use 'open DIR')@."
    | Some st -> Format.printf "%a@." Ivm_store.Store.pp_status st
  end
  else if line = "compact" then begin
    Vm.compact vm;
    match Vm.store_status vm with
    | Some st -> Format.printf "compacted: %a@." Ivm_store.Store.pp_status st
    | None -> ()
  end
  else if String.length line > 5 && String.sub line 0 5 = "open " then begin
    let dir = String.trim (String.sub line 5 (String.length line - 5)) in
    if Ivm_store.Store.exists dir then begin
      let recovered, recovery = Vm.open_durable ~algorithm:(Vm.algorithm vm) dir in
      Vm.close_store vm;
      vmref := recovered;
      Format.printf "opened %s: %a@." dir Ivm_store.Store.pp_recovery recovery
    end
    else begin
      Vm.make_durable vm ~dir;
      Format.printf "initialized store %s; changes are now write-ahead logged@." dir
    end
  end
  else if String.length line > 6 && String.sub line 0 6 = "apply " then begin
    let body = String.trim (String.sub line 6 (String.length line - 6)) in
    let body =
      (* one optional trailing period closes the whole batch *)
      if String.length body > 0 && body.[String.length body - 1] = '.' then
        String.sub body 0 (String.length body - 1)
      else body
    in
    let entries =
      String.split_on_char ';' body
      |> List.filter_map (fun part ->
             let part = String.trim part in
             if part = "" then None
             else if String.length part < 2 || (part.[0] <> '+' && part.[0] <> '-')
             then failwith "apply: each entry must be +fact or -fact"
             else begin
               let sign = if part.[0] = '+' then 1 else -1 in
               let pred, tup =
                 parse_fact (String.sub part 1 (String.length part - 1) ^ ".")
               in
               Some (pred, (tup, sign))
             end)
    in
    if entries = [] then failwith "usage: apply +fact; -fact; ..."
    else begin
      let tbl = Hashtbl.create 7 in
      List.iter
        (fun (p, e) ->
          Hashtbl.replace tbl p
            (e :: Option.value ~default:[] (Hashtbl.find_opt tbl p)))
        entries;
      let per_pred =
        Hashtbl.fold (fun p es acc -> (p, List.rev es) :: acc) tbl []
      in
      apply_and_report vm
        (Changes.of_list (Vm.program vm) (List.sort compare per_pred))
    end
  end
  else if String.length line > 10 && String.sub line 0 10 = "algorithm " then begin
    let name = String.trim (String.sub line 10 (String.length line - 10)) in
    match Vm.algorithm_of_string name with
    | Some a ->
      Vm.set_algorithm vm a;
      Format.printf "algorithm: %s (resolves to %s)@."
        (Vm.algorithm_name (Vm.algorithm vm))
        (Vm.algorithm_name (Vm.resolve vm))
    | None ->
      Format.printf
        "unknown algorithm %s (counting, dred, dred-counted, recursive-counting, \
         recompute, auto)@."
        name
  end
  else if line = "close" then begin
    match Vm.durable_dir vm with
    | Some dir ->
      Vm.close_store vm;
      Format.printf "store %s detached; running in memory@." dir
    | None -> Format.printf "not durable (nothing to close)@."
  end
  else if line = "crash" || (String.length line > 6 && String.sub line 0 6 = "crash ")
  then begin
    match Vm.durable_dir vm with
    | None -> Format.printf "not durable (nothing to crash out of)@."
    | Some dir ->
      let arg =
        if line = "crash" then ""
        else String.trim (String.sub line 6 (String.length line - 6))
      in
      Vm.close_store vm;
      let wal = Ivm_store.Store.wal_file dir in
      (match String.split_on_char ' ' arg |> List.filter (fun s -> s <> "") with
      | [] -> ()
      | [ "truncate"; n ] ->
        let n = int_of_string n in
        let size = (Unix.stat wal).Unix.st_size in
        Unix.truncate wal (max 0 (size - n))
      | [ "flip"; k ] ->
        let k = int_of_string k in
        let fd = Unix.openfile wal [ Unix.O_RDWR ] 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let b = Bytes.create 1 in
            ignore (Unix.lseek fd k Unix.SEEK_SET);
            if Unix.read fd b 0 1 = 1 then begin
              Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x40));
              ignore (Unix.lseek fd k Unix.SEEK_SET);
              ignore (Unix.write fd b 0 1)
            end)
      | _ -> failwith "usage: crash [truncate N | flip K]");
      Format.printf "crashed: store handle dropped%s ('open %s' recovers)@."
        (if arg = "" then "" else " — " ^ arg)
        dir
  end
  else if line = "show" then show_all vm
  else if String.length line > 5 && String.sub line 0 5 = "show " then
    show_relation vm (String.trim (String.sub line 5 (String.length line - 5)))
  else if String.length line > 8 && String.sub line 0 8 = "addrule " then begin
    Vm.add_rule_text vm (String.sub line 8 (String.length line - 8));
    Format.printf "rule added; views maintained@."
  end
  else if String.length line > 8 && String.sub line 0 8 = "delrule " then begin
    Vm.remove_rule_text vm (String.sub line 8 (String.length line - 8));
    Format.printf "rule removed; views maintained@."
  end
  else if line.[0] = '?' then begin
    let q = String.sub line 1 (String.length line - 1) in
    let result = Ivm_eval.Query.run_text (Vm.database vm) q in
    Format.printf "%a@." Ivm_eval.Query.pp result
  end
  else if line.[0] = '+' then begin
    let pred, tup = parse_fact (String.sub line 1 (String.length line - 1)) in
    apply_and_report vm (Changes.insertions (Vm.program vm) pred [ tup ])
  end
  else if line.[0] = '-' then begin
    let pred, tup = parse_fact (String.sub line 1 (String.length line - 1)) in
    apply_and_report vm (Changes.deletions (Vm.program vm) pred [ tup ])
  end
  else Format.printf "unknown command (try 'help')@."

let protect ?sql vm line =
  try execute ?sql vm line with
  | Ivm_sql.Sql_session.Session_error msg -> Format.printf "sql error: %s@." msg
  | Ivm_sql.Sql_parser.Parse_error msg | Ivm_sql.Sql_translate.Translate_error msg ->
    Format.printf "sql error: %s@." msg
  | Ivm_sql.Sql_lexer.Lex_error msg -> Format.printf "sql error: %s@." msg
  | Failure msg -> Format.printf "error: %s@." msg
  | Sys_error msg -> Format.printf "error: %s@." msg
  | Parser.Parse_error msg | Ivm_datalog.Lexer.Lex_error msg ->
    Format.printf "parse error: %s@." msg
  | Changes.Invalid_changes msg -> Format.printf "invalid change: %s@." msg
  | Ivm.Rule_changes.Unknown_rule msg -> Format.printf "no such rule: %s@." msg
  | Program.Program_error msg -> Format.printf "program error: %s@." msg
  | Ivm_datalog.Safety.Unsafe msg -> Format.printf "unsafe rule: %s@." msg
  | Ivm_datalog.Depgraph.Not_stratifiable msg ->
    Format.printf "not stratifiable: %s@." msg
  | Ivm_store.Store.Corrupt msg -> Format.printf "store corrupt: %s@." msg
  | Invalid_argument msg -> Format.printf "error: %s@." msg

let repl ?sql vm interactive =
  if interactive then begin
    print_endline "ivm — incremental view maintenance shell (try 'help')";
    Format.printf "algorithm: %s, %d rules loaded@."
      (Vm.algorithm_name (Vm.algorithm !vm))
      (List.length (Program.rules (Vm.program !vm)))
  end;
  try
    while true do
      if interactive then begin
        print_string "ivm> ";
        flush stdout
      end;
      let line = input_line stdin in
      if String.trim line = "quit" || String.trim line = "exit" then raise Exit;
      protect ?sql vm line
    done
  with End_of_file | Exit -> ()

(* ---------------- cmdliner wiring ---------------- *)

open Cmdliner

let file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Program to load: Datalog rules and facts, or \
                                 (with $(b,--sql)) an SQL script.")

let sql_flag =
  Arg.(value & flag & info [ "sql" ] ~doc:"Treat $(docv) as an SQL script.")

let semantics_arg =
  let enum_conv =
    Arg.enum
      [ ("set", Ivm_eval.Database.Set_semantics);
        ("duplicate", Ivm_eval.Database.Duplicate_semantics) ]
  in
  Arg.(
    value
    & opt enum_conv Ivm_eval.Database.Set_semantics
    & info [ "s"; "semantics" ] ~docv:"SEM"
        ~doc:"View semantics: $(b,set) or $(b,duplicate).")

let algorithm_arg =
  let enum_conv =
    Arg.enum
      [ ("auto", Vm.Auto); ("counting", Vm.Counting); ("dred", Vm.Dred);
        ("dred-counted", Vm.Dred_counted);
        ("recursive-counting", Vm.Recursive_counting);
        ("recompute", Vm.Recompute) ]
  in
  Arg.(
    value
    & opt enum_conv Vm.Auto
    & info [ "a"; "algorithm" ] ~docv:"ALGO"
        ~doc:"Maintenance algorithm: $(b,auto) (counting on a nonrecursive \
              program, else $(b,dred-counted)), $(b,counting), $(b,dred), \
              $(b,dred-counted) (DRed over one-step derivation counts: no \
              backward rederivation), $(b,recursive-counting) or \
              $(b,recompute).")

let verbose_flag =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"Log maintenance internals (per-stratum \
                                    delta sizes, DRed overestimates).")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "d"; "domains" ] ~docv:"N"
        ~doc:"Evaluate delta rules on $(docv) domains (OCaml multicore); \
              $(b,1) is the sequential path.  Defaults to \\$IVM_DOMAINS or 1.")

let command_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "e"; "execute" ] ~docv:"CMD"
        ~doc:"Execute a shell command non-interactively (repeatable); the \
              REPL is skipped.")

let durable_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "durable" ] ~docv:"DIR"
        ~doc:"Persist the database in $(docv) (snapshot + write-ahead log). \
              An existing store is reopened — its log tail replayed, the \
              program file ignored; otherwise the loaded program is \
              snapshotted there and every change batch is logged before it \
              is applied.")

let monitor_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "monitor" ] ~docv:"PORT"
        ~doc:"Serve $(b,/metrics) (Prometheus), $(b,/healthz), $(b,/statusz) \
              and $(b,/trace) on localhost:$(docv) for the life of the \
              process ($(b,0) picks a free port).")

let run file sql semantics algorithm verbose domains durable monitor commands =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  if domains > 0 then Ivm_par.set_domains domains;
  if sql && durable <> None then
    prerr_endline "warning: --durable is ignored with --sql";
  let session, vm =
    (* an algorithm outside the contract is refused before anything is
       written *)
    try
      match durable with
      | Some dir when (not sql) && Ivm_store.Store.exists dir ->
        (match file with
        | Some _ ->
          Format.eprintf "note: %s is an existing store; program file ignored@." dir
        | None -> ());
        let vm, recovery = Vm.open_durable ~algorithm dir in
        Format.printf "recovered %s: %a@." dir Ivm_store.Store.pp_recovery recovery;
        (None, vm)
      | _ ->
        let durable = if sql then None else durable in
        (match file with
        | Some path ->
          let src = In_channel.with_open_text path In_channel.input_all in
          if sql then
            let session = Ivm_sql.Sql_session.of_script ~semantics ~algorithm src in
            (Some session, Ivm_sql.Sql_session.manager session)
          else (None, Vm.of_source ~semantics ~algorithm ?durable src)
        | None -> (None, Vm.of_source ~semantics ~algorithm ?durable ""))
    with Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      exit 2
  in
  let vm = ref vm in
  (match monitor with Some port -> start_monitor vm port | None -> ());
  if commands = [] then repl ?sql:session vm (Unix.isatty Unix.stdin)
  else List.iter (protect ?sql:session vm) commands;
  match !monitor_server with
  | Some srv ->
    Ivm_monitor.Monitor.stop srv;
    monitor_server := None
  | None -> ()

let cmd =
  let doc = "incrementally maintained materialized views (SIGMOD'93 counting + DRed)" in
  Cmd.v
    (Cmd.info "ivm-shell" ~doc)
    Term.(
      const run $ file_arg $ sql_flag $ semantics_arg $ algorithm_arg
      $ verbose_flag $ domains_arg $ durable_arg $ monitor_arg $ command_arg)

let () = exit (Cmd.eval cmd)
