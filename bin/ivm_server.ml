(* ivm-serve: the multi-client view server (docs/PROTOCOL.md).

   Load a Datalog program (or reopen a durable store), then serve it to
   concurrent clients: snapshot-consistent queries on a reader pool, a
   single writer group-committing client update batches into the
   write-ahead log with one fsync per group.

     $ dune exec bin/ivm_serve.exe -- examples.dl --durable /tmp/store --port 7401
     ivm-serve: serving on 127.0.0.1:7401 (protocol v1, 2 readers)

   Stop with SIGINT/SIGTERM: the server drains the apply queue, commits
   it, says Bye to every client and exits cleanly. *)

module Vm = Ivm.View_manager
module Server = Ivm_serve.Server

let quit = ref false

let run file algorithm semantics domains durable host port readers auth
    max_sessions max_batch_tuples monitor =
  if domains > 0 then Ivm_par.set_domains domains;
  let vm =
    (* an algorithm outside the contract is refused before anything is
       written: no store directory, no log record *)
    try
      match durable with
      | Some dir when Ivm_store.Store.exists dir ->
        (match file with
        | Some _ ->
          Format.eprintf "note: %s is an existing store; program file ignored@." dir
        | None -> ());
        let vm, recovery = Vm.open_durable ~algorithm dir in
        Format.printf "recovered %s: %a@." dir Ivm_store.Store.pp_recovery recovery;
        vm
      | _ ->
        let src =
          match file with
          | Some path -> In_channel.with_open_text path In_channel.input_all
          | None -> ""
        in
        Vm.of_source ~semantics ~algorithm ?durable src
    with Invalid_argument msg ->
      Format.eprintf "error: %s@." msg;
      exit 2
  in
  let config =
    {
      Server.default_config with
      auth_token = auth;
      readers;
      max_sessions;
      max_batch_tuples;
    }
  in
  let srv = Server.start ~host ~config ~vm ~port () in
  let mon =
    match monitor with
    | None -> None
    | Some mport ->
      let m =
        Ivm_monitor.Monitor.start
          ~config:
            {
              Ivm_monitor.Monitor.status = (fun () -> Server.status_json srv);
              before_metrics =
                (fun () ->
                  (* snapshot age + per-reader epoch lag, fresh per scrape *)
                  Ivm_serve.Snap_pub.refresh_gauges (Server.publisher srv));
              explain = Some (fun q -> Vm.explain_json vm q);
            }
          ~port:mport ()
      in
      Format.printf "monitoring on http://127.0.0.1:%d@."
        (Ivm_monitor.Monitor.port m);
      Some m
  in
  Format.printf "ivm-serve: serving on %s:%d (protocol v%d, %d readers)@." host
    (Server.port srv) Ivm_serve.Protocol.version readers;
  let stop_sig _ = quit := true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_sig);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_sig);
  while not !quit do
    Unix.sleepf 0.2
  done;
  Format.printf "ivm-serve: shutting down@.";
  Server.stop srv;
  (match mon with Some m -> Ivm_monitor.Monitor.stop m | None -> ());
  let s = Server.stats srv in
  Format.printf
    "ivm-serve: served %d sessions, %d batches in %d group commits@."
    s.Server.accepted s.Server.committed_batches s.Server.group_commits

open Cmdliner

let file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Datalog program to serve (rules and facts).")

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

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "d"; "domains" ] ~docv:"N"
        ~doc:"Evaluate delta rules on $(docv) domains (OCaml multicore).")

let durable_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "durable" ] ~docv:"DIR"
        ~doc:"Persist the database in $(docv) (snapshot + write-ahead log). \
              An existing store is reopened and its log tail replayed; \
              client batches are group-committed into the log.")

let host_arg =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")

let port_arg =
  Arg.(
    value & opt int 7401
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"TCP port to serve on ($(b,0) picks a free port).")

let readers_arg =
  Arg.(
    value & opt int Ivm_serve.Server.default_config.readers
    & info [ "readers" ] ~docv:"N"
        ~doc:"Reader-domain pool size: concurrent snapshot queries.")

let auth_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "auth" ] ~docv:"TOKEN"
        ~doc:"Require this token in the $(b,hello) handshake.")

let max_sessions_arg =
  Arg.(
    value & opt int Ivm_serve.Server.default_config.max_sessions
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:"Refuse connections beyond $(docv) concurrent sessions.")

let max_batch_arg =
  Arg.(
    value & opt int Ivm_serve.Server.default_config.max_batch_tuples
    & info [ "max-batch-tuples" ] ~docv:"N"
        ~doc:"Reject apply batches larger than $(docv) tuples.")

let monitor_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "monitor" ] ~docv:"PORT"
        ~doc:"Also serve $(b,/metrics), $(b,/healthz), $(b,/statusz) over \
              HTTP on localhost:$(docv).")

let cmd =
  let doc = "serve incrementally maintained views to concurrent clients" in
  Cmd.v
    (Cmd.info "ivm-serve" ~doc)
    Term.(
      const run $ file_arg $ algorithm_arg $ semantics_arg $ domains_arg
      $ durable_arg $ host_arg $ port_arg $ readers_arg $ auth_arg
      $ max_sessions_arg $ max_batch_arg $ monitor_arg)

let () = exit (Cmd.eval cmd)
