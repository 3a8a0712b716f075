(** Documentation drift tests: the README's shell command reference is
    generated-by-hand but checked-by-machine — its rows must match the
    live `help` output of the built shell, command for command. *)

let read_lines path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | Some l -> go (l :: acc)
        | None -> List.rev acc
      in
      go [])

(* Under `dune runtest` the working directory is the build copy of
   test/; under a bare `dune exec test/main.exe` it is the project
   root.  Resolve every artifact against both. *)
let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.failf "none of [%s] exist" (String.concat "; " candidates)

(* ---------------- the shell's help text ---------------- *)

let shell_exe () =
  locate
    [ Filename.concat (Filename.concat ".." "bin") "ivm_shell.exe";
      "_build/default/bin/ivm_shell.exe" ]

let shell_help_lines () =
  let shell_exe = shell_exe () in
  let ic = Unix.open_process_in (Filename.quote_command shell_exe [ "-e"; "help" ]) in
  let rec go acc =
    match In_channel.input_line ic with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  let lines = go [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> Alcotest.failf "%s -e help did not exit cleanly" shell_exe

(* A command line of the help text is indented by exactly two spaces and
   separates the command phrase from its description with a run of at
   least two spaces.  Continuation lines are indented deeper and are
   skipped. *)
let is_command_line l =
  String.length l > 2 && l.[0] = ' ' && l.[1] = ' ' && l.[2] <> ' '

let phrase_of_line l =
  let body = String.sub l 2 (String.length l - 2) in
  let n = String.length body in
  let rec split i =
    if i + 1 >= n then body
    else if body.[i] = ' ' && body.[i + 1] = ' ' then String.sub body 0 i
    else split (i + 1)
  in
  String.trim (split 0)

let help_commands () =
  List.filter_map
    (fun l -> if is_command_line l then Some (phrase_of_line l) else None)
    (shell_help_lines ())

(* ---------------- the README's command table ---------------- *)

let readme () = locate [ Filename.concat ".." "README.md"; "README.md" ]
let section_heading = "### Shell command reference"

let readme_commands () =
  let lines = read_lines (readme ()) in
  let rec find = function
    | [] -> Alcotest.failf "README.md has no %S section" section_heading
    | l :: rest -> if String.trim l = section_heading then rest else find rest
  in
  let rec rows acc = function
    | [] -> List.rev acc
    | l :: _ when String.length l > 0 && l.[0] = '#' -> List.rev acc
    | l :: rest ->
      let acc =
        if String.length l > 3 && String.sub l 0 3 = "| `" then
          match String.index_from_opt l 3 '`' with
          | Some close -> String.sub l 3 (close - 3) :: acc
          | None -> Alcotest.failf "unterminated command cell in README row %S" l
        else acc
      in
      rows acc rest
  in
  rows [] (find lines)

(* ---------------- the tests ---------------- *)

let test_command_table_matches_help () =
  let from_help = help_commands () in
  let from_readme = readme_commands () in
  Alcotest.(check bool) "help lists commands" true (List.length from_help > 10);
  Alcotest.(check (list string))
    "README shell command table = shell `help` output (same commands, same order)"
    from_help from_readme

let test_monitor_commands_documented () =
  (* The monitoring/EXPLAIN surface must stay in the shell's help (and
     hence, via the table check above, in the README). *)
  let from_help = help_commands () in
  List.iter
    (fun cmd ->
      Alcotest.(check bool) (Printf.sprintf "help lists %S" cmd) true
        (List.mem cmd from_help))
    [ "explain last"; "explain N"; "provenance on/off/status"; "why FACT.";
      "why not FACT."; "lineage FACT."; "monitor start PORT"; "monitor stop" ];
  (* and the README's observability section documents the endpoints *)
  let text = String.concat "\n" (read_lines (readme ())) in
  let has needle =
    Alcotest.(check bool) (Printf.sprintf "README mentions %s" needle) true
      (let nl = String.length needle and tl = String.length text in
       let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
       at 0)
  in
  List.iter has
    [ "--monitor"; "/metrics"; "/healthz"; "/statusz"; "/trace"; "/requestz";
      "/why"; "IVM_ATTRIBUTION"; "IVM_SLOW_BATCH_MS"; "IVM_REQTRACE";
      "IVM_SLOW_REQUEST_MS"; "--timings" ]

let test_readme_mentions_docs () =
  (* The persistence spec the README and ARCHITECTURE.md point at must
     exist and describe both magic numbers. *)
  let spec =
    locate
      [ Filename.concat (Filename.concat ".." "docs") "PERSISTENCE.md";
        "docs/PERSISTENCE.md" ]
  in
  let text = String.concat "\n" (read_lines spec) in
  let has needle =
    Alcotest.(check bool) (Printf.sprintf "PERSISTENCE.md mentions %s" needle) true
      (let nl = String.length needle and tl = String.length text in
       let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
       at 0)
  in
  List.iter has [ "IVMSNAP1"; "IVMWAL01"; "0xEDB88320"; "0xCBF43926" ]

let test_statecheck_vocabulary_documented () =
  (* Every command the statecheck harness can generate prints as shell
     syntax whose help phrase must exist verbatim in `help` (and hence,
     via the table check above, in the README): a failing trace is a
     replayable script only while this holds. *)
  let from_help = help_commands () in
  List.iter
    (fun cmd ->
      Alcotest.(check bool)
        (Printf.sprintf "statecheck command %S documented in help" cmd)
        true (List.mem cmd from_help))
    Ivm_statecheck.Cmd.vocabulary

(* ---------------- the protocol spec (docs/PROTOCOL.md) ---------------- *)

module Protocol = Ivm_serve.Protocol

let protocol_spec () =
  locate
    [ Filename.concat (Filename.concat ".." "docs") "PROTOCOL.md";
      "docs/PROTOCOL.md" ]

(* Lines of one "## N. Title" section of the spec. *)
let spec_section heading =
  let lines = read_lines (protocol_spec ()) in
  let rec find = function
    | [] -> Alcotest.failf "PROTOCOL.md has no %S section" heading
    | l :: rest -> if String.trim l = heading then rest else find rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: _ when String.length l > 2 && String.sub l 0 3 = "## " -> List.rev acc
    | l :: rest -> take (l :: acc) rest
  in
  take [] (find lines)

(* First two backtick-quoted cells of a markdown table row. *)
let row_cells l =
  if String.length l < 2 || String.sub l 0 2 <> "| " then None
  else
    match String.split_on_char '`' l with
    | _ :: first :: _ :: second :: _ -> Some (first, second)
    | _ -> None

let test_opcode_table_matches_protocol () =
  let from_spec =
    List.filter_map
      (fun l ->
        match row_cells l with
        | Some (code, name) when String.length code > 2 && String.sub code 0 2 = "0x"
          -> Some (int_of_string code, name)
        | _ -> None)
      (spec_section "## 3. Opcodes")
  in
  Alcotest.(check (list (pair int string)))
    "PROTOCOL.md §3 opcode table = Protocol.opcodes (same rows, same order)"
    Protocol.opcodes from_spec

let test_error_table_matches_protocol () =
  let from_spec =
    List.filter_map
      (fun l ->
        match row_cells l with
        | Some (code, name) -> (
          match int_of_string_opt code with
          | Some c -> Some (c, name)
          | None -> None)
        | _ -> None)
      (spec_section "## 6. Error codes")
  in
  let from_code =
    List.filter_map
      (fun c ->
        Option.map
          (fun e -> (c, Protocol.error_code_name e))
          (Protocol.error_code_of_int c))
      (List.init 32 Fun.id)
  in
  Alcotest.(check (list (pair int string)))
    "PROTOCOL.md §6 error table = Protocol error codes" from_code from_spec

(* One sample message per opcode; encoding and re-decoding each proves
   every opcode the spec lists is live in the real codec. *)
let sample_messages : (int * string) list =
  let rel = Ivm_relation.Relation.of_list 1 [] in
  let requests =
    [ Protocol.Hello { version = Protocol.version; token = "t" };
      Protocol.Ping;
      Protocol.Query { body = "p(X)"; trace = "" };
      Protocol.Apply { changes = [ ("p", rel) ]; trace = "" };
      Protocol.Subscribe "v"; Protocol.Status; Protocol.Close ]
  in
  let responses =
    [ Protocol.Hello_ok { version = Protocol.version; seq = 7 };
      Protocol.Pong;
      Protocol.Answer { columns = [ "X" ]; rows = rel };
      Protocol.Applied { seq = 7; deltas = [ ("v", rel) ]; timings = [] };
      Protocol.Sub_ok "v"; Protocol.Status_reply "{}"; Protocol.Bye;
      Protocol.Delta { seq = 7; pred = "v"; delta = rel };
      Protocol.Error { code = Protocol.Internal; message = "m" } ]
  in
  List.map
    (fun r ->
      let payload = Protocol.encode_request r in
      (* decode must succeed and preserve the opcode; semantic equality
         is the serve suite's QCheck property *)
      if
        Protocol.opcode_of_request (Protocol.decode_request payload)
        <> Protocol.opcode_of_request r
      then
        Alcotest.failf "request opcode 0x%02x did not round-trip"
          (Protocol.opcode_of_request r);
      (Protocol.opcode_of_request r, payload))
    requests
  @ List.map
      (fun r ->
        let payload = Protocol.encode_response r in
        if
          Protocol.opcode_of_response (Protocol.decode_response payload)
          <> Protocol.opcode_of_response r
        then
          Alcotest.failf "response opcode 0x%02x did not round-trip"
            (Protocol.opcode_of_response r);
        (Protocol.opcode_of_response r, payload))
      responses

let test_every_spec_opcode_roundtrips () =
  let covered = List.map fst sample_messages in
  List.iter
    (fun (code, name) ->
      Alcotest.(check bool)
        (Printf.sprintf "spec opcode 0x%02x (%s) round-trips through the codec"
           code name)
        true (List.mem code covered))
    Protocol.opcodes;
  (* and the codec has no opcodes the spec forgot *)
  List.iter
    (fun code ->
      Alcotest.(check bool)
        (Printf.sprintf "codec opcode 0x%02x is in the spec table" code)
        true
        (List.mem_assoc code Protocol.opcodes))
    covered

(* The §9 trace-context spec must name every stage the implementation
   can put in a request's chain — a renamed or added stage without a
   spec update fails here. *)
let test_trace_context_section_tracks_stages () =
  let text =
    String.concat "\n"
      (spec_section "## 9. Trace context (optional, backward compatible)")
  in
  let has needle =
    Alcotest.(check bool)
      (Printf.sprintf "PROTOCOL.md §9 mentions stage %s" needle)
      true
      (let nl = String.length needle and tl = String.length text in
       let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
       at 0)
  in
  List.iter has Ivm_obs.Reqtrace.apply_stages;
  List.iter has Ivm_obs.Reqtrace.query_stages;
  has "/requestz"

(* ---------------- the client's command table ---------------- *)

let client_exe () =
  locate
    [ Filename.concat (Filename.concat ".." "bin") "ivm_client.exe";
      "_build/default/bin/ivm_client.exe" ]

(* `help` must work offline — the client only connects on demand. *)
let client_help_commands () =
  let exe = client_exe () in
  let ic = Unix.open_process_in (Filename.quote_command exe [ "-e"; "help" ]) in
  let rec go acc =
    match In_channel.input_line ic with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  let lines = go [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
    List.filter_map
      (fun l -> if is_command_line l then Some (phrase_of_line l) else None)
      lines
  | _ -> Alcotest.failf "%s -e help did not exit cleanly (offline)" exe

let client_section_heading = "### Server client commands"

let client_readme_commands () =
  let lines = read_lines (readme ()) in
  let rec find = function
    | [] -> Alcotest.failf "README.md has no %S section" client_section_heading
    | l :: rest -> if String.trim l = client_section_heading then rest else find rest
  in
  let rec rows acc = function
    | [] -> List.rev acc
    | l :: _ when String.length l > 0 && l.[0] = '#' -> List.rev acc
    | l :: rest ->
      let acc =
        if String.length l > 3 && String.sub l 0 3 = "| `" then
          match String.index_from_opt l 3 '`' with
          | Some close -> String.sub l 3 (close - 3) :: acc
          | None -> Alcotest.failf "unterminated command cell in README row %S" l
        else acc
      in
      rows acc rest
  in
  rows [] (find lines)

let test_client_table_matches_help () =
  let from_help = client_help_commands () in
  let from_readme = client_readme_commands () in
  Alcotest.(check bool) "client help lists commands" true
    (List.length from_help >= 8);
  Alcotest.(check (list string))
    "README server-client table = ivm-client `help` output (same commands, \
     same order)"
    from_help from_readme

(* ---------------- the experiment index (EXPERIMENTS.md) ---------------- *)

let bench_exe () =
  locate
    [ Filename.concat (Filename.concat ".." "bench") "main.exe";
      "_build/default/bench/main.exe" ]

(* The ids the bench knows, from the "known:" line it prints when asked
   for an id it does not know. *)
let bench_known_ids () =
  let cmd = Filename.quote_command (bench_exe ()) [ "no-such-experiment" ] in
  let out, inp, err = Unix.open_process_full cmd (Unix.environment ()) in
  let lines = In_channel.input_lines err in
  ignore (In_channel.input_all out);
  ignore (Unix.close_process_full (out, inp, err));
  match
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"known: " l then
          Some (String.sub l 7 (String.length l - 7))
        else None)
      lines
  with
  | Some ids -> List.filter (( <> ) "") (String.split_on_char ' ' ids)
  | None -> Alcotest.fail "bench/main.exe printed no \"known:\" line"

let index_heading = "## Experiment index"

(* (id, command) of every row of the index table: its first two
   backtick-quoted cells. *)
let experiment_index () =
  let lines =
    read_lines (locate [ Filename.concat ".." "EXPERIMENTS.md"; "EXPERIMENTS.md" ])
  in
  let rec find = function
    | [] -> Alcotest.failf "EXPERIMENTS.md has no %S section" index_heading
    | l :: rest -> if String.trim l = index_heading then rest else find rest
  in
  let rec rows acc = function
    | [] -> List.rev acc
    | l :: _ when String.length l > 0 && l.[0] = '#' -> List.rev acc
    | l :: rest ->
      rows (match row_cells l with Some row -> row :: acc | None -> acc) rest
  in
  rows [] (find lines)

let test_experiment_index_tracks_bench () =
  let index = experiment_index () in
  let has_sub needle text =
    let nl = String.length needle and tl = String.length text in
    let rec at i = i + nl <= tl && (String.sub text i nl = needle || at (i + 1)) in
    at 0
  in
  let bench_rows =
    List.filter
      (fun (_, cmd) ->
        String.starts_with ~prefix:"dune exec bench/main.exe" cmd
        && not (has_sub "--regress" cmd))
      index
  in
  (* each bench row's command runs the experiment it names *)
  List.iter
    (fun (id, cmd) ->
      Alcotest.(check bool)
        (Printf.sprintf "command of %s ends with its id" id)
        true
        (String.ends_with ~suffix:(" " ^ id) cmd))
    bench_rows;
  Alcotest.(check (list string))
    "EXPERIMENTS.md index rows run by bench/main.exe = the ids it knows"
    (List.sort compare (bench_known_ids ()))
    (List.sort compare (List.map fst bench_rows));
  List.iter
    (fun (what, needle) ->
      Alcotest.(check bool)
        (Printf.sprintf "EXPERIMENTS.md index has a %s row" what)
        true
        (List.exists (fun (_, cmd) -> has_sub needle cmd) index))
    [ ("--regress", "bench/main.exe -- --regress");
      ("serve_load", "bench/serve_load.exe");
      ("perfbench", "perfbench/run.py") ]

let suite =
  [
    Alcotest.test_case "shell command table tracks help" `Quick
      test_command_table_matches_help;
    Alcotest.test_case "protocol spec opcode table tracks the codec" `Quick
      test_opcode_table_matches_protocol;
    Alcotest.test_case "protocol spec error table tracks the codec" `Quick
      test_error_table_matches_protocol;
    Alcotest.test_case "every spec opcode round-trips" `Quick
      test_every_spec_opcode_roundtrips;
    Alcotest.test_case "trace-context spec tracks the stage chain" `Quick
      test_trace_context_section_tracks_stages;
    Alcotest.test_case "client command table tracks help" `Quick
      test_client_table_matches_help;
    Alcotest.test_case "statecheck vocabulary tracks help" `Quick
      test_statecheck_vocabulary_documented;
    Alcotest.test_case "monitor + explain commands documented" `Quick
      test_monitor_commands_documented;
    Alcotest.test_case "persistence spec present and specific" `Quick
      test_readme_mentions_docs;
    Alcotest.test_case "experiment index tracks bench ids" `Quick
      test_experiment_index_tracks_bench;
  ]
