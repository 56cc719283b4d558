(* The CLI end to end. The help pages render cleanly: `pipesyn
   --help=plain` and `pipesyn CMD --help=plain` for every subcommand exit
   0 and write nothing to stderr. Cmdliner reports malformed doc markup
   (an illegal escape, an unbalanced $(...)) on stderr while still
   printing the page, so a broken doc string is otherwise invisible.
   `pipesyn lint --all --json` reports the registry error-free, and
   `pipesyn run --json` writes a metrics file that parses. *)

let exe = Filename.concat Filename.parent_dir_name "bin/pipesyn.exe"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Run [pipesyn args], returning (exit code, stdout, stderr). *)
let run args =
  let out = Filename.temp_file "pipesyn_cli" ".out" in
  let err = Filename.temp_file "pipesyn_cli" ".err" in
  let code =
    Sys.command (Filename.quote_command exe ~stdout:out ~stderr:err args)
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

(* Subcommand names from the COMMANDS section of the top-level page:
   entries are indented by exactly seven spaces, descriptions deeper. *)
let subcommands () =
  let _, page, _ = run [ "--help=plain" ] in
  let lines = String.split_on_char '\n' page in
  let rec skip = function
    | [] -> []
    | l :: rest -> if l = "COMMANDS" then rest else skip rest
  in
  let rec collect acc = function
    | l :: rest when l = "" || l.[0] = ' ' ->
        let entry =
          String.length l > 7
          && String.sub l 0 7 = "       "
          && l.[7] <> ' '
        in
        if entry then
          let name = List.hd (String.split_on_char ' ' (String.trim l)) in
          collect (name :: acc) rest
        else collect acc rest
    | _ -> List.rev acc
  in
  collect [] (skip lines)

let check_clean args =
  let name = String.concat " " ("pipesyn" :: args) in
  let code, out, err = run args in
  Alcotest.(check int) (name ^ ": exit code") 0 code;
  Alcotest.(check bool) (name ^ ": page printed") true (out <> "");
  Alcotest.(check string) (name ^ ": stderr") "" err

let test_help_clean () =
  let cmds = subcommands () in
  List.iter
    (fun c ->
      Alcotest.(check bool) ("subcommand listed: " ^ c) true (List.mem c cmds))
    [ "run"; "resume"; "audit"; "bench-diff" ];
  check_clean [ "--help=plain" ];
  List.iter (fun c -> check_clean [ c; "--help=plain" ]) cmds

(* The registry is lint-clean: `pipesyn lint --all --json` writes a
   schema-10 report that lists every benchmark with no error-severity
   diagnostic. *)
let test_lint_all_clean () =
  let path = Filename.temp_file "pipesyn_lint" ".json" in
  let code, _, _ = run [ "lint"; "--all"; "--json"; path ] in
  let text = read_file path in
  Sys.remove path;
  Alcotest.(check int) "lint exit code" 0 code;
  let doc =
    match Obs.Json.of_string text with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "diagnostics JSON: %s" msg
  in
  Alcotest.(check bool) "schema_version = 10" true
    (Obs.Json.member "schema_version" doc = Some (Obs.Json.Int 10));
  let benches =
    match Obs.Json.member "benchmarks" doc with
    | Some (Obs.Json.List l) -> l
    | _ -> []
  in
  Alcotest.(check bool) "benchmarks linted" true (benches <> []);
  List.iter
    (fun b ->
      let name =
        match Obs.Json.member "name" b with
        | Some (Obs.Json.String s) -> s
        | _ -> "?"
      in
      Alcotest.(check bool) (name ^ ": errors = 0") true
        (Obs.Json.member "errors" b = Some (Obs.Json.Int 0)))
    benches

(* `pipesyn run -b CLZ -m hls --json` exits 0 and writes a schema-10
   metrics file whose [obs] section carries the cut enumeration's work
   counter. *)
let test_run_metrics_json () =
  let path = Filename.temp_file "pipesyn_run" ".json" in
  let code, _, _ = run [ "run"; "-b"; "CLZ"; "-m"; "hls"; "--json"; path ] in
  let text = read_file path in
  Sys.remove path;
  Alcotest.(check int) "run exit code" 0 code;
  let doc =
    match Obs.Json.of_string text with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "metrics JSON: %s" msg
  in
  Alcotest.(check bool) "schema_version = 10" true
    (Obs.Json.member "schema_version" doc = Some (Obs.Json.Int 10));
  let obs =
    match Obs.Json.member "obs" doc with
    | Some obs -> obs
    | None -> Alcotest.fail "metrics JSON: no obs section"
  in
  Alcotest.(check bool) "obs has cuts.support_bits" true
    (Obs.Json.member "cuts.support_bits" obs <> None)

let () =
  Alcotest.run "cli"
    [
      ( "help",
        [
          Alcotest.test_case "--help=plain is clean for every subcommand"
            `Quick test_help_clean;
        ] );
      ( "lint",
        [
          Alcotest.test_case "--all --json is error-free" `Quick
            test_lint_all_clean;
        ] );
      ( "run",
        [
          Alcotest.test_case "--json writes schema-10 metrics" `Quick
            test_run_metrics_json;
        ] );
    ]
