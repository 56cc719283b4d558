(* The CLI's help pages render cleanly: `pipesyn --help=plain` and
   `pipesyn CMD --help=plain` for every subcommand exit 0 and write
   nothing to stderr. Cmdliner reports malformed doc markup (an illegal
   escape, an unbalanced $(...)) on stderr while still printing the
   page, so a broken doc string is otherwise invisible. *)

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

let () =
  Alcotest.run "cli"
    [
      ( "help",
        [
          Alcotest.test_case "--help=plain is clean for every subcommand"
            `Quick test_help_clean;
        ] );
    ]
