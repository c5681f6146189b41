(* The static soundness linter: rule families over parse-only fixture
   sources, the malformed-source path, the dogfood sweeps of the
   shipped tree, and the normalized stats CLI error path. *)

open Support
module Lint = Slx_lint.Lint
module Finding = Slx_lint.Finding

(* Test fixtures live under [lint_fixtures/]; the repo tree itself is
   reachable as [..] from the test's working directory. *)
let fixture_root = "lint_fixtures"

let repo_root = ".."

let lint_one file = Lint.run ~root:fixture_root ~paths:[ file ] ()

let rules_of rp =
  List.sort_uniq String.compare
    (List.map (fun f -> f.Finding.rule) rp.Lint.findings)

let has_rule rule rp =
  List.exists (fun f -> f.Finding.rule = rule) rp.Lint.findings

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec at i = i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1)) in
  lsub = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Rule families: one positive and one negative per family.            *)

let test_escape_family () =
  let global = lint_one "bad_escape_global.ml" in
  check_bool "module-level capture flagged" true
    (has_rule "escape-global-mutable" global);
  check_bool "naked mutation of it flagged too" true
    (has_rule "escape-naked-mutation" global);
  let closure = lint_one "bad_escape_closure.ml" in
  Alcotest.(check (list string))
    "unregistered captured ref flagged, nothing else"
    [ "escape-unregistered-state" ] (rules_of closure);
  let good = lint_one "good_escape.ml" in
  Alcotest.(check (list string))
    "registered state, local scratch and driver state allowed" []
    (rules_of good)

let test_determinism_family () =
  let random = lint_one "bad_det_random.ml" in
  Alcotest.(check (list string))
    "Random.int and Hashtbl.hash flagged" [ "det-banned-call" ]
    (rules_of random);
  check_int "both call sites" 2 (List.length random.Lint.findings);
  let physeq = lint_one "bad_det_physeq.ml" in
  Alcotest.(check (list string))
    "== and != flagged" [ "det-physical-equality" ] (rules_of physeq);
  let good = lint_one "good_det.ml" in
  Alcotest.(check (list string))
    "seeded Random.State and structural equality allowed" []
    (rules_of good)

(* The escape rules fire only in code that calls [Runtime.atomic] or
   [touch] itself: the closure state that bad_escape_closure.ml is
   flagged for passes when the step goes through a base object. *)
let test_escape_rules_need_a_primitive () =
  check_bool "the direct twin is flagged" true
    (has_rule "escape-unregistered-state" (lint_one "bad_escape_closure.ml"));
  Alcotest.(check (list string))
    "through a base object: no finding" []
    (rules_of (lint_one "reach_register_closure.ml"))

let test_malformed_source_is_a_finding () =
  let rp = lint_one "malformed.ml" in
  Alcotest.(check (list string))
    "a structured parse-error finding, not an exception" [ "parse-error" ]
    (rules_of rp);
  check_bool "the report gates" false (Lint.clean rp)

(* ------------------------------------------------------------------ *)
(* Dogfood: the shipped tree is clean, and only lib/base_objects names *)
(* the runtime's step and cell primitives.                             *)

let test_shipped_tree_clean () =
  let rp = Lint.run ~root:repo_root () in
  Alcotest.(check (list string))
    "no findings on the shipped tree" []
    (List.map (Format.asprintf "%a" Finding.pp) rp.Lint.findings);
  check_bool "sweep actually covered the tree" true
    (List.length rp.Lint.files > 40)

(* A step, a touch and a registered cell are made in lib/base_objects
   alone.  Elsewhere the escape rules for unregistered closure state
   and naked mutation do not fire (they need a direct [Runtime.atomic]
   or [touch]), so an untouched read of a registered cell could only be
   written there, where test_dpor's commutation QCheck covers every
   primitive. *)
let test_primitives_only_in_base_objects () =
  let rp = Lint.run ~root:repo_root () in
  let outside =
    List.filter
      (fun f -> not (String.starts_with ~prefix:"lib/base_objects/" f))
      rp.Lint.files
  in
  check_bool "the sweep reaches beyond lib/base_objects" true
    (List.length outside > 30);
  let named =
    List.concat_map
      (fun file ->
        let src =
          In_channel.with_open_bin (Filename.concat repo_root file)
            In_channel.input_all
        in
        List.filter_map
          (fun name ->
            if contains ~sub:name src then Some (file ^ ": " ^ name) else None)
          [ "Runtime.atomic"; "Runtime.touch"; "Runtime.register_object" ])
      outside
  in
  Alcotest.(check (list string))
    "no swept source outside lib/base_objects names a step primitive" []
    named

(* ------------------------------------------------------------------ *)
(* The CLIs: the linter's exit codes per fixture, the normalized stats  *)
(* errors, and [slx] staying free of compiler-libs.                    *)

let slx args = Sys.command (Printf.sprintf "../bin/slx_cli.exe %s" args)

let slx_lint args =
  Sys.command (Printf.sprintf "../bin/slx_lint_cli.exe %s" args)

let test_cli_exit_codes () =
  List.iter
    (fun f ->
      check_int
        (Printf.sprintf "slx_lint_cli exits 1 on %s" f)
        1
        (slx_lint
           (Printf.sprintf "--root %s %s >/dev/null 2>&1" fixture_root f)))
    [
      "bad_escape_global.ml"; "bad_escape_closure.ml"; "bad_det_random.ml";
      "bad_det_physeq.ml"; "malformed.ml";
    ];
  List.iter
    (fun f ->
      check_int
        (Printf.sprintf "slx_lint_cli exits 0 on %s" f)
        0
        (slx_lint
           (Printf.sprintf "--root %s %s >/dev/null 2>&1" fixture_root f)))
    [ "good_escape.ml"; "good_det.ml" ]

let test_cli_clean_on_shipped_tree () =
  check_int "slx_lint_cli is clean on the shipped tree" 0
    (slx_lint (Printf.sprintf "--root %s >/dev/null 2>&1" repo_root))

(* The waiver flags are gone: the CLI rejects them as unknown
   options (Cmdliner's exit code 124), not as findings. *)
let test_cli_rejects_waiver_flags () =
  List.iter
    (fun flag ->
      check_int
        (Printf.sprintf "slx_lint_cli %s is a usage error" flag)
        124
        (slx_lint
           (Printf.sprintf "%s --root %s good_det.ml >/dev/null 2>&1" flag
              fixture_root)))
    [ "--ci"; "--waivers lint-waivers.conf" ]

let on_linux () =
  let ic = Unix.open_process_in "uname -s" in
  let os =
    Fun.protect
      ~finally:(fun () -> ignore (Unix.close_process_in ic))
      (fun () -> In_channel.input_all ic)
  in
  String.trim os = "Linux"

(* The ELF type of an image and whether it names a program interpreter
   (a [PT_INTERP] program header), read from its headers.  Searching
   the bytes for "ld-linux" would not do: a static glibc carries that
   string too. *)
let elf_type_and_interp image =
  if String.length image < 64 || String.sub image 0 5 <> "\x7fELF\002" then
    Alcotest.fail "bin/slx_cli.exe is not a 64-bit ELF image";
  let le = image.[5] = '\001' in
  let u16 off =
    if le then String.get_uint16_le image off
    else String.get_uint16_be image off
  and u32 off =
    Int32.to_int
      (if le then String.get_int32_le image off
       else String.get_int32_be image off)
  and u64 off =
    Int64.to_int
      (if le then String.get_int64_le image off
       else String.get_int64_be image off)
  in
  let phoff = u64 32 and phentsize = u16 54 and phnum = u16 56 in
  let pt_interp = 3 in
  let interp =
    List.exists
      (fun i -> u32 (phoff + (i * phentsize)) = pt_interp)
      (List.init phnum Fun.id)
  in
  (u16 16, interp)

(* compiler-libs is linked in full once any library names it, and its
   module initialisers then run in every [slx] process, most of the
   per-query start-up cost.  The linter is a separate executable for
   that reason; a compiler-libs module in [slx] means a dependency
   brought it back.  On Linux [slx] is also linked statically, so that
   no dynamic loader runs before it (bin/dune): a non-PIE executable
   ([ET_EXEC]) with no program interpreter. *)
let test_slx_links_no_compiler_libs () =
  let bin =
    In_channel.with_open_bin "../bin/slx_cli.exe" In_channel.input_all
  in
  List.iter
    (fun sym ->
      check_bool
        (Printf.sprintf "bin/slx_cli.exe contains no %s symbol" sym)
        false (contains ~sub:sym bin))
    [ "camlTypecore"; "camlParser" ];
  if on_linux () then begin
    let et_exec = 2 in
    let typ, interp = elf_type_and_interp bin in
    check_int "bin/slx_cli.exe is an ET_EXEC image" et_exec typ;
    check_bool "bin/slx_cli.exe has no PT_INTERP header" false interp
  end;
  check_int "slx lint is a usage error" 124
    (slx "lint --ci >/dev/null 2>&1");
  check_int "slx audit is a usage error" 124
    (slx "audit >/dev/null 2>&1")

(* What a static [slx] cannot rely on: glibc serves the NSS lookups
   (names, users, groups, services, protocols) and [dlopen] by loading
   shared libraries at run time, which in a static binary works only
   where the very glibc it was built against is installed.  [slx]
   calls none of them -- serve and its client take numeric addresses --
   and no source under lib/ or bin/ may start to, or link Dynlink.  A
   name counts as a whole identifier, in code or in a comment. *)
let nss_or_dynlink =
  [
    "Dynlink"; "gethostbyname"; "gethostbyaddr"; "getaddrinfo";
    "getnameinfo"; "getpwnam"; "getpwuid"; "getgrnam"; "getgrgid";
    "getlogin"; "getservbyname"; "getservbyport"; "getprotobyname";
    "getprotobynumber"; "initgroups";
  ]

let rec ocaml_sources dir =
  List.concat_map
    (fun entry ->
      let path = Filename.concat dir entry in
      if Sys.is_directory path then ocaml_sources path
      else if
        Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
      then [ path ]
      else [])
    (List.sort String.compare (Array.to_list (Sys.readdir dir)))

(* The identifiers of a source text, comments included. *)
let identifiers s =
  let ident = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  let n = String.length s in
  let rec go i acc =
    if i >= n then acc
    else if ident s.[i] then begin
      let j = ref i in
      while !j < n && ident s.[!j] do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let test_no_nss_or_dynlink () =
  let sources = ocaml_sources "../lib" @ ocaml_sources "../bin" in
  check_bool "the scan reads lib/ and bin/" true
    (List.mem "../bin/slx_cli.ml" sources && List.length sources > 50);
  let named =
    List.concat_map
      (fun path ->
        let ids =
          identifiers (In_channel.with_open_bin path In_channel.input_all)
        in
        List.filter_map
          (fun id ->
            if List.mem id ids then Some (path ^ ": " ^ id) else None)
          nss_or_dynlink)
      sources
  in
  Alcotest.(check (list string))
    "no source names an NSS lookup or Dynlink" [] named

let test_stats_errors_normalized () =
  (* Under [timeout], so that a server that starts fails the check
     instead of hanging it. *)
  let run args =
    let err = Filename.temp_file "slx_stats" ".err" in
    let rc =
      Sys.command
        (Printf.sprintf "timeout 30 ../bin/slx_cli.exe %s >/dev/null 2>%s"
           args err)
    in
    let ic = open_in_bin err in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove err;
    (rc, contents)
  in
  let check_path args =
    let rc, stderr_out = run args in
    check_int (args ^ " exits 2") 2 rc;
    check_bool
      (args ^ " reports through the structured error path")
      true
      (contains ~sub:"[slx] error:" stderr_out)
  in
  check_path "stats --store /nonexistent/dir/store.slx";
  check_path "stats --trace /nonexistent/dir/trace.json";
  check_path "stats";
  (* A --store in a directory that does not exist is refused before
     any engine work or socket, not after the verdict. *)
  check_path "explore --store /nonexistent/dir/x.store";
  check_path "live-explore --store /nonexistent/dir/x.store";
  check_path "serve --store /nonexistent/dir/x.store"

let suites =
  [
    ( "lint.rules",
      [
        quick "escape family: positives and negative" test_escape_family;
        quick "determinism family: positives and negative"
          test_determinism_family;
        quick "malformed source is a structured finding"
          test_malformed_source_is_a_finding;
        quick "escape rules need a direct atomic or touch"
          test_escape_rules_need_a_primitive;
      ] );
    ( "lint.dogfood",
      [
        quick "shipped tree clean" test_shipped_tree_clean;
        quick "only lib/base_objects names the step primitives"
          test_primitives_only_in_base_objects;
      ] );
    ( "lint.cli",
      [
        quick "exit codes across the fixture set" test_cli_exit_codes;
        quick "lint clean on the shipped tree" test_cli_clean_on_shipped_tree;
        quick "waiver flags are usage errors" test_cli_rejects_waiver_flags;
        quick "stats errors share one structured path"
          test_stats_errors_normalized;
        quick "slx links no compiler-libs module"
          test_slx_links_no_compiler_libs;
        quick "no NSS lookup or Dynlink in lib/ and bin/"
          test_no_nss_or_dynlink;
      ] );
  ]
