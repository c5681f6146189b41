open Parsetree
module SSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Small AST utilities.                                                *)

let rec unwrap e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e) ->
      unwrap e
  | _ -> e

let path_of e =
  match (unwrap e).pexp_desc with
  | Pexp_ident { txt; _ } -> ( try Some (Longident.flatten txt) with _ -> None)
  | _ -> None

(* [...Runtime.name] with any (or no) prefix before [Runtime]. *)
let is_runtime name path =
  match List.rev path with
  | n :: "Runtime" :: _ -> String.equal n name
  | _ -> false

let iter_exprs f e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          f e;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e

let exists_expr pred e =
  let found = ref false in
  iter_exprs (fun e -> if pred e then found := true) e;
  !found

let mentions name e =
  exists_expr
    (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> String.equal x name
      | _ -> false)
    e

let sub_lambdas e =
  let acc = ref [] in
  iter_exprs
    (fun e ->
      match e.pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> acc := e :: !acc
      | _ -> ())
    e;
  !acc

let pat_vars p =
  let acc = ref SSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_var { txt; _ } -> acc := SSet.add txt !acc
          | Ppat_alias (_, { txt; _ }) -> acc := SSet.add txt !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.pat it p;
  !acc

let rec fun_params e =
  match (unwrap e).pexp_desc with
  | Pexp_fun (lbl, _, pat, body) ->
      let ps, b = fun_params body in
      ((lbl, pat) :: ps, b)
  | _ -> ([], e)

(* The handle roots of an expression: the free lowercase identifiers
   it is built from, skipping identifiers in function position (so
   [snd a] and [r.obj] both root at the handle, not the accessor). *)
let roots e =
  let acc = ref SSet.empty in
  let rec go e =
    let e = unwrap e in
    match e.pexp_desc with
    | Pexp_ident { txt = Longident.Lident x; _ } -> acc := SSet.add x !acc
    | Pexp_ident _ -> ()
    | Pexp_field (b, _) -> go b
    | Pexp_apply (f, args) ->
        (match (unwrap f).pexp_desc with Pexp_ident _ -> () | _ -> go f);
        List.iter (fun (_, a) -> go a) args
    | Pexp_tuple es -> List.iter go es
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> go a
    | Pexp_constant _ | Pexp_construct (_, None) | Pexp_variant (_, None) -> ()
    | _ -> iter_exprs
             (fun e ->
               match e.pexp_desc with
               | Pexp_ident { txt = Longident.Lident x; _ } ->
                   acc := SSet.add x !acc
               | _ -> ())
             e
  in
  go e;
  !acc

(* ------------------------------------------------------------------ *)
(* Classification tables.                                              *)

let creation_name = function
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | [ "Array"; ("make" | "init" | "create_float" | "make_matrix") ]
  | [ "Bytes"; ("create" | "make") ]
  | [ "Hashtbl"; "create" ]
  | [ "Atomic"; "make" ]
  | [ "Buffer"; "create" ]
  | [ "Queue"; "create" ]
  | [ "Stack"; "create" ]
  | [ "Weak"; "create" ] as p ->
      Some (String.concat "." p)
  | _ -> None

let mutation_name = function
  | [ ":=" ] | [ "incr" ] | [ "decr" ] -> true
  | [ "Array"; ("set" | "fill" | "blit") ]
  | [ "Bytes"; ("set" | "fill" | "blit") ]
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear") ]
  | [ "Atomic"; ("set" | "exchange" | "compare_and_set" | "fetch_and_add"
               | "incr" | "decr") ] ->
      true
  | _ -> false

(* The determinism banlist.  [Random.State] (explicit, seeded state
   threaded by the caller) is deliberately allowed: it is replay-
   deterministic.  The global [Random] functions mutate the hidden
   default state and are not. *)
let det_banned = function
  | "Random" :: rest when (match rest with "State" :: _ -> false | _ -> true)
    -> true
  | [ "Hashtbl"; ("hash" | "hash_param" | "seeded_hash" | "randomize") ]
  | [ "Sys"; ("time" | "cpu_time" | "opaque_identity") ]
  | [ "Unix"; ("gettimeofday" | "time" | "times") ]
  | [ "Domain"; ("spawn" | "self" | "join" | "cpu_relax") ]
  | [ "Oo"; "id" ] ->
      true
  | "Gc" :: _ :: _ -> true
  | _ -> false

let is_register_path path =
  match List.rev path with
  | ("register_object" | "fingerprinted") :: _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Pass A: per-file helper discovery.                                  *)

type helpers = {
  registering : SSet.t;  (** names whose body reaches a registration *)
  touching : SSet.t;  (** names whose body reaches the runtime *)
}

let named_functions str =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } ->
              let params, body = fun_params vb.pvb_expr in
              if params <> [] then acc := (txt, params, body) :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  List.iter (it.structure_item it) str;
  !acc

(* Registration and runtime-reaching named functions, each to a
   fixpoint over the file's named functions. *)
let discover str =
  let fns = named_functions str in
  let reaches body pred locals =
    exists_expr
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } -> begin
            match Longident.flatten txt with
            | exception _ -> false
            | [ x ] when SSet.mem x locals -> true
            | p -> pred p
          end
        | _ -> false)
      body
  in
  let fix pred =
    let set = ref SSet.empty in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (name, _, body) ->
          if (not (SSet.mem name !set)) && reaches body pred !set then begin
            set := SSet.add name !set;
            changed := true
          end)
        fns
    done;
    !set
  in
  {
    registering = fix is_register_path;
    touching = fix (fun p -> is_runtime "touch" p || is_runtime "atomic" p);
  }

(* ------------------------------------------------------------------ *)
(* Pass B: the walker.                                                 *)

let check ~file ~source str =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let snippet_at line =
    if line >= 1 && line <= Array.length lines then lines.(line - 1) else ""
  in
  let findings = ref [] in
  let report ~rule ?(severity = Finding.Error) ~loc message =
    let p = loc.Location.loc_start in
    let line = p.Lexing.pos_lnum and col = p.Lexing.pos_cnum - p.Lexing.pos_bol in
    findings :=
      Finding.v ~rule ~severity ~file ~line ~col ~snippet:(snippet_at line)
        message
      :: !findings
  in
  let h = discover str in
  let contains_register e =
    exists_expr
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } -> begin
            match Longident.flatten txt with
            | exception _ -> false
            | [ x ] when SSet.mem x h.registering -> true
            | p -> is_register_path p
          end
        | _ -> false)
      e
  in
  let contains_interaction e =
    exists_expr
      (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } -> begin
            match Longident.flatten txt with
            | exception _ -> false
            | [ x ] -> SSet.mem x h.touching
            | p -> is_runtime "touch" p || is_runtime "atomic" p
          end
        | _ -> false)
      e
  in
  (* Mutable walker state, saved and restored around sub-walks. *)
  let fun_depth = ref 0 in
  let registered_scope = ref false in
  let interacting_scope = ref false in
  let local_bound = ref SSet.empty in
  let in_atomic = ref false in
  let handled_creations = Hashtbl.create 8 in
  let it = ref Ast_iterator.default_iterator in
  let walk e = !it.expr !it e in
  (* The escape analysis at a [let x = <creation>] site.  [scope] is
     where captures of [x] can live. *)
  let escape_check vb scope_exprs =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = x; _ } -> begin
        let rhs = unwrap vb.pvb_expr in
        match rhs.pexp_desc with
        | Pexp_apply (f, _) -> begin
            match Option.bind (path_of f) creation_name with
            | None -> ()
            | Some what ->
                Hashtbl.replace handled_creations rhs.pexp_loc ();
                if not !registered_scope then begin
                  let captors =
                    List.concat_map sub_lambdas scope_exprs
                    |> List.filter (mentions x)
                  in
                  if captors = [] then ()  (* function-local scratch *)
                  else if !fun_depth = 0 then
                    report ~rule:"escape-global-mutable" ~loc:rhs.pexp_loc
                      (Printf.sprintf
                         "module-level %s bound to %S is captured by a \
                          function: one mutable cell shared by every \
                          instance and every replay"
                         what x)
                  else if List.exists contains_interaction captors then
                    report ~rule:"escape-unregistered-state" ~loc:rhs.pexp_loc
                      (Printf.sprintf
                         "%s bound to %S is captured by a runtime-\
                          interacting closure with no \
                          Runtime.register_object in scope: invisible to \
                          fingerprints and to observed footprints"
                         what x)
                  (* else: scheduler-side closure state (drivers,
                     adversaries) — replay re-decides, not re-draws *)
                end
          end
        | _ -> ()
      end
    | _ -> ()
  in
  let creation_fallback e =
    match e.pexp_desc with
    | Pexp_apply (f, _) -> begin
        match Option.bind (path_of f) creation_name with
        | Some what
          when !fun_depth = 0
               && (not (Hashtbl.mem handled_creations e.pexp_loc))
               && not !registered_scope ->
            report ~rule:"escape-global-mutable" ~loc:e.pexp_loc
              (Printf.sprintf
                 "module-level %s outside any let-binding this lint can \
                  track: module state is shared by every instance and \
                  every replay"
                 what)
        | _ -> ()
      end
    | _ -> ()
  in
  let mutation_check f args loc =
    let is_mut =
      match path_of f with Some p -> mutation_name p | None -> false
    in
    if is_mut && (not !in_atomic) && !interacting_scope then
      match
        List.find_map
          (fun (lbl, a) ->
            match lbl with Asttypes.Nolabel -> Some a | _ -> None)
          args
      with
      | None -> ()
      | Some target ->
          let r = SSet.diff (roots target) !local_bound in
          if not (SSet.is_empty r) then
            report ~rule:"escape-naked-mutation" ~severity:Finding.Warn ~loc
              (Printf.sprintf
                 "mutation of %s outside any atomic callback in \
                  runtime-interacting code: a step's observed footprint \
                  cannot see it"
                 (String.concat ", " (SSet.elements r)))
  in
  let expr_override _it e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> begin
        match Longident.flatten txt with
        | exception _ -> ()
        | [ ("==" | "!=") as op ] ->
            report ~rule:"det-physical-equality" ~loc:e.pexp_loc
              (Printf.sprintf
                 "physical equality (%s) depends on sharing, which replay \
                  does not preserve; use structural equality or a stable \
                  identity"
                 op)
        | p when det_banned p ->
            report ~rule:"det-banned-call" ~loc:e.pexp_loc
              (Printf.sprintf
                 "%s can differ between a run and its replay: fingerprints, \
                  lex-least witnesses and stored-verdict re-validation all \
                  assume determinism"
                 (String.concat "." p))
        | _ -> ()
      end
    | Pexp_fun _ | Pexp_function _ ->
        let saved =
          (!fun_depth, !registered_scope, !interacting_scope, !local_bound)
        in
        incr fun_depth;
        if not !registered_scope then
          registered_scope := contains_register e;
        if not !interacting_scope then
          interacting_scope := contains_interaction e;
        (match e.pexp_desc with
        | Pexp_fun (_, _, pat, _) ->
            local_bound := SSet.union !local_bound (pat_vars pat)
        | _ -> ());
        Ast_iterator.default_iterator.expr !it e;
        let d, r, i, l = saved in
        fun_depth := d;
        registered_scope := r;
        interacting_scope := i;
        local_bound := l
    | Pexp_let (_, vbs, cont) ->
        List.iter (fun vb -> escape_check vb (cont :: List.map (fun v -> v.pvb_expr) (List.filter (fun v -> v != vb) vbs))) vbs;
        List.iter (fun vb -> walk vb.pvb_expr) vbs;
        let saved = !local_bound in
        let vars =
          List.fold_left
            (fun acc vb -> SSet.union acc (pat_vars vb.pvb_pat))
            SSet.empty vbs
        in
        local_bound := SSet.union !local_bound vars;
        walk cont;
        local_bound := saved
    | Pexp_apply (f, args) -> begin
        creation_fallback e;
        mutation_check f args e.pexp_loc;
        (* The unlabelled argument of [Runtime.atomic], when it is a
           literal function, is a step body: mutations in it are inside
           the step. *)
        let step_body =
          match path_of f with
          | Some p when is_runtime "atomic" p ->
              List.find_map
                (fun (lbl, a) ->
                  match (lbl, (unwrap a).pexp_desc) with
                  | Asttypes.Nolabel, (Pexp_fun _ | Pexp_function _) -> Some a
                  | _ -> None)
                args
          | _ -> None
        in
        match step_body with
        | Some body ->
            walk f;
            let saved = !in_atomic in
            in_atomic := true;
            walk body;
            in_atomic := saved
        | None -> Ast_iterator.default_iterator.expr !it e
      end
    | Pexp_setfield (b, _, _) ->
        (if (not !in_atomic) && !interacting_scope then
           let r = SSet.diff (roots b) !local_bound in
           if not (SSet.is_empty r) then
             report ~rule:"escape-naked-mutation" ~severity:Finding.Warn
               ~loc:e.pexp_loc
               (Printf.sprintf
                  "field mutation of %s outside any atomic callback in \
                   runtime-interacting code: a step's observed footprint \
                   cannot see it"
                  (String.concat ", " (SSet.elements r))));
        Ast_iterator.default_iterator.expr !it e
    | _ -> Ast_iterator.default_iterator.expr !it e
  in
  it := { Ast_iterator.default_iterator with expr = expr_override };
  (* Top level: [Pstr_value] bindings get the escape analysis with the
     whole structure as the capture scope (conservative about textual
     order, precise enough in practice). *)
  let all_toplevel_exprs =
    List.filter_map
      (fun si ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) -> Some (List.map (fun vb -> vb.pvb_expr) vbs)
        | _ -> None)
      str
    |> List.concat
  in
  List.iter
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              escape_check vb
                (List.filter (fun e -> e != vb.pvb_expr) all_toplevel_exprs))
            vbs;
          List.iter (fun vb -> walk vb.pvb_expr) vbs
      | _ -> !it.structure_item !it si)
    str;
  List.sort_uniq Finding.compare !findings
