open Slx_sim

type inv = Poke of int | Peek
type res = Ack | Got of int

let pp_inv = function
  | Poke v -> "poke " ^ string_of_int v
  | Peek -> "peek"

let pp_res = function
  | Ack -> "ack"
  | Got v -> "got " ^ string_of_int v

(* A bare instrumented cell, bypassing [Slx_base_objects] so fixtures
   control exactly which accesses are declared.  Same construction as
   the real base objects: a ref plus a fingerprint-registry reader. *)
let cell init =
  let r = ref init in
  let id = Runtime.register_object (fun () -> Runtime.hash_value !r) in
  (r, id)

let load (r, id) =
  Runtime.touch ~obj:id ~write:false;
  !r

let store (r, id) v =
  Runtime.touch ~obj:id ~write:true;
  r := v

(* Under-declaration: [Poke] declares only a write of [a] but also
   writes [b]; [Peek] reads [b] with a correct declaration.  The race
   detector flags the leak at the touch; the HB certifier flags the
   (Poke, Peek) pair when detection is off; the commutation oracle
   sees Poke and Peek commute by declaration but not by effect. *)
let leaky_factory ~n:_ =
  let a = cell 0 and b = cell 0 in
  fun ~proc:_ -> function
    | Poke v ->
        Runtime.atomic_access ~obj:(snd a) ~write:true (fun () ->
            store a v;
            store b v);
        Ack
    | Peek ->
        Got (Runtime.atomic_access ~obj:(snd b) ~write:false (fun () -> load b))

(* Write-under-read: declares a read of the cell, performs a write. *)
let write_under_read_factory ~n:_ =
  let c = cell 0 in
  fun ~proc:_ -> function
    | Poke v ->
        Runtime.atomic_access ~obj:(snd c) ~write:false (fun () -> store c v);
        Ack
    | Peek ->
        Got (Runtime.atomic_access ~obj:(snd c) ~write:false (fun () -> load c))

(* Over-declaration: a proper write of [real], then a step declaring a
   write of [ghost] that never touches it — no violation, but the
   audit's declaration statistics lint it ([Never_touched]). *)
let phantom_factory ~n:_ =
  let real = cell 0 and ghost = cell 0 in
  fun ~proc:_ -> function
    | Poke v ->
        Runtime.atomic_access ~obj:(snd real) ~write:true (fun () ->
            store real v);
        Runtime.atomic_access ~obj:(snd ghost) ~write:true (fun () -> ());
        Ack
    | Peek ->
        Got
          (Runtime.atomic_access ~obj:(snd real) ~write:false (fun () ->
               load real))

(* Nested escape: the outer step declares [a]; a nested atomic action
   declares (and touches) [b], escaping the pending footprint — the
   declaration POR consulted never mentioned [b]. *)
let nested_escape_factory ~n:_ =
  let a = cell 0 and b = cell 0 in
  fun ~proc:_ -> function
    | Poke v ->
        Runtime.atomic_access ~obj:(snd a) ~write:true (fun () ->
            store a v;
            Runtime.atomic_access ~obj:(snd b) ~write:true (fun () ->
                store b v));
        Ack
    | Peek ->
        Got (Runtime.atomic_access ~obj:(snd a) ~write:false (fun () -> load a))

(* Legal nesting: an opaque outer step covers any nested
   declaration; the nested action runs inline and its touches are
   checked against the composed effective footprint.  Clean (modulo
   the opaque-step lint, which its audit case waives). *)
let nested_ok_factory ~n:_ =
  let c = cell 0 in
  fun ~proc:_ -> function
    | Poke v ->
        Runtime.atomic (fun () ->
            Runtime.atomic_access ~obj:(snd c) ~write:true (fun () -> store c v));
        Ack
    | Peek ->
        Got (Runtime.atomic_access ~obj:(snd c) ~write:false (fun () -> load c))

(* Fully clean twin of [leaky_factory]: both cells declared and
   touched exactly as announced.  The differential baseline. *)
let clean_factory ~n:_ =
  let a = cell 0 and b = cell 0 in
  fun ~proc:_ -> function
    | Poke v ->
        Runtime.atomic_access ~obj:(snd a) ~write:true (fun () -> store a v);
        Runtime.atomic_access ~obj:(snd b) ~write:true (fun () -> store b v);
        Ack
    | Peek ->
        Got (Runtime.atomic_access ~obj:(snd b) ~write:false (fun () -> load b))

(* Depth-gated twin of [leaky_factory]: the undeclared write of [b]
   only happens on the eighth poke, so bounded exploration at the
   audit's default depths never reaches it and the sanitizer reports
   clean — while the static footprint lint flags the site on every
   run.  The demonstration pair for doc/model.md section 12. *)
let deep_leaky_factory ~n:_ =
  let a = cell 0 and b = cell 0 in
  fun ~proc:_ -> function
    | Poke v ->
        Runtime.atomic_access ~obj:(snd a) ~write:true (fun () ->
            let k = load a in
            store a (k + 1);
            if k >= 7 then store b (v + k));
        Ack
    | Peek ->
        Got (Runtime.atomic_access ~obj:(snd b) ~write:false (fun () -> load b))

(* The standard fixture workload: process 1 pokes, everyone else
   peeks, [ops] invocations each. *)
let workload ~ops : (inv, res) Slx_sim.Driver.workload =
  Slx_sim.Driver.n_times ops (fun p _ -> if p = 1 then Poke p else Peek)
