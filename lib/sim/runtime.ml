open Effect
open Effect.Deep

(* One declared (or observed) access to a base object: which object and
   whether it may be (was) written. *)
type access = { obj : int; write : bool }

(* Canonical access-list form: one entry per object (write = the OR of
   the merged entries), sorted by object id. *)
let normalize accs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun a ->
      match Hashtbl.find_opt tbl a.obj with
      | None -> Hashtbl.add tbl a.obj a.write
      | Some w -> Hashtbl.replace tbl a.obj (w || a.write))
    accs;
  Hashtbl.fold (fun obj write acc -> { obj; write } :: acc) tbl []
  |> List.sort (fun a b -> compare a.obj b.obj)

(* The access footprint of a pending atomic action: which base objects
   it touches and whether it may write them, as conflict bitmasks.
   [m_opaque] (the plain [atomic]) conflicts with everything; base
   objects declare precise footprints so the exploration engines can
   recognize commuting steps (partial-order reduction).

   Registry-issued object ids are small positive ints (dense from 1)
   and orphan ids are negative, so almost every footprint fits two
   machine words: [m_r] has bit [i] set iff object [i] is accessed at
   all, [m_w] iff it may be written (0 <= i < mask_width).  Ids outside
   that range spill into [m_rest], normalized, and since the bit range
   and the spill range are disjoint, a bit-part access can never
   conflict with a rest-part access — the commutation check is two
   ANDs plus a rarely-taken list fallback.  Every footprint is built
   in this canonical form (an opaque one has no bits and no spill), so
   structural equality is footprint equality. *)

let mask_width = 62

type footprint = {
  m_opaque : bool;
  m_r : int;  (* presence bits: object i is read or written *)
  m_w : int;  (* write bits: object i may be written *)
  m_rest : access list;  (* normalized accesses with ids outside [0,61] *)
}

let empty = { m_opaque = false; m_r = 0; m_w = 0; m_rest = [] }
let opaque = { m_opaque = true; m_r = 0; m_w = 0; m_rest = [] }
let in_bits obj = obj >= 0 && obj < mask_width

(* The single-access footprints of the bitmask range, built once: slot
   [2 * obj + write].  Most declarations are one access to a
   registry-issued object, so a suspension usually allocates no
   footprint. *)
let singles =
  Array.init (2 * mask_width) (fun i ->
      let bit = 1 lsl (i lsr 1) in
      {
        m_opaque = false;
        m_r = bit;
        m_w = (if i land 1 = 1 then bit else 0);
        m_rest = [];
      })

let single ~obj ~write =
  if in_bits obj then singles.((2 * obj) + if write then 1 else 0)
  else { empty with m_rest = [ { obj; write } ] }

let of_accesses accs =
  let r = ref 0 and w = ref 0 and rest = ref [] in
  List.iter
    (fun a ->
      if in_bits a.obj then begin
        let bit = 1 lsl a.obj in
        r := !r lor bit;
        if a.write then w := !w lor bit
      end
      else rest := a :: !rest)
    accs;
  {
    m_opaque = false;
    m_r = !r;
    m_w = !w;
    m_rest = (match !rest with [] -> [] | rs -> normalize rs);
  }

(* Ascending by id: the negative spill ids, the bit ids, then the
   spill ids past the bit range. *)
let accesses m =
  if m.m_opaque then None
  else
    let neg, far = List.partition (fun a -> a.obj < 0) m.m_rest in
    let rec bits i acc =
      if i < 0 then acc
      else if m.m_r land (1 lsl i) = 0 then bits (i - 1) acc
      else bits (i - 1) ({ obj = i; write = m.m_w land (1 lsl i) <> 0 } :: acc)
    in
    Some (neg @ bits (mask_width - 1) far)

let union a b =
  if a.m_opaque || b.m_opaque then opaque
  else
    {
      m_opaque = false;
      m_r = a.m_r lor b.m_r;
      m_w = a.m_w lor b.m_w;
      m_rest =
        (match (a.m_rest, b.m_rest) with
        | [], r | r, [] -> r
        | ra, rb -> normalize (ra @ rb));
    }

let conflict a b = a.obj = b.obj && (a.write || b.write)

let commute a b =
  (not (a.m_opaque || b.m_opaque))
  && (a.m_w land b.m_r) lor (b.m_w land a.m_r) = 0
  && (match (a.m_rest, b.m_rest) with
     | [], _ | _, [] -> true
     | ra, rb -> not (List.exists (fun x -> List.exists (conflict x) rb) ra))

(* Whether [m] allows one access: the sanitizer's per-touch check. *)
let covers_access m ~obj ~write =
  m.m_opaque
  ||
  if in_bits obj then
    let bit = 1 lsl obj in
    if write then m.m_w land bit <> 0 else m.m_r land bit <> 0
  else List.exists (fun b -> b.obj = obj && (b.write || not write)) m.m_rest

(* [m_w] lies within [m_r] on both sides, so the bit part is covered
   iff neither of [inner]'s words has a bit [outer]'s lacks. *)
let covers outer inner =
  outer.m_opaque
  || (not inner.m_opaque)
     && inner.m_r land lnot outer.m_r = 0
     && inner.m_w land lnot outer.m_w = 0
     && List.for_all
          (fun a -> covers_access outer ~obj:a.obj ~write:a.write)
          inner.m_rest

let pp_access fmt a =
  Format.fprintf fmt "%c%d" (if a.write then 'W' else 'R') a.obj

let pp_footprint fmt m =
  match accesses m with
  | None -> Format.pp_print_string fmt "opaque"
  | Some [ a ] -> pp_access fmt a
  | Some accs ->
      Format.fprintf fmt "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
           pp_access)
        accs

type _ Effect.t += Atomic : footprint * (unit -> 'a) -> 'a Effect.t

exception Killed

type status = Idle | Ready | Crashed

(* 64-bit finalizer in the splitmix/xorshift-star family.  OCaml int
   literals must fit 63 bits, so the multipliers are the xorshift64*
   constant and the FNV-64 prime rather than the classic murmur ones
   (0xff51afd7ed558ccd does not fit). *)
let mix64 h =
  let h = h lxor (h lsr 29) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 32) in
  let h = h * 0x100000001b3 in
  h lxor (h lsr 29)

(* FNV-style combination with a 64-bit finish; not commutative, so
   callers must fold in a fixed order. *)
let combine h v = mix64 ((h * 0x100000001b3) lxor v)

(* Deep structural hash over the whole value: an explicit traversal
   that folds every immediate, every string byte and every float's bit
   pattern through the 64-bit mixer.  The previous
   [Hashtbl.hash_param 256 512] silently truncated values deeper than
   its node budget, a latent collision bug for long histories; this
   fold only stops at the (generous) node budget below, far beyond any
   depth-bounded exploration's history.  Tags above the last
   constructor tag (closures, objects, lazy, custom, abstract blocks)
   are not traversed — their layout is not plain fields — and fall back
   to the polymorphic hash; fingerprint components never contain
   them. *)
let rec hash_fold budget h r =
  decr budget;
  if !budget < 0 then h
  else if Obj.is_int r then combine h (Obj.obj r : int)
  else
    let t = Obj.tag r in
    if t <= Obj.last_non_constant_constructor_tag then begin
      let n = Obj.size r in
      let h = ref (combine h ((t lsl 16) lxor n)) in
      for i = 0 to n - 1 do
        h := hash_fold budget !h (Obj.field r i)
      done;
      !h
    end
    else if t = Obj.string_tag then begin
      let s : string = Obj.obj r in
      let acc = ref (combine h (String.length s)) in
      String.iter
        (fun c -> acc := (!acc * 0x100000001b3) lxor Char.code c)
        s;
      mix64 !acc
    end
    else if t = Obj.double_tag then
      combine h (Int64.to_int (Int64.bits_of_float (Obj.obj r : float)))
    else if t = Obj.double_array_tag then begin
      let a : float array = Obj.obj r in
      Array.fold_left
        (fun h f -> combine h (Int64.to_int (Int64.bits_of_float f)))
        (combine h (Array.length a))
        a
    end
    else combine h (Hashtbl.hash r)

let hash_value v =
  let r = Obj.repr v in
  (* Immediates (ints, bools, chars, unit, constant constructors — most
     atomic results) skip the budgeted fold: for them it computes
     exactly [combine seed v], so the digest is the same. *)
  if Obj.is_int r then mix64 (combine 0x811c9dc5 (Obj.obj r : int))
  else mix64 (hash_fold (ref 1_000_000) 0x811c9dc5 r)

(* ------------------------------------------------------------------ *)
(* Shared-state fingerprint registry.

   Base objects cannot be inspected from outside (their state lives in
   closures), so each constructor registers a reader that digests its
   current state.  The registry in effect while an implementation
   instance is alive collects the readers of every base object that
   instance allocates; the explorer folds them into configuration
   fingerprints.  One registry is current at a time: the simulator
   runs on one domain (doc/model.md §5).

   The digest is maintained {e incrementally}, Zobrist-style: each
   object contributes [combine id (reader ())], the registry digest is
   the XOR of all contributions, and a write reported through [touch]
   marks its object dirty so only touched objects are re-read at the
   next [registry_digest] call.  A full fold would be O(objects) per
   configuration, and objects accumulate over a run (each commit-adopt
   round a run enters registers 2n registers), so the digest is
   O(writes since the last digest) instead.  XOR makes the
   combination order-free (contributions carry the object's own id, so
   equal multisets of (id, state) pairs — i.e. equal shared states of
   two instances of one deterministic factory — digest equally).

   Exactness rests on the touch contract: every physical mutation of a
   registered object's state is reported via [touch ~write:true] with
   the owning object's id while its registry is current.  The
   instrumented base-object layer establishes this by construction
   (stores route through [Slx_base_objects.store], which touches the
   {e owning} cell even when the surrounding atomic action misdeclares
   its footprint), and the sanitizer shadow is the dynamic check of
   precisely this reporting. *)

(* Per-object storage lives in fixed-size pages, object [id] at slot
   [id land page_mask] of page [id lsr page_bits].  Reserved id blocks
   leave long stretches of ids unused; pages are allocated only where
   an object registers, so storage follows the objects, not the ids.
   Pages hold 16 objects: every cursor builds a fresh instance, which
   registers only a handful of objects before its first steps, so a
   small first page is most of what a cursor's registry allocates. *)
let page_bits = 4
let page_mask = (1 lsl page_bits) - 1

type page = {
  readers : (unit -> int) array;  (* empty on a keyless registry's pages *)
  contrib : int array;  (* last XOR contribution per object; likewise *)
  flags : Bytes.t;  (* see below *)
}

(* [flags] states: a registered object is [clean] or queued on
   [dirty]; a slot nothing has registered at is [vacant], so touches
   of it are ignored and the full fold skips it. *)
let clean = '\000'
let queued = '\001'
let vacant = '\002'

let no_reader : unit -> int = fun () -> 0

(* A keyless registry's pages keep only the flags: nothing reads a
   contribution it never stores. *)
let make_page ~keyed =
  let slots = if keyed then page_mask + 1 else 0 in
  {
    readers = Array.make slots no_reader;
    contrib = Array.make slots 0;
    flags = Bytes.make (page_mask + 1) vacant;
  }

(* Stands in for every page nothing has registered on; never written. *)
let vacant_page = make_page ~keyed:true

(* A keyless registry issues ids and refuses a second registration at
   one id exactly as a keyed one does, but it stores and calls no
   reader and queues no written object: a walk that keys no
   configuration never asks for its digest, so it does not pay to keep
   it current. *)
type registry = {
  keyed : bool;
  mutable pages : page array;
  mutable dirty : int list;  (* ids re-read at the next digest *)
  mutable digest : int;  (* XOR of every registered contribution *)
  mutable next_id : int;  (* first id neither issued nor reserved *)
}

(* ------------------------------------------------------------------ *)
(* The execution frame: everything the step path consults, in one
   module-level record (the simulator runs on one domain).

   It holds the current registry, the installed sanitizer shadow and
   DPOR probe (see the sections below), and the state of the atomic
   action in flight.  A grant and a touch reach all of it with one
   load.

   The frame also implements nested-atomic composition: an [atomic]/
   [atomic_access] call made while an atomic action is already
   executing runs inline (it cannot suspend again — the scheduler is
   mid-grant) and its declared footprint is folded into the step's
   effective footprint.

   The touch buffer is a flat array of packed ints — [(obj lsl 1) lor
   write] — appended to with no allocation; [asr]/[land] recover the
   access (the encoding is sign-correct for negative orphan ids).
   Validation against the effective footprint is batched: once at step
   end, plus a flush at each nested declaration so every buffered touch
   is judged against the effective footprint in force when it was made
   (identical verdicts to the old per-touch check, at a fraction of the
   cost).  A step that begins with neither a shadow nor a probe
   installed — every step of a prefix replay — is {e inactive}: it
   records no footprint, buffers no touch and writes no pointer field
   of the frame, so [enter_step]/[leave_step] are two int stores. *)
type frame = {
  mutable fr_registry : registry option;  (* current: [with_registry] *)
  mutable fr_shadow : shadow option;  (* installed: [with_registry] *)
  mutable fr_probe : probe option;  (* installed: [with_registry] *)
  mutable fr_depth : int;  (* nesting depth of in-flight atomic code *)
  mutable fr_active : bool;  (* the step in flight began under a shadow or probe *)
  mutable fr_pending : footprint;  (* declared at suspension (POR-visible) *)
  mutable fr_eff : footprint;  (* pending ∪ nested declarations *)
  mutable fr_buf : int array;  (* packed touches, program order *)
  mutable fr_len : int;  (* touches buffered this step *)
  mutable fr_checked : int;  (* validation watermark into [fr_buf] *)
}

and shadow = {
  sh_record : bool;
  sh_raise : bool;
  mutable sh_steps : int;
  mutable sh_log : step_log list;  (* reverse order *)
  mutable sh_violations : violation list;  (* reverse order *)
  sh_near : mstat array;  (* by id, for ids in the bitmask range *)
  sh_far : (int, mstat) Hashtbl.t;  (* ids outside it *)
  mutable sh_opaque : int;
}

and step_log = {
  declared : footprint;
  effective : footprint;
  touched : access list;
}

and violation = {
  v_kind : violation_kind;
  v_obj : int;
  v_write : bool;
  v_pending : footprint;
  v_step : int;
}

and violation_kind = Undeclared_touch | Undeclared_nesting | Outside_atomic

and mstat = {
  mutable ms_decl : int;
  mutable ms_touched : int;
  mutable ms_wdecl : int;
  mutable ms_wrote : int;
}

and probe = {
  mutable pr_steps : int;  (* atomic steps completed under this probe *)
  mutable pr_observed : footprint;  (* observed footprint of the last step *)
}

let frame =
  {
    fr_registry = None;
    fr_shadow = None;
    fr_probe = None;
    fr_depth = 0;
    fr_active = false;
    fr_pending = opaque;
    fr_eff = opaque;
    fr_buf = Array.make 64 0;
    fr_len = 0;
    fr_checked = 0;
  }

let fresh_registry ?(keyed = true) () : registry =
  {
    keyed;
    pages = [| vacant_page |];
    dirty = [];
    digest = 0x811c9dc5;
    next_id = 1;
  }

(* Fallback id source for objects allocated with no registry current
   (plain [Runner.run]s); footprint ids only ever need to be distinct
   within one implementation instance, and negative ids cannot collide
   with registry-issued positive ones. *)
let orphan_ids = ref 0

(* While [in_block] runs: the next id to issue inside the block and the
   block's end (exclusive). *)
let block_scope : (int * int) option ref = ref None

(* The first of [size] consecutive fresh ids: from the enclosing block
   when one is in scope, else from the current registry, else from the
   orphan counter. *)
let issue_ids size =
  match !block_scope with
  | Some (id, limit) ->
      if id + size > limit then
        invalid_arg "Runtime: allocation overruns its reserved id block";
      block_scope := Some (id + size, limit);
      id
  | None -> (
      match frame.fr_registry with
      | Some reg ->
          let id = reg.next_id in
          reg.next_id <- id + size;
          id
      | None ->
          orphan_ids := !orphan_ids - size;
          !orphan_ids)

(* The page object [id] lives on, allocating it (and growing the page
   directory) on first use. *)
let own_page reg id =
  let pg = id lsr page_bits in
  let len = Array.length reg.pages in
  if pg >= len then begin
    let pages = Array.make (max (pg + 1) (2 * len)) vacant_page in
    Array.blit reg.pages 0 pages 0 len;
    reg.pages <- pages
  end;
  if reg.pages.(pg) == vacant_page then
    reg.pages.(pg) <- make_page ~keyed:reg.keyed;
  reg.pages.(pg)

let register_object reader =
  let id = issue_ids 1 in
  (match frame.fr_registry with
  | None -> ()
  | Some reg ->
      let p = own_page reg id and i = id land page_mask in
      if Bytes.get p.flags i <> vacant then
        invalid_arg "Runtime.register_object: id registered twice";
      Bytes.set p.flags i clean;
      if reg.keyed then begin
        p.readers.(i) <- reader;
        (* The reader is callable at registration: constructors
           register after initializing the state the reader closes
           over. *)
        let c = combine id (reader ()) in
        p.contrib.(i) <- c;
        reg.digest <- reg.digest lxor c
      end);
  id

(* ------------------------------------------------------------------ *)
(* Reserved id blocks: objects built mid-run at schedule-independent
   ids.  An implementation that allocates lazily reserves, at
   construction, one block sized for everything it may ever build, and
   builds each object inside it at an offset fixed by the object's
   logical identity — so ids never depend on which process, or which
   of several instances sharing the registry, allocated first. *)

(* Plain data, with no reference to the registry: an object that keeps
   its block stays hashable by value, and a step that returns such an
   object folds only its logical state into the observation digest. *)
type id_block = { blk_base : int; blk_size : int }

let reserve_ids size =
  if size < 0 then invalid_arg "Runtime.reserve_ids: negative size";
  { blk_base = issue_ids size; blk_size = size }

let in_block blk ~offset f =
  if offset < 0 || offset > blk.blk_size then
    invalid_arg "Runtime.in_block: offset outside the block";
  let saved = !block_scope in
  block_scope := Some (blk.blk_base + offset, blk.blk_base + blk.blk_size);
  match f () with
  | x ->
      block_scope := saved;
      x
  | exception e ->
      block_scope := saved;
      raise e

(* Called (unconditionally) on every write-touch: queue the object for
   re-reading at the next digest.  Ids no registered object holds —
   orphans (negative), vacant block slots, or a fixture touching an id
   it never registered — have no contribution to invalidate and are
   skipped. *)
let mark_written fr obj =
  match fr.fr_registry with
  | Some reg
    when reg.keyed && obj >= 1 && obj lsr page_bits < Array.length reg.pages ->
      let p = Array.unsafe_get reg.pages (obj lsr page_bits)
      and i = obj land page_mask in
      if Bytes.unsafe_get p.flags i = clean then begin
        Bytes.unsafe_set p.flags i queued;
        reg.dirty <- obj :: reg.dirty
      end
  | _ -> ()

(* Put back what [with_registry] replaced: the registry always, the
   shadow and the probe only where it installed one. *)
let restore fr reg0 ~shadow sh0 ~probe pr0 =
  fr.fr_registry <- reg0;
  if Option.is_some shadow then fr.fr_shadow <- sh0;
  if Option.is_some probe then fr.fr_probe <- pr0

(* One bracket installs the registry and, when given, the shadow and
   the probe: the cursor's whole execution context in one frame
   update. *)
let with_registry ?shadow ?probe reg f =
  let reg0 = frame.fr_registry and sh0 = frame.fr_shadow in
  let pr0 = frame.fr_probe in
  frame.fr_registry <- Some reg;
  if Option.is_some shadow then frame.fr_shadow <- shadow;
  if Option.is_some probe then frame.fr_probe <- probe;
  match f () with
  | x ->
      restore frame reg0 ~shadow sh0 ~probe pr0;
      x
  | exception e ->
      restore frame reg0 ~shadow sh0 ~probe pr0;
      raise e

let require_keyed (reg : registry) fn =
  if not reg.keyed then invalid_arg ("Runtime." ^ fn ^ ": keyless registry")

let registry_digest (reg : registry) =
  require_keyed reg "registry_digest";
  (match reg.dirty with
  | [] -> ()
  | dirty ->
      reg.dirty <- [];
      List.iter
        (fun id ->
          let p = reg.pages.(id lsr page_bits) and i = id land page_mask in
          Bytes.unsafe_set p.flags i clean;
          let c = combine id (p.readers.(i) ()) in
          reg.digest <- reg.digest lxor p.contrib.(i) lxor c;
          p.contrib.(i) <- c)
        dirty);
  reg.digest

(* O(objects) recomputation from scratch — what [registry_digest] cost
   at every configuration before the incremental scheme, kept as the
   audit cross-check: it differs from [registry_digest] only if some
   mutation bypassed the touch contract (in which case the incremental
   digest is stale and the divergence is the diagnostic). *)
let registry_digest_full (reg : registry) =
  require_keyed reg "registry_digest_full";
  let d = ref 0x811c9dc5 in
  Array.iteri
    (fun pg p ->
      for i = 0 to page_mask do
        if Bytes.get p.flags i <> vacant then
          d := !d lxor combine ((pg lsl page_bits) lor i) (p.readers.(i) ())
      done)
    reg.pages;
  !d

let registry_objects (reg : registry) =
  let k = ref 0 in
  Array.iter
    (fun p -> Bytes.iter (fun f -> if f <> vacant then incr k) p.flags)
    reg.pages;
  !k

(* ------------------------------------------------------------------ *)
(* Shadow state: the conflict-soundness sanitizer.

   POR trusts each pending action's declared footprint; the sanitizer
   checks that trust dynamically.  Instrumented base objects report
   every physical cell access through [touch]; the execution frame
   tracks the footprint of the atomic action in flight, and an
   installed shadow records/validates the touches against it.  A
   cursor installs its shadow with [with_registry ~shadow]. *)

exception Shadow_violation of violation

let pp_violation fmt v =
  match v.v_kind with
  | Undeclared_touch ->
      Format.fprintf fmt
        "undeclared %s of object %d at shadow step %d (declared: %a)"
        (if v.v_write then "write" else "read")
        v.v_obj v.v_step pp_footprint v.v_pending
  | Undeclared_nesting ->
      Format.fprintf fmt
        "nested declaration escapes the pending footprint at shadow step %d \
         (escaping: %s object %d, declared: %a)"
        v.v_step
        (if v.v_write then "write" else "read")
        v.v_obj pp_footprint v.v_pending
  | Outside_atomic ->
      Format.fprintf fmt
        "%s of object %d outside any atomic action (shadow step %d)"
        (if v.v_write then "write" else "read")
        v.v_obj v.v_step

type decl_stat = {
  decl_steps : int;
  touched_steps : int;
  write_decl_steps : int;
  wrote_steps : int;
}

let fresh_mstat () = { ms_decl = 0; ms_touched = 0; ms_wdecl = 0; ms_wrote = 0 }

let make_shadow ?(record = false) ?(raise_on_violation = true) () =
  {
    sh_record = record;
    sh_raise = raise_on_violation;
    sh_steps = 0;
    sh_log = [];
    sh_violations = [];
    sh_near = Array.init mask_width (fun _ -> fresh_mstat ());
    sh_far = Hashtbl.create 16;
    sh_opaque = 0;
  }

(* ------------------------------------------------------------------ *)
(* Dynamic-conflict probe: the DPOR observed-access recorder.

   Where the shadow {e validates} touches against declarations, the
   probe merely {e records} the observed footprint of the last completed
   atomic step — what it physically touched, or its effective
   footprint when it reported no touch — so the exploration engines
   can compute race reversals from dynamic conflicts — what a step
   actually did in this configuration — instead of declared footprints
   alone.  One probe per engine, installed around
   [Runner.Cursor.apply] exactly like the shadow; with no probe
   installed, [touch] stays one frame read and a branch. *)

let make_probe () = { pr_steps = 0; pr_observed = empty }
let probe_steps pr = pr.pr_steps
let probe_last_observed pr = pr.pr_observed

let shadow_violation_count sh = List.length sh.sh_violations
let shadow_steps sh = List.rev sh.sh_log
let shadow_step_count sh = sh.sh_steps
let shadow_opaque_steps sh = sh.sh_opaque

let shadow_decl_stats sh =
  let stat obj ms acc =
    ( obj,
      {
        decl_steps = ms.ms_decl;
        touched_steps = ms.ms_touched;
        write_decl_steps = ms.ms_wdecl;
        wrote_steps = ms.ms_wrote;
      } )
    :: acc
  in
  (* A near slot is an object only once some step declared it. *)
  let near = ref [] in
  Array.iteri
    (fun obj ms -> if ms.ms_decl > 0 then near := stat obj ms !near)
    sh.sh_near;
  Hashtbl.fold stat sh.sh_far !near
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let violate sh v =
  sh.sh_violations <- v :: sh.sh_violations;
  if sh.sh_raise then raise (Shadow_violation v)

(* The hot path: one frame read, a depth test, an activity test
   and a packed store.  No allocation, no footprint walk — validation
   happens in batch at [leave_step] (and at nested-declaration
   boundaries, which preserve the temporal precision of the old
   per-touch check). *)
let touch ~obj ~write =
  (* Keep the registry's incremental digest exact: every physical
     write invalidates the written object's cached contribution, with
     or without a shadow installed. *)
  if write then mark_written frame obj;
  if frame.fr_depth = 0 then (
    (* Outside any atomic action: a violation when a shadow judges;
       with only a probe installed there is no step to attribute the
       touch to, so it is dropped (the sanitizer is the layer that
       reports this contract breach). *)
    match frame.fr_shadow with
    | Some sh ->
        violate sh
          {
            v_kind = Outside_atomic;
            v_obj = obj;
            v_write = write;
            v_pending = opaque;
            v_step = sh.sh_steps;
          }
    | None -> ())
  else if frame.fr_active then begin
    if frame.fr_len = Array.length frame.fr_buf then begin
      let bigger = Array.make (2 * frame.fr_len) 0 in
      Array.blit frame.fr_buf 0 bigger 0 frame.fr_len;
      frame.fr_buf <- bigger
    end;
    frame.fr_buf.(frame.fr_len) <- (obj lsl 1) lor (if write then 1 else 0);
    frame.fr_len <- frame.fr_len + 1
  end

(* Rebuild the buffered touches as an access list in program order
   (cold path: probe hand-off and record-mode logs only). *)
let buffered_touches fr =
  let rec build i acc =
    if i < 0 then acc
    else
      let p = fr.fr_buf.(i) in
      build (i - 1) ({ obj = p asr 1; write = p land 1 <> 0 } :: acc)
  in
  build (fr.fr_len - 1) []

(* Validate every touch buffered since the last watermark against the
   effective footprint currently in force.  Called at step end and
   before each nested declaration widens the footprint, so each touch
   is judged exactly as the old per-touch check judged it.  Under a
   raising shadow the first undeclared touch (in program order)
   raises, as before. *)
let validate_buffer fr sh =
  if fr.fr_checked < fr.fr_len then begin
    let m = fr.fr_eff in
    for i = fr.fr_checked to fr.fr_len - 1 do
      let p = fr.fr_buf.(i) in
      let obj = p asr 1 and write = p land 1 <> 0 in
      if not (covers_access m ~obj ~write) then
        violate sh
          {
            v_kind = Undeclared_touch;
            v_obj = obj;
            v_write = write;
            v_pending = fr.fr_pending;
            v_step = sh.sh_steps;
          }
    done;
    fr.fr_checked <- fr.fr_len
  end

(* The observed footprint of the buffered touches; the empty buffer
   defers to the effective footprint (uninstrumented or touch-free
   step: trust the declaration). *)
let observed_of_buffer fr =
  if fr.fr_len = 0 then fr.fr_eff
  else begin
    let r = ref 0 and w = ref 0 and rest = ref [] in
    for i = 0 to fr.fr_len - 1 do
      let p = fr.fr_buf.(i) in
      let obj = p asr 1 and write = p land 1 <> 0 in
      if in_bits obj then begin
        let bit = 1 lsl obj in
        r := !r lor bit;
        if write then w := !w lor bit
      end
      else rest := { obj; write } :: !rest
    done;
    {
      m_opaque = false;
      m_r = !r;
      m_w = !w;
      m_rest = (match !rest with [] -> [] | rs -> normalize rs);
    }
  end

(* Whether a buffered touch of this step hit [obj] (a write, if
   [write]): the scan for ids outside the bitmask range. *)
let rec buffer_has fr ~obj ~write i =
  i < fr.fr_len
  && (let p = fr.fr_buf.(i) in
      (p asr 1 = obj && (p land 1 <> 0 || not write))
      || buffer_has fr ~obj ~write (i + 1))

(* Count one declaration of an object in its per-object stats. *)
let count_decl ms ~touched ~write ~wrote =
  ms.ms_decl <- ms.ms_decl + 1;
  if touched then ms.ms_touched <- ms.ms_touched + 1;
  if write then begin
    ms.ms_wdecl <- ms.ms_wdecl + 1;
    if wrote then ms.ms_wrote <- ms.ms_wrote + 1
  end

(* The index of the lowest set bit of [x <> 0], by binary search. *)
let lowest_bit x =
  let i = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then (i := !i + 32; x := !x lsr 32);
  if !x land 0xFFFF = 0 then (i := !i + 16; x := !x lsr 16);
  if !x land 0xFF = 0 then (i := !i + 8; x := !x lsr 8);
  if !x land 0xF = 0 then (i := !i + 4; x := !x lsr 4);
  if !x land 0x3 = 0 then (i := !i + 2; x := !x lsr 2);
  if !x land 0x1 = 0 then incr i;
  !i

(* The declared bit-range objects, one per set bit of [r] (a subset of
   the presence word); [tr]/[tw] are the step's touched and written
   bits. *)
let rec note_bits sh decl ~tr ~tw r =
  if r <> 0 then begin
    let obj = lowest_bit r in
    let bit = 1 lsl obj in
    count_decl sh.sh_near.(obj) ~touched:(tr land bit <> 0)
      ~write:(decl.m_w land bit <> 0) ~wrote:(tw land bit <> 0);
    note_bits sh decl ~tr ~tw (r lxor bit)
  end

(* Count one step's declarations in the shadow's per-object stats. *)
let note_declared sh fr ~tr ~tw decl =
  note_bits sh decl ~tr ~tw decl.m_r;
  match decl.m_rest with
  | [] -> ()
  | rest ->
      List.iter
        (fun a ->
          let ms =
            match Hashtbl.find_opt sh.sh_far a.obj with
            | Some ms -> ms
            | None ->
                let ms = fresh_mstat () in
                Hashtbl.add sh.sh_far a.obj ms;
                ms
          in
          count_decl ms
            ~touched:(buffer_has fr ~obj:a.obj ~write:false 0)
            ~write:a.write
            ~wrote:(a.write && buffer_has fr ~obj:a.obj ~write:true 0))
        rest

(* Step bracketing: [enter_step] as a grant begins executing its
   pending action, [leave_step] when the action's body returns (or
   raises) — crucially {e before} the continuation is resumed, because
   the continuation runs up to the process's next suspension inside
   the same dynamic extent.  Whether the step is active is decided
   once, here, from the installed shadow and probe. *)
let enter_step fr fp =
  fr.fr_depth <- 1;
  match (fr.fr_shadow, fr.fr_probe) with
  | None, None -> ()
  | _ ->
      fr.fr_active <- true;
      fr.fr_pending <- fp;
      fr.fr_eff <- fp;
      fr.fr_len <- 0;
      fr.fr_checked <- 0

(* The shadow's end-of-step work: declaration stats, the record-mode
   log, and batched validation.  Validation runs before the step
   counter advances, so a violation's [v_step] is the ordinal of the
   step it occurred in — exactly what the old per-touch check recorded.
   The counter still advances when a raising shadow aborts the step;
   the raise is returned, for [leave_step] to re-raise once the frame
   is reset. *)
let settle_shadow fr sh =
  (* Per-object declaration stats from the touched bits: one pair of
     bit tests per declared access, allocation-free. *)
  let tr = ref 0 and tw = ref 0 in
  for i = 0 to fr.fr_len - 1 do
    let p = fr.fr_buf.(i) in
    let obj = p asr 1 in
    if in_bits obj then begin
      let bit = 1 lsl obj in
      tr := !tr lor bit;
      if p land 1 <> 0 then tw := !tw lor bit
    end
  done;
  if fr.fr_pending.m_opaque then sh.sh_opaque <- sh.sh_opaque + 1
  else note_declared sh fr ~tr:!tr ~tw:!tw fr.fr_pending;
  if sh.sh_record then
    sh.sh_log <-
      {
        declared = fr.fr_pending;
        effective = fr.fr_eff;
        touched = buffered_touches fr;
      }
      :: sh.sh_log;
  let deferred =
    match validate_buffer fr sh with () -> None | exception e -> Some e
  in
  sh.sh_steps <- sh.sh_steps + 1;
  deferred

let leave_step fr =
  fr.fr_depth <- 0;
  if fr.fr_active then begin
    (match fr.fr_probe with
    | None -> ()
    | Some pr ->
        pr.pr_steps <- pr.pr_steps + 1;
        pr.pr_observed <- observed_of_buffer fr);
    let deferred =
      match fr.fr_shadow with None -> None | Some sh -> settle_shadow fr sh
    in
    fr.fr_len <- 0;
    fr.fr_checked <- 0;
    fr.fr_active <- false;
    match deferred with None -> () | Some e -> raise e
  end

(* A nested atomic call: runs inline, folds its declaration into the
   effective footprint, and — under a shadow — checks that the nested
   declaration does not escape the POR-visible pending footprint (the
   explorer decided commutation before the nested call could be
   known).  Touches buffered so far are validated first, against the
   effective footprint they were made under — widening it below must
   not retroactively legitimize them.  An inactive step keeps no
   footprint, so it only counts the depth. *)
let enter_nested fr fp =
  if fr.fr_active then begin
    (match fr.fr_shadow with
    | None -> ()
    | Some sh ->
        validate_buffer fr sh;
        if not (covers fr.fr_pending fp) then begin
          let v_obj, v_write =
            match accesses fp with
            | None -> (min_int, true)  (* a nested [atomic]: opaque *)
            | Some accs -> (
                match
                  List.find_opt
                    (fun a ->
                      not
                        (covers_access fr.fr_pending ~obj:a.obj ~write:a.write))
                    accs
                with
                | Some a -> (a.obj, a.write)
                | None -> (min_int, true))
          in
          violate sh
            {
              v_kind = Undeclared_nesting;
              v_obj;
              v_write;
              v_pending = fr.fr_pending;
              v_step = sh.sh_steps;
            }
        end);
    fr.fr_eff <- union fr.fr_eff fp
  end;
  fr.fr_depth <- fr.fr_depth + 1

let atomic_with fp f =
  if frame.fr_depth > 0 then begin
    enter_nested frame fp;
    match f () with
    | v ->
        frame.fr_depth <- frame.fr_depth - 1;
        v
    | exception e ->
        frame.fr_depth <- frame.fr_depth - 1;
        raise e
  end
  else perform (Atomic (fp, f))

let atomic f = atomic_with opaque f
let atomic_access ~obj ~write f = atomic_with (single ~obj ~write) f

(* ------------------------------------------------------------------ *)
(* Cells.                                                              *)

(* A suspended process is its slot: the continuation of the pending
   atomic action, the action itself and its declared footprint.
   [grant] runs the action and resumes the continuation with its
   result; [crash] discontinues it with [Killed].  Both clear the slot
   before touching the continuation, and the slot is the only
   reference to it, so each continuation is resumed or discontinued at
   most once with no flag to check, and a suspension allocates nothing
   beyond the slot. *)
type slot =
  | S_idle
  | S_ready : {
      k : ('a, unit) continuation;
      action : unit -> 'a;
      pending : footprint;  (* of the atomic action awaiting its grant *)
    }
      -> slot
  | S_crashed

(* A cell owns the effect handler its process runs under, built at
   the cell's first [spawn] and reused by every later one: a process
   that never invokes costs no handler, and one that invokes many
   times costs one. *)
type cell = {
  mutable slot : slot;
  mutable obs : int;  (* constant on a keyless cell *)
  mutable handler : (unit, unit) handler option;
  keyed : bool;
}

let make_cell ?(keyed = true) () =
  { slot = S_idle; obs = 0x811c9dc5; handler = None; keyed }

let make_handler cell =
  {
    retc = (fun () -> cell.slot <- S_idle);
    exnc =
      (fun e -> match e with Killed -> cell.slot <- S_crashed | e -> raise e);
    effc =
      (fun (type b) (eff : b Effect.t) ->
        match eff with
        | Atomic (fp, f) ->
            Some
              (fun (k : (b, unit) continuation) ->
                cell.slot <- S_ready { k; action = f; pending = fp })
        | _ -> None);
  }

let status cell =
  match cell.slot with
  | S_idle -> Idle
  | S_ready _ -> Ready
  | S_crashed -> Crashed

let pending cell =
  match cell.slot with
  | S_ready { pending; _ } -> Some pending
  | S_idle | S_crashed -> None

let obs cell = cell.obs

let spawn cell comp =
  match cell.slot with
  | S_idle ->
      let h =
        match cell.handler with
        | Some h -> h
        | None ->
            let h = make_handler cell in
            cell.handler <- Some h;
            h
      in
      match_with comp () h
  | S_ready _ | S_crashed -> invalid_arg "Runtime.spawn: process not idle"

let grant cell =
  match cell.slot with
  | S_ready { k; action; pending } ->
      (* The suspension will be replaced by the handler when the
         computation next suspends (or by [retc]/[exnc] when it
         finishes), so clear it first to catch reentrancy bugs. *)
      cell.slot <- S_idle;
      (* Bracket the action body — not the continuation: [continue k v]
         below runs the process up to its next suspension inside this
         call, and that code is between atomic steps (local by
         contract). *)
      enter_step frame pending;
      let v =
        match action () with
        | v ->
            leave_step frame;
            v
        | exception e ->
            leave_step frame;
            raise e
      in
      (* The local state of the process after this step is a
         deterministic function of its invocations (recorded in the
         history) and the results of its atomic actions; folding the
         result hashes gives an observation digest that stands in for
         the opaque continuation when fingerprinting configurations.
         A keyless cell is never fingerprinted, so it hashes nothing. *)
      if cell.keyed then cell.obs <- combine cell.obs (hash_value v);
      continue k v
  | S_idle | S_crashed -> invalid_arg "Runtime.grant: process not ready"

let crash cell =
  match cell.slot with
  | S_ready { k; _ } -> (
      cell.slot <- S_crashed;
      try discontinue k Killed with Killed -> ())
  | S_idle -> cell.slot <- S_crashed
  | S_crashed -> ()
