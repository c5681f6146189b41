open Effect
open Effect.Deep

(* One access to a base object, as a step performed it: which object
   and whether it was written. *)
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

(* The access footprint of an atomic step: which base objects it
   touched and whether it wrote them, as conflict bitmasks.
   [m_opaque] conflicts with everything: the footprint of a step
   nothing observed.

   Registry-issued object ids are small positive ints (dense from 1)
   and orphan ids are negative, so almost every footprint fits two
   machine words: [m_r] has bit [i] set iff object [i] is accessed at
   all, [m_w] iff it is written (0 <= i < mask_width).  Ids outside
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
  m_w : int;  (* write bits: object i is written *)
  m_rest : access list;  (* normalized accesses with ids outside [0,61] *)
}

let empty = { m_opaque = false; m_r = 0; m_w = 0; m_rest = [] }
let opaque = { empty with m_opaque = true }
let in_bits obj = obj >= 0 && obj < mask_width

(* The footprint of packed accesses [(obj lsl 1) lor write], in
   [packed.(0) .. packed.(len - 1)]. *)
let of_packed packed len =
  let r = ref 0 and w = ref 0 and rest = ref [] in
  for i = 0 to len - 1 do
    let p = packed.(i) in
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

let of_accesses accs =
  let packed =
    Array.of_list
      (List.map (fun a -> (a.obj lsl 1) lor if a.write then 1 else 0) accs)
  in
  of_packed packed (Array.length packed)

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

let conflict a b = a.obj = b.obj && (a.write || b.write)

let commute a b =
  (not (a.m_opaque || b.m_opaque))
  && (a.m_w land b.m_r) lor (b.m_w land a.m_r) = 0
  && (match (a.m_rest, b.m_rest) with
     | [], _ | _, [] -> true
     | ra, rb -> not (List.exists (fun x -> List.exists (conflict x) rb) ra))

type _ Effect.t += Atomic : (unit -> 'a) -> 'a Effect.t

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
   instrumented base-object layer establishes this by construction:
   stores route through [Slx_base_objects.store], which touches the
   {e owning} cell. *)

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

   It holds the current registry, the installed DPOR probe (see the
   section below), and the state of the atomic step in flight.  A
   grant and a touch reach all of it with one load.

   An [atomic] call made while an atomic step is already executing
   runs inline (it cannot suspend again — the scheduler is mid-grant),
   as part of the same step.

   The touch buffer is a flat array of packed ints — [(obj lsl 1) lor
   write] — appended to with no allocation; [asr]/[land] recover the
   access (the encoding is sign-correct for negative orphan ids).  A
   step that begins with no probe installed — every step of a prefix
   replay — is {e inactive}: it buffers no touch and writes no pointer
   field of the frame, so [enter_step]/[leave_step] are two int
   stores. *)
type frame = {
  mutable fr_registry : registry option;  (* current: [with_registry] *)
  mutable fr_probe : probe option;  (* installed: [with_registry] *)
  mutable fr_depth : int;  (* nesting depth of in-flight atomic code *)
  mutable fr_active : bool;  (* the step in flight began under a probe *)
  mutable fr_buf : int array;  (* packed touches, program order *)
  mutable fr_len : int;  (* touches buffered this step *)
}

and probe = {
  mutable pr_steps : int;  (* atomic steps completed under this probe *)
  mutable pr_observed : footprint;  (* observed footprint of the last step *)
}

let frame =
  {
    fr_registry = None;
    fr_probe = None;
    fr_depth = 0;
    fr_active = false;
    fr_buf = Array.make 64 0;
    fr_len = 0;
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
   probe only where it installed one. *)
let restore fr reg0 ~probe pr0 =
  fr.fr_registry <- reg0;
  if Option.is_some probe then fr.fr_probe <- pr0

(* One bracket installs the registry and, when given, the probe: the
   cursor's whole execution context in one frame update. *)
let with_registry ?probe reg f =
  let reg0 = frame.fr_registry and pr0 = frame.fr_probe in
  frame.fr_registry <- Some reg;
  if Option.is_some probe then frame.fr_probe <- probe;
  match f () with
  | x ->
      restore frame reg0 ~probe pr0;
      x
  | exception e ->
      restore frame reg0 ~probe pr0;
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
   cross-check: it differs from [registry_digest] only if some
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
(* Dynamic-conflict probe: the DPOR observed-access recorder.

   The probe records the observed footprint of the last completed
   atomic step — what it physically touched in this configuration —
   so the exploration engines can compute race reversals from what a
   step actually did.  One probe per engine, installed around
   [Runner.Cursor.apply]; with no probe installed, [touch] stays one
   frame read and two branches. *)

let make_probe () = { pr_steps = 0; pr_observed = empty }
let probe_steps pr = pr.pr_steps
let probe_last_observed pr = pr.pr_observed

(* The hot path: one frame read, a depth test, an activity test and a
   packed store.  No allocation. *)
let touch ~obj ~write =
  (* Keep the registry's incremental digest exact: every physical
     write invalidates the written object's cached contribution, with
     or without a probe installed. *)
  if write then mark_written frame obj;
  if frame.fr_depth = 0 then
    invalid_arg "Runtime.touch: no atomic step in flight"
  else if frame.fr_active then begin
    if frame.fr_len = Array.length frame.fr_buf then begin
      let bigger = Array.make (2 * frame.fr_len) 0 in
      Array.blit frame.fr_buf 0 bigger 0 frame.fr_len;
      frame.fr_buf <- bigger
    end;
    frame.fr_buf.(frame.fr_len) <- (obj lsl 1) lor (if write then 1 else 0);
    frame.fr_len <- frame.fr_len + 1
  end

(* Step bracketing: [enter_step] as a grant begins executing its
   pending action, [leave_step] when the action's body returns (or
   raises) — crucially {e before} the continuation is resumed, because
   the continuation runs up to the process's next suspension inside
   the same dynamic extent.  Whether the step is active is decided
   once, here, from the installed probe. *)
let enter_step fr =
  fr.fr_depth <- 1;
  if Option.is_some fr.fr_probe then begin
    fr.fr_active <- true;
    fr.fr_len <- 0
  end

let leave_step fr =
  fr.fr_depth <- 0;
  if fr.fr_active then begin
    (match fr.fr_probe with
    | None -> ()
    | Some pr ->
        pr.pr_steps <- pr.pr_steps + 1;
        pr.pr_observed <- of_packed fr.fr_buf fr.fr_len);
    fr.fr_len <- 0;
    fr.fr_active <- false
  end

let atomic f =
  if frame.fr_depth > 0 then begin
    frame.fr_depth <- frame.fr_depth + 1;
    match f () with
    | v ->
        frame.fr_depth <- frame.fr_depth - 1;
        v
    | exception e ->
        frame.fr_depth <- frame.fr_depth - 1;
        raise e
  end
  else perform (Atomic f)

(* ------------------------------------------------------------------ *)
(* Cells.                                                              *)

(* A suspended process is its slot: the continuation of the pending
   atomic action and the action itself.
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
        | Atomic f ->
            Some
              (fun (k : (b, unit) continuation) ->
                cell.slot <- S_ready { k; action = f })
        | _ -> None);
  }

let status cell =
  match cell.slot with
  | S_idle -> Idle
  | S_ready _ -> Ready
  | S_crashed -> Crashed

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
  | S_ready { k; action } ->
      (* The suspension will be replaced by the handler when the
         computation next suspends (or by [retc]/[exnc] when it
         finishes), so clear it first to catch reentrancy bugs. *)
      cell.slot <- S_idle;
      (* Bracket the action body — not the continuation: [continue k v]
         below runs the process up to its next suspension inside this
         call, and that code is between atomic steps (local by
         contract). *)
      enter_step frame;
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
