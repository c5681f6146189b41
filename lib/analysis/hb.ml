open Slx_history
open Slx_sim

type step = {
  hs_proc : Proc.t;
  hs_decl : Runtime.footprint;
  hs_touched : Runtime.access list;
}

type cert = { hb_steps : int; hb_edges : int; hb_checks : int }

type mismatch = {
  mm_obj : int;
  mm_write : bool;
  mm_earlier : int;
  mm_earlier_proc : Proc.t;
  mm_earlier_decl : Runtime.footprint;
  mm_later : int;
  mm_later_proc : Proc.t;
  mm_later_decl : Runtime.footprint;
}

let pp_mismatch fmt m =
  Format.fprintf fmt
    "steps %d (proc %d, declared %a) and %d (proc %d, declared %a) conflict \
     on object %d (%s) but their declared footprints commute"
    m.mm_earlier m.mm_earlier_proc Runtime.pp_footprint m.mm_earlier_decl
    m.mm_later m.mm_later_proc Runtime.pp_footprint m.mm_later_decl m.mm_obj
    (if m.mm_write then "write" else "read")

(* Dedupe a step's touch list to one access per object (write wins):
   repeated touches of the same cell within one atomic action are one
   conflict source, not several. *)
let dedup touched =
  Option.value ~default:[] (Runtime.accesses (Runtime.of_accesses touched))

(* An observed conflict: both steps touched [obj], at least one wrote.
   The same oracle the DPOR engines wake sleepers with — sharing it is
   what makes this certifier a check of exactly the relation the
   reduction relied on. *)
let observed_conflict = Slx_core.Dpor.observed_conflict

let certify ~n steps =
  let steps = Array.of_list steps in
  let k = Array.length steps in
  let touches = Array.map (fun s -> dedup s.hs_touched) steps in
  (* Pass 1 — the cross-check (soundness): every pair of steps of
     different processes with an observed conflict must have declared
     footprints that do NOT commute.  Derived purely from the observed
     touches, so it certifies the commutation relation POR used
     without trusting any declaration.  O(k²) in the run length, which
     is bounded by the audit depth. *)
  let mismatch = ref None in
  let checks = ref 0 in
  (try
     for j = 0 to k - 1 do
       for i = 0 to j - 1 do
         if not (Proc.equal steps.(i).hs_proc steps.(j).hs_proc) then
           let conflicting =
             List.exists
               (fun a -> List.exists (observed_conflict a) touches.(j))
               touches.(i)
           in
           if conflicting then begin
             incr checks;
             if Runtime.commute steps.(i).hs_decl steps.(j).hs_decl
             then begin
               let obj, write =
                 (* The first conflicting object, for the report. *)
                 let found = ref (0, false) in
                 List.iter
                   (fun (a : Runtime.access) ->
                     List.iter
                       (fun (b : Runtime.access) ->
                         if observed_conflict a b && !found = (0, false) then
                           found :=
                             (a.Runtime.obj, a.Runtime.write || b.Runtime.write))
                       touches.(j))
                   touches.(i);
                 !found
               in
               mismatch :=
                 Some
                   {
                     mm_obj = obj;
                     mm_write = write;
                     mm_earlier = i;
                     mm_earlier_proc = steps.(i).hs_proc;
                     mm_earlier_decl = steps.(i).hs_decl;
                     mm_later = j;
                     mm_later_proc = steps.(j).hs_proc;
                     mm_later_decl = steps.(j).hs_decl;
                   };
               raise Exit
             end
           end
       done
     done
   with Exit -> ());
  match !mismatch with
  | Some m -> Error m
  | None ->
      (* Pass 2 — the FastTrack-style vector-clock sweep, counting the
         non-redundant happens-before edges the conflicts induce: per
         object, the last write and the reads since it; an edge is new
         only when its source is not already ordered before the
         current step.  The count sizes the certified conflict
         relation ([Audit]'s [cr_hb_edges]). *)
      let vc = Array.init (n + 1) (fun _ -> Array.make (n + 1) 0) in
      (* Per object: last write and reads-since-last-write, each as
         (proc, clock snapshot). *)
      let last_write : (int, Proc.t * int array) Hashtbl.t =
        Hashtbl.create 16
      in
      let reads : (int, (Proc.t * int array) list) Hashtbl.t =
        Hashtbl.create 16
      in
      let edges = ref 0 in
      for j = 0 to k - 1 do
        let p = steps.(j).hs_proc in
        let me = vc.(p) in
        me.(p) <- me.(p) + 1;
        let join (q, snap) =
          if not (Proc.equal q p) then begin
            if me.(q) < snap.(q) then begin
              (* Not yet ordered: a fresh conflict edge. *)
              incr edges;
              for i = 0 to n do
                if snap.(i) > me.(i) then me.(i) <- snap.(i)
              done
            end
          end
        in
        List.iter
          (fun (a : Runtime.access) ->
            let o = a.Runtime.obj in
            (match Hashtbl.find_opt last_write o with
            | Some w -> join w
            | None -> ());
            if a.Runtime.write then begin
              List.iter join
                (Option.value ~default:[] (Hashtbl.find_opt reads o));
              Hashtbl.replace last_write o (p, Array.copy me);
              Hashtbl.replace reads o []
            end
            else
              Hashtbl.replace reads o
                ((p, Array.copy me)
                :: Option.value ~default:[] (Hashtbl.find_opt reads o)))
          touches.(j)
      done;
      Ok { hb_steps = k; hb_edges = !edges; hb_checks = !checks }

let of_run ~shadow ~grants =
  let logs = Runtime.shadow_steps shadow in
  let procs = List.map snd grants in
  if List.length logs <> List.length procs then
    invalid_arg "Hb.of_run: shadow log and grant list disagree";
  List.map2
    (fun (log : Runtime.step_log) p ->
      {
        hs_proc = p;
        hs_decl = log.Runtime.declared;
        hs_touched = log.Runtime.touched;
      })
    logs procs
