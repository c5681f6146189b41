(* A history is stored as a reversed event list, so that [append] is
   O(1); chronological order is recovered on demand. *)

type ('inv, 'res) t = { rev_events : ('inv, 'res) Event.t list; len : int }

let empty = { rev_events = []; len = 0 }

let append h e = { rev_events = e :: h.rev_events; len = h.len + 1 }

let of_list events =
  { rev_events = List.rev events; len = List.length events }

let to_list h = List.rev h.rev_events

let length h = h.len

let latest h k =
  if k < 0 || k > h.len then invalid_arg "History.latest: bad count";
  let rec go k acc = function
    | e :: tl when k > 0 -> go (k - 1) (e :: acc) tl
    | _ -> acc
  in
  go k [] h.rev_events

let is_empty h = h.len = 0

let nth h i =
  if i < 0 || i >= h.len then invalid_arg "History.nth: index out of bounds";
  (* The reversed list stores event [len - 1] first. *)
  List.nth h.rev_events (h.len - 1 - i)

let project h p =
  let rev_events = List.filter (fun e -> Proc.equal (Event.proc e) p) h.rev_events in
  { rev_events; len = List.length rev_events }

let procs h =
  List.fold_left
    (fun acc e -> Proc.Set.add (Event.proc e) acc)
    Proc.Set.empty h.rev_events

let crashed h =
  List.fold_left
    (fun acc e ->
      match e with
      | Event.Crash p -> Proc.Set.add p acc
      | Event.Invocation _ | Event.Response _ -> acc)
    Proc.Set.empty h.rev_events

let is_correct h p = not (Proc.Set.mem p (crashed h))

(* Per-process status while scanning chronologically. *)
type status = Idle | Pending | Crashed

(* One chronological pass that stops at the first ill-formed event.
   The statuses of the processes seen so far sit in a short association
   list; a process absent from it is [Idle]. *)
let is_well_formed h =
  let rec status p = function
    | [] -> Idle
    | (q, s) :: tl -> if Proc.equal p q then s else status p tl
  in
  let rec set p s = function
    | [] -> [ (p, s) ]
    | (q, _) :: tl when Proc.equal p q -> (p, s) :: tl
    | b :: tl -> b :: set p s tl
  in
  let rec scan statuses = function
    | [] -> true
    | e :: rest -> (
        let p = Event.proc e in
        match (e, status p statuses) with
        | _, Crashed
        | Event.Invocation _, Pending
        | Event.Response _, Idle ->
            false
        | Event.Invocation _, Idle -> scan (set p Pending statuses) rest
        | Event.Response _, Pending -> scan (set p Idle statuses) rest
        | Event.Crash _, (Idle | Pending) ->
            scan (set p Crashed statuses) rest)
  in
  scan [] (List.rev h.rev_events)

let pending h p =
  (* Find the last non-crash event of [p]; pending iff it is an
     invocation.  A trailing crash does not cancel pendingness for the
     purpose of [h|p] inspection, but a crashed process is reported as
     non-pending since it will never take another step. *)
  let rec find = function
    | [] -> None
    | e :: rest ->
        if not (Proc.equal (Event.proc e) p) then find rest
        else begin
          match e with
          | Event.Crash _ -> None
          | Event.Invocation (_, inv) -> Some inv
          | Event.Response _ -> None
        end
  in
  find h.rev_events

let pending_procs h =
  Proc.Set.filter (fun p -> Option.is_some (pending h p)) (procs h)

let prefix h k =
  if k < 0 || k > h.len then invalid_arg "History.prefix";
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  { rev_events = drop (h.len - k) h.rev_events; len = k }

let prefixes h =
  List.init (h.len + 1) (fun k -> prefix h k)

let equal ~inv ~res h1 h2 =
  h1.len = h2.len
  && List.for_all2 (Event.equal ~inv ~res) h1.rev_events h2.rev_events

let is_prefix ~inv ~res h1 h2 =
  h1.len <= h2.len && equal ~inv ~res h1 (prefix h2 h1.len)

let concat h1 h2 =
  { rev_events = h2.rev_events @ h1.rev_events; len = h1.len + h2.len }

let filter f h =
  let rev_events = List.filter f h.rev_events in
  { rev_events; len = List.length rev_events }

let map ~inv ~res h =
  { h with rev_events = List.map (Event.map ~inv ~res) h.rev_events }

let rename f h =
  { h with rev_events = List.map (Event.rename f) h.rev_events }

let responses_of h p =
  List.filter_map
    (fun e ->
      if Proc.equal (Event.proc e) p then Event.response e else None)
    (to_list h)

let invocations_of h p =
  List.filter_map
    (fun e ->
      if Proc.equal (Event.proc e) p then Event.invocation e else None)
    (to_list h)

let count f h =
  List.fold_left (fun n e -> if f e then n + 1 else n) 0 h.rev_events

let pp ~pp_inv ~pp_res fmt h =
  let pp_sep fmt () = Format.fprintf fmt " .@ " in
  Format.fprintf fmt "@[<hov>%a@]"
    (Format.pp_print_list ~pp_sep (Event.pp ~pp_inv ~pp_res))
    (to_list h)
