type kind =
  | Node_enter
  | Node_leave
  | Decision
  | Run_checked
  | Cache_hit
  | Por_sleep
  | Race_reversal
  | Proviso_wake
  | Invoke_prune
  | Symmetry_prune
  | Cycle_candidate
  | Pump_start
  | Pump_verdict

type event = {
  ev_ns : int;
  ev_kind : kind;
  ev_a : int;
  ev_b : int;
}

type ring = {
  r_buf : event array;
  r_cap : int;
  mutable r_next : int;  (* total events ever written *)
  mutable r_last_ns : int;  (* monotonic clamp *)
}

type sink = Null | Ring of ring

let null = Null
let enabled = function Null -> false | Ring _ -> true

let dummy = { ev_ns = 0; ev_kind = Decision; ev_a = 0; ev_b = 0 }

let ring ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Telemetry.ring: capacity < 1";
  {
    r_buf = Array.make capacity dummy;
    r_cap = capacity;
    r_next = 0;
    r_last_ns = 0;
  }

let sink_of_ring r = Ring r
let ring_dropped r = max 0 (r.r_next - r.r_cap)

let ring_events r =
  let n = min r.r_next r.r_cap in
  List.init n (fun i -> r.r_buf.((r.r_next - n + i) mod r.r_cap))

(* The hot path: a single branch when disabled.  Arguments are ints so
   the disabled case allocates nothing. *)
let[@inline] emit sink kind a b =
  match sink with
  | Null -> ()
  | Ring r ->
      let ns = Clock.now_ns () in
      let ns = if ns < r.r_last_ns then r.r_last_ns else ns in
      r.r_last_ns <- ns;
      r.r_buf.(r.r_next mod r.r_cap) <-
        { ev_ns = ns; ev_kind = kind; ev_a = a; ev_b = b };
      r.r_next <- r.r_next + 1
