type sample = {
  s_nodes : int;
  s_runs : int;
  s_steps : int;
  s_cache_entries : int;
  s_cycles : int;
}

let zero =
  {
    s_nodes = 0;
    s_runs = 0;
    s_steps = 0;
    s_cache_entries = 0;
    s_cycles = 0;
  }

type state = {
  interval_ns : int;
  json : bool;
  out : out_channel;
  start_ns : int;
  mutable countdown : int;
  mutable due_ns : int;
  mutable last_ns : int;
  mutable last_nodes : int;
  mutable last_steps : int;
  mutable beats : int;
}

type t = Off | On of state

(* Clock reads are amortized: one gettimeofday per [check_every]
   ticks.  Between beats the only per-tick cost is a decrement. *)
let check_every = 64

let off = Off

let create ?(interval = 1.0) ?(json = false) ?(out = stderr) () =
  if interval < 0. then invalid_arg "Progress.create: negative interval";
  let now = Clock.now_ns () in
  On
    {
      interval_ns = int_of_float (interval *. 1e9);
      json;
      out;
      start_ns = now;
      countdown = check_every;
      due_ns = now + int_of_float (interval *. 1e9);
      last_ns = now;
      last_nodes = 0;
      last_steps = 0;
      beats = 0;
    }

let enabled = function Off -> false | On _ -> true
let beats = function Off -> 0 | On s -> s.beats

let human n =
  if n >= 10_000_000 then Printf.sprintf "%.1fM" (float_of_int n /. 1e6)
  else if n >= 10_000 then Printf.sprintf "%.1fk" (float_of_int n /. 1e3)
  else string_of_int n

let rate ~dn ~dt_ns =
  if dt_ns <= 0 then 0. else float_of_int dn /. (float_of_int dt_ns /. 1e9)

let emit s now (x : sample) =
  let elapsed_s = float_of_int (now - s.start_ns) /. 1e9 in
  let dt_ns = now - s.last_ns in
  let nodes_s = rate ~dn:(x.s_nodes - s.last_nodes) ~dt_ns in
  let steps_s = rate ~dn:(x.s_steps - s.last_steps) ~dt_ns in
  if s.json then
    Printf.fprintf s.out
      "{\"elapsed_s\": %.3f, \"nodes\": %d, \"nodes_per_s\": %.0f, \
       \"runs\": %d, \"steps\": %d, \"steps_per_s\": %.0f, \
       \"cache_entries\": %d, \"cycles_examined\": %d}\n"
      elapsed_s x.s_nodes nodes_s x.s_runs x.s_steps steps_s
      x.s_cache_entries x.s_cycles
  else begin
    let cycles =
      if x.s_cycles > 0 then Printf.sprintf "  cycles %s" (human x.s_cycles)
      else ""
    in
    Printf.fprintf s.out
      "[slx] %6.1fs  nodes %s (%s/s)  runs %s  steps %s (%s/s)  cache %s%s\n"
      elapsed_s (human x.s_nodes)
      (human (int_of_float nodes_s))
      (human x.s_runs) (human x.s_steps)
      (human (int_of_float steps_s))
      (human x.s_cache_entries)
      cycles
  end;
  flush s.out;
  s.beats <- s.beats + 1;
  s.last_ns <- now;
  s.last_nodes <- x.s_nodes;
  s.last_steps <- x.s_steps;
  s.due_ns <- now + s.interval_ns

let[@inline] tick t sample =
  match t with
  | Off -> ()
  | On s ->
      s.countdown <- s.countdown - 1;
      if s.countdown <= 0 then begin
        s.countdown <- check_every;
        let now = Clock.now_ns () in
        if now >= s.due_ns then emit s now (sample ())
      end
