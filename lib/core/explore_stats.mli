(** Counters produced by the exploration engine ({!Explore}), so that
    the incremental/cached/reduced engine's speedup over naive
    replay is measured, not asserted.  Surfaced by the bench smoke
    target and the [slx explore] subcommand (as JSON under [--json]). *)

type t = {
  nodes : int;
      (** Decision-tree nodes visited, transposition hits included. *)
  runs : int;
      (** Maximal runs accounted for, cache-credited subtrees included.
          With reductions off this equals the count a naive enumeration
          reports; with POR/symmetry on it counts the representative
          runs actually explored (each standing for an equivalence
          class of runs under commutation/renaming). *)
  runs_checked : int;
      (** Maximal runs on which [check] actually executed ([runs] minus
          runs credited from the transposition cache). *)
  steps_executed : int;
      (** Runtime ticks actually applied across all cursors — the
          engine's unit of work, and the quantity the incremental
          engine and the reductions minimize. *)
  steps_replayed : int;
      (** The subset of [steps_executed] spent re-establishing a
          configuration by replaying a decision prefix (backtracking to
          a sibling, or replaying a stolen frontier item). *)
  replays_avoided : int;
      (** Nodes entered by extending the parent's cursor in place — each
          saved a full prefix replay the naive engine performs.  A crash
          child that ends its run is checked from its parent's cursor
          without a cursor of its own ({!Search.crash_child} [Leaf]):
          it counts as neither replayed nor avoided, and its parent's
          next child may still extend the cursor in place. *)
  cache_hits : int;  (** Subtrees pruned by the transposition cache. *)
  cache_entries : int;  (** Final size of the transposition cache. *)
  por_prunes : int;
      (** Scheduling decisions skipped because the process was in the
          DPOR sleep set — each cuts a redundant interleaving of
          commuting steps.  The safety explorer also counts here,
          once per crash, each crash child it decides dead at its
          parent: one whose menu would offer only sleepers
          ({!Search.crash_child} [Dead]).  Counted by both engines; the liveness
          search's invoke order has its own counter
          ([invoke_order_prunes]). *)
  race_reversals : int;
      (** Sleeping processes woken because an executed step's {e
          observed} accesses raced with their pending action
          ({!Dpor.advance}) — each forces the reversed order of a
          dynamic conflict to be explored.  The fair-cycle search
          settles no sleep set at the depth bound, where a leaf has no
          menu to prune, so it counts only wakes below it. *)
  invoke_order_prunes : int;
      (** Fair-cycle search ({!Live_explore}) only: invocations pruned
          by the invoke order (offer only the least idle process's
          invocation).  Previously folded into the POR counter; split
          so the two reductions are attributable. *)
  proviso_wakes : int;
      (** Fair-cycle search only: sleepers woken without a race.  A
          process sleeps at one node only, so each child below the
          depth bound drops its parent's sleepers that its own step
          did not wake by a race (those count as [race_reversals]);
          and a node whose every enabled decision is asleep force-wakes
          them all rather than truncate the path (doc/model.md §7).  A
          leaf at the depth bound settles none, so none is counted
          there. *)
  symmetry_pruned : int;
      (** Decisions pruned as symmetric to a lower-numbered untouched
          process's decision (symmetry reduction orbit pruning). *)
  cycles_examined : int;
      (** Fair-cycle search ({!Live_explore}) only: candidate cycles
          examined — periodic suffixes of the abstract trace found
          during the walk (0 for the safety engines). *)
  fair_cycles : int;
      (** Fair-cycle search only: candidates that were fair and
          progress-violating before certificate validation; the search
          stops at the first one whose certificate also pumps. *)
  elapsed_ns : int;
      (** Wall-clock nanoseconds of the exploration, measured inside
          the engine (entry to exit). *)
  events_dropped : int;
      (** Telemetry events lost to ring-buffer overflow while tracing
          (0 when tracing is off or the ring kept up).  Non-zero
          means the exported trace under-reports — grow the ring. *)
  history_digest : int;
      (** Order-insensitive digest (wrapping integer sum of deep hashes)
          of the final histories of all maximal runs.  Two engines that
          explore the same run set agree on [runs] and this digest; the
          differential suite uses it to compare engines through the
          cache, which never materializes pruned runs.  Engines with
          POR/symmetry on explore a subset of representatives, so their
          digest is compared only against engines with the same
          reductions. *)
}

val zero : t

val pp : Format.formatter -> t -> unit

val to_json : t -> string
(** One-line JSON object of the full record. *)
