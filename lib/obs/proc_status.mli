(** Memory figures of a process, from Linux's [/proc/<pid>/status].

    Where that file is absent (another OS, a process that has already
    exited) every reader returns [None], so callers degrade to "not
    measured" instead of failing. *)

val kb : ?pid:int -> string -> int option
(** [kb ?pid field] is the value, in kB, of the [field] line (for
    example ["VmHWM"], the peak resident set, or ["VmRSS"], the current
    one) of process [pid]'s status file (default: the calling
    process). *)
