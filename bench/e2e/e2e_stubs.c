/* System calls the OCaml Unix library does not expose: wait4 (to read
   a reaped child's peak resident set size), a monotonic nanosecond
   clock for the benchmark's own end-to-end timers, the Linux
   child-subreaper flag (so that workers orphaned by a dead coordinator
   are reparented to the benchmark, which then reaps them), and the
   processor affinity mask (so that a host-speed sample runs on the
   processor whose speed it stands for). */

#define _GNU_SOURCE
#include <errno.h>
#ifdef __linux__
#include <sched.h>
#include <sys/prctl.h>
#endif
#include <sys/resource.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* e2e_wait4 pid = (exit, maxrss_kb).  [exit] is the exit status of a
   normal exit and -signal for a child killed by a signal.  On Linux
   the rusage of a reaped child covers the children it reaped itself,
   so a coordinator's figure includes its workers. */
value e2e_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : -WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

value e2e_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

value e2e_set_subreaper(value unit)
{
  (void)unit;
#if defined(__linux__) && defined(PR_SET_CHILD_SUBREAPER)
  prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0);
#endif
  return Val_unit;
}

/* e2e_affinity () = the processors this process may run on, as an
   array of processor numbers; empty where affinity is not supported. */
value e2e_affinity(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
#ifdef __linux__
  cpu_set_t set;
  int i, k = 0, n = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) n = CPU_COUNT(&set);
  res = caml_alloc_tuple(n);
  for (i = 0; i < CPU_SETSIZE && k < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, k++, Val_int(i));
#else
  res = Atom(0);
#endif
  CAMLreturn(res);
}

/* e2e_set_affinity cpus: run this thread, and the children it spawns
   from now on, only on [cpus].  Failures are ignored: the timings then
   come from whatever processor the scheduler picks. */
value e2e_set_affinity(value cpus)
{
  CAMLparam1(cpus);
#ifdef __linux__
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) {
    int c = Int_val(Field(cpus, i));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  if (CPU_COUNT(&set) > 0) sched_setaffinity(0, sizeof set, &set);
#endif
  CAMLreturn(Val_unit);
}

/* e2e_current_cpu () = the processor this thread is running on, or -1. */
value e2e_current_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  return Val_int(sched_getcpu());
#else
  return Val_int(-1);
#endif
}
