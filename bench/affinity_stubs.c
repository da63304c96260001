/* CPU pinning for the single-core experiments: a miss-latency curve is
   only meaningful while the thread stays on one core (and its caches). */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Pin the calling thread to the highest CPU it may run on.  Returns that
   CPU, or -1 when the affinity calls fail. */
value bench_pin_last_cpu(value unit)
{
  cpu_set_t set;
  int i, cpu = -1;
  (void)unit;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) cpu = i;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}
