/* Process placement for the benchmark: the load generator and mtd get
   disjoint CPUs, so neither one's scheduling decides the other's
   numbers, and mtd dies with the benchmark even when the benchmark is
   killed outright. */

#define _GNU_SOURCE
#include <sched.h>
#include <signal.h>
#include <stdlib.h>
#include <string.h>
#include <sys/prctl.h>
#include <unistd.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>
#include <caml/fail.h>

/* The CPUs the calling thread may run on, ascending. */
value ycsb_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  cpu_set_t set;
  int n = 0, i, j = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CAMLreturn(caml_alloc(0, 0));
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) n++;
  res = caml_alloc(n, 0);
  for (i = 0; i < CPU_SETSIZE; i++)
    if (CPU_ISSET(i, &set)) Store_field(res, j++, Val_int(i));
  CAMLreturn(res);
}

static void cpu_set_of(value cpus, cpu_set_t *set)
{
  mlsize_t i;
  CPU_ZERO(set);
  for (i = 0; i < Wosize_val(cpus); i++) {
    long c = Long_val(Field(cpus, i));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, set);
  }
}

/* Restrict the calling thread to [cpus]. */
value ycsb_set_cpus(value cpus)
{
  cpu_set_t set;
  cpu_set_of(cpus, &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* Start [argv] (argv.(0) is the program) on [cpus] with the given stdout
   and stderr.  The child gets SIGKILL when the benchmark dies. */
value ycsb_spawn(value argv, value out_fd, value err_fd, value cpus)
{
  CAMLparam4(argv, out_fd, err_fd, cpus);
  mlsize_t n = Wosize_val(argv), i;
  char **args = malloc((n + 1) * sizeof(char *));
  cpu_set_t set;
  pid_t parent = getpid(), pid;
  if (args == NULL) caml_failwith("spawn: out of memory");
  for (i = 0; i < n; i++) args[i] = strdup(String_val(Field(argv, i)));
  args[n] = NULL;
  cpu_set_of(cpus, &set);
  pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    sched_setaffinity(0, sizeof set, &set);
    dup2(Int_val(out_fd), 1);
    dup2(Int_val(err_fd), 2);
    execv(args[0], args);
    _exit(127);
  }
  for (i = 0; i < n; i++) free(args[i]);
  free(args);
  if (pid < 0) caml_failwith("spawn: fork failed");
  CAMLreturn(Val_int(pid));
}
