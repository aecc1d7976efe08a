/* Monotonic clock for the benchmark's spans and task timers.

   The OCaml side declares the native entry [@@noalloc] with an untagged
   int result, so a read is one C call that allocates nothing and cannot
   trigger a collection: timing a call does not change what the call
   allocates. */

#define _POSIX_C_SOURCE 199309L
#include <time.h>

#include <caml/mlvalues.h>

intnat perfbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
  return Val_long(perfbench_now_ns(unit));
}
