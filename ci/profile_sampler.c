/* A sampling profiler shim for `ci/check.sh profile`.
 *
 * Loaded with LD_PRELOAD into a program built with -fno-omit-frame-pointer,
 * it arms ITIMER_PROF to fire once per millisecond of process CPU time (the
 * kernel delivers it no faster than its tick: about 250 Hz with HZ=250).
 * Each SIGPROF records the interrupted program counter and the return
 * addresses found by walking the frame-pointer chain of the interrupted
 * thread's stack (coroutine bodies run on that stack too, so their frames
 * are walked like any other).  At exit the samples and the process's
 * memory map are written as text to the file named by CPE_PROFILE_OUT,
 * for check.sh to resolve with nm.
 *
 * x86-64 Linux only.  The handler only reads registers and stack words
 * and writes a preallocated array, so it is async-signal-safe; samples
 * that no longer fit are counted and dropped.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#if !defined(__x86_64__)
#error "profile_sampler.c walks x86-64 frame pointers"
#endif

enum { kMaxDepth = 256, kMaxWords = 1 << 22 };

/* Sample k is words[i] = depth, then depth addresses, leaf first. */
static uintptr_t words[kMaxWords];
static volatile size_t n_words;
static volatile size_t n_dropped;
static uintptr_t stack_lo, stack_hi;

static void on_prof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = context;
  const size_t start = n_words;
  if (start + 1 + kMaxDepth > kMaxWords) {
    n_dropped = n_dropped + 1;
    return;
  }
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  size_t depth = 0;
  words[start + 1 + depth++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  /* A frame is [saved fp, return address]; stop at anything that is not
   * an aligned address above the interrupted stack pointer on this stack,
   * or that does not move up it.  Code built without frame pointers (libc)
   * leaves anything in the register, so the bound is written so that it
   * cannot wrap: fp + 16 <= stack_hi would pass for fp = -8. */
  while (depth < kMaxDepth && fp % 8 == 0 && fp >= sp && fp >= stack_lo &&
         fp <= stack_hi - 16) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    if (frame[1] == 0) break;
    words[start + 1 + depth++] = frame[1] - 1; /* inside the call */
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  words[start] = depth;
  n_words = start + 1 + depth;
}

__attribute__((constructor)) static void sampler_start(void) {
  if (getenv("CPE_PROFILE_OUT") == NULL) return;
  pthread_attr_t attr;
  void* addr;
  size_t size;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  pthread_attr_getstack(&attr, &addr, &size);
  pthread_attr_destroy(&attr);
  stack_lo = (uintptr_t)addr;
  stack_hi = stack_lo + size;

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void sampler_stop(void) {
  const char* path = getenv("CPE_PROFILE_OUT");
  if (path == NULL) return;
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fputs("# maps\n", out);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096];
    while (fgets(line, sizeof line, maps) != NULL) fputs(line, out);
    fclose(maps);
  }
  fprintf(out, "# samples dropped %zu\n", (size_t)n_dropped);
  for (size_t i = 0; i < n_words;) {
    const size_t depth = words[i++];
    for (size_t k = 0; k < depth; ++k)
      fprintf(out, k == 0 ? "%lx" : " %lx", (unsigned long)words[i + k]);
    fputc('\n', out);
    i += depth;
  }
  fclose(out);
}
