/* sigprof: a sampling CPU profiler loaded with LD_PRELOAD (Linux x86-64).
 *
 * A process-wide ITIMER_PROF timer raises SIGPROF after every
 * SIGPROF_USEC microseconds of CPU time the process burns, on all its
 * threads together; the handler records the interrupted instruction
 * pointer. At exit the shim writes the samples and /proc/self/maps to
 * sigprof.<pid> in the working directory.
 * symbolize.py turns that file into per-symbol shares.
 *
 *   cc -O2 -fPIC -shared -o libsigprof.so tools/sigprof/sigprof.c
 *   LD_PRELOAD=$PWD/libsigprof.so ./program args...
 *   python3 tools/sigprof/symbolize.py sigprof.<pid>
 *
 * Preload the program itself, not a wrapper script: every process that
 * loads the shim writes its own file. Samples past the buffer are
 * counted but dropped.
 */
#define _GNU_SOURCE
#include <fcntl.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "sigprof reads REG_RIP: Linux x86-64 only"
#endif

enum { SIGPROF_USEC = 1000, MAX_SAMPLES = 1 << 21 };

static uintptr_t samples[MAX_SAMPLES];
static unsigned long taken; /* may exceed MAX_SAMPLES */

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
  const unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  if (i < MAX_SAMPLES) samples[i] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void sigprof_start(void) {
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  const struct itimerval tv = {{0, SIGPROF_USEC}, {0, SIGPROF_USEC}};
  setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void sigprof_stop(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const unsigned long n = __atomic_load_n(&taken, __ATOMIC_RELAXED);
  const unsigned long kept = n < MAX_SAMPLES ? n : MAX_SAMPLES;

  char path[64];
  snprintf(path, sizeof path, "sigprof.%ld", (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    perror("sigprof: fopen");
    return;
  }
  fprintf(out, "sigprof 1\nusec %d\ntaken %lu\nsamples %lu\n", SIGPROF_USEC,
          n, kept);
  for (unsigned long i = 0; i < kept; ++i) {
    fprintf(out, "%lx\n", (unsigned long)samples[i]);
  }
  fputs("maps\n", out);
  const int fd = open("/proc/self/maps", O_RDONLY);
  if (fd >= 0) {
    char buf[65536];
    ssize_t got;
    while ((got = read(fd, buf, sizeof buf)) > 0) fwrite(buf, 1, got, out);
    close(fd);
  }
  fclose(out);
  fprintf(stderr, "sigprof: %lu samples to %s\n", kept, path);
}
