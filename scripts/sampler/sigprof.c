// LD_PRELOAD stack sampler (see scripts/sample_profile.sh).
//
// setitimer(ITIMER_PROF) raises SIGPROF as the process burns CPU (the
// kernel tick rounds the period, about 250 Hz on a 250 Hz kernel); the
// handler appends the interrupted stack, backtrace() frames past its own
// two (handler, signal trampoline), to a static buffer as
// [depth, pc, return addresses...]. At exit the buffer is written to
// $SAMPLE_OUT as raw native-endian 64-bit words, and /proc/self/maps to
// $SAMPLE_OUT.maps, for scripts/sampler/symbolize.py.
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

enum { kMaxDepth = 96, kSkip = 2, kCapacity = 1 << 22 };  // 32 MiB

static uint64_t buffer[kCapacity];
static size_t used;
static size_t dropped;

static void on_sigprof(int sig) {
  (void)sig;
  void* frames[kMaxDepth + kSkip];
  const int n = backtrace(frames, kMaxDepth + kSkip) - kSkip;
  if (n <= 0) return;
  const size_t at = __atomic_fetch_add(&used, (size_t)n + 1, __ATOMIC_RELAXED);
  if (at + (size_t)n + 1 > kCapacity) {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  buffer[at] = (uint64_t)n;
  for (int i = 0; i < n; ++i) buffer[at + 1 + i] = (uintptr_t)frames[kSkip + i];
}

__attribute__((constructor)) static void start_sampling(void) {
  void* warm[4];
  backtrace(warm, 4);  // loads the unwinder outside the signal handler
  struct sigaction action;
  memset(&action, 0, sizeof action);
  action.sa_handler = on_sigprof;
  action.sa_flags = SA_RESTART;
  sigaction(SIGPROF, &action, NULL);
  const struct itimerval period = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &period, NULL);
}

static void copy_file(const char* from, const char* to) {
  FILE* in = fopen(from, "r");
  FILE* out = fopen(to, "w");
  char chunk[4096];
  size_t n;
  while (in && out && (n = fread(chunk, 1, sizeof chunk, in)) > 0) {
    fwrite(chunk, 1, n, out);
  }
  if (in) fclose(in);
  if (out) fclose(out);
}

__attribute__((destructor)) static void dump_samples(void) {
  const struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  const char* path = getenv("SAMPLE_OUT");
  if (path == NULL) path = "sample.raw";
  char maps_path[4096];
  snprintf(maps_path, sizeof maps_path, "%s.maps", path);
  copy_file("/proc/self/maps", maps_path);
  FILE* out = fopen(path, "wb");
  if (out == NULL) return;
  const size_t words = used < kCapacity ? used : kCapacity;
  fwrite(buffer, sizeof buffer[0], words, out);
  fclose(out);
  if (dropped > 0) {
    fprintf(stderr, "sigprof: buffer full, %zu samples dropped\n", dropped);
  }
}
