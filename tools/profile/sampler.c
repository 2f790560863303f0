/*
 * A wall-clock stack sampler to load with LD_PRELOAD.
 *
 * Every 200 us (5 kHz, CLOCK_MONOTONIC) a POSIX timer raises SIGPROF; the
 * handler records the interrupted thread's stack with backtrace(3) into a
 * preallocated buffer. When the process exits, the buffer is written to
 * c9prof.<pid>.txt in the working directory: the executable mappings of
 * /proc/self/maps, then one line of hex return addresses per sample,
 * innermost first. A process that execs another (perf_suite --rep) gets a
 * file of its own, because the preloaded library starts afresh in it.
 * symbolize.py turns the files into self and inclusive tables.
 *
 * Build: gcc -O2 -shared -fPIC -o libc9prof.so sampler.c
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#define PERIOD_NS 200000L
#define MAX_DEPTH 64
/* Frames of the handler itself and the signal trampoline. */
#define SKIP 2
#define MAX_SAMPLES (1L << 18)

struct sample {
    int depth;
    void *pc[MAX_DEPTH];
};

static struct sample *samples;
static atomic_long taken;
static atomic_long dropped;
static timer_t timer;
static int armed;

static void on_sigprof(int sig, siginfo_t *info, void *context)
{
    (void)sig;
    (void)info;
    (void)context;
    long at = atomic_fetch_add(&taken, 1);
    if (at >= MAX_SAMPLES) {
        atomic_fetch_add(&dropped, 1);
        return;
    }
    void *frames[MAX_DEPTH + SKIP];
    int n = backtrace(frames, MAX_DEPTH + SKIP);
    int depth = n > SKIP ? n - SKIP : 0;
    memcpy(samples[at].pc, frames + SKIP, depth * sizeof(void *));
    samples[at].depth = depth;
}

__attribute__((constructor)) static void start(void)
{
    samples = mmap(NULL, MAX_SAMPLES * sizeof(struct sample), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (samples == MAP_FAILED) {
        return;
    }
    /* The first backtrace() loads the unwinder, which allocates: do it
     * here, not in the signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction action;
    memset(&action, 0, sizeof(action));
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    sigaction(SIGPROF, &action, NULL);

    struct sigevent event;
    memset(&event, 0, sizeof(event));
    event.sigev_notify = SIGEV_SIGNAL;
    event.sigev_signo = SIGPROF;
    if (timer_create(CLOCK_MONOTONIC, &event, &timer) != 0) {
        return;
    }
    struct itimerspec period = {{0, PERIOD_NS}, {0, PERIOD_NS}};
    timer_settime(timer, 0, &period, NULL);
    armed = 1;
}

__attribute__((destructor)) static void finish(void)
{
    if (!armed) {
        return;
    }
    armed = 0;
    timer_delete(timer);
    signal(SIGPROF, SIG_IGN);

    char path[64];
    snprintf(path, sizeof(path), "c9prof.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w");
    if (out == NULL) {
        return;
    }
    long n = atomic_load(&taken);
    if (n > MAX_SAMPLES) {
        n = MAX_SAMPLES;
    }
    fprintf(out, "# c9prof pid %d period_ns %ld samples %ld dropped %ld\n", (int)getpid(),
            PERIOD_NS, n, atomic_load(&dropped));
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps != NULL) {
        char line[4096];
        while (fgets(line, sizeof(line), maps) != NULL) {
            /* "start-end perms offset dev inode path": keep executable,
             * file-backed mappings only. */
            char perms[8] = "";
            if (sscanf(line, "%*s %7s", perms) == 1 && perms[2] == 'x' && strchr(line, '/')) {
                fprintf(out, "map %s", line);
            }
        }
        fclose(maps);
    }
    for (long i = 0; i < n; i++) {
        fputs("s", out);
        for (int d = 0; d < samples[i].depth; d++) {
            fprintf(out, " %lx", (unsigned long)samples[i].pc[d]);
        }
        fputc('\n', out);
    }
    fclose(out);
}
