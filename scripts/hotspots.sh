#!/usr/bin/env bash
# Where the host time goes, by source line: a sampling profile of bglsim.
#
#   scripts/hotspots.sh [--tree DIR] [--top N] BGLSIM_ARGS...
#
# Builds `bglsim` of DIR (default: this checkout) with line tables into
# DIR/target/hotspots, runs `bglsim BGLSIM_ARGS` under an LD_PRELOAD sampler
# that takes the program counter on every SIGPROF (an ITIMER_PROF of 1 ms of
# CPU time, which the kernel rounds to its tick: 250 Hz on a HZ=250 kernel),
# and prints the N (default 25) source lines with the most samples, resolved
# by `addr2line -a -f -i`: share, samples, line, the innermost (inlined)
# function and the function it was inlined into. Needs `cc` and `addr2line`,
# no hardware counters. The benchmark's 4,096-node TPS row, for example:
#
#   scripts/hotspots.sh profile --shape 8x32x16 --strategy tps --m 912 --coverage 0.000977
set -euo pipefail

tree=$(git -C "$(dirname "$0")" rev-parse --show-toplevel) top=25
while [ "${1-}" = --tree ] || [ "${1-}" = --top ]; do
    if [ "$1" = --tree ]; then tree=$(cd "$2" && pwd); else top=$2; fi
    shift 2
done
[ $# -gt 0 ] || { sed -n '4p' "$0" >&2 && exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
(cd "$tree" && CARGO_TARGET_DIR="$tree/target/hotspots" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --quiet -p bgl-harness --bin bglsim)
bin=$tree/target/hotspots/release/bglsim

# The sampler writes to $HOTSPOTS_OUT at exit the count of samples outside
# the executable (libc, the allocator), then each sample inside it as an
# address relative to its load bias, which is what addr2line reads.
cat >"$tmp/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#define MAX_SAMPLES (1 << 22)
static unsigned long pcs[MAX_SAMPLES], taken, bias, lo = -1UL, hi;
static int exe(struct dl_phdr_info *info, size_t size, void *data) {
    bias = info->dlpi_addr; /* the first object is the executable */
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        unsigned long at = bias + ph->p_vaddr;
        if (ph->p_type != PT_LOAD) continue;
        if (at < lo) lo = at;
        if (at + ph->p_memsz > hi) hi = at + ph->p_memsz;
    }
    return 1;
}
static void on_prof(int sig, siginfo_t *si, void *ctx) {
    unsigned long k = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (k < MAX_SAMPLES) pcs[k] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}
__attribute__((constructor)) static void start(void) {
    dl_iterate_phdr(exe, NULL);
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    setitimer(ITIMER_PROF, &(struct itimerval){{0, 1000}, {0, 1000}}, NULL);
}
__attribute__((destructor)) static void stop(void) {
    setitimer(ITIMER_PROF, &(struct itimerval){{0, 0}, {0, 0}}, NULL);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES, outside = 0;
    for (unsigned long i = 0; i < n; i++) outside += pcs[i] < lo || pcs[i] >= hi;
    FILE *f = fopen(getenv("HOTSPOTS_OUT"), "w");
    fprintf(f, "%lu\n", outside);
    for (unsigned long i = 0; i < n; i++)
        if (pcs[i] >= lo && pcs[i] < hi) fprintf(f, "%#lx\n", pcs[i] - bias);
    fclose(f);
}
EOF
cc -O2 -shared -fPIC -o "$tmp/sampler.so" "$tmp/sampler.c"
HOTSPOTS_OUT=$tmp/pcs LD_PRELOAD=$tmp/sampler.so "$bin" "$@" >/dev/null

tail -n +2 "$tmp/pcs" | sort -u | addr2line -a -f -i -C -e "$bin" >"$tmp/lines"
python3 - "$tmp/pcs" "$tmp/lines" "$top" <<'EOF'
import collections, re, sys

pcs, top = open(sys.argv[1]).read().split(), int(sys.argv[3])
outside, pcs = int(pcs[0]), collections.Counter(int(a, 16) for a in pcs[1:])
frames = {}  # per address: (function, file:line) per inline level, innermost first
for row in open(sys.argv[2]).read().splitlines():
    if row.startswith("0x"):
        at = frames.setdefault(int(row, 16), [])
    else:
        at.append(row)
short = lambda fn: "::".join(re.sub(r"<[^<>]*>", "", fn).split("::")[-2:])[:48]
by_line = collections.Counter()
for a, n in pcs.items():
    (fn, loc), outer = frames[a][0:2], frames[a][-2]
    loc = re.sub(r"^.*?(crates|library)/", "", loc.split(" (")[0])
    by_line[(loc, short(fn), short(outer))] += n
total = sum(pcs.values()) + outside
print(f"{total} samples, {outside} outside bglsim ({100 * outside / max(total, 1):.1f} %)")
for (loc, fn, outer), n in by_line.most_common(top):
    print(f"{100 * n / total:5.1f} % {n:6}  {loc:44} {fn}  [in {outer}]")
EOF
