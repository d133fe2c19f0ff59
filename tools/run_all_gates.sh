#!/bin/sh
# One-command CI gate: configure, build, then run the lint, lint-arch,
# threads, chaos, chaos-fleet, storage, telemetry and bench-smoke ctest
# tiers — the exact sequence a pre-merge check should run — plus a direct
# linter pass over the tree with per-pass timing, a ThreadSanitizer pass over
# the profiler, thread-pool and similarity-engine suites and an ASan/UBSan
# pass over the stats and correlation suites and the motif, streaming and
# similarity tests. The telemetry tier includes the run-manifest schema
# check (cli_telemetry) and the manifest thread count (cli_manifest_threads),
# so a manifest field drift fails the gate. It ends with a PASS/SKIPPED line
# for each check that depends on an optional tool (clang-tidy, clang-format,
# Clang's -Wthread-safety), so a skipped check is never read as a passed one.
# Smoke-tested by the `run_all_gates_smoke` ctest via --dry-run, which prints
# the commands without executing them.
#
# Usage: run_all_gates.sh [--dry-run] [--preset NAME] [REPO_ROOT]
#
#   --dry-run       print each command instead of running it
#   --preset NAME   configure with a CMakePresets.json preset (default: a
#                   plain configure into build-gates/ with HOMETS_WERROR=ON)
#
# Exits nonzero as soon as any stage fails.
set -eu

dry_run=0
preset=""
root=""
while [ "$#" -gt 0 ]; do
    case "$1" in
        --dry-run) dry_run=1 ;;
        --preset)
            shift
            preset="${1:?--preset expects a name}"
            ;;
        -*)
            echo "usage: run_all_gates.sh [--dry-run] [--preset NAME] [REPO_ROOT]" >&2
            exit 2
            ;;
        *) root="$1" ;;
    esac
    shift
done
root="${root:-$(cd "$(dirname "$0")/.." && pwd)}"

run() {
    echo "+ $*"
    if [ "$dry_run" -eq 0 ]; then
        "$@"
    fi
}

if [ -n "$preset" ]; then
    build="$root/build-$preset"
    run cmake -S "$root" --preset "$preset"
else
    build="$root/build-gates"
    run cmake -S "$root" -B "$build" -DHOMETS_WERROR=ON
fi

jobs=$( (nproc || sysctl -n hw.ncpu || echo 2) 2>/dev/null | head -n1 )
run cmake --build "$build" -j "$jobs"
run ctest --test-dir "$build" --output-on-failure -L "lint|lint-arch|threads|chaos|chaos-fleet|storage|telemetry|bench-smoke|prof"

# Architecture tier: run the linter once against the real tree with per-pass
# timing, so the gate log records the layer-DAG verdict and where the lint
# wall-clock goes (lex / text / arch / hygiene / determinism).
run "$build/tools/lint/homets_lint" --root "$root" --timing

# Profiler instrumentation and the pool under TSan: the mutex-contention and
# pool-worker hooks are lock-free hot-path writes, so the prof suite gets its
# own ThreadSanitizer pass (the alloc-tally test self-skips there — the
# operator-new replacement is compiled out under sanitizers), and
# threading_test races the pool's one dispatch core and the similarity
# engine's per-worker workspaces.
tsan_build="$root/build-gates-tsan"
run cmake -S "$root" -B "$tsan_build" -DHOMETS_SANITIZE=thread
run cmake --build "$tsan_build" -j "$jobs" --target prof_test threading_test
run ctest --test-dir "$tsan_build" --output-on-failure -L prof
run "$tsan_build/tests/threading_test"

# Sorting, correlation and motif code under ASan/UBSan: the stable radix
# order bit-casts doubles into keys, the Kendall kernel scatters through index
# arrays, and the Definition 5 core erases from member vectors while the
# streaming miner indexes its retained windows by arrival offset. So the
# stats and correlation suites and the motif, streaming and similarity tests
# get an address/undefined pass with libstdc++ bounds assertions on; UBSan
# stops at its first report.
asan_build="$root/build-gates-asan"
run cmake -S "$root" -B "$asan_build" "-DHOMETS_SANITIZE=address;undefined" \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
run cmake --build "$asan_build" -j "$jobs" \
    --target stats_test correlation_test core_test
for suite in stats_test correlation_test; do
    run env UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        "$asan_build/tests/$suite"
done
run env UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    "$asan_build/tests/core_test" \
    "--gtest_filter=MotifDiscoveryTest.*:StreamingMotifMinerTest.*:EndToEndStreamingTest.*:CorrelationSimilarityTest.*"

# Checks that need a tool this host may lack pass vacuously without it: the
# lint-tier scripts print SKIP and exit 0, and only Clang checks the
# thread-safety annotations. Report each one, so "all gates passed" is never
# read as covering a check that did not run.
report() {  # NAME AVAILABLE(yes|no) WHY-NOT
    if [ "$2" != yes ]; then
        status="SKIPPED ($3)"
    elif [ "$dry_run" -eq 1 ]; then
        status="NOT RUN (dry run)"
    else
        status=PASS
    fi
    printf '%-22s %s\n' "$1" "$status"
}
have() { command -v "$1" >/dev/null 2>&1 && echo yes || echo no; }
report clang-tidy "$(have clang-tidy)" "clang-tidy not found"
report clang-format "$(have clang-format)" "clang-format not found"
# The configure records whether the compiler took -Wthread-safety.
wts=no
grep -qs '^HOMETS_HAS_WTHREAD_SAFETY:INTERNAL=1$' "$build/CMakeCache.txt" &&
    wts=yes
report "Clang -Wthread-safety" "$wts" "not enabled by the configure; needs Clang"

if [ "$dry_run" -eq 1 ]; then
    echo "DRY RUN: no commands executed"
else
    echo "OK: all gates passed (build: $build)"
fi
