#!/bin/sh
# One-command CI gate: configure, build, then run the lint, lint-arch,
# threads, chaos, chaos-fleet, storage, telemetry and bench-smoke ctest
# tiers — the exact sequence a pre-merge check should run — plus a direct
# linter pass over the tree with per-pass timing, a ThreadSanitizer pass over
# the profiler suite and an ASan/UBSan pass over the stats and correlation
# suites. The telemetry tier includes the run-manifest
# schema check (cli_telemetry), so a manifest field drift fails the gate.
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

# Profiler instrumentation under TSan: the mutex-contention and pool-worker
# hooks are lock-free hot-path writes, so the prof suite gets its own
# ThreadSanitizer pass (the alloc-tally test self-skips there — the
# operator-new replacement is compiled out under sanitizers).
tsan_build="$root/build-gates-tsan"
run cmake -S "$root" -B "$tsan_build" -DHOMETS_SANITIZE=thread
run cmake --build "$tsan_build" -j "$jobs" --target prof_test
run ctest --test-dir "$tsan_build" --output-on-failure -L prof

# Sorting and correlation kernels under ASan/UBSan: the stable radix order
# bit-casts doubles into keys and the Kendall kernel scatters through index
# arrays, so the stats and correlation suites get an address/undefined pass
# with libstdc++ bounds assertions on; UBSan stops at its first report.
asan_build="$root/build-gates-asan"
run cmake -S "$root" -B "$asan_build" "-DHOMETS_SANITIZE=address;undefined" \
    -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
run cmake --build "$asan_build" -j "$jobs" --target stats_test correlation_test
for suite in stats_test correlation_test; do
    run env UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
        "$asan_build/tests/$suite"
done

if [ "$dry_run" -eq 1 ]; then
    echo "DRY RUN: no commands executed"
else
    echo "OK: all gates passed (build: $build)"
fi
