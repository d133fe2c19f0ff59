#!/bin/sh
# Run-manifest thread count, registered as the `cli_manifest_threads` ctest
# (label `telemetry`). `analyze` runs one shard per pool block, so the
# manifest's `threads.used` must be min(--threads, --shards) — not the
# hardware thread count — for parallel_efficiency to mean anything: a serial
# `--shards 1` run records 1 on any host.
#
# Usage: cli_manifest_threads_test.sh /path/to/homets_cli
set -eu

cli="${1:?usage: cli_manifest_threads_test.sh /path/to/homets_cli}"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

"$cli" generate --out "$workdir" --gateways 4 --weeks 2 --seed 7 \
    --format homets >/dev/null 2>&1

fail=0
# expect_used EXPECTED ANALYZE-FLAGS...
expect_used() {
    expected="$1"
    shift
    "$cli" analyze "$@" --run-manifest-out "$workdir/manifest.json" \
        "$workdir/fleet.homets" >/dev/null 2>&1
    used=$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["threads"]["used"])' "$workdir/manifest.json")
    if [ "$used" = "$expected" ]; then
        echo "ok: analyze $* records threads.used = $used"
    else
        echo "FAIL: analyze $* records threads.used = $used, want $expected" >&2
        fail=1
    fi
}

expect_used 1 --shards 1
expect_used 1 --shards 4 --threads 1
expect_used 2 --shards 2 --threads 4
exit "$fail"
