#!/usr/bin/env bash
# load_check.sh — boot additivityd (built with -race), replay a short
# skewed trace against it with additivity-load (cold, then warm), and
# require a clean run: zero failed or aborted jobs, the skewed trace's
# duplicates served from the daemon's shared cache (memory hits or
# single-flight merges, never recomputed — the warm replay must add no
# cache misses), and the hot-path allocation budgets.
#
# Usage: scripts/load_check.sh [jobs] [players]
set -u

JOBS="${1:-200}"
PLAYERS="${2:-8}"
. "$(dirname "$0")/lib.sh"
build_binaries

# Allocation-regression gate for the serving hot paths. These tests
# need real allocation counts, so they run without the race detector
# (under -race they skip themselves); the same paths are then exercised
# for correctness by the race-instrumented replay below.
echo "checking hot-path allocation budgets..."
go test -count=1 -run 'TestWarmLookupZeroAllocs|TestPlannedGatherAllocatesLessThanUnplanned' \
    ./internal/service ./internal/core || {
    echo "FAIL: hot-path allocation budget regressed" >&2
    exit 1
}

echo "booting additivityd (race-instrumented) on an ephemeral port..."
boot_daemon daemon 127.0.0.1:0 -max-jobs "$PLAYERS"
echo "daemon listening on $ADDR"

echo "replaying a ${JOBS}-job skewed trace with ${PLAYERS} players..."
"$DIR/additivity-load" -url "http://$ADDR" \
    -gen skewed -jobs "$JOBS" -players "$PLAYERS" \
    >"$DIR/load.out" 2>"$DIR/load.err" || {
    echo "FAIL: load replay reported failed or aborted jobs" >&2
    cat "$DIR/load.out" "$DIR/load.err" >&2
    exit 1
}
cat "$DIR/load.out"

# Dedup invariant, cold leg: the skewed trace's duplicates must be
# served from the cache (memory hits or single-flight merges onto an
# in-flight twin), never recomputed. Merges alone are timing-dependent
# — the faster the hot path, the narrower the overlap window — so the
# gate checks hits+merges and, below, that the warm replay adds zero
# misses (no unit is ever computed twice).
MERGES=$(stat_of "$ADDR" single_flight_merges "$DIR/load.out")
HITS=$(stat_of "$ADDR" hits "$DIR/load.out")
COLD_MISSES=$(stat_of "$ADDR" misses "$DIR/load.out")
if [ -z "$MERGES" ] || [ -z "$HITS" ] || [ "$((HITS + MERGES))" -eq 0 ]; then
    echo "FAIL: skewed replay served no duplicates from the cache" >&2
    exit 1
fi

# Replay the same trace once more against the now-warm daemon: every
# job settles on the job-level cache's fast path.
echo "replaying again against the warm daemon..."
"$DIR/additivity-load" -url "http://$ADDR" \
    -gen skewed -jobs "$JOBS" -players "$PLAYERS" \
    >"$DIR/warm.out" 2>/dev/null || {
    echo "FAIL: warm replay reported failed or aborted jobs" >&2
    cat "$DIR/warm.out" >&2
    exit 1
}
cat "$DIR/warm.out"

# Dedup invariant, warm leg: replaying the identical trace must add no
# cache misses — every job is served from the cache, nothing recomputes.
WARM_MISSES=$(stat_of "$ADDR" misses "$DIR/warm.out")
if [ -n "$COLD_MISSES" ] && [ -n "$WARM_MISSES" ] \
    && [ "$WARM_MISSES" -ne "$COLD_MISSES" ]; then
    echo "FAIL: warm replay recomputed cached units (misses ${COLD_MISSES} -> ${WARM_MISSES})" >&2
    exit 1
fi

# SIGTERM must drain cleanly: exit 0 with no jobs failed or aborted.
stop_daemon "$DAEMON_PID"
if [ "$STATUS" -ne 0 ]; then
    echo "FAIL: daemon exited $STATUS after SIGTERM" >&2
    cat "$DIR/daemon.err" >&2
    exit 1
fi
if ! grep -q 'drained:.*0 failed, 0 aborted' "$DIR/daemon.err"; then
    echo "FAIL: drain log reports failed or aborted jobs" >&2
    cat "$DIR/daemon.err" >&2
    exit 1
fi
check_races daemon

echo "PASS: ${JOBS} jobs replayed clean ($((HITS + MERGES)) duplicates served from cache, ${MERGES} single-flight merges) with a clean drain"
