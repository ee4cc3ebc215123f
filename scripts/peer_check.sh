#!/usr/bin/env bash
# peer_check.sh — prove the peer cache protocol end to end:
#
#   1. Baseline: one daemon over a private cache dir replays a 200-job
#      skewed trace clean and records its combined results digest — the
#      truth every later leg must reproduce byte for byte. The daemon
#      is then stopped; its cache directory stays behind, warm.
#   2. Peer fleet: three race-instrumented replicas with SEPARATE cache
#      directories, wired to each other with -peers. Replica A is
#      rebooted over the warm baseline directory; B and C start cold
#      and can reach the entries only over the peer wire. The same
#      trace replays across all three (least-loaded balancing) while C
#      is SIGKILLed mid-trace, as soon as it has accepted work.
#      Required: a clean replay, the baseline digest reproduced exactly,
#      nonzero peer hits (the wire actually served entries), nonzero
#      retries (the kill cost resubmits, not failures), and zero cache
#      misses on the warm replica A — peers must never push a duplicate
#      measurement onto a replica that already has the bytes.
#   3. Peer payoff: two more fleets replay the trace — one with no peer
#      wiring over three cold directories, one peer-wired against a
#      replica over the warm directory. The peer-warm fleet must
#      reproduce the baseline digest and hold at least 2x the no-peer
#      fleet's req/s.
#
# Usage: scripts/peer_check.sh [jobs] [players]
set -u

JOBS="${1:-200}"
PLAYERS="${2:-8}"
. "$(dirname "$0")/lib.sh"

# Concurrency-contract gate before any replica boots: the peer legs
# prove wire-level invariants, which mean nothing if a replica can
# deadlock on a leaked lock or leak its hedge goroutines.
echo "== concurrency lint =="
make lint-concurrency || { echo "FAIL: concurrency-contract lint failed" >&2; exit 1; }

build_binaries

# rps_of <report.json>: the replay's req_per_sec.
rps_of() {
    grep -o '"req_per_sec": *[0-9.]*' "$1" | head -1 | grep -o '[0-9.]*$'
}

# ---- Leg 1: single-replica baseline, warming A's directory ----------

echo "leg 1: single-replica baseline (${JOBS} jobs, ${PLAYERS} players)..."
A_CACHE="$DIR/cache-a"
boot_daemon baseline 127.0.0.1:0 -cache-dir "$A_CACHE"
A_ADDR=$ADDR
"$DIR/additivity-load" -url "http://$A_ADDR" \
    -gen skewed -jobs "$JOBS" -players "$PLAYERS" \
    -write-trace "$DIR/trace.json" -digest \
    >"$DIR/baseline.out" 2>"$DIR/baseline.err" || {
    echo "FAIL: baseline replay reported failed or aborted jobs" >&2
    cat "$DIR/baseline.out" "$DIR/baseline.err" >&2
    exit 1
}
BASE_DIGEST=$(digest_of "$DIR/baseline.out")
if [ -z "$BASE_DIGEST" ]; then
    echo "FAIL: baseline replay printed no results digest" >&2
    exit 1
fi
stop_daemon "$DAEMON_PID"
echo "baseline digest: $BASE_DIGEST"

# ---- Leg 2: peer-wired fleet, separate dirs, SIGKILL mid-trace ------

echo "leg 2: peer fleet (separate cache dirs, C SIGKILLed mid-trace)..."
# B and C start cold, pointed at A's known address; A reboots last on
# that same address over its warm directory, pointed back at B and C.
boot_daemon b 127.0.0.1:0 -cache-dir "$DIR/cache-b" -peers "http://$A_ADDR"
B_ADDR=$ADDR
boot_daemon c 127.0.0.1:0 -cache-dir "$DIR/cache-c" -peers "http://$A_ADDR,http://$B_ADDR"
C_PID=$DAEMON_PID C_ADDR=$ADDR
boot_daemon a "$A_ADDR" -cache-dir "$A_CACHE" -peers "http://$B_ADDR,http://$C_ADDR"

FLEET_PLAYERS=$((PLAYERS + PLAYERS / 2))
"$DIR/additivity-load" \
    -url "http://$A_ADDR,http://$B_ADDR,http://$C_ADDR" \
    -trace "$DIR/trace.json" -players "$FLEET_PLAYERS" \
    -digest -out "$DIR/peerfleet.json" \
    >"$DIR/peerfleet.out" 2>"$DIR/peerfleet.err" &
LOAD_PID=$!

# SIGKILL replica C mid-trace: no drain, no goodbye; the balancer and
# the retry loop must absorb it, and A/B's breakers contain the dead
# peer without stalling their own fetches.
kill_once_busy "$C_ADDR" "$C_PID" "$LOAD_PID"

wait "$LOAD_PID"
LOAD_STATUS=$?
if [ "$LOAD_STATUS" -ne 0 ]; then
    echo "FAIL: peer-fleet replay reported failed or aborted jobs (exit $LOAD_STATUS)" >&2
    cat "$DIR/peerfleet.out" "$DIR/peerfleet.err" >&2
    exit 1
fi
cat "$DIR/peerfleet.out"

PEER_DIGEST=$(digest_of "$DIR/peerfleet.out")
if [ "$PEER_DIGEST" != "$BASE_DIGEST" ]; then
    echo "FAIL: peer-fleet digest $PEER_DIGEST differs from baseline $BASE_DIGEST" >&2
    exit 1
fi
PEER_HITS=$(sum_stat peer_hits "$DIR/peerfleet.out")
if [ "$PEER_HITS" -eq 0 ]; then
    echo "FAIL: peer fleet recorded zero peer hits; the peer wire never served an entry" >&2
    exit 1
fi
A_MISSES=$(stat_of "$A_ADDR" misses "$DIR/peerfleet.out")
if [ -z "$A_MISSES" ]; then
    echo "FAIL: could not read warm replica A's statsz misses" >&2
    exit 1
fi
if [ "$A_MISSES" -ne 0 ]; then
    echo "FAIL: warm replica A recorded $A_MISSES cache misses; it re-measured entries it already had" >&2
    exit 1
fi
RETRIES=$(grep -o '"retries": *[0-9]*' "$DIR/peerfleet.json" | grep -o '[0-9]*$')
if [ "${RETRIES:-0}" -eq 0 ]; then
    echo "FAIL: replica C was killed mid-trace but the replay recorded no retries" >&2
    exit 1
fi
check_races a b c
echo "peer leg: digest matches baseline, $PEER_HITS peer hits, A misses 0, $RETRIES retries (killed mid-run: $KILLED_MIDRUN)"

# ---- Leg 3: peer payoff, no-peer vs peer-warm -----------------------

# Stop leg 2's survivors; the warm A directory is reused below.
for pid in ${PIDS[@]+"${PIDS[@]}"}; do
    stop_daemon "$pid" KILL
done

echo "leg 3a: no-peer fleet (3 cold separate dirs)..."
boot_daemon n1 127.0.0.1:0 -cache-dir "$DIR/cache-n1"
N1=$ADDR
boot_daemon n2 127.0.0.1:0 -cache-dir "$DIR/cache-n2"
N2=$ADDR
boot_daemon n3 127.0.0.1:0 -cache-dir "$DIR/cache-n3"
N3=$ADDR
"$DIR/additivity-load" -url "http://$N1,http://$N2,http://$N3" \
    -trace "$DIR/trace.json" -players "$FLEET_PLAYERS" \
    -out "$DIR/nopeer.json" >"$DIR/nopeer.out" 2>/dev/null || {
    echo "FAIL: no-peer fleet replay failed" >&2
    cat "$DIR/nopeer.out" >&2
    exit 1
}

echo "leg 3b: peer-warm fleet (A warm, B/C cold, peer-wired)..."
boot_daemon pa 127.0.0.1:0 -cache-dir "$A_CACHE"
PA=$ADDR
boot_daemon pb 127.0.0.1:0 -cache-dir "$DIR/cache-pb" -peers "http://$PA"
PB=$ADDR
boot_daemon pc 127.0.0.1:0 -cache-dir "$DIR/cache-pc" -peers "http://$PA,http://$PB"
PC=$ADDR
"$DIR/additivity-load" -url "http://$PA,http://$PB,http://$PC" \
    -trace "$DIR/trace.json" -players "$FLEET_PLAYERS" \
    -digest -out "$DIR/peerwarm.json" >"$DIR/peerwarm.out" 2>/dev/null || {
    echo "FAIL: peer-warm fleet replay failed" >&2
    cat "$DIR/peerwarm.out" >&2
    exit 1
}
WARM_DIGEST=$(digest_of "$DIR/peerwarm.out")
if [ "$WARM_DIGEST" != "$BASE_DIGEST" ]; then
    echo "FAIL: peer-warm digest $WARM_DIGEST differs from baseline $BASE_DIGEST" >&2
    exit 1
fi

NOPEER_RPS=$(rps_of "$DIR/nopeer.json")
PEER_RPS=$(rps_of "$DIR/peerwarm.json")
if [ -z "$NOPEER_RPS" ] || [ -z "$PEER_RPS" ]; then
    echo "FAIL: could not extract req/s from the payoff legs" >&2
    exit 1
fi
if ! awk -v p="$PEER_RPS" -v n="$NOPEER_RPS" 'BEGIN{exit !(p >= 2*n)}'; then
    echo "FAIL: peer-warm fleet ${PEER_RPS} req/s is under 2x the no-peer fleet's ${NOPEER_RPS} req/s" >&2
    exit 1
fi
check_races n1 n2 n3 pa pb pc
echo "payoff legs: peer-warm ${PEER_RPS} req/s vs no-peer ${NOPEER_RPS} req/s"

echo "PASS: peer fleet reproduced the baseline digest byte for byte with $PEER_HITS peer hits, zero misses on the warm replica, and a mid-trace SIGKILL absorbed; peer-warm fleet held >= 2x the no-peer req/s"
