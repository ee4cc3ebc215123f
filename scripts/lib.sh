# lib.sh — helpers shared by the service gate scripts (load_check.sh,
# fleet_check.sh, peer_check.sh). Source it from a script run at the
# repository root: it creates the scratch directory $DIR, installs the
# cleanup trap that SIGKILLs every replica still in PIDS, and defines
# the helpers below.

DIR="$(mktemp -d)"
PIDS=()
cleanup() {
    for pid in ${PIDS[@]+"${PIDS[@]}"}; do
        kill -9 "$pid" 2>/dev/null
        wait "$pid" 2>/dev/null
    done
    rm -rf "$DIR"
}
trap cleanup EXIT

# build_binaries: builds additivityd under the race detector — every
# replay doubles as a concurrency test of the whole service surface —
# and additivity-load, both into $DIR.
build_binaries() {
    go build -race -o "$DIR/additivityd" ./cmd/additivityd || exit 1
    go build -o "$DIR/additivity-load" ./cmd/additivity-load || exit 1
}

# boot_daemon <name> <addr> [flags...]: starts one replica with its
# output in $DIR/<name>.out and $DIR/<name>.err, waits for its
# announced address, and appends its pid to PIDS. The bound address
# lands in $ADDR, the pid in $DAEMON_PID.
boot_daemon() {
    local name="$1" addr="$2"
    shift 2
    "$DIR/additivityd" -addr "$addr" "$@" \
        >"$DIR/$name.out" 2>"$DIR/$name.err" &
    local pid=$!
    PIDS+=("$pid")
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR=$(sed -n 's/^listening on //p' "$DIR/$name.out" | head -1)
        [ -n "$ADDR" ] && break
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "FAIL: replica $name exited during startup" >&2
            cat "$DIR/$name.err" >&2
            exit 1
        fi
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "FAIL: replica $name never announced its address" >&2
        cat "$DIR/$name.err" >&2
        exit 1
    fi
    DAEMON_PID=$pid
}

# stop_daemon <pid> [signal]: signals one replica (default TERM), reaps
# it and drops it from PIDS. Its exit status lands in $STATUS.
stop_daemon() {
    local pid="$1" p rest=()
    kill -"${2:-TERM}" "$pid" 2>/dev/null
    wait "$pid" 2>/dev/null
    STATUS=$?
    for p in ${PIDS[@]+"${PIDS[@]}"}; do
        [ "$p" != "$pid" ] && rest+=("$p")
    done
    PIDS=(${rest[@]+"${rest[@]}"})
}

# kill_once_busy <victim addr> <victim pid> <load pid>: SIGKILLs the
# victim as soon as its /statsz shows it has accepted a job, while the
# replay <load pid> is still running. The gate fails if the replay
# ends first: a kill after the replay tests nothing. Sets
# KILLED_MIDRUN=1 once the kill has landed.
kill_once_busy() {
    local addr="$1" pid="$2" load="$3" n
    while kill -0 "$load" 2>/dev/null; do
        n=$(curl -s --max-time 1 "http://$addr/statsz" \
            | grep -o '"submitted": *[0-9]*' | head -1 | grep -o '[0-9]*$')
        if [ "${n:-0}" -gt 0 ] && kill -0 "$load" 2>/dev/null; then
            stop_daemon "$pid" KILL
            KILLED_MIDRUN=1
            echo "killed $addr mid-trace after it accepted $n jobs"
            return
        fi
        sleep 0.01
    done
    echo "FAIL: the replay ended before $addr accepted a job; the mid-trace kill never landed" >&2
    exit 1
}

# check_races <name>...: fails the gate if the race detector fired in
# any named replica's stderr.
check_races() {
    local name
    for name in "$@"; do
        if grep -q 'DATA RACE' "$DIR/$name.err" 2>/dev/null; then
            echo "FAIL: race detector fired in $name" >&2
            cat "$DIR/$name.err" >&2
            exit 1
        fi
    done
}

# digest_of <load output file>: the combined results digest line.
digest_of() {
    sed -n 's/^results digest: //p' "$1" | head -1
}

# sum_stat <field> <load output file>: sums one numeric statsz counter
# across every replica's statsz line. The quoted field anchor keeps
# e.g. "misses" from also matching "peer_misses".
sum_stat() {
    grep -o "\"$1\":[0-9]*" "$2" | grep -o '[0-9]*$' \
        | awk '{s+=$1} END {print s+0}'
}

# stat_of <replica addr> <field> <load output file>: one replica's
# statsz counter.
stat_of() {
    grep "server statsz http://$1:" "$3" | grep -o "\"$2\":[0-9]*" \
        | head -1 | grep -o '[0-9]*$'
}
