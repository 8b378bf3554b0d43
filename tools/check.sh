#!/bin/sh
# Repo check driver — the full correctness matrix:
#
#   1. tier-1:   configure + build (warnings-as-errors) + full ctest
#   2. asan:     ASan+UBSan build; fuzz, audit, fault and
#                parallel-sweep tests at the paranoid check level,
#                plus a fault-injection orion_sweep smoke run
#   3. tsan:     ThreadSanitizer build of the parallel sweep engine
#                and the served job engine (server_test)
#   4. overhead: bench/sweep_speed at check levels off/cheap/paranoid,
#                reporting the runtime cost of the invariant layer
#                (cheap must stay under 5%), then
#                bench/telemetry_overhead gating the windowed-sampler
#                cost on the disabled baseline (sampled must stay
#                under 2%; tracing is reported but not gated — it is
#                an opt-in debugging mode)
#   5. kernel:   bench/kernel_speed serial flits/sec vs the committed
#                BENCH_kernel.json — fails on a >10% regression on
#                either reference config (vc16, k16n2). Runs twice:
#                once plain (cancellation compiled in, token unset)
#                and once under ORION_KERNEL_CANCEL=1 (live armed
#                token that never fires), both against the same gate,
#                proving the per-cycle CancelToken check is free on
#                the hot path
#   6. survive:  kill-and-resume drill — a checkpointed sweep with a
#                live heartbeat is SIGKILLed mid-flight; the heartbeat
#                must still parse (orion_status.py --once) with a
#                done-count consistent with the journal; the resume
#                must produce a CSV byte-identical to an uninterrupted
#                run, report the carried-over cells in its heartbeat,
#                and leave a valid run manifest beside the journal;
#                then an --isolate sweep with a deliberately
#                SIGSEGVing point (--debug-segv-rate) must record a
#                structured worker-crash failure while every other
#                point completes
#   7. serve:    resident-service drill — an orion_served daemon with
#                a persistent result cache computes a reference job,
#                is SIGKILLed mid-job on a second cache, restarted,
#                and re-asked: the answer must come partly from cache
#                (stats prove hits) and be byte-identical to the
#                uninterrupted reference; a daemon running every
#                point in a forked orion_sim (--isolate) must return
#                the same bytes; then admission control is
#                exercised (a tiny queue bound must reject with the
#                structured queue_full code) and a malformed
#                submission must be rejected as invalid_config;
#                last, a retention drill submits more cache-hit jobs
#                than the daemon retains: job 1 must answer expired,
#                its resubmit must cmp equal to the first result, and
#                stats must show jobs_resident within the bound
#   8. lint:     tools/orion_lint.py, plus clang-tidy when installed
#   9. analysis: tools/orion_analyze.py (determinism/concurrency
#                rules + thread-safety annotation coverage) and its
#                fixture tests; when a clang++ is installed, a Clang
#                build with -Wthread-safety promoted to errors
#                verifies the ORION_GUARDED_BY/ORION_REQUIRES
#                annotations for real (they are no-ops under GCC)
#
# Usage: tools/check.sh [--tier1-only|--asan-only|--tsan-only|
#                        --overhead-only|--kernel-only|--survive-only|
#                        --serve-only|--lint-only|--analysis-only]
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
mode=${1:-all}

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)

run_leg() {
    case "$mode" in
        all|"--$1-only") return 0 ;;
        *) return 1 ;;
    esac
}

if run_leg tier1; then
    echo "== tier-1: configure + build (-Werror) + ctest =="
    cmake -B "$root/build" -S "$root" -DORION_WERROR=ON
    cmake --build "$root/build" -j "$jobs"
    # --timeout: a deadlocked simulation fails its test instead of
    # wedging the whole leg.
    ctest --test-dir "$root/build" --output-on-failure -j "$jobs" \
        --timeout 600
fi

if run_leg asan; then
    echo "== ASan+UBSan: fuzz/audit/sweep tests, paranoid checks =="
    cmake -B "$root/build-asan" -S "$root" \
        -DORION_ASAN=ON -DORION_UBSAN=ON -DORION_WERROR=ON
    cmake --build "$root/build-asan" -j "$jobs" \
        --target fuzz_test audit_test fault_test parallel_sweep_test \
        sweep_test reroute_test deadlock_test orion_sweep
    for t in fuzz_test audit_test fault_test parallel_sweep_test \
        sweep_test reroute_test deadlock_test; do
        ORION_CHECK=paranoid "$root/build-asan/tests/$t"
    done
    echo "== ASan+UBSan: fault-injection sweep smoke =="
    ORION_CHECK=paranoid "$root/build-asan/tools/orion_sweep" \
        --rates 0.02:0.06:3 --sample 500 --link-ber 2e-6 \
        --link-outage 1200:1500 --jobs 2 > /dev/null
fi

if run_leg tsan; then
    echo "== TSan: parallel sweep engine under ThreadSanitizer =="
    cmake -B "$root/build-tsan" -S "$root" -DORION_TSAN=ON
    cmake --build "$root/build-tsan" -j "$jobs" \
        --target parallel_sweep_test sweep_test server_test
    ORION_CHECK=paranoid "$root/build-tsan/tests/parallel_sweep_test"
    ORION_CHECK=paranoid "$root/build-tsan/tests/sweep_test"
    "$root/build-tsan/tests/server_test"
fi

if run_leg overhead; then
    echo "== overhead: invariant-check cost on bench/sweep_speed =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j "$jobs" --target sweep_speed
    overhead_dir="$root/build/overhead"
    mkdir -p "$overhead_dir"
    # Alternate levels and keep the best of 3 runs per level: single
    # runs on a loaded machine are noisier than the effect measured.
    for rep in 1 2 3; do
        for level in off cheap paranoid; do
            ORION_CHECK=$level \
                ORION_BENCH_JSON="$overhead_dir/sweep_${level}_$rep.json" \
                "$root/build/bench/sweep_speed" > /dev/null
        done
    done
    python3 - "$overhead_dir" <<'EOF'
import json, sys
d = sys.argv[1]
wall = {}
for level in ("off", "cheap", "paranoid"):
    wall[level] = min(
        json.load(open(f"{d}/sweep_{level}_{rep}.json"))["serial"]["wall_s"]
        for rep in (1, 2, 3))
base = wall["off"]
cheap = 100.0 * (wall["cheap"] - base) / base
paranoid = 100.0 * (wall["paranoid"] - base) / base
print(f"check-level overhead vs off ({base:.2f} s serial, best of 3):")
print(f"  cheap    {wall['cheap']:.2f} s  ({cheap:+.1f}%)")
print(f"  paranoid {wall['paranoid']:.2f} s  ({paranoid:+.1f}%)")
if cheap >= 5.0:
    sys.exit(f"FAIL: cheap-level overhead {cheap:.1f}% >= 5%")
EOF

    echo "== overhead: telemetry cost on bench/telemetry_overhead =="
    cmake --build "$root/build" -j "$jobs" --target telemetry_overhead
    # Best of 3 whole-benchmark runs; the benchmark itself is already
    # best-of-ORION_REPS internally, so keep its reps modest.
    for rep in 1 2 3; do
        ORION_REPS=2 \
            ORION_BENCH_JSON="$overhead_dir/telemetry_$rep.json" \
            "$root/build/bench/telemetry_overhead" > /dev/null
    done
    python3 - "$overhead_dir" <<'EOF'
import json, sys
d = sys.argv[1]
runs = [json.load(open(f"{d}/telemetry_{rep}.json")) for rep in (1, 2, 3)]
# Best-of-3 per mode: the minimum is the least-noisy estimate of the
# true cost of each mode, so overheads come from the minima.
wall = {m: min(r[m]["wall_s"] for r in runs)
        for m in ("disabled", "sampled_1k", "traced")}
base = wall["disabled"]
sampled = 100.0 * (wall["sampled_1k"] - base) / base
traced = 100.0 * (wall["traced"] - base) / base
print(f"telemetry overhead vs disabled ({base:.2f} s, best of 3):")
print(f"  sampled (1k cycles) {sampled:+.1f}%")
print(f"  sampled + traced    {traced:+.1f}%  (opt-in, not gated)")
if sampled >= 2.0:
    sys.exit(f"FAIL: sampled telemetry overhead {sampled:.1f}% >= 2%")
EOF
fi

if run_leg kernel; then
    echo "== kernel: serial flits/sec vs committed BENCH_kernel.json =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j "$jobs" --target kernel_speed
    kernel_dir="$root/build/overhead"
    mkdir -p "$kernel_dir"
    # kernel_speed is internally best-of-ORION_REPS; 5 reps tames the
    # ±5% run-to-run noise observed on shared runners.
    ORION_REPS=5 ORION_BENCH_JSON="$kernel_dir/kernel_now.json" \
        ORION_KERNEL_BASELINE="$root/BENCH_kernel.json" \
        "$root/build/bench/kernel_speed"
    # Second pass with a live (armed, never-firing) CancelToken on the
    # cycle loop: the same gate must stay green, proving cancellation
    # support costs nothing measurable on the hot path.
    echo "== kernel: same gate with a live CancelToken (cancel mode) =="
    ORION_REPS=5 ORION_KERNEL_CANCEL=1 \
        ORION_BENCH_JSON="$kernel_dir/kernel_cancel.json" \
        ORION_KERNEL_BASELINE="$root/BENCH_kernel.json" \
        "$root/build/bench/kernel_speed"
    for now_json in kernel_now.json kernel_cancel.json; do
        python3 - "$kernel_dir/$now_json" "$root/BENCH_kernel.json" <<'EOF'
import json, sys
now = json.load(open(sys.argv[1]))["configs"]
ref = json.load(open(sys.argv[2]))["configs"]
fail = []
for name, r in ref.items():
    cur = now[name]["flits_per_s"]
    base = r["flits_per_s"]
    delta = 100.0 * (cur - base) / base
    print(f"  {name:6s} {cur/1e6:.3f} Mflits/s vs committed "
          f"{base/1e6:.3f} ({delta:+.1f}%)")
    if delta < -10.0:
        fail.append(f"{name} regressed {delta:.1f}% (> 10% threshold)")
if fail:
    sys.exit("FAIL: " + "; ".join(fail))
EOF
    done
fi

if run_leg survive; then
    echo "== survive: SIGKILL mid-sweep, resume, diff vs clean run =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j "$jobs" --target orion_sweep orion_sim
    sdir="$root/build/survive"
    rm -rf "$sdir"
    mkdir -p "$sdir"
    sweep="$root/build/tools/orion_sweep"
    args="--rates 0.02:0.30:8 --sample 20000 --max-cycles 2000000"
    # Reference: the same grid, uninterrupted.
    $sweep $args --jobs 2 > "$sdir/reference.csv"
    # Victim: checkpointed with a live heartbeat, then SIGKILLed
    # (uncatchable — exercises the torn-tail tolerance and the
    # atomic heartbeat replacement, not the cooperative handlers).
    $sweep $args --jobs 2 --checkpoint "$sdir/journal" \
        --heartbeat "$sdir/hb.json" --heartbeat-interval 0.2 \
        > /dev/null 2> /dev/null &
    victim=$!
    sleep 0.7
    kill -KILL "$victim" 2> /dev/null || true
    wait "$victim" 2> /dev/null || true
    # The killed run's heartbeat must still parse (atomic replacement
    # leaves the last complete snapshot) and its done-count must agree
    # with the journal: never ahead of it, and at most `jobs` behind
    # (a worker can die between the journal append and the heartbeat).
    status=$(python3 "$root/tools/orion_status.py" --once "$sdir/hb.json")
    echo "killed-run status: $status"
    journal_entries=$(($(wc -l < "$sdir/journal") - 1))
    python3 - "$status" "$journal_entries" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
journal = int(sys.argv[2])
assert s["ok"], s
assert not s["finished"], "SIGKILLed run cannot have finished"
done, jobs = s["done"], s["jobs"]
# The torn tail may drop the journal's final line, so allow done to
# lead by that one crash artifact.
assert done <= journal + 1, f"heartbeat done={done} > journal={journal}+1"
assert journal - done <= jobs, \
    f"heartbeat done={done} lags journal={journal} by more than jobs={jobs}"
print(f"heartbeat survives SIGKILL: done={done}, journal={journal}")
EOF
    # Resume at a different job count: merged CSV must be identical,
    # and the resumed run's heartbeat must account for the cells
    # carried over from the journal.
    $sweep $args --jobs 4 --resume "$sdir/journal" \
        --heartbeat "$sdir/hb_resumed.json" > "$sdir/resumed.csv" \
        2> /dev/null
    cmp "$sdir/reference.csv" "$sdir/resumed.csv"
    echo "resumed CSV byte-identical to the uninterrupted run"
    status=$(python3 "$root/tools/orion_status.py" --once \
        "$sdir/hb_resumed.json")
    echo "resumed-run status: $status"
    python3 - "$status" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["ok"] and s["finished"], s
assert s["done"] == s["total"], s
assert s["from_checkpoint"] > 0, \
    "resumed run must report carried-over points"
print(f"resume accounted: {s['from_checkpoint']}/{s['total']} "
      "from checkpoint")
EOF
    # Journaling auto-writes a run manifest beside the journal.
    python3 - "$sdir/journal.manifest.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["schema"] == "orion-run-manifest-v1", m
assert m["tool"] == "orion_sweep", m
print(f"manifest written: fingerprint {m['fingerprint']}, "
      f"stop {m['stop_reason']}")
EOF

    echo "== survive: --isolate absorbs a SIGSEGVing worker =="
    rc=0
    $sweep --rates 0.02:0.06:3 --sample 500 --isolate \
        --debug-segv-rate 0.04 > "$sdir/isolate.csv" \
        2> "$sdir/isolate.err" || rc=$?
    [ "$rc" -eq 3 ] || {
        echo "FAIL: expected exit 3 (failed point), got $rc"
        cat "$sdir/isolate.err"
        exit 1
    }
    grep -q "worker-crash" "$sdir/isolate.err" || {
        echo "FAIL: no structured worker-crash diagnosis on stderr"
        cat "$sdir/isolate.err"
        exit 1
    }
    # The two healthy rates still completed and made it into the CSV.
    healthy=$(grep -c "^0.0[26]00,1," "$sdir/isolate.csv" || true)
    [ "$healthy" -eq 2 ] || {
        echo "FAIL: expected 2 healthy points in CSV, got $healthy"
        cat "$sdir/isolate.csv"
        exit 1
    }
    echo "worker crash recorded; sibling points unaffected"
fi

if run_leg serve; then
    echo "== serve: daemon SIGKILL/restart, cache byte-identity =="
    cmake -B "$root/build" -S "$root"
    cmake --build "$root/build" -j "$jobs" \
        --target orion_served orion_submit orion_sim
    vdir="$root/build/serve"
    rm -rf "$vdir"
    mkdir -p "$vdir"
    served="$root/build/tools/orion_served"
    submit="$root/build/tools/orion_submit"
    simargs="--sample 20000 --max-cycles 2000000"
    rates="0.02:0.30:6"

    # Poll until the daemon on $sock answers the stats verb: the
    # socket file alone is not enough (a SIGKILLed daemon leaves a
    # stale one behind).
    wait_ready() {
        tries=0
        while [ "$tries" -lt 100 ]; do
            if "$submit" --socket "$sock" stats \
                > /dev/null 2> /dev/null; then
                return 0
            fi
            tries=$((tries + 1))
            sleep 0.1
        done
        echo "FAIL: daemon on $sock never became ready"
        return 1
    }

    # Reference: an uninterrupted daemon computes the grid once, then
    # drains on SIGTERM and leaves a shutdown manifest.
    sock="$vdir/ref.sock"
    "$served" --socket "$sock" --cache-dir "$vdir/cache-ref" \
        --workers 2 2> "$vdir/ref.log" &
    daemon=$!
    wait_ready
    "$submit" --socket "$sock" submit --rates "$rates" --wait \
        --out "$vdir/ref.txt" -- $simargs > /dev/null
    kill -TERM "$daemon"
    wait "$daemon"
    [ -s "$vdir/ref.txt" ] || {
        echo "FAIL: reference job produced no result bytes"
        exit 1
    }
    python3 - "$sock.manifest.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["schema"] == "orion-served-shutdown-v1", m
assert m["signal"] == 15, m
assert m["server"]["completed"] == 1, m
assert m["server"]["points_computed"] == 6, m
print("drain: shutdown manifest accounts for the reference job")
EOF

    # Isolated: the same grid, every point in a forked orion_sim
    # worker, must return the reference bytes exactly.
    sock="$vdir/iso.sock"
    "$served" --socket "$sock" --cache-dir "$vdir/cache-iso" \
        --workers 2 --isolate "$root/build/tools/orion_sim" \
        2> "$vdir/iso.log" &
    daemon=$!
    wait_ready
    "$submit" --socket "$sock" submit --rates "$rates" --wait \
        --out "$vdir/iso.txt" -- $simargs > /dev/null
    kill -TERM "$daemon"
    wait "$daemon"
    cmp "$vdir/ref.txt" "$vdir/iso.txt"
    echo "isolated result byte-identical to the in-process reference"

    # Victim: same grid on a fresh cache, SIGKILLed once at least one
    # point has landed, then restarted on the same cache directory.
    # The re-asked job must be served partly from cache and the bytes
    # must match the uninterrupted reference exactly.
    sock="$vdir/kill.sock"
    "$served" --socket "$sock" --cache-dir "$vdir/cache-kill" \
        --workers 2 2> "$vdir/kill1.log" &
    daemon=$!
    wait_ready
    "$submit" --socket "$sock" submit --rates "$rates" \
        -- $simargs > /dev/null
    tries=0
    st=""
    while [ "$tries" -lt 300 ]; do
        st=$("$submit" --socket "$sock" status 1)
        case "$st" in
            *'"done":0,'*) ;;
            *) break ;;
        esac
        tries=$((tries + 1))
        sleep 0.1
    done
    case "$st" in
        *'"done":0,'*)
            echo "FAIL: no point completed before the kill"
            exit 1 ;;
    esac
    kill -KILL "$daemon" 2> /dev/null || true
    wait "$daemon" 2> /dev/null || true
    rm -f "$sock" # the SIGKILLed daemon could not unlink it
    "$served" --socket "$sock" --cache-dir "$vdir/cache-kill" \
        --workers 2 2> "$vdir/kill2.log" &
    daemon=$!
    wait_ready
    "$submit" --socket "$sock" submit --rates "$rates" --wait \
        --out "$vdir/recovered.txt" -- $simargs > /dev/null
    cmp "$vdir/ref.txt" "$vdir/recovered.txt"
    echo "recovered result byte-identical to the reference"
    stats=$("$submit" --socket "$sock" stats)
    kill -TERM "$daemon"
    wait "$daemon"
    python3 - "$stats" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
assert s["ok"], s
hits = s["server"]["points_from_cache"]
assert hits > 0, f"restart served nothing from cache: {s['server']}"
assert hits + s["server"]["points_computed"] == 6, s["server"]
cache = s["cache"]
assert cache["schema"] == "orion-cache-manifest-v1", cache
assert cache["entries"] >= hits, cache
print(f"cache survived SIGKILL: {hits}/6 points served from cache "
      f"({cache['entries']} entries recovered from disk)")
EOF

    echo "== serve: admission control + config validation =="
    sock="$vdir/queue.sock"
    "$served" --socket "$sock" --workers 1 --queue-max 1 \
        2> "$vdir/queue.log" &
    daemon=$!
    wait_ready
    # Job 1 is big enough to pin the single worker while jobs 2 and 3
    # arrive; job 2 fills the queue; job 3 must bounce.
    "$submit" --socket "$sock" submit \
        -- --rate 0.25 --sample 400000 --max-cycles 20000000 \
        > /dev/null
    tries=0
    while [ "$tries" -lt 100 ]; do
        st=$("$submit" --socket "$sock" status 1)
        case "$st" in
            *'"state":"running"'*) break ;;
        esac
        tries=$((tries + 1))
        sleep 0.1
    done
    "$submit" --socket "$sock" submit \
        -- --rate 0.25 --sample 400000 --max-cycles 20000000 \
        > /dev/null
    rc=0
    reply=$("$submit" --socket "$sock" submit \
        -- --rate 0.25 --sample 400000 2> /dev/null) || rc=$?
    [ "$rc" -eq 2 ] || {
        echo "FAIL: expected structured-rejection exit 2, got $rc"
        exit 1
    }
    case "$reply" in
        *'"error":"queue_full"'*) ;;
        *)
            echo "FAIL: expected queue_full rejection, got: $reply"
            exit 1 ;;
    esac
    echo "queue bound enforced: third job rejected with queue_full"
    # A malformed configuration is rejected before admission, with
    # its own structured code.
    rc=0
    reply=$("$submit" --socket "$sock" submit \
        -- --rate 1.7 2> /dev/null) || rc=$?
    [ "$rc" -eq 2 ] || {
        echo "FAIL: expected invalid-config exit 2, got $rc"
        exit 1
    }
    case "$reply" in
        *'"error":"invalid_config"'*) ;;
        *)
            echo "FAIL: expected invalid_config rejection: $reply"
            exit 1 ;;
    esac
    echo "malformed submission rejected with invalid_config"
    # Cooperative cancel lets the drain finish promptly.
    "$submit" --socket "$sock" cancel 1 > /dev/null
    "$submit" --socket "$sock" cancel 2 > /dev/null
    kill -TERM "$daemon"
    wait "$daemon"

    echo "== serve: job retention bound, expired ids, cache resubmit =="
    # The daemon keeps live jobs plus the newest kRetainedJobs settled
    # ones; older ids answer "expired" and their points stay cached.
    bound=$(sed -n 's/.*kRetainedJobs = \([0-9]*\);.*/\1/p' \
        "$root/src/core/server.hh")
    [ -n "$bound" ] || {
        echo "FAIL: cannot read kRetainedJobs from core/server.hh"
        exit 1
    }
    sock="$vdir/retain.sock"
    "$served" --socket "$sock" --cache-dir "$vdir/cache-retain" \
        --workers 2 2> "$vdir/retain.log" &
    daemon=$!
    wait_ready
    # Job 1 fills the key every later job hits.
    pointargs="--rate 0.05 --sample 200 --max-cycles 60000"
    "$submit" --socket "$sock" submit --wait --poll-ms 10 \
        --out "$vdir/retain1.txt" -- $pointargs > /dev/null
    python3 - "$sock" "$((bound + 64))" $pointargs <<'EOF'
import json, socket, sys, time
sock, count, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]

def ask(req):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(sock)
    s.sendall((json.dumps(dict(req, schema="orion-served-v1")) + "\n")
              .encode())
    data = b""
    while not data.endswith(b"\n"):
        chunk = s.recv(65536)
        assert chunk, "daemon closed the connection"
        data += chunk
    s.close()
    return json.loads(data)

for _ in range(count):
    r = ask({"verb": "submit", "args": args})
    assert r["ok"], r
    while True:
        res = ask({"verb": "result", "job": r["job"]})
        if res["ok"]:
            assert res["cache_hits"] == 1, res
            break
        assert res["error"] == "not_ready", res
        time.sleep(0.001)
print(f"{count} cache-hit jobs served past the retention bound")
EOF
    st=$("$submit" --socket "$sock" status 1 2> /dev/null) || true
    case "$st" in
        *'"error":"expired"'*) ;;
        *)
            echo "FAIL: expected job 1 to answer expired, got: $st"
            exit 1 ;;
    esac
    rc=0
    "$submit" --socket "$sock" result 1 > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || {
        echo "FAIL: expected structured-rejection exit 2 for an" \
             "expired result, got $rc"
        exit 1
    }
    st=$("$submit" --socket "$sock" status 999999999 2> /dev/null) || true
    case "$st" in
        *'"error":"unknown_job"'*) ;;
        *)
            echo "FAIL: expected a never-issued id to stay unknown_job:" \
                 "$st"
            exit 1 ;;
    esac
    echo "job 1 expired; a never-issued id is still unknown_job"
    "$submit" --socket "$sock" submit --wait --poll-ms 10 \
        --out "$vdir/retain2.txt" -- $pointargs > /dev/null
    cmp "$vdir/retain1.txt" "$vdir/retain2.txt"
    echo "resubmitted job served from cache, byte-identical to job 1"
    stats=$("$submit" --socket "$sock" stats)
    kill -TERM "$daemon"
    wait "$daemon"
    python3 - "$stats" "$bound" <<'EOF'
import json, sys
s = json.loads(sys.argv[1])
bound = int(sys.argv[2])
assert s["ok"], s
resident = s["server"]["jobs_resident"]
assert resident <= bound, f"{resident} jobs resident past the bound {bound}"
assert s["server"]["completed"] == bound + 66, s["server"]
print(f"jobs_resident {resident} <= retention bound {bound}")
EOF
fi

if run_leg lint; then
    echo "== lint: orion_lint + clang-tidy =="
    python3 "$root/tools/orion_lint.py" --root "$root"
    if command -v clang-tidy > /dev/null 2>&1; then
        cmake -B "$root/build" -S "$root" > /dev/null
        cmake --build "$root/build" --target lint
    else
        echo "clang-tidy not installed; skipping (CI runs it)"
    fi
fi

if run_leg analysis; then
    echo "== analysis: orion_analyze + fixtures =="
    python3 "$root/tools/orion_analyze.py" --root "$root"
    python3 "$root/tests/analysis/run_analyzer_tests.py" \
        --analyzer "$root/tools/orion_analyze.py" \
        --fixtures "$root/tests/analysis/fixtures"
    if command -v clang++ > /dev/null 2>&1; then
        echo "== analysis: Clang thread-safety annotations as errors =="
        cmake -B "$root/build-clang" -S "$root" \
            -DCMAKE_CXX_COMPILER=clang++ \
            -DCMAKE_CXX_FLAGS="-Werror=thread-safety -Werror=thread-safety-beta"
        cmake --build "$root/build-clang" -j "$jobs" --target orion
    else
        echo "clang++ not installed; annotation verification skipped" \
             "(CI's analysis job runs it)"
    fi
fi

echo "== check.sh: all green =="
