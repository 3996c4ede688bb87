#!/usr/bin/env sh
# CI gate: build, full test suite, lints, and the paper-table binaries'
# machine-readable output. Run from the repository root.
set -eu

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> executor allocation budget on the release build (the build the benchmark times)"
cargo test --release -q --test exec_alloc_budget

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -q -- -D warnings

echo "==> cargo clippy -p hpf-verify -D warnings (verifier must stay lint-clean)"
cargo clippy -p hpf-verify --all-targets -q -- -D warnings

echo "==> perfbench builds and passes its self-tests against the workspace crates"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> static verification (phpfc --verify on the three paper kernels)"
for example in tomcatv_small dgefa_small appsp_small; do
    set +e
    out=$(./target/release/phpfc "examples/hpf/$example.hpf" --verify 2>&1)
    status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        echo "FAIL: phpfc --verify rejected $example" >&2
        echo "$out" >&2
        exit "$status"
    fi
    echo "$out" | grep -q 'verify: privatization ok, schedule ok, races ok' || {
        echo "FAIL: $example --verify printed no clean verdict line" >&2
        echo "$out" >&2
        exit 1
    }
done

echo "==> trace cross-validation (reference-executor traces through --verify-trace)"
# The reference executor's timelines are derived from its recorded event
# trace; DGEFA and APPSP add per-element control traffic and reduction
# partials (two timeline entries per MAXLOC partial) to TOMCATV's halos.
goldtrace=$(mktemp -t phpfc-golden.XXXXXX)
trap 'rm -f "$goldtrace"' EXIT
for example in tomcatv_small dgefa_small appsp_small; do
    ./target/release/phpfc "examples/hpf/$example.hpf" --trace "$goldtrace" >/dev/null
    set +e
    out=$(./target/release/phpfc "examples/hpf/$example.hpf" --verify-trace "$goldtrace" 2>&1)
    status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        echo "FAIL: --verify-trace rejected the $example trace it just recorded" >&2
        echo "$out" >&2
        exit "$status"
    fi
    echo "$out" | grep -q 'linearization of the static happens-before relation' || {
        echo "FAIL: $example --verify-trace printed no linearization verdict" >&2
        echo "$out" >&2
        exit 1
    }
done

echo "==> trace round trip (DGEFA small, thread and socket backends, --trace then --verify-trace)"
# DGEFA's per-element control and reduction traffic must be booked by the
# replay exactly as the reference executor books it, or the recorded trace
# is not a linearization of the schedule.
for backend in thread socket; do
    rttrace=$(mktemp -t phpfc-dgefa.XXXXXX)
    set +e
    out=$(./target/release/phpfc examples/hpf/dgefa_small.hpf --backend "$backend" --trace "$rttrace" 2>&1 \
        && ./target/release/phpfc examples/hpf/dgefa_small.hpf --verify-trace "$rttrace" 2>&1)
    status=$?
    set -e
    rm -f "$rttrace"
    if [ "$status" -ne 0 ]; then
        echo "FAIL: DGEFA $backend trace did not pass --verify-trace" >&2
        echo "$out" >&2
        exit "$status"
    fi
    echo "$out" | grep -q 'linearization of the static happens-before relation' || {
        echo "FAIL: DGEFA $backend --verify-trace printed no linearization verdict" >&2
        echo "$out" >&2
        exit 1
    }
done

echo "==> bench binaries emit BENCH_JSON (with a backend name and verification verdict)"
for bin in table1 table2 table3; do
    out=$(cargo run -q --release -p phpf-bench --bin "$bin")
    echo "$out" | grep -q '^BENCH_JSON {' || {
        echo "FAIL: $bin printed no BENCH_JSON line" >&2
        exit 1
    }
    echo "$out" | grep -q '"backend":' || {
        echo "FAIL: $bin BENCH_JSON line names no backend" >&2
        exit 1
    }
    echo "$out" | grep -q '"verified":{"privatization":true,"schedule":true,"races":true}' || {
        echo "FAIL: $bin BENCH_JSON carries no clean verification verdict" >&2
        exit 1
    }
done

echo "==> socket backend smoke (TOMCATV small, 4 worker processes)"
# Capture stderr too: the networker children inherit the driver's stderr,
# and the driver folds their exit statuses into its own ("worker N exited
# with ..."), so a failing child must fail this stage with its diagnostics
# visible — not just whatever the driver printed on stdout.
set +e
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend socket 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: socket smoke exited $status (driver or networker worker failure)" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'backend socket: replay on 4 worker processes matched' || {
    echo "FAIL: socket backend replay did not validate" >&2
    echo "$out" >&2
    exit 1
}
echo "$out" | grep -q 'cross-check: observed' || {
    echo "FAIL: socket backend run produced no cost-model cross-check" >&2
    echo "$out" >&2
    exit 1
}

echo "==> trace smoke (TOMCATV small, socket backend, --trace)"
tracefile=$(mktemp -t phpfc-trace.XXXXXX)
trap 'rm -f "$goldtrace" "$tracefile"' EXIT
set +e
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend socket --trace "$tracefile" 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: traced socket run exited $status" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'comm counts match wire metrics' || {
    echo "FAIL: traced run did not self-check its comm counts against the metrics" >&2
    echo "$out" >&2
    exit 1
}
if command -v python3 >/dev/null 2>&1; then
    python3 - "$tracefile" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace must be a non-empty JSON array"
begins = ends = comms = faults = 0
span_names = []
for e in events:
    ph = e["ph"]
    assert ph in ("M", "B", "E", "i"), f"unknown phase type {ph!r}"
    assert isinstance(e["pid"], int), "every event carries a pid"
    if ph == "M":
        assert e["name"] == "process_name", e
        continue
    assert isinstance(e["ts"], int), "timed events carry integer microseconds"
    if ph == "B":
        begins += 1
        span_names.append(e["name"])
        assert e["cat"] == "phase", e
    elif ph == "E":
        ends += 1
    else:
        assert e["cat"] in ("comm", "fault"), e
        if e["cat"] == "fault":
            faults += 1
        if e["cat"] == "comm":
            comms += 1
            args = e["args"]
            for key in ("pattern", "place", "elems"):
                assert key in args, f"comm event missing {key}: {e}"
assert begins == ends, f"unbalanced spans: {begins} begins, {ends} ends"
assert faults == 0, f"a clean socket trace carries {faults} fault events"
for phase in ("parse", "ssa", "mapping", "privatization", "lower", "replay"):
    assert phase in span_names, f"missing pipeline span {phase!r}: {span_names}"
assert comms > 0, "trace carries no communication events"
print(f"trace schema OK: {begins} spans, {comms} comm events")
EOF
else
    # Minimal structural checks without python3.
    head -c 1 "$tracefile" | grep -q '\[' || { echo "FAIL: trace is not a JSON array" >&2; exit 1; }
    for needle in '"name":"parse"' '"name":"replay"' '"cat":"comm"'; do
        grep -q "$needle" "$tracefile" || {
            echo "FAIL: trace JSON lacks $needle" >&2
            exit 1
        }
    done
    if grep -q '"cat":"fault"' "$tracefile"; then
        echo "FAIL: clean socket trace carries fault events" >&2
        exit 1
    fi
fi

echo "==> chaos smoke (TOMCATV small, socket backend, injected faults)"
# A corrupted frame plus a worker kill must self-heal (retransmission +
# checkpointed gang respawn), still validate against the reference, and
# report its recovery work in both the trace and the BENCH_JSON counters.
chaostrace=$(mktemp -t phpfc-chaos.XXXXXX)
trap 'rm -f "$goldtrace" "$tracefile" "$chaostrace"' EXIT
set +e
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend socket \
    --fault-plan 'corrupt:0>1@2,kill:1@600' --trace "$chaostrace" 2>&1)
status=$?
set -e
if [ "$status" -ne 0 ]; then
    echo "FAIL: chaos run exited $status (recovery did not heal the faults)" >&2
    echo "$out" >&2
    exit "$status"
fi
echo "$out" | grep -q 'backend socket: replay on 4 worker processes matched' || {
    echo "FAIL: faulted socket replay did not validate against the reference" >&2
    echo "$out" >&2
    exit 1
}
for needle in '"name":"fault:retransmit"' '"name":"fault:respawn"' '"name":"fault:checkpoint"'; do
    grep -q "$needle" "$chaostrace" || {
        echo "FAIL: chaos trace lacks $needle" >&2
        exit 1
    }
done
bench=$(echo "$out" | grep '^BENCH_JSON {') || {
    echo "FAIL: chaos run printed no BENCH_JSON line" >&2
    exit 1
}
echo "$bench" | grep -q '"recovery":{"retransmits":0,"heartbeat_misses":0,"respawns":0,"fallbacks":0}' && {
    echo "FAIL: chaos run reported all-zero recovery counters" >&2
    echo "$bench" >&2
    exit 1
}
# The empty plan stays free of recovery side effects: zero counters.
out=$(./target/release/phpfc examples/hpf/tomcatv_small.hpf --backend socket 2>&1)
clean=$(echo "$out" | grep '^BENCH_JSON {') || {
    echo "FAIL: fault-free run printed no BENCH_JSON line" >&2
    echo "$out" >&2
    exit 1
}
echo "$clean" | grep -q '"recovery":{"retransmits":0,"heartbeat_misses":0,"respawns":0,"fallbacks":0}' || {
    echo "FAIL: fault-free run reported nonzero recovery counters" >&2
    echo "$clean" >&2
    exit 1
}
# A healed run reports the clean run's logical traffic: the counters are
# derived from the recorded schedule, which a respawn does not change, and
# the driver checks them against the wire messages the workers sent.
faulted_msgs=$(echo "$bench" | sed -n 's/.*"metrics":{"messages":\([0-9]*\).*/\1/p')
clean_msgs=$(echo "$clean" | sed -n 's/.*"metrics":{"messages":\([0-9]*\).*/\1/p')
if [ -z "$faulted_msgs" ] || [ "$faulted_msgs" != "$clean_msgs" ]; then
    echo "FAIL: chaos run reported \"messages\":$faulted_msgs, the clean run $clean_msgs" >&2
    exit 1
fi

echo "OK: build, tests, allocation budget, lints, perfbench, verification, trace round trips, bench output, socket smoke, trace smoke and chaos smoke all clean"
