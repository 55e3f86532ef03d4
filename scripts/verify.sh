#!/usr/bin/env sh
# CI gate for tcpburst. Everything here must run fully offline: the
# workspace has no external dependencies (see README "Offline builds").
#
#   sh scripts/verify.sh          # tier-1 + clippy + rustdoc + determinism + throughput bench
#   BENCH=0 sh scripts/verify.sh  # skip the benchmarks (quick gate)
set -eu

cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> lint: clippy on every target, warnings are errors"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> docs: rustdoc warnings are errors (broken or stale intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> determinism: parallel sweep must equal serial bit-for-bit"
cargo test -q --offline -p tcpburst-core --test parallel_determinism
# Rerun with a single-threaded test harness: harness scheduling must not be
# what makes the determinism tests pass.
cargo test -q --offline -p tcpburst-core --test parallel_determinism -- --test-threads=1

echo "==> fault injection: impaired runs stay deterministic"
cargo test -q --offline -p tcpburst-core --test impair_determinism

echo "==> fault injection: CLI smoke (flap + corruption + cross-traffic)"
./target/release/tcpburst run --clients 10 --secs 5 \
    --impair flap:500ms/2s,corrupt:1e-4,cross:100 | grep -q "impairments:"
cargo run --release --offline --example faults -- --smoke > /dev/null
echo "impaired run reported impairment counters; faults example ran"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Hermetic cache: every sweep below reads and writes a throwaway store, so
# the gate neither depends on nor pollutes the developer's real cache.
TCPBURST_CACHE="$TMP/cache"
export TCPBURST_CACHE

echo "==> invariant auditor: CLI smoke (--audit must report audit PASS)"
# Capture to a file: grep -q on a pipe would close it early and panic the
# writer with a broken pipe.
./target/release/tcpburst run --clients 10 --secs 5 --audit > "$TMP/audit.txt"
grep -q "audit PASS" "$TMP/audit.txt"

echo "==> resume round-trip: truncated journal must reproduce the sweep"
# 6-point sweep (paper protocol set x one client count... the paper set has
# 6 protocols, so --clients 5 gives exactly 6 grid points), journalled.
./target/release/tcpburst sweep --clients 5 --secs 3 --jobs 2 \
    --journal "$TMP/sweep.jsonl" > "$TMP/fresh.txt"
# Simulate a mid-sweep kill: keep the header plus 3 of the 6 entries.
head -n 4 "$TMP/sweep.jsonl" > "$TMP/trunc.jsonl"
# Resume at a different worker count: the figure tables must still be
# byte-identical to the uninterrupted run's.
./target/release/tcpburst sweep --clients 5 --secs 3 --jobs 4 \
    --resume "$TMP/trunc.jsonl" > "$TMP/resumed.txt" 2> "$TMP/resumed.err"
diff "$TMP/fresh.txt" "$TMP/resumed.txt"
grep -q "resumed 3 point(s)" "$TMP/resumed.err"
# The resume re-finalizes the truncated journal: it must be the fresh
# run's finalized journal, byte for byte (each line a full report).
diff "$TMP/sweep.jsonl" "$TMP/trunc.jsonl"
echo "resumed sweep output and journal are byte-identical to the fresh run"

echo "==> result cache: a repeated sweep must be 100% hits and byte-identical"
# Its own store (--cache, also exercising the flag): the sweeps above
# already warmed $TCPBURST_CACHE, and this smoke needs a genuine cold run.
./target/release/tcpburst sweep --clients 5,15 --secs 3 --jobs 2 \
    --cache "$TMP/roundtrip" > "$TMP/cold.txt" 2> "$TMP/cold.err"
grep -q "cache: 0 hit(s)" "$TMP/cold.err"
# One append-only pack and its index per store, no per-point fan-out
# directories.
pack=$(ls "$TMP"/roundtrip/results-v*.pack)
test -s "$pack"
test -s "${pack%.pack}.idx"
if ls "$TMP/roundtrip" | grep -qE '^[0-9a-f]{2}$'; then
    echo "FAIL: the store wrote a two-hex fan-out directory" >&2
    exit 1
fi
cold_store_bytes="$(wc -c < "$pack") $(wc -c < "${pack%.pack}.idx")"
./target/release/tcpburst sweep --clients 5,15 --secs 3 --jobs 2 \
    --cache "$TMP/roundtrip" > "$TMP/warm.txt" 2> "$TMP/warm.err"
diff "$TMP/cold.txt" "$TMP/warm.txt"
grep -q "(100% cache hits)" "$TMP/warm.err"
test "$(wc -c < "$pack") $(wc -c < "${pack%.pack}.idx")" = "$cold_store_bytes"
echo "warm re-sweep served every point from the cache, same bytes, store unchanged"

echo "==> worker processes: --workers 2 must equal --workers 1 bit-for-bit"
# --no-cache so the second run actually exercises the fork/IPC/merge path
# instead of replaying the store.
./target/release/tcpburst sweep --clients 5,15 --secs 3 --no-cache \
    > "$TMP/inproc.txt"
./target/release/tcpburst sweep --clients 5,15 --secs 3 --no-cache \
    --workers 2 > "$TMP/forked.txt"
diff "$TMP/inproc.txt" "$TMP/forked.txt"
echo "worker-process sweep output is byte-identical to the in-process run"

echo "==> chaos: a worker killed by the fault hook must not move a byte"
# Deterministic fault injection: the first pipe worker aborts at its 3rd
# wire frame; the pool requeues its in-flight point, respawns, and the
# tables stay byte-identical. The robustness counters must record it.
TCPBURST_CHAOS="w1:kill@3" ./target/release/tcpburst sweep \
    --clients 5,15 --secs 3 --no-cache --workers 2 \
    > "$TMP/chaos_pipe.txt" 2> "$TMP/chaos_pipe.err"
diff "$TMP/inproc.txt" "$TMP/chaos_pipe.txt"
grep -q "robustness:" "$TMP/chaos_pipe.err"
echo "pipe-pool kill requeued cleanly; robustness counters reported"

echo "==> sweep service: kill a remote TCP worker mid-sweep"
# Baseline: serial journalled sweep.
./target/release/tcpburst sweep --clients 5,15 --secs 3 --no-cache \
    --journal "$TMP/svc_serial.jsonl" > "$TMP/svc_serial.txt"
# Daemon on an ephemeral loopback port; one doomed worker (aborted by the
# chaos hook at its 5th frame, never reconnecting) and one healthy worker.
./target/release/tcpburst serve --listen 127.0.0.1:0 --once \
    2> "$TMP/serve.err" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's/^listening on //p' "$TMP/serve.err")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "sweep daemon never bound" >&2; exit 1; }
TCPBURST_CHAOS="kill@5" ./target/release/tcpburst worker \
    --connect "$ADDR" --max-reconnects 0 2> /dev/null &
./target/release/tcpburst worker --connect "$ADDR" 2> /dev/null &
# The whole distributed sweep — including the kill, the requeue and the
# surviving worker finishing the job — must land inside a bounded
# wall-clock budget, and both the tables and the finalized journal must
# be byte-identical to the serial run.
TIMEOUT="timeout 120"
command -v timeout > /dev/null 2>&1 || TIMEOUT=""
$TIMEOUT ./target/release/tcpburst submit --connect "$ADDR" \
    sweep --clients 5,15 --secs 3 --no-cache \
    --journal "$TMP/svc_chaos.jsonl" \
    > "$TMP/svc_chaos.txt" 2> "$TMP/svc_chaos.err"
wait "$SERVE_PID"
diff "$TMP/svc_serial.txt" "$TMP/svc_chaos.txt"
diff "$TMP/svc_serial.jsonl" "$TMP/svc_chaos.jsonl"
echo "remote-worker kill requeued cleanly; tables and journal byte-identical"

echo "==> golden traces: figure tables are job-count- and variant-stable"
# Reno + Vegas, 20-client smoke, at two worker counts: the policy-layer
# refactor must never move a byte of the figure tables, whatever engine
# configuration produced them. --no-cache, or the second sweep would be
# served from the first one's stored points.
./target/release/tcpburst sweep --protocols reno,vegas --clients 20 \
    --secs 4 --no-cache --jobs 1 > "$TMP/golden_j1.txt"
./target/release/tcpburst sweep --protocols reno,vegas --clients 20 \
    --secs 4 --no-cache --jobs 4 > "$TMP/golden_j4.txt"
diff "$TMP/golden_j1.txt" "$TMP/golden_j4.txt"
echo "Reno+Vegas tables byte-identical across job counts"

echo "==> topologies: parking-lot sweep is job-count-stable"
# The generic graph path must be as deterministic as the dumbbell it
# replaced: a multi-bottleneck chain swept at two worker counts (uncached)
# may not move a byte.
./target/release/tcpburst sweep --topology parking-lot:3,2 \
    --protocols reno,vegas --clients 6 --secs 4 \
    --no-cache --jobs 1 > "$TMP/pl_j1.txt"
./target/release/tcpburst sweep --topology parking-lot:3,2 \
    --protocols reno,vegas --clients 6 --secs 4 \
    --no-cache --jobs 4 > "$TMP/pl_j4.txt"
diff "$TMP/pl_j1.txt" "$TMP/pl_j4.txt"
echo "parking-lot tables byte-identical across job counts"

echo "==> topologies: incast + waxman + per-hop tracing CLI smoke"
./target/release/tcpburst run --topology incast:8 --secs 3 \
    > "$TMP/topo_run.txt"
grep -q "incast:8" "$TMP/topo_run.txt"
./target/release/tcpburst run --topology waxman:8,0.6,0.4 --secs 3 \
    --trace-hops > "$TMP/topo_run.txt"
grep -q "per-hop series" "$TMP/topo_run.txt"
echo "incast and waxman shapes run end-to-end from the CLI"

echo "==> golden traces: GAIMD default exponents reproduce Reno"
# GeneralizedAimd{alpha: 0, beta: 1} must be Reno bit-for-bit; only the
# column label may differ (width-preserving substitution).
./target/release/tcpburst sweep --protocols reno --clients 20 \
    --secs 4 > "$TMP/reno.txt"
./target/release/tcpburst sweep --protocols gaimd --clients 20 \
    --secs 4 | sed 's/ GAIMD/  Reno/g' > "$TMP/gaimd.txt"
diff "$TMP/reno.txt" "$TMP/gaimd.txt"
echo "GAIMD(0, 1) tables byte-identical to Reno"

echo "==> modern policies: run + sweep + resume smoke for cubic/hstcp/bbr"
# Every modern variant must drive the full stack end-to-end: a single run
# (bbr also exercises the paced-send timer path), a journalled sweep, and
# a truncated-journal resume that reproduces the sweep byte-for-byte.
for v in cubic hstcp bbr; do
    ./target/release/tcpburst run --clients 10 --secs 5 --variant "$v" \
        > "$TMP/modern_run.txt"
    grep -q "c.o.v." "$TMP/modern_run.txt"
    ./target/release/tcpburst sweep --variant "$v" --clients 5,15 --secs 3 \
        --jobs 2 --no-cache --journal "$TMP/modern.jsonl" \
        > "$TMP/modern_fresh.txt"
    head -n 2 "$TMP/modern.jsonl" > "$TMP/modern_trunc.jsonl"
    ./target/release/tcpburst sweep --variant "$v" --clients 5,15 --secs 3 \
        --jobs 2 --no-cache --resume "$TMP/modern_trunc.jsonl" \
        > "$TMP/modern_resumed.txt" 2> "$TMP/modern_resumed.err"
    diff "$TMP/modern_fresh.txt" "$TMP/modern_resumed.txt"
    grep -q "resumed 1 point(s)" "$TMP/modern_resumed.err"
    diff "$TMP/modern.jsonl" "$TMP/modern_trunc.jsonl"
    rm -f "$TMP/modern.jsonl" "$TMP/modern_trunc.jsonl"
done
# The paced policy through the fork/IPC/merge path: worker processes must
# reproduce the in-process sweep (modern_fresh.txt is bbr's, the loop's
# last iteration) bit-for-bit.
./target/release/tcpburst sweep --variant bbr --clients 5,15 --secs 3 \
    --no-cache --workers 2 > "$TMP/modern_forked.txt"
diff "$TMP/modern_fresh.txt" "$TMP/modern_forked.txt"
echo "cubic/hstcp/bbr run, sweep, journal-resume, and worker processes all reproduce"

echo "==> policy layer: no variant dispatch outside Policy::for_config"
# The reliability engine (sender/) and the policies (cc/) must stay
# variant-agnostic: the single match on TcpVariant lives in cc/mod.rs
# (the policy-construction site).
LEAKS="$(grep -RnE 'match .*TcpVariant' \
    crates/transport/src/sender crates/transport/src/cc \
    | grep -v 'cc/mod.rs' || true)"
if [ -n "$LEAKS" ]; then
    echo "TcpVariant dispatch leaked outside Policy::for_config:" >&2
    echo "$LEAKS" >&2
    exit 1
fi
echo "TcpVariant is matched only at the policy-construction site"

echo "==> topology layer: no dumbbell field access in core"
# The graph-first refactor routes everything through BuiltTopology; the
# only code allowed to reach into dumbbell-specific handles (gateway,
# server, clients, uplinks, downlinks) is topology.rs itself.
DBLEAK="$(grep -RnE '\.(uplinks|downlinks)\b|\bDumbbell::(try_)?build\b|\bdb\.(gateway|server|clients|bottleneck|reverse)\b' \
    crates/core/src --include='*.rs' \
    | grep -vE ':[0-9]+:\s*(//|/// )' || true)"
if [ -n "$DBLEAK" ]; then
    echo "dumbbell-specific field access in crates/core/src (outside topology.rs):" >&2
    echo "$DBLEAK" >&2
    exit 1
fi
echo "core reads topology only through BuiltTopology handles"

echo "==> scheduler layer: no claim pool outside run_indexed and run_points"
# Grids run on two pools only: parallel.rs (run_indexed, the plain
# fan-out) and workers.rs (run_points, every supervised grid, in-process
# or on workers). A scoped thread pool anywhere else in core is a third
# scheduler growing back. Comments are exempt.
POOLS="$(grep -RnF 'thread::scope' crates/core/src --include='*.rs' \
    | grep -vE '^crates/core/src/(parallel|workers)\.rs:' \
    | grep -vE ':[0-9]+:\s*//' || true)"
if [ -n "$POOLS" ]; then
    echo "scoped thread pool outside parallel.rs and workers.rs:" >&2
    echo "$POOLS" >&2
    exit 1
fi
echo "grids are scheduled only by run_indexed and run_points"

echo "==> robustness: no bare unwrap in non-test library code"
# Scan crates/core/src and crates/net/src, ignoring everything at or below
# a #[cfg(test)] marker in each file (module tests live at the bottom).
# Internal invariants must use .expect("message") so a violation names
# itself; fallible paths must return Result.
UNWRAPS="$(awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests && /\.unwrap\(\)/ { print FILENAME ":" FNR ": " $0 }
' $(find crates/core/src crates/net/src -name '*.rs'))"
if [ -n "$UNWRAPS" ]; then
    echo "bare .unwrap() in non-test library code:" >&2
    echo "$UNWRAPS" >&2
    exit 1
fi
echo "library sources are unwrap-free outside #[cfg(test)]"

echo "==> hot loop: no Box<dyn> dispatch in the engine crates"
# The event loop's per-event path (scheduler, links/queues, transport,
# sources) is enum-dispatched by design; a trait object creeping in
# reintroduces a heap allocation plus a vtable call per event. Comments
# explaining that choice are exempt.
BOXDYN="$(grep -RnF 'Box<dyn' \
    crates/des/src crates/net/src crates/transport/src crates/traffic/src \
    | grep -vE ':[0-9]+:\s*//' || true)"
if [ -n "$BOXDYN" ]; then
    echo "Box<dyn> dispatch in a hot-loop crate:" >&2
    echo "$BOXDYN" >&2
    exit 1
fi
echo "engine crates dispatch via enums, no trait objects"

if [ "${BENCH:-1}" = "1" ]; then
    echo "==> event engine: bench_des smoke (calibrated scenario, alloc windows, hold model)"
    cargo run --release --offline --example bench_des -- --smoke
    # The smoke run must have produced parseable JSON with a real
    # (nonzero) events/s measurement in it.
    if command -v python3 >/dev/null 2>&1; then
        python3 - <<'EOF'
import json
with open("BENCH_des_smoke.json") as f:
    data = json.load(f)
scenario = data["scenario"]
for key in ("events_per_sec", "sim_secs_per_wall_s", "calib_s", "sim_secs_per_calib"):
    assert scenario[key] > 0, f"scenario: {key} is zero"
alloc = data["alloc_check"]
assert alloc["steady_allocs"] <= alloc["ceiling"], "steady-state alloc over ceiling"
assert alloc["first_window_allocs"] >= 0, "first alloc window missing"
assert alloc["total_events"] > 0, "alloc check processed no events"
assert data["hold_model"], "hold_model series is empty"
assert all(h["ops_per_sec"] > 0 for h in data["hold_model"]), "hold model reads zero"
print("BENCH_des_smoke.json: valid JSON; scenario, alloc_check, hold_model OK")
EOF
    else
        grep -q '"events_per_sec": [1-9]' BENCH_des_smoke.json
        grep -q '"steady_allocs": ' BENCH_des_smoke.json
        echo "BENCH_des_smoke.json: nonzero events/s, alloc_check present" \
             "(python3 unavailable, grep check)"
    fi

    echo "==> throughput: parallel sweep benchmark (writes BENCH_sweep.json)"
    cargo run --release --offline --example bench_sweep
    # The bench must have produced the full three-series schema with a
    # real warm-cache win; the example itself already asserted that every
    # variant's figure tables matched the serial run byte-for-byte.
    if command -v python3 >/dev/null 2>&1; then
        python3 - <<'EOF'
import json
with open("BENCH_sweep.json") as f:
    data = json.load(f)
assert data["host_cores"] >= 1, "host_cores missing or zero"
threads = data["threads"]
assert threads, "threads series is empty"
assert any(t["threads"] == 1 for t in threads), "no serial baseline row"
for t in threads:
    assert t["events_per_sec"] > 0, f"threads={t['threads']}: zero events/s"
workers = data["workers"]
assert workers, "workers series is empty"
for w in workers:
    assert w["workers"] >= 2, "workers series must fork real processes"
    assert w["events_per_sec"] > 0, f"workers={w['workers']}: zero events/s"
cache = data["cache"]
assert cache["warm_hits"] == cache["points"], "warm sweep was not 100% hits"
assert cache["speedup"] >= 20, f"warm cache only {cache['speedup']}x faster"
print("BENCH_sweep.json: valid JSON; threads, workers, cache series OK"
      f" (warm cache {cache['speedup']}x)")
EOF
    else
        grep -q '"host_cores": [1-9]' BENCH_sweep.json
        grep -q '"workers": 2' BENCH_sweep.json
        grep -q '"warm_hits": ' BENCH_sweep.json
        echo "BENCH_sweep.json: host_cores, workers, cache present" \
             "(python3 unavailable, grep check)"
    fi

    echo "==> zero overhead: disabled impairments within 10% of calibrated BENCH_des.json"
    cargo run --release --offline --example bench_des -- --regress
fi

echo "==> verify OK"
