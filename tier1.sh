#!/usr/bin/env bash
# Tier-1 verification: release build, full test suite, lint-clean.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# Every workspace crate (root `default-members`): unit, integration,
# property and doc tests, fault-injection and crash-safety suites, the
# predicate-engine equivalence properties, trace ingest and the service
# suites, all in debug mode.
cargo test -q
# v3 fault-injection smoke + writer/append crash-point matrices under
# --release: optimized builds must hit the same typed-diagnostic paths
# (bounds checks and CRC verification are not debug-only behavior).
cargo test -q --release -p thicket-perfsim --test faults v3_
cargo test -q --release --test store_recovery crash_point
# The label of every crash point save, append and compact pass, in
# order: all three run the one commit sequence.
cargo test -q --release -p thicket-perfsim --lib crash_point
# Concurrency smoke under --release: the live-contention matrix (readers
# × appender × compactor with GC on), the chaos-schedule linearization
# check, the kill-9 subprocess recovery test, and
# shared_shard_handles_serve_concurrent_readers (four threads re-pinning
# one generation read sparse and dense selections through its shared
# shard handles exactly as one thread does) — timing-sensitive paths
# that only mean something on optimized builds.
cargo test -q --release -p thicket-perfsim --test concurrency
# Composition oracle under --release: every load path (slice, owned,
# ensemble directory, store dense/sparse/chunked, and the writer path: a
# store grown by a save and appends, each append's base the manifest the
# commit before it registered, read in place and from a copy) against
# the reference composer, at 1, 2 and 8 workers, on optimized builds
# too, plus the
# pool law (pooling the loads of consecutive groups equals one load),
# the split law (pooling a thicket's groupby groups gives it back), the
# chunking law (a load, lenient or strict, repeated profile ids
# included, is the same thicket and report in any chunks), the pushdown
# law (a filter, pushed below the read or run above it over keys no
# profile carries and profile ids, keeps what filtering the whole load
# keeps), the one-home check (a store source and the store path, under
# the loader's strictness alone, agree over a rotted record), and the
# column-axis laws of `concat_thickets` in both node-matching modes:
# projection (a label's columns give its input on the rows every input
# holds), filtering (composing filtered inputs equals filtering the
# composition), commutation (composing pools equals pooling
# compositions) and mode agreement (where names are call paths, Name
# and Path compose the same cells).
cargo test -q --release -p thicket-core --test compose_oracle
# The CPU/GPU composition example (Figures 4 and 15) end to end: it
# asserts the paper's speedup ordering on a name-matched composition.
cargo run -q --release --example multi_arch > /dev/null
# Planner and predicate engine under --release: metadata conjuncts
# pushed below a store read (select_expr, load_indices), the residual
# exists-row pass, the row walk / row-wise / vectorized evaluators on a
# composed perf frame, and the pushed load's byte count, on optimized
# builds.
cargo test -q --release -p thicket-core --test planner
# Bounded-memory trace ingest under --release: stream a trace at least
# 4x a 24 MiB RSS budget through the LoadSource::trace pipeline in a
# fresh child process and fail if its VmHWM reaches the budget, so the
# O(depth x ranks) memory claim is enforced, not just documented. The
# test is ignored in debug runs.
cargo test -q --release -p thicket-core --test trace_memory -- --include-ignored
# Service layer: the wire chaos schedule (torn frames, oversized
# lengths, slow-loris, connection kills, one kill-9 of the daemon) under
# --release — recovery timing only means something on optimized builds.
cargo test -q --release -p thicket-serve --test chaos
# Live daemon smoke under --release: seed a store, start thicketd on an
# ephemeral port, one filtered query + one call-path query through the
# client verbs, SIGTERM, assert a clean drain and zero leftover leases.
SMOKE_DIR=$(mktemp -d)
./target/release/thicketd seed "$SMOKE_DIR/store" --profiles 12 > /dev/null
./target/release/thicketd serve "$SMOKE_DIR/store" > "$SMOKE_DIR/serve.log" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^listening on //p' "$SMOKE_DIR/serve.log")
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "tier1: thicketd never published an address"; exit 1; }
./target/release/thicketd query "$ADDR" 'seed >= 6' | grep -q '6 matching profiles'
# Capture before matching: `grep -q` exits at its first match, so a
# piped client would stop at a closed pipe before printing every node.
CALLPATH=$(./target/release/thicketd callpath "$ADDR" '("*", name contains "Stream")')
grep -q 'Stream_MUL' <<< "$CALLPATH"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" # non-zero exit here = the drain was not clean
grep -q 'drained after' "$SMOKE_DIR/serve.log"
LEFTOVER=$(find "$SMOKE_DIR/store" -name 'pin-*' | wc -l)
[ "$LEFTOVER" -eq 0 ] || { echo "tier1: thicketd left $LEFTOVER lease files"; exit 1; }
rm -rf "$SMOKE_DIR"
# All targets: library code AND tests/examples/bins lint-clean.
cargo clippy --all-targets -- -D warnings
# Rustdoc over the default members (vendor/ left out): a doc link to an
# item that no longer exists, or a public doc linking a private item,
# fails the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps
echo "tier1: OK"
