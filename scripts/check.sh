#!/usr/bin/env bash
# Repository gate: formatting, lints, and the tier-1 build/test pass.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "== cargo doc --no-deps (warnings denied)"
# Vendored third_party crates are workspace members but not ours to fix.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet \
  --exclude proptest --exclude criterion --exclude rand

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== workspace tests: every crate's unit, integration and doc tests"
# Tier-1 `cargo test` at the root builds only the root package; this
# gates the crate-level suites (sim, core, isa, emu, memsys, ...) too.
cargo test --workspace -q

echo "== oracle-on smoke: Tiny suite with full runtime checking"
cargo run --release -q -p ubrc-bench --bin experiments -- \
  charstats --scale tiny --check --timeout 300 >/dev/null

echo "== SMT smoke: 2-thread Tiny kernel pairs, oracle + invariants on"
cargo run --release -q -p ubrc-bench --bin experiments -- \
  smt --scale tiny --check --timeout 300 >/dev/null

echo "== SMT smoke: 4-thread Tiny kernel quads, oracle + invariants on"
cargo run --release -q -p ubrc-bench --bin experiments -- \
  smt4 --scale tiny --check --timeout 300 >/dev/null

echo "== recovery smoke: Tiny suite, parity + injected faults, oracle on"
# The soft experiment sweeps every recoverable fault class with full
# checking: any oracle divergence or unbalanced pin/fill accounting
# fails the run. The recovery test suite (`ubrc-sim --test recovery`,
# run by the workspace step above) asserts the counts are non-zero
# (faults actually landed and were repaired).
cargo run --release -q -p ubrc-bench --bin experiments -- \
  soft --scale tiny --check --timeout 300 >/dev/null

echo "== dynamic-partitioning smoke: Tiny quads, DynamicCap, oracle on"
# The ucp experiment runs the shared/occupancy-cap/dynamic-cap matrix;
# with --check the invariant checker verifies per-thread containment
# against the epoch-varying caps and cap-sum conservation every cycle.
cargo run --release -q -p ubrc-bench --bin experiments -- \
  ucp --scale tiny --check --timeout 300 >/dev/null

echo "== dynamic-way smoke: Tiny quads, DynamicWay + adaptive epochs, oracle on"
# The dynway experiment runs the way-partition/dynamic-cap/dynamic-way
# matrix (fixed and adaptive epochs) at the 64x8 geometry; with --check
# the invariant checker verifies way containment against the
# epoch-varying way ownership and way-sum conservation every cycle.
cargo run --release -q -p ubrc-bench --bin experiments -- \
  dynway --scale tiny --check --timeout 300 >/dev/null

echo "== throughput smoke: perfbench st-usebased vs checked-in baseline (±30%)"
# Gross perf regressions (an accidental re-virtualization, a debug
# assert in the hot loop) surface here. The number is the benchmark's
# host-normalised simulated insts per CPU second (perfbench divides out
# other tenants' slowdown with its reference computation), which holds
# steady where wall-clock throughput swings by more than the tolerance.
# perfbench is only run here, never edited; it exits non-zero on a
# failed cell, and a run that reports "correct": false fails too.
smoke_out=$(mktemp)
trap 'rm -f "$smoke_out"' EXIT
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
  --workload st-usebased --seed 101 --seconds 5 --trace 0 >"$smoke_out"
python3 - "$smoke_out" <<'PYEOF'
import json, pathlib, sys
report = json.loads(pathlib.Path(sys.argv[1]).read_text().strip().splitlines()[-1])
if report.get("correct") is not True:
    raise SystemExit(f"perfbench reported an incorrect run: {report}")
measured = report["metrics"]["sim_insts_per_cpu_s"]["value"]
baseline = float(pathlib.Path("scripts/throughput_baseline.txt").read_text())
delta = 100.0 * (measured / baseline - 1.0)
print(f"   st-usebased: {measured:,.0f} insts/CPU-s vs baseline {baseline:,.0f} ({delta:+.1f}%)")
if abs(delta) > 30.0:
    raise SystemExit(f"throughput drifted {delta:+.1f}% from scripts/throughput_baseline.txt "
                     "(tolerance ±30%); investigate or re-pin the baseline to the median of "
                     "at least 5 runs on this machine")
PYEOF

echo "all checks passed"
