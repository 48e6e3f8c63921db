#!/usr/bin/env sh
# Full offline verification: formatting, release build, complete test
# suite (which diffs the checked-in golden JSON/SARIF reports under
# tests/golden/ and pins exact precision and prune rows in
# tests/pinned_rows.rs), lints (clippy, rustdoc warnings, the
# panic-budget lint and the non-test line-count ceiling), and the
# perfbench gate. The `o2` binary itself
# (exit codes per error stage, the report path, `o2 batch` determinism
# and failing entries, and the live `o2 serve` process) is driven by
# crates/core/tests/cli.rs, inside `cargo test`.
#
# The perfbench gate runs the benchmark CLI in perfbench/ on each of its
# four workloads at seed 1, in two parts:
#   - exact counters: a 1 s traced run per workload; its `# count` lines
#     must equal results/perfbench-counts.txt byte for byte. They count
#     work (solver steps, pairs checked, output bytes), not time, so any
#     difference is a change in what the program computes.
#   - calibrated throughput: a 10 s untraced run per workload must be
#     correct and reach (1 - bound) x the throughput_per_s committed in
#     results/perfbench-baseline.txt, with the bound read from
#     BENCHMARK.json.
#
# Every temporary file lives in one work dir; one EXIT trap removes it
# and puts back perfbench/Cargo.lock, which cargo may refresh when it
# builds perfbench.
#
# The workspace has no external dependencies, so every step runs with
# --offline and must succeed without network access.
set -eu

cd "$(dirname "$0")/.."

work=$(mktemp -d)
cp perfbench/Cargo.lock "$work/perfbench.lock"
cleanup() {
    cmp -s "$work/perfbench.lock" perfbench/Cargo.lock ||
        cp "$work/perfbench.lock" perfbench/Cargo.lock
    rm -rf "$work"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Non-test crate code, read by the two lints below: src files outside
# the bench harness, with everything from the first #[cfg(test)] to EOF
# stripped.
for f in $(find crates -name '*.rs' -path '*/src/*' \
        ! -path 'crates/bench/*' ! -name '*tests*' | sort); do
    awk '/#!?\[cfg\(test\)\]/{exit} {print}' "$f"
done > "$work/nontest.rs"

# Panic-budget lint (DESIGN §15): grep-count unwrap()/expect(/panic!(
# in non-test crate code, skipping comment lines (a doc example such as
# `//! "#).unwrap();` is not reachable code). The ceiling is the audited
# baseline of internal-invariant panics (poisoned mutexes, parser token
# bookkeeping, "unlimited budget cannot trip"); anything above it means a
# new panic crept into code reachable from a request, which the typed
# error plane forbids. Lower the ceiling when you remove panics; never
# raise it without an audit.
panic_budget=49
echo "==> panic-budget lint (ceiling $panic_budget)"
panic_count=$(grep -v -E '^[[:space:]]*//' "$work/nontest.rs" |
    grep -c -E '\.unwrap\(\)|\.expect\(|panic!\(' || true)
echo "panic sites in non-test crate code: $panic_count"
if [ "$panic_count" -gt "$panic_budget" ]; then
    echo "panic-budget lint: $panic_count sites exceed the ceiling of $panic_budget" >&2
    echo "new code must return O2Error instead of panicking (DESIGN §15)" >&2
    exit 1
fi

# Non-test line count, a tracked number that should only go down. Lower
# the ceiling when you delete code; never raise it without an audit.
line_budget=18500
echo "==> non-test line count (ceiling $line_budget)"
line_count=$(($(wc -l < "$work/nontest.rs")))
echo "non-test lines in crate code: $line_count"
if [ "$line_count" -gt "$line_budget" ]; then
    echo "line-count gate: $line_count lines exceed the ceiling of $line_budget" >&2
    exit 1
fi

echo "==> perfbench gate (exact counters + calibrated throughput)"
cargo build --quiet --release --offline --manifest-path perfbench/Cargo.toml
perfbench=perfbench/target/release/o2-perfbench
workloads="cold-corpus mega-cold edit-warm serve-mix"
# Runs one perfbench workload into $work/<name>.out and fails unless its
# result line (the last line) reports a correct run.
run_perfbench() {
    out=$work/$1.out
    shift
    "$perfbench" "$@" > "$out"
    if tail -n 1 "$out" | grep -q '"correct": false'; then
        echo "perfbench gate: $* failed its oracle:" >&2
        grep '^# failed' "$out" >&2 || true
        exit 1
    fi
}
for w in $workloads; do
    run_perfbench "trace-$w" --workload "$w" --seed 1 --trace 1 --seconds 1
    echo "# workload $w"
    grep '^# count ' "$work/trace-$w.out"
done > "$work/counts.txt"
if ! diff -u results/perfbench-counts.txt "$work/counts.txt"; then
    echo "perfbench gate: work counters differ from results/perfbench-counts.txt" >&2
    exit 1
fi
echo "perfbench counters: identical to results/perfbench-counts.txt"
bound=$(awk '/"name": "throughput_per_s"/ {f = 1} f && /"bound"/ {gsub(/[^0-9.]/, ""); print; exit}' BENCHMARK.json)
for w in $workloads; do
    run_perfbench "speed-$w" --workload "$w" --seed 1 --trace 0 --seconds 10
    got=$(tail -n 1 "$work/speed-$w.out" |
        sed -n 's/.*"throughput_per_s": {"value": \([0-9.eE+-]*\).*/\1/p')
    base=$(awk -v w="$w" '$1 == w {print $2}' results/perfbench-baseline.txt)
    if [ -z "$got" ] || [ -z "$base" ] || [ -z "$bound" ]; then
        echo "perfbench gate: $w: no throughput ('$got'), baseline ('$base') or bound ('$bound')" >&2
        exit 1
    fi
    floor=$(awk -v b="$base" -v k="$bound" 'BEGIN {print (1 - k) * b}')
    if awk -v g="$got" -v f="$floor" 'BEGIN {exit !(g < f)}'; then
        echo "perfbench gate: $w throughput $got/s is below the floor $floor/s ((1 - $bound) x baseline $base/s)" >&2
        exit 1
    fi
    echo "perfbench $w: $got/s (baseline $base/s, floor $floor/s)"
done

echo "==> verify OK"
