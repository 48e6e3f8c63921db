#!/usr/bin/env sh
# Full offline verification: formatting, release build, complete test
# suite (which diffs the checked-in golden JSON/SARIF reports under
# tests/golden/ and pins exact precision and prune rows in
# tests/pinned_rows.rs), lints (the panic-budget lint and the non-test
# line-count ceiling), CLI and batch smokes, and the perfbench gate. The
# live `o2 serve` process (port file, solo-identical bytes, structured
# errors, --save-db on shutdown, a warm --load-db restart) is driven by
# a test in crates/core/tests/cli.rs, inside `cargo test`.
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
panic_budget=157
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
line_budget=19172
echo "==> non-test line count (ceiling $line_budget)"
line_count=$(($(wc -l < "$work/nontest.rs")))
echo "non-test lines in crate code: $line_count"
if [ "$line_count" -gt "$line_budget" ]; then
    echo "line-count gate: $line_count lines exceed the ceiling of $line_budget" >&2
    exit 1
fi

echo "==> incremental warm-vs-cold equivalence"
cargo test -q --offline --test incremental --test db_determinism --test roundtrip --test sync_primitives

echo "==> golden report diffs (incl. mega presets)"
cargo test -q --offline --test golden --test mega

echo "==> error-plane tests + CLI exit-code smoke"
cargo test -q --offline --test errors
bad_src=$work/broken.o2
printf 'class Broken {\n' > "$bad_src"
rc=0; ./target/release/o2 "$bad_src" --quiet >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 10 ]; then
    echo "error smoke: parse failure exited $rc, expected 10" >&2
    exit 1
fi
rc=0; ./target/release/o2 /nonexistent/file.o2 --quiet >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 16 ]; then
    echo "error smoke: missing file exited $rc, expected 16" >&2
    exit 1
fi
echo "error smoke: parse exits 10, io exits 16"

echo "==> batch determinism tests + o2 batch smoke"
cargo test -q --offline --test batch
batch_manifest=$work/manifest.txt
batch_a=$work/batch-a.out
batch_b=$work/batch-b.out
printf 'avrora\nlusearch\nmega-smoke\nrealbug:ZooKeeper\nrealbug-c:Memcached\n' > "$batch_manifest"
./target/release/o2 batch "$batch_manifest" --workers 1 --format sarif --quiet > "$batch_a" || true
./target/release/o2 batch "$batch_manifest" --workers 4 --format sarif --quiet > "$batch_b" || true
cmp "$batch_a" "$batch_b"
echo "batch smoke: merged SARIF byte-identical at 1 and 4 workers"

# A manifest with a failing entry still merges deterministically and
# exits with the failing stage's code (races take precedence; this
# corpus has none in avrora alone, so the resolve entry's code wins
# unless a race is found — use the exit code only as a sanity signal).
printf 'avrora\nno-such-workload\n' > "$batch_manifest"
rc=0; ./target/release/o2 batch "$batch_manifest" --workers 2 --format json --quiet > "$batch_a" || rc=$?
if [ "$rc" -ne 1 ] && [ "$rc" -ne 11 ]; then
    echo "error smoke: batch with a resolve failure exited $rc, expected 1 or 11" >&2
    exit 1
fi
grep -q '"stage": "resolve"' "$batch_a"
echo "batch smoke: failing entry recorded in merged JSON, exit code carries the stage"

echo "==> serve daemon tests"
cargo test -q --offline --test serve

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
