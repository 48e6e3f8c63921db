//! Checks on the benchmark itself: its counters are exact, and the
//! metrics it prints are the ones `BENCHMARK.json` declares.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! a debug build takes minutes on the mega programs.

use o2_perfbench::trace::Tracer;
use o2_perfbench::{per_layer, workload, Counts, Mode, END_TO_END, WORKLOADS};

/// One set-up and one traced replay of `name` at `seed`, from freshly
/// generated inputs.
fn traced_counts(name: &str, seed: u64) -> Counts {
    let mut w = workload(name, seed).expect("inputs generate");
    w.setup().expect("set-up succeeds");
    let mut t = Tracer::new();
    t.set_on(true);
    let rep = w.replay(Mode::Traced, 0, &mut t);
    assert!(rep.failures.is_empty(), "{name}: {:?}", rep.failures);
    rep.counts
}

#[test]
fn count_metrics_repeat_exactly_at_one_seed() {
    for name in WORKLOADS {
        let first = traced_counts(name, 7);
        let second = traced_counts(name, 7);
        assert!(!first.is_empty(), "{name}: no counters");
        assert_eq!(first, second, "{name}: counters differ between runs");
    }
}

/// Every `"name": "..."` value in `BENCHMARK.json`, in file order.
fn declared_names() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    text.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("a name has a string value");
            value.to_string()
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let mut printed: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    printed.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
    printed.extend(per_layer().iter().map(|(n, _)| n.to_string()));
    assert_eq!(declared_names(), printed);
}
