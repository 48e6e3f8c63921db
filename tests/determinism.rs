//! Determinism regressions for the PR 1 performance work.
//!
//! The pair-checking engine must give the same race report on every
//! run (same races, same order, same counters). Likewise the
//! difference-propagating solver must compute exactly the points-to
//! fixpoint of the retained full-set baseline on every benchmark
//! preset, moving strictly fewer objects in aggregate.

use o2::prelude::*;
use o2::AnalysisReport;

/// A cross-section of the suite: each benchmark group, sizes from tiny
/// to the largest preset.
const PRESETS: &[&str] = &[
    "xalan",
    "avrora",
    "sunflow",
    "zookeeper",
    "k9mail",
    "telegram",
];

fn analyze(program: &Program) -> AnalysisReport {
    O2Builder::new().build().analyze(program)
}

/// Detection is serial, so two runs of one engine on one program agree
/// byte for byte and counter for counter on every preset.
#[test]
fn parallel_detect_is_byte_identical_to_sequential() {
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let first = analyze(&w.program);
        let again = analyze(&w.program);
        assert_eq!(
            again.races.to_json(&w.program),
            first.races.to_json(&w.program),
            "{name}: JSON report differs between runs"
        );
        assert_eq!(
            again.races.render(&w.program),
            first.races.render(&w.program),
            "{name}: rendered report differs between runs"
        );
        assert_eq!(
            again.races.pairs_checked, first.races.pairs_checked,
            "{name}: pair count differs between runs"
        );
        assert_eq!(
            again.races.lock_pruned, first.races.lock_pruned,
            "{name}: lock pruning differs between runs"
        );
        assert_eq!(
            again.races.hb_pruned, first.races.hb_pruned,
            "{name}: HB pruning differs between runs"
        );
        assert_eq!(
            again.races.region_merged, first.races.region_merged,
            "{name}: region merging differs between runs"
        );
    }
}

/// Difference propagation computes the same points-to fixpoint as the
/// full-set baseline on every preset — compared through canonical,
/// interning-order-independent snapshots — with identical discovery
/// statistics and strictly fewer transferred objects in aggregate.
#[test]
fn delta_solver_matches_baseline_on_presets() {
    let mut diff_total = 0u64;
    let mut full_total = 0u64;
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let diff = o2_pta::analyze(
            &o2_ir::ProgramCtx::solo(&w.program),
            &o2_pta::PtaConfig::default(),
        );
        let full = o2_pta::analyze(
            &o2_ir::ProgramCtx::solo(&w.program),
            &o2_pta::PtaConfig {
                difference_propagation: false,
                ..Default::default()
            },
        );
        assert_eq!(
            diff.canonical_snapshot(),
            full.canonical_snapshot(),
            "{name}: fixpoints differ"
        );
        assert_eq!(diff.stats.num_objects, full.stats.num_objects, "{name}");
        assert_eq!(diff.stats.num_origins, full.stats.num_origins, "{name}");
        assert_eq!(diff.stats.num_mis, full.stats.num_mis, "{name}");
        assert_eq!(diff.stats.num_edges, full.stats.num_edges, "{name}");
        assert!(
            diff.stats.propagated_objects <= full.stats.propagated_objects,
            "{name}: diff moved more objects ({} > {})",
            diff.stats.propagated_objects,
            full.stats.propagated_objects
        );
        diff_total += diff.stats.propagated_objects;
        full_total += full.stats.propagated_objects;
    }
    assert!(
        diff_total < full_total,
        "difference propagation should strictly reduce transfers in \
         aggregate: {diff_total} vs {full_total}"
    );
}

/// The races on a preset with planted ground truth are reported
/// (sanity check that the determinism tests are not vacuously comparing
/// empty reports).
#[test]
fn parallel_detect_reports_are_nonempty_where_expected() {
    let w = o2_workloads::preset_by_name("telegram")
        .expect("preset exists")
        .generate();
    let report = analyze(&w.program);
    assert!(report.races.num_races() > 0, "telegram should report races");
}
