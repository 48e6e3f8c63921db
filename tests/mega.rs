//! Mega-preset determinism and pruning tests (PR 6), sized for tier-1
//! time via the reduced `mega-smoke` preset.
//!
//! The bench-scale presets (`mega-grid`, `mega-skew`) are analyzed here
//! only for their prune rows (`tests/pinned_rows.rs`) and timed by
//! perfbench's mega-cold workload; everything the pre-loop pruner and the
//! CSR/bitset data plane must *guarantee* is checked here on the small
//! preset, where a full cold analysis takes milliseconds.
//!
//! To bless a new golden after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test mega
//! ```

use o2::prelude::*;
use o2::render_reports;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "golden mismatch for {}; bless with UPDATE_GOLDEN=1 cargo test --test mega",
        path.display()
    );
}

fn smoke() -> o2_workloads::GeneratedWorkload {
    o2_workloads::workload_by_name("mega-smoke").expect("mega-smoke exists")
}

#[test]
fn mega_smoke_race_report_matches_golden_across_thread_counts() {
    let w = smoke();
    let report = O2Builder::new().build().analyze(&w.program);
    check("mega-smoke.races.json", &report.races.to_json(&w.program));
}

#[test]
fn mega_smoke_warm_replay_is_byte_identical() {
    let w = smoke();
    let engine = O2Builder::new().build();
    let cold = render_reports(
        &engine.analyze(&w.program).run_pipeline(&w.program),
        &w.program,
    );

    let digests = o2_ir::digest_program(&w.program);
    let image = {
        let mut db = AnalysisDb::new(engine.config_sig());
        let (report, stats) = engine.analyze_with_db_prepared(&w.program, &mut db, &digests);
        assert_eq!(
            stats.candidates_rechecked as u64, report.races.prune.candidate_locs,
            "stage totals: {stats:?}"
        );
        let reports = render_reports(&report.run_pipeline(&w.program), &w.program);
        db.reports.insert(digests.program, reports);
        db.to_bytes()
    };
    let db = AnalysisDb::from_bytes(&image).expect("image roundtrips");
    assert_eq!(
        db.lookup(engine.config_sig(), digests.program),
        Some(&cold),
        "the cached reports must render the cold reports byte for byte"
    );
}

#[test]
fn preloop_prune_is_report_invariant() {
    // The closed-form synthesis for common-guard locations and the
    // read-only/single-origin elimination must be invisible in every
    // serialized counter: the o2 config with the pre-loop pruner off is
    // the reference semantics.
    for name in ["mega-smoke", "xalan", "zookeeper"] {
        let w = o2_workloads::workload_by_name(name).expect("workload exists");
        let mut on = DetectConfig::o2();
        on.preloop_prune = true;
        let mut off = DetectConfig::o2();
        off.preloop_prune = false;
        let with = O2Builder::new()
            .detect_config(on)
            .build()
            .analyze(&w.program);
        let without = O2Builder::new()
            .detect_config(off)
            .build()
            .analyze(&w.program);
        assert_eq!(
            with.races.to_json(&w.program),
            without.races.to_json(&w.program),
            "{name}: pre-loop pruning changed the rendered report"
        );
    }
}

#[test]
fn mega_smoke_prune_taxonomy_partitions_and_eliminates() {
    let w = smoke();
    let report = O2Builder::new().build().analyze(&w.program);
    let p = report.races.prune;
    assert_eq!(
        p.locations,
        p.read_only_locs + p.single_origin_locs + p.common_guard_locs + p.candidate_locs,
        "{p:?}"
    );
    assert_eq!(
        p.pre_prune_pairs,
        p.read_only_pairs + p.single_origin_pairs + p.common_guard_pairs + p.candidate_pairs,
        "{p:?}"
    );
    // The smoke preset populates every stage, and the common-guard hot
    // statics dominate: the pre-loop pruner must clear well past the
    // 30% acceptance floor here.
    assert!(p.read_only_pairs > 0, "{p:?}");
    assert!(p.common_guard_pairs > 0, "{p:?}");
    assert!(
        p.prune_rate() >= 0.3,
        "prune rate {:.3}: {p:?}",
        p.prune_rate()
    );
}
