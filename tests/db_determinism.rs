//! Determinism of the analysis-database image.
//!
//! The serialized database must be byte-identical across repeated runs
//! in one process: reports are keyed and ordered by program digest, never
//! by discovery order or wall-clock, and detection is serial, so the
//! rendered reports themselves never depend on scheduling.

use o2::prelude::*;
use o2::render_reports;
use o2_ir::digest_program;

const PRESETS: &[&str] = &["xalan", "avrora", "zookeeper"];

/// The image the CLI saves after analyzing `program`, plus the JSON it
/// printed.
fn db_bytes_for(program: &Program) -> (Vec<u8>, String) {
    let engine = O2Builder::new().build();
    let mut db = AnalysisDb::new(engine.config_sig());
    let digests = digest_program(program);
    let (report, _) = engine.analyze_with_db_prepared(program, &mut db, &digests);
    let reports = render_reports(&report.run_pipeline(program), program);
    let json = reports.json.clone();
    db.reports.insert(digests.program, reports);
    (db.to_bytes(), json)
}

#[test]
fn db_bytes_identical_across_thread_counts() {
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let (base_bytes, base_json) = db_bytes_for(&w.program);
        let (bytes, json) = db_bytes_for(&w.program);
        assert_eq!(bytes, base_bytes, "{name}: database bytes differ");
        assert_eq!(json, base_json, "{name}: report differs");
    }
}

#[test]
fn db_bytes_identical_across_repeated_runs() {
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let (first, _) = db_bytes_for(&w.program);
        let (second, _) = db_bytes_for(&w.program);
        assert_eq!(second, first, "{name}: databases differ");
        // Re-analyzing the same program against its own image rewrites
        // exactly the same bytes.
        let engine = O2Builder::new().build();
        let mut db = AnalysisDb::from_bytes(&first).expect("image round-trips");
        engine.analyze_with_db(&w.program, &mut db);
        assert_eq!(db.to_bytes(), first, "{name}: a rerun changed the database");
    }
}

/// A reloaded image's cached reports are byte-identical to a fresh
/// engine's cold run.
#[test]
fn warm_reports_identical_across_thread_counts() {
    let w = o2_workloads::preset_by_name("avrora")
        .expect("preset exists")
        .generate();
    let (bytes, _) = db_bytes_for(&w.program);
    let digest = digest_program(&w.program).program;

    let engine = O2Builder::new().build();
    let db = AnalysisDb::from_bytes(&bytes).unwrap();
    let hit = db
        .lookup(engine.config_sig(), digest)
        .expect("a fresh engine has the image's configuration signature");
    let cold = engine.analyze(&w.program).run_pipeline(&w.program);
    assert_eq!(hit.json, cold.to_json(&w.program));
}
