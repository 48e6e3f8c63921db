//! Determinism of the analysis-database image.
//!
//! The serialized database must be byte-identical across worker-thread
//! counts and across repeated runs in one process: reports are keyed and
//! ordered by program digest, never by discovery order or wall-clock,
//! and the rendered reports themselves do not depend on the thread count.

use o2::prelude::*;
use o2::render_reports;
use o2_ir::digest_program;

const PRESETS: &[&str] = &["xalan", "avrora", "zookeeper"];

/// The image the CLI saves after analyzing `program` with `--threads
/// threads`, plus the JSON it printed.
fn db_bytes_for(program: &Program, threads: usize) -> (Vec<u8>, String) {
    let engine = O2Builder::new().detect_threads(threads).build();
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
        let (base_bytes, base_json) = db_bytes_for(&w.program, 1);
        for threads in [2usize, 8] {
            let (bytes, json) = db_bytes_for(&w.program, threads);
            assert_eq!(
                bytes, base_bytes,
                "{name}: database bytes differ at {threads} threads"
            );
            assert_eq!(
                json, base_json,
                "{name}: report differs at {threads} threads"
            );
        }
    }
}

#[test]
fn db_bytes_identical_across_repeated_runs() {
    for name in PRESETS {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let (first, _) = db_bytes_for(&w.program, 0);
        let (second, _) = db_bytes_for(&w.program, 0);
        assert_eq!(second, first, "{name}: databases differ");
        // Re-analyzing the same program against its own image rewrites
        // exactly the same bytes.
        let engine = O2Builder::new().build();
        let mut db = AnalysisDb::from_bytes(&first).expect("image round-trips");
        engine.analyze_with_db(&w.program, &mut db);
        assert_eq!(db.to_bytes(), first, "{name}: a rerun changed the database");
    }
}

/// Cached reports are byte-identical across thread counts even when the
/// image came from a *different* thread count's run.
#[test]
fn warm_reports_identical_across_thread_counts() {
    let w = o2_workloads::preset_by_name("avrora")
        .expect("preset exists")
        .generate();
    let (bytes, _) = db_bytes_for(&w.program, 1);
    let digest = digest_program(&w.program).program;

    let mut outputs: Vec<String> = Vec::new();
    for threads in [1usize, 2, 8] {
        let engine = O2Builder::new().detect_threads(threads).build();
        let db = AnalysisDb::from_bytes(&bytes).unwrap();
        let hit = db
            .lookup(engine.config_sig(), digest)
            .expect("the thread count is not part of the configuration signature");
        let cold = engine.analyze(&w.program).run_pipeline(&w.program);
        assert_eq!(hit.json, cold.to_json(&w.program), "{threads} threads");
        outputs.push(hit.json.clone());
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}
