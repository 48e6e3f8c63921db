//! Warm-vs-cold equivalence of the whole-program digest cache.
//!
//! For every benchmark preset and real-bug model: fill an analysis
//! database the way the CLI does (`analyze_with_db`, render, insert),
//! apply a deterministic single-function edit, and check that
//!
//! - the edited program misses the base version's cached reports,
//! - its own reports, filled into the same database and read back from a
//!   round-tripped image, are byte-identical (text, JSON and SARIF) to a
//!   cold run of the edited program.

use o2::prelude::*;
use o2::render_reports;
use o2_db::CachedReports;
use o2_ir::digest_program;
use o2_workloads::single_function_edit;

/// The three rendered forms of a cold run.
fn cold(engine: &O2, program: &Program) -> CachedReports {
    render_reports(&engine.analyze(program).run_pipeline(program), program)
}

/// What the CLI does on a cache miss: analyze, commit, render, insert.
fn fill(engine: &O2, program: &Program, db: &mut AnalysisDb) {
    let digests = digest_program(program);
    let (report, _) = engine.analyze_with_db_prepared(program, db, &digests);
    let reports = render_reports(&report.run_pipeline(program), program);
    db.reports.insert(digests.program, reports);
}

/// The reports a later `--load-db` run reads for `program` from `db`'s
/// on-disk image.
fn warm(engine: &O2, program: &Program, db: &AnalysisDb) -> Option<CachedReports> {
    let image = AnalysisDb::from_bytes(&db.to_bytes()).expect("image round-trips");
    image
        .lookup(engine.config_sig(), digest_program(program).program)
        .cloned()
}

fn check_workload(name: &str, base: &Program) {
    let (edited, edited_fn) = single_function_edit(base);
    let engine = O2Builder::new().build();
    let mut db = AnalysisDb::new(engine.config_sig());
    fill(&engine, base, &mut db);
    assert!(
        warm(&engine, &edited, &db).is_none(),
        "{name}: an edit of {edited_fn} must miss the base program's reports"
    );
    fill(&engine, &edited, &mut db);
    assert_eq!(
        warm(&engine, &edited, &db),
        Some(cold(&engine, &edited)),
        "{name}: warm reports differ from cold (edited {edited_fn})"
    );
}

#[test]
fn presets_warm_equals_cold_after_edit() {
    for preset in o2_workloads::all_presets() {
        let name = preset.name;
        check_workload(name, &preset.generate().program);
    }
}

#[test]
fn realbug_models_warm_equals_cold_after_edit() {
    for model in o2_workloads::all_models() {
        check_workload(model.name, &model.program);
    }
}

/// An *unchanged* program replays its cached reports wholesale.
#[test]
fn unchanged_program_replays_fully() {
    let engine = O2Builder::new().build();
    for name in ["xalan", "avrora", "zookeeper", "telegram"] {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let mut db = AnalysisDb::new(engine.config_sig());
        fill(&engine, &w.program, &mut db);
        assert_eq!(
            warm(&engine, &w.program, &db),
            Some(cold(&engine, &w.program)),
            "{name}"
        );
    }
}

/// A configuration change invalidates the image: the cached reports are
/// never served under the new signature, and the next commit drops them.
#[test]
fn config_change_invalidates_the_image() {
    let w = o2_workloads::preset_by_name("avrora")
        .expect("preset exists")
        .generate();
    let engine = O2Builder::new().build();
    let mut db = AnalysisDb::new(engine.config_sig());
    fill(&engine, &w.program, &mut db);
    let naive = O2Builder::new()
        .detect_config(DetectConfig::naive())
        .build();
    assert!(warm(&naive, &w.program, &db).is_none());
    naive.analyze_with_db(&w.program, &mut db);
    assert!(db.reports.is_empty());
    assert_eq!(db.config_sig, naive.config_sig());
}
