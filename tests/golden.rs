//! Golden-file regression tests for the precision-pipeline reports.
//!
//! The triaged JSON and SARIF renderings of two §5.4 real-bug models
//! (`memcached`, `zookeeper`) are checked in under `tests/golden/` and
//! string-diffed here. Any change to triage scoring, pass order, or
//! serialization shows up as a readable diff in `cargo test`.
//!
//! To bless new goldens after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use o2::prelude::*;
use std::path::PathBuf;

fn golden_path(name: &str, ext: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.{ext}"))
}

/// Renders the pipeline report of one model as `(json, sarif)`.
fn render(model: &o2_workloads::realbugs::RealBugModel) -> (String, String) {
    let report = O2Builder::new().build().analyze(&model.program);
    let pipeline = report.run_pipeline(&model.program);
    (
        pipeline.to_json(&model.program),
        pipeline.to_sarif(&model.program),
    )
}

fn check(name: &str, ext: &str, actual: &str) {
    let path = golden_path(name, ext);
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
    if expected != actual {
        // Point at the first differing line so the failure is readable
        // without an external diff tool.
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| {
                format!(
                    "first differing line {}:\n  golden: {}\n  actual: {}",
                    i + 1,
                    expected.lines().nth(i).unwrap_or(""),
                    actual.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs actual {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!(
            "golden mismatch for {} ({mismatch})\nbless with UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        );
    }
}

#[test]
fn memcached_pipeline_reports_match_goldens() {
    let m = o2_workloads::realbugs::memcached();
    let (json, sarif) = render(&m);
    check("memcached", "json", &json);
    check("memcached", "sarif", &sarif);
}

#[test]
fn zookeeper_pipeline_reports_match_goldens() {
    let m = o2_workloads::realbugs::zookeeper();
    let (json, sarif) = render(&m);
    check("zookeeper", "json", &json);
    check("zookeeper", "sarif", &sarif);
}

#[test]
fn openssl_rwlock_pipeline_reports_match_goldens() {
    let m = o2_workloads::realbugs::openssl_rwlock();
    let (json, sarif) = render(&m);
    check("openssl_rwlock", "json", &json);
    check("openssl_rwlock", "sarif", &sarif);
}

#[test]
fn libuv_loop_pipeline_reports_match_goldens() {
    let m = o2_workloads::realbugs::libuv_loop();
    let (json, sarif) = render(&m);
    check("libuv_loop", "json", &json);
    check("libuv_loop", "sarif", &sarif);
}

#[test]
fn goldens_are_byte_identical_across_thread_counts() {
    // Detection is serial, so scheduling never leaks into any rendering:
    // repeated runs reproduce the checked-in goldens byte for byte, and
    // the text report (no golden file) agrees across runs too.
    for (name, m) in [
        ("memcached", o2_workloads::realbugs::memcached()),
        ("zookeeper", o2_workloads::realbugs::zookeeper()),
    ] {
        let mut texts = Vec::new();
        for _ in 0..2 {
            let report = O2Builder::new().build().analyze(&m.program);
            let pipeline = report.run_pipeline(&m.program);
            check(name, "json", &pipeline.to_json(&m.program));
            check(name, "sarif", &pipeline.to_sarif(&m.program));
            texts.push(pipeline.render(&m.program));
        }
        assert_eq!(
            texts[0], texts[1],
            "{name}: text report differs between runs"
        );
    }
}

#[test]
fn corpus_sarif_matches_golden() {
    // The merged `o2 batch` SARIF document: one run (a single
    // `automationDetails.id`), results grouped by program in ascending
    // name order, every result tagged with `properties.program`. The
    // golden pins the exact bytes, so any drift in the corpus merge —
    // ordering, run identity, program tagging — shows up as a diff.
    let engine = O2Builder::new().build();
    let entries: Vec<o2::BatchEntry> = ["realbug:Memcached", "realbug:ZooKeeper", "avrora"]
        .iter()
        .map(|spec| {
            let w = o2_workloads::workload_by_name(spec).unwrap();
            o2::BatchEntry {
                name: w.name,
                program: Ok(w.program),
            }
        })
        .collect();
    let run = o2::run_batch(&engine, &entries, 2);
    check("corpus", "sarif", &run.sarif);
    // The same entries through a second batch with different worker
    // count must reproduce the golden too.
    let run1 = o2::run_batch(&engine, &entries, 1);
    check("corpus", "sarif", &run1.sarif);
}

#[test]
fn goldens_put_every_race_in_the_high_tier() {
    // The goldens must never silently capture a recall regression: every
    // Table 10 model's triaged report, Java and C frontend, carries
    // exactly the paper's confirmed races, none pruned or suppressed, all
    // in the high tier.
    let java = o2_workloads::realbugs::all_models();
    let c = o2_workloads::all_c_models();
    for (family, models, total) in [("java", &java, 40), ("c", &c, 35)] {
        let mut races = 0;
        for m in models.iter() {
            let report = O2Builder::new().build().analyze(&m.program);
            let pipeline = report.run_pipeline(&m.program);
            assert_eq!(pipeline.races.len(), m.expected_races, "{}", m.name);
            assert!(
                pipeline.pruned.is_empty() && pipeline.suppressed.is_empty(),
                "{family} {}: triage removed a confirmed race",
                m.name
            );
            assert!(
                pipeline.races.iter().all(|tr| tr.tier == Tier::High),
                "{family} {}: every confirmed race is high-confidence",
                m.name
            );
            races += pipeline.races.len();
        }
        assert_eq!(races, total, "{family} models");
    }
    assert_eq!((java.len(), c.len()), (11, 7));
}
