//! End-to-end tests of the typed error plane (DESIGN §15): broken
//! fixtures fed through the library entry points, `o2 batch`, and the
//! serve wire protocol must come back as stage-tagged [`O2Error`]s or
//! structured `"ok":false` responses — never a panic, and never at the
//! cost of a byte of success-path output.

use o2::prelude::*;
use o2::serve::{spawn, Client, ServeState};
use o2::{parse_manifest, run_batch, BatchEntry, ServeOptions};
use std::sync::Arc;
use std::time::Duration;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/errors")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// Library entry points.
// ---------------------------------------------------------------------

#[test]
fn broken_o2_source_is_a_parse_error_with_position() {
    let engine = O2Builder::new().build();
    let err = engine
        .try_analyze_source(&fixture("broken.o2"), &Budget::unlimited())
        .unwrap_err();
    assert_eq!(err.stage(), "parse");
    assert_eq!(err.exit_code(), 10);
    assert!(
        err.to_string().contains("line"),
        "parse errors carry a position: {err}"
    );
}

#[test]
fn missing_main_is_a_program_level_parse_error() {
    let engine = O2Builder::new().build();
    let err = engine
        .try_analyze_source(&fixture("no_main.o2"), &Budget::unlimited())
        .unwrap_err();
    assert_eq!(err.stage(), "parse");
    assert!(err.to_string().contains("main"), "{err}");
}

#[test]
fn broken_c_source_is_a_parse_error() {
    let err = o2_ir::cfront::parse_c(&fixture("broken.c"))
        .map_err(O2Error::from)
        .unwrap_err();
    assert_eq!(err.stage(), "parse");
    assert_eq!(err.exit_code(), 10);
}

#[test]
fn zero_deadline_aborts_with_timeout_and_unlimited_reruns_clean() {
    let engine = O2Builder::new().build();
    let w = o2_workloads::workload_by_name("avrora").unwrap();
    let budget = Budget::with_deadline(Duration::from_millis(0));
    std::thread::sleep(Duration::from_millis(2));
    let err = engine.try_analyze(&w.program, &budget).unwrap_err();
    assert_eq!(err.stage(), "timeout");
    assert_eq!(err.exit_code(), 17);
    // The engine is not poisoned: the same program analyzes fine after.
    let report = engine
        .try_analyze(&w.program, &Budget::unlimited())
        .expect("unlimited rerun succeeds");
    assert_eq!(report.num_races(), engine.analyze(&w.program).num_races());
}

#[test]
fn step_budget_aborts_with_budget_stage() {
    let engine = O2Builder::new().build();
    let w = o2_workloads::workload_by_name("avrora").unwrap();
    let budget = Budget::with_max_steps(1);
    let err = engine.try_analyze(&w.program, &budget).unwrap_err();
    assert_eq!(err.stage(), "budget");
    assert_eq!(err.exit_code(), 18);
}

/// The step budget is polled inside detect's candidate loop, not only at
/// stage entries. On avrora the OPA solver polls 4 × 256 steps and the
/// loop one step per candidate (11 of them), so a ceiling of 1029 passes
/// PTA and every entry check and trips mid-loop.
#[test]
fn step_budget_trips_inside_the_detect_candidate_loop() {
    let engine = O2Builder::new().build();
    let w = o2_workloads::workload_by_name("avrora").unwrap();
    let err = engine
        .try_analyze(&w.program, &Budget::with_max_steps(1029))
        .unwrap_err();
    assert_eq!(err.stage(), "budget");
    assert!(err.to_string().contains("detect candidate loop"), "{err}");
}

// ---------------------------------------------------------------------
// Batch: failing entries become corpus error records, deterministically.
// ---------------------------------------------------------------------

fn mixed_entries() -> Vec<BatchEntry> {
    let mut entries: Vec<BatchEntry> = ["avrora", "realbug:ZooKeeper"]
        .iter()
        .map(|spec| {
            let w = o2_workloads::workload_by_name(spec).unwrap();
            BatchEntry {
                name: w.name,
                program: Ok(w.program),
            }
        })
        .collect();
    entries.push(BatchEntry {
        name: "broken-fixture".to_string(),
        program: Err(o2_ir::parser::parse(&fixture("broken.o2"))
            .map_err(O2Error::from)
            .unwrap_err()),
    });
    entries.push(BatchEntry {
        name: "missing-workload".to_string(),
        program: Err(O2Error::Resolve("unknown workload \"nope\"".to_string())),
    });
    entries
}

#[test]
fn batch_with_failing_entries_keeps_going_and_stays_deterministic() {
    let engine = O2Builder::new().build();
    let baseline = run_batch(&engine, &mixed_entries(), 1);
    assert_eq!(baseline.error_count(), 2);
    assert_eq!(
        baseline.programs.len(),
        4,
        "failed entries still appear in the report"
    );
    // The merged JSON records each failure as a stage-tagged object in
    // the same sorted programs array as the successes.
    assert!(baseline.json.contains("\"name\": \"broken-fixture\""));
    assert!(baseline.json.contains("\"stage\": \"parse\""));
    assert!(baseline.json.contains("\"stage\": \"resolve\""));
    assert!(baseline.sarif.contains("o2/analysis-error"));
    // Summary accounts for the failures in human-readable form.
    let summary = baseline.summary();
    assert!(summary.contains("error at stage parse"), "{summary}");
    assert!(summary.contains("2 errors"), "{summary}");
    // first_error follows name order: "broken-fixture" < "missing-workload".
    assert_eq!(baseline.first_error().unwrap().stage(), "parse");
    // Byte-identical at every worker count.
    for workers in [2usize, 4] {
        let run = run_batch(&engine, &mixed_entries(), workers);
        assert_eq!(baseline.json, run.json, "workers={workers}");
        assert_eq!(baseline.sarif, run.sarif, "workers={workers}");
    }
}

#[test]
fn batch_errors_do_not_perturb_success_entries() {
    let engine = O2Builder::new().build();
    let clean: Vec<BatchEntry> = mixed_entries()
        .into_iter()
        .filter(|e| e.program.is_ok())
        .collect();
    let clean_run = run_batch(&engine, &clean, 1);
    let mixed_run = run_batch(&engine, &mixed_entries(), 1);
    // Every success line of the clean run appears verbatim in the mixed
    // run's JSON (the error entries only add objects, never change them).
    for line in clean_run.json.lines().filter(|l| l.contains("\"report\"")) {
        let body = line.trim_end_matches(','); // sort order may change commas
        assert!(
            mixed_run.json.contains(body),
            "success entry changed by error entries: {body}"
        );
    }
}

#[test]
fn manifest_with_unreadable_file_yields_io_error_entry() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("errors_manifest");
    std::fs::create_dir_all(&dir).unwrap();
    let entries = parse_manifest("ghost = does/not/exist.o2\n", &dir).unwrap();
    assert_eq!(entries.len(), 1);
    let err = entries[0].program.as_ref().unwrap_err();
    assert_eq!(err.stage(), "io");

    // A broken file parses into a parse-stage entry instead.
    std::fs::write(dir.join("bad.o2"), fixture("broken.o2")).unwrap();
    let entries = parse_manifest("bad = bad.o2\n", &dir).unwrap();
    assert_eq!(entries[0].program.as_ref().unwrap_err().stage(), "parse");
}

/// A manifest file that parses but fails validation becomes the same
/// `resolve` error entry the CLI exits with (code 11), not an analyzed
/// program.
#[test]
fn manifest_file_failing_validation_yields_resolve_error_entry() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("errors_validate");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("t.o2"), fixture("unpaired_wait.o2")).unwrap();
    let entries = parse_manifest("t = t.o2\n", &dir).unwrap();
    let err = entries[0].program.as_ref().unwrap_err();
    assert_eq!(err.stage(), "resolve");
    assert_eq!(err.exit_code(), 11);
    assert!(
        err.to_string()
            .contains("wait without holding its paired lock"),
        "{err}"
    );
    let report = run_batch(&O2Builder::new().build(), &entries, 1);
    assert_eq!(report.error_count(), 1);
    assert!(
        report.json.contains("\"stage\": \"resolve\""),
        "{}",
        report.json
    );
}

// ---------------------------------------------------------------------
// The wire protocol.
// ---------------------------------------------------------------------

#[test]
fn wire_errors_are_stage_tagged_and_the_daemon_keeps_serving() {
    let state = Arc::new(ServeState::new(O2Builder::new().build()));
    let server = spawn("127.0.0.1:0", state, ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Broken inline source → parse stage.
    let src = o2_ir::json_escape(&fixture("broken.o2"));
    let map = client
        .request(&format!("{{\"op\":\"analyze\",\"source\":\"{src}\"}}"))
        .unwrap();
    assert_eq!(map["ok"].as_bool(), Some(false));
    assert_eq!(map["stage"].as_str(), Some("parse"));

    // Unknown workload → resolve stage.
    let map = client
        .request("{\"op\":\"analyze\",\"workload\":\"no-such-workload\"}")
        .unwrap();
    assert_eq!(map["ok"].as_bool(), Some(false));
    assert_eq!(map["stage"].as_str(), Some("resolve"));

    // deadline_ms 0 → timeout stage, even though nothing was cached yet.
    let map = client
        .request("{\"op\":\"analyze\",\"workload\":\"avrora\",\"deadline_ms\":0}")
        .unwrap();
    assert_eq!(map["ok"].as_bool(), Some(false));
    assert_eq!(map["stage"].as_str(), Some("timeout"));

    // The worker went back to the pool: real work still completes on
    // the same connection, and a warm repeat of the timed-out workload
    // proves the timeout left no partial cache entry behind.
    let map = client
        .request("{\"op\":\"analyze\",\"workload\":\"avrora\"}")
        .unwrap();
    assert_eq!(map["ok"].as_bool(), Some(true));

    // And a *second* zero-deadline request still times out even now
    // that the report is cached: admission is checked before the cache.
    let map = client
        .request("{\"op\":\"analyze\",\"workload\":\"avrora\",\"deadline_ms\":0}")
        .unwrap();
    assert_eq!(map["stage"].as_str(), Some("timeout"));

    // A generous deadline behaves exactly like no deadline.
    let map = client
        .request("{\"op\":\"analyze\",\"workload\":\"avrora\",\"deadline_ms\":60000}")
        .unwrap();
    assert_eq!(map["ok"].as_bool(), Some(true));
    assert_eq!(map["digest_hit"].as_bool(), Some(true));

    let stats = server.state().stats();
    assert_eq!(stats.timeouts, 2, "both zero-deadline requests counted");
    assert_eq!(stats.panics, 0);
    server.shutdown().unwrap();
}

#[test]
fn diff_requests_honor_deadlines_too() {
    let state = Arc::new(ServeState::new(O2Builder::new().build()));
    let server = spawn("127.0.0.1:0", state, ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let map = client
        .request(
            "{\"op\":\"diff-analyze\",\"workload\":\"realbug:ZooKeeper\",\
             \"edit\":1,\"deadline_ms\":0}",
        )
        .unwrap();
    assert_eq!(map["ok"].as_bool(), Some(false));
    assert_eq!(map["stage"].as_str(), Some("timeout"));
    let map = client
        .request("{\"op\":\"diff-analyze\",\"workload\":\"realbug:ZooKeeper\",\"edit\":1}")
        .unwrap();
    assert_eq!(map["ok"].as_bool(), Some(true), "daemon still serves diffs");
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------
// Success-path stability: the error plane costs zero bytes when clean.
// ---------------------------------------------------------------------

#[test]
fn clean_corpus_bytes_are_unchanged_by_the_error_plane() {
    let engine = O2Builder::new().build();
    let w = o2_workloads::workload_by_name("avrora").unwrap();
    let report = engine.analyze(&w.program);
    let pipeline = report.run_pipeline(&w.program);
    let entries = [("avrora", &pipeline, &w.program)];
    // With no failed entry the JSON document is the solo report wrapped
    // in its name entry, and nothing else.
    assert_eq!(
        o2_passes::corpus_json_with_errors(&entries, &[]),
        format!(
            "{{\n  \"programs\": [\n    {{\"name\": \"avrora\", \"report\": {}}}\n  ]\n}}\n",
            pipeline.to_json(&w.program).trim_end()
        )
    );
    // The SARIF document carries the solo results and no trace of the
    // error rule or an error stage.
    let sarif = o2_passes::corpus_sarif_with_errors(&entries, &[]);
    assert!(!sarif.contains("o2/analysis-error") && !sarif.contains("\"stage\""));
    assert_eq!(
        sarif.matches("\"ruleId\"").count(),
        pipeline.to_sarif(&w.program).matches("\"ruleId\"").count()
    );
}
