//! The PR 3 incremental harness: cold vs warm analysis wall time after a
//! single-function edit, written to `BENCH_pr3.json`.
//!
//! Per preset: generate the base program, apply the deterministic
//! [`o2_workloads::single_function_edit`], then time (a) a cold
//! `analyze` of the edited program and (b) `analyze_with_db` of the
//! edited program against the base program's database image. An edited
//! program misses the whole-program digest cache, so (b) is the cold
//! pipeline plus the database commit.
//!
//! Std-only, like the PR 1 and PR 2 harnesses. The JSON schema is
//! stable:
//!
//! ```json
//! { "presets": [ { "preset", "edited", "cold_ms", "warm_ms",
//!                  "pairs_cold" } ] }
//! ```

use crate::fmt_dur;
use o2::prelude::*;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Options for the PR 3 harness run.
#[derive(Clone, Debug)]
pub struct Pr3Options {
    /// Presets run cold and warm.
    pub presets: Vec<String>,
    /// Repetitions per timed cell (best-of-N).
    pub iters: usize,
    /// Where to write the JSON report; `None` skips the write.
    pub out_path: Option<String>,
}

impl Default for Pr3Options {
    fn default() -> Self {
        Pr3Options {
            presets: vec![
                "xalan".to_string(),
                "avrora".to_string(),
                "sunflow".to_string(),
                "zookeeper".to_string(),
                "k9mail".to_string(),
                "telegram".to_string(),
            ],
            iters: 3,
            out_path: Some("BENCH_pr3.json".to_string()),
        }
    }
}

/// One preset's cold-vs-warm comparison after a single-function edit.
#[derive(Clone, Debug)]
pub struct Pr3Row {
    /// Preset name.
    pub preset: String,
    /// Qualified name of the edited function.
    pub edited: String,
    /// Best-of-N wall time of the cold `analyze` on the edited program.
    pub cold: Duration,
    /// Best-of-N wall time of the warm `analyze_with_db` from the base db.
    pub warm: Duration,
    /// Candidate pairs the cold run examines.
    pub pairs_cold: u64,
}

/// The full harness result.
#[derive(Clone, Debug)]
pub struct Pr3Report {
    /// Per-preset rows.
    pub presets: Vec<Pr3Row>,
}

/// Runs one preset cold and warm and collects the counters.
pub fn preset_row(name: &str, iters: usize) -> Option<Pr3Row> {
    let w = o2_workloads::preset_by_name(name)?.generate();
    let (edited, edited_fn) = o2_workloads::single_function_edit(&w.program);
    let engine = O2Builder::new().build();

    let mut cold_report = engine.analyze(&edited);
    let mut cold = Duration::MAX;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        cold_report = engine.analyze(&edited);
        cold = cold.min(t0.elapsed());
    }

    // The base database is built once outside the timed region: the cost
    // being measured is the warm re-analysis, not the initial indexing.
    let base_db = {
        let mut db = AnalysisDb::new(engine.config_sig());
        engine.analyze_with_db(&w.program, &mut db);
        db.to_bytes()
    };
    let mut warm = Duration::MAX;
    for _ in 0..iters.max(1) {
        let mut db = AnalysisDb::from_bytes(&base_db).expect("base db roundtrips");
        let t0 = Instant::now();
        engine.analyze_with_db(&edited, &mut db);
        warm = warm.min(t0.elapsed());
    }

    Some(Pr3Row {
        preset: name.to_string(),
        edited: edited_fn,
        cold,
        warm,
        pairs_cold: cold_report.races.pairs_checked,
    })
}

/// Runs the full harness and (optionally) writes `BENCH_pr3.json`.
pub fn run(opts: &Pr3Options) -> Pr3Report {
    let mut presets = Vec::new();
    for name in &opts.presets {
        if let Some(row) = preset_row(name, opts.iters) {
            presets.push(row);
        }
    }
    let report = Pr3Report { presets };
    if let Some(path) = &opts.out_path {
        std::fs::write(path, report.to_json()).expect("write BENCH_pr3.json");
    }
    report
}

impl Pr3Report {
    /// Serializes the report (hand-rolled JSON, like the PR 1 harness).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"presets\": [\n");
        for (i, r) in self.presets.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"preset\": \"{}\", \"edited\": \"{}\", \
                 \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"pairs_cold\": {}}}{}",
                r.preset,
                r.edited,
                r.cold.as_secs_f64() * 1e3,
                r.warm.as_secs_f64() * 1e3,
                r.pairs_cold,
                if i + 1 < self.presets.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders the human-readable summary printed by the harness.
    pub fn render(&self) -> String {
        let mut out = String::from("## PR 3 incremental database (1-function edit)\n\n");
        let _ = writeln!(
            out,
            "{:>10} {:>18} {:>9} {:>9} {:>11}",
            "preset", "edited", "cold", "warm", "pairs_cold"
        );
        for r in &self.presets {
            let _ = writeln!(
                out,
                "{:>10} {:>18} {:>9} {:>9} {:>11}",
                r.preset,
                r.edited,
                fmt_dur(r.cold),
                fmt_dur(r.warm),
                r.pairs_cold,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_on_a_small_preset() {
        let opts = Pr3Options {
            presets: vec!["xalan".to_string()],
            iters: 1,
            out_path: None,
        };
        let report = run(&opts);
        assert_eq!(report.presets.len(), 1);
        let row = &report.presets[0];
        assert!(row.pairs_cold > 0, "the edited xalan has candidate pairs");
        let json = report.to_json();
        assert!(json.contains("\"cold_ms\""), "{json}");
        assert!(json.contains("\"edited\""), "{json}");
    }
}
