//! The PR 8 whole-corpus (`o2 batch`) harness: one fixed 8-program
//! corpus spanning all four workload registries, analyzed end-to-end at
//! 1, 2, and 4 workers, written to `BENCH_pr8.json`.
//!
//! One row per worker count:
//!
//! - `cold_ms` — best-of-N wall time of the whole batch, gated by
//!   `bench --regress` against the committed baseline like the other
//!   groups (the row name is `batch-wN`).
//! - `identical` — the merged JSON and SARIF reports byte-match the
//!   1-worker run (the batch determinism contract).
//!
//! The report records `host_parallelism`; worker counts above it time
//! oversubscription, not speedup, and the JSON says so in its notes.

use crate::fmt_dur;
use o2::{run_batch, BatchEntry, O2Builder};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The fixed PR 8 corpus: Table 5 presets, a mega preset, and real-bug
/// models from both frontends.
pub const CORPUS: [&str; 8] = [
    "avrora",
    "luindex",
    "lusearch",
    "xalan",
    "mega-smoke",
    "realbug:ZooKeeper",
    "realbug:Tomcat",
    "realbug-c:Memcached",
];

/// Options for the PR 8 harness run.
#[derive(Clone, Debug)]
pub struct Pr8Options {
    /// Repetitions per timed cell (best-of-N).
    pub iters: usize,
    /// Worker counts to time.
    pub workers: Vec<usize>,
    /// Where to write the JSON report; `None` skips the write.
    pub out_path: Option<String>,
}

impl Default for Pr8Options {
    fn default() -> Self {
        Pr8Options {
            iters: 3,
            workers: vec![1, 2, 4],
            out_path: Some("BENCH_pr8.json".to_string()),
        }
    }
}

/// One worker count's row.
#[derive(Clone, Debug)]
pub struct BatchRow {
    /// Worker threads of this run.
    pub workers: usize,
    /// Best-of-N wall time of the whole batch.
    pub cold: Duration,
    /// Total surviving races (must agree across rows).
    pub races: usize,
    /// Merged JSON and SARIF byte-match the 1-worker run.
    pub identical: bool,
}

/// The full harness result.
#[derive(Clone, Debug)]
pub struct Pr8Report {
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: usize,
    /// Programs in the corpus, in manifest order.
    pub corpus: Vec<String>,
    /// One row per worker count.
    pub rows: Vec<BatchRow>,
}

fn corpus_entries() -> Vec<BatchEntry> {
    CORPUS
        .iter()
        .map(|spec| {
            let w = o2_workloads::workload_by_name(spec).expect("corpus spec resolves");
            BatchEntry {
                name: w.name,
                program: Ok(w.program),
            }
        })
        .collect()
}

/// Runs the full harness and (optionally) writes `BENCH_pr8.json`.
pub fn run(opts: &Pr8Options) -> Pr8Report {
    let engine = O2Builder::new().build();
    let entries = corpus_entries();
    let mut baseline: Option<(String, String)> = None;
    let mut rows = Vec::new();
    for &workers in &opts.workers {
        let mut cold = Duration::MAX;
        let mut best = None;
        for _ in 0..opts.iters.max(1) {
            let t0 = Instant::now();
            let report = run_batch(&engine, &entries, workers);
            cold = cold.min(t0.elapsed());
            best = Some(report);
        }
        let report = best.expect("at least one iteration");
        let identical = match &baseline {
            None => {
                baseline = Some((report.json.clone(), report.sarif.clone()));
                true
            }
            Some((json, sarif)) => *json == report.json && *sarif == report.sarif,
        };
        rows.push(BatchRow {
            workers,
            cold,
            races: report.total_races(),
            identical,
        });
    }
    let report = Pr8Report {
        host_parallelism: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        corpus: CORPUS.iter().map(|s| s.to_string()).collect(),
        rows,
    };
    if let Some(path) = &opts.out_path {
        std::fs::write(path, report.to_json()).expect("write BENCH_pr8.json");
    }
    report
}

impl Pr8Report {
    /// `true` when every row byte-matched the 1-worker reports.
    pub fn all_pass(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Serializes the report (hand-rolled JSON, stable schema; one row
    /// per line so the `--regress` gate can read `cold_ms`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"host_parallelism\": {},", self.host_parallelism);
        let corpus: Vec<String> = self.corpus.iter().map(|c| format!("\"{c}\"")).collect();
        let _ = writeln!(out, "  \"corpus\": [{}],", corpus.join(", "));
        out.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"workload\": \"batch-w{}\", \"workers\": {}, \"cold_ms\": {:.3}, \
                 \"races\": {}, \"identical\": {}}}{}",
                r.workers,
                r.workers,
                r.cold.as_secs_f64() * 1e3,
                r.races,
                r.identical,
                if i + 1 < self.rows.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "  ],\n  \"all_pass\": {},", self.all_pass());
        let _ = writeln!(
            out,
            "  \"notes\": [\n    \"merged reports are byte-identical across worker counts; \
             identical records it\",\n    \"worker counts above host_parallelism ({}) time \
             oversubscription, not parallel speedup\"\n  ]\n}}",
            self.host_parallelism
        );
        out
    }

    /// Renders the human-readable summary printed by the harness.
    pub fn render(&self) -> String {
        let mut out = String::from("## PR 8 whole-corpus batch\n\n");
        let _ = writeln!(
            out,
            "host_parallelism: {} | corpus: {} programs\n",
            self.host_parallelism,
            self.corpus.len()
        );
        let _ = writeln!(
            out,
            "{:>10} {:>10} {:>6} {:>10}",
            "workers", "cold", "races", "identical"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>10} {:>10} {:>6} {:>10}",
                r.workers,
                fmt_dur(r.cold),
                r.races,
                r.identical,
            );
        }
        let _ = writeln!(out, "\nall_pass: {}", self.all_pass());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_stays_deterministic() {
        let report = run(&Pr8Options {
            iters: 1,
            workers: vec![1, 2],
            out_path: None,
        });
        assert_eq!(report.rows.len(), 2);
        assert!(report.all_pass(), "{}", report.render());
        assert_eq!(report.rows[0].races, report.rows[1].races);
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"batch-w1\""), "{json}");
        assert!(json.contains("cold_ms"), "{json}");
        // The regress gate must see one cold row per worker count.
        assert_eq!(crate::pr6::cold_rows(&json).len(), 2, "{json}");
    }
}
