//! # o2-bench — the evaluation harness
//!
//! Regenerates every table of the paper's evaluation section on the
//! synthetic benchmark suite. The `reproduce` binary prints the tables;
//! speed is measured by the separate `perfbench/` package.
//!
//! Absolute numbers differ from the paper (the substrate is a synthetic
//! IR, not DaCapo-on-HotSpot or LLVM-compiled C), but the *shape* of every
//! table is reproduced: which analysis wins, by roughly what factor, and
//! where the timeouts fall. See `EXPERIMENTS.md` at the workspace root.

#![warn(missing_docs)]

use o2::prelude::*;
use o2_workloads::presets::{Group, Preset};
use std::fmt::Write as _;
use std::time::Duration;

pub mod tables;

/// The outcome of running one (program, policy) cell of a table.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Context policy used.
    pub policy: Policy,
    /// Pointer-analysis wall time.
    pub pta_time: Duration,
    /// Race-detection wall time (detection only).
    pub detect_time: Duration,
    /// End-to-end wall time.
    pub total_time: Duration,
    /// Origins discovered.
    pub origins: usize,
    /// Races reported.
    pub races: usize,
    /// OSA shared accesses.
    pub shared_accesses: usize,
    /// OSA shared objects.
    pub shared_objects: usize,
    /// PTA statistics.
    pub stats: o2_pta::PtaStats,
    /// `true` if any stage hit the budget.
    pub timed_out: bool,
    /// `true` if the pointer analysis specifically hit the budget.
    pub pta_timed_out: bool,
}

/// Runs the full pipeline under `policy` with a per-stage `budget`.
pub fn run_policy(program: &Program, policy: Policy, budget: Duration) -> RunOutcome {
    let analyzer = O2Builder::new()
        .policy(policy)
        .pta_timeout(budget)
        .detect_timeout(budget)
        .build();
    let report = analyzer.analyze(program);
    RunOutcome {
        policy,
        pta_time: report.timings.pta,
        detect_time: report.timings.detect,
        total_time: report.timings.total,
        origins: report.num_origins(),
        races: report.num_races(),
        shared_accesses: report.osa.num_shared_accesses(),
        shared_objects: report.osa.num_shared_objects(),
        stats: report.pta.stats,
        timed_out: report.timed_out(),
        pta_timed_out: report.pta.timed_out,
    }
}

/// Formats a duration cell, or the `>budget` marker used for timeouts
/// (the harness analogue of the paper's ">4h").
pub fn fmt_time(outcome: &RunOutcome, budget: Duration) -> String {
    if outcome.timed_out {
        format!(">{}s", budget.as_secs())
    } else {
        fmt_dur(outcome.total_time)
    }
}

/// Human-friendly duration formatting.
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs() >= 1 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{}ms", d.as_millis())
    } else {
        format!("{}µs", d.as_micros())
    }
}

/// Formats a count cell, replacing it with `-` on timeout.
pub fn fmt_count(n: usize, timed_out: bool) -> String {
    if timed_out {
        "-".to_string()
    } else {
        n.to_string()
    }
}

/// Renders a markdown-style row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(10);
        let _ = write!(out, "{c:>w$} ");
    }
    out.push('\n');
    out
}

/// Filters presets by group.
pub fn presets_of(group: Group) -> Vec<Preset> {
    o2_workloads::all_presets()
        .into_iter()
        .filter(|p| p.group == group)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_policy_produces_outcome() {
        let p = o2_workloads::preset_by_name("xalan").unwrap().generate();
        let o = run_policy(&p.program, Policy::origin1(), Duration::from_secs(5));
        assert!(!o.timed_out);
        assert!(o.origins >= 3);
        assert!(o.stats.num_pointers > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_dur(Duration::from_millis(1500)), "1.50s");
        assert_eq!(fmt_dur(Duration::from_millis(20)), "20ms");
        assert_eq!(fmt_count(7, false), "7");
        assert_eq!(fmt_count(7, true), "-");
    }
}
