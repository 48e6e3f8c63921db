//! # o2 — static race detection with origins
//!
//! The facade crate of the O2 reproduction (*"When Threads Meet Events:
//! Efficient and Precise Static Race Detection with Origins"*, PLDI 2021).
//! It wires the full pipeline:
//!
//! 1. **OPA** — origin-sensitive pointer analysis ([`o2_pta`]),
//! 2. **OSA** — origin-sharing analysis ([`o2_analysis`]),
//! 3. **SHB** — static happens-before graph construction ([`o2_shb`]),
//! 4. **race detection** with the §4.1 optimizations ([`o2_detect`]).
//!
//! ```
//! use o2::prelude::*;
//!
//! let program = o2_ir::parser::parse(r#"
//!     class S { field data; }
//!     class W impl Runnable {
//!         field s;
//!         method <init>(s) { this.s = s; }
//!         method run() { s = this.s; s.data = s; }
//!     }
//!     class Main {
//!         static method main() {
//!             s = new S();
//!             w = new W(s);
//!             w.start();
//!             x = s.data;
//!         }
//!     }
//! "#).unwrap();
//! let report = O2Builder::new().build().analyze(&program);
//! assert_eq!(report.races.races.len(), 1);
//! println!("{}", report.summary());
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod incremental;
pub mod serve;

pub use batch::{
    parse_manifest, run_batch, run_batch_with_db, BatchEntry, BatchReport, ProgramOutcome,
};
pub use incremental::{render_reports, Format, IncrStats};
pub use serve::{Client, ServeOptions, ServerHandle};

use o2_analysis::{run_osa_bounded, OsaResult};
use o2_detect::{DetectConfig, RaceReport};
use o2_ir::program::Program;
use o2_ir::{Budget, O2Error, ProgramCtx, ProgramId};
use o2_pta::{Policy, PtaConfig, PtaResult};
use o2_shb::{build_shb, ShbConfig, ShbGraph};
use std::time::{Duration, Instant};

/// Re-exports of the most commonly used items across the workspace.
pub mod prelude {
    pub use crate::{peak_rss_bytes, AnalysisReport, IncrStats, O2Builder, Timings, O2};
    pub use o2_analysis::{MemKey, OsaResult};
    pub use o2_db::AnalysisDb;
    pub use o2_detect::{
        DeadlockReport, DetectConfig, OversyncReport, PruneStats, Race, RaceReport,
    };
    pub use o2_ir::{Budget, EntryPointConfig, O2Error, OriginKind, Program};
    pub use o2_passes::{PipelineReport, Tier, TriagedRace};
    pub use o2_pta::{Policy, PtaConfig, PtaResult};
    pub use o2_shb::{ShbConfig, ShbGraph};
}

/// Per-stage wall-clock timings of one end-to-end run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timings {
    /// Pointer analysis.
    pub pta: Duration,
    /// Origin-sharing analysis.
    pub osa: Duration,
    /// SHB construction.
    pub shb: Duration,
    /// Race detection.
    pub detect: Duration,
    /// End-to-end total.
    pub total: Duration,
}

/// The complete result of one end-to-end analysis.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The pointer-analysis result (points-to sets, call graph, origins).
    pub pta: PtaResult,
    /// The origin-sharing result.
    pub osa: OsaResult,
    /// The SHB graph.
    pub shb: ShbGraph,
    /// The race report.
    pub races: RaceReport,
    /// Per-stage timings.
    pub timings: Timings,
}

impl AnalysisReport {
    /// `true` if any stage hit its budget before completion.
    pub fn timed_out(&self) -> bool {
        self.pta.timed_out
            || self.osa.truncated
            || self.races.timed_out
            || self.shb.traces.iter().any(|t| t.truncated)
    }

    /// Number of origins discovered (`#O` of Table 5).
    pub fn num_origins(&self) -> usize {
        self.pta.num_origins()
    }

    /// Number of reported races.
    pub fn num_races(&self) -> usize {
        self.races.races.len()
    }

    /// The program namespace this report's dense ids belong to
    /// ([`ProgramId::SOLO`] unless the report came from a batch run).
    pub fn program_id(&self) -> ProgramId {
        self.pta.program_id
    }

    /// Runs the deadlock analysis (§3's "beyond race detection" client)
    /// over this report's SHB graph.
    pub fn detect_deadlocks(&self, program: &Program) -> o2_detect::DeadlockReport {
        o2_detect::detect_deadlocks(program, &self.shb)
    }

    /// Runs the over-synchronization analysis over this report's OSA and
    /// SHB results.
    pub fn find_oversync(&self, program: &Program) -> o2_detect::OversyncReport {
        o2_detect::find_oversync(program, &self.osa, &self.shb)
    }

    /// Runs the post-detection precision pipeline over this report and
    /// returns the triaged result: [`o2_passes::run_pipeline`], five
    /// function calls in a fixed order (suppression, ownership pruning,
    /// guarded-by inference, deadlock and over-sync checks).
    pub fn run_pipeline(&self, program: &Program) -> o2_passes::PipelineReport {
        // Rebuild a context in this report's own namespace so the
        // pipeline's ProgramCtx agreement asserts hold for batch reports.
        let ctx = ProgramCtx::new(self.program_id(), "", program);
        o2_passes::run_pipeline(&ctx, &self.pta, &self.osa, &self.shb, &self.races)
    }

    /// A one-paragraph textual summary (policy, origins, sharing, races).
    pub fn summary(&self) -> String {
        format!(
            "policy={} origins={} mis={} pointers={} objects={} edges={} \
             shared_accesses={} shared_objects={} races={} \
             (pta {:?}, osa {:?}, shb {:?}, detect {:?})",
            self.pta.policy,
            self.num_origins(),
            self.pta.stats.num_mis,
            self.pta.stats.num_pointers,
            self.pta.stats.num_objects,
            self.pta.stats.num_edges,
            self.osa.num_shared_accesses(),
            self.osa.num_shared_objects(),
            self.num_races(),
            self.timings.pta,
            self.timings.osa,
            self.timings.shb,
            self.timings.detect,
        )
    }
}

/// Peak resident-set size of the current process in bytes (`VmHWM` from
/// `/proc/self/status`). Returns `None` on platforms without procfs (or
/// when the field is missing/unparsable), so callers can distinguish
/// "unavailable" from a genuinely small peak.
pub fn peak_rss_bytes() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Parses `src` with the C frontend (`c`) or the textual one, then
/// validates the program — the one loader behind the CLI, `o2 batch`
/// manifest files and inline `o2 serve` sources. A syntax error is a
/// `parse` error with source position; a program that parses but fails
/// [`o2_ir::validate::validate`] is a `resolve` error.
///
/// # Errors
///
/// [`O2Error::Parse`] or [`O2Error::Resolve`] as above.
pub fn parse_program(src: &str, c: bool) -> Result<Program, O2Error> {
    let program = if c {
        o2_ir::cfront::parse_c(src)
    } else {
        o2_ir::parser::parse(src)
    }
    .map_err(O2Error::from)?;
    if let Some(issue) = o2_ir::validate::validate(&program).first() {
        return Err(O2Error::Resolve(format!("invalid program: {issue}")));
    }
    Ok(program)
}

/// Builder for an [`O2`] analyzer (C-BUILDER).
///
/// Defaults to the paper's configuration: 1-origin OPA, the event
/// dispatcher lock, and all three detection optimizations.
#[derive(Clone, Debug, Default)]
pub struct O2Builder {
    pta: PtaConfig,
    shb: ShbConfig,
    detect: DetectConfig,
}

impl O2Builder {
    /// Creates a builder with the paper's default configuration.
    pub fn new() -> Self {
        O2Builder::default()
    }

    /// Sets the pointer-analysis context policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.pta.policy = policy;
        self
    }

    /// Sets a wall-clock budget for the pointer analysis.
    pub fn pta_timeout(mut self, timeout: Duration) -> Self {
        self.pta.timeout = Some(timeout);
        self
    }

    /// Sets a wall-clock budget for race detection.
    pub fn detect_timeout(mut self, timeout: Duration) -> Self {
        self.detect.timeout = Some(timeout);
        self
    }

    /// Replaces the SHB configuration.
    pub fn shb_config(mut self, cfg: ShbConfig) -> Self {
        self.shb = cfg;
        self
    }

    /// Replaces the detection configuration (e.g. [`DetectConfig::naive`]).
    pub fn detect_config(mut self, cfg: DetectConfig) -> Self {
        self.detect = cfg;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> O2 {
        O2 {
            pta: self.pta,
            shb: self.shb,
            detect: self.detect,
        }
    }
}

/// The configured end-to-end analyzer.
#[derive(Clone, Debug)]
pub struct O2 {
    pta: PtaConfig,
    shb: ShbConfig,
    detect: DetectConfig,
}

impl Default for O2 {
    fn default() -> Self {
        O2Builder::new().build()
    }
}

impl O2 {
    /// Runs the full pipeline on `program` in the solo namespace.
    pub fn analyze(&self, program: &Program) -> AnalysisReport {
        self.analyze_ctx(&ProgramCtx::solo(program))
    }

    /// Runs the full pipeline under an explicit [`ProgramCtx`]. All dense
    /// id tables of the resulting report (points-to arena, `LocTable`,
    /// SHB graph) are namespaced to `ctx.id()`; two contexts can run
    /// concurrently from different threads because nothing here touches
    /// shared mutable state.
    pub fn analyze_ctx(&self, ctx: &ProgramCtx<'_>) -> AnalysisReport {
        self.try_analyze_ctx(ctx, &Budget::unlimited())
            .expect("unlimited budget cannot trip")
    }

    /// Runs the full pipeline under `ctx` with a request-scoped [`Budget`]
    /// checked at every stage boundary (and polled inside the OPA solver
    /// loop and the detect candidate loop). With an unlimited budget
    /// this is exactly [`Self::analyze_ctx`]; with a deadline or step
    /// ceiling, tripping the budget aborts the request with
    /// [`O2Error::Timeout`] / [`O2Error::Budget`] instead of returning a
    /// truncated report.
    ///
    /// # Errors
    ///
    /// The budget's typed error when it trips at any checkpoint.
    pub fn try_analyze_ctx(
        &self,
        ctx: &ProgramCtx<'_>,
        budget: &Budget,
    ) -> Result<AnalysisReport, O2Error> {
        let t0 = Instant::now();
        let pta = o2_pta::analyze_budgeted(ctx, &self.pta, budget)?;
        let t_pta = pta.duration;
        // The pointer-analysis stage budget also bounds the OSA scan: deep
        // object-sensitive runs can explode the method-instance count. If
        // the pointer analysis already blew its budget, the run is a
        // timeout regardless — give the remaining stages a token budget so
        // the report comes back promptly.
        let down_budget = if pta.timed_out {
            Some(Duration::from_millis(500))
        } else {
            self.pta.timeout
        };
        budget.check("osa entry")?;
        let mut osa = run_osa_bounded(ctx, &pta, down_budget);
        let t_osa = osa.duration;
        budget.check("shb entry")?;
        let shb_cfg = ShbConfig {
            timeout: self.shb.timeout.or(down_budget),
            ..self.shb.clone()
        };
        // SHB interns into OSA's location table so every downstream
        // consumer shares one dense id space.
        let shb = build_shb(ctx, &pta, &shb_cfg, &mut osa.locs);
        let t_shb = shb.duration;
        let detect_cfg = if pta.timed_out {
            DetectConfig {
                timeout: Some(Duration::from_millis(500)),
                ..self.detect.clone()
            }
        } else {
            DetectConfig {
                // A stage budget set for the pointer analysis also caps
                // detection unless the caller chose one explicitly.
                timeout: self.detect.timeout.or(self.pta.timeout),
                ..self.detect.clone()
            }
        };
        let races = o2_detect::detect_budgeted(ctx, &pta, &osa, &shb, &detect_cfg, budget)?;
        let t_detect = races.duration;
        Ok(AnalysisReport {
            pta,
            osa,
            shb,
            races,
            timings: Timings {
                pta: t_pta,
                osa: t_osa,
                shb: t_shb,
                detect: t_detect,
                total: t0.elapsed(),
            },
        })
    }

    /// Runs the full pipeline on `program` in the solo namespace with a
    /// request-scoped [`Budget`] (see [`Self::try_analyze_ctx`]).
    ///
    /// # Errors
    ///
    /// The budget's typed error when it trips at any checkpoint.
    pub fn try_analyze(
        &self,
        program: &Program,
        budget: &Budget,
    ) -> Result<AnalysisReport, O2Error> {
        self.try_analyze_ctx(&ProgramCtx::solo(program), budget)
    }

    /// Parses `src` with the textual frontend and analyzes it.
    ///
    /// # Errors
    ///
    /// Returns the parser's error on malformed source.
    pub fn analyze_source(&self, src: &str) -> Result<AnalysisReport, o2_ir::parser::ParseError> {
        let program = o2_ir::parser::parse(src)?;
        Ok(self.analyze(&program))
    }

    /// Parses `src` and analyzes it under `budget`, with every failure —
    /// parse errors included — surfaced as a stage-tagged [`O2Error`].
    ///
    /// # Errors
    ///
    /// [`O2Error::Parse`] (with source position) on malformed source, or
    /// the budget's typed error when it trips.
    pub fn try_analyze_source(
        &self,
        src: &str,
        budget: &Budget,
    ) -> Result<AnalysisReport, O2Error> {
        let program = o2_ir::parser::parse(src).map_err(O2Error::from)?;
        self.try_analyze(&program, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RACY: &str = r#"
        class S { field data; }
        class W impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; }
        }
        class Main {
            static method main() {
                s = new S();
                w = new W(s);
                w.start();
                x = s.data;
            }
        }
    "#;

    #[test]
    fn end_to_end_pipeline() {
        let report = O2Builder::new().build().analyze_source(RACY).unwrap();
        assert_eq!(report.num_races(), 1);
        assert_eq!(report.num_origins(), 2);
        assert!(!report.timed_out());
        let s = report.summary();
        assert!(s.contains("races=1"), "{s}");
    }

    #[test]
    fn policies_are_configurable() {
        for policy in [Policy::insensitive(), Policy::cfa1(), Policy::origin1()] {
            let report = O2Builder::new()
                .policy(policy)
                .build()
                .analyze_source(RACY)
                .unwrap();
            assert_eq!(report.pta.policy, policy);
            assert_eq!(report.num_races(), 1, "{policy}");
        }
    }

    #[test]
    fn naive_engine_is_available() {
        let report = O2Builder::new()
            .detect_config(DetectConfig::naive())
            .build()
            .analyze_source(RACY)
            .unwrap();
        assert_eq!(report.num_races(), 1);
    }

    #[test]
    fn parse_errors_propagate() {
        let err = O2::default().analyze_source("class {").unwrap_err();
        assert!(err.message.contains("identifier"), "{err}");
    }
}
