//! Post-detection precision pipeline (the paper's §7 precision claim as a
//! reusable pass framework).
//!
//! The race detector emits every SHB/lockset-surviving access pair as a
//! flat list. This crate adds the second phase that makes that list
//! usable: a [`PassManager`] runs a sequence of [`Pass`]es over a shared
//! read-only [`AnalysisCtx`] and a mutable [`PipelineState`], each pass
//! either *pruning* races it can prove impossible (ownership/publication
//! reasoning), *re-scoring* them (guarded-by inference, RacerD
//! agreement), or *attaching* companion reports (deadlocks,
//! over-synchronization). The result is a [`PipelineReport`] with a
//! stable `high`/`medium`/`low` confidence tier per race, a deterministic
//! ranking, and hand-rolled JSON / SARIF 2.1.0 serializations.
//!
//! ```
//! use o2_ir::parser::parse;
//! use o2_pta::{analyze, Policy, PtaConfig};
//! use o2_analysis::run_osa;
//! use o2_shb::{build_shb, ShbConfig};
//! use o2_detect::{detect, DetectConfig};
//! use o2_passes::{run_pipeline, Tier};
//!
//! let src = r#"
//!     class S { field f; }
//!     class W impl Runnable {
//!         field s;
//!         method <init>(s) { this.s = s; }
//!         method run() { x = this.s; x.f = x; }
//!     }
//!     class Main {
//!         static method main() {
//!             s = new S();
//!             w1 = new W(s); w1.start();
//!             w2 = new W(s); w2.start();
//!         }
//!     }
//! "#;
//! let program = parse(src).unwrap();
//! let pta = analyze(&o2_ir::ProgramCtx::solo(&program), &PtaConfig::with_policy(Policy::origin1()));
//! let mut osa = run_osa(&o2_ir::ProgramCtx::solo(&program), &pta);
//! let shb = build_shb(&o2_ir::ProgramCtx::solo(&program), &pta, &ShbConfig::default(), &mut osa.locs);
//! let races = detect(&o2_ir::ProgramCtx::solo(&program), &pta, &osa, &shb, &DetectConfig::o2());
//! let report = run_pipeline(&o2_ir::ProgramCtx::solo(&program), &pta, &osa, &shb, &races);
//! assert_eq!(report.races.len(), 1);
//! assert_eq!(report.races[0].tier, Tier::High);
//! ```

#![warn(missing_docs)]

pub mod agreement;
pub mod guards;
pub mod ownership;
pub mod reports;
pub mod sarif;
pub mod triage;

use o2_analysis::osa::OsaResult;
use o2_detect::{DeadlockReport, OversyncReport, RaceReport};
use o2_ir::program::Program;
use o2_ir::ProgramCtx;
use o2_pta::PtaResult;
use o2_shb::{LockTable, ShbGraph};
use std::time::{Duration, Instant};

pub use sarif::{corpus_sarif, corpus_sarif_with_errors};
pub use triage::{PrunedRace, Tier, TriagedRace};

/// The shared, immutable inputs every pass runs over: the program and the
/// three analysis results the detector consumed.
#[derive(Clone, Copy)]
pub struct AnalysisCtx<'a> {
    /// The analyzed program.
    pub program: &'a Program,
    /// Origin-sensitive pointer analysis result.
    pub pta: &'a PtaResult,
    /// Origin-sharing analysis result.
    pub osa: &'a OsaResult,
    /// The static happens-before graph (traces, edges, locksets).
    pub shb: &'a ShbGraph,
}

impl<'a> AnalysisCtx<'a> {
    /// The canonical lockset table (lives inside the SHB graph).
    pub fn locks(&self) -> &'a LockTable {
        &self.shb.locks
    }
}

/// Everything the passes read and mutate: the still-live triaged races
/// plus the companion reports attached along the way.
#[derive(Clone, Debug, Default)]
pub struct PipelineState {
    /// Candidate races still in the report, with their running scores.
    pub races: Vec<TriagedRace>,
    /// Races a pass proved impossible, with the pruning reason.
    pub pruned: Vec<PrunedRace>,
    /// Races matched by an `@suppress(race)` annotation.
    pub suppressed: Vec<TriagedRace>,
    /// Lock-order deadlock report (attached by the deadlock pass).
    pub deadlocks: Option<DeadlockReport>,
    /// Over-synchronization report (attached by the over-sync pass).
    pub oversync: Option<OversyncReport>,
}

/// Per-pass counters, rendered into the pipeline text and JSON. Keys are
/// static so reports stay deterministic.
pub type PassStats = Vec<(&'static str, u64)>;

/// One precision pass over the shared [`AnalysisCtx`].
pub trait Pass {
    /// Stable pass name used in reports and timings.
    fn name(&self) -> &'static str;
    /// Runs the pass, mutating `state`; returns its counters.
    fn run(&mut self, ctx: &AnalysisCtx<'_>, state: &mut PipelineState) -> PassStats;
}

/// Timing and counters of one executed pass.
#[derive(Clone, Debug)]
pub struct PassRun {
    /// The pass name.
    pub name: &'static str,
    /// Wall-clock duration of the pass.
    pub duration: Duration,
    /// The counters the pass reported.
    pub stats: PassStats,
}

/// Runs an ordered sequence of passes and assembles the final report.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty manager; add passes with [`Self::add`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The standard pipeline: suppression, ownership pruning, guarded-by
    /// inference, RacerD agreement, deadlocks, over-synchronization.
    pub fn standard() -> Self {
        let mut pm = Self::new();
        pm.add(Box::new(triage::SuppressionPass));
        pm.add(Box::new(ownership::OwnershipPass));
        pm.add(Box::new(guards::GuardedByPass));
        pm.add(Box::new(agreement::RacerdAgreementPass));
        pm.add(Box::new(reports::DeadlockPass));
        pm.add(Box::new(reports::OversyncPass));
        pm
    }

    /// Appends a pass to the sequence.
    pub fn add(&mut self, pass: Box<dyn Pass>) {
        self.passes.push(pass);
    }

    /// Seeds the pipeline state from a raw detector report, runs every
    /// pass in order with per-pass timing, and ranks the survivors.
    pub fn run(&mut self, ctx: &AnalysisCtx<'_>, races: &RaceReport) -> PipelineReport {
        let mut state = PipelineState {
            races: races.races.iter().map(TriagedRace::seed).collect(),
            ..Default::default()
        };
        let mut runs = Vec::new();
        for pass in &mut self.passes {
            let t0 = Instant::now();
            let stats = pass.run(ctx, &mut state);
            runs.push(PassRun {
                name: pass.name(),
                duration: t0.elapsed(),
                stats,
            });
        }
        triage::finalize(&mut state);
        PipelineReport {
            races: state.races,
            pruned: state.pruned,
            suppressed: state.suppressed,
            deadlocks: state.deadlocks,
            oversync: state.oversync,
            passes: runs,
        }
    }
}

/// The triaged output of the precision pipeline.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Surviving races, ranked: high tier first, then score descending,
    /// then location order (deterministic across runs and thread counts).
    pub races: Vec<TriagedRace>,
    /// Races proved impossible, with reasons.
    pub pruned: Vec<PrunedRace>,
    /// Races matched by `@suppress(race)` annotations.
    pub suppressed: Vec<TriagedRace>,
    /// Deadlock report, if the deadlock pass ran.
    pub deadlocks: Option<DeadlockReport>,
    /// Over-synchronization report, if that pass ran.
    pub oversync: Option<OversyncReport>,
    /// Per-pass timings and counters, in execution order.
    pub passes: Vec<PassRun>,
}

impl PipelineReport {
    /// Number of surviving races in `tier`.
    pub fn tier_count(&self, tier: Tier) -> usize {
        self.races.iter().filter(|r| r.tier == tier).count()
    }

    /// Serializes the deterministic part of the report as JSON (no
    /// durations, so the output is byte-stable across runs).
    pub fn to_json(&self, program: &Program) -> String {
        triage::report_to_json(self, program)
    }

    /// Serializes the report as SARIF 2.1.0 (hand-rolled, std-only).
    pub fn to_sarif(&self, program: &Program) -> String {
        sarif::to_sarif(self, program)
    }

    /// Renders a human-readable summary.
    pub fn render(&self, program: &Program) -> String {
        triage::render(self, program)
    }
}

/// Serializes a whole corpus as one JSON document: entries sorted by
/// program name, each carrying its full per-program report (the same
/// bytes [`PipelineReport::to_json`] emits, embedded verbatim). Like the
/// per-program serializers it contains no durations or scheduling
/// artifacts, so batch output is byte-stable across worker counts.
pub fn corpus_json(entries: &[(&str, &PipelineReport, &Program)]) -> String {
    corpus_json_with_errors(entries, &[])
}

/// [`corpus_json`] for a corpus where some programs failed: failed
/// entries appear in the same name-sorted `programs` array as
/// `{"name": ..., "error": {"stage": ..., "message": ...}}` objects.
/// With no errors the bytes are identical to [`corpus_json`], so a
/// clean corpus is unaffected by the error plane.
pub fn corpus_json_with_errors(
    entries: &[(&str, &PipelineReport, &Program)],
    errors: &[(&str, &o2_ir::O2Error)],
) -> String {
    let mut items: Vec<(&str, String)> = Vec::with_capacity(entries.len() + errors.len());
    for &(name, report, program) in entries {
        let mut s = String::from("    {\"name\": \"");
        s.push_str(&o2_ir::json_escape(name));
        s.push_str("\", \"report\": ");
        s.push_str(report.to_json(program).trim_end());
        s.push('}');
        items.push((name, s));
    }
    for &(name, err) in errors {
        let mut s = String::from("    {\"name\": \"");
        s.push_str(&o2_ir::json_escape(name));
        s.push_str("\", \"error\": {\"stage\": \"");
        s.push_str(err.stage());
        s.push_str("\", \"message\": \"");
        s.push_str(&o2_ir::json_escape(&err.to_string()));
        s.push_str("\"}}");
        items.push((name, s));
    }
    items.sort_by_key(|&(name, _)| name);
    let mut out = String::from("{\n  \"programs\": [\n");
    for (k, (_, s)) in items.iter().enumerate() {
        out.push_str(s);
        out.push_str(if k + 1 < items.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Convenience entry point: runs the standard pipeline over the usual
/// four analysis artifacts.
pub fn run_pipeline(
    pctx: &ProgramCtx<'_>,
    pta: &PtaResult,
    osa: &OsaResult,
    shb: &ShbGraph,
    races: &RaceReport,
) -> PipelineReport {
    debug_assert_eq!(
        pta.program_id,
        pctx.id(),
        "run_pipeline: PtaResult from a different ProgramCtx"
    );
    debug_assert_eq!(
        shb.program_id,
        pctx.id(),
        "run_pipeline: ShbGraph from a different ProgramCtx"
    );
    let ctx = AnalysisCtx {
        program: pctx.program(),
        pta,
        osa,
        shb,
    };
    PassManager::standard().run(&ctx, races)
}
