//! Post-detection precision pipeline (the paper's §7 precision claim).
//!
//! The race detector emits every SHB/lockset-surviving access pair as a
//! flat list. This crate adds the fixed follow-up that makes that list
//! usable: [`run_pipeline`] calls five passes in order over a shared
//! read-only [`AnalysisCtx`], each a plain function over the races under
//! construction that returns its [`PassStats`]. Suppression and ownership
//! *prune* races (annotations, ownership/publication reasoning),
//! guarded-by inference *re-scores* them, and the deadlock and
//! over-synchronization checks *attach* companion reports.
//! The result is a [`PipelineReport`] with a stable `high`/`medium`/`low`
//! confidence tier per race, a deterministic ranking, and hand-rolled
//! JSON / SARIF 2.1.0 serializations.
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

pub mod guards;
pub mod ownership;
pub mod sarif;
pub mod triage;

use o2_analysis::osa::OsaResult;
use o2_detect::{detect_deadlocks, find_oversync, DeadlockReport, OversyncReport, RaceReport};
use o2_ir::program::Program;
use o2_ir::ProgramCtx;
use o2_pta::PtaResult;
use o2_shb::{LockTable, ShbGraph};

pub use sarif::corpus_sarif_with_errors;
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

/// Per-pass counters, rendered into the pipeline text and JSON. Keys are
/// static so reports stay deterministic.
pub type PassStats = Vec<(&'static str, u64)>;

/// The counters of one executed pass.
#[derive(Clone, Debug)]
pub struct PassRun {
    /// The pass name.
    pub name: &'static str,
    /// The counters the pass reported.
    pub stats: PassStats,
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
    /// Lock-order deadlock report.
    pub deadlocks: DeadlockReport,
    /// Over-synchronization report.
    pub oversync: OversyncReport,
    /// Per-pass counters, in execution order.
    pub passes: Vec<PassRun>,
}

impl PipelineReport {
    /// Number of surviving races in `tier`.
    pub fn tier_count(&self, tier: Tier) -> usize {
        self.races.iter().filter(|r| r.tier == tier).count()
    }

    /// Serializes the report as JSON (byte-stable across runs).
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
/// bytes [`PipelineReport::to_json`] emits, embedded verbatim). Failed
/// programs appear in the same name-sorted `programs` array as
/// `{"name": ..., "error": {"stage": ..., "message": ...}}` objects.
/// Like the per-program serializers it contains no durations or
/// scheduling artifacts, so batch output is byte-stable across worker
/// counts.
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

/// Runs the precision pipeline over the usual four analysis artifacts:
/// suppression, ownership pruning, guarded-by inference, deadlocks and
/// over-synchronization, in that order; then clamps scores, derives
/// tiers and ranks every list.
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
    let mut races: Vec<TriagedRace> = races.races.iter().map(TriagedRace::seed).collect();
    let mut suppressed = Vec::new();
    let mut pruned = Vec::new();
    let mut passes = vec![
        PassRun {
            name: "suppression",
            stats: triage::suppress(ctx.program, &mut races, &mut suppressed),
        },
        PassRun {
            name: "ownership",
            stats: ownership::prune_owned(&ctx, &mut races, &mut pruned),
        },
        PassRun {
            name: "guarded-by",
            stats: guards::score_guards(&ctx, &mut races),
        },
    ];
    let deadlocks = detect_deadlocks(ctx.program, ctx.shb);
    passes.push(PassRun {
        name: "deadlock",
        stats: vec![
            ("cycles", deadlocks.cycles.len() as u64),
            ("lock_order_edges", deadlocks.num_edges as u64),
        ],
    });
    let oversync = find_oversync(ctx.program, ctx.osa, ctx.shb);
    passes.push(PassRun {
        name: "oversync",
        stats: vec![
            ("warnings", oversync.warnings.len() as u64),
            ("useful_sites", oversync.useful_sites as u64),
        ],
    });
    let mut report = PipelineReport {
        races,
        pruned,
        suppressed,
        deadlocks,
        oversync,
        passes,
    };
    triage::finalize(&mut report);
    report
}
