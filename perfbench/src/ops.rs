//! The op bodies shared by the workloads, their oracles, and the
//! deterministic counters read off each op's result.

use crate::trace::Tracer;
use crate::Counts;
use o2::{AnalysisReport, Timings, O2};
use o2_analysis::{run_osa_bounded, MemKey};
use o2_detect::{detect_budgeted, DetectConfig};
use o2_ir::{parser, Budget, Program, ProgramCtx};
use o2_pta::PtaConfig;
use o2_shb::{build_shb, ShbConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// What one cold op produces.
pub struct ColdOut {
    /// The parsed program.
    pub program: Program,
    /// The analysis report.
    pub report: AnalysisReport,
    /// The pipeline report rendered as JSON.
    pub json: String,
}

/// The cold op: source text → `parser::parse` → `O2::analyze` →
/// `run_pipeline` → `to_json`. Untraced it goes through the facade;
/// traced it makes the stage calls itself, one span each.
pub fn cold_op(engine: &O2, src: &str, t: &mut Tracer) -> Result<ColdOut, String> {
    let program = t
        .span("ir.parse", |_| parser::parse(src))
        .map_err(|e| format!("parse: {e}"))?;
    let report = if t.is_on() {
        staged_analyze(&program, t)
    } else {
        engine.analyze(&program)
    };
    let pipeline = t.span("passes.pipeline", |_| report.run_pipeline(&program));
    let json = t.span("passes.render", |_| pipeline.to_json(&program));
    Ok(ColdOut {
        program,
        report,
        json,
    })
}

/// `O2::try_analyze_ctx` under the default configuration, rebuilt from
/// its public stage calls so each stage gets its own span.
fn staged_analyze(program: &Program, t: &mut Tracer) -> AnalysisReport {
    let ctx = ProgramCtx::solo(program);
    let budget = Budget::unlimited();
    let pta_cfg = PtaConfig::default();
    let shb_default = ShbConfig::default();
    let detect_default = DetectConfig::default();
    let t0 = Instant::now();
    let pta = t
        .span("pta", |_| o2_pta::analyze_budgeted(&ctx, &pta_cfg, &budget))
        .expect("an unlimited budget cannot trip");
    let down_budget = if pta.timed_out {
        Some(Duration::from_millis(500))
    } else {
        pta_cfg.timeout
    };
    let mut osa = t.span("analysis.osa", |_| run_osa_bounded(&ctx, &pta, down_budget));
    let shb_cfg = ShbConfig {
        timeout: shb_default.timeout.or(down_budget),
        ..shb_default
    };
    let shb = t.span("shb", |_| build_shb(&ctx, &pta, &shb_cfg, &mut osa.locs));
    let detect_cfg = if pta.timed_out {
        DetectConfig {
            timeout: Some(Duration::from_millis(500)),
            ..detect_default
        }
    } else {
        DetectConfig {
            timeout: detect_default.timeout.or(pta_cfg.timeout),
            ..detect_default
        }
    };
    let races = t
        .span("detect", |_| {
            detect_budgeted(&ctx, &pta, &osa, &shb, &detect_cfg, &budget)
        })
        .expect("an unlimited budget cannot trip");
    let timings = Timings {
        pta: pta.duration,
        osa: osa.duration,
        shb: shb.duration,
        detect: races.duration,
        total: t0.elapsed(),
    };
    AnalysisReport {
        pta,
        osa,
        shb,
        races,
        timings,
    }
}

/// Adds the report's deterministic work counters to `c`.
pub fn report_counts(report: &AnalysisReport, c: &mut Counts) {
    let mut add = |k: &'static str, v: u64| *c.entry(k).or_default() += v;
    add("pta.solve_steps", report.pta.stats.solve_steps);
    add(
        "pta.propagated_objects",
        report.pta.stats.propagated_objects,
    );
    add("pta.mis", report.pta.stats.num_mis as u64);
    add(
        "analysis.shared_accesses",
        report.osa.num_shared_accesses() as u64,
    );
    add("shb.nodes", report.shb.stats.num_nodes);
    add("shb.locksets", report.shb.stats.num_locksets as u64);
    add("detect.pre_prune_pairs", report.races.prune.pre_prune_pairs);
    add("detect.candidate_pairs", report.races.prune.candidate_pairs);
    add("detect.pairs_checked", report.races.pairs_checked);
}

/// The known answer for one program, taken from how it was built.
#[derive(Clone, Debug)]
pub enum Expect {
    /// Generated program: exactly two races per planted racy field (the
    /// write/write and write/read pairs of the planted pattern), and
    /// races only on those fields.
    Planted(BTreeSet<String>),
    /// Real-bug model: the developer-confirmed race count.
    Races(usize),
}

impl Expect {
    /// Whether `report` on `program` matches the known answer.
    pub fn holds(&self, program: &Program, report: &AnalysisReport) -> bool {
        let races = &report.races.races;
        match self {
            Expect::Races(n) => races.len() == *n,
            Expect::Planted(fields) => {
                let mut per_field: BTreeMap<&str, usize> = BTreeMap::new();
                for r in races {
                    let f = match r.key {
                        MemKey::Field(_, f) | MemKey::Static(_, f) => f,
                    };
                    *per_field.entry(program.field_name(f)).or_default() += 1;
                }
                per_field.len() == fields.len()
                    && per_field
                        .iter()
                        .all(|(f, &n)| n == 2 && fields.contains(*f))
            }
        }
    }
}

/// Escapes `s` as the body of a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + s.len() / 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
