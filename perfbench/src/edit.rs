//! `edit-warm`: the local developer loop. Each op loads the previous
//! database image, analyzes the next single-function edit of a chain
//! warm against it, renders the report, and saves the new image.

use crate::ops::{cold_op, report_counts};
use crate::trace::{Tracer, OP};
use crate::{Counts, Mode, Replay, Workload};
use o2::{AnalysisReport, IncrStats, O2};
use o2_db::AnalysisDb;
use o2_ir::{digest_program, parser, printer::print_program, Program};
use o2_workloads::{mega_by_name, preset_by_name, single_function_edit};
use std::time::Instant;

/// Chain bases: mega-smoke, then C, Android, C and distributed presets.
/// Five chains of three edits put p50 and p90 each in the middle of one
/// chain's samples.
const CHAINS: [&str; 5] = [
    "mega-smoke",
    "memcached",
    "connectbot",
    "redis",
    "zookeeper",
];
/// Edits per chain.
const EDITS: usize = 3;

struct Step {
    src: String,
    /// JSON of a cold `O2::analyze` of the same text: the oracle.
    cold_json: String,
}

struct Chain {
    name: &'static str,
    base_src: String,
    steps: Vec<Step>,
}

/// The edit-warm workload.
pub struct EditWarm {
    engine: O2,
    chains: Vec<Chain>,
    /// The database image each chain starts from, made by set-up.
    primed: Vec<Vec<u8>>,
}

fn base_program(name: &str, seed: u64) -> Program {
    let w = match mega_by_name(name) {
        Some(mut m) => {
            m.seed ^= seed;
            m.generate()
        }
        None => {
            let mut p = preset_by_name(name).expect("chain bases are registry presets");
            p.spec.seed ^= seed;
            p.generate()
        }
    };
    w.program
}

impl EditWarm {
    /// Generates the chains for `seed` and computes each step's cold
    /// oracle.
    pub fn new(seed: u64) -> Result<EditWarm, String> {
        let engine = O2::default();
        let mut chains = Vec::new();
        for name in CHAINS {
            let base_src = print_program(&base_program(name, seed));
            let mut program = parser::parse(&base_src).map_err(|e| format!("{name}: {e}"))?;
            let mut steps = Vec::new();
            for _ in 0..EDITS {
                program = single_function_edit(&program).0;
                let src = print_program(&program);
                let cold_json = cold_op(&engine, &src, &mut Tracer::new())?.json;
                steps.push(Step { src, cold_json });
            }
            chains.push(Chain {
                name,
                base_src,
                steps,
            });
        }
        Ok(EditWarm {
            engine,
            chains,
            primed: Vec::new(),
        })
    }
}

/// What one warm op produces.
struct WarmOut {
    report: AnalysisReport,
    stats: IncrStats,
    json: String,
    image: Vec<u8>,
}

fn warm_op(engine: &O2, prev: &[u8], src: &str, t: &mut Tracer) -> Result<WarmOut, String> {
    let mut db = t
        .span("db.load", |_| AnalysisDb::from_bytes(prev))
        .map_err(|e| format!("db load: {e:?}"))?;
    let program = t
        .span("ir.parse", |_| parser::parse(src))
        .map_err(|e| format!("parse: {e}"))?;
    let digests = t.span("ir.digest", |_| digest_program(&program));
    let (report, stats) = t.span("core.warm_analyze", |_| {
        engine.analyze_with_db_prepared(&program, &mut db, &digests)
    });
    let pipeline = t.span("passes.pipeline", |_| report.run_pipeline(&program));
    let json = t.span("passes.render", |_| pipeline.to_json(&program));
    let image = t.span("db.save", |_| db.to_bytes());
    Ok(WarmOut {
        report,
        stats,
        json,
        image,
    })
}

fn warm_counts(w: &WarmOut, src: &str, c: &mut Counts) {
    report_counts(&w.report, c);
    let mut add = |k: &'static str, v: usize| *c.entry(k).or_default() += v as u64;
    add("core.mis_replayed", w.stats.mis_replayed);
    add("core.mis_rescanned", w.stats.mis_rescanned);
    add("core.origins_replayed", w.stats.origins_replayed);
    add("core.origins_walked", w.stats.origins_walked);
    add("core.candidates_replayed", w.stats.candidates_replayed);
    add("core.candidates_rechecked", w.stats.candidates_rechecked);
    add("passes.output_bytes", w.json.len());
    add("db.image_bytes", w.image.len());
    add("ir.source_bytes", src.len());
}

impl Workload for EditWarm {
    fn ops(&self) -> usize {
        self.chains.len() * EDITS
    }

    /// A set-up takes tens of milliseconds, so a few more are cheap.
    fn setup_reps(&self) -> usize {
        5
    }

    /// The priming `analyze_with_db` and `to_bytes` of every chain base.
    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        self.engine = O2::default();
        let mut primed = Vec::new();
        for chain in &self.chains {
            let program =
                parser::parse(&chain.base_src).map_err(|e| format!("{}: {e}", chain.name))?;
            let mut db = AnalysisDb::new(self.engine.config_sig());
            std::hint::black_box(self.engine.analyze_with_db(&program, &mut db));
            primed.push(db.to_bytes());
        }
        let secs = t0.elapsed().as_secs_f64();
        if !self.primed.is_empty() && self.primed != primed {
            return Err("priming is not deterministic".to_string());
        }
        self.primed = primed;
        Ok(secs)
    }

    fn replay(&mut self, mode: Mode, r: usize, t: &mut Tracer) -> Replay {
        let mut out = Replay::default();
        let traced = mode == Mode::Traced;
        for (c, chain) in self.chains.iter().enumerate() {
            let mut image = self.primed[c].clone();
            for (k, step) in chain.steps.iter().enumerate() {
                let i = c * EDITS + k;
                t.at(i, r);
                let t0 = Instant::now();
                let res = t.span(OP, |t| warm_op(&self.engine, &image, &step.src, t));
                out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let mut ok = false;
                if let Ok(w) = res {
                    ok = w.json == step.cold_json;
                    if traced {
                        warm_counts(&w, &step.src, &mut out.counts);
                        // The cold op on the same edited text: the base
                        // of `core.warm_over_cold`, outside the op span.
                        let cold = t.span("core.cold_op", |t| {
                            let program = parser::parse(&step.src).map_err(|e| e.to_string())?;
                            let report =
                                t.span("core.cold_analyze", |_| self.engine.analyze(&program));
                            Ok::<_, String>(report.run_pipeline(&program).to_json(&program))
                        });
                        ok &= cold.as_deref() == Ok(step.cold_json.as_str());
                    }
                    image = w.image;
                }
                if !ok {
                    out.failures.push(format!("{}#edit{}", chain.name, k + 1));
                }
            }
        }
        out
    }
}
