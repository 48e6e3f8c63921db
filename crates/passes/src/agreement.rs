//! RacerD-agreement scoring.
//!
//! Runs the `o2-racerd` syntactic baseline over the program and records,
//! per race, whether RacerD independently warns about the same field.
//! Agreement is *corroborating signal only* — it raises the confidence
//! score — and never a filter: RacerD has no pointer analysis and both
//! its false negatives and false positives are plentiful, so silence
//! from it must not demote or drop an O2 race.
//!
//! The pass reads only the baseline's per-field warning counts and their
//! total, which `o2-racerd` computes in closed form.

use crate::triage::RACERD_AGREEMENT_BONUS;
use crate::{AnalysisCtx, Pass, PassStats, PipelineState};
use o2_analysis::osa::MemKey;
use o2_racerd::run_racerd;

/// The RacerD-agreement pass.
pub struct RacerdAgreementPass;

impl Pass for RacerdAgreementPass {
    fn name(&self) -> &'static str {
        "racerd-agreement"
    }

    fn run(&mut self, ctx: &AnalysisCtx<'_>, state: &mut PipelineState) -> PassStats {
        let report = run_racerd(ctx.program);
        let mut agreements = 0u64;
        for tr in &mut state.races {
            let field = match tr.race.key {
                MemKey::Field(_, f) | MemKey::Static(_, f) => f,
            };
            let n = report.field_warnings(field);
            if n > 0 {
                tr.score += RACERD_AGREEMENT_BONUS;
                tr.notes.push(format!(
                    "corroborated by racerd ({n} warning{} on this field)",
                    if n == 1 { "" } else { "s" }
                ));
                agreements += 1;
            }
        }
        let total = report.total_warnings() as u64;
        vec![("racerd_warnings", total), ("agreements", agreements)]
    }
}
