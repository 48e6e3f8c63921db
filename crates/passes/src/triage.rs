//! The triage engine: confidence scores, tiers, suppression, ranking,
//! and the deterministic JSON/text renderings of a [`PipelineReport`].
//!
//! Scoring is additive and intentionally small: every race starts at
//! [`BASE_SCORE`], passes add or subtract fixed increments, and the final
//! score maps onto three stable tiers. The planted bugs of the `realbugs`
//! models carry no demoting evidence (no dominant guard, no ownership),
//! so they always stay in the `high` tier; generated bait accumulates
//! demotions or is pruned outright.

use crate::{AnalysisCtx, Pass, PassStats, PipelineReport, PipelineState};
use o2_detect::Race;
use o2_ir::json_escape;
use o2_ir::program::Program;
use std::fmt;
use std::fmt::Write as _;

/// Starting score of every detector-reported race.
pub const BASE_SCORE: i32 = 80;
/// Bonus for write-write races (strictly stronger evidence than
/// read-write: no interleaving of the pair is benign).
pub const WRITE_WRITE_BONUS: i32 = 5;
/// Bonus when the RacerD baseline independently warns about the field.
pub const RACERD_AGREEMENT_BONUS: i32 = 10;
/// Bonus for a consistent-guard violation (a dominant lock exists and
/// more than one access ignores it).
pub const GUARD_VIOLATION_BONUS: i32 = 10;
/// Penalty when a dominant guard covers all but one access (the single
/// stray access is typically initialization or shutdown code).
pub const MOSTLY_GUARDED_PENALTY: i32 = -50;
/// Minimum score of the `high` tier.
pub const HIGH_MIN: i32 = 70;
/// Minimum score of the `medium` tier.
pub const MEDIUM_MIN: i32 = 40;

/// Stable confidence tier of a triaged race.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Strong evidence: report first.
    High,
    /// Plausible but weakened by demoting evidence.
    Medium,
    /// Weak: dominated by demoting evidence.
    Low,
}

impl Tier {
    /// Maps a score onto its tier.
    pub fn of(score: i32) -> Tier {
        if score >= HIGH_MIN {
            Tier::High
        } else if score >= MEDIUM_MIN {
            Tier::Medium
        } else {
            Tier::Low
        }
    }

    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Tier::High => "high",
            Tier::Medium => "medium",
            Tier::Low => "low",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A race with its running confidence score and the evidence notes the
/// passes attached.
#[derive(Clone, Debug)]
pub struct TriagedRace {
    /// The underlying detector race.
    pub race: Race,
    /// Running additive score (clamped to `0..=100` at finalization).
    pub score: i32,
    /// Tier derived from the final score.
    pub tier: Tier,
    /// Evidence notes in the order passes attached them.
    pub notes: Vec<String>,
}

impl TriagedRace {
    /// Seeds a triaged race from a raw detector race.
    pub fn seed(race: &Race) -> TriagedRace {
        let mut score = BASE_SCORE;
        let mut notes = Vec::new();
        if race.is_write_write() {
            score += WRITE_WRITE_BONUS;
            notes.push("write-write conflict".to_string());
        }
        TriagedRace {
            race: *race,
            score,
            tier: Tier::of(score),
            notes,
        }
    }
}

/// A race removed from the report, with the pass's justification.
#[derive(Clone, Debug)]
pub struct PrunedRace {
    /// The pruned detector race.
    pub race: Race,
    /// Why the pass proved it impossible.
    pub reason: String,
}

/// Moves races whose accesses fall in `@suppress(race)` methods to the
/// suppressed list. Runs first so later passes only score live races.
pub struct SuppressionPass;

impl Pass for SuppressionPass {
    fn name(&self) -> &'static str {
        "suppression"
    }

    fn run(&mut self, ctx: &AnalysisCtx<'_>, state: &mut PipelineState) -> PassStats {
        let program = ctx.program;
        let (suppressed, live): (Vec<_>, Vec<_>) = state.races.drain(..).partition(|tr| {
            program.is_race_suppressed(tr.race.a.stmt) || program.is_race_suppressed(tr.race.b.stmt)
        });
        state.races = live;
        for mut tr in suppressed {
            tr.notes.push("@suppress(race) annotation".to_string());
            state.suppressed.push(tr);
        }
        vec![
            ("suppressed", state.suppressed.len() as u64),
            ("kept", state.races.len() as u64),
        ]
    }
}

/// Clamps scores, derives tiers, and sorts every list into its stable
/// ranking: tier, then score descending, then location order.
pub fn finalize(state: &mut PipelineState) {
    for tr in state.races.iter_mut().chain(state.suppressed.iter_mut()) {
        tr.score = tr.score.clamp(0, 100);
        tr.tier = Tier::of(tr.score);
    }
    let rank = |tr: &TriagedRace| {
        (
            tr.tier,
            -tr.score,
            tr.race.key,
            tr.race.a.stmt,
            tr.race.b.stmt,
            tr.race.a.origin.0,
            tr.race.b.origin.0,
        )
    };
    state.races.sort_by_key(rank);
    state.suppressed.sort_by_key(rank);
    state
        .pruned
        .sort_by_key(|p| (p.race.key, p.race.a.stmt, p.race.b.stmt));
}

fn access_json(program: &Program, acc: &o2_detect::RaceAccess) -> String {
    format!(
        "{{\"kind\": \"{}\", \"at\": \"{}\", \"origin\": {}}}",
        if acc.is_write { "write" } else { "read" },
        json_escape(&program.stmt_label(acc.stmt)),
        acc.origin.0
    )
}

fn triaged_json(program: &Program, tr: &TriagedRace) -> String {
    let notes: Vec<String> = tr
        .notes
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    format!(
        "{{\"location\": \"{}\", \"tier\": \"{}\", \"score\": {}, \"a\": {}, \"b\": {}, \"notes\": [{}]}}",
        json_escape(&o2_detect::mem_key_label(program, tr.race.key)),
        tr.tier,
        tr.score,
        access_json(program, &tr.race.a),
        access_json(program, &tr.race.b),
        notes.join(", ")
    )
}

/// The deterministic JSON rendering of a pipeline report (no durations,
/// byte-stable across runs).
pub fn report_to_json(report: &PipelineReport, program: &Program) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"races\": [\n");
    for (i, tr) in report.races.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}{}",
            triaged_json(program, tr),
            if i + 1 < report.races.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"tiers\": {{\"high\": {}, \"medium\": {}, \"low\": {}}},",
        report.tier_count(Tier::High),
        report.tier_count(Tier::Medium),
        report.tier_count(Tier::Low)
    );
    out.push_str("  \"suppressed\": [\n");
    for (i, tr) in report.suppressed.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}{}",
            triaged_json(program, tr),
            if i + 1 < report.suppressed.len() {
                ","
            } else {
                ""
            }
        );
    }
    out.push_str("  ],\n  \"pruned\": [\n");
    for (i, p) in report.pruned.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"location\": \"{}\", \"a\": {}, \"b\": {}, \"reason\": \"{}\"}}{}",
            json_escape(&o2_detect::mem_key_label(program, p.race.key)),
            access_json(program, &p.race.a),
            access_json(program, &p.race.b),
            json_escape(&p.reason),
            if i + 1 < report.pruned.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"deadlocks\": {},",
        report.deadlocks.as_ref().map_or(0, |d| d.cycles.len())
    );
    let _ = writeln!(
        out,
        "  \"oversync\": {},",
        report.oversync.as_ref().map_or(0, |o| o.warnings.len())
    );
    out.push_str("  \"passes\": [\n");
    for (i, run) in report.passes.iter().enumerate() {
        let stats: Vec<String> = run
            .stats
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"stats\": {{{}}}}}{}",
            run.name,
            stats.join(", "),
            if i + 1 < report.passes.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable summary of the triaged report.
pub fn render(report: &PipelineReport, program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} race(s) after triage ({} high, {} medium, {} low); {} pruned, {} suppressed",
        report.races.len(),
        report.tier_count(Tier::High),
        report.tier_count(Tier::Medium),
        report.tier_count(Tier::Low),
        report.pruned.len(),
        report.suppressed.len()
    );
    for tr in &report.races {
        let _ = writeln!(
            out,
            "  [{:>6} {:>3}] {} : {} ({}) <-> {} ({})",
            tr.tier,
            tr.score,
            o2_detect::mem_key_label(program, tr.race.key),
            program.stmt_label(tr.race.a.stmt),
            if tr.race.a.is_write { "write" } else { "read" },
            program.stmt_label(tr.race.b.stmt),
            if tr.race.b.is_write { "write" } else { "read" },
        );
        for note in &tr.notes {
            let _ = writeln!(out, "          - {note}");
        }
    }
    for p in &report.pruned {
        let _ = writeln!(
            out,
            "  [pruned    ] {} : {}",
            o2_detect::mem_key_label(program, p.race.key),
            p.reason
        );
    }
    for tr in &report.suppressed {
        let _ = writeln!(
            out,
            "  [suppressed] {} : {} <-> {}",
            o2_detect::mem_key_label(program, tr.race.key),
            program.stmt_label(tr.race.a.stmt),
            program.stmt_label(tr.race.b.stmt),
        );
    }
    // Deliberately no per-pass durations: the text rendering, like the
    // JSON and SARIF ones, is byte-stable across runs so that warm
    // (database-replayed) runs compare equal to cold runs. Timings live
    // in `PipelineReport::passes` for callers that want them.
    for run in &report.passes {
        let stats: Vec<String> = run.stats.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(out, "  pass {:<12} {}", run.name, stats.join(" "));
    }
    out
}
