//! The whole-program digest cache, orchestrated over an [`AnalysisDb`].
//!
//! O2 keeps one incremental mechanism: the rendered reports of a program,
//! keyed by its whole-program digest under one configuration signature.
//! A digest-identical program under the same configuration is answered
//! from the cache — by the CLI's `--load-db` fast path, by the `o2 serve`
//! report cache, and by a daemon preseeded from an `o2 batch --save-db`
//! image — without running the pipeline. Every other program runs the
//! ordinary cold pipeline; the cached bytes are exactly what that
//! pipeline rendered, so a hit is byte-identical to a cold run.
//!
//! Per-stage replay (OSA rescan, SHB per-origin subgraphs, detect
//! verdicts) was measured slower than a cold run on every edit chain of
//! the benchmark and removed; see EXPERIMENTS.md.

use crate::{AnalysisReport, O2};
use o2_db::{AnalysisDb, CachedReports, Digest, DigestHasher};
use o2_ir::{digest_diff, digest_program, DigestDiff, Program, ProgramDigests};
use o2_passes::PipelineReport;
use o2_pta::Policy;
use std::time::Duration;

/// The three report forms of `pipeline` — exactly what the solo CLI
/// prints per `--format` (with `--quiet`) — ready for the digest cache.
pub fn render_reports(pipeline: &PipelineReport, program: &Program) -> CachedReports {
    CachedReports {
        n_races: pipeline.races.len() as u64,
        text: pipeline.render(program),
        json: pipeline.to_json(program),
        sarif: pipeline.to_sarif(program),
    }
}

/// Stage totals of one [`O2::analyze_with_db`] run, in the shape of the
/// replay/recompute counters of the per-stage replay caches this crate
/// no longer has. Kept for the benchmark, which reads these six fields:
/// every run is cold, so the `*_replayed` counts are 0 and the others
/// are the stage totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrStats {
    /// Always 0. Kept for the benchmark.
    pub mis_replayed: usize,
    /// Method instances the pointer analysis discovered (the OSA scans
    /// every one). Kept for the benchmark.
    pub mis_rescanned: usize,
    /// Always 0. Kept for the benchmark.
    pub origins_replayed: usize,
    /// Origins the SHB walk traced. Kept for the benchmark.
    pub origins_walked: usize,
    /// Always 0. Kept for the benchmark.
    pub candidates_replayed: usize,
    /// Candidate locations detection checked pair by pair. Kept for the
    /// benchmark.
    pub candidates_rechecked: usize,
}

impl IncrStats {
    /// The stage totals of `report`.
    pub(crate) fn of(report: &AnalysisReport) -> IncrStats {
        IncrStats {
            mis_rescanned: report.pta.stats.num_mis,
            origins_walked: report.shb.traces.len(),
            candidates_rechecked: report.races.prune.candidate_locs as usize,
            ..IncrStats::default()
        }
    }

    /// Sum of the three stage totals.
    pub(crate) fn recomputes(&self) -> usize {
        self.mis_rescanned + self.origins_walked + self.candidates_rechecked
    }
}

fn write_policy(h: &mut DigestHasher, p: Policy) {
    match p {
        Policy::Insensitive => {
            h.write_u8(0);
            h.write_u64(0);
            h.write_u64(0);
        }
        Policy::CallSite { k, hk } => {
            h.write_u8(1);
            h.write_u64(k as u64);
            h.write_u64(hk as u64);
        }
        Policy::Object { k, hk } => {
            h.write_u8(2);
            h.write_u64(k as u64);
            h.write_u64(hk as u64);
        }
        Policy::Origin { k } => {
            h.write_u8(3);
            h.write_u64(k as u64);
            h.write_u64(0);
        }
    }
}

fn write_timeout(h: &mut DigestHasher, t: Option<Duration>) {
    match t {
        Some(d) => {
            h.write_bool(true);
            h.write_u64(d.as_nanos() as u64);
        }
        None => {
            h.write_bool(false);
            h.write_u64(0);
        }
    }
}

impl O2 {
    /// Digest of every configuration field that can influence analysis
    /// *results*: cached reports rendered under a different signature
    /// are never served. Kept for the benchmark, which binds its images
    /// to it. `detect.threads` is deliberately excluded:
    /// the report is byte-identical for every worker count, so warm
    /// databases are shareable across `--threads` settings.
    pub fn config_sig(&self) -> Digest {
        let mut h = DigestHasher::with_tag("o2.config.v1");
        write_policy(&mut h, self.pta.policy);
        write_timeout(&mut h, self.pta.timeout);
        h.write_u64(self.pta.max_steps);
        h.write_u64(self.pta.wrapper_site_limit as u64);
        h.write_u32(self.pta.max_origin_depth);
        h.write_bool(self.pta.anonymous_external_objects);
        h.write_bool(self.pta.difference_propagation);
        h.write_u64(self.shb.node_budget as u64);
        h.write_u64(self.shb.max_walk_depth as u64);
        h.write_u64(self.shb.max_visited_methods as u64);
        h.write_bool(self.shb.event_dispatcher_lock);
        match self.shb.main_dispatcher {
            Some(d) => {
                h.write_bool(true);
                h.write_u32(u32::from(d));
            }
            None => {
                h.write_bool(false);
                h.write_u32(0);
            }
        }
        write_timeout(&mut h, self.shb.timeout);
        h.write_bool(self.detect.integer_hb);
        h.write_bool(self.detect.canonical_locksets);
        h.write_bool(self.detect.lock_region_merging);
        h.write_bool(self.detect.hb_cache);
        h.write_u64(self.detect.max_pairs_per_location as u64);
        write_timeout(&mut h, self.detect.timeout);
        h.finish()
    }

    /// Runs the ordinary cold pipeline on `program` and commits its
    /// identity to `db` (see [`AnalysisDb::commit_program`]): the
    /// database then holds at most this program's cached reports, which
    /// the caller renders and inserts. Kept for the benchmark, which
    /// primes its edit chains with it.
    pub fn analyze_with_db(
        &self,
        program: &Program,
        db: &mut AnalysisDb,
    ) -> (AnalysisReport, IncrStats) {
        self.analyze_with_db_prepared(program, db, &digest_program(program))
    }

    /// [`O2::analyze_with_db`] with the program digests supplied by the
    /// caller, who has usually computed them already to probe the cache.
    /// Kept for the benchmark, which times it as the warm analysis.
    pub fn analyze_with_db_prepared(
        &self,
        program: &Program,
        db: &mut AnalysisDb,
        digests: &ProgramDigests,
    ) -> (AnalysisReport, IncrStats) {
        let report = self.analyze(program);
        db.commit_program(self.config_sig(), digests.program);
        let stats = IncrStats::of(&report);
        (report, stats)
    }

    /// Diffs `old` against `new` by their function digests and analyzes
    /// `new` once.
    pub fn diff_analyze(&self, old: &Program, new: &Program) -> DiffAnalysis {
        let new_digests = digest_program(new);
        DiffAnalysis {
            diff: digest_diff(&digest_program(old), &new_digests),
            new_digest: new_digests.program,
            new: self.analyze(new),
        }
    }
}

/// Result of [`O2::diff_analyze`]: the digest diff and the report on the
/// new version.
#[derive(Debug)]
pub struct DiffAnalysis {
    /// Function-level digest diff between the two versions.
    pub diff: DigestDiff,
    /// Whole-program digest of the new version (its report-cache key).
    pub new_digest: Digest,
    /// Report on the new program.
    pub new: AnalysisReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::O2Builder;
    use o2_detect::DetectConfig;
    use o2_ir::parser::parse;

    const BASE: &str = r#"
        class S { field data; field extra; }
        class W1 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; }
        }
        class W2 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.extra = s; }
        }
        class Main {
            static method main() {
                s = new S();
                a = new W1(s);
                b = new W2(s);
                a.start();
                b.start();
                x = s.data;
                y = s.extra;
            }
        }
    "#;

    // W2 writes `data` instead of `extra`: one function body changed.
    const EDITED: &str = r#"
        class S { field data; field extra; }
        class W1 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; }
        }
        class W2 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; s.extra = s; }
        }
        class Main {
            static method main() {
                s = new S();
                a = new W1(s);
                b = new W2(s);
                a.start();
                b.start();
                x = s.data;
                y = s.extra;
            }
        }
    "#;

    fn render_all(program: &Program, report: &AnalysisReport) -> CachedReports {
        render_reports(&report.run_pipeline(program), program)
    }

    /// What the CLI does on a cache miss: analyze, commit, render, insert.
    fn fill(o2: &O2, program: &Program, db: &mut AnalysisDb) {
        let digests = digest_program(program);
        let (report, _) = o2.analyze_with_db_prepared(program, db, &digests);
        db.reports
            .insert(digests.program, render_all(program, &report));
    }

    #[test]
    fn digest_hit_is_byte_identical_to_cold() {
        let program = parse(BASE).unwrap();
        let o2 = O2Builder::new().build();
        let mut db = AnalysisDb::new(o2.config_sig());
        fill(&o2, &program, &mut db);
        let digest = digest_program(&program).program;
        let hit = db.lookup(o2.config_sig(), digest).expect("cached");
        assert_eq!(hit, &render_all(&program, &o2.analyze(&program)));
    }

    #[test]
    fn analyze_with_db_reports_stage_totals() {
        let program = parse(BASE).unwrap();
        let o2 = O2Builder::new().build();
        let mut db = AnalysisDb::new(o2.config_sig());
        let (report, s) = o2.analyze_with_db(&program, &mut db);
        assert_eq!(
            s.mis_replayed + s.origins_replayed + s.candidates_replayed,
            0
        );
        assert_eq!(s.mis_rescanned, report.pta.stats.num_mis);
        assert_eq!(s.origins_walked, report.num_origins());
        assert!(s.candidates_rechecked > 0);
    }

    #[test]
    fn editing_a_program_drops_its_old_reports() {
        let (old, new) = (parse(BASE).unwrap(), parse(EDITED).unwrap());
        let o2 = O2Builder::new().build();
        let mut db = AnalysisDb::new(o2.config_sig());
        fill(&o2, &old, &mut db);
        fill(&o2, &new, &mut db);
        let keys: Vec<Digest> = db.reports.keys().copied().collect();
        assert_eq!(keys, vec![digest_program(&new).program]);
    }

    #[test]
    fn diff_analyze_matches_cold() {
        let old = parse(BASE).unwrap();
        let new = parse(EDITED).unwrap();
        let o2 = O2Builder::new().build();
        let d = o2.diff_analyze(&old, &new);
        assert_eq!(d.diff.changed, vec!["W2.run/0".to_string()]);
        assert_eq!(d.new_digest, digest_program(&new).program);
        assert_eq!(
            render_all(&new, &o2.analyze(&new)),
            render_all(&new, &d.new)
        );
    }

    #[test]
    fn config_change_invalidates_database() {
        let program = parse(BASE).unwrap();
        let digest = digest_program(&program).program;
        let o2 = O2Builder::new().build();
        let mut db = AnalysisDb::new(o2.config_sig());
        fill(&o2, &program, &mut db);
        let naive = O2Builder::new()
            .detect_config(DetectConfig::naive())
            .build();
        assert_ne!(o2.config_sig(), naive.config_sig());
        assert!(db.lookup(naive.config_sig(), digest).is_none());
        naive.analyze_with_db(&program, &mut db);
        assert!(db.reports.is_empty(), "cleared db holds nothing");
        assert_eq!(db.config_sig, naive.config_sig());
    }

    #[test]
    fn db_roundtrips_through_bytes() {
        let program = parse(BASE).unwrap();
        let o2 = O2Builder::new().build();
        let mut db = AnalysisDb::new(o2.config_sig());
        fill(&o2, &program, &mut db);
        let bytes = db.to_bytes();
        let back = AnalysisDb::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        let digest = digest_program(&program).program;
        assert_eq!(
            back.lookup(o2.config_sig(), digest),
            db.lookup(o2.config_sig(), digest)
        );
    }
}
