//! Whole-corpus analysis: the engine behind `o2 batch <manifest>`.
//!
//! A batch run analyzes every program of a manifest under one engine
//! configuration. Each program is claimed by exactly one worker and
//! analyzed cold under its own [`ProgramCtx`]; workers share no analysis
//! state. [`run_batch_with_db`] additionally renders every analyzed
//! program's reports into an [`AnalysisDb`] keyed by program digest —
//! the image `o2 batch --save-db` writes, from which `o2 serve --load-db`
//! answers each saved program as a digest hit.
//!
//! Scheduling is a std-only work-stealing pool: `workers` scoped threads
//! race on one atomic claim counter; whoever claims index `i` analyzes
//! entry `i`. The merged text, JSON and SARIF reports are byte-identical
//! for every worker count and claim order — they are pure functions of
//! the per-program reports sorted by program name. Only the
//! [`BatchReport::summary`] table (wall times) is scheduling-dependent,
//! which is why it is a separate artifact.

use crate::incremental::render_reports;
use crate::O2;
use o2_db::{AnalysisDb, CachedReports, Digest};
use o2_ir::{digest_program, O2Error, Program, ProgramCtx, ProgramId};
use o2_passes::{PipelineReport, Tier};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One named program of a batch manifest. A program that failed to load
/// (unreadable file, parse error, unknown workload) carries its typed
/// error instead: the batch analyzes everything that loaded and reports
/// the failures as per-program error entries in the merged output, so
/// one bad program never aborts a corpus run.
#[derive(Debug)]
pub struct BatchEntry {
    /// Report key; must be unique within the batch.
    pub name: String,
    /// The program to analyze, or why it could not be loaded.
    pub program: Result<Program, O2Error>,
}

/// Parses a batch manifest: one entry per line, `#` comments and blank
/// lines ignored. Each line is either
///
/// - a workload spec the unified registry resolves (`avrora`,
///   `mega-smoke`, `realbug:ZooKeeper`, `realbug-c:Memcached`), or
/// - `<name> = <path>` — analyze the `.o2` (or `.c`) source file at
///   `path`, reported under `name`. Relative paths resolve against the
///   manifest's directory.
///
/// Duplicate names are an error: the merged report is keyed by name.
///
/// A syntactically valid line whose program fails to *load* — the path
/// is unreadable, the source does not parse or fails validation (the
/// CLI's [`crate::parse_program`]), the workload spec is unknown — is
/// not a manifest error: it becomes an entry carrying the
/// typed [`O2Error`], which the batch run reports without aborting the
/// rest of the corpus. Only malformed manifest structure (empty name or
/// path, duplicate names, an empty manifest) fails the whole parse.
pub fn parse_manifest(text: &str, base: &std::path::Path) -> Result<Vec<BatchEntry>, String> {
    let mut entries: Vec<BatchEntry> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let entry = if let Some((name, path)) = line.split_once('=') {
            let (name, path) = (name.trim(), path.trim());
            if name.is_empty() || path.is_empty() {
                return Err(format!("manifest line {}: empty name or path", lineno + 1));
            }
            let full = base.join(path);
            let program = match std::fs::read_to_string(&full) {
                Err(e) => Err(O2Error::Io(format!("cannot read {path}: {e}"))),
                Ok(src) => crate::parse_program(&src, path.ends_with(".c")),
            };
            BatchEntry {
                name: name.to_string(),
                program,
            }
        } else {
            match o2_workloads::workload_by_name(line) {
                Some(w) => BatchEntry {
                    name: w.name,
                    program: Ok(w.program),
                },
                None => BatchEntry {
                    name: line.to_string(),
                    program: Err(O2Error::Resolve(format!("unknown workload {line}"))),
                },
            }
        };
        if entries.iter().any(|e| e.name == entry.name) {
            return Err(format!(
                "manifest line {}: duplicate program name {}",
                lineno + 1,
                entry.name
            ));
        }
        entries.push(entry);
    }
    if entries.is_empty() {
        return Err("manifest has no entries".to_string());
    }
    Ok(entries)
}

/// Per-program outcome of a batch run (summary-table data; the full
/// triaged report lives in [`BatchReport`]'s text, JSON and SARIF).
#[derive(Debug)]
pub struct ProgramOutcome {
    /// The manifest name.
    pub name: String,
    /// Surviving races by tier: (high, medium, low). All zero when the
    /// entry failed.
    pub tiers: (usize, usize, usize),
    /// Wall time of this program's analysis (scheduling-dependent).
    pub wall_ms: f64,
    /// Why this entry produced no report: a load failure carried in
    /// from the manifest, or a panic the batch worker caught. `None`
    /// for every successfully analyzed program.
    pub error: Option<O2Error>,
}

/// Everything a batch run produces.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-program outcomes, sorted by name.
    pub programs: Vec<ProgramOutcome>,
    /// The text report: in name order, a `== <name>` line, then the text
    /// report `o2 <file> --quiet` prints for that entry (or, for an entry
    /// that failed, the `error: ...` line it prints instead).
    pub text: String,
    /// The merged JSON report ([`o2_passes::corpus_json_with_errors`] bytes).
    pub json: String,
    /// The merged SARIF report ([`o2_passes::corpus_sarif_with_errors`] bytes).
    pub sarif: String,
    /// Wall time of the whole batch.
    pub wall_ms: f64,
}

impl BatchReport {
    /// The first failing entry in name order, if any — the CLI maps its
    /// stage to the process exit code when the corpus has no races.
    pub fn first_error(&self) -> Option<&O2Error> {
        self.programs.iter().find_map(|p| p.error.as_ref())
    }

    /// Number of entries that failed (load errors plus caught panics).
    pub fn error_count(&self) -> usize {
        self.programs.iter().filter(|p| p.error.is_some()).count()
    }

    /// Total surviving races across all programs.
    pub fn total_races(&self) -> usize {
        self.programs
            .iter()
            .map(|p| p.tiers.0 + p.tiers.1 + p.tiers.2)
            .sum()
    }

    /// The corpus summary table. Wall times here depend on scheduling;
    /// everything byte-pinned lives in `json`/`sarif`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>5} {:>6} {:>4} {:>9}",
            "program", "high", "medium", "low", "wall-ms"
        );
        for p in &self.programs {
            if let Some(err) = &p.error {
                let _ = writeln!(
                    out,
                    "{:<28} error at stage {}: {}",
                    p.name,
                    err.stage(),
                    err
                );
                continue;
            }
            let _ = writeln!(
                out,
                "{:<28} {:>5} {:>6} {:>4} {:>9.1}",
                p.name, p.tiers.0, p.tiers.1, p.tiers.2, p.wall_ms
            );
        }
        let _ = writeln!(
            out,
            "corpus: {} programs, {} races, {} errors, {:.1} ms",
            self.programs.len(),
            self.total_races(),
            self.error_count(),
            self.wall_ms
        );
        out
    }
}

struct Slot {
    /// `None` when the entry failed (outcome carries the error).
    pipeline: Option<PipelineReport>,
    /// The program digest and rendered reports, when the run fills a db.
    cached: Option<(Digest, CachedReports)>,
    outcome: ProgramOutcome,
}

fn error_outcome(name: &str, error: O2Error, wall_ms: f64) -> ProgramOutcome {
    ProgramOutcome {
        name: name.to_string(),
        tiers: (0, 0, 0),
        wall_ms,
        error: Some(error),
    }
}

/// Analyzes every entry under `engine`'s configuration with `workers`
/// threads. See the module docs for the determinism contract.
pub fn run_batch(engine: &O2, entries: &[BatchEntry], workers: usize) -> BatchReport {
    run_entries(engine, entries, workers, None)
}

/// [`run_batch`] that also returns an [`AnalysisDb`] holding every
/// analyzed program's rendered reports, keyed by program digest under
/// `engine`'s configuration — how `o2 batch --save-db` seeds a daemon's
/// warm start.
pub fn run_batch_with_db(
    engine: &O2,
    entries: &[BatchEntry],
    workers: usize,
) -> (BatchReport, AnalysisDb) {
    let mut db = AnalysisDb::new(engine.config_sig());
    let report = run_entries(engine, entries, workers, Some(&mut db));
    (report, db)
}

fn run_entries(
    engine: &O2,
    entries: &[BatchEntry],
    workers: usize,
    db: Option<&mut AnalysisDb>,
) -> BatchReport {
    let workers = workers.max(1);
    let t0 = Instant::now();
    let claim = AtomicUsize::new(0);
    let render = db.is_some();
    let slots: Mutex<Vec<Option<Slot>>> = Mutex::new((0..entries.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers.min(entries.len()) {
            scope.spawn(|| loop {
                let i = claim.fetch_add(1, Ordering::Relaxed);
                if i >= entries.len() {
                    break;
                }
                let entry = &entries[i];
                let t = Instant::now();
                let program = match &entry.program {
                    Ok(p) => p,
                    Err(e) => {
                        slots.lock().expect("batch slots poisoned")[i] = Some(Slot {
                            pipeline: None,
                            cached: None,
                            outcome: error_outcome(&entry.name, e.clone(), 0.0),
                        });
                        continue;
                    }
                };
                // ProgramId is the manifest index: unique per entry, and
                // purely internal — nothing id-derived reaches a report.
                let ctx = ProgramCtx::new(ProgramId(i as u32), &entry.name, program);
                // Panic backstop: a bug in one program's analysis, passes
                // or rendering becomes that entry's error; the worker
                // claims the next entry.
                let run = O2Error::catch(|| {
                    let pipeline = engine.analyze_ctx(&ctx).run_pipeline(program);
                    let cached = render.then(|| {
                        let digest = digest_program(program).program;
                        (digest, render_reports(&pipeline, program))
                    });
                    Ok((pipeline, cached))
                });
                let wall_ms = t.elapsed().as_secs_f64() * 1000.0;
                let slot = match run {
                    Ok((pipeline, cached)) => {
                        let outcome = ProgramOutcome {
                            name: entry.name.clone(),
                            tiers: (
                                pipeline.tier_count(Tier::High),
                                pipeline.tier_count(Tier::Medium),
                                pipeline.tier_count(Tier::Low),
                            ),
                            wall_ms,
                            error: None,
                        };
                        Slot {
                            pipeline: Some(pipeline),
                            cached,
                            outcome,
                        }
                    }
                    Err(e) => Slot {
                        pipeline: None,
                        cached: None,
                        outcome: error_outcome(&entry.name, e, wall_ms),
                    },
                };
                slots.lock().expect("batch slots poisoned")[i] = Some(slot);
            });
        }
    });

    let slots = slots.into_inner().expect("batch slots poisoned");
    let mut done: Vec<(usize, Slot)> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i, s.expect("every claimed entry completes")))
        .collect();
    done.sort_by(|a, b| entries[a.0].name.cmp(&entries[b.0].name));
    if let Some(db) = db {
        for (_, s) in &mut done {
            if let Some((digest, reports)) = s.cached.take() {
                db.reports.insert(digest, reports);
            }
        }
    }

    let merged: Vec<(&str, &PipelineReport, &Program)> = done
        .iter()
        .filter_map(|(i, s)| {
            let pipeline = s.pipeline.as_ref()?;
            let program = entries[*i]
                .program
                .as_ref()
                .expect("a pipeline report implies the program loaded");
            Some((entries[*i].name.as_str(), pipeline, program))
        })
        .collect();
    let errors: Vec<(&str, &O2Error)> = done
        .iter()
        .filter_map(|(i, s)| Some((entries[*i].name.as_str(), s.outcome.error.as_ref()?)))
        .collect();
    let mut text = String::new();
    for (i, s) in &done {
        let entry = &entries[*i];
        let _ = writeln!(text, "== {}", entry.name);
        if let Some(e) = &s.outcome.error {
            let _ = writeln!(text, "error: {e}");
        } else if let (Some(pipeline), Ok(program)) = (&s.pipeline, &entry.program) {
            text.push_str(&pipeline.render(program));
        }
    }
    let json = o2_passes::corpus_json_with_errors(&merged, &errors);
    let sarif = o2_passes::corpus_sarif_with_errors(&merged, &errors);

    BatchReport {
        programs: done.into_iter().map(|(_, s)| s.outcome).collect(),
        text,
        json,
        sarif,
        wall_ms: t0.elapsed().as_secs_f64() * 1000.0,
    }
}
