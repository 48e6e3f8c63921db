//! # o2-detect — the O2 race detection engine
//!
//! Hybrid static happens-before + lockset race detection (§4 of the
//! paper). Candidate locations come from origin-sharing analysis (only
//! origin-shared locations with at least one writer can race); each
//! candidate pair of accesses from different origins is then checked
//! against the lockset (common lock ⇒ no race) and the SHB graph
//! (happens-before ⇒ no race).
//!
//! The three §4.1 optimizations are individually toggleable through
//! [`DetectConfig`], which is how the ablation benches measure them:
//!
//! - `integer_hb` — intra-origin HB by node-id comparison, and inter-origin
//!   HB from one shared table of reachability closures, instead of
//!   per-pair graph traversal;
//! - `canonical_locksets` — interned lockset ids with a word-parallel
//!   bitset disjointness check instead of per-pair list intersection;
//! - `lock_region_merging` — one representative access per
//!   `(lock region, location, kind)` instead of every syntactic access.
//!
//! ```
//! use o2_ir::parser::parse;
//! use o2_ir::ProgramCtx;
//! use o2_pta::{analyze, Policy, PtaConfig};
//! use o2_analysis::run_osa;
//! use o2_shb::{build_shb, ShbConfig};
//! use o2_detect::{detect, DetectConfig};
//!
//! let program = parse(r#"
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
//! let ctx = ProgramCtx::solo(&program);
//! let pta = analyze(&ctx, &PtaConfig::with_policy(Policy::origin1()));
//! let mut osa = run_osa(&ctx, &pta);
//! let shb = build_shb(&ctx, &pta, &ShbConfig::default(), &mut osa.locs);
//! let report = detect(&ctx, &pta, &osa, &shb, &DetectConfig::o2());
//! assert_eq!(report.races.len(), 1); // unsynchronized write/read on S.data
//! ```

#![warn(missing_docs)]

pub mod deadlock;
pub mod html;
pub mod oversync;

pub use deadlock::{detect_deadlocks, DeadlockCycle, DeadlockReport};
pub use html::render_html;
pub use oversync::{find_oversync, OversyncReport, OversyncWarning};

use o2_analysis::{MemKey, OsaResult};
use o2_db::FastSet;
use o2_ir::error::{Budget, O2Error};
use o2_ir::ids::GStmt;
use o2_ir::json_escape;
use o2_ir::program::Program;
use o2_ir::ProgramCtx;
use o2_pta::{OriginId, PtaResult};
use o2_shb::{AccessNode, ClosureTable, ShbGraph};
use std::collections::HashMap;
use std::convert::Infallible;
use std::time::{Duration, Instant};

/// Budget: maximum access pairs checked per memory location.
const MAX_PAIRS_PER_LOCATION: usize = 100_000;

/// Configuration of the race detection engine.
#[derive(Clone, Debug)]
pub struct DetectConfig {
    /// §4.1 optimization 1: integer-id intra-origin happens-before, with
    /// one sparse [`ClosureTable`] row per closure slot (origin and hop
    /// segment), filled once per run and shared by every candidate. Off,
    /// every pair walks the graph node by node
    /// ([`ShbGraph::happens_before_naive`]).
    pub integer_hb: bool,
    /// §4.1 optimization 2: canonical lockset ids with bitset disjointness.
    pub canonical_locksets: bool,
    /// §4.1 optimization 3: lock-region access merging.
    pub lock_region_merging: bool,
    /// PR 6 pre-loop pruning: candidates whose accesses all share a common
    /// lock are resolved in closed form from per-location summaries
    /// instead of enumerating their pairs. Sound — every pair of such a
    /// candidate fails the lockset-disjointness test — and exact: the
    /// synthesized outcome reproduces the loop's counters bit for bit.
    pub preloop_prune: bool,
    /// Wall-clock budget for the whole detection.
    pub timeout: Option<Duration>,
}

impl DetectConfig {
    /// The full O2 engine: all three optimizations on.
    pub fn o2() -> Self {
        DetectConfig {
            integer_hb: true,
            canonical_locksets: true,
            lock_region_merging: true,
            preloop_prune: true,
            timeout: None,
        }
    }

    /// The straw-man engine described at the end of §4 (the D4-style
    /// baseline): per-pair graph traversal, per-pair lock-list
    /// intersection, no region merging, no caching.
    pub fn naive() -> Self {
        DetectConfig {
            integer_hb: false,
            canonical_locksets: false,
            lock_region_merging: false,
            preloop_prune: false,
            timeout: None,
        }
    }
}

impl Default for DetectConfig {
    fn default() -> Self {
        DetectConfig::o2()
    }
}

/// One side of a reported race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaceAccess {
    /// Origin performing the access.
    pub origin: OriginId,
    /// The access statement.
    pub stmt: GStmt,
    /// `true` for writes.
    pub is_write: bool,
}

/// A reported data race: two conflicting accesses on the same location,
/// neither ordered by happens-before nor protected by a common lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Race {
    /// The racy memory location.
    pub key: MemKey,
    /// First access.
    pub a: RaceAccess,
    /// Second access.
    pub b: RaceAccess,
}

impl Race {
    /// `true` if both sides are writes.
    pub fn is_write_write(&self) -> bool {
        self.a.is_write && self.b.is_write
    }
}

/// Pre-loop pruning statistics (PR 6): per-LocId access summaries
/// classify every location the SHB walk touched *before* any pair is
/// enumerated, and whole classes are eliminated in closed form. Pair
/// counts are over the raw (pre-region-merge) access lists, so the stages
/// are comparable across configurations.
///
/// The taxonomy is a partition: `locations = read_only_locs +
/// single_origin_locs + common_guard_locs + candidate_locs`, and likewise
/// for pairs. Only `candidate_*` locations reach the pair loop when
/// [`DetectConfig::preloop_prune`] is on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Locations with at least one SHB-indexed access.
    pub locations: u64,
    /// Unordered access pairs before any pruning (`Σ C(n, 2)`).
    pub pre_prune_pairs: u64,
    /// Stage 1 — locations never written: no pair can conflict.
    pub read_only_locs: u64,
    /// Raw pairs eliminated by stage 1.
    pub read_only_pairs: u64,
    /// Stage 2 — locations touched by one runtime origin only (not
    /// origin-shared per OSA and no multi-instance writer).
    pub single_origin_locs: u64,
    /// Raw pairs eliminated by stage 2.
    pub single_origin_pairs: u64,
    /// Stage 3 — shared locations whose accesses all hold one common lock:
    /// every pair fails the disjointness test, so the outcome is
    /// synthesized without enumeration.
    pub common_guard_locs: u64,
    /// Raw pairs eliminated by stage 3.
    pub common_guard_pairs: u64,
    /// Locations that survive all three stages and are pair-enumerated.
    pub candidate_locs: u64,
    /// Raw pairs of the surviving candidates.
    pub candidate_pairs: u64,
}

impl PruneStats {
    /// Pairs eliminated before the pair loop, as a fraction of
    /// `pre_prune_pairs` (0.0 when nothing was indexed).
    pub fn prune_rate(&self) -> f64 {
        if self.pre_prune_pairs == 0 {
            return 0.0;
        }
        (self.pre_prune_pairs - self.candidate_pairs) as f64 / self.pre_prune_pairs as f64
    }
}

/// Statistics and results of one detection run.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Deduplicated races (by field and unordered statement pair), in
    /// deterministic order.
    pub races: Vec<Race>,
    /// Number of access pairs examined.
    pub pairs_checked: u64,
    /// Pairs pruned because they share a lock.
    pub lock_pruned: u64,
    /// Pairs pruned by happens-before.
    pub hb_pruned: u64,
    /// Accesses merged away by lock-region merging.
    pub region_merged: u64,
    /// `true` if the time budget expired before all candidates were
    /// checked.
    pub timed_out: bool,
    /// `true` if some location hit the pair budget (100,000 pairs per
    /// location) and its remaining pairs were skipped.
    pub pairs_budget_hit: bool,
    /// Pre-loop pruning classification of every SHB-indexed location
    /// (computed during candidate collection, so warm and cold runs agree;
    /// not serialized into [`RaceReport::to_json`]).
    pub prune: PruneStats,
    /// Wall-clock duration of detection (excluding PTA/OSA/SHB).
    pub duration: Duration,
}

impl RaceReport {
    /// Number of distinct races.
    pub fn num_races(&self) -> usize {
        self.races.len()
    }

    /// Renders the report as a JSON document (hand-rolled; the workspace
    /// keeps its dependency set minimal).
    pub fn to_json(&self, program: &Program) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\n  \"races\": [\n");
        for (i, r) in self.races.iter().enumerate() {
            let field = mem_key_label(program, r.key);
            let side = |a: &RaceAccess| {
                format!(
                    "{{\"kind\": \"{}\", \"at\": \"{}\", \"origin\": {}}}",
                    if a.is_write { "write" } else { "read" },
                    json_escape(&program.stmt_label(a.stmt)),
                    a.origin.0
                )
            };
            let _ = writeln!(
                out,
                "    {{\"field\": \"{}\", \"a\": {}, \"b\": {}}}{}",
                json_escape(&field),
                side(&r.a),
                side(&r.b),
                if i + 1 < self.races.len() { "," } else { "" }
            );
        }
        let _ = write!(
            out,
            "  ],\n  \"pairs_checked\": {},\n  \"lock_pruned\": {},\n  \"hb_pruned\": {},\n  \"timed_out\": {}\n}}\n",
            self.pairs_checked, self.lock_pruned, self.hb_pruned, self.timed_out
        );
        out
    }

    /// Renders a human-readable report.
    pub fn render(&self, program: &Program) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, r) in self.races.iter().enumerate() {
            let field = mem_key_label(program, r.key);
            let kind = |w: bool| if w { "write" } else { "read" };
            let _ = writeln!(
                out,
                "race #{}: field `{field}`\n  {} at {} [origin {}]\n  {} at {} [origin {}]",
                i + 1,
                kind(r.a.is_write),
                program.stmt_label(r.a.stmt),
                r.a.origin.0,
                kind(r.b.is_write),
                program.stmt_label(r.b.stmt),
                r.b.origin.0,
            );
        }
        if self.races.is_empty() {
            out.push_str("no races detected\n");
        }
        out
    }
}

/// One candidate memory location with its (possibly region-merged) access
/// list and precomputed per-origin flags, ready for the pair loop without
/// touching the pointer-analysis result.
struct Candidate {
    key: MemKey,
    accesses: Vec<(OriginId, AccessNode)>,
    /// [`ShbGraph::closure_slot`] of each access, parallel to `accesses`;
    /// empty unless the pair loop runs with [`DetectConfig::integer_hb`].
    slots: Vec<usize>,
    region_merged: u64,
    /// Dense `origin id → (multi_instance, allocated_only_by_that_origin)`
    /// covering every origin appearing in `accesses` (slots for origins
    /// that never touch this location stay at the `(false, false)`
    /// default, which the checks below treat as "not multi-instance").
    flags: Vec<(bool, bool)>,
    /// All accesses hold at least one common lock, so every pair is
    /// lockset-pruned: with [`DetectConfig::preloop_prune`] the outcome is
    /// synthesized in closed form instead of enumerated.
    common_guard: bool,
}

/// Runs race detection over the results of the pipeline stages.
///
/// Phase 1 collects per-location access lists, per-origin flags and
/// closure slots (the only part that reads the pointer analysis); phase 2
/// checks the candidates in candidate order against the frozen SHB graph
/// and one sparse [`ClosureTable`] filled on first use, keeping
/// the first race of each field and unordered statement pair. A
/// [`DetectConfig::timeout`] stops the pair loop wherever the clock
/// expires ([`RaceReport::timed_out`]).
pub fn detect(
    ctx: &ProgramCtx<'_>,
    pta: &PtaResult,
    osa: &OsaResult,
    shb: &ShbGraph,
    config: &DetectConfig,
) -> RaceReport {
    let Ok(report) = run_detect(ctx, pta, osa, shb, config, || Ok::<(), Infallible>(()));
    report
}

/// Like [`detect`], but polls a request-scoped [`Budget`] once per
/// candidate, one step each, and *aborts* with a typed error when it
/// trips — unlike [`DetectConfig::timeout`], which truncates the report
/// ([`RaceReport::timed_out`]) and keeps going.
///
/// # Errors
///
/// [`O2Error::Timeout`] when the budget's deadline has passed,
/// [`O2Error::Budget`] when its step ceiling is exhausted.
pub fn detect_budgeted(
    ctx: &ProgramCtx<'_>,
    pta: &PtaResult,
    osa: &OsaResult,
    shb: &ShbGraph,
    config: &DetectConfig,
    budget: &Budget,
) -> Result<RaceReport, O2Error> {
    budget.check("detect entry")?;
    run_detect(ctx, pta, osa, shb, config, || {
        budget.step(1);
        budget.check("detect candidate loop")
    })
}

/// [`detect`] with `poll` called before each candidate; its first error
/// aborts the run.
fn run_detect<E>(
    ctx: &ProgramCtx<'_>,
    pta: &PtaResult,
    osa: &OsaResult,
    shb: &ShbGraph,
    config: &DetectConfig,
    mut poll: impl FnMut() -> Result<(), E>,
) -> Result<RaceReport, E> {
    debug_assert_eq!(
        pta.program_id,
        ctx.id(),
        "detect: PtaResult from a different ProgramCtx"
    );
    debug_assert_eq!(
        shb.program_id,
        ctx.id(),
        "detect: ShbGraph from a different ProgramCtx"
    );
    debug_assert_eq!(
        osa.locs.program(),
        ctx.id(),
        "detect: OsaResult from a different ProgramCtx"
    );
    let start = Instant::now();

    // ---- phase 1: candidate collection ----------------------------------
    let (candidates, prune) = collect_candidates(pta, osa, shb, config);

    // ---- phase 2: the pair loop, in candidate order ---------------------
    let mut pairs = PairLoop {
        shb,
        config,
        deadline: config.timeout.map(|t| start + t),
        closures: ClosureTable::new(shb),
        pair_tick: 0,
        seen: FastSet::default(),
        report: RaceReport {
            prune,
            ..RaceReport::default()
        },
    };
    for cand in &candidates {
        if pairs.report.timed_out {
            break;
        }
        poll()?;
        pairs.check(cand);
    }
    let mut report = pairs.report;
    report
        .races
        .sort_by_key(|r| (r.key, r.a.stmt, r.b.stmt, r.a.origin.0, r.b.origin.0));
    report.duration = start.elapsed();
    Ok(report)
}

/// Phase 1 of [`detect`]: collects the candidate locations with their
/// (possibly region-merged) access lists, per-origin flags and closure
/// slots, and classifies every SHB-indexed location into the pre-loop
/// pruning taxonomy. The only detection phase that reads the
/// pointer-analysis result.
fn collect_candidates(
    pta: &PtaResult,
    osa: &OsaResult,
    shb: &ShbGraph,
    config: &DetectConfig,
) -> (Vec<Candidate>, PruneStats) {
    // Multi-instance origins: an abstract origin entered from two or more
    // distinct (parent, statement) creation points stands for several
    // runtime threads (e.g. the same spawn site reached under a merged
    // context), so its accesses may race with themselves. Context-
    // sensitive policies split such origins; coarse ones rely on this
    // flag for soundness.
    let mut multi: Vec<bool> = (0..pta.num_origins() as u32)
        .map(|o| pta.origin_is_multi(OriginId(o)))
        .collect();
    let mut entries: Vec<_> = shb
        .entry_edges
        .iter()
        .map(|e| (e.child, e.parent, e.stmt))
        .collect();
    entries.sort_unstable();
    entries.dedup();
    for w in entries.windows(2).filter(|w| w[0].0 == w[1].0) {
        multi[w[0].0 .0 as usize] = true;
    }
    let is_multi = |o: OriginId| multi[o.0 as usize];
    // Allocator attribution: an object allocated *inside* a multi-instance
    // origin is fresh per runtime instance, so accesses to it from its own
    // origin never self-race. `allocated_only_by(key, o)` is true when the
    // location's object can only be allocated by origin `o` itself.
    let mut method_origins: HashMap<u32, o2_ir::util::SparseSet> = HashMap::new();
    let mut mi_by_method: HashMap<u32, Vec<o2_pta::Mi>> = HashMap::new();
    for mi in pta.reachable_mis() {
        let (m, _) = pta.mi_data(mi);
        mi_by_method.entry(m.0).or_default().push(mi);
    }
    let mut allocated_only_by = |key: &MemKey, origin: o2_pta::OriginId| -> bool {
        let MemKey::Field(obj, _) = key else {
            return false; // statics are never instance-local
        };
        let data = pta.arena.obj_data(*obj);
        let site_method = match data.site {
            o2_pta::AllocSite::Stmt { stmt, .. }
            | o2_pta::AllocSite::SpawnHandle { stmt }
            | o2_pta::AllocSite::External { stmt } => stmt.method,
        };
        // Under OPA the object's heap context IS the allocating method
        // instance's context, so the attribution is exact; other policies
        // fall back to the union over the method's instances (conservative
        // — fewer skips).
        if let Some(mi) = pta.mi_of(site_method, data.hctx) {
            let s = pta.mi_origins(mi);
            return s.len() == 1 && s.contains(origin.0);
        }
        let set = method_origins.entry(site_method.0).or_insert_with(|| {
            let mis = mi_by_method.get(&site_method.0).into_iter().flatten();
            mis.flat_map(|&mi| pta.mi_origins(mi).iter()).collect()
        });
        set.len() == 1 && set.contains(origin.0)
    };

    let mut candidates: Vec<Candidate> = Vec::new();
    let mut stats = PruneStats::default();
    let mut rep: FastSet<(u32, u32, bool)> = FastSet::default();
    // Walk candidate ids in canonical `MemKey` order (the order the old
    // keyed map iterated in), so region-merge representatives and the
    // race dedup retain exactly the same accesses as before the dense-id
    // refactor.
    for id in osa.locs.sorted_ids() {
        let indexed = shb.accesses_of(id);
        let raw_pairs = {
            let n = indexed.len() as u64;
            n * n.saturating_sub(1) / 2
        };
        if !indexed.is_empty() {
            stats.locations += 1;
            stats.pre_prune_pairs += raw_pairs;
        }
        let Some(entry) = osa.entry(id) else {
            // Interned by SHB only (e.g. truncated OSA scan): classify by
            // the raw access list for the taxonomy.
            if !indexed.is_empty() {
                let any_write = indexed
                    .iter()
                    .any(|&(o, idx)| shb.traces[o.0 as usize].accesses[idx as usize].is_write);
                if any_write {
                    stats.single_origin_locs += 1;
                    stats.single_origin_pairs += raw_pairs;
                } else {
                    stats.read_only_locs += 1;
                    stats.read_only_pairs += raw_pairs;
                }
            }
            continue;
        };
        let key = osa.locs.key(id);
        // Candidate locations: origin-shared per OSA, or written by a
        // multi-instance origin (self-sharing that OSA's per-origin sets
        // cannot express).
        let self_shared = entry
            .write_origins
            .iter()
            .any(|o| is_multi(o2_pta::OriginId(o)));
        if !entry.is_shared() && !self_shared {
            if !indexed.is_empty() {
                // Stage 1/2: never written, or confined to one origin.
                if entry.write_origins.is_empty() {
                    stats.read_only_locs += 1;
                    stats.read_only_pairs += raw_pairs;
                } else {
                    stats.single_origin_locs += 1;
                    stats.single_origin_pairs += raw_pairs;
                }
            }
            continue;
        }
        if indexed.is_empty() {
            continue;
        }
        // Materialize accesses, optionally merging by lock region.
        let mut region_merged = 0u64;
        let mut accesses: Vec<(OriginId, AccessNode)> = Vec::with_capacity(indexed.len());
        if config.lock_region_merging {
            rep.clear();
            for &(origin, idx) in indexed {
                let a = shb.traces[origin.0 as usize].accesses[idx as usize];
                if rep.insert((origin.0, a.region, a.is_write)) {
                    accesses.push((origin, a));
                } else {
                    region_merged += 1;
                }
            }
        } else {
            for &(origin, idx) in indexed {
                let a = shb.traces[origin.0 as usize].accesses[idx as usize];
                accesses.push((origin, a));
            }
        }
        let mut flags: Vec<(bool, bool)> = Vec::new();
        for &(origin, _) in &accesses {
            let slot = origin.0 as usize;
            if slot >= flags.len() {
                flags.resize(slot + 1, (false, false));
            }
            // Allocator attribution only matters for multi-instance
            // origins (it gates self-races); skip the lookup otherwise.
            if !flags[slot].0 && is_multi(origin) {
                flags[slot] = (true, allocated_only_by(&key, origin));
            }
        }
        // Stage 3: a lock element held at *every* access (word-parallel
        // bitset fold over the canonical locksets) means every pair fails
        // the disjointness test — the outcome is a closed form.
        let common_guard = shb
            .locks
            .common_guard(accesses.iter().map(|(_, a)| a.lockset));
        if common_guard {
            stats.common_guard_locs += 1;
            stats.common_guard_pairs += raw_pairs;
        } else {
            stats.candidate_locs += 1;
            stats.candidate_pairs += raw_pairs;
        }
        let mut slots = Vec::new();
        if config.integer_hb && !(config.preloop_prune && common_guard) {
            slots.extend(accesses.iter().map(|&(o, a)| shb.closure_slot((o, a.pos))));
        }
        candidates.push(Candidate {
            key,
            accesses,
            slots,
            region_merged,
            flags,
            common_guard,
        });
    }
    (candidates, stats)
}

/// Phase 2 of [`detect`]: checks candidates one at a time, adding their
/// counters and first-seen races to `report`.
struct PairLoop<'a> {
    shb: &'a ShbGraph,
    config: &'a DetectConfig,
    deadline: Option<Instant>,
    /// One reachability row per [`ShbGraph::closure_slot`], filled on
    /// first use.
    closures: ClosureTable<'a>,
    /// Pairs checked so far; the deadline is read every 4096th.
    pair_tick: u64,
    /// [`dedup_key`]s of the races in `report`: candidate order fixes
    /// which copy of a race survives.
    seen: FastSet<(MemKey, GStmt, GStmt)>,
    report: RaceReport,
}

impl PairLoop<'_> {
    /// Adds the race unless one with its [`dedup_key`] is already in.
    fn push(&mut self, race: Race) {
        if self.seen.insert(dedup_key(&race)) {
            self.report.races.push(race);
        }
    }

    /// Checks every conflicting access pair of one candidate location.
    fn check(&mut self, cand: &Candidate) {
        let (shb, config) = (self.shb, self.config);
        let key = cand.key;
        let accesses = &cand.accesses;
        let multi = |o: OriginId| cand.flags.get(o.0 as usize).is_some_and(|f| f.0);
        let sole_alloc = |o: OriginId| cand.flags.get(o.0 as usize).is_some_and(|f| f.1);
        self.report.region_merged += cand.region_merged;

        if config.preloop_prune && cand.common_guard {
            let (pairs_checked, budget_hit) = synthesize_common_guard(cand, &multi, &sole_alloc);
            self.report.pairs_checked += pairs_checked;
            self.report.lock_pruned += pairs_checked;
            self.report.pairs_budget_hit |= budget_hit;
            return;
        }

        // Self-races of multi-instance origins: a write by an abstract
        // origin that stands for several runtime threads races with the
        // same write in another instance — unless a lock protects it or
        // the object is allocated per-instance inside the origin.
        for &(origin, a) in accesses {
            if a.is_write
                && multi(origin)
                && shb.locks.disjoint(a.lockset, a.lockset)
                && !sole_alloc(origin)
            {
                let side = RaceAccess {
                    origin,
                    stmt: a.stmt,
                    is_write: true,
                };
                self.push(Race {
                    key,
                    a: side,
                    b: side,
                });
            }
        }

        let mut pairs_here: usize = 0;
        'pairs: for i in 0..accesses.len() {
            for j in (i + 1)..accesses.len() {
                let (oa, a) = accesses[i];
                let (ob, b) = accesses[j];
                if !a.is_write && !b.is_write {
                    continue; // read-read
                }
                let same_origin = oa == ob;
                if same_origin && (!multi(oa) || sole_alloc(oa)) {
                    continue; // one runtime instance, or per-instance data
                }
                pairs_here += 1;
                if pairs_here > MAX_PAIRS_PER_LOCATION {
                    self.report.pairs_budget_hit = true;
                    break 'pairs;
                }
                self.report.pairs_checked += 1;
                self.pair_tick += 1;
                if self.pair_tick.is_multiple_of(4096) {
                    if let Some(d) = self.deadline {
                        if Instant::now() > d {
                            self.report.timed_out = true;
                            break 'pairs;
                        }
                    }
                }
                // Lockset check.
                let disjoint = if config.canonical_locksets {
                    shb.locks.disjoint(a.lockset, b.lockset)
                } else {
                    shb.locks.disjoint_uncached(a.lockset, b.lockset)
                };
                if !disjoint {
                    self.report.lock_pruned += 1;
                    continue;
                }
                // Happens-before check (both directions). Two instances
                // of a multi-instance origin are mutually unordered, so
                // same-origin pairs skip it.
                let pa = (oa, a.pos);
                let pb = (ob, b.pos);
                let ordered = if same_origin {
                    false
                } else if config.integer_hb {
                    // One reachability row per closure slot answers
                    // *every* sink in another origin with a search of a
                    // short row, so a slot queried against k partners
                    // costs one DFS, not k.
                    self.closures.reach(cand.slots[i], pa, ob) <= b.pos
                        || self.closures.reach(cand.slots[j], pb, oa) <= a.pos
                } else {
                    shb.happens_before_naive(pa, pb) || shb.happens_before_naive(pb, pa)
                };
                if ordered {
                    self.report.hb_pruned += 1;
                    continue;
                }
                self.push(Race {
                    key,
                    a: RaceAccess {
                        origin: oa,
                        stmt: a.stmt,
                        is_write: a.is_write,
                    },
                    b: RaceAccess {
                        origin: ob,
                        stmt: b.stmt,
                        is_write: b.is_write,
                    },
                });
            }
        }
    }
}

/// Closed-form outcome for a common-guard candidate: every enumerable
/// pair shares the common lock, so the loop would count it once as
/// `pairs_checked` and once as `lock_pruned` and find nothing — and the
/// self-race scan finds nothing either, because
/// [`o2_shb::LockTable::common_guard`] only accepts *self-excluding*
/// guards (a shared rdlock does not count), and a lockset holding one is
/// never self-disjoint. Reproduces the loop's counters exactly,
/// including the per-location pair budget:
///
/// `P = [C(n,2) − C(r,2)] − Σ_{o : !multi(o) ∨ sole_alloc(o)} [C(n_o,2) − C(r_o,2)]`
///
/// where `n`/`r` count accesses/reads and `n_o`/`r_o` count them per
/// origin (the subtracted term is the same-origin skip for
/// single-instance or per-instance-allocating origins; read-read pairs
/// are never counted). Returns the pairs checked (all lock-pruned) and
/// whether the pair budget was hit.
fn synthesize_common_guard(
    cand: &Candidate,
    multi: &impl Fn(OriginId) -> bool,
    sole_alloc: &impl Fn(OriginId) -> bool,
) -> (u64, bool) {
    // Pairs among `s`'s accesses that are not read-read.
    let countable_in = |s: &[(u32, bool)]| {
        let c2 = |n: u64| n * n.saturating_sub(1) / 2;
        c2(s.len() as u64) - c2(s.iter().filter(|&&(_, read)| read).count() as u64)
    };
    // Sorted by origin, each origin's accesses form one run.
    let mut sides: Vec<(u32, bool)> = cand
        .accesses
        .iter()
        .map(|&(o, a)| (o.0, !a.is_write))
        .collect();
    sides.sort_unstable();
    let mut countable = countable_in(&sides);
    for run in sides.chunk_by(|x, y| x.0 == y.0) {
        let o = OriginId(run[0].0);
        if !multi(o) || sole_alloc(o) {
            countable -= countable_in(run);
        }
    }
    let budget = MAX_PAIRS_PER_LOCATION as u64;
    (countable.min(budget), countable > budget)
}

/// Renders a memory location as `field` or `Class::field` for reports.
pub fn mem_key_label(program: &Program, key: MemKey) -> String {
    match key {
        MemKey::Field(_, f) => program.field_name(f).to_string(),
        MemKey::Static(c, f) => {
            format!("{}::{}", program.class(c).name, program.field_name(f))
        }
    }
}

/// Dedup key: races are counted per (location-up-to-field, unordered
/// statement pair), so the same code racing over many abstract objects is
/// reported once — matching how the paper counts reported races.
fn dedup_key(r: &Race) -> (MemKey, GStmt, GStmt) {
    let norm_key = match r.key {
        // Keep the field but drop the object so identical code pairs on
        // sibling objects collapse.
        MemKey::Field(_, f) => MemKey::Field(o2_pta::ObjId(u32::MAX), f),
        s @ MemKey::Static(..) => s,
    };
    let (s1, s2) = (r.a.stmt, r.b.stmt);
    (norm_key, s1.min(s2), s1.max(s2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_analysis::run_osa;
    use o2_ir::parser::parse;
    use o2_pta::{analyze, Policy, PtaConfig};
    use o2_shb::{build_shb, ShbConfig};

    fn detect_races(src: &str, policy: Policy, cfg: &DetectConfig) -> (o2_ir::Program, RaceReport) {
        let p = parse(src).unwrap();
        o2_ir::validate::assert_valid(&p);
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(policy),
        );
        let mut osa = run_osa(&o2_ir::ProgramCtx::solo(&p), &pta);
        let shb = build_shb(
            &o2_ir::ProgramCtx::solo(&p),
            &pta,
            &ShbConfig::default(),
            &mut osa.locs,
        );
        let report = detect(&o2_ir::ProgramCtx::solo(&p), &pta, &osa, &shb, cfg);
        (p, report)
    }

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
    fn detects_simple_race() {
        let (_, r) = detect_races(RACY, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 1);
        assert!(!r.races[0].is_write_write());
    }

    #[test]
    fn naive_engine_agrees_with_o2_engine() {
        let (_, r1) = detect_races(RACY, Policy::origin1(), &DetectConfig::o2());
        let (_, r2) = detect_races(RACY, Policy::origin1(), &DetectConfig::naive());
        assert_eq!(r1.races, r2.races);
    }

    #[test]
    fn join_establishes_order() {
        let src = r#"
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
                    join w;
                    x = s.data;
                }
            }
        "#;
        let (_, r) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 0, "join orders the read after the write");
        assert!(r.hb_pruned >= 1);
    }

    #[test]
    fn common_lock_prevents_race() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; sync (s) { s.data = s; } }
            }
            class Main {
                static method main() {
                    s = new S();
                    w = new W(s);
                    w.start();
                    sync (s) { x = s.data; }
                }
            }
        "#;
        let (_, r) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 0);
        assert!(r.lock_pruned >= 1);
    }

    #[test]
    fn different_locks_do_not_protect() {
        let src = r#"
            class S { field data; }
            class L { }
            class W impl Runnable {
                field s; field l;
                method <init>(s, l) { this.s = s; this.l = l; }
                method run() {
                    s = this.s; l = this.l;
                    sync (l) { s.data = s; }
                }
            }
            class Main {
                static method main() {
                    s = new S();
                    l1 = new L();
                    l2 = new L();
                    w = new W(s, l1);
                    w.start();
                    sync (l2) { x = s.data; }
                }
            }
        "#;
        let (_, r) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 1, "distinct locks do not order accesses");
    }

    #[test]
    fn write_write_between_two_threads() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; s.data = s; }
            }
            class Main {
                static method main() {
                    s = new S();
                    w1 = new W(s);
                    w2 = new W(s);
                    w1.start();
                    w2.start();
                }
            }
        "#;
        let (_, r) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 1);
        assert!(r.races[0].is_write_write());
    }

    #[test]
    fn events_on_same_dispatcher_do_not_race() {
        let src = r#"
            class G { field st; }
            class H impl EventHandler {
                method handleEvent(e) { G::st = e; }
            }
            class Main {
                static method main() {
                    h1 = new H();
                    h2 = new H();
                    e = new G();
                    h1.handleEvent(e);
                    h2.handleEvent(e);
                }
            }
        "#;
        let (_, r) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 0, "§4.2: one global lock per dispatcher");
    }

    #[test]
    fn event_vs_thread_races() {
        // The hallmark of the paper: a race between an event handler and a
        // thread (missed when events and threads are considered
        // separately).
        let src = r#"
            class G { field st; }
            class H impl EventHandler {
                method handleEvent(e) { G::st = e; }
            }
            class W impl Runnable {
                method run() { x = G::st; }
            }
            class Main {
                static method main() {
                    h = new H();
                    e = new G();
                    w = new W();
                    w.start();
                    h.handleEvent(e);
                }
            }
        "#;
        let (_, r) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 1, "threads meet events");
    }

    #[test]
    fn loop_spawned_threads_race_with_each_other() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; s.data = s; }
            }
            class Main {
                static method main() {
                    s = new S();
                    loop { w = new W(s); w.start(); }
                }
            }
        "#;
        let (_, r) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 1, "loop duplication exposes self-races");
        assert!(r.races[0].is_write_write());
    }

    #[test]
    fn opa_reports_fewer_false_races_than_insensitive() {
        // Per-thread state conflated by 0-ctx looks shared and racy; OPA
        // proves it origin-local (the Table 8 precision story).
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                method run() { s = new S(); s.data = s; x = s.data; }
            }
            class Main {
                static method main() {
                    w1 = new W();
                    w2 = new W();
                    w1.start();
                    w2.start();
                }
            }
        "#;
        let (_, r_opa) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        let (_, r_0) = detect_races(src, Policy::insensitive(), &DetectConfig::o2());
        assert_eq!(r_opa.num_races(), 0, "OPA: thread-local state");
        assert!(r_0.num_races() >= 1, "0-ctx: false positive");
    }

    #[test]
    fn region_merging_reduces_pairs_but_not_races() {
        let src = r#"
            class S { field a; field b; field c; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() {
                    s = this.s;
                    s.a = s; s.a = s; s.a = s; s.a = s;
                }
            }
            class Main {
                static method main() {
                    s = new S();
                    w1 = new W(s);
                    w2 = new W(s);
                    w1.start();
                    w2.start();
                }
            }
        "#;
        let (_, merged) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        let mut no_merge = DetectConfig::o2();
        no_merge.lock_region_merging = false;
        let (_, unmerged) = detect_races(src, Policy::origin1(), &no_merge);
        // Merging is sound on *locations*: the same set of racy locations
        // is found, with redundant per-statement pairs collapsed to one
        // representative (the point of the optimization).
        let keys = |r: &RaceReport| {
            r.races
                .iter()
                .map(|x| x.key)
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(keys(&merged), keys(&unmerged), "merging is sound");
        assert!(!merged.races.is_empty());
        assert!(merged.races.len() <= unmerged.races.len());
        assert!(
            merged.pairs_checked < unmerged.pairs_checked,
            "merging reduces checked pairs: {} vs {}",
            merged.pairs_checked,
            unmerged.pairs_checked
        );
        assert!(merged.region_merged > 0);
    }

    #[test]
    fn report_renders() {
        let (p, r) = detect_races(RACY, Policy::origin1(), &DetectConfig::o2());
        let text = r.render(&p);
        assert!(text.contains("race #1"), "{text}");
        assert!(text.contains("data"), "{text}");
    }

    #[test]
    fn empty_program_has_no_races() {
        let src = "class Main { static method main() { } }";
        let (p, r) = detect_races(src, Policy::origin1(), &DetectConfig::o2());
        assert_eq!(r.num_races(), 0);
        assert!(r.render(&p).contains("no races"));
    }
}

#[cfg(test)]
mod sync_semantics_tests {
    use super::*;
    use o2_analysis::run_osa;
    use o2_ir::parser::parse;
    use o2_pta::{analyze, Policy, PtaConfig};
    use o2_shb::{build_shb, ShbConfig};

    fn races(src: &str, cfg: &DetectConfig) -> RaceReport {
        let p = parse(src).unwrap();
        o2_ir::validate::assert_valid(&p);
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let mut osa = run_osa(&o2_ir::ProgramCtx::solo(&p), &pta);
        let shb = build_shb(
            &o2_ir::ProgramCtx::solo(&p),
            &pta,
            &ShbConfig::default(),
            &mut osa.locs,
        );
        detect(&o2_ir::ProgramCtx::solo(&p), &pta, &osa, &shb, cfg)
    }

    /// Every fixture must agree across the o2 engine, the naive engine,
    /// and preloop_prune on/off — the ISSUE's determinism bar.
    fn races_all_engines(src: &str) -> RaceReport {
        let o2 = races(src, &DetectConfig::o2());
        let naive = races(src, &DetectConfig::naive());
        assert_eq!(o2.races, naive.races, "naive engine disagrees");
        let mut no_prune = DetectConfig::o2();
        no_prune.preloop_prune = false;
        let unpruned = races(src, &no_prune);
        assert_eq!(o2.races, unpruned.races, "preloop_prune changes races");
        o2
    }

    // ---- reader-writer locks -------------------------------------------

    /// Positive: a write under only the read side of an rwlock races with
    /// the same write in another reader (rdlock does not exclude rdlock).
    #[test]
    fn write_under_rdlock_races_with_other_reader() {
        let src = r#"
            class S { field hits; }
            class R impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; rwread (s) { s.hits = s; } }
            }
            class Main {
                static method main() {
                    s = new S();
                    r1 = new R(s);
                    r2 = new R(s);
                    r1.start();
                    r2.start();
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 1, "{:?}", r.races);
        assert!(r.races[0].is_write_write());
    }

    /// Negative: a read under rdlock is excluded by a write under wrlock
    /// on the same lock object.
    #[test]
    fn rdlock_read_vs_wrlock_write_is_protected() {
        let src = r#"
            class S { field data; }
            class R impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; rwread (s) { x = s.data; } }
            }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; rwwrite (s) { s.data = s; } }
            }
            class Main {
                static method main() {
                    s = new S();
                    r = new R(s);
                    w = new W(s);
                    r.start();
                    w.start();
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
        assert!(r.lock_pruned >= 1);
    }

    /// Negative: two writers under wrlock are mutually exclusive.
    #[test]
    fn wrlock_writers_are_exclusive() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; rwwrite (s) { s.data = s; } }
            }
            class Main {
                static method main() {
                    s = new S();
                    w1 = new W(s);
                    w2 = new W(s);
                    w1.start();
                    w2.start();
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
    }

    /// Positive: a loop-spawned origin writing under only rdlock must
    /// self-race — a pure-reader lockset is disjoint from itself, so an
    /// `a == b` shortcut in the disjointness check would silently
    /// suppress this.
    #[test]
    fn loop_spawned_writes_under_rdlock_self_race() {
        let src = r#"
            class S { field hits; }
            class R impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; rwread (s) { s.hits = s; } }
            }
            class Main {
                static method main() {
                    s = new S();
                    r = new R(s);
                    loop { r.start(); }
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 1, "{:?}", r.races);
        assert!(r.races[0].is_write_write());
    }

    /// Negative counterpart: the same loop-spawned shape under wrlock is
    /// clean (instances exclude each other).
    #[test]
    fn loop_spawned_writes_under_wrlock_are_clean() {
        let src = r#"
            class S { field hits; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; rwwrite (s) { s.hits = s; } }
            }
            class Main {
                static method main() {
                    s = new S();
                    w = new W(s);
                    loop { w.start(); }
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
    }

    // ---- condition variables -------------------------------------------

    /// Negative: notify → wait-return orders a pre-notify write before a
    /// post-wait read even when neither access holds a lock.
    #[test]
    fn notify_wait_edge_orders_handoff() {
        let src = r#"
            class Q { field payload; }
            class Cond { }
            class Producer impl Runnable {
                field q; field m; field c;
                method <init>(q, m, c) { this.q = q; this.m = m; this.c = c; }
                method run() {
                    q = this.q; m = this.m; c = this.c;
                    q.payload = q;
                    sync (m) { notify c; }
                }
            }
            class Consumer impl Runnable {
                field q; field m; field c;
                method <init>(q, m, c) { this.q = q; this.m = m; this.c = c; }
                method run() {
                    q = this.q; m = this.m; c = this.c;
                    sync (m) { wait (c, m); }
                    x = q.payload;
                }
            }
            class Main {
                static method main() {
                    q = new Q();
                    m = new Cond();
                    c = new Cond();
                    p = new Producer(q, m, c);
                    w = new Consumer(q, m, c);
                    p.start();
                    w.start();
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
        assert!(r.hb_pruned >= 1);
    }

    /// Positive: a write issued *after* the notify is not ordered against
    /// the post-wait side — the edge runs notify → wait-return only.
    #[test]
    fn post_notify_write_still_races() {
        let src = r#"
            class Q { field stat; }
            class Cond { }
            class Producer impl Runnable {
                field q; field m; field c;
                method <init>(q, m, c) { this.q = q; this.m = m; this.c = c; }
                method run() {
                    q = this.q; m = this.m; c = this.c;
                    sync (m) { notify c; }
                    q.stat = q;
                }
            }
            class Consumer impl Runnable {
                field q; field m; field c;
                method <init>(q, m, c) { this.q = q; this.m = m; this.c = c; }
                method run() {
                    q = this.q; m = this.m; c = this.c;
                    sync (m) { wait (c, m); }
                    q.stat = q;
                }
            }
            class Main {
                static method main() {
                    q = new Q();
                    m = new Cond();
                    c = new Cond();
                    p = new Producer(q, m, c);
                    w = new Consumer(q, m, c);
                    p.start();
                    w.start();
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 1, "{:?}", r.races);
        assert!(r.races[0].is_write_write());
    }

    /// Positive: a notify on a *different* condition variable provides no
    /// ordering — the handoff of `notify_wait_edge_orders_handoff` with
    /// mismatched condvars races.
    #[test]
    fn unrelated_condvar_gives_no_order() {
        let src = r#"
            class Q { field payload; }
            class Cond { }
            class Producer impl Runnable {
                field q; field m; field c;
                method <init>(q, m, c) { this.q = q; this.m = m; this.c = c; }
                method run() {
                    q = this.q; m = this.m; c = this.c;
                    q.payload = q;
                    sync (m) { notify c; }
                }
            }
            class Consumer impl Runnable {
                field q; field m; field c;
                method <init>(q, m, c) { this.q = q; this.m = m; this.c = c; }
                method run() {
                    q = this.q; m = this.m; c = this.c;
                    sync (m) { wait (c, m); }
                    x = q.payload;
                }
            }
            class Main {
                static method main() {
                    q = new Q();
                    m = new Cond();
                    c1 = new Cond();
                    c2 = new Cond();
                    p = new Producer(q, m, c1);
                    w = new Consumer(q, m, c2);
                    p.start();
                    w.start();
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 1, "{:?}", r.races);
    }

    /// The wait splits its critical section: two accesses in the same
    /// `sync` block on either side of a `wait` are in different lock
    /// regions, so region merging must not collapse them.
    #[test]
    fn wait_splits_the_critical_section() {
        let src = r#"
            class Q { field a; }
            class Cond { }
            class W impl Runnable {
                field q; field m; field c;
                method <init>(q, m, c) { this.q = q; this.m = m; this.c = c; }
                method run() {
                    q = this.q; m = this.m; c = this.c;
                    sync (m) { q.a = q; wait (c, m); q.a = q; }
                }
            }
            class Main {
                static method main() {
                    q = new Q();
                    m = new Cond();
                    c = new Cond();
                    w = new W(q, m, c);
                    loop { w.start(); }
                }
            }
        "#;
        // Both writes hold the mutex, so instances never race — but the
        // two writes must survive region merging as separate accesses.
        let r = races(src, &DetectConfig::o2());
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
        assert_eq!(r.region_merged, 0, "wait must split the lock region");
    }

    // ---- async-executor origins ----------------------------------------

    /// Negative: tasks queued on the same single-threaded executor are
    /// serialized by the executor itself.
    #[test]
    fn same_single_threaded_executor_tasks_do_not_race() {
        let src = r#"
            class S { field data; }
            class T {
                static method taskA(s) { s.data = s; }
                static method taskB(s) { s.data = s; }
            }
            class Main {
                static method main() {
                    s = new S();
                    spawn task(0) T::taskA(s);
                    spawn task(0) T::taskB(s);
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
    }

    /// Positive: the same two tasks on *different* executors race.
    #[test]
    fn tasks_on_different_executors_race() {
        let src = r#"
            class S { field data; }
            class T {
                static method taskA(s) { s.data = s; }
                static method taskB(s) { s.data = s; }
            }
            class Main {
                static method main() {
                    s = new S();
                    spawn task(0) T::taskA(s);
                    spawn task(1) T::taskB(s);
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 1, "{:?}", r.races);
    }

    /// Positive: a multi-worker executor provides no serialization — its
    /// tasks race with each other.
    #[test]
    fn multi_worker_executor_tasks_race() {
        let src = r#"
            class S { field data; }
            class T {
                static method taskA(s) { s.data = s; }
                static method taskB(s) { s.data = s; }
            }
            class Main {
                static method main() {
                    s = new S();
                    spawn task(0, 4) T::taskA(s);
                    spawn task(0, 4) T::taskB(s);
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 1, "{:?}", r.races);
    }

    /// Positive: the paper's hallmark extended to async — a task on a
    /// single-threaded executor still races with a plain thread.
    #[test]
    fn task_vs_thread_races() {
        let src = r#"
            class S { field data; }
            class T {
                static method onIo(s) { x = s.data; }
                static method work(s) { s.data = s; }
            }
            class Main {
                static method main() {
                    s = new S();
                    spawn task(0) T::onIo(s);
                    spawn thread T::work(s);
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 1, "{:?}", r.races);
    }

    /// An await point bumps the lock region (handler boundary) without
    /// destroying the executor's serialization.
    #[test]
    fn await_points_keep_executor_serialization() {
        let src = r#"
            class S { field data; }
            class T {
                static method taskA(s) { s.data = s; await; s.data = s; }
                static method taskB(s) { await; s.data = s; }
            }
            class Main {
                static method main() {
                    s = new S();
                    spawn task(0) T::taskA(s);
                    spawn task(0) T::taskB(s);
                }
            }
        "#;
        let r = races_all_engines(src);
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
    }
}

#[cfg(test)]
mod multi_instance_tests {
    use super::*;
    use o2_analysis::run_osa;
    use o2_ir::parser::parse;
    use o2_pta::{analyze, Policy, PtaConfig};
    use o2_shb::{build_shb, ShbConfig};

    fn races(src: &str, policy: Policy) -> RaceReport {
        let p = parse(src).unwrap();
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(policy),
        );
        let mut osa = run_osa(&o2_ir::ProgramCtx::solo(&p), &pta);
        let shb = build_shb(
            &o2_ir::ProgramCtx::solo(&p),
            &pta,
            &ShbConfig::default(),
            &mut osa.locs,
        );
        detect(
            &o2_ir::ProgramCtx::solo(&p),
            &pta,
            &osa,
            &shb,
            &DetectConfig::o2(),
        )
    }

    /// A thread object allocated once but started in a loop stands for
    /// arbitrarily many concurrent activations: its unprotected writes to
    /// externally allocated state must self-race.
    #[test]
    fn started_in_loop_origin_self_races() {
        let src = r#"
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
                    loop { w.start(); }
                }
            }
        "#;
        let r = races(src, Policy::origin1());
        assert_eq!(r.num_races(), 1, "{:?}", r.races);
        assert!(r.races[0].is_write_write());
    }

    /// The same shape with a lock is race-free (instances share the lock).
    #[test]
    fn started_in_loop_with_lock_is_clean() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; sync (s) { s.data = s; } }
            }
            class Main {
                static method main() {
                    s = new S();
                    w = new W(s);
                    loop { w.start(); }
                }
            }
        "#;
        let r = races(src, Policy::origin1());
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
    }

    /// Per-instance allocations inside a multi-instance origin never
    /// self-race (each runtime thread gets a fresh object).
    #[test]
    fn per_instance_allocations_do_not_self_race() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                method run() { s = new S(); s.data = s; }
            }
            class Main {
                static method main() {
                    w = new W();
                    loop { w.start(); }
                }
            }
        "#;
        let r = races(src, Policy::origin1());
        assert_eq!(r.num_races(), 0, "{:?}", r.races);
    }
}
