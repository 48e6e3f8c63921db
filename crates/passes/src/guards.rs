//! Guarded-by inference.
//!
//! For every memory location that still has a live race, the pass looks
//! at *all* accesses to that location recorded in the SHB traces and
//! counts, per lock element, how many accesses hold it. If one lock (the
//! *dominant guard*) covers a majority of the accesses, the location has
//! an inferred locking discipline and the races on it are re-scored:
//!
//! - dominant guard held on **all but one** access → demote. The single
//!   stray access is typically initialization or shutdown code that the
//!   static analysis cannot order; the location is effectively guarded.
//! - dominant guard held on a **majority but violated more than once**
//!   → promote as a consistent-guard violation, naming the inferred
//!   guard in the report: the developers clearly intended a discipline
//!   and the race breaks it.
//!
//! Locations with no dominant guard (e.g. the planted races of the
//! `realbugs` models, which hold no locks at all) are untouched.

use crate::triage::{GUARD_VIOLATION_BONUS, MOSTLY_GUARDED_PENALTY};
use crate::{AnalysisCtx, PassStats, TriagedRace};
use o2_analysis::osa::MemKey;
use o2_ir::program::Program;
use o2_pta::PtaResult;
use o2_shb::{LockElem, LockTable};
use std::collections::BTreeMap;

/// An inferred locking discipline for one memory location.
#[derive(Clone, Debug)]
pub struct GuardInference {
    /// The dominant lock element (raw lock-table id).
    pub elem: u32,
    /// Accesses that hold the dominant lock.
    pub covered: u32,
    /// Total accesses to the location.
    pub total: u32,
}

/// The guarded-by inference pass: infers a dominant guard per racy
/// location and demotes or promotes the races on it.
pub fn score_guards(ctx: &AnalysisCtx<'_>, races: &mut [TriagedRace]) -> PassStats {
    // Infer a dominant guard per racy location.
    let keys: BTreeMap<MemKey, ()> = races.iter().map(|tr| (tr.race.key, ())).collect();
    let mut inferred: BTreeMap<MemKey, GuardInference> = BTreeMap::new();
    for &key in keys.keys() {
        if let Some(inf) = infer_guard(ctx, key) {
            inferred.insert(key, inf);
        }
    }
    let mut demoted = 0u64;
    let mut promoted = 0u64;
    for tr in races {
        let Some(inf) = inferred.get(&tr.race.key) else {
            continue;
        };
        let label = lock_elem_label(ctx.program, ctx.pta, ctx.locks(), inf.elem);
        if inf.covered + 1 == inf.total {
            tr.score += MOSTLY_GUARDED_PENALTY;
            tr.notes.push(format!(
                "mostly guarded by {label}: {}/{} accesses hold it (single stray access)",
                inf.covered, inf.total
            ));
            demoted += 1;
        } else {
            tr.score += GUARD_VIOLATION_BONUS;
            tr.notes.push(format!(
                "inconsistent guard {label}: held on {}/{} accesses",
                inf.covered, inf.total
            ));
            promoted += 1;
        }
    }
    vec![
        ("locations_inferred", inferred.len() as u64),
        ("demoted", demoted),
        ("promoted", promoted),
    ]
}

/// Infers the dominant guard of `key` from the SHB access index: the
/// lock element held at the most accesses, provided it covers a strict
/// majority and at least two accesses. Ties break toward the smallest
/// element id, so inference is deterministic.
pub fn infer_guard(ctx: &AnalysisCtx<'_>, key: MemKey) -> Option<GuardInference> {
    let loc = ctx.osa.locs.lookup(&key)?;
    let accesses = ctx.shb.accesses_of(loc);
    let total = accesses.len() as u32;
    if total < 3 {
        // With fewer than three accesses "all but one" and "majority"
        // degenerate; no discipline can be inferred.
        return None;
    }
    let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
    for &(origin, idx) in accesses {
        let node = &ctx.shb.traces[origin.0 as usize].accesses[idx as usize];
        for &elem in ctx.locks().set_elems(node.lockset) {
            // Guard-mode awareness: both sides of a reader-writer lock
            // count toward the same inferred guard (represented by the
            // write-side element id), but the read side covers *reads
            // only* — a write under just `rdlock` is a discipline
            // violation, exactly what this pass exists to surface.
            let counted = match ctx.locks().elem_data(elem) {
                LockElem::RwRead(_) => {
                    if node.is_write {
                        continue;
                    }
                    ctx.locks().conflict_ids(elem)[0]
                }
                _ => elem,
            };
            *counts.entry(counted).or_insert(0) += 1;
        }
    }
    let (&elem, &covered) = counts
        .iter()
        .max_by_key(|&(e, c)| (*c, std::cmp::Reverse(*e)))?;
    if covered >= 2 && covered * 2 > total && covered < total {
        Some(GuardInference {
            elem,
            covered,
            total,
        })
    } else {
        None
    }
}

/// Human-readable name of a lock element, e.g. `Lock#5`, `G.class`,
/// `dispatcher#0`, or `S.f (atomic)`.
pub fn lock_elem_label(program: &Program, pta: &PtaResult, locks: &LockTable, elem: u32) -> String {
    match locks.elem_data(elem) {
        LockElem::Obj(obj) if obj.0 < pta.arena.num_objects() as u32 => {
            format!(
                "{}#{}",
                program.class(pta.arena.obj_data(obj).class).name,
                obj.0
            )
        }
        LockElem::Obj(obj) => format!("unknown-lock#{}", u32::MAX - obj.0),
        LockElem::Class(c) => format!("{}.class", program.class(c).name),
        LockElem::Dispatcher(d) => format!("dispatcher#{d}"),
        LockElem::RwRead(obj) if obj.0 < pta.arena.num_objects() as u32 => format!(
            "{}#{} (rdlock)",
            program.class(pta.arena.obj_data(obj).class).name,
            obj.0
        ),
        LockElem::RwRead(obj) => format!("unknown-rwlock#{} (rdlock)", u32::MAX - obj.0),
        LockElem::RwWrite(obj) if obj.0 < pta.arena.num_objects() as u32 => format!(
            "{}#{} (rwlock)",
            program.class(pta.arena.obj_data(obj).class).name,
            obj.0
        ),
        LockElem::RwWrite(obj) => format!("unknown-rwlock#{} (rwlock)", u32::MAX - obj.0),
        LockElem::Executor(e) => format!("executor#{e}"),
        LockElem::AtomicCell(obj, f) => {
            let cls = if obj.0 < pta.arena.num_objects() as u32 {
                program.class(pta.arena.obj_data(obj).class).name.clone()
            } else {
                "?".to_string()
            };
            format!("{}.{} (atomic)", cls, program.field_name(f))
        }
    }
}
