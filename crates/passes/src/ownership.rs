//! Ownership / publication pruning.
//!
//! The "True Positives Theorem" observation (Gorogiannis, O'Hearn &
//! Sergey, 2018): an object that never leaves its allocating origin
//! cannot participate in a race, no matter how badly a weak context
//! abstraction conflates its accesses. Two rules, both sound:
//!
//! 1. **Owned objects.** If thread-escape analysis proves the object is
//!    never published — it is not stored in a static, is not an origin
//!    object, is not passed into a spawn/entry call, and is not heap-
//!    reachable from anything that is — then only the allocating origin
//!    instance can touch it, and every race on its fields is pruned.
//!
//! 2. **Pre-publication accesses.** If the object *is* published, the
//!    accesses that happen in the allocating method before the first
//!    statement that can publish it still touch a freshly allocated,
//!    still-confined object. A pair of such accesses is executed by one
//!    origin instance in program order and cannot race. This rule only
//!    applies when the abstract object enters the allocating method
//!    exclusively through its `new` (never via parameters or heap
//!    loads), so "fresh" really means this invocation's object.
//!
//! Under the origin-sensitive policy the detector's HB edges already
//! realize most of this reasoning; the pass earns its keep under weaker
//! policies (0-ctx, k-CFA), where conflated bait objects survive into
//! the race list — the Table 8 precision gap.

use crate::{AnalysisCtx, PassStats, PrunedRace, TriagedRace};
use o2_analysis::osa::MemKey;
use o2_analysis::run_escape;
use o2_ir::ids::GStmt;
use o2_ir::program::{Callee, Method, Stmt};
use o2_pta::{AllocSite, Mi, ObjId, PtaResult};

/// The ownership/publication pruning pass: moves every race that rule 1
/// or rule 2 proves impossible from `races` to `pruned`.
pub fn prune_owned(
    ctx: &AnalysisCtx<'_>,
    races: &mut Vec<TriagedRace>,
    pruned: &mut Vec<PrunedRace>,
) -> PassStats {
    let escape = run_escape(ctx.program, ctx.pta);
    let mut owned_pruned = 0u64;
    let mut prepub_pruned = 0u64;
    races.retain(|tr| {
        let obj = match tr.race.key {
            MemKey::Field(obj, _) if obj.0 != u32::MAX => obj,
            _ => return true,
        };
        let reason = if !escape.escapes(obj) {
            owned_pruned += 1;
            format!(
                "owned object: {} never escapes its allocating origin",
                obj_label(ctx, obj)
            )
        } else if pre_publication_pair(ctx, obj, tr.race.a.stmt, tr.race.b.stmt) {
            prepub_pruned += 1;
            format!(
                "pre-publication accesses: both touch {} before it is first published",
                obj_label(ctx, obj)
            )
        } else {
            return true;
        };
        pruned.push(PrunedRace {
            race: tr.race,
            reason,
        });
        false
    });
    vec![
        ("owned_pruned", owned_pruned),
        ("prepub_pruned", prepub_pruned),
        ("kept", races.len() as u64),
    ]
}

fn obj_label(ctx: &AnalysisCtx<'_>, obj: ObjId) -> String {
    let data = ctx.pta.arena.obj_data(obj);
    format!("{}#{}", ctx.program.class(data.class).name, obj.0)
}

/// The reachable method instances of the method containing `stmt`.
fn mis_of_method(pta: &PtaResult, method: o2_ir::ids::MethodId) -> Vec<Mi> {
    pta.reachable_mis()
        .filter(|&mi| pta.mi_data(mi).0 == method)
        .collect()
}

/// `true` if some reachable instance of the enclosing method may see
/// `obj` in variable `v`.
fn may_hold(pta: &PtaResult, mis: &[Mi], v: o2_ir::ids::VarId, obj: ObjId) -> bool {
    mis.iter().any(|&mi| pta.pts_var(mi, v).contains(&obj.0))
}

/// Implements rule 2: both `a` and `b` lie in the allocating method of
/// `obj`, strictly before its first possible publication, and `obj` can
/// only enter that method through its allocation.
fn pre_publication_pair(ctx: &AnalysisCtx<'_>, obj: ObjId, a: GStmt, b: GStmt) -> bool {
    let site = ctx.pta.arena.obj_data(obj).site;
    let alloc = match site {
        AllocSite::Stmt { stmt, .. } => stmt,
        _ => return false,
    };
    if a.method != alloc.method || b.method != alloc.method {
        return false;
    }
    let method = ctx.program.method(alloc.method);
    let mis = mis_of_method(ctx.pta, alloc.method);
    if mis.is_empty() {
        return false;
    }
    // The abstract object must enter the method only through its `new`:
    // not via a parameter, and not via any load or call result.
    let first_param = usize::from(!method.is_static);
    for p in 0..method.num_params + first_param {
        if may_hold(ctx.pta, &mis, o2_ir::ids::VarId(p as u32), obj) {
            return false;
        }
    }
    let Some(pub_idx) = publication_index(ctx.pta, &mis, method, alloc.index as usize, obj) else {
        return false;
    };
    let in_window = |g: GStmt| {
        let i = g.index as usize;
        i >= alloc.index as usize && i < pub_idx
    };
    in_window(a) && in_window(b)
}

/// The first body index at or after the allocation where `obj` may be
/// published (stored into the heap, passed to a call or spawn, or
/// returned), or where it re-enters via a load. `None` if a re-entering
/// load appears first (rule 2 then does not apply).
fn publication_index(
    pta: &PtaResult,
    mis: &[Mi],
    method: &Method,
    alloc_idx: usize,
    obj: ObjId,
) -> Option<usize> {
    for (i, instr) in method.body.iter().enumerate().skip(alloc_idx + 1) {
        let holds = |v: &o2_ir::ids::VarId| may_hold(pta, mis, *v, obj);
        match &instr.stmt {
            // Loads and call results may re-introduce a previously
            // published concrete object into a variable: if such a
            // definition can hold `obj`, freshness is lost.
            Stmt::LoadField { dst, .. }
            | Stmt::LoadStatic { dst, .. }
            | Stmt::LoadArray { dst, .. }
            | Stmt::AtomicLoad { dst, .. }
                if holds(dst) =>
            {
                return None;
            }
            Stmt::StoreField { src, .. }
            | Stmt::StoreArray { src, .. }
            | Stmt::StoreStatic { src, .. }
            | Stmt::AtomicStore { src, .. }
                if holds(src) =>
            {
                return Some(i);
            }
            Stmt::Return { src: Some(src) } if holds(src) => {
                return Some(i);
            }
            Stmt::New { dst, args, .. } => {
                if args.iter().any(holds) {
                    return Some(i); // constructor may publish it
                }
                if holds(dst) {
                    return None; // another site folds into this object
                }
            }
            Stmt::Spawn { args, .. } if args.iter().any(holds) => {
                return Some(i);
            }
            Stmt::Call { dst, callee, args } => {
                let recv_holds = match callee {
                    Callee::Virtual { recv, .. } => holds(recv),
                    Callee::Static { .. } => false,
                };
                if recv_holds || args.iter().any(holds) {
                    return Some(i); // callee may publish it
                }
                if dst.as_ref().is_some_and(holds) {
                    return None;
                }
            }
            _ => {}
        }
    }
    // Never published inside the allocator: every in-method access is
    // pre-publication.
    Some(method.body.len())
}
