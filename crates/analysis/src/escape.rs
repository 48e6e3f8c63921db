//! Classic thread-escape analysis — the baseline OSA is compared against
//! in §5.1.2 (Table 7).
//!
//! An object *escapes* its creating thread if it may become reachable from
//! another thread: it is stored in a static field, it is a thread/handler
//! object itself, it is passed into an origin (constructor arguments of an
//! origin allocation, entry-call arguments, spawn arguments), or it is
//! reachable from any escaping object through the heap. Every access to an
//! escaping object is conservatively treated as shared.
//!
//! This is deliberately the *coarse* answer: escape analysis says only
//! *whether* an object may be shared, with no information about which
//! origins read or write it — the distinction the paper's OSA adds.
//!
//! [`run_escape`] computes only the escaped-object set, which is all the
//! ownership pass of the precision pipeline reads. The count of accesses
//! to escaping objects ([`EscapeResult::num_shared_accesses`], Table 7's
//! column) rescans every reachable method instance, so it is a separate
//! call that only Table 7 makes.

use o2_ir::ids::GStmt;
use o2_ir::program::{Program, Stmt};
use o2_ir::util::BitSet;
use o2_pta::{ObjId, PtaResult};
use std::collections::BTreeSet;

/// The result of thread-escape analysis: the escaping objects.
#[derive(Clone, Debug)]
pub struct EscapeResult {
    /// Raw ids of escaping abstract objects.
    pub escaped: BitSet,
}

impl EscapeResult {
    /// Returns `true` if `obj` escapes.
    pub fn escapes(&self, obj: ObjId) -> bool {
        self.escaped.contains(obj.0)
    }

    /// Number of access statements that touch at least one escaping
    /// object (comparable to OSA's `#S-access`, but without read/write
    /// origin information). Rescans every reachable method instance.
    pub fn num_shared_accesses(&self, program: &Program, pta: &PtaResult) -> usize {
        // Any access whose base may point to an escaping object, and
        // every static access. A statement counts once, however many
        // instances of its method are reachable.
        let mut shared = BTreeSet::new();
        for mi in pta.reachable_mis() {
            let (method_id, _) = pta.mi_data(mi);
            let method = program.method(method_id);
            for (idx, instr) in method.body.iter().enumerate() {
                let is_shared = match instr.stmt.field_access() {
                    Some((base, _, _)) => pta
                        .pts_var(mi, base)
                        .iter()
                        .any(|&o| self.escaped.contains(o)),
                    None => instr.stmt.static_access().is_some(),
                };
                if is_shared {
                    shared.insert(GStmt::new(method_id, idx));
                }
            }
        }
        shared.len()
    }
}

/// Runs thread-escape analysis over a pointer-analysis result.
pub fn run_escape(program: &Program, pta: &PtaResult) -> EscapeResult {
    let num_objects = pta.arena.num_objects();
    let mut escaped = BitSet::with_capacity(num_objects);
    let mut worklist: Vec<u32> = Vec::new();
    let mark = |o: u32, escaped: &mut BitSet, worklist: &mut Vec<u32>| {
        if escaped.insert(o) {
            worklist.push(o);
        }
    };

    // Seed 1: everything stored in (or loaded from) static fields.
    for (_, _, pts) in pta.static_field_entries() {
        for &o in pts {
            mark(o, &mut escaped, &mut worklist);
        }
    }
    // Seed 2: thread/handler objects themselves and everything passed into
    // an origin: constructor arguments of origin allocations, entry-call
    // arguments, spawn arguments.
    for mi in pta.reachable_mis() {
        let (method_id, _) = pta.mi_data(mi);
        let method = program.method(method_id);
        for (idx, instr) in method.body.iter().enumerate() {
            match &instr.stmt {
                Stmt::New { dst, class, args } if program.is_origin_class(*class) => {
                    for &o in pta.pts_var(mi, *dst) {
                        mark(o, &mut escaped, &mut worklist);
                    }
                    for a in args {
                        for &o in pta.pts_var(mi, *a) {
                            mark(o, &mut escaped, &mut worklist);
                        }
                    }
                }
                Stmt::Spawn { args, .. } => {
                    for a in args {
                        for &o in pta.pts_var(mi, *a) {
                            mark(o, &mut escaped, &mut worklist);
                        }
                    }
                }
                Stmt::Call { callee, args, .. } => {
                    // Entry calls pass their arguments across origins.
                    let is_entry = pta.callees(mi, idx).iter().any(|t| t.origin().is_some());
                    if is_entry {
                        if let o2_ir::program::Callee::Virtual { recv, .. } = callee {
                            for &o in pta.pts_var(mi, *recv) {
                                mark(o, &mut escaped, &mut worklist);
                            }
                        }
                        for a in args {
                            for &o in pta.pts_var(mi, *a) {
                                mark(o, &mut escaped, &mut worklist);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Closure: fields of escaping objects escape.
    // Build an index obj -> union of field points-to once.
    let mut field_pts: Vec<Vec<u32>> = vec![Vec::new(); num_objects];
    for (obj, _, pts) in pta.obj_field_entries() {
        field_pts[obj.0 as usize].extend_from_slice(pts);
    }
    while let Some(o) = worklist.pop() {
        for &s in &field_pts[o as usize] {
            mark(s, &mut escaped, &mut worklist);
        }
    }

    EscapeResult { escaped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::osa::run_osa;
    use o2_ir::parser::parse;
    use o2_pta::{analyze, Policy, PtaConfig};

    /// `g` goes into a static; `i` hangs off `g`'s heap.
    const STATIC_REACHABLE: &str = r#"
        class G { field cfg; }
        class Inner { }
        class Main {
            static method main() {
                g = new G();
                i = new Inner();
                g.cfg = i;
                G::root = g;
            }
        }
    "#;

    /// One object, never published.
    const LOCAL_ONLY: &str = r#"
        class S { field data; }
        class Main {
            static method main() {
                s = new S();
                s.data = s;
            }
        }
    "#;

    /// A static used by main alone, next to an idle thread.
    const SINGLE_ORIGIN_STATIC: &str = r#"
        class G { field cfg; }
        class W impl Runnable { method run() { } }
        class Main {
            static method main() {
                g = new G();
                G::cfg = g;
                h = G::cfg;
                x = g.cfg;
                g.cfg = g;
                w = new W();
                w.start();
            }
        }
    "#;

    /// `s` is handed to a thread through its constructor.
    const PASSED_TO_THREAD: &str = r#"
        class S { field data; }
        class W impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { }
        }
        class Main {
            static method main() {
                s = new S();
                w = new W(s);
                w.start();
            }
        }
    "#;

    fn escape_of(src: &str, policy: Policy) -> (Program, PtaResult, EscapeResult) {
        let p = parse(src).unwrap();
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(policy),
        );
        let esc = run_escape(&p, &pta);
        (p, pta, esc)
    }

    #[test]
    fn static_reachable_objects_escape() {
        let (_, _, esc) = escape_of(STATIC_REACHABLE, Policy::insensitive());
        // Both g and i (reachable through g.cfg) escape.
        assert_eq!(esc.escaped.len(), 2);
    }

    #[test]
    fn local_objects_do_not_escape() {
        let (p, pta, esc) = escape_of(LOCAL_ONLY, Policy::insensitive());
        assert!(esc.escaped.is_empty());
        assert_eq!(esc.num_shared_accesses(&p, &pta), 0);
    }

    #[test]
    fn escape_is_coarser_than_osa() {
        // A static variable used by only one origin: OSA reports it local,
        // escape analysis conservatively reports every access to it shared
        // (the precision advantage claimed in §3.3).
        let (p, pta, esc) = escape_of(SINGLE_ORIGIN_STATIC, Policy::origin1());
        let osa = run_osa(&o2_ir::ProgramCtx::solo(&p), &pta);
        assert_eq!(
            osa.num_shared_accesses(),
            0,
            "OSA: single-origin statics are local"
        );
        assert!(
            esc.num_shared_accesses(&p, &pta) >= 3,
            "escape analysis flags all accesses to static-reachable objects"
        );
    }

    #[test]
    fn objects_passed_to_threads_escape() {
        let (_, _, esc) = escape_of(PASSED_TO_THREAD, Policy::origin1());
        // s and the thread object w both escape.
        assert_eq!(esc.escaped.len(), 2);
    }

    /// The escaped objects (as `Class#id`) and the shared-access count of
    /// every fixture, pinned so a change to how the set is computed or
    /// stored cannot move either unseen.
    #[test]
    fn escaped_sets_are_pinned() {
        let cases: [(&str, Policy, &[&str], usize); 6] = [
            (
                STATIC_REACHABLE,
                Policy::insensitive(),
                &["G#0", "Inner#1"],
                2,
            ),
            (LOCAL_ONLY, Policy::insensitive(), &[], 0),
            (SINGLE_ORIGIN_STATIC, Policy::origin1(), &["G#0", "W#1"], 4),
            (
                SINGLE_ORIGIN_STATIC,
                Policy::insensitive(),
                &["G#0", "W#1"],
                4,
            ),
            (PASSED_TO_THREAD, Policy::origin1(), &["S#0", "W#1"], 1),
            (PASSED_TO_THREAD, Policy::cfa1(), &["S#0", "W#1"], 1),
        ];
        for (i, (src, policy, escaped, shared)) in cases.into_iter().enumerate() {
            let (p, pta, esc) = escape_of(src, policy);
            let labels: Vec<String> = esc
                .escaped
                .iter()
                .map(|o| {
                    let class = pta.arena.obj_data(ObjId(o)).class;
                    format!("{}#{o}", p.class(class).name)
                })
                .collect();
            assert_eq!(labels, escaped, "fixture {i}");
            assert_eq!(esc.num_shared_accesses(&p, &pta), shared, "fixture {i}");
        }
    }
}
