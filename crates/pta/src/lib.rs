//! # o2-pta — pointer analysis framework for O2
//!
//! An Andersen-style inclusion-based pointer analysis with an on-the-fly
//! call graph, parametric in the context abstraction:
//!
//! - `0-ctx` — context-insensitive baseline,
//! - `k-CFA + heap` — call-site sensitivity,
//! - `k-obj + heap` — object sensitivity,
//! - `k-origin` — **origin-sensitive pointer analysis (OPA)**, the paper's
//!   contribution: the context is the origin (thread/event instance), with
//!   context switches only at origin allocations and origin entry points.
//!
//! Origins are discovered under *every* policy (they are needed by race
//! detection regardless of the pointer abstraction); only OPA additionally
//! uses them as analysis contexts.
//!
//! ```
//! use o2_ir::parser::parse;
//! use o2_pta::{analyze, Policy, PtaConfig};
//!
//! let program = parse(r#"
//!     class Worker impl Runnable { method run() { } }
//!     class Main {
//!         static method main() {
//!             w = new Worker();
//!             w.start();
//!         }
//!     }
//! "#).unwrap();
//! let result = analyze(&o2_ir::ProgramCtx::solo(&program), &PtaConfig::with_policy(Policy::origin1()));
//! assert_eq!(result.num_origins(), 2); // root + the worker thread
//! ```

#![warn(missing_docs)]

mod rules_tests;

pub mod context;
pub mod policy;
pub mod solver;

pub use context::{
    AllocSite, Arena, Ctx, CtxElem, ObjData, ObjId, OriginData, OriginId, OriginKey, OriginSite,
};
pub use policy::Policy;
pub use solver::{
    analyze, analyze_budgeted, CallTarget, Mi, NodeKey, PtaConfig, PtaResult, PtaStats,
};

#[cfg(test)]
mod tests {
    use super::*;
    use o2_ir::parser::parse;
    use o2_ir::program::Program;

    fn run(src: &str, policy: Policy) -> (Program, PtaResult) {
        let p = parse(src).unwrap();
        o2_ir::validate::assert_valid(&p);
        let r = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(policy),
        );
        (p, r)
    }

    /// The Figure 2 program: two threads with the same entry point but
    /// different origin attributes must not alias their per-thread state.
    const FIGURE2: &str = r#"
        class S { field data; }
        class Y { field v; }
        class Op {
            method util(s) { this.act(s); }
            method act(s) { }
        }
        class Op1 : Op {
            field y1;
            method act(s) { y = new Y(); this.y1 = y; }
        }
        class Op2 : Op {
            field y2;
            method act(s) { y = new Y(); this.y2 = y; }
        }
        class T impl Runnable {
            field s; field op;
            method <init>(s, op) { this.s = s; this.op = op; }
            method run() {
                s = this.s;
                op = this.op;
                op.util(s);
            }
        }
        class Main {
            static method main() {
                s = new S();
                op1 = new Op1();
                op2 = new Op2();
                t1 = new T(s, op1);
                t2 = new T(s, op2);
                t1.start();
                t2.start();
                t1.join();
                t2.join();
            }
        }
    "#;

    #[test]
    fn figure2_origin_count() {
        let (_, r) = run(FIGURE2, Policy::origin1());
        // Root + two thread origins (distinct allocation sites).
        assert_eq!(r.num_origins(), 3);
    }

    #[test]
    fn figure2_opa_separates_thread_fields() {
        let (p, r) = run(FIGURE2, Policy::origin1());
        // Under OPA, the two T objects are distinct and their `op` fields
        // point to different Op objects.
        let t_class = p.class_by_name("T").unwrap();
        let t_objs: Vec<ObjId> = (0..r.arena.num_objects() as u32)
            .map(ObjId)
            .filter(|o| r.arena.obj_data(*o).class == t_class)
            .collect();
        assert_eq!(t_objs.len(), 2);
        let op_field = p.field_by_name("op").unwrap();
        let pts1 = r.pts_field(t_objs[0], op_field);
        let pts2 = r.pts_field(t_objs[1], op_field);
        assert_eq!(pts1.len(), 1);
        assert_eq!(pts2.len(), 1);
        assert_ne!(pts1[0], pts2[0], "per-thread op objects must not alias");
    }

    #[test]
    fn figure2_virtual_dispatch_in_each_origin() {
        let (p, r) = run(FIGURE2, Policy::origin1());
        // Each thread's run() must dispatch util() and then the correct
        // act() override; both overrides are reachable overall.
        let op1_act = {
            let c = p.class_by_name("Op1").unwrap();
            p.dispatch(c, &o2_ir::Selector::new("act", 1)).unwrap()
        };
        let op2_act = {
            let c = p.class_by_name("Op2").unwrap();
            p.dispatch(c, &o2_ir::Selector::new("act", 1)).unwrap()
        };
        let reached: Vec<_> = r.reachable_mis().map(|mi| r.mi_data(mi).0).collect();
        assert!(reached.contains(&op1_act));
        assert!(reached.contains(&op2_act));
    }

    /// The Figure 3 pattern: two origin allocations share a helper that
    /// allocates their per-thread state; OPA must give each its own object.
    const FIGURE3: &str = r#"
        class T impl Runnable {
            field f;
            method run() { x = this.f; }
        }
        class Helper {
            static method initT(t) { o = new Obj(); t.f = o; }
        }
        class Obj { }
        class TA : T { method <init>() { Helper::initT(this); } }
        class TB : T { method <init>() { Helper::initT(this); } }
        class Main {
            static method main() {
                a = new TA();
                b = new TB();
                a.start();
                b.start();
            }
        }
    "#;

    #[test]
    fn figure3_opa_eliminates_false_aliasing() {
        let p = parse(FIGURE3).unwrap();
        let r = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let f = p.field_by_name("f").unwrap();
        let ta = p.class_by_name("TA").unwrap();
        let tb = p.class_by_name("TB").unwrap();
        let a_obj = (0..r.arena.num_objects() as u32)
            .map(ObjId)
            .find(|o| r.arena.obj_data(*o).class == ta)
            .unwrap();
        let b_obj = (0..r.arena.num_objects() as u32)
            .map(ObjId)
            .find(|o| r.arena.obj_data(*o).class == tb)
            .unwrap();
        let pts_a = r.pts_field(a_obj, f);
        let pts_b = r.pts_field(b_obj, f);
        assert_eq!(pts_a.len(), 1, "OPA: a.f has a single target");
        assert_eq!(pts_b.len(), 1, "OPA: b.f has a single target");
        assert_ne!(pts_a[0], pts_b[0], "OPA: no false aliasing (Figure 3)");
        // The context-insensitive baseline conflates them.
        let r0 = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::insensitive()),
        );
        let a0 = (0..r0.arena.num_objects() as u32)
            .map(ObjId)
            .find(|o| r0.arena.obj_data(*o).class == ta)
            .unwrap();
        let b0 = (0..r0.arena.num_objects() as u32)
            .map(ObjId)
            .find(|o| r0.arena.obj_data(*o).class == tb)
            .unwrap();
        assert_eq!(
            r0.pts_field(a0, f),
            r0.pts_field(b0, f),
            "0-ctx: the shared helper allocation aliases both fields"
        );
    }

    #[test]
    fn loop_allocations_double_origins() {
        let src = r#"
            class W impl Runnable { method run() { } }
            class Main {
                static method main() {
                    loop { w = new W(); w.start(); }
                }
            }
        "#;
        let (_, r) = run(src, Policy::origin1());
        // Root + two copies of the loop-allocated origin.
        assert_eq!(r.num_origins(), 3);
    }

    #[test]
    fn spawn_creates_origins_and_join_edges() {
        let src = r#"
            class K {
                static method worker(a) { }
                static method main() {
                    k = new K();
                    spawn thread K::worker(k) -> h;
                    join h;
                }
            }
        "#;
        let (p, r) = run(src, Policy::origin1());
        assert_eq!(r.num_origins(), 2);
        let root_ctx = r.arena.origin_data(OriginId::ROOT).entry_ctx;
        let main_mi = r.mi_of(p.main, root_ctx).unwrap();
        // join statement is index 2 in main.
        let joined = r.joined_origins(main_mi, 2);
        assert_eq!(joined.len(), 1);
        assert_ne!(joined[0], OriginId::ROOT);
    }

    #[test]
    fn spawn_replicas_create_multiple_origins() {
        let src = r#"
            class Buf { }
            class K {
                static method __x64_sys_read(p) { }
                static method main() {
                    k = new Buf();
                    spawn syscall K::__x64_sys_read(k) * 2;
                }
            }
        "#;
        let (_, r) = run(src, Policy::origin1());
        assert_eq!(r.num_origins(), 3); // root + 2 replicas
    }

    #[test]
    fn wrapper_call_sites_disambiguate_origins() {
        // Two calls of the same thread-creating wrapper must yield two
        // origins (§3.2 "Wrapper Functions and Loops", k = 1).
        let src = r#"
            class W impl Runnable { method run() { } }
            class Lib {
                static method startWorker() { w = new W(); w.start(); }
            }
            class Main {
                static method main() {
                    Lib::startWorker();
                    Lib::startWorker();
                }
            }
        "#;
        let p = parse(src).unwrap();
        let r = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        // Two distinct call sites into the wrapper → two origins + root.
        assert_eq!(r.num_origins(), 3);
    }

    #[test]
    fn event_entry_call_creates_event_origin() {
        let src = r#"
            class H impl EventHandler {
                method handleEvent(e) { }
            }
            class Main {
                static method main() {
                    h = new H();
                    e = new Main();
                    h.handleEvent(e);
                }
            }
        "#;
        let (_, r) = run(src, Policy::origin1());
        assert_eq!(r.num_origins(), 2);
        let kinds: Vec<_> = r.arena.origins().map(|(_, d)| d.kind).collect();
        assert!(kinds.contains(&o2_ir::OriginKind::Event { dispatcher: 0 }));
    }

    #[test]
    fn origin_reachability_attributes_shared_helpers_to_both_origins() {
        let src = r#"
            class Util { static method touch(s) { s.data = s; } }
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; Util::touch(s); }
            }
            class Main {
                static method main() {
                    s = new S();
                    w = new W(s);
                    w.start();
                    Util::touch(s);
                }
            }
        "#;
        let (p, r) = run(src, Policy::origin1());
        let touch = {
            let c = p.class_by_name("Util").unwrap();
            p.dispatch(c, &o2_ir::Selector::new("touch", 1)).unwrap()
        };
        // Find all MIs of touch and union their origin attributions.
        let mut origins = std::collections::BTreeSet::new();
        for mi in r.reachable_mis() {
            if r.mi_data(mi).0 == touch {
                for o in r.mi_origins(mi).iter() {
                    origins.insert(o);
                }
            }
        }
        assert_eq!(origins.len(), 2, "touch runs in both main and the thread");
    }

    #[test]
    fn all_policies_reach_thread_bodies() {
        for policy in [
            Policy::insensitive(),
            Policy::cfa1(),
            Policy::cfa2(),
            Policy::obj1(),
            Policy::obj2(),
            Policy::origin1(),
            Policy::origin(2),
        ] {
            let (p, r) = run(FIGURE2, policy);
            let run_m = {
                let c = p.class_by_name("T").unwrap();
                p.dispatch(c, &o2_ir::Selector::new("run", 0)).unwrap()
            };
            let reached: Vec<_> = r.reachable_mis().map(|mi| r.mi_data(mi).0).collect();
            assert!(
                reached.contains(&run_m),
                "{policy}: run() must be reachable"
            );
            assert!(r.num_origins() >= 3, "{policy}: origins discovered");
            assert!(!r.timed_out);
        }
    }

    #[test]
    fn stats_are_populated() {
        let (_, r) = run(FIGURE2, Policy::origin1());
        assert!(r.stats.num_pointers > 0);
        assert!(r.stats.num_objects >= 5);
        assert!(r.stats.num_edges > 0);
        assert_eq!(r.stats.num_origins, 3);
        assert!(r.stats.num_mis > 0);
    }
}
