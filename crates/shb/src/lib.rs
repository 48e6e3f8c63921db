//! # o2-shb — the static happens-before graph with origins
//!
//! Implements §4 of the paper: each origin (thread/event) is represented
//! by a *static trace* of memory accesses and synchronization operations,
//! and the three sound optimizations of §4.1:
//!
//! 1. **Integer-id intra-origin HB** — no intra-origin edges; a node's
//!    position in its trace is its happens-before rank, so intra-origin HB
//!    is one comparison ([`ShbGraph::happens_before`]).
//! 2. **Canonical locksets** — every lock combination is interned to a
//!    [`locks::LockSetId`] and pairwise disjointness is cached
//!    ([`locks::LockTable`]).
//! 3. **Lock regions** — every access carries a region sequence number;
//!    accesses to the same location with the same kind inside one region
//!    are merged by the detector into a single representative.
//!
//! ```
//! use o2_analysis::LocTable;
//! use o2_ir::parser::parse;
//! use o2_ir::ProgramCtx;
//! use o2_pta::{analyze, Policy, PtaConfig};
//! use o2_shb::{build_shb, ShbConfig};
//!
//! let program = parse(r#"
//!     class W impl Runnable { method run() { } }
//!     class Main {
//!         static method main() { w = new W(); w.start(); join w; }
//!     }
//! "#).unwrap();
//! let ctx = ProgramCtx::solo(&program);
//! let pta = analyze(&ctx, &PtaConfig::with_policy(Policy::origin1()));
//! let mut locs = LocTable::new();
//! let shb = build_shb(&ctx, &pta, &ShbConfig::default(), &mut locs);
//! assert_eq!(shb.entry_edges.len(), 1);
//! assert_eq!(shb.join_edges.len(), 1);
//! ```

#![warn(missing_docs)]

mod rules_tests;

pub mod graph;
pub mod locks;

pub use graph::{
    build_shb, AccessNode, AcquireNode, EntryCsr, EntryEdge, JoinCsr, JoinEdge, OriginTrace,
    ShbConfig, ShbGraph, ShbStats,
};
pub use locks::{LockElem, LockSetId, LockTable};

#[cfg(test)]
mod tests {
    use super::*;
    use o2_analysis::{LocTable, MemKey};
    use o2_ir::parser::parse;
    use o2_pta::{analyze, OriginId, Policy, PtaConfig};

    fn shb_for(src: &str) -> (o2_ir::Program, o2_pta::PtaResult, ShbGraph, LocTable) {
        let p = parse(src).unwrap();
        o2_ir::validate::assert_valid(&p);
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let mut locs = LocTable::new();
        let shb = build_shb(
            &o2_ir::ProgramCtx::solo(&p),
            &pta,
            &ShbConfig::default(),
            &mut locs,
        );
        (p, pta, shb, locs)
    }

    const FORK_JOIN: &str = r#"
        class S { field data; }
        class W impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { s = this.s; s.data = s; }
        }
        class Main {
            static method main() {
                s = new S();
                x1 = s.data;
                w = new W(s);
                w.start();
                join w;
                x2 = s.data;
            }
        }
    "#;

    #[test]
    fn entry_and_join_edges_exist() {
        let (_, _, shb, _) = shb_for(FORK_JOIN);
        assert_eq!(shb.entry_edges.len(), 1);
        assert_eq!(shb.join_edges.len(), 1);
        assert_eq!(shb.stats.num_entry_edges, 1);
    }

    /// Accesses before start() happen-before the thread; accesses after
    /// join() happen-after; the thread's write is ordered between them.
    #[test]
    fn fork_join_happens_before() {
        let (p, pta, shb, _) = shb_for(FORK_JOIN);
        let data = p.field_by_name("data").unwrap();
        let root = OriginId::ROOT;
        let child = OriginId(1);
        // Find main's two reads of s.data and the thread's write.
        let main_reads: Vec<_> = shb.traces[root.0 as usize]
            .accesses
            .iter()
            .filter(|a| matches!(a.key, MemKey::Field(_, f) if f == data) && !a.is_write)
            .collect();
        assert_eq!(main_reads.len(), 2);
        let thread_writes: Vec<_> = shb.traces[child.0 as usize]
            .accesses
            .iter()
            .filter(|a| matches!(a.key, MemKey::Field(_, f) if f == data) && a.is_write)
            .collect();
        assert_eq!(thread_writes.len(), 1);
        let r1 = (root, main_reads[0].pos);
        let r2 = (root, main_reads[1].pos);
        let w = (child, thread_writes[0].pos);
        assert!(shb.happens_before(r1, w), "pre-start read HB thread write");
        assert!(shb.happens_before(w, r2), "thread write HB post-join read");
        assert!(!shb.happens_before(w, r1));
        assert!(!shb.happens_before(r2, w));
        // Naive HB must agree everywhere.
        for (x, y) in [(r1, w), (w, r2), (w, r1), (r2, w), (r1, r2), (r2, r1)] {
            assert_eq!(
                shb.happens_before(x, y),
                shb.happens_before_naive(x, y),
                "naive vs optimized disagree on {x:?} -> {y:?}"
            );
            let _ = pta;
        }
    }

    #[test]
    fn unjoined_threads_are_unordered() {
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
        let (_, _, shb, _) = shb_for(src);
        let a = (OriginId(1), 0u32);
        let b = (OriginId(2), 0u32);
        assert!(!shb.happens_before(a, b));
        assert!(!shb.happens_before(b, a));
    }

    #[test]
    fn locksets_are_recorded() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() {
                    s = this.s;
                    sync (s) { s.data = s; }
                    s.data = s;
                }
            }
            class Main {
                static method main() {
                    s = new S();
                    w = new W(s);
                    w.start();
                }
            }
        "#;
        let (p, _, shb, _) = shb_for(src);
        let data = p.field_by_name("data").unwrap();
        let writes: Vec<_> = shb.traces[1]
            .accesses
            .iter()
            .filter(|a| matches!(a.key, MemKey::Field(_, f) if f == data))
            .collect();
        assert_eq!(writes.len(), 2);
        assert_ne!(writes[0].lockset, LockSetId::EMPTY, "locked write");
        assert_eq!(writes[1].lockset, LockSetId::EMPTY, "unlocked write");
        assert_ne!(writes[0].region, writes[1].region);
    }

    #[test]
    fn synchronized_methods_hold_this() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                sync method run() { s = this.s; s.data = s; }
            }
            class Main {
                static method main() {
                    s = new S();
                    w = new W(s);
                    w.start();
                }
            }
        "#;
        let (p, _, shb, _) = shb_for(src);
        let data = p.field_by_name("data").unwrap();
        let w = shb.traces[1]
            .accesses
            .iter()
            .find(|a| matches!(a.key, MemKey::Field(_, f) if f == data))
            .unwrap();
        assert_ne!(w.lockset, LockSetId::EMPTY);
    }

    #[test]
    fn event_origins_carry_dispatcher_lock() {
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
        let (_, pta, mut shb, _) = shb_for(src);
        // The two event origins' writes both hold the dispatcher lock, so
        // their locksets are NOT disjoint.
        let ev_origins: Vec<OriginId> = pta
            .arena
            .origins()
            .filter(|(_, d)| matches!(d.kind, o2_ir::OriginKind::Event { .. }))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ev_origins.len(), 2);
        let w1 = shb.traces[ev_origins[0].0 as usize].accesses[0].lockset;
        let w2 = shb.traces[ev_origins[1].0 as usize].accesses[0].lockset;
        assert!(!shb.locks.disjoint(w1, w2), "same dispatcher serializes");
    }

    #[test]
    fn dispatcher_lock_can_be_disabled() {
        let src = r#"
            class G { field st; }
            class H impl EventHandler {
                method handleEvent(e) { G::st = e; }
            }
            class Main {
                static method main() {
                    h = new H();
                    e = new G();
                    h.handleEvent(e);
                }
            }
        "#;
        let p = parse(src).unwrap();
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let cfg = ShbConfig {
            event_dispatcher_lock: false,
            ..Default::default()
        };
        let shb = build_shb(
            &o2_ir::ProgramCtx::solo(&p),
            &pta,
            &cfg,
            &mut LocTable::new(),
        );
        let ev = pta
            .arena
            .origins()
            .find(|(_, d)| matches!(d.kind, o2_ir::OriginKind::Event { .. }))
            .map(|(id, _)| id)
            .unwrap();
        assert_eq!(
            shb.traces[ev.0 as usize].accesses[0].lockset,
            LockSetId::EMPTY
        );
    }

    #[test]
    fn node_budget_truncates() {
        let (_, _, shb) = {
            let p = parse(FORK_JOIN).unwrap();
            let pta = analyze(
                &o2_ir::ProgramCtx::solo(&p),
                &PtaConfig::with_policy(Policy::origin1()),
            );
            let cfg = ShbConfig {
                node_budget: 1,
                ..Default::default()
            };
            let shb = build_shb(
                &o2_ir::ProgramCtx::solo(&p),
                &pta,
                &cfg,
                &mut LocTable::new(),
            );
            (p, pta, shb)
        };
        assert!(shb.traces[0].truncated);
    }

    #[test]
    fn access_index_covers_all_traces() {
        let (p, _, shb, locs) = shb_for(FORK_JOIN);
        let data = p.field_by_name("data").unwrap();
        let (loc, key) = locs
            .iter()
            .find(|(_, k)| matches!(k, MemKey::Field(_, f) if *f == data))
            .unwrap();
        assert!(matches!(key, MemKey::Field(..)));
        let origins: std::collections::BTreeSet<u32> =
            shb.accesses_of(loc).iter().map(|(o, _)| o.0).collect();
        assert_eq!(origins.len(), 2, "accessed from main and the thread");
    }

    #[test]
    fn reach_closure_agrees_with_happens_before() {
        let (_, _, shb, _) = shb_for(FORK_JOIN);
        for (oi, trace) in shb.traces.iter().enumerate() {
            for p in 0..trace.len {
                let a = (OriginId(oi as u32), p);
                let reach = shb.reach_closure(a);
                for (oj, tj) in shb.traces.iter().enumerate() {
                    if oi == oj {
                        continue;
                    }
                    for q in 0..tj.len {
                        let b = (OriginId(oj as u32), q);
                        assert_eq!(
                            shb.happens_before(a, b),
                            reach[oj] <= q,
                            "closure vs DFS disagree on {a:?} -> {b:?}"
                        );
                    }
                }
            }
        }
    }
}
