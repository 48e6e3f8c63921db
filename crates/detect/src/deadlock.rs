//! Static deadlock detection on top of the SHB graph.
//!
//! The paper notes (§3) that OPA/OSA "can benefit any analysis that
//! requires analyzing pointers or ownership of memory accesses, e.g.,
//! deadlock, over-synchronization, and memory isolation". This module is
//! that deadlock analysis: a classic lock-order graph built from the
//! per-origin acquisition traces that the SHB walker already records.
//!
//! An edge `a → b` means some origin acquires lock `b` while holding `a`.
//! A cycle among locks acquired by *different* origins — with no common
//! "gate" lock held around all participating acquisitions, and with no
//! happens-before ordering between the acquisition points — is reported
//! as a potential deadlock.

use o2_ir::ids::GStmt;
use o2_ir::program::Program;
use o2_pta::OriginId;
use o2_shb::{ClosureTable, LockElem, ShbGraph};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// One lock-order edge with its provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockOrderEdge {
    /// Lock already held.
    pub held: u32,
    /// Lock being acquired.
    pub acquired: u32,
    /// Origin performing the nested acquisition.
    pub origin: OriginId,
    /// Acquisition statement.
    pub stmt: GStmt,
    /// Trace position of the acquisition (for happens-before checks).
    pub pos: u32,
    /// Canonical lockset held before the acquisition (for gate-lock
    /// reasoning).
    pub held_before: o2_shb::LockSetId,
}

/// A reported potential deadlock: a cyclic lock-order among ≥ 2 origins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockCycle {
    /// The lock elements forming the cycle, in order.
    pub locks: Vec<LockElem>,
    /// The origins contributing the edges, in cycle order.
    pub origins: Vec<OriginId>,
    /// The acquisition statements, in cycle order.
    pub stmts: Vec<GStmt>,
}

/// The result of deadlock detection.
#[derive(Clone, Debug, Default)]
pub struct DeadlockReport {
    /// Distinct potential deadlock cycles (length 2; longer cycles are
    /// reported through their 2-cycle projections when present, plus
    /// dedicated 3-cycles).
    pub cycles: Vec<DeadlockCycle>,
    /// All lock-order edges (for diagnostics).
    pub num_edges: usize,
    /// Wall-clock duration.
    pub duration: Duration,
}

impl DeadlockReport {
    /// Renders a human-readable report.
    pub fn render(&self, program: &Program, shb: &ShbGraph) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, c) in self.cycles.iter().enumerate() {
            let locks: Vec<String> = c
                .locks
                .iter()
                .map(|l| match l {
                    LockElem::Obj(o) => format!("obj#{}", o.0),
                    LockElem::Class(cl) => format!("class {}", program.class(*cl).name),
                    LockElem::Dispatcher(d) => format!("dispatcher#{d}"),
                    LockElem::AtomicCell(o, f) => {
                        format!("atomic obj#{}.{}", o.0, program.field_name(*f))
                    }
                    LockElem::RwRead(o) => format!("rdlock obj#{}", o.0),
                    LockElem::RwWrite(o) => format!("wrlock obj#{}", o.0),
                    LockElem::Executor(e) => format!("executor#{e}"),
                })
                .collect();
            let _ = writeln!(
                out,
                "deadlock #{}: cycle {} between origins {:?} at {}",
                i + 1,
                locks.join(" -> "),
                c.origins.iter().map(|o| o.0).collect::<Vec<_>>(),
                c.stmts
                    .iter()
                    .map(|s| program.stmt_label(*s))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        if self.cycles.is_empty() {
            out.push_str("no potential deadlocks detected\n");
        }
        let _ = shb;
        out
    }
}

/// Runs deadlock detection over an SHB graph.
pub fn detect_deadlocks(program: &Program, shb: &ShbGraph) -> DeadlockReport {
    let start = Instant::now();
    let _ = program;
    // Collect lock-order edges per (held, acquired) pair.
    let mut edges: BTreeMap<(u32, u32), Vec<LockOrderEdge>> = BTreeMap::new();
    for (oi, trace) in shb.traces.iter().enumerate() {
        let origin = OriginId(oi as u32);
        for acq in &trace.acquires {
            for &held in shb.locks.set_elems(acq.held_before) {
                for &acquired in &acq.elems {
                    if held == acquired {
                        continue;
                    }
                    edges
                        .entry((held, acquired))
                        .or_default()
                        .push(LockOrderEdge {
                            held,
                            acquired,
                            origin,
                            stmt: acq.stmt,
                            pos: acq.pos,
                            held_before: acq.held_before,
                        });
                }
            }
        }
    }
    let num_edges = edges.len();
    let mut hb = ClosureTable::new(shb);

    let mut cycles = Vec::new();
    let mut seen: BTreeSet<(u32, u32)> = BTreeSet::new();
    for (&(a, b), fwd_edges) in &edges {
        if a >= b {
            continue; // handle each unordered pair once
        }
        let Some(back_edges) = edges.get(&(b, a)) else {
            continue;
        };
        // A 2-cycle is a potential deadlock if two *different* origins can
        // take the two orders concurrently (no happens-before between the
        // acquisition points, no common gate lock).
        'search: for e1 in fwd_edges {
            for e2 in back_edges {
                if e1.origin == e2.origin {
                    continue;
                }
                // Gate lock: a third lock held around both nested
                // acquisitions serializes them.
                let g1: BTreeSet<u32> = held_set(shb, e1).collect();
                let gated = held_set(shb, e2).any(|l| g1.contains(&l));
                if gated {
                    continue;
                }
                // Happens-before between the acquisition points kills the
                // interleaving.
                let p1 = (e1.origin, e1.pos);
                let p2 = (e2.origin, e2.pos);
                if hb.happens_before(p1, p2) || hb.happens_before(p2, p1) {
                    continue;
                }
                if seen.insert((a, b)) {
                    cycles.push(DeadlockCycle {
                        locks: vec![shb.locks.elem_data(a), shb.locks.elem_data(b)],
                        origins: vec![e1.origin, e2.origin],
                        stmts: vec![e1.stmt, e2.stmt],
                    });
                }
                break 'search;
            }
        }
    }

    // Length-3 cycles a→b→c→a with three distinct origins (no 2-cycle
    // projection among them, so they are genuinely new reports).
    let keys: Vec<(u32, u32)> = edges.keys().copied().collect();
    let mut seen3: BTreeSet<[u32; 3]> = BTreeSet::new();
    for &(a, b) in &keys {
        for &(b2, c) in &keys {
            if b2 != b || c == a {
                continue;
            }
            if !edges.contains_key(&(c, a)) {
                continue;
            }
            let mut cyc = [a, b, c];
            cyc.sort_unstable();
            if seen.contains(&(cyc[0], cyc[1]))
                || seen.contains(&(cyc[0], cyc[2]))
                || seen.contains(&(cyc[1], cyc[2]))
                || !seen3.insert(cyc)
            {
                continue;
            }
            let pick = |h: u32, acq: u32| edges[&(h, acq)].first().copied();
            let (Some(e1), Some(e2), Some(e3)) = (pick(a, b), pick(b, c), pick(c, a)) else {
                continue;
            };
            let origins: BTreeSet<u32> = [e1.origin.0, e2.origin.0, e3.origin.0]
                .into_iter()
                .collect();
            if origins.len() < 3 {
                continue;
            }
            // Gate lock: a common lock held around all three nested
            // acquisitions serializes the cycle (same check as 2-cycles).
            let g1: BTreeSet<u32> = held_set(shb, &e1).collect();
            let g2: BTreeSet<u32> = held_set(shb, &e2).collect();
            let gated = held_set(shb, &e3).any(|l| g1.contains(&l) && g2.contains(&l));
            if gated {
                continue;
            }
            // No pairwise happens-before among the three acquisitions.
            let pts = [
                (e1.origin, e1.pos),
                (e2.origin, e2.pos),
                (e3.origin, e3.pos),
            ];
            let ordered = pts.iter().any(|&x| {
                pts.iter()
                    .any(|&y| x != y && (hb.happens_before(x, y) || hb.happens_before(y, x)))
            });
            if ordered {
                continue;
            }
            cycles.push(DeadlockCycle {
                locks: vec![
                    shb.locks.elem_data(a),
                    shb.locks.elem_data(b),
                    shb.locks.elem_data(c),
                ],
                origins: vec![e1.origin, e2.origin, e3.origin],
                stmts: vec![e1.stmt, e2.stmt, e3.stmt],
            });
        }
    }

    DeadlockReport {
        cycles,
        num_edges,
        duration: start.elapsed(),
    }
}

/// Locks held at the acquisition, excluding the two cycle locks.
fn held_set<'a>(shb: &'a ShbGraph, e: &'a LockOrderEdge) -> impl Iterator<Item = u32> + 'a {
    shb.locks
        .set_elems(e.held_before)
        .iter()
        .copied()
        .filter(move |&l| l != e.held && l != e.acquired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_ir::parser::parse;
    use o2_pta::{analyze, Policy, PtaConfig};
    use o2_shb::{build_shb, ShbConfig};

    fn deadlocks(src: &str) -> (o2_ir::Program, ShbGraph, DeadlockReport) {
        let p = parse(src).unwrap();
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let shb = build_shb(
            &o2_ir::ProgramCtx::solo(&p),
            &pta,
            &ShbConfig::default(),
            &mut o2_analysis::LocTable::new(),
        );
        let report = detect_deadlocks(&p, &shb);
        (p, shb, report)
    }

    const AB_BA: &str = r#"
        class L { }
        class T1 impl Runnable {
            field a; field b;
            method <init>(a, b) { this.a = a; this.b = b; }
            method run() {
                a = this.a; b = this.b;
                sync (a) { sync (b) { x = a; } }
            }
        }
        class T2 impl Runnable {
            field a; field b;
            method <init>(a, b) { this.a = a; this.b = b; }
            method run() {
                a = this.a; b = this.b;
                sync (b) { sync (a) { x = b; } }
            }
        }
        class Main {
            static method main() {
                a = new L();
                b = new L();
                t1 = new T1(a, b);
                t2 = new T2(a, b);
                t1.start();
                t2.start();
            }
        }
    "#;

    #[test]
    fn classic_ab_ba_deadlock() {
        let (p, shb, report) = deadlocks(AB_BA);
        assert_eq!(report.cycles.len(), 1, "{}", report.render(&p, &shb));
        assert_eq!(report.cycles[0].locks.len(), 2);
    }

    #[test]
    fn consistent_order_is_safe() {
        let src = AB_BA.replace(
            "sync (b) { sync (a) { x = b; } }",
            "sync (a) { sync (b) { x = b; } }",
        );
        let (p, shb, report) = deadlocks(&src);
        assert!(report.cycles.is_empty(), "{}", report.render(&p, &shb));
    }

    #[test]
    fn same_origin_nesting_is_safe() {
        // One thread acquiring in both orders sequentially cannot deadlock
        // with itself.
        let src = r#"
            class L { }
            class T impl Runnable {
                field a; field b;
                method <init>(a, b) { this.a = a; this.b = b; }
                method run() {
                    a = this.a; b = this.b;
                    sync (a) { sync (b) { x = a; } }
                    sync (b) { sync (a) { x = b; } }
                }
            }
            class Main {
                static method main() {
                    a = new L();
                    b = new L();
                    t = new T(a, b);
                    t.start();
                }
            }
        "#;
        let (p, shb, report) = deadlocks(src);
        assert!(report.cycles.is_empty(), "{}", report.render(&p, &shb));
    }

    #[test]
    fn fork_join_ordering_prevents_deadlock() {
        // The two opposite-order threads never overlap: the second starts
        // after the first is joined.
        let src = r#"
            class L { }
            class T1 impl Runnable {
                field a; field b;
                method <init>(a, b) { this.a = a; this.b = b; }
                method run() {
                    a = this.a; b = this.b;
                    sync (a) { sync (b) { x = a; } }
                }
            }
            class T2 impl Runnable {
                field a; field b;
                method <init>(a, b) { this.a = a; this.b = b; }
                method run() {
                    a = this.a; b = this.b;
                    sync (b) { sync (a) { x = b; } }
                }
            }
            class Main {
                static method main() {
                    a = new L();
                    b = new L();
                    t1 = new T1(a, b);
                    t1.start();
                    join t1;
                    t2 = new T2(a, b);
                    t2.start();
                }
            }
        "#;
        let (p, shb, report) = deadlocks(src);
        assert!(report.cycles.is_empty(), "{}", report.render(&p, &shb));
    }

    #[test]
    fn three_way_cycle_is_detected() {
        // a→b (T1), b→c (T2), c→a (T3): a 3-cycle with no 2-cycle.
        let src = r#"
            class L { }
            class T1 impl Runnable {
                field x; field y;
                method <init>(x, y) { this.x = x; this.y = y; }
                method run() { x = this.x; y = this.y; sync (x) { sync (y) { q = x; } } }
            }
            class T2 impl Runnable {
                field x; field y;
                method <init>(x, y) { this.x = x; this.y = y; }
                method run() { x = this.x; y = this.y; sync (x) { sync (y) { q = x; } } }
            }
            class T3 impl Runnable {
                field x; field y;
                method <init>(x, y) { this.x = x; this.y = y; }
                method run() { x = this.x; y = this.y; sync (x) { sync (y) { q = x; } } }
            }
            class Main {
                static method main() {
                    a = new L();
                    b = new L();
                    c = new L();
                    t1 = new T1(a, b);
                    t2 = new T2(b, c);
                    t3 = new T3(c, a);
                    t1.start();
                    t2.start();
                    t3.start();
                }
            }
        "#;
        let (p, shb, report) = deadlocks(src);
        assert_eq!(report.cycles.len(), 1, "{}", report.render(&p, &shb));
        assert_eq!(report.cycles[0].locks.len(), 3);
    }

    #[test]
    fn report_renders() {
        let (p, shb, report) = deadlocks(AB_BA);
        let text = report.render(&p, &shb);
        assert!(text.contains("deadlock #1"), "{text}");
    }
}
#[cfg(test)]
mod gate_tests {
    use super::*;
    use o2_ir::parser::parse;
    use o2_pta::{analyze, Policy, PtaConfig};
    use o2_shb::{build_shb, ShbConfig};

    /// A 3-cycle fully serialized by a common gate lock must not be
    /// reported (the same rule the 2-cycle path applies).
    #[test]
    fn gated_three_cycle_is_not_reported() {
        let src = r#"
            class L { }
            class T1 impl Runnable {
                field g; field x; field y;
                method <init>(g, x, y) { this.g = g; this.x = x; this.y = y; }
                method run() {
                    g = this.g; x = this.x; y = this.y;
                    sync (g) { sync (x) { sync (y) { q = x; } } }
                }
            }
            class T2 impl Runnable {
                field g; field x; field y;
                method <init>(g, x, y) { this.g = g; this.x = x; this.y = y; }
                method run() {
                    g = this.g; x = this.x; y = this.y;
                    sync (g) { sync (x) { sync (y) { q = x; } } }
                }
            }
            class T3 impl Runnable {
                field g; field x; field y;
                method <init>(g, x, y) { this.g = g; this.x = x; this.y = y; }
                method run() {
                    g = this.g; x = this.x; y = this.y;
                    sync (g) { sync (x) { sync (y) { q = x; } } }
                }
            }
            class Main {
                static method main() {
                    g = new L();
                    a = new L();
                    b = new L();
                    c = new L();
                    t1 = new T1(g, a, b);
                    t2 = new T2(g, b, c);
                    t3 = new T3(g, c, a);
                    t1.start();
                    t2.start();
                    t3.start();
                }
            }
        "#;
        let p = parse(src).unwrap();
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&p),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let shb = build_shb(
            &o2_ir::ProgramCtx::solo(&p),
            &pta,
            &ShbConfig::default(),
            &mut o2_analysis::LocTable::new(),
        );
        let report = detect_deadlocks(&p, &shb);
        assert!(report.cycles.is_empty(), "{}", report.render(&p, &shb));
    }
}
