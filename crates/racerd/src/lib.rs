//! # o2-racerd — a RacerD-style syntactic race detector baseline
//!
//! A reimplementation of the *design* of Facebook's RacerD (Blackshear et
//! al., OOPSLA 2018) as characterized in §2 of the O2 paper: compositional
//! per-method summaries, clever syntactic reasoning, **no pointer
//! analysis** — aliasing is judged by field *name*, lock protection by a
//! "some lock held" boolean, and there is no happens-before reasoning.
//! This is the comparison baseline of Tables 5, 8 and 9.
//!
//! What is modeled:
//!
//! - bottom-up method summaries of field accesses with a lock bit,
//!   propagated through a class-hierarchy-analysis call graph;
//! - an ownership heuristic: accesses through a locally allocated object
//!   are owned and never reported (RacerD's main false-positive filter);
//! - two warning classes, as in the paper's comparison methodology:
//!   read/write races and unprotected-write pairs.
//!
//! The report carries warning *counts* — per field, per class and in
//! total — which are all that Tables 5, 8 and 9 and the precision
//! pipeline's agreement pass read. They are computed in closed form from
//! each field's numbers of locked/unlocked reads and writes; no warning
//! list is built. A field with more than [`PAIR_BUDGET`] warning pairs
//! reports exactly [`PAIR_BUDGET`], unprotected-write pairs counted
//! first and read/write races filling the rest.
//!
//! What is deliberately *not* modeled (the reason O2 wins on precision):
//! pointer aliasing, origins, happens-before edges from `start`/`join`,
//! lock identities.
//!
//! ```
//! use o2_ir::parser::parse;
//! use o2_racerd::run_racerd;
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
//! let report = run_racerd(&program);
//! assert!(report.total_warnings() >= 1);
//! ```

#![warn(missing_docs)]

use o2_ir::ids::{FieldId, GStmt, MethodId, VarId};
use o2_ir::program::{Callee, Program, Stmt, CTOR_NAME};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// One field access in a method summary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SummaryAccess {
    /// Accessed field (by name — RacerD does not reason about pointers).
    pub field: FieldId,
    /// The access statement.
    pub stmt: GStmt,
    /// `true` for writes.
    pub is_write: bool,
    /// `true` if *some* lock is held around the access.
    pub locked: bool,
}

/// The RacerD-style report: warning counts, per field and in total.
///
/// A warning is a pair of accesses to the same field name, at least one
/// a write, not both under a lock: an *unprotected write* if neither is
/// locked, a *read/write race* otherwise. Each statement is at most one
/// access (`Stmt::field_access` and `Stmt::static_access` are
/// disjoint), so the pairs of a field are exactly the pairs of its
/// access list and their counts have a closed form in the numbers of
/// locked/unlocked reads and writes; no pair is enumerated.
#[derive(Clone, Debug, Default)]
pub struct RacerDReport {
    /// Warnings per field, indexed by [`FieldId`] (capped per field by
    /// the pair budget).
    per_field: Vec<usize>,
    /// Number of read/write race warnings.
    pub num_read_write_races: usize,
    /// Number of unprotected-write pair warnings.
    pub num_unprotected_writes: usize,
    /// Wall-clock duration.
    pub duration: Duration,
}

impl RacerDReport {
    /// Total warnings, the paper's comparison metric ("we add up the
    /// numbers of read/write races and of the pairs of conflict field
    /// accesses shown in unprotected writes").
    pub fn total_warnings(&self) -> usize {
        self.num_read_write_races + self.num_unprotected_writes
    }

    /// Number of warnings on `field`.
    pub fn field_warnings(&self, field: FieldId) -> usize {
        self.per_field.get(field.index()).copied().unwrap_or(0)
    }
}

/// Maximum access pairs reported per field. A field over the budget
/// reports exactly this many warnings, unprotected writes counted
/// first.
pub const PAIR_BUDGET: usize = 10_000;

/// The accesses of one field, by class.
#[derive(Clone, Copy, Debug, Default)]
struct FieldTally {
    /// All accesses.
    n: usize,
    /// Writes.
    writes: usize,
    /// Locked accesses.
    locked: usize,
    /// Locked writes.
    locked_writes: usize,
}

/// Pairs among `n` accesses with at least one of the `w` writes.
fn conflicting_pairs(n: usize, w: usize) -> usize {
    let pairs = |k: usize| k * k.saturating_sub(1) / 2;
    pairs(n) - pairs(n - w)
}

/// Runs the RacerD-style analysis on `program`.
pub fn run_racerd(program: &Program) -> RacerDReport {
    let start = Instant::now();
    let mut tallies = vec![FieldTally::default(); program.fields.len()];
    for_each_concurrent_access(program, |a| {
        let t = &mut tallies[a.field.index()];
        t.n += 1;
        t.writes += usize::from(a.is_write);
        t.locked += usize::from(a.locked);
        t.locked_writes += usize::from(a.locked && a.is_write);
    });

    let mut report = RacerDReport {
        per_field: vec![0; tallies.len()],
        ..RacerDReport::default()
    };
    for (t, count) in tallies.iter().zip(&mut report.per_field) {
        // Pairs with a write, minus those under a lock on both sides.
        let warned =
            conflicting_pairs(t.n, t.writes) - conflicting_pairs(t.locked, t.locked_writes);
        let unprotected =
            conflicting_pairs(t.n - t.locked, t.writes - t.locked_writes).min(PAIR_BUDGET);
        *count = warned.min(PAIR_BUDGET);
        report.num_unprotected_writes += unprotected;
        report.num_read_write_races += *count - unprotected;
    }
    report.duration = start.elapsed();
    report
}

/// The summarized accesses of every method that may run concurrently,
/// method by method in id order: the input of the warning counts.
#[doc(hidden)]
pub fn concurrent_accesses(program: &Program) -> Vec<SummaryAccess> {
    let mut out = Vec::new();
    for_each_concurrent_access(program, |a| out.push(a));
    out
}

/// Calls `f` on each summarized access of each concurrent method.
///
/// Only a method's own accesses: callee accesses surface in the callee's
/// own summary (the callee is concurrent too), so counting summaries
/// here would double-report.
fn for_each_concurrent_access(program: &Program, mut f: impl FnMut(SummaryAccess)) {
    let analysis = Analysis::new(program);
    let concurrent = analysis.concurrent_methods();
    for (m, &is_concurrent) in concurrent.iter().enumerate() {
        if is_concurrent {
            analysis.summarize(MethodId::from_usize(m), &mut f);
        }
    }
}

struct Analysis<'p> {
    program: &'p Program,
    /// CHA dispatch: (method name, arity) → all concrete targets.
    cha: HashMap<(&'p str, usize), Vec<MethodId>>,
}

impl<'p> Analysis<'p> {
    fn new(program: &'p Program) -> Self {
        let mut cha: HashMap<(&str, usize), Vec<MethodId>> = HashMap::new();
        for class in &program.classes {
            for (sel, mid) in &class.methods {
                cha.entry((sel.name.as_str(), sel.arity))
                    .or_default()
                    .push(*mid);
            }
        }
        Analysis { program, cha }
    }

    /// Methods that may run concurrently with something else: everything
    /// syntactically reachable from an origin entry point, plus everything
    /// reachable from main if the program creates origins at all.
    /// Indexed by [`MethodId`].
    fn concurrent_methods(&self) -> Vec<bool> {
        let mut roots: Vec<MethodId> = Vec::new();
        let mut has_origins = false;
        for (mi, method) in self.program.methods.iter().enumerate() {
            let mid = MethodId::from_usize(mi);
            if self.program.entry_config.is_entry(&method.name) {
                roots.push(mid);
                has_origins = true;
            }
            for instr in &method.body {
                if let Stmt::Spawn { entry, .. } = &instr.stmt {
                    roots.push(*entry);
                    has_origins = true;
                }
            }
        }
        if has_origins {
            roots.push(self.program.main);
        }
        let mut reach = vec![false; self.program.methods.len()];
        let mut stack = roots;
        while let Some(m) = stack.pop() {
            if std::mem::replace(&mut reach[m.index()], true) {
                continue;
            }
            for instr in &self.program.method(m).body {
                match &instr.stmt {
                    Stmt::Call { callee, args, .. } => match callee {
                        Callee::Virtual { name, .. } => {
                            if let Some(ts) = self.cha.get(&(name.as_str(), args.len())) {
                                stack.extend(ts.iter().copied());
                            }
                            // `start()` reaches the entry methods via the
                            // thread-entry convention.
                            if name == "start" {
                                for entry_name in &self.program.entry_config.thread_entries {
                                    if let Some(ts) = self.cha.get(&(entry_name.as_str(), 0)) {
                                        stack.extend(ts.iter().copied());
                                    }
                                }
                            }
                        }
                        Callee::Static { method } => stack.push(*method),
                    },
                    Stmt::New { class, args, .. } => {
                        if let Some(ctor) =
                            self.program.dispatch_name(*class, CTOR_NAME, args.len())
                        {
                            stack.push(ctor);
                        }
                    }
                    Stmt::Spawn { entry, .. } => stack.push(*entry),
                    _ => {}
                }
            }
        }
        reach
    }

    /// The summary of `mid`: calls `f` on each of its own field accesses,
    /// with its lock bit, after the ownership filter.
    fn summarize(&self, mid: MethodId, f: &mut impl FnMut(SummaryAccess)) {
        let method = self.program.method(mid);
        // Ownership: variables assigned from `new`/`newarray` in this
        // method own their object; accesses through them are not
        // reported (RacerD's ownership domain).
        let mut owned: HashSet<VarId> = HashSet::new();
        let mut lock_depth: usize = usize::from(method.is_synchronized);
        for (idx, instr) in method.body.iter().enumerate() {
            let stmt = GStmt::new(mid, idx);
            // Record accesses against the ownership state *before* this
            // statement's own ownership effects.
            if let Some((base, field, is_write)) = instr.stmt.field_access() {
                if !owned.contains(&base) {
                    f(SummaryAccess {
                        field,
                        stmt,
                        is_write,
                        // RacerD treats atomics as protected accesses.
                        locked: lock_depth > 0 || instr.stmt.is_atomic_access(),
                    });
                }
            }
            if let Some((_, field, is_write)) = instr.stmt.static_access() {
                f(SummaryAccess {
                    field,
                    stmt,
                    is_write,
                    locked: lock_depth > 0,
                });
            }
            match &instr.stmt {
                Stmt::New { dst, args, .. } => {
                    // Passing an owned object into a constructor
                    // transfers ownership away.
                    for a in args {
                        owned.remove(a);
                    }
                    owned.insert(*dst);
                }
                Stmt::NewArray { dst } => {
                    owned.insert(*dst);
                }
                Stmt::Assign { dst, src } => {
                    if owned.contains(src) {
                        owned.insert(*dst);
                    } else {
                        owned.remove(dst);
                    }
                }
                Stmt::Call { args, .. } | Stmt::Spawn { args, .. } => {
                    for a in args {
                        owned.remove(a);
                    }
                }
                Stmt::StoreField { base, src, .. }
                    // Storing into a non-owned base publishes the value.
                    if !owned.contains(base) => {
                        owned.remove(src);
                    }
                Stmt::StoreStatic { src, .. } => {
                    owned.remove(src);
                }
                // RacerD's coarse model has no reader/writer modes:
                // any rwlock region counts as "locked".
                Stmt::MonitorEnter { .. } | Stmt::RwEnter { .. } => lock_depth += 1,
                Stmt::MonitorExit { .. } | Stmt::RwExit { .. } => {
                    lock_depth = lock_depth.saturating_sub(1)
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_ir::parser::parse;

    #[test]
    fn reports_unprotected_write() {
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
                    x = s.data;
                }
            }
        "#;
        let p = parse(src).unwrap();
        let r = run_racerd(&p);
        assert!(r.total_warnings() >= 1);
        assert!(r.num_unprotected_writes >= 1);
    }

    #[test]
    fn both_locked_is_protected() {
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
        let p = parse(src).unwrap();
        let r = run_racerd(&p);
        // The only remaining warnings involve the constructor handoff of
        // W.s, not S.data.
        let data = p.field_by_name("data").unwrap();
        assert_eq!(r.field_warnings(data), 0, "{r:?}");
    }

    #[test]
    fn no_threads_no_warnings() {
        let src = r#"
            class S { field data; }
            class Main {
                static method main() {
                    s = new S();
                    s.data = s;
                    x = s.data;
                }
            }
        "#;
        let p = parse(src).unwrap();
        let r = run_racerd(&p);
        assert_eq!(r.total_warnings(), 0);
    }

    #[test]
    fn ownership_filters_local_allocations() {
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
        let p = parse(src).unwrap();
        let r = run_racerd(&p);
        assert_eq!(r.total_warnings(), 0, "owned accesses are filtered: {r:?}");
    }

    #[test]
    fn field_name_aliasing_overreports_vs_pointer_analysis() {
        // Two *different* objects with the same field name, each local to
        // one thread: O2 proves disjointness via pointers, RacerD conflates
        // by name and warns — the false-positive mechanism the paper
        // describes.
        let src = r#"
            class S { field data; }
            class W1 impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; s.data = s; }
            }
            class W2 impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; s.data = s; }
            }
            class Main {
                static method main() {
                    a = new S();
                    b = new S();
                    w1 = new W1(a);
                    w2 = new W2(b);
                    w1.start();
                    w2.start();
                }
            }
        "#;
        let p = parse(src).unwrap();
        let r = run_racerd(&p);
        let data = p.field_by_name("data").unwrap();
        assert!(
            r.field_warnings(data) > 0,
            "RacerD conflates same-named fields: {r:?}"
        );
    }

    #[test]
    fn one_side_locked_is_read_write_race() {
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
                    x = s.data;
                }
            }
        "#;
        let p = parse(src).unwrap();
        let r = run_racerd(&p);
        assert!(r.num_read_write_races >= 1, "{r:?}");
    }
}
