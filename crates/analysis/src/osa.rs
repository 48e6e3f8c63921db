//! Origin-sharing analysis (OSA) — Algorithm 1 of the paper.
//!
//! OSA scans the statements of every reachable method instance once and,
//! for each abstract memory location `(object, field)` (or static field),
//! accumulates the set of origins that *read* it and the set that *write*
//! it. A location is **origin-shared** if it is accessed by at least two
//! origins with at least one writer. Unlike thread-escape analysis, OSA
//! answers not only *whether* a location is shared but *how* — which
//! origins read and which write — which is exactly what race detection
//! needs.
//!
//! Locations are interned into the run's [`LocTable`] as the scan first
//! touches them; sharing state lives in a dense `Vec<SharingEntry>`
//! indexed by [`LocId`], so recording an access is one indexed push.
//! The origin sets are not touched per access: each entry's sets are
//! built once, after the scan, from its recorded accesses.

use crate::loc::{LocId, LocTable};
use o2_ir::ids::{ClassId, FieldId, GStmt};
use o2_ir::program::Program;
use o2_ir::util::SparseSet;
use o2_ir::ProgramCtx;
use o2_pta::{Mi, ObjId, PtaResult};
use std::time::{Duration, Instant};

/// An abstract memory location.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemKey {
    /// A field of an abstract object (`*` = array elements).
    Field(ObjId, FieldId),
    /// A static field, encoded by its declaring class and field name
    /// (the paper's "unique signature including the class name and the
    /// field index").
    Static(ClassId, FieldId),
}

/// One syntactic access to a memory location.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Method instance performing the access.
    pub mi: Mi,
    /// The access statement.
    pub stmt: GStmt,
    /// `true` for writes.
    pub is_write: bool,
}

/// Sharing information for one memory location.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharingEntry {
    /// Origins that write the location.
    pub write_origins: SparseSet,
    /// Origins that read the location.
    pub read_origins: SparseSet,
    /// Readers ∪ writers, built once with the other two sets so queries
    /// never re-union them.
    all_origins: SparseSet,
    /// All syntactic accesses.
    pub accesses: Vec<Access>,
}

impl SharingEntry {
    /// A location is origin-shared if at least two origins access it and
    /// at least one of them writes.
    pub fn is_shared(&self) -> bool {
        !self.write_origins.is_empty() && self.all_origins.len() >= 2
    }

    /// All origins touching the location (readers ∪ writers).
    pub fn all_origins(&self) -> &SparseSet {
        &self.all_origins
    }
}

/// The output of origin-sharing analysis.
#[derive(Clone, Debug)]
pub struct OsaResult {
    /// The run's location interner. SHB keeps interning into this same
    /// table, so an id minted here indexes every downstream dense store.
    pub locs: LocTable,
    /// Sharing info per location, indexed by [`LocId`].
    pub entries: Vec<SharingEntry>,
    /// Wall-clock duration of the scan (excludes the pointer analysis).
    pub duration: Duration,
    /// `true` if the scan stopped early on its time budget.
    pub truncated: bool,
}

impl OsaResult {
    /// The sharing entry of an interned location, if the scan saw it.
    pub fn entry(&self, id: LocId) -> Option<&SharingEntry> {
        self.entries.get(id.index())
    }

    /// Iterates only the origin-shared locations, in `MemKey` order.
    pub fn shared_entries(&self) -> impl Iterator<Item = (&MemKey, &SharingEntry)> {
        self.locs.sorted_ids().into_iter().filter_map(move |id| {
            match self.entries.get(id.index()) {
                Some(e) if e.is_shared() => Some((self.locs.key_ref(id), e)),
                _ => None,
            }
        })
    }

    /// Number of shared memory *accesses* (the `#S-access` metric of
    /// Table 7): syntactic access statements whose target location is
    /// origin-shared, deduplicated per statement.
    pub fn num_shared_accesses(&self) -> usize {
        let mut stmts = std::collections::BTreeSet::new();
        for (_, e) in self.shared_entries() {
            for a in &e.accesses {
                stmts.insert(a.stmt);
            }
        }
        stmts.len()
    }

    /// Number of distinct origin-shared objects (the `#S-obj` metric of
    /// Table 9). Static fields count one object per `(class, field)`.
    pub fn num_shared_objects(&self) -> usize {
        let mut objs = std::collections::BTreeSet::new();
        let mut statics = std::collections::BTreeSet::new();
        for (k, _) in self.shared_entries() {
            match k {
                MemKey::Field(o, _) => {
                    objs.insert(*o);
                }
                MemKey::Static(c, f) => {
                    statics.insert((*c, *f));
                }
            }
        }
        objs.len() + statics.len()
    }

    /// Renders the sharing report in the style of Figure 2(d).
    pub fn render(&self, program: &Program, pta: &PtaResult) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (key, e) in self.shared_entries() {
            let loc = match key {
                MemKey::Field(o, f) => {
                    let d = pta.arena.obj_data(*o);
                    format!(
                        "{}@{:?}.{}",
                        program.class(d.class).name,
                        d.site,
                        program.field_name(*f)
                    )
                }
                MemKey::Static(c, f) => {
                    format!("{}::{}", program.class(*c).name, program.field_name(*f))
                }
            };
            let _ = writeln!(
                out,
                "shared {loc}: writers={:?} readers={:?} accesses={}",
                e.write_origins.as_slice(),
                e.read_origins.as_slice(),
                e.accesses.len()
            );
        }
        out
    }
}

/// Runs origin-sharing analysis over a pointer-analysis result.
///
/// This is Algorithm 1: a single pass over the statements of every
/// reachable method instance, querying OPA for the points-to sets of the
/// access bases and attributing each access to the origins that may
/// execute the enclosing method instance.
pub fn run_osa(ctx: &ProgramCtx<'_>, pta: &PtaResult) -> OsaResult {
    run_osa_bounded(ctx, pta, None)
}

/// Returns the dense slot for an interned id, growing the store on first
/// sight of a new location.
fn entry_slot(entries: &mut Vec<SharingEntry>, id: LocId) -> &mut SharingEntry {
    if id.index() >= entries.len() {
        entries.resize_with(id.index() + 1, SharingEntry::default);
    }
    &mut entries[id.index()]
}

/// Like [`run_osa`], with a wall-clock budget: the scan stops early (and
/// sets [`OsaResult::truncated`]) when the budget expires. Needed when
/// scanning the method-instance explosion of deep object-sensitive runs.
pub fn run_osa_bounded(
    ctx: &ProgramCtx<'_>,
    pta: &PtaResult,
    budget: Option<Duration>,
) -> OsaResult {
    debug_assert_eq!(
        pta.program_id,
        ctx.id(),
        "run_osa: PtaResult from a different ProgramCtx"
    );
    let program = ctx.program();
    let start = Instant::now();
    let deadline = budget.map(|b| start + b);
    let mut truncated = false;
    let mut locs = LocTable::for_program(ctx.id());
    let mut entries: Vec<SharingEntry> = Vec::new();
    let mut scanned: u64 = 0;
    'outer: for mi in pta.reachable_mis() {
        let (method_id, _) = pta.mi_data(mi);
        let method = program.method(method_id);
        if pta.mi_origins(mi).is_empty() {
            continue;
        }
        for (idx, instr) in method.body.iter().enumerate() {
            scanned += 1;
            if scanned.is_multiple_of(4096) {
                if let Some(d) = deadline {
                    if Instant::now() > d {
                        truncated = true;
                        break 'outer;
                    }
                }
            }
            // A plain push never repeats an access in an entry: each
            // (mi, stmt) is scanned once, and `pts_var` yields distinct
            // objects, which are distinct `MemKey`s.
            let stmt = GStmt::new(method_id, idx);
            if let Some((base, field, is_write)) = instr.stmt.field_access() {
                let access = Access { mi, stmt, is_write };
                for &obj in pta.pts_var(mi, base) {
                    let id = locs.intern(MemKey::Field(ObjId(obj), field));
                    entry_slot(&mut entries, id).accesses.push(access);
                }
            } else if let Some((class, field, is_write)) = instr.stmt.static_access() {
                let id = locs.intern(MemKey::Static(class, field));
                let access = Access { mi, stmt, is_write };
                entry_slot(&mut entries, id).accesses.push(access);
            }
        }
    }
    build_origin_sets(pta, &mut entries);
    OsaResult {
        locs,
        entries,
        duration: start.elapsed(),
        truncated,
    }
}

/// Sets each entry's origin sets from its recorded accesses, also after a
/// truncated scan. The scan is mi-major, so one method instance's accesses
/// are contiguous in an entry: remembering the last reader and writer adds
/// each `(mi, read/write)` origin set to the buffers once.
fn build_origin_sets(pta: &PtaResult, entries: &mut [SharingEntry]) {
    let mut bufs = [Vec::new(), Vec::new()]; // [reads, writes]
    for e in entries {
        let mut last = [None, None];
        for a in &e.accesses {
            let k = usize::from(a.is_write);
            if last[k].replace(a.mi) != Some(a.mi) {
                bufs[k].extend_from_slice(pta.mi_origins(a.mi).as_slice());
            }
        }
        let [reads, writes] = &mut bufs;
        e.read_origins = reads.drain(..).collect();
        e.write_origins = writes.drain(..).collect();
        e.all_origins = e.read_origins.iter().chain(&e.write_origins).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_ir::parser::parse;
    use o2_pta::{analyze, Policy, PtaConfig};

    fn osa_for(src: &str, policy: Policy) -> (o2_ir::Program, PtaResult, OsaResult) {
        let p = parse(src).unwrap();
        let ctx = o2_ir::ProgramCtx::solo(&p);
        let pta = analyze(&ctx, &PtaConfig::with_policy(policy));
        let osa = run_osa(&ctx, &pta);
        (p, pta, osa)
    }

    const SHARED_WRITE: &str = r#"
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
    fn detects_cross_origin_write_read() {
        let (p, pta, osa) = osa_for(SHARED_WRITE, Policy::origin1());
        // Two shared locations: S.data (thread writes, main reads) and the
        // handoff field W.s (main's constructor writes, the thread reads —
        // a benign sharing later killed by the start() happens-before edge,
        // but OSA correctly reports the sharing itself).
        let data = p.field_by_name("data").unwrap();
        let shared: Vec<_> = osa.shared_entries().collect();
        assert_eq!(shared.len(), 2, "{}", osa.render(&p, &pta));
        let e = shared
            .iter()
            .find_map(|(k, e)| match k {
                MemKey::Field(_, f) if *f == data => Some(e),
                _ => None,
            })
            .expect("S.data entry");
        assert_eq!(e.write_origins.len(), 1);
        assert_eq!(e.read_origins.len(), 1);
        assert!(!e.write_origins.intersects(&e.read_origins));
        assert_eq!(e.all_origins().len(), 2);
        assert_eq!(osa.num_shared_objects(), 2);
    }

    #[test]
    fn thread_local_state_is_not_shared() {
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
        let (_, _, osa) = osa_for(src, Policy::origin1());
        assert_eq!(osa.shared_entries().count(), 0, "per-thread S is local");
        // The 0-ctx baseline conflates the two threads' allocations: the
        // single abstract S object is then written by both origins.
        let (_, _, osa0) = osa_for(src, Policy::insensitive());
        assert!(osa0.shared_entries().count() >= 1, "0-ctx conflates");
    }

    #[test]
    fn reads_only_are_not_shared() {
        let src = r#"
            class S { field data; }
            class W impl Runnable {
                field s;
                method <init>(s) { this.s = s; }
                method run() { s = this.s; x = s.data; }
            }
            class Main {
                static method main() {
                    s = new S();
                    w = new W(s);
                    w.start();
                    y = s.data;
                }
            }
        "#;
        let (p, _, osa) = osa_for(src, Policy::origin1());
        // The only shared entry is the constructor handoff of W.s; the
        // read-only S.data must NOT be shared.
        let data = p.field_by_name("data").unwrap();
        assert!(
            !osa.shared_entries()
                .any(|(k, _)| matches!(k, MemKey::Field(_, f) if *f == data)),
            "read-read on S.data is not shared"
        );
    }

    #[test]
    fn static_fields_used_by_one_origin_are_local() {
        // The paper: "certain static variables may only be used by a single
        // thread. OSA can distinguish such cases."
        let src = r#"
            class G { field cfg; }
            class W impl Runnable {
                method run() { }
            }
            class Main {
                static method main() {
                    g = new G();
                    G::cfg = g;
                    h = G::cfg;
                    w = new W();
                    w.start();
                }
            }
        "#;
        let (_, _, osa) = osa_for(src, Policy::origin1());
        assert_eq!(
            osa.shared_entries().count(),
            0,
            "static used only by main is origin-local"
        );
    }

    #[test]
    fn shared_static_across_origins() {
        let src = r#"
            class G { field cfg; }
            class W impl Runnable {
                method run() { x = G::cfg; }
            }
            class Main {
                static method main() {
                    g = new G();
                    G::cfg = g;
                    w = new W();
                    w.start();
                }
            }
        "#;
        let (_, _, osa) = osa_for(src, Policy::origin1());
        let shared: Vec<_> = osa.shared_entries().map(|(k, _)| *k).collect();
        assert_eq!(shared.len(), 1);
        assert!(matches!(shared[0], MemKey::Static(..)));
    }

    #[test]
    fn array_accesses_share_via_star_field() {
        let src = r#"
            class W impl Runnable {
                field a;
                method <init>(a) { this.a = a; }
                method run() { a = this.a; a[*] = a; }
            }
            class Main {
                static method main() {
                    arr = newarray;
                    w = new W(arr);
                    w.start();
                    x = arr[*];
                }
            }
        "#;
        let (p, _, osa) = osa_for(src, Policy::origin1());
        // Shared: the array's `*` field (thread writes, main reads) plus
        // the constructor handoff of W.a.
        assert!(
            osa.shared_entries()
                .any(|(k, _)| matches!(k, MemKey::Field(_, f) if p.field_name(*f) == "*")),
            "array element field must be origin-shared"
        );
    }

    #[test]
    fn render_mentions_shared_location() {
        let (p, pta, osa) = osa_for(SHARED_WRITE, Policy::origin1());
        let text = osa.render(&p, &pta);
        assert!(text.contains("shared"), "{text}");
        assert!(text.contains("data"), "{text}");
    }
}
