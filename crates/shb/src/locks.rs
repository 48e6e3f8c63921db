//! Canonical lockset representation — the second optimization of §4.1.
//!
//! Every distinct combination of locks is interned once and referred to by
//! a [`LockSetId`] with a dense bitset mirror. This replaces per-access
//! lock lists with a single integer and turns the common-lock check into
//! one word-parallel AND per 64 lock elements.

use o2_ir::ids::ClassId;
use o2_ir::util::{BitSet, Interner};
use o2_pta::ObjId;

/// One lock in a lockset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockElem {
    /// A monitor on an abstract object.
    Obj(ObjId),
    /// The class-level monitor of a static synchronized method.
    Class(ClassId),
    /// The implicit lock serializing all event handlers of one dispatcher
    /// (§4.2: "we protect the memory accesses within all the event
    /// handlers by one global lock").
    Dispatcher(u16),
    /// The implicit per-cell serialization of atomic accesses: two atomic
    /// operations on the same `(object, field)` never race with each
    /// other, while a plain access to the same cell (which does not hold
    /// this element) still does — the paper's future-work treatment of
    /// `std::atomic`, modeled as happens-before via mutual exclusion.
    AtomicCell(ObjId, o2_ir::ids::FieldId),
    /// The shared (read) side of a reader-writer lock on an abstract
    /// object. Excludes [`LockElem::RwWrite`] of the same object but *not*
    /// itself: two critical sections both holding only the read side can
    /// run concurrently, so a read-only guard never protects a write.
    RwRead(ObjId),
    /// The exclusive (write) side of a reader-writer lock on an abstract
    /// object. Excludes both itself and [`LockElem::RwRead`] of the same
    /// object — a common write guard protects exactly like a monitor.
    RwWrite(ObjId),
    /// The implicit lock serializing all tasks of a single-worker async
    /// executor: like [`LockElem::Dispatcher`], but in the executor id
    /// space (multi-worker executors get no such element).
    Executor(u16),
}

/// An interned canonical lockset.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockSetId(pub u32);

impl LockSetId {
    /// The empty lockset.
    pub const EMPTY: LockSetId = LockSetId(0);
}

/// Returns `true` if holding `a` in one critical section excludes holding
/// `b` in another. Symmetric. Plain elements conflict only with
/// themselves; the read side of a reader-writer lock conflicts with the
/// write side of the same lock but not with itself.
fn conflicts(a: LockElem, b: LockElem) -> bool {
    match (a, b) {
        (LockElem::RwRead(_), LockElem::RwRead(_)) => false,
        (LockElem::RwRead(x), LockElem::RwWrite(y))
        | (LockElem::RwWrite(x), LockElem::RwRead(y)) => x == y,
        _ => a == b,
    }
}

/// The lockset interner plus the bitset mirrors the disjointness check
/// reads.
#[derive(Debug)]
pub struct LockTable {
    elems: Interner<LockElem>,
    sets: Interner<Vec<u32>>,
    /// Dense-bitset mirror of `sets`, indexed by canonical id: element ids
    /// are small and dense, so one u64 AND tests 64 locks at once.
    bits: Vec<BitSet>,
    /// Per-set *exclusion* bitset: the union of the conflict sets of its
    /// members. A plain element contributes itself; `RwWrite(o)`
    /// contributes itself plus `RwRead(o)`; `RwRead(o)` contributes only
    /// `RwWrite(o)`. Two sets exclude each other iff `bits[a]` intersects
    /// `excl[b]` (symmetric, because [`conflicts`] is).
    excl: Vec<BitSet>,
    /// Per-element conflict ids, indexed by element id.
    elem_conflicts: Vec<Vec<u32>>,
    /// Element ids that exclude themselves (everything except `RwRead`).
    /// A lockset guards its *own* origin's re-executions — and a common
    /// guard protects a candidate — only through one of these.
    selfx: BitSet,
}

impl Default for LockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LockTable {
    /// Creates a table with the empty lockset pre-interned as
    /// [`LockSetId::EMPTY`].
    pub fn new() -> Self {
        let mut t = LockTable {
            elems: Interner::new(),
            sets: Interner::new(),
            bits: Vec::new(),
            excl: Vec::new(),
            elem_conflicts: Vec::new(),
            selfx: BitSet::new(),
        };
        let empty = t.sets.intern(Vec::new());
        debug_assert_eq!(empty, 0);
        t.bits.push(BitSet::new());
        t.excl.push(BitSet::new());
        t
    }

    /// Interns one lock element. Interning either side of a reader-writer
    /// lock eagerly interns the paired side, so conflict ids always exist.
    pub fn elem(&mut self, e: LockElem) -> u32 {
        let id = self.elems.intern(e);
        self.sync_elem_tables();
        id
    }

    /// Catches the per-element tables up with the interner. Interning the
    /// paired rw-mode element inside the loop may itself extend the
    /// interner; the `while` re-checks until both are covered.
    fn sync_elem_tables(&mut self) {
        while self.elem_conflicts.len() < self.elems.len() {
            let id = self.elem_conflicts.len() as u32;
            let e = *self.elems.resolve(id);
            let conflict_ids = match e {
                LockElem::RwRead(o) => vec![self.elems.intern(LockElem::RwWrite(o))],
                LockElem::RwWrite(o) => {
                    vec![id, self.elems.intern(LockElem::RwRead(o))]
                }
                _ => vec![id],
            };
            if !matches!(e, LockElem::RwRead(_)) {
                self.selfx.insert(id);
            }
            self.elem_conflicts.push(conflict_ids);
        }
    }

    /// Interns a lockset from element ids (deduplicated and sorted here).
    pub fn set(&mut self, mut elems: Vec<u32>) -> LockSetId {
        elems.sort_unstable();
        elems.dedup();
        let id = self.sets.intern(elems);
        if id as usize == self.bits.len() {
            // Freshly interned: mirror it as a bitset plus its exclusion
            // bitset (union of member conflict sets).
            self.bits
                .push(self.sets.resolve(id).iter().copied().collect());
            let mut ex = BitSet::new();
            for &e in self.sets.resolve(id) {
                for &c in &self.elem_conflicts[e as usize] {
                    ex.insert(c);
                }
            }
            self.excl.push(ex);
        }
        LockSetId(id)
    }

    /// Returns the element ids of a canonical lockset (sorted).
    pub fn set_elems(&self, id: LockSetId) -> &[u32] {
        self.sets.resolve(id.0)
    }

    /// Resolves an element id back to its [`LockElem`].
    pub fn elem_data(&self, id: u32) -> LockElem {
        *self.elems.resolve(id)
    }

    /// Returns `true` if holding set `a` never excludes holding set `b`:
    /// the two locksets share no *conflicting* lock. One AND per 64
    /// element ids of `a`'s members against everything `b`'s members
    /// exclude, so rw-mode asymmetry is respected.
    ///
    /// Note `disjoint(s, s)` can be `true`: a set holding only the read
    /// side of a reader-writer lock does not exclude another critical
    /// section holding the same set, which is how loop-replicated origins
    /// writing under only `rdlock` self-race. So there is no `a == b`
    /// shortcut.
    pub fn disjoint(&self, a: LockSetId, b: LockSetId) -> bool {
        if a == LockSetId::EMPTY || b == LockSetId::EMPTY {
            return true;
        }
        !self.bits[a.0 as usize].intersects(&self.excl[b.0 as usize])
    }

    /// Slice-scan disjointness over the interned element lists — used by
    /// the naive baseline detector to model per-pair lock-list
    /// comparison.
    pub fn disjoint_uncached(&self, a: LockSetId, b: LockSetId) -> bool {
        let (ea, eb) = (self.sets.resolve(a.0), self.sets.resolve(b.0));
        // Plain pairwise scan (the baseline models per-pair lock lists);
        // element ids differ for the two sides of one rw lock, so a
        // sorted-merge equality scan would miss read/write conflicts.
        !ea.iter().any(|&x| {
            let dx = self.elem_data(x);
            eb.iter().any(|&y| conflicts(dx, self.elem_data(y)))
        })
    }

    /// The element ids `id` conflicts with: itself for plain elements,
    /// the paired write side for `RwRead`, itself plus the paired read
    /// side for `RwWrite`. The paired side always exists (interning one
    /// rw side eagerly interns the other).
    pub fn conflict_ids(&self, id: u32) -> &[u32] {
        &self.elem_conflicts[id as usize]
    }

    /// Returns `true` if every lockset in `ids` shares at least one common
    /// *self-excluding* lock element (the pre-loop "common guard" test).
    /// Any empty lockset — or an empty iterator — yields `false`.
    ///
    /// The self-exclusion requirement keeps the test sound under rw
    /// modes: a shared `RwRead` element is common to all readers but does
    /// not serialize them, so it must not count as a guard.
    pub fn common_guard(&self, mut ids: impl Iterator<Item = LockSetId>) -> bool {
        let Some(first) = ids.next() else {
            return false;
        };
        let mut acc = self.bits[first.0 as usize].clone();
        if acc.is_empty() {
            return false;
        }
        for id in ids {
            acc.intersect_with(&self.bits[id.0 as usize]);
            if acc.is_empty() {
                return false;
            }
        }
        acc.intersects(&self.selfx)
    }

    /// Number of distinct lock combinations seen.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_is_id_zero() {
        let mut t = LockTable::new();
        assert_eq!(t.set(vec![]), LockSetId::EMPTY);
    }

    #[test]
    fn sets_are_canonical() {
        let mut t = LockTable::new();
        let a = t.elem(LockElem::Obj(ObjId(1)));
        let b = t.elem(LockElem::Obj(ObjId(2)));
        let s1 = t.set(vec![a, b]);
        let s2 = t.set(vec![b, a, a]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn disjointness() {
        let mut t = LockTable::new();
        let a = t.elem(LockElem::Obj(ObjId(1)));
        let b = t.elem(LockElem::Obj(ObjId(2)));
        let c = t.elem(LockElem::Dispatcher(0));
        let s_ab = t.set(vec![a, b]);
        let s_bc = t.set(vec![b, c]);
        let s_c = t.set(vec![c]);
        assert!(!t.disjoint(s_ab, s_bc));
        assert!(t.disjoint(s_ab, s_c));
        assert!(t.disjoint(s_ab, LockSetId::EMPTY));
        assert!(!t.disjoint(s_c, s_c));
        assert!(!t.disjoint_uncached(s_ab, s_bc));
        assert!(t.disjoint_uncached(s_ab, s_c));
    }

    #[test]
    fn common_guard_folds_over_all_sets() {
        let mut t = LockTable::new();
        let a = t.elem(LockElem::Obj(ObjId(1)));
        let b = t.elem(LockElem::Obj(ObjId(2)));
        let c = t.elem(LockElem::Dispatcher(0));
        let s_ab = t.set(vec![a, b]);
        let s_abc = t.set(vec![a, b, c]);
        let s_bc = t.set(vec![b, c]);
        let s_c = t.set(vec![c]);
        assert!(
            t.common_guard([s_ab, s_abc, s_bc].into_iter()),
            "b is common"
        );
        assert!(!t.common_guard([s_ab, s_abc, s_c].into_iter()));
        assert!(!t.common_guard([s_ab, LockSetId::EMPTY].into_iter()));
        assert!(!t.common_guard(std::iter::empty()));
        assert!(t.common_guard([s_c].into_iter()), "singleton guards itself");
    }

    #[test]
    fn rw_modes_are_asymmetric() {
        let mut t = LockTable::new();
        let r = t.elem(LockElem::RwRead(ObjId(7)));
        let w = t.elem(LockElem::RwWrite(ObjId(7)));
        let p = t.elem(LockElem::Obj(ObjId(8)));
        let s_r = t.set(vec![r]);
        let s_w = t.set(vec![w]);
        let s_rp = t.set(vec![r, p]);
        // Two read-side holders do not exclude each other — even the same
        // canonical set is self-disjoint.
        assert!(t.disjoint(s_r, s_r));
        // Read vs write and write vs write of the same lock exclude.
        assert!(!t.disjoint(s_r, s_w));
        assert!(!t.disjoint(s_w, s_r));
        assert!(!t.disjoint(s_w, s_w));
        // A plain element in the set restores self-exclusion.
        assert!(!t.disjoint(s_rp, s_rp));
        // Uncached scan agrees on every combination.
        assert!(t.disjoint_uncached(s_r, s_r));
        assert!(!t.disjoint_uncached(s_r, s_w));
        assert!(!t.disjoint_uncached(s_w, s_w));
        assert!(!t.disjoint_uncached(s_rp, s_rp));
        // Executors behave like plain elements.
        let e = t.elem(LockElem::Executor(3));
        let s_e = t.set(vec![e]);
        assert!(!t.disjoint(s_e, s_e));
    }

    #[test]
    fn interning_one_rw_side_creates_the_pair() {
        let mut t = LockTable::new();
        let r = t.elem(LockElem::RwRead(ObjId(1)));
        // The paired write side already exists with the next id.
        let w = t.elem(LockElem::RwWrite(ObjId(1)));
        assert_eq!(w, r + 1);
        assert_eq!(t.elem_data(w), LockElem::RwWrite(ObjId(1)));
    }

    #[test]
    fn common_guard_requires_a_self_excluding_elem() {
        let mut t = LockTable::new();
        let r = t.elem(LockElem::RwRead(ObjId(1)));
        let w = t.elem(LockElem::RwWrite(ObjId(1)));
        let p = t.elem(LockElem::Obj(ObjId(2)));
        let s_r = t.set(vec![r]);
        let s_rp = t.set(vec![r, p]);
        let s_w = t.set(vec![w]);
        // All sets share RwRead — but readers don't exclude each other.
        assert!(!t.common_guard([s_r, s_r, s_rp].into_iter()));
        // A common plain element guards.
        assert!(t.common_guard([s_rp, s_rp].into_iter()));
        // A common write side guards like a monitor.
        assert!(t.common_guard([s_w, s_w].into_iter()));
        // Read side vs write side have no common element id at all.
        assert!(!t.common_guard([s_r, s_w].into_iter()));
    }

    /// Property test (PR 6 satellite): the word-parallel bitset
    /// intersection behind [`LockTable::disjoint`] must agree with a
    /// reference `BTreeSet` intersection on SplitMix64-random locksets.
    #[test]
    fn bitset_disjointness_matches_btreeset_reference() {
        use o2_ir::util::SplitMix64;
        use std::collections::BTreeSet;
        let mut rng = SplitMix64::seed_from_u64(0x9E3779B97F4A7C15);
        let mut t = LockTable::new();
        // A pool of element ids wide enough to span multiple u64 blocks.
        let pool: Vec<u32> = (0..200).map(|i| t.elem(LockElem::Obj(ObjId(i)))).collect();
        let mut sets: Vec<(LockSetId, BTreeSet<u32>)> = Vec::new();
        for _ in 0..64 {
            let n = rng.next_below(12) as usize;
            let elems: Vec<u32> = (0..n)
                .map(|_| pool[rng.next_below(pool.len() as u64) as usize])
                .collect();
            let reference: BTreeSet<u32> = elems.iter().copied().collect();
            sets.push((t.set(elems), reference));
        }
        for i in 0..sets.len() {
            for j in 0..sets.len() {
                let (ia, ra) = &sets[i];
                let (ib, rb) = &sets[j];
                let expect = if ra.is_empty() || rb.is_empty() {
                    true // empty locksets protect nothing in common
                } else {
                    ra.intersection(rb).next().is_none()
                };
                assert_eq!(
                    t.disjoint(*ia, *ib),
                    expect,
                    "bitset path diverges from BTreeSet on {ra:?} vs {rb:?}"
                );
                assert_eq!(
                    t.disjoint_uncached(*ia, *ib),
                    ra.intersection(rb).next().is_none(),
                    "slice-scan path diverges from BTreeSet on {ra:?} vs {rb:?}"
                );
            }
        }
    }
}
