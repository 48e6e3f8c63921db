//! The shared location-interning layer of the data plane.
//!
//! Every abstract memory location ([`MemKey`]) is interned exactly once
//! into a [`LocTable`], which hands out dense `u32` [`LocId`]s. Downstream
//! stages (OSA sharing entries, the SHB access index, detect candidates)
//! store per-location state in plain `Vec`s indexed by `LocId` instead of
//! `BTreeMap<MemKey, _>` trees — the same §4.1 move that replaced lock
//! lists with interned `LockSetId`s (`o2-shb`), applied to memory locations.
//!
//! `LocId`s are an accident of interning order and are valid only within
//! one analysis run: they never enter rendered reports or database images.
//! Everything that crosses a run boundary (report text) goes through the
//! canonical name form instead, so the table can assign
//! ids in whatever order the scan visits locations without affecting any
//! serialized output. Deterministic *report* order is recovered on demand
//! via [`LocTable::sorted_ids`], which orders ids by their [`MemKey`] —
//! the exact order the old `BTreeMap` iteration produced.

use crate::osa::MemKey;
use o2_db::FastMap;
use o2_ir::ProgramId;

/// Dense id of one interned memory location, valid for one analysis run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocId(pub u32);

impl LocId {
    /// The id as a `Vec` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The memory-location interner: `MemKey` ↔ dense [`LocId`].
#[derive(Clone, Debug, Default)]
pub struct LocTable {
    program: ProgramId,
    map: FastMap<MemKey, u32>,
    keys: Vec<MemKey>,
}

impl LocTable {
    /// Creates an empty table namespaced to [`ProgramId::SOLO`].
    pub fn new() -> Self {
        LocTable::default()
    }

    /// Creates an empty table namespaced to `program`. Stages that consume
    /// the table assert (in debug builds) that its program id matches the
    /// [`o2_ir::ProgramCtx`] they run under, so `LocId`s from two programs
    /// of a batch run can never be mixed.
    pub fn for_program(program: ProgramId) -> Self {
        LocTable {
            program,
            ..LocTable::default()
        }
    }

    /// The program this table's dense ids belong to.
    #[inline]
    pub fn program(&self) -> ProgramId {
        self.program
    }

    /// Interns `key`, returning its dense id. A key already interned keeps
    /// its original id, so ids are stable for the rest of the run.
    pub fn intern(&mut self, key: MemKey) -> LocId {
        if let Some(&id) = self.map.get(&key) {
            return LocId(id);
        }
        let id = u32::try_from(self.keys.len()).expect("LocTable overflow");
        self.map.insert(key, id);
        self.keys.push(key);
        LocId(id)
    }

    /// Returns the id of `key` if it was interned before.
    pub fn lookup(&self, key: &MemKey) -> Option<LocId> {
        self.map.get(key).copied().map(LocId)
    }

    /// Resolves an id back to its [`MemKey`].
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn key(&self, id: LocId) -> MemKey {
        self.keys[id.index()]
    }

    /// Borrowing variant of [`LocTable::key`].
    pub fn key_ref(&self, id: LocId) -> &MemKey {
        &self.keys[id.index()]
    }

    /// Number of interned locations.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `(id, key)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (LocId, &MemKey)> {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, k)| (LocId(i as u32), k))
    }

    /// All ids ordered by their [`MemKey`] — the canonical report order.
    ///
    /// The result is independent of interning order: two tables holding the
    /// same key set yield the same key sequence here, which is what keeps
    /// candidate iteration (and hence dedup retention and rendered reports)
    /// byte-identical no matter how the scan happened to visit locations.
    pub fn sorted_ids(&self) -> Vec<LocId> {
        let mut ids: Vec<LocId> = (0..self.keys.len() as u32).map(LocId).collect();
        ids.sort_unstable_by_key(|id| self.keys[id.index()]);
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use o2_ir::ids::{ClassId, FieldId};
    use o2_pta::ObjId;

    fn k_field(o: u32, f: usize) -> MemKey {
        MemKey::Field(ObjId(o), FieldId::from_usize(f))
    }

    fn k_static(c: usize, f: usize) -> MemKey {
        MemKey::Static(ClassId::from_usize(c), FieldId::from_usize(f))
    }

    #[test]
    fn interning_is_stable_and_dense() {
        let mut t = LocTable::new();
        let a = t.intern(k_field(3, 1));
        let b = t.intern(k_static(0, 2));
        assert_eq!(a, LocId(0));
        assert_eq!(b, LocId(1));
        assert_eq!(t.intern(k_field(3, 1)), a, "re-intern keeps the id");
        assert_eq!(t.len(), 2);
        assert_eq!(t.key(a), k_field(3, 1));
        assert_eq!(t.lookup(&k_static(0, 2)), Some(b));
        assert_eq!(t.lookup(&k_field(9, 9)), None);
    }

    /// Property: the canonical view of a table — the key sequence under
    /// [`LocTable::sorted_ids`] — depends only on the key *set*, never on
    /// the order the keys were interned in (or how often they repeat).
    #[test]
    fn sorted_view_is_insertion_order_independent() {
        let mut pool: Vec<MemKey> = Vec::new();
        for o in 0..8 {
            for f in 0..4 {
                pool.push(k_field(o, f));
            }
        }
        for c in 0..3 {
            for f in 0..4 {
                pool.push(k_static(c, f));
            }
        }
        let canonical = |t: &LocTable| -> Vec<MemKey> {
            t.sorted_ids().into_iter().map(|id| t.key(id)).collect()
        };
        let mut reference = LocTable::new();
        for &k in &pool {
            reference.intern(k);
        }
        let expected = canonical(&reference);

        let mut rng = o2_ir::util::SplitMix64::seed_from_u64(0x5eed);
        for _ in 0..32 {
            // Fisher–Yates shuffle of the pool, plus random re-interns.
            let mut order = pool.clone();
            for i in (1..order.len()).rev() {
                let j = rng.next_below(i as u64 + 1) as usize;
                order.swap(i, j);
            }
            let mut t = LocTable::new();
            for &k in &order {
                let id = t.intern(k);
                assert_eq!(t.intern(k), id, "re-intern keeps the id");
            }
            assert_eq!(t.len(), pool.len());
            assert_eq!(canonical(&t), expected, "order must not matter");
        }
    }

    #[test]
    fn sorted_ids_follow_memkey_order() {
        let mut t = LocTable::new();
        // Interned out of MemKey order on purpose.
        let s = t.intern(k_static(1, 0));
        let f2 = t.intern(k_field(2, 0));
        let f1 = t.intern(k_field(1, 5));
        // Field < Static by enum-variant order; fields order by (obj, field).
        assert_eq!(t.sorted_ids(), vec![f1, f2, s]);
    }
}
