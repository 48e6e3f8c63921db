//! Small analysis-grade containers shared by the whole workspace: a sorted
//! sparse integer set for points-to sets and a generic hash-interner —
//! plus the one JSON string escaper every report writer and the serve
//! wire protocol use.

use o2_db::FastMap;
use std::fmt::Write as _;
use std::hash::Hash;

/// A sparse, sorted set of `u32` keys.
///
/// Points-to sets are usually tiny, so a sorted `Vec` beats both hash sets
/// and dense bitsets on memory and iteration speed, while unions are linear
/// merges. Iteration order is ascending, which keeps every downstream
/// analysis deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct SparseSet {
    items: Vec<u32>,
}

impl SparseSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SparseSet::default()
    }

    /// Returns the number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns `true` if `value` is in the set.
    pub fn contains(&self, value: u32) -> bool {
        self.items.binary_search(&value).is_ok()
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: u32) -> bool {
        match self.items.binary_search(&value) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, value);
                true
            }
        }
    }

    /// Unions `other` into `self`, appending every newly added element to
    /// `added`. Returns `true` if `self` changed.
    pub fn union_into(&mut self, other: &SparseSet, added: &mut Vec<u32>) -> bool {
        if other.items.is_empty() {
            return false;
        }
        if self.items.is_empty() {
            self.items.extend_from_slice(&other.items);
            added.extend_from_slice(&other.items);
            return true;
        }
        let before = added.len();
        let mut merged = Vec::with_capacity(self.items.len() + other.items.len());
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.items[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.items[j]);
                    added.push(other.items[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.items[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.items[i..]);
        for &v in &other.items[j..] {
            merged.push(v);
            added.push(v);
        }
        if added.len() == before {
            return false;
        }
        self.items = merged;
        true
    }

    /// Returns `true` if the two sets share at least one element.
    pub fn intersects(&self, other: &SparseSet) -> bool {
        let (mut i, mut j) = (0, 0);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.items.iter().copied()
    }

    /// Returns the elements as a sorted slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.items
    }
}

/// Appends, then sorts and dedups once: O(n log n) on unsorted input.
impl FromIterator<u32> for SparseSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = SparseSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<u32> for SparseSet {
    fn extend<T: IntoIterator<Item = u32>>(&mut self, iter: T) {
        self.items.extend(iter);
        self.items.sort_unstable();
        self.items.dedup();
    }
}

impl<'a> IntoIterator for &'a SparseSet {
    type Item = u32;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u32>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

/// A dense set of `u32` keys packed into `u64` blocks.
///
/// The complement of [`SparseSet`]: where points-to sets are tiny and
/// sparse, the detect hot path tests membership and intersection over
/// *dense* id spaces (canonical lock elements, origin ids), where one
/// 64-bit AND answers 64 membership questions at once. Blocks grow on
/// demand; trailing blocks are allowed to be zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    blocks: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Creates an empty set with room for keys below `nbits` without
    /// reallocation.
    pub fn with_capacity(nbits: usize) -> Self {
        BitSet {
            blocks: Vec::with_capacity(nbits.div_ceil(64)),
        }
    }

    /// Inserts `value`; returns `true` if it was not already present.
    pub fn insert(&mut self, value: u32) -> bool {
        let (block, bit) = (value as usize / 64, value as usize % 64);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << bit;
        let present = self.blocks[block] & mask != 0;
        self.blocks[block] |= mask;
        !present
    }

    /// Returns `true` if `value` is in the set.
    pub fn contains(&self, value: u32) -> bool {
        let (block, bit) = (value as usize / 64, value as usize % 64);
        self.blocks.get(block).is_some_and(|b| b & (1 << bit) != 0)
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Removes all elements, keeping the allocation.
    pub fn clear(&mut self) {
        self.blocks.clear();
    }

    /// Returns `true` if the two sets share at least one element —
    /// word-parallel, one AND per 64 candidate keys.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Intersects `other` into `self` (`self ∩= other`). Used to fold the
    /// common-guard intersection over a candidate's locksets.
    pub fn intersect_with(&mut self, other: &BitSet) {
        let keep = self.blocks.len().min(other.blocks.len());
        self.blocks.truncate(keep);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.blocks.iter().enumerate().flat_map(|(i, &block)| {
            let base = (i * 64) as u32;
            BitIter { block, base }
        })
    }
}

struct BitIter {
    block: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.block == 0 {
            return None;
        }
        let bit = self.block.trailing_zeros();
        self.block &= self.block - 1;
        Some(self.base + bit)
    }
}

impl FromIterator<u32> for BitSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = BitSet::new();
        for v in iter {
            s.insert(v);
        }
        s
    }
}

/// A small deterministic pseudo-random number generator (SplitMix64).
///
/// The workspace builds fully offline, so the workload generator and the
/// seeded property tests use this instead of an external `rand` crate.
/// SplitMix64 passes BigCrush for this purpose and, crucially, a given seed
/// produces the same stream on every platform and every run, which keeps
/// generated workloads byte-identical across machines.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Returns the next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)`; `bound` must be non-zero.
    ///
    /// Uses Lemire's multiply-shift reduction with rejection sampling, so
    /// the result is exactly uniform (no modulo bias).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be non-zero");
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // 53 random bits give a uniform double in [0, 1).
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        u < p
    }

    /// Returns a uniform `usize` in `[lo, hi)`; `lo < hi` required.
    pub fn gen_range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "gen_range requires lo < hi");
        lo + self.next_below((hi - lo) as u64) as usize
    }
}

/// An append-only interner mapping values of type `T` to dense `u32` keys.
///
/// Used for contexts, abstract objects, origins, lockset signatures, and
/// solver node keys. Lookup by key is an indexed `Vec` access.
///
/// Lookup by value hashes with the Fx hasher ([`o2_db::FastMap`]), not
/// SipHash: every key is derived from the analyzed program (ids, contexts,
/// lock elements), never read raw from a request, so the table needs no
/// flood resistance. [`Interner::iter`] walks the values in insertion
/// order, so no output depends on the hasher.
#[derive(Clone, Debug, Default)]
pub struct Interner<T: Eq + Hash + Clone> {
    map: FastMap<T, u32>,
    items: Vec<T>,
}

impl<T: Eq + Hash + Clone> Interner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner {
            map: FastMap::default(),
            items: Vec::new(),
        }
    }

    /// Interns `value`, returning its dense key. Returns the existing key if
    /// the value was interned before.
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&id) = self.map.get(&value) {
            return id;
        }
        let id = u32::try_from(self.items.len()).expect("interner overflow");
        self.map.insert(value.clone(), id);
        self.items.push(value);
        id
    }

    /// Returns the key for `value` if it was interned before.
    pub fn get(&self, value: &T) -> Option<u32> {
        self.map.get(value).copied()
    }

    /// Resolves a key back to the interned value.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: u32) -> &T {
        &self.items[id as usize]
    }

    /// Returns the number of interned values.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.items.iter().enumerate().map(|(i, v)| (i as u32, v))
    }
}

/// Escapes `s` for embedding in a JSON string literal. `"`, `\\`, and
/// newline, carriage return and tab get their two-character escapes;
/// every other character below U+0020 is written `\u00xx`; everything
/// else, multibyte UTF-8 included, is copied through unchanged.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    // Every byte that needs escaping is ASCII, and no byte of a multibyte
    // UTF-8 sequence is, so byte positions between escapes are always
    // char boundaries: unescaped runs are copied as whole slices.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_table_is_pinned() {
        assert_eq!(json_escape("\""), "\\\"");
        assert_eq!(json_escape("\\"), "\\\\");
        assert_eq!(json_escape("\n"), "\\n");
        assert_eq!(json_escape("\r"), "\\r");
        assert_eq!(json_escape("\t"), "\\t");
        assert_eq!(json_escape("/"), "/");
        for b in 0u8..0x20 {
            if !matches!(b, b'\n' | b'\r' | b'\t') {
                let c = char::from(b).to_string();
                assert_eq!(json_escape(&c), format!("\\u{:04x}", b), "byte {b:#x}");
            }
        }
        assert_eq!(json_escape("\u{7f}"), "\u{7f}", "DEL passes through");
        assert_eq!(json_escape("é😀 a.f = b;"), "é😀 a.f = b;");
        assert_eq!(json_escape("x\"y\u{1}z"), "x\\\"y\\u0001z");
    }

    #[test]
    fn sparse_set_insert_and_contains() {
        let mut s = SparseSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert!(s.contains(1));
        assert!(!s.contains(2));
        assert_eq!(s.as_slice(), &[1, 5]);
    }

    #[test]
    fn sparse_set_union_reports_delta() {
        let mut a: SparseSet = [1, 3, 5].into_iter().collect();
        let b: SparseSet = [2, 3, 6].into_iter().collect();
        let mut added = Vec::new();
        assert!(a.union_into(&b, &mut added));
        assert_eq!(added, vec![2, 6]);
        assert_eq!(a.as_slice(), &[1, 2, 3, 5, 6]);
        added.clear();
        assert!(!a.union_into(&b, &mut added));
        assert!(added.is_empty());
    }

    #[test]
    fn sparse_set_union_into_empty() {
        let mut a = SparseSet::new();
        let b: SparseSet = [4, 9].into_iter().collect();
        let mut added = Vec::new();
        assert!(a.union_into(&b, &mut added));
        assert_eq!(added, vec![4, 9]);
    }

    #[test]
    fn sparse_set_intersects() {
        let a: SparseSet = [1, 4, 7].into_iter().collect();
        let b: SparseSet = [2, 4].into_iter().collect();
        let c: SparseSet = [3, 8].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&SparseSet::new()));
    }

    #[test]
    fn bitset_insert_contains_iter() {
        let mut s = BitSet::with_capacity(200);
        assert!(s.is_empty());
        assert!(s.insert(3));
        assert!(s.insert(64));
        assert!(s.insert(191));
        assert!(!s.insert(64), "second insert reports already-present");
        assert_eq!(s.len(), 3);
        assert!(s.contains(3) && s.contains(64) && s.contains(191));
        assert!(!s.contains(4) && !s.contains(1000));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 64, 191]);
        s.clear();
        assert!(s.is_empty() && !s.contains(3));
    }

    #[test]
    fn bitset_intersection_across_blocks() {
        let a: BitSet = [1, 63, 64, 130].into_iter().collect();
        let b: BitSet = [2, 130].into_iter().collect();
        let c: BitSet = [65, 200].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&BitSet::new()));
        let mut acc = a.clone();
        acc.intersect_with(&b);
        assert_eq!(acc.iter().collect::<Vec<_>>(), vec![130]);
        acc.intersect_with(&c);
        assert!(acc.is_empty());
    }

    #[test]
    fn bitset_matches_btreeset_on_random_inputs() {
        use std::collections::BTreeSet;
        let mut rng = SplitMix64::seed_from_u64(42);
        for _ in 0..50 {
            let mut s = BitSet::new();
            let mut reference = BTreeSet::new();
            for _ in 0..rng.next_below(40) {
                let v = rng.next_below(300) as u32;
                assert_eq!(s.insert(v), reference.insert(v));
            }
            assert_eq!(s.len(), reference.len());
            assert_eq!(
                s.iter().collect::<Vec<_>>(),
                reference.iter().copied().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn interner_dedups() {
        let mut i = Interner::new();
        let a = i.intern("x".to_string());
        let b = i.intern("y".to_string());
        let a2 = i.intern("x".to_string());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(b), "y");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(&"y".to_string()), Some(b));
        assert_eq!(i.get(&"z".to_string()), None);
    }
}
