//! Randomized property tests for the IR crate: the sparse-set container,
//! the interner, and the parse → print → parse round-trip.
//!
//! The cases are drawn from the std-only [`SplitMix64`] generator with fixed
//! seeds, so every run checks exactly the same inputs — failures reproduce
//! without a shrinker or an external property-testing dependency.

use o2_ir::util::{Interner, SparseSet, SplitMix64};

const CASES: u64 = 64;

/// SparseSet behaves like a BTreeSet<u32> under random insert/contains.
#[test]
fn sparse_set_models_btreeset() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x5109_0000 + case);
        let mut sparse = SparseSet::new();
        let mut model = std::collections::BTreeSet::new();
        let n_ops = rng.gen_range(0, 200);
        for _ in 0..n_ops {
            let v = rng.next_below(256) as u32;
            if rng.gen_bool(0.5) {
                assert_eq!(sparse.insert(v), model.insert(v), "insert {v}");
            } else {
                assert_eq!(sparse.contains(v), model.contains(&v), "contains {v}");
            }
        }
        assert_eq!(sparse.len(), model.len());
        let collected: Vec<u32> = sparse.iter().collect();
        let expected: Vec<u32> = model.iter().copied().collect();
        assert_eq!(collected, expected, "ascending iteration");
    }
}

/// `collect` and `extend` build the same set as a BTreeSet from unsorted
/// input with duplicates (and from empty input).
#[test]
fn collect_and_extend_model_btreeset() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x5109_4000 + case);
        let draw = |rng: &mut SplitMix64| -> Vec<u32> {
            let n = rng.gen_range(0, 100);
            (0..n).map(|_| rng.next_below(64) as u32).collect()
        };
        let (a, b) = (draw(&mut rng), draw(&mut rng));
        let mut sparse: SparseSet = a.iter().copied().collect();
        let mut model: std::collections::BTreeSet<u32> = a.iter().copied().collect();
        assert!(sparse.iter().eq(model.iter().copied()), "collect {a:?}");
        sparse.extend(b.iter().copied());
        model.extend(b.iter().copied());
        assert!(
            sparse.iter().eq(model.iter().copied()),
            "extend {a:?} by {b:?}"
        );
        sparse.extend(std::iter::empty());
        assert_eq!(sparse.len(), model.len(), "extend by nothing");
    }
    assert!(std::iter::empty::<u32>().collect::<SparseSet>().is_empty());
}

fn random_btree_set(
    rng: &mut SplitMix64,
    bound: u64,
    max_len: usize,
) -> std::collections::BTreeSet<u32> {
    let n = rng.gen_range(0, max_len);
    (0..n).map(|_| rng.next_below(bound) as u32).collect()
}

/// union_into is equivalent to set union, and `added` is exactly the
/// difference.
#[test]
fn union_into_is_set_union() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x5109_1000 + case);
        let a = random_btree_set(&mut rng, 128, 64);
        let b = random_btree_set(&mut rng, 128, 64);
        let mut sa: SparseSet = a.iter().copied().collect();
        let sb: SparseSet = b.iter().copied().collect();
        let mut added = Vec::new();
        let changed = sa.union_into(&sb, &mut added);
        let expected_union: Vec<u32> = a.union(&b).copied().collect();
        assert_eq!(sa.as_slice(), expected_union.as_slice());
        let expected_added: Vec<u32> = b.difference(&a).copied().collect();
        let mut added_sorted = added.clone();
        added_sorted.sort_unstable();
        assert_eq!(added_sorted, expected_added);
        assert_eq!(changed, b.difference(&a).next().is_some());
    }
}

/// intersects agrees with set intersection.
#[test]
fn intersects_models_intersection() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x5109_2000 + case);
        let a = random_btree_set(&mut rng, 64, 32);
        let b = random_btree_set(&mut rng, 64, 32);
        let sa: SparseSet = a.iter().copied().collect();
        let sb: SparseSet = b.iter().copied().collect();
        assert_eq!(sa.intersects(&sb), a.intersection(&b).next().is_some());
        assert_eq!(sa.intersects(&sb), sb.intersects(&sa), "symmetric");
    }
}

/// The interner is a bijection between values and dense ids.
#[test]
fn interner_is_bijective() {
    for case in 0..CASES {
        let mut rng = SplitMix64::seed_from_u64(0x5109_3000 + case);
        let n = rng.gen_range(1, 50);
        let values: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1, 7);
                (0..len)
                    .map(|_| (b'a' + rng.next_below(26) as u8) as char)
                    .collect()
            })
            .collect();
        let mut interner: Interner<String> = Interner::new();
        let ids: Vec<u32> = values.iter().map(|v| interner.intern(v.clone())).collect();
        for (v, &id) in values.iter().zip(&ids) {
            assert_eq!(interner.resolve(id), v);
            assert_eq!(interner.get(v), Some(id));
        }
        let distinct: std::collections::BTreeSet<&String> = values.iter().collect();
        assert_eq!(interner.len(), distinct.len());
    }
}

/// The PRNG itself: fixed seeds give fixed streams, bounds are respected,
/// and gen_bool hits both branches.
#[test]
fn splitmix_is_deterministic_and_bounded() {
    let mut a = SplitMix64::seed_from_u64(42);
    let mut b = SplitMix64::seed_from_u64(42);
    for _ in 0..100 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
    let mut rng = SplitMix64::seed_from_u64(7);
    let (mut trues, mut falses) = (0u32, 0u32);
    for _ in 0..1000 {
        assert!(rng.next_below(10) < 10);
        let v = rng.gen_range(3, 13);
        assert!((3..13).contains(&v));
        if rng.gen_bool(0.5) {
            trues += 1;
        } else {
            falses += 1;
        }
    }
    assert!(
        trues > 300 && falses > 300,
        "gen_bool badly skewed: {trues}/{falses}"
    );
}

/// Parse → print → parse preserves structure for a fixed corpus of
/// programs covering every statement form.
#[test]
fn print_parse_roundtrip_corpus() {
    let corpus = [
        r#"
            class A { field f; method m(x) { this.f = x; return x; } }
            class Main { static method main() { a = new A(); b = a.m(a); } }
        "#,
        r#"
            class W impl Runnable { method run() { } }
            class Main {
                static method main() {
                    loop { w = new W(); w.start(); }
                    arr = newarray;
                    arr[*] = arr;
                    x = arr[*];
                }
            }
        "#,
        r#"
            class K {
                static method worker(a) { }
                static method main() {
                    k = new K();
                    spawn syscall K::worker(k) * 2 -> h;
                    join h;
                    sync (k) { K::g = k; v = K::g; }
                }
            }
        "#,
    ];
    for src in corpus {
        let p1 = o2_ir::parser::parse(src).unwrap();
        let text = o2_ir::printer::print_program(&p1);
        let p2 =
            o2_ir::parser::parse(&text).unwrap_or_else(|e| panic!("roundtrip failed: {e}\n{text}"));
        assert_eq!(p1.num_statements(), p2.num_statements());
        // Parse-originated programs round-trip to a *structurally equal*
        // program: same classes, fields, entry config, attributes, and
        // statement bodies (line numbers excluded).
        assert!(
            o2_ir::structurally_equal(&p1, &p2),
            "not structurally equal:\n{src}"
        );
        // Second roundtrip is a fixpoint — and with identical text the
        // assigned source lines agree too, so even the line-sensitive
        // content digests match.
        let text2 = o2_ir::printer::print_program(&p2);
        assert_eq!(text, text2);
        let p3 = o2_ir::parser::parse(&text2).unwrap();
        assert_eq!(
            o2_ir::digest_program(&p2).program,
            o2_ir::digest_program(&p3).program,
            "digest changed across printed-form roundtrip:\n{src}"
        );
    }
}
