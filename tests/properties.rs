//! Randomized property tests over workload specifications drawn from a
//! fixed-seed PRNG.
//!
//! These check the analysis-wide invariants rather than individual
//! programs: soundness of every policy on planted races, exactness of O2
//! on the generator's ground truth, agreement between the optimized and
//! naive engines, and the algebraic properties of the happens-before
//! relation. Each test enumerates the same deterministic spec sample, so
//! failures reproduce exactly (the failing spec index is in the panic
//! message) without an external property-testing dependency.

use o2::prelude::*;
use o2_ir::util::SplitMix64;
use o2_workloads::{generate, WorkloadSpec};

const CASES: u64 = 24;

/// Draws a random spec with the same shape distribution the proptest
/// strategy used: small origin counts, shallow call chains, a mix of
/// merge stressors, and every frontend/wrapper/loop toggle.
fn draw_spec(rng: &mut SplitMix64) -> WorkloadSpec {
    WorkloadSpec {
        name: "prop".to_string(),
        seed: rng.next_u64(),
        n_threads: rng.gen_range(0, 4),
        n_events: rng.gen_range(0, 3),
        call_depth: rng.gen_range(0, 4),
        n_shared_objects: 1,
        planted_races: rng.gen_range(0, 3),
        racy_statics: rng.gen_range(0, 2),
        protected_fields: rng.gen_range(0, 3),
        fork_join_fields: 1,
        merges_depth1: rng.gen_range(0, 2),
        merges_depth2: rng.gen_range(0, 2),
        merges_depth3: rng.gen_range(0, 2),
        factory_merges: rng.gen_range(0, 2),
        heap_conflations: rng.gen_range(0, 2),
        stress_fan_width: rng.gen_range(0, 3),
        stress_fan_depth: rng.gen_range(0, 3),
        stress_builders: rng.gen_range(0, 4),
        use_wrappers: rng.gen_bool(0.5),
        loop_spawn: rng.gen_bool(0.5),
        nested_spawn: false,
        c_style: rng.gen_bool(0.5),
        filler: 1,
    }
}

fn spec_sample() -> Vec<WorkloadSpec> {
    let mut rng = SplitMix64::seed_from_u64(0x02_5EED);
    (0..CASES).map(|_| draw_spec(&mut rng)).collect()
}

/// O2 is exact on the generator's ground truth: two races per realized
/// racy field, nothing else.
#[test]
fn o2_exact_on_ground_truth() {
    for (i, spec) in spec_sample().iter().enumerate() {
        let w = generate(spec);
        let report = O2Builder::new().build().analyze(&w.program);
        assert_eq!(
            report.num_races(),
            2 * w.truth.racy_fields.len(),
            "case {i}, spec: {:?}\nreport:\n{}",
            spec,
            report.races.render(&w.program)
        );
    }
}

/// Every policy is sound on the planted races: each realized racy field
/// appears in its race report.
#[test]
fn all_policies_sound_on_planted_races() {
    for (i, spec) in spec_sample().iter().enumerate() {
        let w = generate(spec);
        for policy in [Policy::insensitive(), Policy::cfa1(), Policy::origin1()] {
            let report = O2Builder::new().policy(policy).build().analyze(&w.program);
            let reported: std::collections::BTreeSet<String> = report
                .races
                .races
                .iter()
                .map(|r| match r.key {
                    MemKey::Field(_, f) => w.program.field_name(f).to_string(),
                    MemKey::Static(_, f) => w.program.field_name(f).to_string(),
                })
                .collect();
            for f in &w.truth.racy_fields {
                assert!(
                    reported.contains(f),
                    "case {i}, {policy}: missed planted race on {f}"
                );
            }
        }
    }
}

/// The naive (D4-style) engine and the optimized O2 engine agree on the
/// set of racy locations.
#[test]
fn naive_and_optimized_engines_agree() {
    for (i, spec) in spec_sample().iter().enumerate() {
        let w = generate(spec);
        let fast = O2Builder::new().build().analyze(&w.program);
        let slow = O2Builder::new()
            .detect_config(DetectConfig::naive())
            .build()
            .analyze(&w.program);
        let keys = |r: &RaceReport| {
            r.races
                .iter()
                .map(|x| match x.key {
                    MemKey::Field(_, f) => ("f", f.index()),
                    MemKey::Static(c, f) => ("s", c.index() * 10_000 + f.index()),
                })
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(keys(&fast.races), keys(&slow.races), "case {i}");
    }
}

/// Happens-before is irreflexive and antisymmetric on access nodes.
#[test]
fn happens_before_is_a_strict_order() {
    for (i, spec) in spec_sample().iter().enumerate() {
        let w = generate(spec);
        let report = O2Builder::new().build().analyze(&w.program);
        let shb = &report.shb;
        let mut nodes = Vec::new();
        for (oid, trace) in shb.traces.iter().enumerate() {
            for a in trace.accesses.iter().take(4) {
                nodes.push((o2_pta::OriginId(oid as u32), a.pos));
            }
        }
        for &a in nodes.iter().take(12) {
            assert!(!shb.happens_before(a, a), "case {i}: irreflexive");
            for &b in nodes.iter().take(12) {
                assert!(
                    !(shb.happens_before(a, b) && shb.happens_before(b, a)),
                    "case {i}: antisymmetry violated: {a:?} {b:?}"
                );
            }
        }
    }
}

/// The optimized integer-id HB and the naive edge-walking HB are the
/// same relation.
#[test]
fn hb_implementations_agree() {
    for (i, spec) in spec_sample().iter().enumerate() {
        let w = generate(spec);
        let report = O2Builder::new().build().analyze(&w.program);
        let shb = &report.shb;
        let mut nodes = Vec::new();
        for (oid, trace) in shb.traces.iter().enumerate() {
            for a in trace.accesses.iter().take(3) {
                nodes.push((o2_pta::OriginId(oid as u32), a.pos));
            }
        }
        for &a in nodes.iter().take(8) {
            for &b in nodes.iter().take(8) {
                assert_eq!(
                    shb.happens_before(a, b),
                    shb.happens_before_naive(a, b),
                    "case {i}: disagree on {a:?} -> {b:?}"
                );
            }
        }
    }
}

/// The dense reference for [`ClosureTable`](o2_shb::ClosureTable) rows,
/// read off the graph's public edge lists: `result[k]` is the minimal
/// position of origin `k` reachable from the lowest position of `at`'s
/// hop segment (`u32::MAX` if none). `hops[o]` lists the edges leaving
/// origin `o` as `(from_pos, to, to_pos)`: usable from any position at
/// or before `from_pos`.
fn segment_closure(hops: &[Vec<(u32, u32, u32)>], (o, p): (u32, u32)) -> Vec<u32> {
    let start = hops[o as usize]
        .iter()
        .map(|h| h.0)
        .filter(|&f| f < p)
        .max()
        .map_or(0, |f| f + 1);
    let mut best = vec![u32::MAX; hops.len()];
    let mut stack = vec![(o, start)];
    while let Some((o, p)) = stack.pop() {
        if best[o as usize] <= p {
            continue;
        }
        best[o as usize] = p;
        stack.extend(
            hops[o as usize]
                .iter()
                .filter(|h| h.0 >= p)
                .map(|h| (h.1, h.2)),
        );
    }
    best
}

/// Every sparse [`ClosureTable`](o2_shb::ClosureTable) row answers
/// exactly what the dense [`segment_closure`] holds for every origin but
/// the slot's own, with rows filled one after another in one table (so a
/// fill that leaves its scratch dirty shows up in the next), on every
/// preset, real-bug and extended model, mega preset and drawn spec.
#[test]
fn sparse_closure_rows_match_the_dense_reference() {
    let presets = o2_workloads::all_presets()
        .into_iter()
        .map(|p| (p.name.to_string(), p.generate().program));
    let models = o2_workloads::all_models()
        .into_iter()
        .chain(o2_workloads::extended_models())
        .chain(o2_workloads::all_c_models())
        .chain(o2_workloads::extended_c_models())
        .map(|m| (m.name.to_string(), m.program));
    let mega = o2_workloads::mega_presets()
        .into_iter()
        .map(|m| (m.name.to_string(), m.generate().program));
    let drawn = spec_sample()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| (format!("case {i}"), generate(&spec).program));
    for (name, program) in presets.chain(models).chain(mega).chain(drawn) {
        let shb = O2Builder::new().build().analyze(&program).shb;
        let mut hops = vec![Vec::new(); shb.traces.len()];
        for e in &shb.entry_edges {
            hops[e.parent.0 as usize].push((e.pos, e.child.0, 0));
        }
        for c in &shb.cond_edges {
            hops[c.from.0 as usize].push((c.from_pos, c.to.0, c.to_pos));
        }
        for j in &shb.join_edges {
            hops[j.child.0 as usize].push((u32::MAX, j.parent.0, j.pos));
        }
        let mut table = o2_shb::ClosureTable::new(&shb);
        let mut filled = vec![false; shb.num_closure_slots()];
        for (o, trace) in shb.traces.iter().enumerate() {
            for pos in 0..trace.len {
                let at = (o2_pta::OriginId(o as u32), pos);
                let slot = shb.closure_slot(at);
                if std::mem::replace(&mut filled[slot], true) {
                    continue;
                }
                let dense = segment_closure(&hops, (o as u32, pos));
                for (k, &want) in dense.iter().enumerate().filter(|&(k, _)| k != o) {
                    let got = table.reach(slot, at, o2_pta::OriginId(k as u32));
                    assert_eq!(got, want, "{name}: slot {slot} of {at:?} in origin {k}");
                }
            }
        }
    }
}

/// Protected and fork-join fields never appear in any O2 report.
#[test]
fn benign_fields_never_reported() {
    for (i, spec) in spec_sample().iter().enumerate() {
        let w = generate(spec);
        let report = O2Builder::new().build().analyze(&w.program);
        let benign: std::collections::BTreeSet<&str> =
            w.truth.benign_fields.iter().map(|s| s.as_str()).collect();
        for race in &report.races.races {
            let f = match race.key {
                MemKey::Field(_, f) => w.program.field_name(f),
                MemKey::Static(_, f) => w.program.field_name(f),
            };
            assert!(!benign.contains(f), "case {i}: benign field {f} reported");
        }
    }
}

/// Generated programs always validate and print/reparse.
#[test]
fn generated_programs_roundtrip() {
    for (i, spec) in spec_sample().iter().enumerate() {
        let w = generate(spec);
        o2_ir::validate::assert_valid(&w.program);
        let text = o2_ir::printer::print_program(&w.program);
        let reparsed =
            o2_ir::parser::parse(&text).unwrap_or_else(|e| panic!("case {i}: reparse failed: {e}"));
        assert_eq!(
            reparsed.num_statements(),
            w.program.num_statements(),
            "case {i}"
        );
    }
}

/// Each §4.1 optimization is sound on its own: starting from the naive
/// (D4-style) engine, turning on exactly one of `integer_hb`,
/// `canonical_locksets` or `lock_region_merging` — or running the full
/// engine without pre-loop pruning — reports exactly the naive race list
/// on every Table 10 real-bug model and extended model (Java and C) and
/// on the generated spec sample. Both query paths (closure HB, bitset disjointness) are
/// exercised against their naive counterparts.
#[test]
fn each_optimization_alone_agrees_with_naive() {
    let naive = DetectConfig::naive;
    let toggles = [
        (
            "integer_hb",
            DetectConfig {
                integer_hb: true,
                ..naive()
            },
        ),
        (
            "canonical_locksets",
            DetectConfig {
                canonical_locksets: true,
                ..naive()
            },
        ),
        (
            "lock_region_merging",
            DetectConfig {
                lock_region_merging: true,
                ..naive()
            },
        ),
        (
            "o2 without preloop_prune",
            DetectConfig {
                preloop_prune: false,
                ..DetectConfig::o2()
            },
        ),
    ];
    let models = o2_workloads::realbugs::all_models()
        .into_iter()
        .chain(o2_workloads::all_c_models())
        .chain(o2_workloads::realbugs::extended_models())
        .chain(o2_workloads::extended_c_models())
        .map(|m| (m.name.to_string(), m.program));
    let generated = spec_sample()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| (format!("case {i}"), generate(&spec).program));
    for (name, program) in models.chain(generated) {
        let report = O2Builder::new().build().analyze(&program);
        let ctx = o2_ir::ProgramCtx::solo(&program);
        let run = |cfg: &DetectConfig| {
            o2_detect::detect(&ctx, &report.pta, &report.osa, &report.shb, cfg).races
        };
        let baseline = run(&naive());
        for (toggle, cfg) in &toggles {
            assert_eq!(
                run(cfg),
                baseline,
                "{name}: {toggle} alone disagrees with naive"
            );
        }
    }
}

/// OSA equals a naive per-access reference: for every memory location,
/// the read, write and all-origin sets are the unions of `mi_origins`
/// over its accesses, and the access list holds each access once, in
/// scan order. Checked on every real-bug model (Java and C, Table 10 and
/// extended), the generated spec sample, mega-smoke and mega-grid. A
/// truncated scan must still give each entry exactly the origins of its
/// own accesses.
#[test]
fn osa_matches_naive_reference() {
    use o2_analysis::{run_osa, run_osa_bounded, Access, MemKey};
    use std::collections::{BTreeMap, BTreeSet};
    type Reference = BTreeMap<MemKey, (BTreeSet<u32>, BTreeSet<u32>, Vec<Access>)>;

    let models = o2_workloads::all_models()
        .into_iter()
        .chain(o2_workloads::all_c_models())
        .chain(o2_workloads::extended_models())
        .chain(o2_workloads::extended_c_models())
        .map(|m| (m.name.to_string(), m.program));
    let generated = spec_sample()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| (format!("case {i}"), generate(&spec).program));
    // mega-grid is the one input here whose scan passes the first
    // deadline check (every 4,096 statements), so a zero budget cuts it.
    let mega = ["mega-smoke", "mega-grid"].map(|n| {
        let w = o2_workloads::workload_by_name(n).expect("mega preset exists");
        (w.name, w.program)
    });
    let mut truncated_runs = 0;
    for (name, program) in models.chain(generated).chain(mega) {
        let ctx = o2_ir::ProgramCtx::solo(&program);
        let pta = o2_pta::analyze(&ctx, &PtaConfig::default());

        let mut reference = Reference::new();
        for mi in pta.reachable_mis() {
            let origins = pta.mi_origins(mi);
            if origins.is_empty() {
                continue;
            }
            let method_id = pta.mi_data(mi).0;
            for (idx, instr) in program.method(method_id).body.iter().enumerate() {
                let stmt = o2_ir::ids::GStmt::new(method_id, idx);
                let (keys, is_write) = if let Some((base, field, w)) = instr.stmt.field_access() {
                    let keys = pta.pts_var(mi, base).iter();
                    (
                        keys.map(|&o| MemKey::Field(o2_pta::ObjId(o), field))
                            .collect(),
                        w,
                    )
                } else if let Some((class, field, w)) = instr.stmt.static_access() {
                    (vec![MemKey::Static(class, field)], w)
                } else {
                    continue;
                };
                for key in keys {
                    let (reads, writes, accesses) = reference.entry(key).or_default();
                    if is_write { writes } else { reads }.extend(origins.iter());
                    let access = Access { mi, stmt, is_write };
                    if !accesses.contains(&access) {
                        accesses.push(access);
                    }
                }
            }
        }

        let osa = run_osa(&ctx, &pta);
        assert!(!osa.truncated, "{name}");
        assert_eq!(osa.entries.len(), osa.locs.len(), "{name}");
        assert_eq!(osa.locs.len(), reference.len(), "{name}: location count");
        for (id, key) in osa.locs.iter() {
            let e = osa.entry(id).expect("every interned location has an entry");
            let (reads, writes, accesses) = &reference[key];
            let all: Vec<u32> = reads.union(writes).copied().collect();
            assert!(
                e.read_origins.iter().eq(reads.iter().copied()),
                "{name} {key:?}"
            );
            assert!(
                e.write_origins.iter().eq(writes.iter().copied()),
                "{name} {key:?}"
            );
            assert_eq!(e.all_origins().as_slice(), all.as_slice(), "{name} {key:?}");
            assert_eq!(&e.accesses, accesses, "{name} {key:?}: access list");
            let distinct: BTreeSet<_> = e
                .accesses
                .iter()
                .map(|a| (a.mi, a.stmt, a.is_write))
                .collect();
            assert_eq!(
                distinct.len(),
                e.accesses.len(),
                "{name} {key:?}: duplicate access"
            );
        }

        let cut = run_osa_bounded(&ctx, &pta, Some(std::time::Duration::ZERO));
        truncated_runs += usize::from(cut.truncated);
        for e in &cut.entries {
            let (mut reads, mut writes) = (BTreeSet::new(), BTreeSet::new());
            for a in &e.accesses {
                if a.is_write { &mut writes } else { &mut reads }
                    .extend(pta.mi_origins(a.mi).iter());
            }
            let all: Vec<u32> = reads.union(&writes).copied().collect();
            assert!(e.read_origins.iter().eq(reads), "{name}: truncated reads");
            assert!(
                e.write_origins.iter().eq(writes),
                "{name}: truncated writes"
            );
            assert_eq!(
                e.all_origins().as_slice(),
                all.as_slice(),
                "{name}: truncated all"
            );
        }
    }
    assert!(
        truncated_runs > 0,
        "no input was large enough to truncate the scan"
    );
}

/// The pairwise RacerD reference: every pair of a field's accesses with
/// a write and not both locked, deduplicated by statement pair and
/// stopped at `PAIR_BUDGET` per field. Returns the per-field counts and
/// the (read/write, unprotected) split. A capped field's split follows
/// the documented rule (unprotected pairs first), not the order in which
/// the loop happened to meet them.
fn racerd_pairwise_reference(
    program: &o2_ir::program::Program,
) -> (
    std::collections::BTreeMap<o2_ir::ids::FieldId, usize>,
    usize,
    usize,
) {
    use o2_ir::ids::{FieldId, GStmt};
    use o2_racerd::{SummaryAccess, PAIR_BUDGET};
    use std::collections::{BTreeMap, BTreeSet};

    let mut by_field: BTreeMap<FieldId, Vec<SummaryAccess>> = BTreeMap::new();
    for a in o2_racerd::concurrent_accesses(program) {
        by_field.entry(a.field).or_default().push(a);
    }
    let (mut counts, mut read_write, mut unprotected) = (BTreeMap::new(), 0, 0);
    let mut seen: BTreeSet<(FieldId, GStmt, GStmt)> = BTreeSet::new();
    for (field, accesses) in by_field {
        let (mut pairs, mut field_rw, mut field_unprot, mut all_unprot) = (0, 0, 0, 0);
        for i in 0..accesses.len() {
            for j in (i + 1)..accesses.len() {
                let (a, b) = (accesses[i], accesses[j]);
                if (!a.is_write && !b.is_write) || a.stmt == b.stmt || (a.locked && b.locked) {
                    continue;
                }
                let unprot = !a.locked && !b.locked;
                all_unprot += usize::from(unprot);
                if pairs >= PAIR_BUDGET {
                    continue;
                }
                pairs += 1;
                let key = (field, a.stmt.min(b.stmt), a.stmt.max(b.stmt));
                if seen.insert(key) {
                    if unprot {
                        field_unprot += 1;
                    } else {
                        field_rw += 1;
                    }
                }
            }
        }
        if pairs == PAIR_BUDGET {
            field_unprot = all_unprot.min(PAIR_BUDGET);
            field_rw = PAIR_BUDGET - field_unprot;
        }
        if field_rw + field_unprot > 0 {
            counts.insert(field, field_rw + field_unprot);
        }
        read_write += field_rw;
        unprotected += field_unprot;
    }
    (counts, read_write, unprotected)
}

/// RacerD's closed-form warning counts equal the pairwise reference, per
/// field and in total, on every preset (telegram has two fields over the
/// pair budget), every Java and C real-bug and extended model, the mega
/// presets, the generated spec sample, and one field with 150 unlocked
/// writers (11,175 pairs, above the budget).
#[test]
fn racerd_counts_match_pairwise_reference() {
    let mut capped_src = String::from(
        "class S { field data; }\n\
         class W impl Runnable {\n  field s;\n  method <init>(s) { this.s = s; }\n  method run() {\n    s = this.s;\n",
    );
    for _ in 0..150 {
        capped_src.push_str("    s.data = s;\n");
    }
    capped_src.push_str(
        "  }\n}\n\
         class Main { static method main() { s = new S(); w = new W(s); w.start(); } }\n",
    );
    let capped = o2_ir::parser::parse(&capped_src).expect("synthetic program parses");

    let presets = o2_workloads::all_presets()
        .into_iter()
        .map(|p| (p.name.to_string(), p.generate().program));
    let models = o2_workloads::all_models()
        .into_iter()
        .chain(o2_workloads::all_c_models())
        .chain(o2_workloads::extended_models())
        .chain(o2_workloads::extended_c_models())
        .map(|m| (m.name.to_string(), m.program));
    let mega = o2_workloads::mega_presets()
        .into_iter()
        .map(|m| (m.name.to_string(), m.generate().program));
    let generated = spec_sample()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| (format!("case {i}"), generate(&spec).program));
    let synthetic = std::iter::once(("150 writers".to_string(), capped));

    let mut capped_fields = 0;
    for (name, program) in presets
        .chain(models)
        .chain(mega)
        .chain(generated)
        .chain(synthetic)
    {
        let report = o2_racerd::run_racerd(&program);
        let (counts, read_write, unprotected) = racerd_pairwise_reference(&program);
        for f in 0..program.fields.len() {
            let field = o2_ir::ids::FieldId::from_usize(f);
            assert_eq!(
                report.field_warnings(field),
                counts.get(&field).copied().unwrap_or(0),
                "{name}: field {}",
                program.field_name(field)
            );
        }
        capped_fields += counts
            .values()
            .filter(|&&n| n == o2_racerd::PAIR_BUDGET)
            .count();
        assert_eq!(report.num_read_write_races, read_write, "{name}");
        assert_eq!(report.num_unprotected_writes, unprotected, "{name}");
        assert_eq!(
            report.total_warnings(),
            counts.values().sum::<usize>(),
            "{name}"
        );
    }
    // telegram's two fields and the synthetic one.
    assert_eq!(capped_fields, 3);
}

/// Every preset, Java and C real-bug and extended model, and mega preset,
/// then the generated spec sample, each with its name.
fn registry_and_generated_programs() -> Vec<(String, o2_ir::program::Program)> {
    let presets = o2_workloads::all_presets()
        .into_iter()
        .map(|p| (p.name.to_string(), p.generate().program));
    let models = o2_workloads::all_models()
        .into_iter()
        .chain(o2_workloads::all_c_models())
        .chain(o2_workloads::extended_models())
        .chain(o2_workloads::extended_c_models())
        .map(|m| (m.name.to_string(), m.program));
    let mega = o2_workloads::mega_presets()
        .into_iter()
        .map(|m| (m.name.to_string(), m.generate().program));
    let generated = spec_sample()
        .into_iter()
        .enumerate()
        .map(|(i, spec)| (format!("case {i}"), generate(&spec).program));
    presets.chain(models).chain(mega).chain(generated).collect()
}

/// `PtaResult::mi_origins` equals a reference BFS from each origin's
/// entry method instances over normal call edges, which probes
/// `callees(mi, idx)` once per statement of each visited method.
#[test]
fn mi_origins_match_per_statement_reference_bfs() {
    use o2_pta::{CallTarget, Mi, OriginId};
    use std::collections::BTreeSet;

    for (name, program) in registry_and_generated_programs() {
        let ctx = o2_ir::ProgramCtx::solo(&program);
        let pta = o2_pta::analyze(&ctx, &PtaConfig::default());
        let mut reference = vec![BTreeSet::new(); pta.num_mis()];
        for o in 0..pta.num_origins() {
            let origin = OriginId(o as u32);
            let mut stack: Vec<Mi> = pta.origin_entries(origin).to_vec();
            while let Some(mi) = stack.pop() {
                if !reference[mi.0 as usize].insert(origin.0) {
                    continue;
                }
                let (method, _) = pta.mi_data(mi);
                for idx in 0..program.method(method).body.len() {
                    for t in pta.callees(mi, idx) {
                        if let CallTarget::Normal(callee) = t {
                            stack.push(*callee);
                        }
                    }
                }
            }
        }
        for (mi, want) in reference.iter().enumerate() {
            let got: BTreeSet<u32> = pta.mi_origins(Mi(mi as u32)).iter().collect();
            assert_eq!(&got, want, "{name}: mi {mi}");
        }
    }
}

/// `Program::dispatch_name` agrees with `Program::dispatch` for every
/// class and every selector declared anywhere in the program, and for
/// names and arities no class declares.
#[test]
fn dispatch_name_agrees_with_selector_dispatch() {
    use o2_ir::ids::ClassId;
    use o2_ir::program::Selector;
    use std::collections::BTreeSet;

    for (name, program) in registry_and_generated_programs() {
        let mut selectors: BTreeSet<Selector> = program
            .classes
            .iter()
            .flat_map(|c| c.methods.iter().map(|(s, _)| s.clone()))
            .collect();
        let absent: Vec<Selector> = selectors
            .iter()
            .flat_map(|s| {
                [
                    Selector::new(s.name.clone(), s.arity + 1),
                    Selector::new(format!("{}_absent", s.name), s.arity),
                ]
            })
            .collect();
        selectors.extend(absent);
        selectors.insert(Selector::new("", 0));
        for c in 0..program.classes.len() {
            let class = ClassId::from_usize(c);
            for sel in &selectors {
                assert_eq!(
                    program.dispatch_name(class, &sel.name, sel.arity),
                    program.dispatch(class, sel),
                    "{name}: {} {sel}",
                    program.class(class).name
                );
            }
        }
    }
}
