//! Preset integration tests: the generated benchmarks must match the
//! paper's origin counts (Table 5 `#O`) and exhibit the precision
//! relationships of Table 8 — O2 exact on ground truth, weaker context
//! abstractions monotonically noisier.

use o2::prelude::*;
use o2_workloads::presets::{all_presets, preset_by_name};

/// O2 reports exactly two races per realized racy field (the write/write
/// and write/read statement pairs of the planted pattern) and nothing on
/// benign or bait fields.
fn check_o2_exact(name: &str) {
    let p = preset_by_name(name).unwrap();
    let w = p.generate();
    let report = O2Builder::new().build().analyze(&w.program);
    assert_eq!(
        report.num_races(),
        2 * w.truth.racy_fields.len(),
        "{name}: O2 must be exact on ground truth\n{}",
        report.races.render(&w.program)
    );
    let racy: std::collections::BTreeSet<&str> =
        w.truth.racy_fields.iter().map(|s| s.as_str()).collect();
    for race in &report.races.races {
        let field = match race.key {
            MemKey::Field(_, f) => w.program.field_name(f),
            MemKey::Static(_, f) => w.program.field_name(f),
        };
        assert!(
            racy.contains(field),
            "{name}: reported race on non-planted field `{field}`"
        );
    }
}

#[test]
fn o2_is_exact_on_small_dacapo_presets() {
    for name in ["avrora", "lusearch", "xalan", "pmd", "tradebeans"] {
        check_o2_exact(name);
    }
}

#[test]
fn o2_is_exact_on_android_presets() {
    for name in ["tasks", "vlc", "connectbot"] {
        check_o2_exact(name);
    }
}

#[test]
fn o2_is_exact_on_c_presets() {
    for name in ["memcached", "redis", "sqlite3"] {
        check_o2_exact(name);
    }
}

#[test]
fn origin_counts_match_table5() {
    for p in all_presets() {
        let w = p.generate();
        let report = O2Builder::new().build().analyze(&w.program);
        assert_eq!(
            report.num_origins(),
            p.paper.num_origins,
            "{}: #O mismatch",
            p.name
        );
    }
}

#[test]
fn precision_ordering_matches_table8() {
    // races(0-ctx) > races(1-CFA) >= races(2-CFA) >= races(O2), and
    // k-obj lies between O2 and 0-ctx. Uses the presets whose context
    // stress stays within SHB budgets for 2-CFA: on the heavyweight
    // presets (e.g. `tasks`), 2-CFA's static traces blow past the node
    // budget and the sound truncation adds noise races — the same
    // mechanism that makes the paper's 2-CFA detection columns explode.
    for name in ["avrora", "pmd", "tradebeans"] {
        let p = preset_by_name(name).unwrap();
        let w = p.generate();
        let run = |policy: Policy| {
            O2Builder::new()
                .policy(policy)
                .build()
                .analyze(&w.program)
                .num_races()
        };
        let r0 = run(Policy::insensitive());
        let r1 = run(Policy::cfa1());
        let r2 = run(Policy::cfa2());
        let ro = run(Policy::origin1());
        assert!(r0 > r1, "{name}: 0-ctx {r0} vs 1-CFA {r1}");
        assert!(r1 >= r2, "{name}: 1-CFA {r1} vs 2-CFA {r2}");
        assert!(r2 > ro, "{name}: 2-CFA {r2} vs O2 {ro}");
    }
}

#[test]
fn object_sensitivity_false_positives_come_from_factories() {
    // The factory bait (singleton receiver) fools k-obj but not OPA.
    let p = preset_by_name("avrora").unwrap();
    let w = p.generate();
    let robj = O2Builder::new()
        .policy(Policy::obj1())
        .build()
        .analyze(&w.program);
    let ropa = O2Builder::new().build().analyze(&w.program);
    // The 1-obj baseline's cost, pinned so that a change to the solver
    // shows what it moves (about 325 edges per pointer node, against
    // 2,100 edges in all under the origin policy).
    assert_eq!(
        robj.pta.stats,
        o2_pta::PtaStats {
            num_pointers: 12_931,
            num_objects: 4_303,
            num_edges: 4_198_296,
            num_origins: 4,
            num_mis: 4_294,
            solve_steps: 8_395_839,
            propagated_objects: 6_293_043,
        }
    );
    assert_eq!(robj.num_races(), 25);
    assert!(
        robj.num_races() > ropa.num_races(),
        "1-obj {} vs O2 {}",
        robj.num_races(),
        ropa.num_races()
    );
    let factory_fields: std::collections::BTreeSet<&str> =
        w.truth.factory_fields.iter().map(|s| s.as_str()).collect();
    let reported: std::collections::BTreeSet<&str> = robj
        .races
        .races
        .iter()
        .map(|r| match r.key {
            MemKey::Field(_, f) => w.program.field_name(f),
            MemKey::Static(_, f) => w.program.field_name(f),
        })
        .collect();
    assert!(
        factory_fields.iter().any(|f| reported.contains(f)),
        "1-obj must fall for the factory bait: {reported:?}"
    );
}

#[test]
fn shb_prunes_fork_join_and_locked_accesses() {
    let p = preset_by_name("avrora").unwrap();
    let w = p.generate();
    let report = O2Builder::new().build().analyze(&w.program);
    assert!(report.races.hb_pruned > 0, "fork-join pattern exercises HB");
    assert!(
        report.races.lock_pruned > 0,
        "locked pattern exercises locks"
    );
}

#[test]
fn osa_shared_accesses_nonzero_on_presets() {
    for name in ["avrora", "zookeeper", "memcached"] {
        let p = preset_by_name(name).unwrap();
        let w = p.generate();
        let report = O2Builder::new().build().analyze(&w.program);
        assert!(
            report.osa.num_shared_accesses() > 0,
            "{name}: shared accesses expected"
        );
        assert!(report.osa.num_shared_objects() > 0);
    }
}

#[test]
fn distributed_presets_have_more_shared_objects_under_weaker_policies() {
    // The Table 9 #S-obj story: coarser abstractions inflate the number of
    // thread-shared objects.
    let p = preset_by_name("zookeeper").unwrap();
    let w = p.generate();
    let opa = O2Builder::new().build().analyze(&w.program);
    let zero = O2Builder::new()
        .policy(Policy::insensitive())
        .build()
        .analyze(&w.program);
    assert!(
        zero.osa.num_shared_objects() > opa.osa.num_shared_objects(),
        "0-ctx {} vs OPA {}",
        zero.osa.num_shared_objects(),
        opa.osa.num_shared_objects()
    );
}

#[test]
fn racerd_overreports_on_presets() {
    for name in ["avrora", "tasks"] {
        let p = preset_by_name(name).unwrap();
        let w = p.generate();
        let o2_report = O2Builder::new().build().analyze(&w.program);
        let rd = o2_racerd::run_racerd(&w.program);
        assert!(
            rd.total_warnings() > o2_report.num_races(),
            "{name}: RacerD {} vs O2 {}",
            rd.total_warnings(),
            o2_report.num_races()
        );
    }
}
