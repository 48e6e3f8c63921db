//! Integration tests for the precision pipeline: pruning and demotion on
//! generated workloads with zero true-positive loss, suppression
//! plumbing, and determinism of the serialized reports.

use o2_analysis::run_osa;
use o2_detect::{detect, DetectConfig};
use o2_ir::parser::parse;
use o2_passes::{run_pipeline, PipelineReport, Tier};
use o2_pta::{analyze, Policy, PtaConfig};
use o2_shb::{build_shb, ShbConfig};

fn pipeline_for(
    program: &o2_ir::program::Program,
    policy: Policy,
) -> (PipelineReport, o2_detect::RaceReport) {
    let ctx = o2_ir::ProgramCtx::solo(program);
    let pta = analyze(&ctx, &PtaConfig::with_policy(policy));
    let mut osa = run_osa(&ctx, &pta);
    let shb = build_shb(&ctx, &pta, &ShbConfig::default(), &mut osa.locs);
    let races = detect(&ctx, &pta, &osa, &shb, &DetectConfig::o2());
    let report = run_pipeline(&ctx, &pta, &osa, &shb, &races);
    (report, races)
}

/// Every race label of `report` (racy location names) for ground-truth
/// comparison.
fn race_fields(report: &PipelineReport, program: &o2_ir::program::Program) -> Vec<String> {
    report
        .races
        .iter()
        .map(|tr| o2_detect::mem_key_label(program, tr.race.key))
        .collect()
}

#[test]
fn zero_ctx_bait_is_pruned_with_no_tp_loss() {
    // Under the context-insensitive policy the param-merge and factory
    // bait survives detection (the Table 8 false positives). Ownership
    // pruning must remove at least one of them, and no planted race may
    // be pruned or demoted out of the high tier.
    let w = o2_workloads::preset_by_name("avrora")
        .expect("preset exists")
        .generate();
    let (report, races) = pipeline_for(&w.program, Policy::insensitive());
    assert!(
        !report.pruned.is_empty(),
        "0-ctx bait must be pruned:\n{}",
        report.render(&w.program)
    );
    assert!(
        report.races.len() < races.races.len(),
        "pruning must shrink the report"
    );
    // Zero true-positive loss: every planted racy field is still
    // reported, in the high tier.
    let fields = race_fields(&report, &w.program);
    for racy in &w.truth.racy_fields {
        let found = report
            .races
            .iter()
            .find(|tr| o2_detect::mem_key_label(&w.program, tr.race.key).contains(racy.as_str()));
        let tr =
            found.unwrap_or_else(|| panic!("planted race on `{racy}` lost (fields: {fields:?})"));
        assert_eq!(
            tr.tier,
            Tier::High,
            "planted race on `{racy}` demoted: score {} notes {:?}",
            tr.score,
            tr.notes
        );
    }
    // And nothing planted was pruned.
    for p in &report.pruned {
        let label = o2_detect::mem_key_label(&w.program, p.race.key);
        assert!(
            !w.truth
                .racy_fields
                .iter()
                .any(|r| label.contains(r.as_str())),
            "planted race pruned: {label} ({})",
            p.reason
        );
    }
}

#[test]
fn origin_policy_keeps_planted_races_high() {
    for name in ["avrora", "zookeeper", "memcached"] {
        let w = o2_workloads::preset_by_name(name)
            .expect("preset exists")
            .generate();
        let (report, races) = pipeline_for(&w.program, Policy::origin1());
        assert_eq!(
            report.races.len() + report.pruned.len() + report.suppressed.len(),
            races.races.len(),
            "{name}: pipeline must account for every detector race"
        );
        for racy in &w.truth.racy_fields {
            let tr = report
                .races
                .iter()
                .find(|tr| {
                    o2_detect::mem_key_label(&w.program, tr.race.key).contains(racy.as_str())
                })
                .unwrap_or_else(|| panic!("{name}: planted race on `{racy}` lost"));
            assert_eq!(tr.tier, Tier::High, "{name}: `{racy}` must stay high");
        }
    }
}

#[test]
fn suppression_moves_races_out_of_the_main_report() {
    let src = r#"
        class S { field f; }
        class W impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            @suppress(race) method run() { x = this.s; x.f = x; }
        }
        class Main {
            static method main() {
                s = new S();
                w1 = new W(s); w1.start();
                w2 = new W(s); w2.start();
            }
        }
    "#;
    let program = parse(src).unwrap();
    let (report, races) = pipeline_for(&program, Policy::origin1());
    assert_eq!(races.races.len(), 1, "detector still sees the race");
    assert!(report.races.is_empty(), "triage suppresses it");
    assert_eq!(report.suppressed.len(), 1);
    assert!(report.suppressed[0]
        .notes
        .iter()
        .any(|n| n.contains("@suppress")));
    // Suppressed races appear in SARIF with an inSource suppression.
    let sarif = report.to_sarif(&program);
    assert!(
        sarif.contains("\"suppressions\": [{\"kind\": \"inSource\"}]"),
        "{sarif}"
    );
}

#[test]
fn reports_are_deterministic_across_runs() {
    let w = o2_workloads::preset_by_name("zookeeper")
        .expect("preset exists")
        .generate();
    let ctx = o2_ir::ProgramCtx::solo(&w.program);
    let pta = analyze(&ctx, &PtaConfig::with_policy(Policy::origin1()));
    let mut osa = run_osa(&ctx, &pta);
    let shb = build_shb(&ctx, &pta, &ShbConfig::default(), &mut osa.locs);
    let mut outputs = Vec::new();
    for _ in 0..2 {
        let races = detect(&ctx, &pta, &osa, &shb, &DetectConfig::o2());
        let report = run_pipeline(&ctx, &pta, &osa, &shb, &races);
        outputs.push((report.to_json(&w.program), report.to_sarif(&w.program)));
    }
    assert_eq!(outputs[0].0, outputs[1].0, "JSON differs between runs");
    assert_eq!(outputs[0].1, outputs[1].1, "SARIF differs between runs");
}

#[test]
fn refactored_passes_match_the_standalone_clients() {
    // The DeadlockPass/OversyncPass re-host `detect_deadlocks` and
    // `find_oversync`; their pipeline results must match the standalone
    // entry points on a program that triggers both.
    let src = r#"
        class L { }
        class S { field data; }
        class T1 impl Runnable {
            field a; field b;
            method <init>(a, b) { this.a = a; this.b = b; }
            method run() {
                a = this.a; b = this.b;
                sync (a) { sync (b) { x = a; } }
                s = new S();
                sync (s) { s.data = s; }
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
                t1 = new T1(a, b); t1.start();
                t2 = new T2(a, b); t2.start();
            }
        }
    "#;
    let program = parse(src).unwrap();
    let pta = analyze(
        &o2_ir::ProgramCtx::solo(&program),
        &PtaConfig::with_policy(Policy::origin1()),
    );
    let mut osa = run_osa(&o2_ir::ProgramCtx::solo(&program), &pta);
    let shb = build_shb(
        &o2_ir::ProgramCtx::solo(&program),
        &pta,
        &ShbConfig::default(),
        &mut osa.locs,
    );
    let races = detect(
        &o2_ir::ProgramCtx::solo(&program),
        &pta,
        &osa,
        &shb,
        &DetectConfig::o2(),
    );
    let report = run_pipeline(&o2_ir::ProgramCtx::solo(&program), &pta, &osa, &shb, &races);

    let standalone_dl = o2_detect::detect_deadlocks(&program, &shb);
    let standalone_os = o2_detect::find_oversync(&program, &osa, &shb);
    let dl = report.deadlocks.as_ref().expect("deadlock pass ran");
    let os = report.oversync.as_ref().expect("oversync pass ran");
    assert_eq!(dl.cycles.len(), standalone_dl.cycles.len());
    assert_eq!(dl.num_edges, standalone_dl.num_edges);
    assert_eq!(os.warnings.len(), standalone_os.warnings.len());
    assert_eq!(os.useful_sites, standalone_os.useful_sites);
    assert_eq!(dl.cycles.len(), 1, "AB-BA fixture deadlocks");
    assert_eq!(os.warnings.len(), 1, "origin-local sync flagged");
}

#[test]
fn guarded_by_inference_demotes_mostly_guarded_locations() {
    // Five accesses to `S.f`; four hold the same lock, one (the racy
    // initializer-style write in W2.run) does not. The dominant guard
    // covers all but one access, so the race is demoted.
    let src = r#"
        class S { field f; }
        class L { }
        class W impl Runnable {
            field s; field l;
            method <init>(s, l) { this.s = s; this.l = l; }
            method run() {
                x = this.s;
                k = this.l;
                sync (k) { x.f = x; y = x.f; }
            }
        }
        class W2 impl Runnable {
            field s;
            method <init>(s) { this.s = s; }
            method run() { x = this.s; x.f = x; }
        }
        class Main {
            static method main() {
                s = new S();
                l = new L();
                a = new W(s, l); a.start();
                b = new W(s, l); b.start();
                c = new W2(s); c.start();
            }
        }
    "#;
    let program = parse(src).unwrap();
    let (report, races) = pipeline_for(&program, Policy::origin1());
    assert!(!races.races.is_empty(), "the stray write races");
    let demoted: Vec<_> = report
        .races
        .iter()
        .filter(|tr| tr.notes.iter().any(|n| n.contains("mostly guarded by")))
        .collect();
    assert!(
        !demoted.is_empty(),
        "mostly-guarded location must be demoted:\n{}",
        report.render(&program)
    );
    assert!(demoted.iter().all(|tr| tr.tier != Tier::High));
}
