//! Std-only micro-benchmark harness.
//!
//! Replaces the former Criterion benches with `std::time::Instant`
//! best-of-N timing so the workspace builds fully offline. Groups mirror
//! the old bench files:
//!
//! ```text
//! bench [--group NAME]... [--iters N] [--out PATH]
//!
//! groups: table5_pta   policy comparison on three mid-size presets
//!         table7_osa   OSA linear scan vs thread-escape closure
//!         ablation     naive vs optimized detection engine
//!         shb_queries  integer-id HB vs naive edge-walking HB
//!         scaling      PTA wall time vs program size per policy
//!         pr1          parallel detect scaling + delta-solver stats
//!                      (writes BENCH_pr1.json; see `--out`)
//!         pr2          precision-pipeline pass counts + real-bug recall
//!                      (writes BENCH_pr2.json; see `--out`)
//!         pr3          cold vs warm analysis after a 1-function edit
//!                      (writes BENCH_pr3.json; see `--out`)
//!         pr5          data-plane cold/warm/scaling summary
//!                      (writes BENCH_pr5.json; see `--out`)
//!         pr6          mega-scale prune/cold-warm/memory summary
//!                      (writes BENCH_pr6.json; see `--out`)
//!         pr7          rwlock/condvar/async fixture precision + timing
//!                      (writes BENCH_pr7.json; see `--out`)
//!         pr8          whole-corpus batch throughput at 1/2/4 workers
//!                      (writes BENCH_pr8.json; see `--out`)
//!         pr9          o2 serve daemon cold/warm latency + loadgen row
//!                      (writes BENCH_pr9.json; see `--out`)
//!         pr10         error-plane latency: structured error answers,
//!                      budget overhead, malformed-injection load
//!                      (writes BENCH_pr10.json; see `--out`)
//!
//! bench --regress BASELINE.json CURRENT.json
//! ```
//!
//! Without `--group`, every group runs. `--out` changes where the `pr1`,
//! `pr2`, and `pr3` groups write their JSON reports (defaults
//! `BENCH_pr1.json`, `BENCH_pr2.json`, and `BENCH_pr3.json`).
//!
//! `--regress` compares the cold end-to-end rows of two harness JSON
//! reports and exits 1 if any row in CURRENT is more than 25% (and more
//! than an absolute 5 ms) slower than BASELINE — the CI gate run by
//! `scripts/verify.sh` against the committed `BENCH_*.json` files.

use o2_analysis::{run_escape, run_osa};
use o2_bench::{fmt_dur, pr1, pr10, pr2, pr3, pr5, pr6, pr7, pr8, pr9};
use o2_detect::{detect, DetectConfig};
use o2_pta::{analyze, OriginId, Policy, PtaConfig};
use o2_shb::{build_shb, ShbConfig};
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut groups: Vec<String> = Vec::new();
    let mut iters = 3usize;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--regress" => {
                let baseline = args.get(i + 1).cloned().unwrap_or_else(|| usage());
                let current = args.get(i + 2).cloned().unwrap_or_else(|| usage());
                regress(&baseline, &current);
                return;
            }
            "--group" => {
                i += 1;
                groups.push(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--iters" => {
                i += 1;
                iters = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
        i += 1;
    }
    if groups.is_empty() {
        groups = vec![
            "table5_pta".into(),
            "table7_osa".into(),
            "ablation".into(),
            "shb_queries".into(),
            "scaling".into(),
            "pr1".into(),
            "pr2".into(),
            "pr3".into(),
            "pr5".into(),
            "pr6".into(),
            "pr7".into(),
            "pr8".into(),
            "pr9".into(),
            "pr10".into(),
        ];
    }
    for g in &groups {
        match g.as_str() {
            "table5_pta" => table5_pta(iters),
            "table7_osa" => table7_osa(iters),
            "ablation" => ablation(iters),
            "shb_queries" => shb_queries(iters),
            "scaling" => scaling(iters),
            "pr1" => pr1_group(iters, out.as_deref().unwrap_or("BENCH_pr1.json")),
            "pr2" => pr2_group(iters, out.as_deref().unwrap_or("BENCH_pr2.json")),
            "pr3" => pr3_group(iters, out.as_deref().unwrap_or("BENCH_pr3.json")),
            "pr5" => pr5_group(iters, out.as_deref().unwrap_or("BENCH_pr5.json")),
            "pr6" => pr6_group(iters, out.as_deref().unwrap_or("BENCH_pr6.json")),
            "pr7" => pr7_group(iters, out.as_deref().unwrap_or("BENCH_pr7.json")),
            "pr8" => pr8_group(iters, out.as_deref().unwrap_or("BENCH_pr8.json")),
            "pr9" => pr9_group(iters, out.as_deref().unwrap_or("BENCH_pr9.json")),
            "pr10" => pr10_group(iters, out.as_deref().unwrap_or("BENCH_pr10.json")),
            other => {
                eprintln!("unknown group `{other}`");
                usage();
            }
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bench [--group NAME]... [--iters N] [--out PATH]\n       \
         bench --regress BASELINE.json CURRENT.json"
    );
    std::process::exit(2);
}

/// The CI regression gate: compares cold rows of two harness reports and
/// exits 1 on any >25% (and >5 ms) slow-down.
fn regress(baseline: &str, current: &str) {
    let base = std::fs::read_to_string(baseline)
        .unwrap_or_else(|e| panic!("read baseline {baseline}: {e}"));
    let cur =
        std::fs::read_to_string(current).unwrap_or_else(|e| panic!("read current {current}: {e}"));
    let rows = pr6::cold_rows(&base).len();
    let failures = pr6::regression_failures(&base, &cur);
    if failures.is_empty() {
        println!("regress {baseline} vs {current}: ok ({rows} cold rows compared)");
    } else {
        eprintln!("regress {baseline} vs {current}: FAIL");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

/// Best-of-N wall time of `f` after one untimed warm-up call.
fn time<T>(iters: usize, mut f: impl FnMut() -> T) -> Duration {
    f();
    let mut best = Duration::MAX;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

fn cell(group: &str, id: &str, d: Duration) {
    println!("{group:>12} | {id:<32} | {:>9}", fmt_dur(d));
}

/// Table 5: the same program under each context policy.
fn table5_pta(iters: usize) {
    for preset_name in ["avrora", "lusearch", "tasks"] {
        let w = o2_workloads::preset_by_name(preset_name)
            .expect("preset exists")
            .generate();
        for policy in [
            Policy::insensitive(),
            Policy::origin1(),
            Policy::cfa1(),
            Policy::cfa2(),
        ] {
            let cfg = PtaConfig {
                policy,
                timeout: Some(Duration::from_secs(10)),
                ..Default::default()
            };
            let d = time(iters, || {
                analyze(&o2_ir::ProgramCtx::solo(&w.program), &cfg)
            });
            cell("table5_pta", &format!("{preset_name}/{policy}"), d);
        }
    }
}

/// Table 7: OSA's linear scan vs the thread-escape heap closure.
fn table7_osa(iters: usize) {
    for preset_name in ["avrora", "h2", "zookeeper"] {
        let w = o2_workloads::preset_by_name(preset_name)
            .expect("preset exists")
            .generate();
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&w.program),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let d = time(iters, || {
            run_osa(&o2_ir::ProgramCtx::solo(&w.program), &pta)
        });
        cell("table7_osa", &format!("osa/{preset_name}"), d);
        let d = time(iters, || run_escape(&w.program, &pta));
        cell("table7_osa", &format!("escape/{preset_name}"), d);
    }
}

/// §4.1 ablation: the naive pairwise engine vs the optimized O2 engine
/// on identical SHB inputs.
fn ablation(iters: usize) {
    for preset_name in ["sunflow", "zookeeper"] {
        let w = o2_workloads::preset_by_name(preset_name)
            .expect("preset exists")
            .generate();
        let pta = analyze(
            &o2_ir::ProgramCtx::solo(&w.program),
            &PtaConfig::with_policy(Policy::origin1()),
        );
        let mut osa = run_osa(&o2_ir::ProgramCtx::solo(&w.program), &pta);
        let shb = build_shb(
            &o2_ir::ProgramCtx::solo(&w.program),
            &pta,
            &ShbConfig::default(),
            &mut osa.locs,
        );
        for (label, cfg) in [("naive", DetectConfig::naive()), ("o2", DetectConfig::o2())] {
            let d = time(iters, || {
                detect(&o2_ir::ProgramCtx::solo(&w.program), &pta, &osa, &shb, &cfg)
            });
            cell("ablation", &format!("{label}/{preset_name}"), d);
        }
    }
}

/// §4.1 optimization 1: integer-id HB vs naive edge-walking HB on a
/// deterministic sample of cross-origin access pairs.
fn shb_queries(iters: usize) {
    let w = o2_workloads::preset_by_name("zookeeper")
        .expect("preset exists")
        .generate();
    let pta = analyze(
        &o2_ir::ProgramCtx::solo(&w.program),
        &PtaConfig::with_policy(Policy::origin1()),
    );
    let shb = build_shb(
        &o2_ir::ProgramCtx::solo(&w.program),
        &pta,
        &ShbConfig::default(),
        &mut o2_analysis::LocTable::new(),
    );
    let mut pairs = Vec::new();
    for (oi, trace) in shb.traces.iter().enumerate() {
        if let Some(a) = trace.accesses.first() {
            pairs.push((OriginId(oi as u32), a.pos));
        }
    }
    let queries: Vec<_> = pairs
        .iter()
        .flat_map(|&a| pairs.iter().map(move |&b| (a, b)))
        .take(256)
        .collect();
    // Repeat each pass so a cell is long enough for the timer.
    let d = time(iters, || {
        let mut hits = 0usize;
        for _ in 0..64 {
            for &(x, y) in &queries {
                if shb.happens_before(x, y) {
                    hits += 1;
                }
            }
        }
        hits
    });
    cell("shb_queries", "integer_id_hb (x64)", d);
    let d = time(iters, || {
        let mut hits = 0usize;
        for _ in 0..64 {
            for &(x, y) in &queries {
                if shb.happens_before_naive(x, y) {
                    hits += 1;
                }
            }
        }
        hits
    });
    cell("shb_queries", "naive_walk_hb (x64)", d);
}

/// Table 3 shape: PTA wall time vs program size, per policy.
fn scaling(iters: usize) {
    for filler in [8usize, 32, 128] {
        let spec = o2_workloads::WorkloadSpec {
            name: format!("scale{filler}"),
            filler,
            n_threads: 6,
            call_depth: 6,
            stress_fan_width: 6,
            stress_fan_depth: 4,
            stress_builders: 8,
            ..Default::default()
        };
        let w = o2_workloads::generate(&spec);
        let stmts = w.program.num_statements();
        for policy in [Policy::insensitive(), Policy::origin1(), Policy::cfa1()] {
            let cfg = PtaConfig {
                policy,
                timeout: Some(Duration::from_secs(10)),
                ..Default::default()
            };
            let d = time(iters, || {
                analyze(&o2_ir::ProgramCtx::solo(&w.program), &cfg)
            });
            cell("scaling", &format!("{policy}/{stmts}stmts"), d);
        }
    }
}

/// The PR 1 harness: parallel detect scaling and delta-solver statistics,
/// written to `out` as JSON.
fn pr1_group(iters: usize, out: &str) {
    let opts = pr1::Pr1Options {
        iters,
        out_path: Some(out.to_string()),
        ..Default::default()
    };
    let report = pr1::run(&opts);
    print!("{}", report.render());
    println!("wrote {out}");
}

fn pr8_group(iters: usize, out: &str) {
    let opts = pr8::Pr8Options {
        iters,
        workers: vec![1, 2, 4],
        out_path: Some(out.to_string()),
    };
    let report = pr8::run(&opts);
    print!("{}", report.render());
    if !report.all_pass() {
        eprintln!("pr8: batch output diverged across worker counts");
        std::process::exit(1);
    }
    println!("wrote {out}");
}

fn pr9_group(iters: usize, out: &str) {
    let opts = pr9::Pr9Options {
        iters,
        out_path: Some(out.to_string()),
        ..Default::default()
    };
    let report = pr9::run(&opts);
    print!("{}", report.render());
    if !report.all_pass() {
        eprintln!(
            "pr9: a daemon response diverged from the solo CLI or warm latency \
             missed the 0.5x-of-cold bar on two presets"
        );
        std::process::exit(1);
    }
    println!("wrote {out}");
}

fn pr10_group(iters: usize, out: &str) {
    let opts = pr10::Pr10Options {
        iters,
        out_path: Some(out.to_string()),
        ..Default::default()
    };
    let report = pr10::run(&opts);
    print!("{}", report.render());
    if !report.all_pass() {
        eprintln!(
            "pr10: an error request answered unstructured, the injection load saw \
             residual errors, or the budget checkpoints cost more than 1.5x"
        );
        std::process::exit(1);
    }
    println!("wrote {out}");
}

/// The PR 2 harness: precision-pipeline pass counts on the presets and
/// recall over the real-bug models, written to `out` as JSON.
fn pr2_group(iters: usize, out: &str) {
    let opts = pr2::Pr2Options {
        iters,
        out_path: Some(out.to_string()),
        ..Default::default()
    };
    let report = pr2::run(&opts);
    print!("{}", report.render());
    println!("wrote {out}");
}

/// The PR 3 harness: cold vs warm analysis after a single-function edit,
/// written to `out` as JSON.
fn pr3_group(iters: usize, out: &str) {
    let opts = pr3::Pr3Options {
        iters,
        out_path: Some(out.to_string()),
        ..Default::default()
    };
    let report = pr3::run(&opts);
    print!("{}", report.render());
    println!("wrote {out}");
}

/// The PR 5 harness: end-to-end cold time, the digest-reusing warm path,
/// and the detect-scaling curve, written to `out` as JSON.
fn pr5_group(iters: usize, out: &str) {
    let opts = pr5::Pr5Options {
        iters,
        out_path: Some(out.to_string()),
        ..Default::default()
    };
    let report = pr5::run(&opts);
    print!("{}", report.render());
    println!("wrote {out}");
}

fn pr6_group(iters: usize, out: &str) {
    let opts = pr6::Pr6Options {
        iters,
        out_path: Some(out.to_string()),
        ..Default::default()
    };
    let report = pr6::run(&opts);
    print!("{}", report.render());
    println!("wrote {out}");
}

fn pr7_group(iters: usize, out: &str) {
    let opts = pr7::Pr7Options {
        iters,
        out_path: Some(out.to_string()),
    };
    let report = pr7::run(&opts);
    print!("{}", report.render());
    if !report.all_pass() {
        eprintln!("pr7: a fixture missed its expected race count or warm identity");
        std::process::exit(1);
    }
    println!("wrote {out}");
}
