//! Regenerates the paper's evaluation tables on the synthetic suite.
//!
//! ```text
//! reproduce [--table N]... [--ablation] [--all] [--budget SECS]
//!           [--dump DIR]
//! ```
//!
//! `--dump DIR` writes every benchmark preset as a standalone `.o2`
//! source file so the programs can be inspected or fed to the `o2` CLI.
//!
//! Without arguments, prints every table with the default 5-second
//! per-stage budget (the analogue of the paper's 4-hour limit).

use o2_bench::tables;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut budget = Duration::from_secs(5);
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--budget" => {
                i += 1;
                let secs: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
                budget = Duration::from_secs(secs);
            }
            "--table" => {
                i += 1;
                selected.push(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--ablation" => selected.push("ablation".to_string()),
            "--dump" => {
                i += 1;
                let dir = args.get(i).cloned().unwrap_or_else(|| usage());
                dump_benchmarks(&dir);
                return;
            }
            "--all" => selected.push("all".to_string()),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    if selected.is_empty() || selected.iter().any(|s| s == "all") {
        selected = vec![
            "3".into(),
            "5".into(),
            "6".into(),
            "7".into(),
            "8".into(),
            "9".into(),
            "10".into(),
            "ablation".into(),
        ];
    }
    for s in selected {
        let output = match s.as_str() {
            "3" => tables::table3(budget),
            "5" => tables::table5(budget),
            "6" => tables::table6(budget),
            "7" => tables::table7(budget),
            "8" => tables::table8(budget),
            "9" => tables::table9(budget),
            "10" => tables::table10(),
            "ablation" => tables::ablation(budget),
            other => {
                eprintln!("unknown table `{other}` (have 3,5,6,7,8,9,10,ablation)");
                continue;
            }
        };
        println!("{output}");
    }
}

/// Writes every preset's generated program as `<dir>/<name>.o2`.
fn dump_benchmarks(dir: &str) {
    std::fs::create_dir_all(dir).expect("create dump dir");
    for preset in o2_workloads::all_presets() {
        let w = preset.generate();
        let text = o2_ir::printer::print_program(&w.program);
        let path = format!("{dir}/{}.o2", preset.name);
        std::fs::write(&path, &text).expect("write benchmark source");
        println!(
            "wrote {path} ({} statements, {} planted races)",
            w.program.num_statements(),
            w.truth.racy_fields.len()
        );
    }
}

fn usage() -> ! {
    eprintln!("usage: reproduce [--table N]... [--ablation] [--all] [--budget SECS] [--dump DIR]");
    std::process::exit(2);
}
