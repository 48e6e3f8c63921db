//! `o2-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a few `#` lines about the run, then, as its last line, one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`:
//! the end-to-end metrics, or with `--trace 1` the per-layer ones. The
//! traced run also writes its spans to `out/spans-<workload>-<seed>.tsv`
//! beside this package's manifest.

use o2_perfbench::{result_line, run, workload, END_TO_END};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("o2-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = workload(&args.workload, args.seed)
        .and_then(|mut w| run(w.as_mut(), args.seconds, args.trace));
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("o2-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} trace={} host_parallelism={parallelism} samples={} replays={:?}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        o.samples,
        o.replays
    );
    if !o.raw_values.is_empty() {
        let raw: Vec<String> = END_TO_END
            .iter()
            .zip(&o.raw_values)
            .map(|((name, _), v)| format!("{name}={v}"))
            .collect();
        println!(
            "# reference_ms={} uncalibrated: {}",
            o.reference_ms,
            raw.join(" ")
        );
    }
    for f in o.failures.iter().take(10) {
        println!("# failed: {f}");
    }
    if args.trace {
        for (k, v) in &o.counts {
            println!("# count {k} = {v}");
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = o.tracer.write_tsv(&path) {
            eprintln!("o2-perfbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(&o));
    ExitCode::SUCCESS
}
