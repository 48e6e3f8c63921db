//! The `o2` command-line tool: analyze a source file for data races,
//! deadlocks, and over-synchronization.
//!
//! ```text
//! o2 <file.o2> [--policy 0ctx|1cfa|2cfa|1obj|2obj|origin|korigin:K]
//!              [--naive] [--no-dispatcher-lock]
//!              [--deadlocks] [--oversync] [--racerd]
//!              [--sharing] [--origins] [--timeout SECS] [--threads N] [--quiet]
//!              [--format text|json|sarif] [--save-db FILE] [--load-db FILE]
//! o2 diff-analyze <old.o2> <new.o2> [same flags]
//! ```
//!
//! `--format` selects the triaged precision-pipeline output (confidence
//! tiers, pruned and `@suppress(race)`-suppressed races): `text` for the
//! human summary, `json` for the machine-readable report, `sarif` for a
//! SARIF 2.1.0 document covering races, deadlocks, and over-sync. The
//! legacy `--json` flag still prints the raw detector report.
//!
//! `--save-db`/`--load-db` persist the report cache between runs: a
//! `--format` run on a program whose whole-program digest (and analysis
//! configuration) matches a cached entry prints the cached bytes without
//! analyzing; any other program is analyzed cold and its reports are
//! cached. `diff-analyze` prints the function-level digest diff of two
//! versions and the report of the new one.

//! # Exit codes
//!
//! `0` — clean run, no races; `1` — races found; `2` — usage or
//! option errors. Typed pipeline failures map their [`O2Error`] stage
//! to a distinct code: parse 10, resolve 11, pta 12, analysis 13,
//! detect 14, db 15, io 16, timeout 17, budget 18, internal (caught
//! panic) 19.

use o2::prelude::*;
use o2::render_reports;
use o2_db::AnalysisDb;
use std::panic::AssertUnwindSafe;
use std::process::ExitCode;
use std::time::Duration;

/// Runs `f` under a panic backstop: a panic anywhere in the pipeline
/// becomes a typed `internal` error (exit 19) instead of an abort.
fn run_guarded<T>(f: impl FnOnce() -> T) -> Result<T, O2Error> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(O2Error::from_panic)
}

/// Prints a typed error and maps its stage to the process exit code.
fn fail(err: &O2Error) -> ExitCode {
    eprintln!("error: {err}");
    ExitCode::from(err.exit_code())
}

/// Output selector for the triaged pipeline report (`--format`). `None`
/// keeps the legacy raw-detector output paths.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    file: String,
    /// Second input of `diff-analyze` mode.
    file2: String,
    diff: bool,
    /// `batch` mode: `file` is a manifest, not a program.
    batch: bool,
    /// Worker threads of `batch` mode (default: available parallelism).
    workers: Option<usize>,
    policy: Policy,
    naive: bool,
    dispatcher_lock: bool,
    deadlocks: bool,
    oversync: bool,
    racerd: bool,
    sharing: bool,
    origins: bool,
    timeout: Option<Duration>,
    threads: Option<usize>,
    quiet: bool,
    json: bool,
    format: Option<Format>,
    c_frontend: bool,
    dot_shb: bool,
    dot_callgraph: bool,
    html: Option<String>,
    save_db: Option<String>,
    load_db: Option<String>,
    /// `serve` mode: `file` is a listen address, not a program.
    serve: bool,
    /// `loadgen` mode: `file` is a daemon address, not a program.
    loadgen: bool,
    /// `serve --port-file`: write the bound address here once listening.
    port_file: Option<String>,
    lg: o2::LoadgenConfig,
    smoke: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        file: String::new(),
        file2: String::new(),
        diff: false,
        batch: false,
        workers: None,
        policy: Policy::origin1(),
        naive: false,
        dispatcher_lock: true,
        deadlocks: false,
        oversync: false,
        racerd: false,
        sharing: false,
        origins: false,
        timeout: None,
        threads: None,
        quiet: false,
        json: false,
        format: None,
        c_frontend: false,
        dot_shb: false,
        dot_callgraph: false,
        html: None,
        save_db: None,
        load_db: None,
        serve: false,
        loadgen: false,
        port_file: None,
        lg: o2::LoadgenConfig::default(),
        smoke: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--policy" => {
                i += 1;
                let v = args.get(i).ok_or("--policy needs a value")?;
                opts.policy = parse_policy(v)?;
            }
            "--naive" => opts.naive = true,
            "--no-dispatcher-lock" => opts.dispatcher_lock = false,
            "--deadlocks" => opts.deadlocks = true,
            "--oversync" => opts.oversync = true,
            "--racerd" => opts.racerd = true,
            "--sharing" => opts.sharing = true,
            "--origins" => opts.origins = true,
            "--quiet" => opts.quiet = true,
            "--json" => opts.json = true,
            "--format" => {
                i += 1;
                let v = args.get(i).ok_or("--format needs a value")?;
                opts.format = Some(match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format {other}")),
                });
            }
            "--c" => opts.c_frontend = true,
            "--html" => {
                i += 1;
                opts.html = Some(args.get(i).ok_or("--html needs a path")?.clone());
            }
            "--save-db" => {
                i += 1;
                opts.save_db = Some(args.get(i).ok_or("--save-db needs a path")?.clone());
            }
            "--load-db" => {
                i += 1;
                opts.load_db = Some(args.get(i).ok_or("--load-db needs a path")?.clone());
            }
            "--dot-shb" => opts.dot_shb = true,
            "--dot-callgraph" => opts.dot_callgraph = true,
            "--port-file" => {
                i += 1;
                opts.port_file = Some(args.get(i).ok_or("--port-file needs a path")?.clone());
            }
            "--seed" => {
                i += 1;
                let v = args.get(i).ok_or("--seed needs a value")?;
                opts.lg.seed = v.parse().map_err(|_| "invalid --seed")?;
            }
            "--clients" => {
                i += 1;
                let v = args.get(i).ok_or("--clients needs a value")?;
                let n: usize = v.parse().map_err(|_| "invalid --clients")?;
                if n == 0 {
                    return Err("--clients must be at least 1".to_string());
                }
                opts.lg.clients = n;
            }
            "--requests" => {
                i += 1;
                let v = args.get(i).ok_or("--requests needs a value")?;
                opts.lg.requests = v.parse().map_err(|_| "invalid --requests")?;
            }
            "--rate" => {
                i += 1;
                let v = args.get(i).ok_or("--rate needs a value")?;
                let r: f64 = v.parse().map_err(|_| "invalid --rate")?;
                if !r.is_finite() || r < 0.0 {
                    return Err("--rate must be a finite non-negative number".to_string());
                }
                opts.lg.rate = r;
            }
            "--workloads" => {
                i += 1;
                let v = args.get(i).ok_or("--workloads needs a comma list")?;
                opts.lg.workloads = v.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--zipf" => {
                i += 1;
                let v = args.get(i).ok_or("--zipf needs a value")?;
                opts.lg.zipf_s = v.parse().map_err(|_| "invalid --zipf")?;
            }
            "--edit-prob" => {
                i += 1;
                let v = args.get(i).ok_or("--edit-prob needs a value")?;
                let p: f64 = v.parse().map_err(|_| "invalid --edit-prob")?;
                if !(0.0..=1.0).contains(&p) {
                    return Err("--edit-prob must be in 0..=1".to_string());
                }
                opts.lg.edit_prob = p;
            }
            "--max-edit" => {
                i += 1;
                let v = args.get(i).ok_or("--max-edit needs a value")?;
                opts.lg.max_edit = v.parse().map_err(|_| "invalid --max-edit")?;
            }
            "--malformed-frac" => {
                i += 1;
                let v = args.get(i).ok_or("--malformed-frac needs a value")?;
                let p: f64 = v.parse().map_err(|_| "invalid --malformed-frac")?;
                if !(0.0..=1.0).contains(&p) {
                    return Err("--malformed-frac must be in 0..=1".to_string());
                }
                opts.lg.malformed_frac = p;
            }
            "--verify" => opts.lg.verify = true,
            "--shutdown" => opts.lg.shutdown = true,
            "--smoke" => opts.smoke = true,
            "--timeout" => {
                i += 1;
                let v = args.get(i).ok_or("--timeout needs a value")?;
                let secs: u64 = v.parse().map_err(|_| "invalid --timeout")?;
                opts.timeout = Some(Duration::from_secs(secs));
            }
            "--workers" => {
                i += 1;
                let v = args.get(i).ok_or("--workers needs a value")?;
                let n: usize = v.parse().map_err(|_| "invalid --workers")?;
                if n == 0 {
                    return Err(
                        "--workers must be at least 1 (omit the flag to use all cores)".to_string(),
                    );
                }
                opts.workers = Some(n);
            }
            "--threads" => {
                i += 1;
                let v = args.get(i).ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| "invalid --threads")?;
                if n == 0 {
                    return Err(
                        "--threads must be at least 1 (omit the flag to use all cores)".to_string(),
                    );
                }
                opts.threads = Some(n);
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            file => files.push(file.to_string()),
        }
        i += 1;
    }
    if files.first().map(String::as_str) == Some("diff-analyze") {
        if files.len() != 3 {
            return Err("diff-analyze needs exactly two input files".to_string());
        }
        opts.diff = true;
        opts.file = files[1].clone();
        opts.file2 = files[2].clone();
    } else if files.first().map(String::as_str) == Some("batch") {
        if files.len() != 2 {
            return Err("batch needs exactly one manifest file".to_string());
        }
        opts.batch = true;
        opts.file = files[1].clone();
    } else if files.first().map(String::as_str) == Some("serve") {
        if files.len() != 2 {
            return Err("serve needs exactly one listen address (e.g. 127.0.0.1:7411)".to_string());
        }
        opts.serve = true;
        opts.file = files[1].clone();
    } else if files.first().map(String::as_str) == Some("loadgen") {
        if files.len() != 2 {
            return Err("loadgen needs exactly one daemon address".to_string());
        }
        opts.loadgen = true;
        opts.file = files[1].clone();
    } else {
        match files.len() {
            0 => return Err("no input file".to_string()),
            1 => opts.file = files[0].clone(),
            _ => return Err("multiple input files".to_string()),
        }
    }
    Ok(opts)
}

fn parse_policy(v: &str) -> Result<Policy, String> {
    Ok(match v {
        "0ctx" | "insensitive" => Policy::insensitive(),
        "1cfa" => Policy::cfa1(),
        "2cfa" => Policy::cfa2(),
        "1obj" => Policy::obj1(),
        "2obj" => Policy::obj2(),
        "origin" | "o2" => Policy::origin1(),
        other => {
            if let Some(k) = other.strip_prefix("korigin:") {
                let k: usize = k.parse().map_err(|_| "invalid k in korigin:K")?;
                if k == 0 {
                    return Err("korigin:K requires k >= 1".to_string());
                }
                Policy::origin(k)
            } else {
                return Err(format!("unknown policy {other}"));
            }
        }
    })
}

fn usage() {
    eprintln!(
        "usage: o2 <file.o2> [--policy 0ctx|1cfa|2cfa|1obj|2obj|origin|korigin:K]\n\
         \x20         [--naive] [--no-dispatcher-lock] [--deadlocks] [--oversync]\n\
         \x20         [--racerd] [--sharing] [--origins] [--timeout SECS] [--threads N]\n\
         \x20         [--quiet] [--json] [--format text|json|sarif] [--c]\n\
         \x20         [--dot-shb] [--dot-callgraph] [--html FILE]\n\
         \x20         [--save-db FILE] [--load-db FILE]\n\
         \x20      o2 diff-analyze <old.o2> <new.o2> [same flags]\n\
         \x20      o2 batch <manifest> [--workers N] [--format json|sarif] [--save-db FILE]\n\
         \x20         [same flags]\n\
         \x20         manifest: one entry per line — a registry workload name\n\
         \x20         (avrora, mega-smoke, realbug:ZooKeeper, realbug-c:Memcached)\n\
         \x20         or `name = path/to/file.o2`; `#` starts a comment\n\
         \x20      o2 serve <addr> [--workers N] [--load-db FILE] [--save-db FILE]\n\
         \x20         [--port-file FILE] [--quiet] [same engine flags]\n\
         \x20         resident daemon; line-delimited JSON protocol (DESIGN §14)\n\
         \x20      o2 loadgen <addr> [--seed N] [--clients N] [--requests N] [--rate R]\n\
         \x20         [--workloads a,b,c] [--zipf S] [--edit-prob P] [--max-edit N]\n\
         \x20         [--malformed-frac P] [--verify] [--smoke] [--shutdown] [--json]\n\
         \x20         deterministic open-system load driver (latency p50/p90/p99);\n\
         \x20         --malformed-frac injects broken requests the daemon must\n\
         \x20         answer with structured errors"
    );
}

/// `o2 serve <addr>`: bind, optionally pre-seed the report cache from
/// `--load-db`, and run the accept loop until a `shutdown` request.
/// With `--save-db` the cache is snapshotted to disk on the way out.
fn run_serve_mode(engine: &O2, opts: &Options) -> ExitCode {
    use std::sync::Arc;
    let state = Arc::new(o2::serve::ServeState::new(engine.clone()));
    if let Some(path) = &opts.load_db {
        let p = std::path::Path::new(path);
        if p.exists() {
            match AnalysisDb::load(p) {
                Ok(image) => match state.preseed(&image) {
                    Ok(n) => {
                        if !opts.quiet {
                            eprintln!("o2 serve: pre-seeded {n} reports from {path}");
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {path}: {e}");
                        return ExitCode::from(2);
                    }
                },
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    let listener = match std::net::TcpListener::bind(&opts.file) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.file);
            return ExitCode::from(2);
        }
    };
    let local = match listener.local_addr() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.port_file {
        if let Err(e) = std::fs::write(path, format!("{local}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !opts.quiet {
        eprintln!("o2 serve: listening on {local}");
    }
    let serve_opts = o2::ServeOptions {
        workers: opts.workers.unwrap_or(0),
        ..Default::default()
    };
    if let Err(e) = o2::serve::run(listener, &state, &serve_opts) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    if let Some(path) = &opts.save_db {
        if let Err(e) = state.snapshot_db().save(std::path::Path::new(path)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        if !opts.quiet {
            eprintln!("o2 serve: saved report cache to {path}");
        }
    }
    if !opts.quiet {
        let s = state.stats();
        eprintln!(
            "o2 serve: {} requests ({} analyze, {} diff, {} errors), {} report hits",
            s.requests, s.analyze_ok, s.diff_ok, s.errors, s.report_hits,
        );
    }
    ExitCode::SUCCESS
}

/// `o2 loadgen <addr>`: drive a running daemon. `--smoke` runs the CI
/// sequence (cold + warm + byte-compare against the solo oracle)
/// instead of the full schedule.
fn run_loadgen_mode(engine: &O2, opts: &Options) -> ExitCode {
    if opts.smoke {
        return match o2::loadgen::run_smoke(&opts.file, engine, opts.lg.shutdown) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    match o2::run_loadgen(&opts.file, engine, &opts.lg) {
        Ok(report) => {
            if opts.json {
                println!(
                    "{{\"requests\":{},\"errors\":{},\"mismatches\":{},\"warm\":{},\
                     \"malformed\":{},\"malformed_ok\":{},\
                     \"wall_ms\":{:.3},\"analyses_per_sec\":{:.3},\
                     \"cold_p50_ms\":{:.3},\"cold_p90_ms\":{:.3},\"cold_p99_ms\":{:.3},\
                     \"warm_p50_ms\":{:.3},\"warm_p90_ms\":{:.3},\"warm_p99_ms\":{:.3},\
                     \"err_p50_ms\":{:.3},\"err_p99_ms\":{:.3}}}",
                    report.requests,
                    report.errors,
                    report.mismatches,
                    report.warm_responses,
                    report.malformed,
                    report.malformed_ok,
                    report.wall_ms,
                    report.analyses_per_sec,
                    report.cold.p50,
                    report.cold.p90,
                    report.cold.p99,
                    report.warm.p50,
                    report.warm.p90,
                    report.warm.p99,
                    report.err.p50,
                    report.err.p99,
                );
            } else {
                print!("{}", report.render());
            }
            if report.errors == 0 && report.mismatches == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `o2 batch manifest`: analyze the whole corpus. The merged report (JSON or SARIF, byte-identical for every
/// `--workers` value and manifest order) goes to stdout; the
/// scheduling-dependent summary table goes to stderr.
fn run_batch_mode(engine: &O2, opts: &Options) -> ExitCode {
    let path = std::path::Path::new(&opts.file);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.file);
            return ExitCode::from(2);
        }
    };
    let base = path.parent().unwrap_or(std::path::Path::new("."));
    let entries = match o2::parse_manifest(&text, base) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = opts.workers.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let report = if let Some(path) = &opts.save_db {
        let (report, db) = o2::run_batch_with_db(engine, &entries, workers);
        if let Err(e) = db.save(std::path::Path::new(path)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        if !opts.quiet {
            eprintln!("o2 batch: saved {} reports to {path}", db.reports.len());
        }
        report
    } else {
        o2::run_batch(engine, &entries, workers)
    };
    match opts.format {
        Some(Format::Sarif) => print!("{}", report.sarif),
        Some(Format::Text) | None => {}
        _ => print!("{}", report.json),
    }
    if !opts.quiet {
        eprint!("{}", report.summary());
    }
    // Races dominate the exit code; otherwise the first failing entry
    // (in name order) maps its stage, and a fully clean corpus exits 0.
    if report.total_races() > 0 {
        ExitCode::from(1)
    } else if let Some(err) = report.first_error() {
        ExitCode::from(err.exit_code())
    } else {
        ExitCode::SUCCESS
    }
}

/// Reads, parses (selecting the frontend by `--c` or the extension), and
/// validates one input program. Failures carry their stage: an
/// unreadable file is an `io` error, a syntax error is a `parse` error
/// with source position, an invalid program is a `resolve` error.
fn load_program(path: &str, force_c: bool) -> Result<Program, O2Error> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| O2Error::Io(format!("cannot read {path}: {e}")))?;
    let use_c = force_c || path.ends_with(".c");
    let program = if use_c {
        o2_ir::cfront::parse_c(&src).map_err(O2Error::from)?
    } else {
        o2_ir::parser::parse(&src).map_err(O2Error::from)?
    };
    let issues = o2_ir::validate::validate(&program);
    if let Some(issue) = issues.first() {
        return Err(O2Error::Resolve(format!(
            "{path}: invalid program: {issue}"
        )));
    }
    Ok(program)
}

/// `o2 diff-analyze old new`: print the function-level digest diff of
/// the two versions, then the triaged report of `new`.
fn run_diff(engine: &O2, opts: &Options, old: &Program, new: &Program) -> ExitCode {
    let d = match run_guarded(|| engine.diff_analyze(old, new)) {
        Ok(d) => d,
        Err(e) => return fail(&e),
    };
    if !opts.quiet {
        println!(
            "diff: {} changed, {} added, {} removed, {} invalidated",
            d.diff.changed.len(),
            d.diff.added.len(),
            d.diff.removed.len(),
            d.diff.invalidated.len()
        );
        for name in &d.diff.changed {
            println!("  ~ {name}");
        }
        for name in &d.diff.added {
            println!("  + {name}");
        }
        for name in &d.diff.removed {
            println!("  - {name}");
        }
        println!();
    }
    let pipeline = d.new.run_pipeline(new);
    if let Some(path) = &opts.save_db {
        let mut db = AnalysisDb::new(engine.config_sig());
        db.reports
            .insert(d.new_digest, render_reports(&pipeline, new));
        if let Err(e) = db.save(std::path::Path::new(path)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    match opts.format {
        Some(Format::Json) => print!("{}", pipeline.to_json(new)),
        Some(Format::Sarif) => print!("{}", pipeline.to_sarif(new)),
        _ => print!("{}", pipeline.render(new)),
    }
    if pipeline.races.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            usage();
            return ExitCode::from(2);
        }
    };
    let mut builder = O2Builder::new().policy(opts.policy).shb_config(ShbConfig {
        event_dispatcher_lock: opts.dispatcher_lock,
        ..Default::default()
    });
    if opts.naive {
        builder = builder.detect_config(DetectConfig::naive());
    }
    if let Some(t) = opts.threads {
        builder = builder.detect_threads(t);
    }
    if let Some(t) = opts.timeout {
        builder = builder.pta_timeout(t).detect_timeout(t);
    }
    let engine = builder.build();

    if opts.batch {
        // The positional argument is a manifest, not a program.
        return run_batch_mode(&engine, &opts);
    }
    if opts.serve {
        // The positional argument is a listen address.
        return run_serve_mode(&engine, &opts);
    }
    if opts.loadgen {
        // The positional argument is a running daemon's address.
        return run_loadgen_mode(&engine, &opts);
    }

    let program = match load_program(&opts.file, opts.c_frontend) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {}: {e}", opts.file);
            return ExitCode::from(e.exit_code());
        }
    };

    if opts.diff {
        let new = match load_program(&opts.file2, opts.c_frontend) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {}: {e}", opts.file2);
                return ExitCode::from(e.exit_code());
            }
        };
        return run_diff(&engine, &opts, &program, &new);
    }

    // Report cache: load (or start fresh at a not-yet-existing path, so
    // `--load-db X --save-db X` works from the first run on).
    let use_db = opts.load_db.is_some() || opts.save_db.is_some();
    let mut db = match &opts.load_db {
        Some(path) if std::path::Path::new(path).exists() => {
            match AnalysisDb::load(std::path::Path::new(path)) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        _ => AnalysisDb::new(engine.config_sig()),
    };

    // Fast path: digest-identical program and configuration with cached
    // rendered reports — print the cached rendering without re-running
    // anything. Only when no side output needs the full analysis result.
    let wants_full_report = opts.origins
        || opts.sharing
        || opts.deadlocks
        || opts.oversync
        || opts.racerd
        || opts.json
        || opts.dot_shb
        || opts.dot_callgraph
        || opts.html.is_some();
    // Digest once: the cache probe and the commit after a miss both
    // need the program digests.
    let digests = if use_db {
        Some(o2_ir::digest_program(&program))
    } else {
        None
    };
    if let (Some(digests), Some(format), false) = (&digests, opts.format, wants_full_report) {
        if let Some(reports) = db.lookup(engine.config_sig(), digests.program) {
            if !opts.quiet {
                eprintln!("o2: replayed cached reports from database");
            }
            match format {
                Format::Text => print!("{}", reports.text),
                Format::Json => print!("{}", reports.json),
                Format::Sarif => print!("{}", reports.sarif),
            }
            let code = if reports.n_races == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            };
            if let Some(path) = &opts.save_db {
                if let Err(e) = db.save(std::path::Path::new(path)) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            return code;
        }
    }

    let run = run_guarded(|| match &digests {
        Some(digests) => {
            engine
                .analyze_with_db_prepared(&program, &mut db, digests)
                .0
        }
        None => engine.analyze(&program),
    });
    let report = match run {
        Ok(v) => v,
        Err(e) => return fail(&e),
    };

    if !opts.quiet {
        println!("{}", report.summary());
        println!();
    }
    if opts.origins {
        println!("origins:");
        for (id, data) in report.pta.arena.origins() {
            let m = program.method(data.entry);
            println!(
                "  origin {}: {} entry={}.{} depth={}",
                id.0,
                data.kind,
                program.class(m.class).name,
                m.name,
                data.depth
            );
        }
        println!();
    }
    if opts.sharing {
        let text = report.osa.render(&program, &report.pta);
        if text.is_empty() {
            println!("no origin-shared locations with a writer\n");
        } else {
            println!("{text}");
        }
    }
    if let Some(path) = &opts.html {
        let html = o2_detect::render_html(&program, &report.pta, &report.races);
        if let Err(e) = std::fs::write(path, html) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        if !opts.quiet {
            println!("wrote HTML report to {path}");
        }
    }
    if opts.dot_callgraph {
        print!("{}", report.pta.callgraph_to_dot(&program));
    }
    if opts.dot_shb {
        print!("{}", report.shb.to_dot(&report.pta));
    }

    let code = if let Some(format) = opts.format {
        // Pipeline mode: triage the detector output (suppression,
        // ownership pruning, guarded-by inference, racerd agreement) and
        // print the requested rendering. The exit code reflects the
        // *triaged* race list, so `@suppress(race)` and pruning make a
        // clean run exit 0.
        let pipeline = report.run_pipeline(&program);
        match format {
            Format::Text => print!("{}", pipeline.render(&program)),
            Format::Json => print!("{}", pipeline.to_json(&program)),
            Format::Sarif => print!("{}", pipeline.to_sarif(&program)),
        }
        if let Some(digests) = &digests {
            db.reports
                .insert(digests.program, render_reports(&pipeline, &program));
        }
        if pipeline.races.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    } else {
        if opts.json {
            print!("{}", report.races.to_json(&program));
        } else {
            print!("{}", report.races.render(&program));
        }
        if opts.deadlocks {
            println!();
            print!(
                "{}",
                report
                    .detect_deadlocks(&program)
                    .render(&program, &report.shb)
            );
        }
        if opts.oversync {
            println!();
            print!("{}", report.find_oversync(&program).render(&program));
        }
        if opts.racerd {
            println!();
            let rd = o2_racerd::run_racerd(&program);
            println!(
                "RacerD-style comparison: {} warnings ({} read/write, {} unprotected writes)",
                rd.total_warnings(),
                rd.num_read_write_races,
                rd.num_unprotected_writes
            );
        }
        if report.num_races() > 0 {
            ExitCode::from(1)
        } else {
            ExitCode::SUCCESS
        }
    };

    if let Some(path) = &opts.save_db {
        if let Err(e) = db.save(std::path::Path::new(path)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    code
}
