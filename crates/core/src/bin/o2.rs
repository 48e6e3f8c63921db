//! The `o2` command-line tool: analyze a source file for data races,
//! deadlocks, and over-synchronization.
//!
//! ```text
//! o2 <file.o2> [--policy 0ctx|1cfa|2cfa|1obj|2obj|origin|korigin:K]
//!              [--naive] [--no-dispatcher-lock] [--sharing] [--origins]
//!              [--timeout SECS] [--quiet] [--c]
//!              [--format text|json|sarif] [--dot-shb] [--dot-callgraph]
//!              [--html FILE] [--save-db FILE] [--load-db FILE]
//! o2 diff-analyze <old.o2> <new.o2> [same flags]
//! ```
//!
//! The output is the triaged report, the same one `o2 batch` and
//! `o2 serve` print: the races that survive `@suppress(race)`, ownership
//! pruning and guarded-by inference, with confidence tiers, plus the
//! deadlock and over-synchronization clients. `--format` picks its form:
//! `text` (the default) for the human summary, `json` for the
//! machine-readable report, `sarif` for a SARIF 2.1.0 document with one
//! result per race, deadlock cycle and over-synchronized site. Unless
//! `--quiet`, a cold run first prints the analysis summary line.
//!
//! `--save-db`/`--load-db` persist the report cache between runs: a run
//! on a program whose whole-program digest (and analysis configuration)
//! matches a cached entry prints the cached bytes without analyzing,
//! unless a side output (`--origins`, `--sharing`, `--html`, `--dot-*`)
//! needs the analysis itself; any other program is analyzed cold and its
//! reports are cached. `diff-analyze` prints the function-level digest
//! diff of two versions, then the report of the new one.
//!
//! `--timeout SECS` is a deadline for the analysis: a run that misses it
//! exits 17 with no report and caches nothing. `o2 batch` and `o2 serve`
//! reject it (serve requests carry their own `deadline_ms`).

//! # Exit codes
//!
//! `0` — clean run, no races after triage; `1` — races found; `2` —
//! usage or option errors. Typed pipeline failures map their [`O2Error`] stage
//! to a distinct code: parse 10, resolve 11, pta 12, analysis 13,
//! detect 14, db 15, io 16, timeout 17, budget 18, internal (caught
//! panic) 19.

use o2::prelude::*;
use o2::{render_reports, Format};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

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
    sharing: bool,
    origins: bool,
    timeout: Option<Duration>,
    quiet: bool,
    format: Format,
    c_frontend: bool,
    dot_shb: bool,
    dot_callgraph: bool,
    html: Option<String>,
    save_db: Option<String>,
    load_db: Option<String>,
    /// `serve` mode: `file` is a listen address, not a program.
    serve: bool,
    /// `serve --port-file`: write the bound address here once listening.
    port_file: Option<String>,
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
        sharing: false,
        origins: false,
        timeout: None,
        quiet: false,
        format: Format::Text,
        c_frontend: false,
        dot_shb: false,
        dot_callgraph: false,
        html: None,
        save_db: None,
        load_db: None,
        serve: false,
        port_file: None,
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
            "--sharing" => opts.sharing = true,
            "--origins" => opts.origins = true,
            "--quiet" => opts.quiet = true,
            "--format" => {
                i += 1;
                opts.format = Format::parse(args.get(i).ok_or("--format needs a value")?)?;
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
    } else {
        match files.len() {
            0 => return Err("no input file".to_string()),
            1 => opts.file = files[0].clone(),
            _ => return Err("multiple input files".to_string()),
        }
    }
    if (opts.batch || opts.serve) && opts.timeout.is_some() {
        return Err(
            "--timeout applies to one program (serve requests carry deadline_ms)".to_string(),
        );
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
         \x20         [--naive] [--no-dispatcher-lock] [--sharing] [--origins]\n\
         \x20         [--timeout SECS] [--quiet] [--c]\n\
         \x20         [--format text|json|sarif] [--dot-shb] [--dot-callgraph]\n\
         \x20         [--html FILE] [--save-db FILE] [--load-db FILE]\n\
         \x20      o2 diff-analyze <old.o2> <new.o2> [same flags]\n\
         \x20      o2 batch <manifest> [--workers N] [--format text|json|sarif] [--save-db FILE]\n\
         \x20         [same flags but --timeout]\n\
         \x20         manifest: one entry per line — a registry workload name\n\
         \x20         (avrora, mega-smoke, realbug:ZooKeeper, realbug-c:Memcached)\n\
         \x20         or `name = path/to/file.o2`; `#` starts a comment\n\
         \x20      o2 serve <addr> [--workers N] [--load-db FILE] [--save-db FILE]\n\
         \x20         [--port-file FILE] [--quiet] [same engine flags but --timeout]\n\
         \x20         resident daemon; line-delimited JSON protocol (DESIGN §14)"
    );
}

/// `o2 serve <addr>`: bind, optionally pre-seed the report cache from
/// `--load-db`, and run the accept loop until a `shutdown` request.
/// With `--save-db` the cache is snapshotted to disk on the way out.
fn run_serve_mode(engine: &O2, opts: &Options) -> ExitCode {
    use std::sync::Arc;
    let state = Arc::new(o2::serve::ServeState::new(engine.clone()));
    match load_db(opts) {
        Err(code) => return code,
        Ok(None) => {}
        Ok(Some((image, path))) => match state.preseed(&image) {
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
        if let Err(code) = save_db(&state.snapshot_db(), path) {
            return code;
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

/// `o2 batch manifest`: analyze the whole corpus. The merged report (text,
/// JSON or SARIF, byte-identical for every `--workers` value and
/// manifest order) goes to stdout; the
/// scheduling-dependent summary table goes to stderr.
fn run_batch_mode(engine: &O2, opts: &Options) -> ExitCode {
    let path = Path::new(&opts.file);
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.file);
            return ExitCode::from(2);
        }
    };
    let base = path.parent().unwrap_or(Path::new("."));
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
        if let Err(code) = save_db(&db, path) {
            return code;
        }
        if !opts.quiet {
            eprintln!("o2 batch: saved {} reports to {path}", db.reports.len());
        }
        report
    } else {
        o2::run_batch(engine, &entries, workers)
    };
    match opts.format {
        Format::Text => print!("{}", report.text),
        Format::Json => print!("{}", report.json),
        Format::Sarif => print!("{}", report.sarif),
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
    o2::parse_program(&src, force_c || path.ends_with(".c"))
}

/// Loads the `--load-db` image, with its path, if the flag names an
/// existing file. A path that does not exist yet holds no image, so
/// `--load-db X --save-db X` works from the first run on; an unreadable
/// or corrupt image is a usage error (exit 2).
fn load_db(opts: &Options) -> Result<Option<(AnalysisDb, &str)>, ExitCode> {
    match opts.load_db.as_deref() {
        Some(path) if Path::new(path).exists() => match AnalysisDb::load(Path::new(path)) {
            Ok(db) => Ok(Some((db, path))),
            Err(e) => {
                eprintln!("error: {path}: {e}");
                Err(ExitCode::from(2))
            }
        },
        _ => Ok(None),
    }
}

/// Writes `db` to `path` (`--save-db`); a failed write exits 2.
fn save_db(db: &AnalysisDb, path: &str) -> Result<(), ExitCode> {
    db.save(Path::new(path)).map_err(|e| {
        eprintln!("error: cannot write {path}: {e}");
        ExitCode::from(2)
    })
}

/// Prints what a cold run shows before the report: the analysis summary
/// (unless `--quiet`) and the side outputs the flags ask for.
fn print_side_outputs(
    opts: &Options,
    program: &Program,
    report: &AnalysisReport,
) -> Result<(), ExitCode> {
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
        let text = report.osa.render(program, &report.pta);
        if text.is_empty() {
            println!("no origin-shared locations with a writer\n");
        } else {
            println!("{text}");
        }
    }
    if let Some(path) = &opts.html {
        let html = o2_detect::render_html(program, &report.pta, &report.races);
        if let Err(e) = std::fs::write(path, html) {
            eprintln!("error: cannot write {path}: {e}");
            return Err(ExitCode::from(2));
        }
        if !opts.quiet {
            println!("wrote HTML report to {path}");
        }
    }
    if opts.dot_callgraph {
        print!("{}", report.pta.callgraph_to_dot(program));
    }
    if opts.dot_shb {
        print!("{}", report.shb.to_dot(&report.pta));
    }
    Ok(())
}

/// The one report path of file mode and `diff-analyze`: look the program
/// up in the report cache by its whole-program digest, or run it cold
/// within `--timeout` (analysis, passes and rendering under the one panic
/// backstop, then the summary and side outputs); print the triaged report
/// in `--format`; cache it; exit 1 iff races survive triage. A run that
/// misses its deadline prints and caches nothing.
fn report_program(engine: &O2, opts: &Options, program: &Program) -> ExitCode {
    let sig = engine.config_sig();
    let mut db = match load_db(opts) {
        Err(code) => return code,
        Ok(Some((db, _))) => Some(db),
        Ok(None) => opts.save_db.is_some().then(|| AnalysisDb::new(sig)),
    };
    let digest = db.as_ref().map(|_| o2_ir::digest_program(program).program);
    let side_outputs =
        opts.origins || opts.sharing || opts.dot_shb || opts.dot_callgraph || opts.html.is_some();
    let hit = match (&db, digest) {
        (Some(db), Some(digest)) if !side_outputs => db.lookup(sig, digest).cloned(),
        _ => None,
    };
    let cold = hit.is_none();
    let reports = match hit {
        Some(reports) => {
            if !opts.quiet {
                eprintln!("o2: replayed cached reports from database");
            }
            reports
        }
        None => {
            let budget = opts
                .timeout
                .map_or_else(Budget::unlimited, Budget::with_deadline);
            let run = O2Error::catch(|| {
                let report = engine.try_analyze(program, &budget)?;
                let reports = render_reports(&report.run_pipeline(program), program);
                Ok((report, reports))
            });
            let (report, reports) = match run {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(e.exit_code());
                }
            };
            if let Err(code) = print_side_outputs(opts, program, &report) {
                return code;
            }
            reports
        }
    };
    print!("{}", opts.format.select(&reports));
    let code = if reports.n_races == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    };
    if let (Some(db), Some(digest)) = (&mut db, digest) {
        if cold {
            db.commit_program(sig, digest);
            db.reports.insert(digest, reports);
        }
        if let Some(path) = &opts.save_db {
            if let Err(code) = save_db(db, path) {
                return code;
            }
        }
    }
    code
}

/// `o2 diff-analyze old new`: print the function-level digest diff of
/// the two versions (unless `--quiet`), then the report of `new` through
/// the one report path.
fn run_diff(engine: &O2, opts: &Options, old: &Program, new: &Program) -> ExitCode {
    if !opts.quiet {
        let diff = o2_ir::digest_diff(&o2_ir::digest_program(old), &o2_ir::digest_program(new));
        println!("diff: {}", diff.summary());
        for name in &diff.changed {
            println!("  ~ {name}");
        }
        for name in &diff.added {
            println!("  + {name}");
        }
        for name in &diff.removed {
            println!("  - {name}");
        }
        println!();
    }
    report_program(engine, opts, new)
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
    let engine = builder.build();

    if opts.batch {
        // The positional argument is a manifest, not a program.
        return run_batch_mode(&engine, &opts);
    }
    if opts.serve {
        // The positional argument is a listen address.
        return run_serve_mode(&engine, &opts);
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

    report_program(&engine, &opts, &program)
}
