//! End-to-end tests of the `o2` command-line binary.

use o2::serve::{solo_reports, spawn, Client, ServeState};
use o2::{ServeOptions, O2};
use o2_ir::json_escape;
use std::io::Write;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn o2_bin() -> &'static str {
    env!("CARGO_BIN_EXE_o2", "o2 binary built by cargo")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("o2-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const RACY: &str = r#"
    class S { field data; }
    class W impl Runnable {
        field s;
        method <init>(s) { this.s = s; }
        method run() { s = this.s; s.data = s; }
    }
    class Main {
        static method main() {
            s = new S();
            w = new W(s);
            w.start();
            x = s.data;
        }
    }
"#;

const RACY_C: &str = r#"
    struct S { any data; };
    void worker(any s) { s->data = s; }
    void main() {
        s = malloc(S);
        pthread_create(&t, worker, s);
        x = s->data;
    }
"#;

#[test]
fn reports_race_with_exit_code_one() {
    let file = write_temp("racy.o2", RACY);
    let out = Command::new(o2_bin()).arg(&file).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 race(s) after triage"), "{stdout}");
    assert!(stdout.contains("] data : "), "{stdout}");
}

#[test]
fn clean_program_exits_zero() {
    let file = write_temp("clean.o2", "class Main { static method main() { } }");
    let out = Command::new(o2_bin()).arg(&file).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 race(s) after triage"), "{stdout}");
}

/// `o2 <file> --quiet` prints exactly the text report `o2 serve` and
/// `o2 batch --save-db` cache for the program, and each `--format`
/// prints exactly that form.
#[test]
fn every_format_prints_the_solo_report_bytes() {
    for (name, src, c) in [("solo.o2", RACY, false), ("solo.c", RACY_C, true)] {
        let file = write_temp(name, src);
        let program = o2::parse_program(src, c).unwrap();
        let solo = solo_reports(&O2::default(), &program);
        for (format, want) in [
            (None, &solo.text),
            (Some("text"), &solo.text),
            (Some("json"), &solo.json),
            (Some("sarif"), &solo.sarif),
        ] {
            let mut cmd = Command::new(o2_bin());
            cmd.arg(&file).arg("--quiet");
            if let Some(format) = format {
                cmd.args(["--format", format]);
            }
            let out = cmd.output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{name} {format:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                want.as_str(),
                "{name} {format:?}"
            );
        }
    }
}

/// The raw detector dump and its flags are gone: the triaged report
/// carries every fact they printed.
#[test]
fn retired_raw_output_flags_are_usage_errors() {
    let file = write_temp("racy_retired.o2", RACY);
    for flag in [
        "--json",
        "--deadlocks",
        "--oversync",
        "--racerd",
        "--threads",
    ] {
        let out = Command::new(o2_bin())
            .arg(&file)
            .arg(flag)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
    }
}

#[test]
fn parse_error_exits_with_parse_stage_code() {
    // An unclosed `/*` is an error at its position, not a comment that
    // silently swallows the rest of the file.
    let unclosed_c = RACY_C.replacen("void worker", "/* void worker", 1);
    let unclosed_o2 = RACY.replacen("class W", "/* class W", 1);
    for (name, src, want) in [
        ("bad.o2", "class {", "parse error"),
        (
            "unclosed.c",
            unclosed_c.as_str(),
            "line 3, col 5: unterminated `/*`",
        ),
        (
            "unclosed.o2",
            unclosed_o2.as_str(),
            "line 3, col 5: unterminated `/*`",
        ),
    ] {
        let file = write_temp(name, src);
        let out = Command::new(o2_bin()).arg(&file).output().unwrap();
        assert_eq!(out.status.code(), Some(10), "{name}: parse stage exit code");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{name}: {stderr}");
    }
}

#[test]
fn missing_file_exits_with_io_stage_code() {
    let out = Command::new(o2_bin())
        .arg("/nonexistent/file.o2")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(16), "io stage exit code");
}

#[test]
fn policy_flag_changes_results() {
    // The Figure 3 program: OPA clean, 0-ctx reports a false race.
    let src = r#"
        class T impl Runnable {
            field f;
            method run() { x = this.f; x.v = x; }
        }
        class Obj { field v; }
        class Helper { static method initT(t) { o = new Obj(); t.f = o; } }
        class TA : T { method <init>() { Helper::initT(this); } }
        class TB : T { method <init>() { Helper::initT(this); } }
        class Main {
            static method main() {
                a = new TA();
                b = new TB();
                a.start();
                b.start();
            }
        }
    "#;
    let file = write_temp("fig3.o2", src);
    let opa = Command::new(o2_bin()).arg(&file).output().unwrap();
    assert_eq!(opa.status.code(), Some(0), "OPA: no race");
    let zero = Command::new(o2_bin())
        .arg(&file)
        .args(["--policy", "0ctx"])
        .output()
        .unwrap();
    assert_eq!(zero.status.code(), Some(1), "0-ctx: false positive");
}

/// Deadlock cycles and over-synchronized sites are SARIF results of the
/// one triaged report.
#[test]
fn deadlocks_and_oversync_are_sarif_results() {
    let src = r#"
        class L { }
        class T1 impl Runnable {
            field a; field b;
            method <init>(a, b) { this.a = a; this.b = b; }
            method run() { a = this.a; b = this.b; sync (a) { sync (b) { x = a; } } }
        }
        class T2 impl Runnable {
            field a; field b;
            method <init>(a, b) { this.a = a; this.b = b; }
            method run() { a = this.a; b = this.b; sync (b) { sync (a) { x = b; } } }
        }
        class Main {
            static method main() {
                a = new L();
                b = new L();
                t1 = new T1(a, b);
                t2 = new T2(a, b);
                t1.start();
                t2.start();
            }
        }
    "#;
    let file = write_temp("deadlock.o2", src);
    let out = Command::new(o2_bin())
        .arg(&file)
        .args(["--quiet", "--format", "sarif"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.matches("\"ruleId\": \"o2/deadlock\"").count(),
        1,
        "{stdout}"
    );
    assert!(
        stdout.contains("Lock-order cycle obj#0 -> obj#1"),
        "{stdout}"
    );
    assert!(!stdout.contains("\"ruleId\": \"o2/oversync\""), "{stdout}");
}

#[test]
fn unknown_flag_is_usage_error() {
    let out = Command::new(o2_bin()).arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn loadgen_is_not_a_mode() {
    let out = Command::new(o2_bin())
        .args(["loadgen", "127.0.0.1:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn json_output_is_well_formed() {
    let file = write_temp("racy_json.o2", RACY);
    let out = Command::new(o2_bin())
        .arg(&file)
        .args(["--quiet", "--format", "json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"races\""), "{stdout}");
    assert!(stdout.contains("\"location\": \"data\""), "{stdout}");
    // Balanced braces as a cheap well-formedness check.
    let opens = stdout.matches('{').count();
    let closes = stdout.matches('}').count();
    assert_eq!(opens, closes, "{stdout}");
}

/// `--timeout` is a deadline for the whole run, not a truncation: a run
/// out of time exits with the timeout stage code, prints no report and
/// leaves nothing in the `--save-db` image; `batch` and `serve` reject
/// the flag.
#[test]
fn timeout_aborts_without_a_report_and_caches_nothing() {
    let program = o2_workloads::workload_by_name("telegram").unwrap().program;
    let file = write_temp(
        "telegram_timeout.o2",
        &o2_ir::printer::print_program(&program),
    );
    let db = std::env::temp_dir()
        .join("o2-cli-tests")
        .join("telegram_timeout.o2db");
    let _ = std::fs::remove_file(&db);
    let out = Command::new(o2_bin())
        .arg(&file)
        .args(["--timeout", "0", "--quiet", "--save-db"])
        .arg(&db)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(17), "timeout stage exit code");
    assert!(out.stdout.is_empty(), "no report on stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("timeout"), "{stderr}");
    let digest = o2_ir::digest_program(&program).program;
    if db.exists() {
        let image = o2::prelude::AnalysisDb::load(&db).unwrap();
        assert!(
            image.lookup(O2::default().config_sig(), digest).is_none(),
            "a timed-out run must not be cached"
        );
    }
    let manifest = write_temp("timeout_manifest.txt", "avrora\n");
    for args in [
        vec!["batch".to_string(), manifest.display().to_string()],
        vec!["serve".to_string(), "127.0.0.1:0".to_string()],
    ] {
        let out = Command::new(o2_bin())
            .args(&args)
            .args(["--timeout", "5"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

/// `--save-db` then `--load-db`, neither with a `--format`: the warm run
/// replays the cached reports (it prints the replay note) and its stdout
/// is byte-identical to the cold run's.
#[test]
fn save_and_load_db_roundtrip() {
    let file = write_temp("racy_db.o2", RACY);
    let db = std::env::temp_dir().join("o2-cli-tests").join("racy.o2db");
    let _ = std::fs::remove_file(&db);
    let cold = Command::new(o2_bin())
        .arg(&file)
        .args(["--quiet", "--save-db"])
        .arg(&db)
        .output()
        .unwrap();
    assert_eq!(cold.status.code(), Some(1));
    assert!(db.exists(), "database written");
    let warm = Command::new(o2_bin())
        .arg(&file)
        .arg("--load-db")
        .arg(&db)
        .output()
        .unwrap();
    assert_eq!(warm.status.code(), Some(1));
    assert_eq!(cold.stdout, warm.stdout, "warm output byte-identical");
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(stderr.contains("replayed cached reports"), "{stderr}");
}

#[test]
fn load_db_with_corrupt_file_exits_two() {
    let file = write_temp("racy_db2.o2", RACY);
    let db = write_temp("corrupt.o2db", "not a database");
    let out = Command::new(o2_bin())
        .arg(&file)
        .args(["--quiet", "--load-db"])
        .arg(&db)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("database"), "{stderr}");
}

#[test]
fn diff_analyze_reports_changed_functions() {
    // W.run writes a second time and W gains a method.
    let edited = RACY
        .replace("s.data = s;", "s.data = s; s.data = s;")
        .replace("method run()", "method extra() { } method run()");
    let old = write_temp("diff_old.o2", RACY);
    let new = write_temp("diff_new.o2", &edited);
    let out = Command::new(o2_bin())
        .arg("diff-analyze")
        .arg(&old)
        .arg(&new)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout.lines().next().unwrap_or_default();
    assert_eq!(summary, "diff: 1 changed, 1 added, 0 removed", "{stdout}");
    assert!(stdout.contains("~ W.run/0"), "{stdout}");
    assert!(stdout.contains("+ W.extra/0"), "{stdout}");
    assert!(stdout.contains("race(s) after triage"), "{stdout}");

    // The daemon counts the same edit the same way.
    let state = Arc::new(ServeState::new(O2::default()));
    let server = spawn("127.0.0.1:0", state, ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let request = format!(
        "{{\"op\":\"diff-analyze\",\"old_source\":\"{}\",\"new_source\":\"{}\"}}",
        json_escape(RACY),
        json_escape(&edited)
    );
    let map = client.request(&request).unwrap();
    let count = |key: &str| {
        map[key]
            .as_u64()
            .unwrap_or_else(|| panic!("{key}: {map:?}"))
    };
    assert_eq!(
        format!(
            "diff: {} changed, {} added, {} removed",
            count("changed"),
            count("added"),
            count("removed")
        ),
        summary
    );
    server.shutdown().unwrap();
}

/// Runs `o2 <file> --format json --load-db <db>` and returns its stdout
/// after checking it came from the cache.
fn load_db_hit(file: &std::path::Path, db: &std::path::Path) -> Vec<u8> {
    let out = Command::new(o2_bin())
        .arg(file)
        .args(["--format", "json", "--load-db"])
        .arg(db)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replayed cached reports"), "{stderr}");
    out.stdout
}

fn cold_json(file: &std::path::Path) -> Vec<u8> {
    let out = Command::new(o2_bin())
        .arg(file)
        .args(["--quiet", "--format", "json"])
        .output()
        .unwrap();
    out.stdout
}

/// `diff-analyze --save-db` caches the new version's reports, and
/// `o2 batch --save-db` caches every manifest program's: a later
/// `--load-db` run on either, file mode or `diff-analyze`, answers from
/// the cache, byte-identical to a cold run.
#[test]
fn diff_and_batch_images_feed_the_load_db_fast_path() {
    let old = write_temp("img_old.o2", RACY);
    let new = write_temp(
        "img_new.o2",
        &RACY.replace("s.data = s;", "s.data = s; s.data = s;"),
    );
    let dir = std::env::temp_dir().join("o2-cli-tests");
    let diff_db = dir.join("diff.o2db");
    let out = Command::new(o2_bin())
        .arg("diff-analyze")
        .arg(&old)
        .arg(&new)
        .args(["--quiet", "--format", "json", "--save-db"])
        .arg(&diff_db)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(load_db_hit(&new, &diff_db), cold_json(&new));

    let manifest = write_temp("img.manifest", "old = img_old.o2\nnew = img_new.o2\n");
    let batch_db = dir.join("batch.o2db");
    let out = Command::new(o2_bin())
        .arg("batch")
        .arg(&manifest)
        .args(["--quiet", "--save-db"])
        .arg(&batch_db)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(load_db_hit(&old, &batch_db), cold_json(&old));
    assert_eq!(load_db_hit(&new, &batch_db), cold_json(&new));

    let out = Command::new(o2_bin())
        .arg("diff-analyze")
        .arg(&old)
        .arg(&new)
        .args(["--format", "json", "--load-db"])
        .arg(&batch_db)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("replayed cached reports"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("diff: 1 changed, 0 added, 0 removed\n"),
        "{stdout}"
    );
    assert!(
        stdout.ends_with(String::from_utf8_lossy(&cold_json(&new)).as_ref()),
        "{stdout}"
    );
}

/// `o2 batch` as a process: the merged SARIF is byte-identical at 1 and
/// 4 workers, and a manifest entry that fails to resolve is recorded in
/// the merged JSON with its stage while the rest of the corpus runs.
#[test]
fn batch_process_merges_deterministically_and_records_failing_entries() {
    let manifest = write_temp(
        "smoke.manifest",
        "avrora\nlusearch\nmega-smoke\nrealbug:ZooKeeper\nrealbug-c:Memcached\n",
    );
    let sarif = |workers: &str| {
        let out = Command::new(o2_bin())
            .arg("batch")
            .arg(&manifest)
            .args(["--workers", workers, "--format", "sarif", "--quiet"])
            .output()
            .unwrap();
        out.stdout
    };
    let one = sarif("1");
    assert!(!one.is_empty());
    assert_eq!(
        one,
        sarif("4"),
        "merged SARIF differs between 1 and 4 workers"
    );

    let manifest = write_temp("failing.manifest", "avrora\nno-such-workload\n");
    let out = Command::new(o2_bin())
        .arg("batch")
        .arg(&manifest)
        .args(["--workers", "2", "--format", "json", "--quiet"])
        .output()
        .unwrap();
    // Races take precedence over the failing entry's resolve code (11).
    assert!(
        matches!(out.status.code(), Some(1 | 11)),
        "{:?}",
        out.status
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"stage\": \"resolve\""), "{stdout}");
}

/// `o2 batch` with no `--format` (and with `--format text`) prints, in
/// name order, each entry's `o2 <file> --quiet` bytes under a
/// `== <name>` header.
#[test]
fn batch_text_report_is_each_entry_solo_report() {
    let clean = "class Main { static method main() { } }";
    let entries = [
        ("zeta", "batch_text_racy.o2", RACY),
        ("alpha", "batch_text_clean.o2", clean),
        ("mid", "batch_text_racy.c", RACY_C),
    ];
    let mut manifest = String::new();
    let mut sorted: Vec<(&str, Vec<u8>)> = Vec::new();
    for (name, file, src) in entries {
        let path = write_temp(file, src);
        manifest.push_str(&format!("{name} = {file}\n"));
        let solo = Command::new(o2_bin())
            .arg(&path)
            .arg("--quiet")
            .output()
            .unwrap();
        sorted.push((name, solo.stdout));
    }
    sorted.sort();
    let mut want = Vec::new();
    for (name, stdout) in sorted {
        want.extend(format!("== {name}\n").bytes());
        want.extend(stdout);
    }
    let manifest = write_temp("batch_text.manifest", &manifest);
    for format in [&[][..], &["--format", "text"][..]] {
        let out = Command::new(o2_bin())
            .arg("batch")
            .arg(&manifest)
            .args(["--workers", "2"])
            .args(format)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{format:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&want),
            "{format:?}"
        );
    }
}

#[test]
fn diff_analyze_needs_two_files() {
    let old = write_temp("diff_only.o2", RACY);
    let out = Command::new(o2_bin())
        .arg("diff-analyze")
        .arg(&old)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exactly two input files"), "{stderr}");
}

#[test]
fn c_frontend_by_extension() {
    let file = write_temp("racy.c", RACY_C);
    let out = Command::new(o2_bin()).arg(&file).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("1 race(s) after triage"), "{stdout}");
    assert!(stdout.contains("] data : "), "{stdout}");
}

/// Upper bound on every wait of the `o2 serve` process test: port file,
/// one reply, process exit. A broken daemon fails the test instead of
/// hanging it.
const DAEMON_WAIT: Duration = Duration::from_secs(120);

/// A running `o2 serve` process, killed on drop so a failed assertion
/// never leaves a daemon behind.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `o2 serve 127.0.0.1:0 --port-file <dir>/port <db_args>
    /// --quiet` and waits for the port file.
    fn start(dir: &Path, db_args: &[&std::ffi::OsStr]) -> Daemon {
        let port_file = dir.join("port");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(o2_bin())
            .args(["serve", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .args(db_args)
            .arg("--quiet")
            .stdin(Stdio::null())
            .spawn()
            .unwrap();
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + DAEMON_WAIT;
        loop {
            // The daemon writes "<addr>\n"; the newline marks it complete.
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    return daemon;
                }
            }
            if let Some(status) = daemon.child.try_wait().unwrap() {
                panic!("o2 serve exited ({status}) before writing its port file");
            }
            assert!(
                Instant::now() < deadline,
                "o2 serve never wrote its port file"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn client(&self) -> Client {
        let client = Client::connect(&self.addr).unwrap();
        client.set_timeout(DAEMON_WAIT).unwrap();
        client
    }

    fn wait_exit(&mut self) -> ExitStatus {
        let deadline = Instant::now() + DAEMON_WAIT;
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "o2 serve did not exit after shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The real `o2 serve` process end to end: solo-identical bytes, a
/// digest hit on repeat, structured errors on a surviving connection,
/// a clean protocol shutdown that saves the report cache, and a
/// restart from that cache that answers warm from its first request.
#[test]
fn serve_process_answers_solo_bytes_and_restarts_warm_from_its_db() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("serve-process");
    std::fs::create_dir_all(&dir).unwrap();
    let db = dir.join("serve.o2db");
    let _ = std::fs::remove_file(&db);
    let spec = "realbug:ZooKeeper";
    let program = o2_workloads::workload_by_name(spec).unwrap().program;
    let solo = solo_reports(&O2::default(), &program).text;
    let analyze = format!("{{\"op\":\"analyze\",\"workload\":\"{spec}\"}}");

    let mut daemon = Daemon::start(&dir, &["--save-db".as_ref(), db.as_os_str()]);
    let mut client = daemon.client();
    let ping = client.request("{\"op\":\"ping\"}").unwrap();
    assert_eq!(ping["ok"].as_bool(), Some(true));
    let cold = client.request(&analyze).unwrap();
    assert_eq!(cold["digest_hit"].as_bool(), Some(false));
    assert_eq!(cold["output"].as_str(), Some(solo.as_str()));
    let warm = client.request(&analyze).unwrap();
    assert_eq!(warm["digest_hit"].as_bool(), Some(true));
    assert_eq!(warm["output"].as_str(), Some(solo.as_str()));
    let stats = client.request("{\"op\":\"stats\"}").unwrap();
    assert_eq!(stats["report_hits"].as_u64(), Some(1), "{stats:?}");

    // Errors answer structured on the same connection, which keeps
    // serving afterwards.
    let bad = client.request("this is not json").unwrap();
    assert_eq!(bad["ok"].as_bool(), Some(false));
    let timed = client
        .request(&format!(
            "{{\"op\":\"analyze\",\"workload\":\"{spec}\",\"deadline_ms\":0}}"
        ))
        .unwrap();
    assert_eq!(timed["stage"].as_str(), Some("timeout"));
    let after = client.request(&analyze).unwrap();
    assert_eq!(after["output"].as_str(), Some(solo.as_str()));

    let bye = client.request("{\"op\":\"shutdown\"}").unwrap();
    assert_eq!(bye["ok"].as_bool(), Some(true));
    assert!(daemon.wait_exit().success());
    let saved = std::fs::metadata(&db).map(|m| m.len()).unwrap_or(0);
    assert!(saved > 0, "--save-db wrote nothing to {}", db.display());

    let mut daemon = Daemon::start(&dir, &["--load-db".as_ref(), db.as_os_str()]);
    let mut client = daemon.client();
    let first = client.request(&analyze).unwrap();
    assert_eq!(first["digest_hit"].as_bool(), Some(true));
    assert_eq!(first["output"].as_str(), Some(solo.as_str()));
    client.request("{\"op\":\"shutdown\"}").unwrap();
    assert!(daemon.wait_exit().success());
}
