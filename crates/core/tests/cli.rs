//! End-to-end tests of the `o2` command-line binary.

use o2::serve::{spawn, Client, ServeState};
use o2::{ServeOptions, O2};
use o2_ir::json_escape;
use std::io::Write;
use std::process::Command;
use std::sync::Arc;

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

#[test]
fn reports_race_with_exit_code_one() {
    let file = write_temp("racy.o2", RACY);
    let out = Command::new(o2_bin()).arg(&file).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("race #1"), "{stdout}");
    assert!(stdout.contains("data"), "{stdout}");
}

#[test]
fn clean_program_exits_zero() {
    let file = write_temp("clean.o2", "class Main { static method main() { } }");
    let out = Command::new(o2_bin()).arg(&file).output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no races detected"), "{stdout}");
}

#[test]
fn parse_error_exits_with_parse_stage_code() {
    let file = write_temp("bad.o2", "class {");
    let out = Command::new(o2_bin()).arg(&file).output().unwrap();
    assert_eq!(out.status.code(), Some(10), "parse stage exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
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

#[test]
fn deadlock_and_oversync_flags() {
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
        .args(["--deadlocks", "--oversync", "--quiet"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("deadlock #1"), "{stdout}");
    assert!(stdout.contains("no over-synchronization"), "{stdout}");
}

#[test]
fn unknown_flag_is_usage_error() {
    let out = Command::new(o2_bin()).arg("--frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn json_output_is_well_formed() {
    let file = write_temp("racy_json.o2", RACY);
    let out = Command::new(o2_bin())
        .arg(&file)
        .args(["--quiet", "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "{stdout}");
    assert!(stdout.contains("\"races\""), "{stdout}");
    assert!(stdout.contains("\"field\": \"data\""), "{stdout}");
    // Balanced braces as a cheap well-formedness check.
    let opens = stdout.matches('{').count();
    let closes = stdout.matches('}').count();
    assert_eq!(opens, closes, "{stdout}");
}

#[test]
fn threads_zero_is_rejected() {
    let file = write_temp("racy_t0.o2", RACY);
    let out = Command::new(o2_bin())
        .arg(&file)
        .args(["--threads", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads must be at least 1"), "{stderr}");
}

#[test]
fn threads_one_is_accepted() {
    let file = write_temp("racy_t1.o2", RACY);
    let out = Command::new(o2_bin())
        .arg(&file)
        .args(["--threads", "1", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// `--save-db` then `--load-db`: the warm run replays the cached reports
/// (it prints the replay note) and its stdout is byte-identical to the
/// cold run's.
#[test]
fn save_and_load_db_roundtrip() {
    let file = write_temp("racy_db.o2", RACY);
    let db = std::env::temp_dir().join("o2-cli-tests").join("racy.o2db");
    let _ = std::fs::remove_file(&db);
    let cold = Command::new(o2_bin())
        .arg(&file)
        .args(["--quiet", "--format", "json", "--save-db"])
        .arg(&db)
        .output()
        .unwrap();
    assert_eq!(cold.status.code(), Some(1));
    assert!(db.exists(), "database written");
    let warm = Command::new(o2_bin())
        .arg(&file)
        .args(["--format", "json", "--load-db"])
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
/// `--load-db` run on either answers from the cache, byte-identical to
/// a cold run.
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
    let src = r#"
        struct S { any data; };
        void worker(any s) { s->data = s; }
        void main() {
            s = malloc(S);
            pthread_create(&t, worker, s);
            x = s->data;
        }
    "#;
    let file = write_temp("racy.c", src);
    let out = Command::new(o2_bin()).arg(&file).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("race #1"), "{stdout}");
}
