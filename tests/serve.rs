//! End-to-end tests of the `o2 serve` daemon: concurrent-client
//! determinism, warm-restart pre-seeding from a batch image, and protocol
//! robustness against malformed input. Everything runs against a real TCP server
//! on a loopback port via the in-process [`o2::serve::spawn`] harness.

use o2::serve::{parse_flat_json, solo_reports, spawn, Client, JsonValue, ServeState};
use o2::{O2Builder, ServeOptions, O2};
use std::collections::BTreeMap;
use std::sync::Arc;

fn start(engine: O2, opts: ServeOptions) -> o2::ServerHandle {
    let state = Arc::new(ServeState::new(engine));
    spawn("127.0.0.1:0", state, opts).expect("bind loopback")
}

fn get_str<'a>(map: &'a BTreeMap<String, JsonValue>, key: &str) -> &'a str {
    map.get(key)
        .and_then(|v| v.as_str())
        .unwrap_or_else(|| panic!("response has no string field {key:?}"))
}

#[test]
fn concurrent_clients_get_solo_identical_bytes() {
    let engine = O2Builder::new().build();
    // Mixed formats and programs, hammered by 6 clients at once. Every
    // response must match the solo-CLI rendering byte for byte, no
    // matter which client raced which program into the caches first.
    let specs = ["realbug:ZooKeeper", "realbug:HBase", "realbug-c:Memcached"];
    let oracle: Vec<_> = specs
        .iter()
        .map(|spec| {
            let w = o2_workloads::workload_by_name(spec).unwrap();
            solo_reports(&engine, &w.program)
        })
        .collect();
    let server = start(engine, ServeOptions::default());
    let addr = server.addr();
    // Warm each program once so the hammer below has a deterministic
    // cache state: with a real worker pool, two clients racing the
    // same cold digest may each (correctly) compute it, which would
    // make the hit count scheduling-dependent.
    {
        let mut warmup = Client::connect(addr).expect("connect");
        for spec in specs {
            let map = warmup
                .request(&format!("{{\"op\":\"analyze\",\"workload\":\"{spec}\"}}"))
                .expect("warmup analyze");
            assert_eq!(map["ok"].as_bool(), Some(true));
        }
    }
    std::thread::scope(|scope| {
        for client_idx in 0..6 {
            let oracle = &oracle;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    let which = (client_idx + round) % specs.len();
                    let spec = specs[which];
                    for (format, expect) in [
                        ("text", &oracle[which].text),
                        ("json", &oracle[which].json),
                        ("sarif", &oracle[which].sarif),
                    ] {
                        let map = client
                            .request(&format!(
                                "{{\"op\":\"analyze\",\"workload\":\"{spec}\",\
                                 \"format\":\"{format}\"}}"
                            ))
                            .expect("analyze");
                        assert_eq!(map["ok"].as_bool(), Some(true));
                        assert_eq!(get_str(&map, "program"), spec);
                        assert_eq!(
                            get_str(&map, "output"),
                            expect,
                            "client {client_idx} round {round} {spec} {format}"
                        );
                    }
                }
            });
        }
    });
    // 3 warmup + 6 clients × 3 rounds × 3 formats = 57 analyze
    // responses over 3 distinct programs: after the warmup, every
    // hammered request must have come from the report cache (the
    // cache stores all three renderings per digest).
    let stats = server.state().stats();
    assert_eq!(stats.analyze_ok, 57);
    assert_eq!(stats.errors, 0);
    assert_eq!(
        stats.report_hits, 54,
        "every post-warmup request should hit the report cache"
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn repeat_request_reports_a_digest_hit() {
    let server = start(O2::default(), ServeOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let line = "{\"op\":\"analyze\",\"workload\":\"realbug:ZooKeeper\"}";
    let cold = client.request(line).unwrap();
    assert_eq!(cold["digest_hit"].as_bool(), Some(false));
    let warm = client.request(line).unwrap();
    assert_eq!(warm["digest_hit"].as_bool(), Some(true));
    assert_eq!(get_str(&cold, "output"), get_str(&warm, "output"));
    server.shutdown().unwrap();
}

#[test]
fn malformed_requests_answer_errors_and_the_connection_survives() {
    let server = start(O2::default(), ServeOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    for bad in [
        "not json at all",
        "{\"op\":\"analyze\"}",                       // missing target
        "{\"op\":\"frobnicate\"}",                    // unknown op
        "{\"op\":\"analyze\",\"workload\":\"nope\"}", // unknown workload
        "{\"op\":\"analyze\",\"workload\":{}}",       // nested value
        "{\"op\":\"analyze\",\"workload\":\"avrora\",\"edit\":99}", // edit cap
        "{\"op\":\"analyze\",\"workload\":\"avrora\",\"format\":\"yaml\"}",
    ] {
        let map = client.request(bad).unwrap_or_else(|e| panic!("{bad}: {e}"));
        assert_eq!(map["ok"].as_bool(), Some(false), "{bad}");
        assert!(map.contains_key("error"), "{bad}");
    }
    // The same connection still answers real work after all that.
    let ok = client.request("{\"op\":\"ping\"}").unwrap();
    assert_eq!(ok["ok"].as_bool(), Some(true));
    let stats = server.state().stats();
    assert_eq!(stats.errors, 7);
    server.shutdown().unwrap();
}

#[test]
fn oversized_lines_error_without_killing_the_connection() {
    let server = start(
        O2::default(),
        ServeOptions {
            max_line: 256,
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(server.addr()).unwrap();
    // One giant garbage line, well past the 256-byte cap.
    let huge = format!("{{\"op\":\"analyze\",\"source\":\"{}\"}}", "x".repeat(4096));
    let resp = client.send_line(&huge).unwrap();
    let map = parse_flat_json(&resp).unwrap();
    assert_eq!(map["ok"].as_bool(), Some(false));
    assert!(get_str(&map, "error").contains("exceeds"), "{resp}");
    // The connection survives and the next (small) request works.
    let ok = client.request("{\"op\":\"ping\"}").unwrap();
    assert_eq!(ok["ok"].as_bool(), Some(true));
    server.shutdown().unwrap();
}

#[test]
fn preseeded_server_starts_warm() {
    // Build an image the way `o2 batch --save-db` does, round-trip it
    // through bytes, and hand it to a fresh server via the `--load-db`
    // path. The first request for each saved program must be a digest
    // hit whose output is byte-identical to the solo rendering.
    let engine = O2::default();
    let specs = ["realbug:ZooKeeper", "realbug-c:Memcached", "avrora"];
    let entries: Vec<o2::BatchEntry> = specs
        .iter()
        .map(|spec| {
            let w = o2_workloads::workload_by_name(spec).unwrap();
            o2::BatchEntry {
                name: w.name,
                program: Ok(w.program),
            }
        })
        .collect();
    let (_, db) = o2::run_batch_with_db(&engine, &entries, 2);
    let image = o2_db::AnalysisDb::from_bytes(&db.to_bytes()).expect("image round-trips");

    let state = Arc::new(ServeState::new(engine));
    let seeded = state.preseed(&image).expect("compatible image");
    assert_eq!(seeded, specs.len());
    let server = spawn("127.0.0.1:0", state, ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for (spec, format) in specs.iter().zip(["text", "json", "sarif"]) {
        let map = client
            .request(&format!(
                "{{\"op\":\"analyze\",\"workload\":\"{spec}\",\"format\":\"{format}\"}}"
            ))
            .unwrap();
        assert_eq!(map["ok"].as_bool(), Some(true));
        assert_eq!(
            map["digest_hit"].as_bool(),
            Some(true),
            "{spec}: warm from the seed"
        );
        let w = o2_workloads::workload_by_name(spec).unwrap();
        let solo = solo_reports(server.state().engine(), &w.program);
        let expect = match format {
            "text" => &solo.text,
            "json" => &solo.json,
            _ => &solo.sarif,
        };
        assert_eq!(get_str(&map, "output"), expect, "{spec} {format}");
    }
    assert_eq!(server.state().stats().cold_requests, 0);
    server.shutdown().unwrap();
}

#[test]
fn preseed_rejects_an_image_from_another_configuration() {
    let naive = O2Builder::new()
        .detect_config(o2::prelude::DetectConfig::naive())
        .build();
    let image = o2_db::AnalysisDb::new(naive.config_sig());
    let state = ServeState::new(O2::default());
    assert!(state.preseed(&image).is_err());
}

#[test]
fn diff_analyze_over_the_wire_matches_solo_of_the_edit() {
    let server = start(O2::default(), ServeOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let map = client
        .request("{\"op\":\"diff-analyze\",\"workload\":\"realbug:ZooKeeper\",\"edit\":1}")
        .unwrap();
    assert_eq!(map["ok"].as_bool(), Some(true));
    assert_eq!(map["changed"].as_u64(), Some(1));
    assert_eq!(map["digest_hit"].as_bool(), Some(false), "the edit is new");
    let w = o2_workloads::workload_by_name("realbug:ZooKeeper").unwrap();
    let (edited, _) = o2_workloads::single_function_edit(&w.program);
    let solo = solo_reports(server.state().engine(), &edited);
    assert_eq!(get_str(&map, "output"), solo.text);
    server.shutdown().unwrap();
}

#[test]
fn stats_op_counts_requests_and_pool_state() {
    let server = start(O2::default(), ServeOptions::default());
    let mut client = Client::connect(server.addr()).unwrap();
    client
        .request("{\"op\":\"analyze\",\"workload\":\"realbug:ZooKeeper\"}")
        .unwrap();
    client
        .request("{\"op\":\"analyze\",\"workload\":\"realbug:ZooKeeper\"}")
        .unwrap();
    let stats = client.request("{\"op\":\"stats\"}").unwrap();
    assert_eq!(stats["ok"].as_bool(), Some(true));
    assert_eq!(stats["analyze_ok"].as_u64(), Some(2));
    assert_eq!(stats["report_hits"].as_u64(), Some(1));
    assert_eq!(stats["cold_requests"].as_u64(), Some(1));
    assert_eq!(stats["warm_requests"].as_u64(), Some(1));
    assert_eq!(stats["cached_reports"].as_u64(), Some(1));
    assert_eq!(stats["cached_programs"].as_u64(), Some(1));
    server.shutdown().unwrap();
}

#[test]
fn shutdown_op_stops_the_server() {
    let server = start(O2::default(), ServeOptions::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    let bye = client.request("{\"op\":\"shutdown\"}").unwrap();
    assert_eq!(bye["ok"].as_bool(), Some(true));
    server.shutdown().expect("join after protocol shutdown");
    // The listener is gone: either connections are refused outright or
    // the accept loop no longer answers.
    std::thread::sleep(std::time::Duration::from_millis(50));
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(
                c.request("{\"op\":\"ping\"}").is_err(),
                "server must be gone"
            );
        }
    }
}
