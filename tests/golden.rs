//! Golden-file regression tests for the precision-pipeline reports.
//!
//! The triaged JSON and SARIF renderings of two §5.4 real-bug models
//! (`memcached`, `zookeeper`) are checked in under `tests/golden/` and
//! string-diffed here. Any change to triage scoring, pass order, or
//! serialization shows up as a readable diff in `cargo test`.
//!
//! To bless new goldens after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use o2::prelude::*;
use std::path::PathBuf;

fn golden_path(name: &str, ext: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.{ext}"))
}

/// Renders the pipeline report of one model as `(json, sarif)`.
fn render(model: &o2_workloads::realbugs::RealBugModel) -> (String, String) {
    let report = O2Builder::new().build().analyze(&model.program);
    let pipeline = report.run_pipeline(&model.program);
    (
        pipeline.to_json(&model.program),
        pipeline.to_sarif(&model.program),
    )
}

fn check(name: &str, ext: &str, actual: &str) {
    let path = golden_path(name, ext);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (run with UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    if expected != actual {
        // Point at the first differing line so the failure is readable
        // without an external diff tool.
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| {
                format!(
                    "first differing line {}:\n  golden: {}\n  actual: {}",
                    i + 1,
                    expected.lines().nth(i).unwrap_or(""),
                    actual.lines().nth(i).unwrap_or("")
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: golden {} vs actual {}",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!(
            "golden mismatch for {} ({mismatch})\nbless with UPDATE_GOLDEN=1 cargo test --test golden",
            path.display()
        );
    }
}

#[test]
fn memcached_pipeline_reports_match_goldens() {
    let m = o2_workloads::realbugs::memcached();
    let (json, sarif) = render(&m);
    check("memcached", "json", &json);
    check("memcached", "sarif", &sarif);
}

#[test]
fn zookeeper_pipeline_reports_match_goldens() {
    let m = o2_workloads::realbugs::zookeeper();
    let (json, sarif) = render(&m);
    check("zookeeper", "json", &json);
    check("zookeeper", "sarif", &sarif);
}

#[test]
fn openssl_rwlock_pipeline_reports_match_goldens() {
    let m = o2_workloads::realbugs::openssl_rwlock();
    let (json, sarif) = render(&m);
    check("openssl_rwlock", "json", &json);
    check("openssl_rwlock", "sarif", &sarif);
}

#[test]
fn libuv_loop_pipeline_reports_match_goldens() {
    let m = o2_workloads::realbugs::libuv_loop();
    let (json, sarif) = render(&m);
    check("libuv_loop", "json", &json);
    check("libuv_loop", "sarif", &sarif);
}

#[test]
fn goldens_are_byte_identical_across_thread_counts() {
    // Detection is serial, so scheduling never leaks into any rendering:
    // repeated runs reproduce the checked-in goldens byte for byte, and
    // the text report (no golden file) agrees across runs too.
    for (name, m) in [
        ("memcached", o2_workloads::realbugs::memcached()),
        ("zookeeper", o2_workloads::realbugs::zookeeper()),
    ] {
        let mut texts = Vec::new();
        for _ in 0..2 {
            let report = O2Builder::new().build().analyze(&m.program);
            let pipeline = report.run_pipeline(&m.program);
            check(name, "json", &pipeline.to_json(&m.program));
            check(name, "sarif", &pipeline.to_sarif(&m.program));
            texts.push(pipeline.render(&m.program));
        }
        assert_eq!(
            texts[0], texts[1],
            "{name}: text report differs between runs"
        );
    }
}

#[test]
fn corpus_sarif_matches_golden() {
    // The merged `o2 batch` SARIF document: one run (a single
    // `automationDetails.id`), results grouped by program in ascending
    // name order, every result tagged with `properties.program`. The
    // golden pins the exact bytes, so any drift in the corpus merge —
    // ordering, run identity, program tagging — shows up as a diff.
    let engine = O2Builder::new().build();
    let entries: Vec<o2::BatchEntry> = ["realbug:Memcached", "realbug:ZooKeeper", "avrora"]
        .iter()
        .map(|spec| {
            let w = o2_workloads::workload_by_name(spec).unwrap();
            o2::BatchEntry {
                name: w.name,
                program: Ok(w.program),
            }
        })
        .collect();
    let run = o2::run_batch(&engine, &entries, 2);
    check("corpus", "sarif", &run.sarif);
    // The same entries through a second batch with different worker
    // count must reproduce the golden too.
    let run1 = o2::run_batch(&engine, &entries, 1);
    check("corpus", "sarif", &run1.sarif);
}

#[test]
fn goldens_put_every_race_in_the_high_tier() {
    // The goldens must never silently capture a recall regression: every
    // Table 10 model's triaged report, Java and C frontend, carries
    // exactly the paper's confirmed races, none pruned or suppressed, all
    // in the high tier.
    let java = o2_workloads::realbugs::all_models();
    let c = o2_workloads::all_c_models();
    for (family, models, total) in [("java", &java, 40), ("c", &c, 35)] {
        let mut races = 0;
        for m in models.iter() {
            let report = O2Builder::new().build().analyze(&m.program);
            let pipeline = report.run_pipeline(&m.program);
            assert_eq!(pipeline.races.len(), m.expected_races, "{}", m.name);
            assert!(
                pipeline.pruned.is_empty() && pipeline.suppressed.is_empty(),
                "{family} {}: triage removed a confirmed race",
                m.name
            );
            assert!(
                pipeline.races.iter().all(|tr| tr.tier == Tier::High),
                "{family} {}: every confirmed race is high-confidence",
                m.name
            );
            races += pipeline.races.len();
        }
        assert_eq!(races, total, "{family} models");
    }
    assert_eq!((java.len(), c.len()), (11, 7));
}

/// 64-bit FNV-1a of `s`: a short, stable fingerprint of a report's
/// bytes.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `name: text <len> <fnv>, json <len> <fnv>, sarif <len> <fnv>`.
fn bytes_row(name: &str, text: &str, json: &str, sarif: &str) -> String {
    let pin = |s: &str| format!("{} {:016x}", s.len(), fnv1a(s));
    format!(
        "{name}: text {}, json {}, sarif {}",
        pin(text),
        pin(json),
        pin(sarif)
    )
}

/// [`bytes_row`] of the text, JSON and SARIF reports of every preset,
/// every Java and C real-bug and extended model and every mega preset
/// under `O2::default()`, then of one `run_batch` corpus (two models, a
/// preset and a failing entry).
const REPORT_BYTES_ROWS: &[&str] = &[
    "avrora: text 689 696e1e322745b71b, json 1155 c7b473a107ca3e82, sarif 2293 79627a7b6dcf8c7c",
    "batik: text 1317 af011f3c55e60a67, json 2201 f77049d796bfa2c0, sarif 5035 9d5386677a09fb1a",
    "eclipse: text 689 1e4fdc801e962661, json 1155 34d3048a67902054, sarif 2293 79627a7b6dcf8c7c",
    "h2: text 2869 265533bdada4e681, json 4797 c3dc5c5e7b248446, sarif 11845 bce45de01ad0e72b",
    "jython: text 3485 244cf13df2041565, json 5831 3a979e0066fbc38b, sarif 14567 b7634217c9cdcc50",
    "luindex: text 2237 85f9f5a142e23c16, json 3747 0e652eec977a9067, sarif 9091 25fc83d626124aaa",
    "lusearch: text 1621 f1d243c849206d98, json 2714 a76432c1f192e72e, sarif 6384 310f502d06a3d698",
    "pmd: text 1930 461003a8a87e4860, json 3231 a57d570c848075e8, sarif 7733 76f61d56f73e819c",
    "sunflow: text 1937 2ad2242fe929c6e3, json 3238 0d675df34398adc5, sarif 7754 52b7df545fc8055f",
    "tomcat: text 1317 f960a21f055cdaef, json 2201 3917d5d366805980, sarif 5035 34dedc038c1ad536",
    "tradebeans: text 1013 24ab37a7633e2ac4, json 1688 34bfb1f0f9610e12, sarif 3686 21046554ba2a77d6",
    "tradesoap: text 1013 33a64cb8cdafcdb6, json 1688 1601f7a65b2dc826, sarif 3686 07f5e3cae13aaad4",
    "xalan: text 706 61551bf0b958d26a, json 1172 a4997bdfea9ba8af, sarif 2328 c59c384ead4ad5d7",
    "connectbot: text 1721 a1574b7026703197, json 2557 be509d7bb0253070, sarif 5379 66dc5eb380a47e75",
    "sipdroid: text 2168 ee997bac8e0896a8, json 3197 2bab550462f21cb8, sarif 6857 ee1f387b3a193f27",
    "k9mail: text 2169 a954675d1966c3a8, json 3198 b22bc5139bb071d6, sarif 6860 4f6c09d8281444f4",
    "tasks: text 1257 b2094c08148580f1, json 1900 6cf9df2c11964987, sarif 3866 8a337db26421f282",
    "fbreader: text 1726 d58bfc44c0650ded, json 2562 22a453477928ce24, sarif 5383 9571ec53ffe257bb",
    "vlc: text 1713 5b1a3cd6caba9296, json 2549 77a835815180af0b, sarif 5371 aea348357f379cf3",
    "firefox_focus: text 1718 a3a98244d1d04590, json 2554 ac05e55d10282e0b, sarif 5375 e002ccaa6f8ef227",
    "telegram: text 3088 a1a16c69a5a419e5, json 4502 5d585bb35aec8fae, sarif 9854 c5f6a3eaebac1757",
    "zoom: text 2169 3ecae16c136be3ec, json 3198 96f923ee9aecc94a, sarif 6857 ee1f387b3a193f27",
    "chrome: text 2170 0f044e77f440ada9, json 3199 9e2de056cafa283f, sarif 6860 f4a959db41f0547a",
    "hbase: text 5335 33e1f570a2cd7bfe, json 8935 2316008eb24ebaa1, sarif 22736 e2cfe459b9b4cbdd",
    "hdfs: text 6565 de389b4a19a9bc3d, json 11001 8d23026d94f9229f, sarif 28177 32d6278487ff305b",
    "yarn: text 7795 3575391e2c23c240, json 13067 561643b7f9b39ade, sarif 33615 0ad4a362b8271c16",
    "zookeeper: text 5646 1e44c0b875da790c, json 9455 c5b39c09e562ee30, sarif 24109 1d266c6503fe255a",
    "memcached: text 2890 b63beab2510dce69, json 4818 93294a397e664286, sarif 11895 1e233c51b0b9ebd8",
    "redis: text 1954 5f99403db39c1bbe, json 3255 7bbf67328d5e77fa, sarif 7789 a374ec172790f3b4",
    "sqlite3: text 1014 51ff0da9e5877b85, json 1689 46a88e0e320583f5, sarif 3686 21046554ba2a77d6",
    "Linux: text 1271 87eac4a1188ebefc, json 2173 df86e6dbabb51d11, sarif 5285 9b4d7a2e286c9145",
    "TDengine: text 1009 d6002135de6058ae, json 1920 e5f7df189a4dece6, sarif 4682 f5aec3a1d1cce2fc",
    "Redis/RedisGraph: text 955 83808b0f8b94f5db, json 1757 592ecc33ca656250, sarif 4212 5323b99354deead4",
    "OVS: text 855 e4fbdffc75f3b416, json 1430 3bceb3fd104530cc, sarif 3039 29268ce6506630a8",
    "cpqueue: text 1405 18abf5b1b563d7dc, json 2398 461f66f026b3a666, sarif 5602 b5c585f2fa5e1d4b",
    "mrlock: text 1108 3df57b8c7715d78c, json 1892 4397bea71275538f, sarif 4257 658d73e87e44b452",
    "Memcached: text 814 ae00849fc003b5c4, json 1398 70b611f7194c4ced, sarif 3005 ec0a6bb8d8b7e91c",
    "Firefox: text 694 ae0a3c3314367f6c, json 1169 1c63c2263a854d9e, sarif 2380 1cbc966ff5ae8299",
    "ZooKeeper: text 553 22c470289206fcfd, json 910 7e4afb6c78b7dfe1, sarif 1638 7c56b022a39aa3ca",
    "HBase: text 514 c5f578ae4c4daff3, json 880 401bc5ba1bcf38f2, sarif 1652 dcb96e214cc4c116",
    "Tomcat: text 487 ee2f07f9840f8022, json 853 2f849c60fdbec5a7, sarif 1574 9ab0f85a43604bba",
    "OpenSSL-rwlock: text 483 f084d3da5da2f4ab, json 849 f9be42060cbf8b6c, sarif 1562 26e252c76c3a68d6",
    "httpd-fdqueue: text 549 f682f06ab56a5a88, json 906 bb74fba0fc3dd77c, sarif 1622 4946c7227b90f7e3",
    "libuv-loop: text 509 1a6ce2118ef6e691, json 875 a8b20567f7880924, sarif 1584 630d3774a9f594d9",
    "Linux (C): text 1258 8eb7854bbdd97725, json 2160 7d907780cb7f9bfc, sarif 5247 faec8de1e07d8f75",
    "TDengine (C): text 1099 3e3034cabe8438ff, json 2010 583a2addef5187e7, sarif 4952 199d371b4b97717e",
    "Redis/RedisGraph (C): text 955 7a8edd93d4708135, json 1757 08936f1e95c366b2, sarif 4212 953b50e88e36b94a",
    "OVS (C): text 895 b67582c6329372ac, json 1470 6f5dcb3aa7d4045c, sarif 3147 5044385e77faa1fa",
    "cpqueue (C): text 1417 5f13a5e7b1446fcc, json 2410 3dff832181b152ee, sarif 5641 9d071bb913c52fe7",
    "mrlock (C): text 1124 76e7c79a4dd81391, json 1908 4df2949dfad8df2a, sarif 4308 645b7999625c580f",
    "Memcached (C): text 869 36b447728ae45d6f, json 1453 e04ac92a79d6dd6c, sarif 3158 0fd8984919adbdc9",
    "OpenSSL-rwlock (C): text 485 3aa2c1f02c78eea0, json 851 26ca031f96da6593, sarif 1568 1869a74233778062",
    "httpd-fdqueue (C): text 552 eeaaeb91b02e293f, json 909 9b71bff3466a702b, sarif 1634 5e55158bf696603e",
    "mega-smoke: text 4292 9f6e22f8ddac45db, json 7086 7ba0cd7608fd5f77, sarif 17753 e45543a9cd79d2c5",
    "mega-grid: text 16181 9181c34c12300e14, json 26703 46b8459483a1669f, sarif 68779 76ec5dcbc8f4ea19",
    "mega-skew: text 24140 17f5dd8a381d8362, json 39859 1613de25046eb313, sarif 102927 08de7fce0a3efd49",
    "corpus: text 2597 4f3a1a4798f74e44, json 4597 9d30d51196b31672, sarif 8261 945dd49724e269e5",
];

#[test]
fn every_report_byte_is_pinned_on_every_program_and_a_corpus() {
    let presets = o2_workloads::all_presets()
        .into_iter()
        .map(|p| (p.name.to_string(), p.generate().program));
    let java = o2_workloads::all_models()
        .into_iter()
        .chain(o2_workloads::extended_models())
        .map(|m| (m.name.to_string(), m.program));
    let c = o2_workloads::all_c_models()
        .into_iter()
        .chain(o2_workloads::extended_c_models())
        .map(|m| (format!("{} (C)", m.name), m.program));
    let mega = o2_workloads::mega_presets()
        .into_iter()
        .map(|m| (m.name.to_string(), m.generate().program));
    let engine = O2::default();
    let mut rows: Vec<String> = presets
        .chain(java)
        .chain(c)
        .chain(mega)
        .map(|(name, program)| {
            let pipeline = engine.analyze(&program).run_pipeline(&program);
            bytes_row(
                &name,
                &pipeline.render(&program),
                &pipeline.to_json(&program),
                &pipeline.to_sarif(&program),
            )
        })
        .collect();
    let mut entries: Vec<o2::BatchEntry> =
        ["realbug:Memcached", "realbug-c:Redis/RedisGraph", "avrora"]
            .iter()
            .map(|spec| {
                let w = o2_workloads::workload_by_name(spec).unwrap();
                o2::BatchEntry {
                    name: w.name,
                    program: Ok(w.program),
                }
            })
            .collect();
    entries.push(o2::BatchEntry {
        name: "broken".to_string(),
        program: Err(o2_ir::parser::parse("class {")
            .map(|_| ())
            .unwrap_err()
            .into()),
    });
    let run = o2::run_batch(&engine, &entries, 2);
    rows.push(bytes_row("corpus", &run.text, &run.json, &run.sarif));
    assert_eq!(rows, REPORT_BYTES_ROWS);
}
