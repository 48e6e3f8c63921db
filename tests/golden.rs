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

/// `name: tiers <fnv>, suppressed <n>, pruned <n>`: an FNV-1a hash of
/// the sorted `(location, stmt a, stmt b, tier)` tuples of `races`, plus
/// the sizes of the suppressed and pruned lists. Unlike [`bytes_row`] it
/// ignores scores, notes and pass rows, so it pins which races survive
/// and in which tier.
fn tier_row(name: &str, tuples: &mut [String], suppressed: usize, pruned: usize) -> String {
    tuples.sort();
    format!(
        "{name}: tiers {:016x}, suppressed {suppressed}, pruned {pruned}",
        fnv1a(&tuples.join("\n"))
    )
}

/// The `(location, stmt a, stmt b, tier)` tuples of `pipeline`'s races,
/// each prefixed by `prefix`.
fn tier_tuples(prefix: &str, pipeline: &PipelineReport, program: &Program) -> Vec<String> {
    pipeline
        .races
        .iter()
        .map(|tr| {
            format!(
                "{prefix}{}\t{}\t{}\t{}",
                o2_detect::mem_key_label(program, tr.race.key),
                program.stmt_label(tr.race.a.stmt),
                program.stmt_label(tr.race.b.stmt),
                tr.tier
            )
        })
        .collect()
}

/// [`tier_row`] of every program of [`REPORT_BYTES_ROWS`], then of the
/// same batch corpus (its successful entries' tuples, each prefixed by
/// the entry name). These rows hold across changes to scoring that move
/// no race between tiers.
const TIER_ROWS: &[&str] = &[
    "avrora: tiers c3a4a7ae13e05622, suppressed 0, pruned 0",
    "batik: tiers 8e5a445ea573d54c, suppressed 0, pruned 0",
    "eclipse: tiers c3a4a7ae13e05622, suppressed 0, pruned 0",
    "h2: tiers 26f9a9c5f889f6dc, suppressed 0, pruned 0",
    "jython: tiers 1f1f69638a55c901, suppressed 0, pruned 0",
    "luindex: tiers 2706cef68a432125, suppressed 0, pruned 0",
    "lusearch: tiers 4516529b0a7715d7, suppressed 0, pruned 0",
    "pmd: tiers ec26712b253b1252, suppressed 0, pruned 0",
    "sunflow: tiers 72ea14db3a11dd69, suppressed 0, pruned 0",
    "tomcat: tiers 81a520b5619caca6, suppressed 0, pruned 0",
    "tradebeans: tiers 46f43bd5d42937d1, suppressed 0, pruned 0",
    "tradesoap: tiers 2e04dc034f3586bb, suppressed 0, pruned 0",
    "xalan: tiers ed7c71720d09d399, suppressed 0, pruned 0",
    "connectbot: tiers 81a520b5619caca6, suppressed 0, pruned 0",
    "sipdroid: tiers 0086a179c9c58e32, suppressed 0, pruned 0",
    "k9mail: tiers e063ad6998548631, suppressed 0, pruned 0",
    "tasks: tiers d8bfe092e157f283, suppressed 0, pruned 0",
    "fbreader: tiers 8067f317b9c680a4, suppressed 0, pruned 0",
    "vlc: tiers 8e5a445ea573d54c, suppressed 0, pruned 0",
    "firefox_focus: tiers 579dbc33f370e6c4, suppressed 0, pruned 0",
    "telegram: tiers 6a2a359ac991f5b2, suppressed 0, pruned 0",
    "zoom: tiers 0086a179c9c58e32, suppressed 0, pruned 0",
    "chrome: tiers 44fc508a7f6e6023, suppressed 0, pruned 0",
    "hbase: tiers 88b61ae94ab29918, suppressed 0, pruned 0",
    "hdfs: tiers eb070480da1503cc, suppressed 0, pruned 0",
    "yarn: tiers 28d4765394c6b529, suppressed 0, pruned 0",
    "zookeeper: tiers 1de655c254bcc77a, suppressed 0, pruned 0",
    "memcached: tiers 37a1bcbf454c0fb5, suppressed 0, pruned 0",
    "redis: tiers 231e50544bda02fe, suppressed 0, pruned 0",
    "sqlite3: tiers 46f43bd5d42937d1, suppressed 0, pruned 0",
    "Linux: tiers 6efb885abb665c63, suppressed 0, pruned 0",
    "TDengine: tiers 0e98657acd889012, suppressed 0, pruned 0",
    "Redis/RedisGraph: tiers 806129f70bebab43, suppressed 0, pruned 0",
    "OVS: tiers b873cb3dddcf0ead, suppressed 0, pruned 0",
    "cpqueue: tiers 1f8be722c43be7ef, suppressed 0, pruned 0",
    "mrlock: tiers 5ce160e689392faf, suppressed 0, pruned 0",
    "Memcached: tiers da0ec2474391bbae, suppressed 0, pruned 0",
    "Firefox: tiers 81f067b539289978, suppressed 0, pruned 0",
    "ZooKeeper: tiers 30e48d5f10c75dce, suppressed 0, pruned 0",
    "HBase: tiers 533d728cd329255a, suppressed 0, pruned 0",
    "Tomcat: tiers 67195fff7cc53fc1, suppressed 0, pruned 0",
    "OpenSSL-rwlock: tiers 93a59b4f4ca7ddbe, suppressed 0, pruned 0",
    "httpd-fdqueue: tiers 11bf0294ac143384, suppressed 0, pruned 0",
    "libuv-loop: tiers d28937355a96bb73, suppressed 0, pruned 0",
    "Linux (C): tiers acda54abe96ea50a, suppressed 0, pruned 0",
    "TDengine (C): tiers 1f4c2f36b23690b0, suppressed 0, pruned 0",
    "Redis/RedisGraph (C): tiers 7e09502679bb26a1, suppressed 0, pruned 0",
    "OVS (C): tiers cd53faf5b8b47f29, suppressed 0, pruned 0",
    "cpqueue (C): tiers ffa3ccc91e0496f1, suppressed 0, pruned 0",
    "mrlock (C): tiers 13a26b09cea67d14, suppressed 0, pruned 0",
    "Memcached (C): tiers 8a5506094df162df, suppressed 0, pruned 0",
    "OpenSSL-rwlock (C): tiers f4dfb0cc2db830a6, suppressed 0, pruned 0",
    "httpd-fdqueue (C): tiers 5cb70ba61dc3bfe5, suppressed 0, pruned 0",
    "mega-smoke: tiers c56379780162a744, suppressed 0, pruned 0",
    "mega-grid: tiers a6d3ee29e190a96c, suppressed 0, pruned 0",
    "mega-skew: tiers bd702b3e1eaf1a74, suppressed 0, pruned 0",
    "corpus: tiers 70a77dfc853dba91, suppressed 0, pruned 0",
];

/// [`bytes_row`] of the text, JSON and SARIF reports of every preset,
/// every Java and C real-bug and extended model and every mega preset
/// under `O2::default()`, then of one `run_batch` corpus (two models, a
/// preset and a failing entry).
const REPORT_BYTES_ROWS: &[&str] = &[
    "avrora: text 509 b6f7c052458bdbf4, json 966 ba29cbb1c7a59134, sarif 2193 c28ef0525b2d8876",
    "batik: text 893 c661f849b8db53ca, json 1808 6404f77683dd233c, sarif 4735 1849a3a8719e1dae",
    "eclipse: text 509 b6f7c052458bdbf4, json 966 ba29cbb1c7a59134, sarif 2193 c28ef0525b2d8876",
    "h2: text 1834 eabc2dd3e7155e97, json 3893 2520e1070199e89f, sarif 11045 e0f5b8bc20a6f94b",
    "jython: text 2206 84f15b82a029b92a, json 4723 57ef535ad207f4f5, sarif 13567 375a29b8001b69d6",
    "luindex: text 1446 e6d1c5dc268efccd, json 3047 856830370e01f1d3, sarif 8491 3137233a21c6c528",
    "lusearch: text 1075 f1c5fe82064b2d05, json 2219 839341f63a997f26, sarif 5984 fafa7570c7a82468",
    "pmd: text 1261 8b81cc2c08f2f29c, json 2633 e51bafc5818b9f31, sarif 7233 c63e41434a05fc92",
    "sunflow: text 1268 4ee87d09adacfd03, json 2640 6ad53f9c7879fdca, sarif 7254 239830f21bb7f437",
    "tomcat: text 893 c68f11ff8a6797ac, json 1808 1a6845751b68f71a, sarif 4735 24cd6119a188634a",
    "tradebeans: text 711 4b3cac50008c25a1, json 1397 6b1bb28ca9f1b5b6, sarif 3486 5d7e645d07665c34",
    "tradesoap: text 711 2b583a94b232077b, json 1397 593f90ea460dbc2e, sarif 3486 1f792f810e0dc53a",
    "xalan: text 526 24fab50fb2189ec7, json 983 31e3c56c76a7c1b7, sarif 2228 979a2a497dbdf9c3",
    "connectbot: text 1297 a0cb490629d1d0fd, json 2158 863a1095d3472e33, sarif 5079 e264f428f9ccdc21",
    "sipdroid: text 1622 74e85b305df2d6fd, json 2694 5dd37edb3e5e1f42, sarif 6457 219ce993c1a5d49d",
    "k9mail: text 1623 b1a8ec0b2b3903fe, json 2695 7288b6d7f6b0322d, sarif 6460 fa909f80adc3beae",
    "tasks: text 955 aefd511731705360, json 1605 9fd867ad51da3aed, sarif 3666 349c52a2e2906ac2",
    "fbreader: text 1301 9843c4641ec9e0e5, json 2162 8ebe5e4e157dcd01, sarif 5083 f960e16f5aa92dbd",
    "vlc: text 1289 4b5508e3b04d70d1, json 2150 e0bf7f875ba07615, sarif 5071 14b49062abf39279",
    "firefox_focus: text 1293 acc7b27fca4128c1, json 2154 0f79f7276c6561f7, sarif 5075 ad56dc7bfee79a75",
    "telegram: text 2296 463130f670be70b1, json 3789 9007afebcd1ad967, sarif 9254 248c88889bc7d5ab",
    "zoom: text 1622 74e85b305df2d6fd, json 2694 5dd37edb3e5e1f42, sarif 6457 219ce993c1a5d49d",
    "chrome: text 1623 588e722a73f12510, json 2695 7826e5300dbf0adf, sarif 6460 b5e722e9140d8e18",
    "hbase: text 3323 1dbaf5745aadd41e, json 7214 2b421c94898fe3ee, sarif 21136 09d27c1d0a2af7d1",
    "hdfs: text 4066 a5bc5b58af4698f0, json 8873 d73fcf2cddfdfdd3, sarif 26177 9305ad82cdcf6ba7",
    "yarn: text 4808 022ccb72d9fff13f, json 10531 178a5d9e9fe235d8, sarif 31215 4017493d30f6b156",
    "zookeeper: text 3513 49ed88e3bb0e7395, json 7633 d2147e2a943e5978, sarif 22409 fc97119d03ec0b28",
    "memcached: text 1856 2f09e9dc7799fdc6, json 3915 024cd87a9f80792e, sarif 11095 ae8d122a6c40fd04",
    "redis: text 1285 d3b102687343863a, json 2657 8bdb15f5eda83ed5, sarif 7289 00ecba3f18e0d272",
    "sqlite3: text 711 4b3cac50008c25a1, json 1397 6b1bb28ca9f1b5b6, sarif 3486 5d7e645d07665c34",
    "Linux: text 1094 cdaa3ca970999f17, json 1987 cf00452e91ed56d1, sarif 5185 0e147ca019e83d49",
    "TDengine: text 954 00abeac194ef910c, json 1836 f6c3d41d181e643d, sarif 4682 ea9a6c7647a639ec",
    "Redis/RedisGraph: text 900 593dec1c98711963, json 1673 55cb05434d69e37d, sarif 4212 a7eb463a51294c61",
    "OVS: text 617 9a33dc4a6eb59dbb, json 1194 bea977c50b5cbd7b, sarif 2889 0c698276a411a9c3",
    "cpqueue: text 922 903555d4604fec57, json 1957 51540bd1b151ce3d, sarif 5252 f62f08f913339f9a",
    "mrlock: text 747 81f0ddcb3af64439, json 1553 0c9f5cbaa8f3d856, sarif 4007 10f4acbbd14817a5",
    "Memcached: text 576 4b40c81b32df327d, json 1164 f914ad2d9c51428e, sarif 2855 578e061985258d0d",
    "Firefox: text 515 043863a295d1a01f, json 983 8da4de49c5cb1606, sarif 2278 3320d73feb4c8fff",
    "ZooKeeper: text 437 f688fc91742f9d7b, json 774 e07265183c4a1523, sarif 1588 e8be5aa14e260c73",
    "HBase: text 459 ca790ea46cfd11ee, json 796 0f958d6d9d3b53d2, sarif 1652 a0a9b52481194a43",
    "Tomcat: text 432 a211a28b7009a0e7, json 769 70888b993fba5e73, sarif 1574 893215e5fc730227",
    "OpenSSL-rwlock: text 428 5accc2f62a0010b4, json 765 1ac371e252e72190, sarif 1562 4e607b0470b9d403",
    "httpd-fdqueue: text 432 3a29cf7c2038be9e, json 769 933bc5b1854a5f0c, sarif 1572 55125a66350c0c58",
    "libuv-loop: text 393 69a8d4828ff0b027, json 741 79b6ca8514f0fcce, sarif 1534 54950bf5b4b934da",
    "Linux (C): text 1081 a2d36cdc0a65a6b2, json 1974 6ccf253b4b3d758e, sarif 5147 f6b402e5cdc4fb33",
    "TDengine (C): text 1044 09506028e850eac6, json 1926 ff5d1dc659220d23, sarif 4952 1b819de709f53d4a",
    "Redis/RedisGraph (C): text 900 d461b2ef7ea3e015, json 1673 3a588ba7a27e16e3, sarif 4212 a7768aa5079757d3",
    "OVS (C): text 657 9d7da89274248343, json 1234 948089268f2bda2d, sarif 2997 1dcc19fd9ae5e7d7",
    "cpqueue (C): text 935 a349c007e8f8cfff, json 1970 2a79710c1beb4f85, sarif 5291 9cd02c621c98b3de",
    "mrlock (C): text 764 1289a8114a339b56, json 1570 b82b06b012e446bd, sarif 4058 a3a5bb581fb25904",
    "Memcached (C): text 631 37bec0d2353b69a4, json 1219 4460785be7b315e9, sarif 3008 f3ad2204e4db8fec",
    "OpenSSL-rwlock (C): text 430 09db9200c080b804, json 767 6421bf7a6356fdec, sarif 1568 e4fd1f3bf37ffd6f",
    "httpd-fdqueue (C): text 436 cd6da20426e4c091, json 773 d2ab0662e7afcb19, sarif 1584 ad038ed1845ca87d",
    "mega-smoke: text 2771 c388112b77e13689, json 5776 e16799add96b01a4, sarif 16553 d97ef6f3d5551583",
    "mega-grid: text 10268 f9f5014c6e5903fe, json 21721 e5be5f0ffe4998ee, sarif 63979 fd9093074fa15581",
    "mega-skew: text 15298 e77184c506e18ef9, json 32428 ef1e6c053e483d01, sarif 95727 a4d87546fbd19197",
    "corpus: text 2124 2956b769b779bdc2, json 4090 1f8128f85a9f5986, sarif 8011 5feb836db913acd3",
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
    let mut tiers = Vec::new();
    let mut rows: Vec<String> = presets
        .chain(java)
        .chain(c)
        .chain(mega)
        .map(|(name, program)| {
            let pipeline = engine.analyze(&program).run_pipeline(&program);
            tiers.push(tier_row(
                &name,
                &mut tier_tuples("", &pipeline, &program),
                pipeline.suppressed.len(),
                pipeline.pruned.len(),
            ));
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
    let (mut tuples, mut suppressed, mut pruned) = (Vec::new(), 0, 0);
    for entry in &entries {
        let Ok(program) = &entry.program else {
            continue;
        };
        let pipeline = engine.analyze(program).run_pipeline(program);
        // The batch's own per-entry tier counts agree with the solo run.
        let outcome = run.programs.iter().find(|o| o.name == entry.name);
        assert_eq!(
            outcome.map(|o| o.tiers),
            Some((
                pipeline.tier_count(Tier::High),
                pipeline.tier_count(Tier::Medium),
                pipeline.tier_count(Tier::Low)
            )),
            "{}",
            entry.name
        );
        tuples.extend(tier_tuples(
            &format!("{}\t", entry.name),
            &pipeline,
            program,
        ));
        suppressed += pipeline.suppressed.len();
        pruned += pipeline.pruned.len();
    }
    tiers.push(tier_row("corpus", &mut tuples, suppressed, pruned));
    assert_eq!(tiers, TIER_ROWS);
    assert_eq!(rows, REPORT_BYTES_ROWS);
}
