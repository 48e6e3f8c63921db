//! Exact precision and pruning rows. Each row is a deterministic count
//! of one preset's analysis; a change to any of them changes what the
//! analysis computes, so it must come with an explanation, never a
//! silent re-pin.
//!
//! - The triage pipeline's per-pass effect on four presets, under the
//!   origin policy and under the 0-ctx policy that keeps the bait false
//!   positives in.
//! - The detect pre-loop prune taxonomy on every preset and mega preset:
//!   the raw access pairs, partitioned into the three pruning stages and
//!   the candidates that reach the pair loop.
//! - Table 7's shared-access counts on the DaCapo presets: OSA's and the
//!   thread-escape baseline's.
//! - The deadlock cycles (locks, origins, statements) on every preset,
//!   real-bug model and mega preset, and three lock-order programs.

use o2::prelude::*;
use o2_passes::Tier;

/// `(preset, policy)` rows: detector output, tiers after triage, and
/// every pass's counters in pass order.
const TRIAGE_ROWS: &[&str] = &[
    "avrora O2: detected 2, high 2, medium 0, low 0, pruned 0, suppressed 0; \
     suppression suppressed=0 kept=2; \
     ownership owned_pruned=0 prepub_pruned=0 kept=2; \
     guarded-by locations_inferred=0 demoted=0 promoted=0; \
     deadlock cycles=0 lock_order_edges=0; \
     oversync warnings=0 useful_sites=2",
    "avrora 0-ctx: detected 120, high 18, medium 0, low 0, pruned 102, suppressed 0; \
     suppression suppressed=0 kept=120; \
     ownership owned_pruned=102 prepub_pruned=0 kept=18; \
     guarded-by locations_inferred=0 demoted=0 promoted=0; \
     deadlock cycles=0 lock_order_edges=0; \
     oversync warnings=0 useful_sites=2",
    "lusearch O2: detected 8, high 8, medium 0, low 0, pruned 0, suppressed 0; \
     suppression suppressed=0 kept=8; \
     ownership owned_pruned=0 prepub_pruned=0 kept=8; \
     guarded-by locations_inferred=0 demoted=0 promoted=0; \
     deadlock cycles=0 lock_order_edges=0; \
     oversync warnings=0 useful_sites=2",
    "lusearch 0-ctx: detected 66, high 20, medium 0, low 0, pruned 46, suppressed 0; \
     suppression suppressed=0 kept=66; \
     ownership owned_pruned=46 prepub_pruned=0 kept=20; \
     guarded-by locations_inferred=0 demoted=0 promoted=0; \
     deadlock cycles=0 lock_order_edges=0; \
     oversync warnings=0 useful_sites=2",
    "zookeeper O2: detected 34, high 34, medium 0, low 0, pruned 0, suppressed 0; \
     suppression suppressed=0 kept=34; \
     ownership owned_pruned=0 prepub_pruned=0 kept=34; \
     guarded-by locations_inferred=0 demoted=0 promoted=0; \
     deadlock cycles=0 lock_order_edges=1; \
     oversync warnings=0 useful_sites=4",
    "zookeeper 0-ctx: detected 218, high 42, medium 0, low 0, pruned 176, suppressed 0; \
     suppression suppressed=0 kept=218; \
     ownership owned_pruned=176 prepub_pruned=0 kept=42; \
     guarded-by locations_inferred=0 demoted=0 promoted=0; \
     deadlock cycles=0 lock_order_edges=1; \
     oversync warnings=0 useful_sites=4",
    "memcached O2: detected 16, high 16, medium 0, low 0, pruned 0, suppressed 0; \
     suppression suppressed=0 kept=16; \
     ownership owned_pruned=0 prepub_pruned=0 kept=16; \
     guarded-by locations_inferred=0 demoted=0 promoted=0; \
     deadlock cycles=0 lock_order_edges=1; \
     oversync warnings=0 useful_sites=2",
    "memcached 0-ctx: detected 92, high 28, medium 0, low 0, pruned 64, suppressed 0; \
     suppression suppressed=0 kept=92; \
     ownership owned_pruned=64 prepub_pruned=0 kept=28; \
     guarded-by locations_inferred=0 demoted=0 promoted=0; \
     deadlock cycles=0 lock_order_edges=1; \
     oversync warnings=0 useful_sites=2",
];

fn triage_row(name: &str, policy: Policy) -> String {
    let w = o2_workloads::preset_by_name(name)
        .expect("preset exists")
        .generate();
    let report = O2Builder::new().policy(policy).build().analyze(&w.program);
    let p = report.run_pipeline(&w.program);
    let tier = |t: Tier| p.races.iter().filter(|r| r.tier == t).count();
    let mut row = format!(
        "{name} {policy}: detected {}, high {}, medium {}, low {}, pruned {}, suppressed {};",
        report.num_races(),
        tier(Tier::High),
        tier(Tier::Medium),
        tier(Tier::Low),
        p.pruned.len(),
        p.suppressed.len()
    );
    let passes: Vec<String> = p
        .passes
        .iter()
        .map(|pass| {
            let stats: Vec<String> = pass.stats.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{} {}", pass.name, stats.join(" "))
        })
        .collect();
    row.push(' ');
    row.push_str(&passes.join("; "));
    row
}

#[test]
fn triage_pass_counts_are_pinned() {
    let mut rows = Vec::new();
    for name in ["avrora", "lusearch", "zookeeper", "memcached"] {
        for policy in [Policy::origin1(), Policy::insensitive()] {
            rows.push(triage_row(name, policy));
        }
    }
    assert_eq!(rows, TRIAGE_ROWS);
}

/// Per workload: origins, indexed locations, and the raw access pairs
/// split into the pairs each pre-loop stage removes and the candidates.
const PRUNE_ROWS: &[&str] = &[
    "avrora: origins 4, locations 234, \
     pairs 21101 = read-only 0 + single-origin 20582 \
     + common-guard 30 + candidates 489; races 2",
    "batik: origins 4, locations 235, \
     pairs 120541 = read-only 0 + single-origin 120226 \
     + common-guard 30 + candidates 285; races 6",
    "eclipse: origins 4, locations 226, \
     pairs 10257 = read-only 0 + single-origin 9738 \
     + common-guard 30 + candidates 489; races 2",
    "h2: origins 3, locations 304, \
     pairs 120400 = read-only 0 + single-origin 120291 \
     + common-guard 18 + candidates 91; races 16",
    "jython: origins 4, locations 365, \
     pairs 21183 = read-only 0 + single-origin 20934 \
     + common-guard 45 + candidates 204; races 20",
    "luindex: origins 3, locations 165, \
     pairs 20806 = read-only 0 + single-origin 20741 \
     + common-guard 12 + candidates 53; races 12",
    "lusearch: origins 3, locations 139, \
     pairs 119271 = read-only 0 + single-origin 119225 \
     + common-guard 12 + candidates 34; races 8",
    "pmd: origins 3, locations 99, \
     pairs 9890 = read-only 0 + single-origin 9841 \
     + common-guard 12 + candidates 37; races 10",
    "sunflow: origins 9, locations 381, \
     pairs 10876 = read-only 0 + single-origin 9873 \
     + common-guard 112 + candidates 891; races 10",
    "tomcat: origins 6, locations 244, \
     pairs 119998 = read-only 0 + single-origin 119801 \
     + common-guard 42 + candidates 155; races 6",
    "tradebeans: origins 3, locations 97, \
     pairs 9875 = read-only 0 + single-origin 9841 \
     + common-guard 12 + candidates 22; races 4",
    "tradesoap: origins 3, locations 99, \
     pairs 9884 = read-only 0 + single-origin 9843 \
     + common-guard 12 + candidates 29; races 4",
    "xalan: origins 3, locations 150, \
     pairs 119940 = read-only 0 + single-origin 119915 \
     + common-guard 12 + candidates 13; races 2",
    "connectbot: origins 11, locations 376, \
     pairs 121132 = read-only 0 + single-origin 120349 \
     + common-guard 180 + candidates 603; races 6",
    "sipdroid: origins 15, locations 606, \
     pairs 122791 = read-only 0 + single-origin 120569 \
     + common-guard 364 + candidates 1858; races 8",
    "k9mail: origins 23, locations 841, \
     pairs 125497 = read-only 0 + single-origin 120783 \
     + common-guard 604 + candidates 4110; races 8",
    "tasks: origins 7, locations 252, \
     pairs 151647 = read-only 0 + single-origin 151434 \
     + common-guard 60 + candidates 153; races 4",
    "fbreader: origins 15, locations 512, \
     pairs 278470 = read-only 0 + single-origin 276927 \
     + common-guard 364 + candidates 1179; races 6",
    "vlc: origins 4, locations 238, \
     pairs 120334 = read-only 0 + single-origin 120229 \
     + common-guard 30 + candidates 75; races 6",
    "firefox_focus: origins 8, locations 309, \
     pairs 277123 = read-only 0 + single-origin 276738 \
     + common-guard 86 + candidates 299; races 6",
    "telegram: origins 134, locations 4250, \
     pairs 553934 = read-only 0 + single-origin 280406 \
     + common-guard 26139 + candidates 247389; races 12",
    "zoom: origins 15, locations 724, \
     pairs 278862 = read-only 0 + single-origin 277137 \
     + common-guard 364 + candidates 1361; races 8",
    "chrome: origins 34, locations 1169, \
     pairs 288188 = read-only 0 + single-origin 277539 \
     + common-guard 1394 + candidates 9255; races 8",
    "hbase: origins 16, locations 2691, \
     pairs 284654 = read-only 0 + single-origin 279039 \
     + common-guard 412 + candidates 5203; races 32",
    "hdfs: origins 12, locations 2081, \
     pairs 125879 = read-only 0 + single-origin 121971 \
     + common-guard 220 + candidates 3688; races 40",
    "yarn: origins 14, locations 2690, \
     pairs 28362 = read-only 0 + single-origin 23120 \
     + common-guard 228 + candidates 5014; races 48",
    "zookeeper: origins 40, locations 3831, \
     pairs 58447 = read-only 0 + single-origin 24225 \
     + common-guard 1900 + candidates 32322; races 34",
    "memcached: origins 12, locations 481, \
     pairs 5643 = read-only 0 + single-origin 4425 \
     + common-guard 142 + candidates 1076; races 16",
    "redis: origins 15, locations 1037, \
     pairs 72399 = read-only 0 + single-origin 71180 \
     + common-guard 172 + candidates 1047; races 10",
    "sqlite3: origins 3, locations 899, \
     pairs 276319 = read-only 0 + single-origin 276291 \
     + common-guard 12 + candidates 16; races 4",
    "mega-smoke: origins 97, locations 25, \
     pairs 38889 = read-only 695 + single-origin 0 \
     + common-guard 31258 + candidates 6936; races 24",
    "mega-grid: origins 1025, locations 88, \
     pairs 4189779 = read-only 22486 + single-origin 0 \
     + common-guard 3576161 + candidates 591132; races 96",
    "mega-skew: origins 1281, locations 130, \
     pairs 7357569 = read-only 27305 + single-origin 0 \
     + common-guard 6431188 + candidates 899076; races 144",
];

#[test]
fn prune_taxonomy_is_pinned_on_every_preset_and_mega_preset() {
    let presets = o2_workloads::all_presets();
    let mega = o2_workloads::mega_presets();
    let names = presets
        .iter()
        .map(|p| p.name)
        .chain(mega.iter().map(|m| m.name));
    let rows: Vec<String> = names
        .map(|name| {
            let w = o2_workloads::workload_by_name(name).expect("workload resolves");
            let report = O2Builder::new().build().analyze(&w.program);
            let s = report.races.prune;
            format!(
                "{name}: origins {}, locations {}, \
                 pairs {} = read-only {} + single-origin {} \
                 + common-guard {} + candidates {}; races {}",
                report.num_origins(),
                s.locations,
                s.pre_prune_pairs,
                s.read_only_pairs,
                s.single_origin_pairs,
                s.common_guard_pairs,
                s.candidate_pairs,
                report.num_races()
            )
        })
        .collect();
    assert_eq!(rows, PRUNE_ROWS);
}

/// Table 7's count columns on the DaCapo presets (equal to
/// `results/reproduce_all.txt`).
const TABLE7_ROWS: &[&str] = &[
    "avrora: osa #S-access 52, escape #S-access 68",
    "batik: osa #S-access 47, escape #S-access 63",
    "eclipse: osa #S-access 52, escape #S-access 68",
    "h2: osa #S-access 42, escape #S-access 58",
    "jython: osa #S-access 51, escape #S-access 63",
    "luindex: osa #S-access 32, escape #S-access 40",
    "lusearch: osa #S-access 26, escape #S-access 38",
    "pmd: osa #S-access 25, escape #S-access 33",
    "sunflow: osa #S-access 82, escape #S-access 94",
    "tomcat: osa #S-access 44, escape #S-access 52",
    "tradebeans: osa #S-access 22, escape #S-access 34",
    "tradesoap: osa #S-access 24, escape #S-access 32",
    "xalan: osa #S-access 17, escape #S-access 25",
];

/// Table 7's count columns on the DaCapo presets: OSA's `#S-access` on
/// the origin-sensitive pointer analysis, and the escape baseline's on
/// 1-CFA, as `reproduce --table 7` computes them.
fn table7_row(preset: &o2_workloads::Preset) -> String {
    let w = preset.generate();
    let ctx = o2_ir::ProgramCtx::solo(&w.program);
    let analyze = |policy| o2_pta::analyze(&ctx, &PtaConfig::with_policy(policy));
    let pta = analyze(Policy::origin1());
    let osa = o2_analysis::run_osa(&ctx, &pta);
    let pta_cfa = analyze(Policy::cfa1());
    let esc = o2_analysis::run_escape(&w.program, &pta_cfa);
    format!(
        "{}: osa #S-access {}, escape #S-access {}",
        preset.name,
        osa.num_shared_accesses(),
        esc.num_shared_accesses(&w.program, &pta_cfa)
    )
}

#[test]
fn table7_shared_access_counts_are_pinned() {
    let rows: Vec<String> = o2_workloads::all_presets()
        .iter()
        .filter(|p| p.group == o2_workloads::presets::Group::DaCapo)
        .map(table7_row)
        .collect();
    assert_eq!(rows, TABLE7_ROWS);
}

/// Every field of [`o2_pta::PtaStats`] under the default `PtaConfig`:
/// pointers, objects, edges, origins, method instances, solver steps and
/// propagated objects. Edge dedup, the fixpoint and the worklist's firing
/// traffic all show in these numbers.
const PTA_STATS_ROWS: &[&str] = &[
    "avrora: \
     pointers 785, objects 241, edges 2100, origins 4, mis 242, steps 3437, propagated 2701",
    "batik: \
     pointers 771, objects 242, edges 5112, origins 4, mis 230, steps 8723, propagated 7038",
    "eclipse: \
     pointers 761, objects 233, edges 1534, origins 4, mis 234, steps 2485, propagated 1907",
    "h2: \
     pointers 812, objects 309, edges 5171, origins 3, mis 151, steps 8826, propagated 7089",
    "jython: \
     pointers 933, objects 367, edges 2315, origins 4, mis 130, steps 3843, propagated 2987",
    "luindex: \
     pointers 480, objects 177, edges 1841, origins 3, mis 101, steps 3110, propagated 2451",
    "lusearch: \
     pointers 408, objects 139, edges 4677, origins 3, mis 103, steps 8020, propagated 6534",
    "pmd: \
     pointers 312, objects 112, edges 1134, origins 3, mis 70, steps 1953, propagated 1514",
    "sunflow: \
     pointers 1162, objects 367, edges 1981, origins 9, mis 267, steps 3260, propagated 2536",
    "tomcat: \
     pointers 728, objects 246, edges 5047, origins 6, mis 165, steps 8627, propagated 6974",
    "tradebeans: \
     pointers 318, objects 111, edges 1133, origins 3, mis 79, steps 1948, propagated 1507",
    "tradesoap: \
     pointers 332, objects 115, edges 1143, origins 3, mis 85, steps 1964, propagated 1517",
    "xalan: \
     pointers 445, objects 165, edges 4774, origins 3, mis 104, steps 8234, propagated 6665",
    "connectbot: \
     pointers 1195, objects 372, edges 5565, origins 11, mis 289, steps 9539, propagated 7711",
    "sipdroid: \
     pointers 1827, objects 578, edges 6223, origins 15, mis 397, steps 10785, propagated 8721",
    "k9mail: \
     pointers 2650, objects 785, edges 7077, origins 23, mis 639, steps 12446, propagated 10135",
    "tasks: \
     pointers 788, objects 257, edges 5871, origins 7, mis 190, steps 10046, propagated 8130",
    "fbreader: \
     pointers 1621, objects 500, edges 9275, origins 15, mis 389, steps 16049, propagated 13099",
    "vlc: \
     pointers 677, objects 251, edges 5027, origins 4, mis 137, steps 8632, propagated 6953",
    "firefox_focus: \
     pointers 979, objects 311, edges 8612, origins 8, mis 249, steps 14765, propagated 12032",
    "telegram: \
     pointers 14690, objects 3848, edges 23098, origins 134, mis 3700, steps 98586, propagated 91546",
    "zoom: \
     pointers 2055, objects 710, edges 9723, origins 15, mis 389, steps 16791, propagated 13631",
    "chrome: \
     pointers 3663, objects 1080, edges 11406, origins 34, mis 835, steps 21067, propagated 17428",
    "hbase: \
     pointers 6445, objects 2614, edges 14281, origins 16, mis 665, steps 23912, propagated 18799",
    "hdfs: \
     pointers 4964, objects 1974, edges 9523, origins 12, mis 540, steps 15601, propagated 12123",
    "yarn: \
     pointers 6293, objects 2521, edges 7963, origins 14, mis 620, steps 12540, propagated 9441",
    "zookeeper: \
     pointers 10278, objects 3666, edges 12246, origins 40, mis 1465, steps 24359, propagated 19946",
    "memcached: \
     pointers 1263, objects 455, edges 1783, origins 12, mis 166, steps 3105, propagated 2500",
    "redis: \
     pointers 2516, objects 1036, edges 5544, origins 15, mis 273, steps 9356, propagated 7369",
    "sqlite3: \
     pointers 1933, objects 898, edges 9454, origins 3, mis 114, steps 15884, propagated 12702",
    "Linux: \
     pointers 13, objects 4, edges 21, origins 7, mis 7, steps 20, propagated 21",
    "TDengine: \
     pointers 11, objects 3, edges 18, origins 3, mis 5, steps 19, propagated 18",
    "Redis/RedisGraph: \
     pointers 5, objects 1, edges 14, origins 5, mis 5, steps 10, propagated 14",
    "OVS: \
     pointers 8, objects 3, edges 7, origins 3, mis 3, steps 11, propagated 7",
    "cpqueue: \
     pointers 17, objects 3, edges 22, origins 3, mis 7, steps 26, propagated 22",
    "mrlock: \
     pointers 17, objects 4, edges 19, origins 3, mis 5, steps 25, propagated 19",
    "Memcached: \
     pointers 19, objects 5, edges 16, origins 3, mis 5, steps 25, propagated 16",
    "Firefox: \
     pointers 8, objects 3, edges 4, origins 3, mis 3, steps 9, propagated 4",
    "ZooKeeper: \
     pointers 11, objects 3, edges 8, origins 3, mis 5, steps 14, propagated 8",
    "HBase: \
     pointers 13, objects 3, edges 10, origins 3, mis 7, steps 16, propagated 10",
    "Tomcat: \
     pointers 11, objects 3, edges 8, origins 3, mis 5, steps 14, propagated 8",
    "OpenSSL-rwlock: \
     pointers 18, objects 4, edges 15, origins 4, mis 7, steps 23, propagated 15",
    "httpd-fdqueue: \
     pointers 23, objects 5, edges 24, origins 3, mis 5, steps 32, propagated 24",
    "libuv-loop: \
     pointers 5, objects 1, edges 7, origins 4, mis 4, steps 7, propagated 7",
    "Linux (C): \
     pointers 13, objects 4, edges 21, origins 7, mis 7, steps 20, propagated 21",
    "TDengine (C): \
     pointers 5, objects 3, edges 14, origins 3, mis 3, steps 11, propagated 14",
    "Redis/RedisGraph (C): \
     pointers 9, objects 5, edges 14, origins 5, mis 5, steps 14, propagated 14",
    "OVS (C): \
     pointers 6, objects 2, edges 8, origins 3, mis 3, steps 9, propagated 8",
    "cpqueue (C): \
     pointers 9, objects 3, edges 16, origins 3, mis 3, steps 16, propagated 16",
    "mrlock (C): \
     pointers 11, objects 4, edges 15, origins 3, mis 3, steps 17, propagated 15",
    "Memcached (C): \
     pointers 9, objects 3, edges 9, origins 3, mis 3, steps 12, propagated 9",
    "OpenSSL-rwlock (C): \
     pointers 9, objects 4, edges 9, origins 4, mis 4, steps 11, propagated 9",
    "httpd-fdqueue (C): \
     pointers 13, objects 5, edges 12, origins 3, mis 3, steps 16, propagated 12",
    "mega-smoke: \
     pointers 621, objects 2, edges 949, origins 97, mis 98, steps 542, propagated 853",
    "mega-grid: \
     pointers 7236, objects 2, edges 11395, origins 1025, mis 1026, steps 6269, propagated 10371",
    "mega-skew: \
     pointers 10211, objects 2, edges 16577, origins 1281, mis 1282, steps 9016, propagated 15297",
];

fn pta_stats_row(name: &str, program: &o2_ir::program::Program) -> String {
    let ctx = o2_ir::ProgramCtx::solo(program);
    let s = o2_pta::analyze(&ctx, &PtaConfig::default()).stats;
    format!(
        "{name}: pointers {}, objects {}, edges {}, origins {}, mis {}, steps {}, propagated {}",
        s.num_pointers,
        s.num_objects,
        s.num_edges,
        s.num_origins,
        s.num_mis,
        s.solve_steps,
        s.propagated_objects
    )
}

#[test]
fn pta_stats_are_pinned_on_every_preset_model_and_mega_preset() {
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
    let rows: Vec<String> = presets
        .chain(java)
        .chain(c)
        .chain(mega)
        .map(|(name, program)| pta_stats_row(&name, &program))
        .collect();
    assert_eq!(rows, PTA_STATS_ROWS);
}

/// `program: cycles` rows of
/// [`detect_deadlocks`](o2_detect::detect_deadlocks) on every preset,
/// every Java and C real-bug and extended model, every mega preset and
/// three lock-order programs ([`LOCK_ORDER`]); each cycle is
/// `locks / origins / statements`, in cycle order.
const DEADLOCK_ROWS: &[&str] = &[
    "avrora: ",
    "batik: ",
    "eclipse: ",
    "h2: ",
    "jython: ",
    "luindex: ",
    "lusearch: ",
    "pmd: ",
    "sunflow: ",
    "tomcat: ",
    "tradebeans: ",
    "tradesoap: ",
    "xalan: ",
    "connectbot: ",
    "sipdroid: ",
    "k9mail: ",
    "tasks: ",
    "fbreader: ",
    "vlc: ",
    "firefox_focus: ",
    "telegram: ",
    "zoom: ",
    "chrome: ",
    "hbase: ",
    "hdfs: ",
    "yarn: ",
    "zookeeper: ",
    "memcached: ",
    "redis: ",
    "sqlite3: ",
    "Linux: ",
    "TDengine: ",
    "Redis/RedisGraph: ",
    "OVS: ",
    "cpqueue: ",
    "mrlock: ",
    "Memcached: ",
    "Firefox: ",
    "ZooKeeper: ",
    "HBase: ",
    "Tomcat: ",
    "OpenSSL-rwlock: ",
    "httpd-fdqueue: ",
    "libuv-loop: ",
    "Linux (C): ",
    "TDengine (C): ",
    "Redis/RedisGraph (C): ",
    "OVS (C): ",
    "cpqueue (C): ",
    "mrlock (C): ",
    "Memcached (C): ",
    "OpenSSL-rwlock (C): ",
    "httpd-fdqueue (C): ",
    "mega-smoke: ",
    "mega-grid: ",
    "mega-skew: ",
    "ab-ba: [Obj(ObjId(0)), Obj(ObjId(1))] / [1, 2] / [\"Transfer.run:8\", \"Transfer.run:8\"]",
    "ab-ba joined: ",
    "abc: [Obj(ObjId(0)), Obj(ObjId(1)), Obj(ObjId(2))] / [1, 2, 3] / [\"Transfer.run:8\", \"Transfer.run:8\", \"Transfer.run:8\"]",
];

/// Lock-order programs for [`DEADLOCK_ROWS`]: `Transfer(x, y)` takes
/// `x` then `y`, and `{main}` starts the workers.
const LOCK_ORDER: &str = r#"
    class L { }
    class Transfer impl Runnable {
        field from; field to;
        method <init>(from, to) { this.from = from; this.to = to; }
        method run() {
            a = this.from; b = this.to;
            sync (a) { sync (b) { x = a; } }
        }
    }
    class Main {
        static method main() {
            a = new L(); b = new L(); c = new L();
            {main}
        }
    }
"#;

fn deadlock_row(name: &str, program: &o2_ir::program::Program) -> String {
    let report = O2Builder::new().build().analyze(program);
    let cycles: Vec<String> = report
        .detect_deadlocks(program)
        .cycles
        .iter()
        .map(|c| {
            let origins: Vec<u32> = c.origins.iter().map(|o| o.0).collect();
            let stmts: Vec<String> = c.stmts.iter().map(|&s| program.stmt_label(s)).collect();
            format!("{:?} / {origins:?} / {stmts:?}", c.locks)
        })
        .collect();
    format!("{name}: {}", cycles.join("; "))
}

#[test]
fn deadlock_cycles_are_pinned_on_every_model_and_mega_preset() {
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
    let lock_order = [
        // AB-BA between two unordered workers: one 2-cycle.
        (
            "ab-ba",
            "t1 = new Transfer(a, b); t2 = new Transfer(b, a); t1.start(); t2.start();",
        ),
        // The same, but the second worker starts after the first is
        // joined: happens-before kills the cycle.
        (
            "ab-ba joined",
            "t1 = new Transfer(a, b); t2 = new Transfer(b, a); \
             t1.start(); join t1; t2.start();",
        ),
        // A → B → C → A across three unordered workers: one 3-cycle.
        (
            "abc",
            "t1 = new Transfer(a, b); t2 = new Transfer(b, c); t3 = new Transfer(c, a); \
             t1.start(); t2.start(); t3.start();",
        ),
    ]
    .map(|(name, main)| {
        let src = LOCK_ORDER.replace("{main}", main);
        (name.to_string(), o2_ir::parser::parse(&src).unwrap())
    });
    let rows: Vec<String> = presets
        .chain(java)
        .chain(c)
        .chain(mega)
        .chain(lock_order)
        .map(|(name, program)| deadlock_row(&name, &program))
        .collect();
    assert_eq!(rows, DEADLOCK_ROWS);
}
