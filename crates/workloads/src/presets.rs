//! Named benchmark presets: one per benchmark of the paper's evaluation.
//!
//! Every preset is a [`WorkloadSpec`] tuned so that the generated program
//! matches the corresponding real benchmark *in shape*:
//!
//! - the origin count equals the paper's `#O` column (Table 5) —
//!   asserted by tests;
//! - the thread/event mix follows the benchmark's nature (DaCapo = thread
//!   pools, Android = event-handler heavy, distributed = many server
//!   threads plus request events, C = `pthread_create`-style spawns);
//! - context-stress intensity follows which analyses struggled in Table 5
//!   (e.g. wide call fans where 2-CFA took hours, long builder chains
//!   where k-obj exceeded 4 hours);
//! - the ratio of false-positive bait to planted races follows the
//!   benchmark's Table 8 reduction ratio (e.g. Eclipse: 958 → 7 ⇒ almost
//!   everything 0-ctx reports is bait).

use crate::generator::{generate, GeneratedWorkload, WorkloadSpec};

/// The benchmark group, mirroring the paper's presentation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Group {
    /// DaCapo JVM benchmarks (Table 5 top, Tables 7/8).
    DaCapo,
    /// Android applications (Table 5 middle).
    Android,
    /// Distributed systems (Table 5 bottom, Table 9).
    Distributed,
    /// C/C++ programs (Table 6).
    CStyle,
}

impl Group {
    /// Display name used in harness output.
    pub fn label(self) -> &'static str {
        match self {
            Group::DaCapo => "dacapo",
            Group::Android => "android",
            Group::Distributed => "distributed",
            Group::CStyle => "c",
        }
    }
}

/// Reference values from the paper for cross-checking the reproduction.
#[derive(Clone, Copy, Debug)]
pub struct PaperRef {
    /// `#O` from Table 5 / §5 text.
    pub num_origins: usize,
    /// Races reported by the 0-ctx baseline (Table 8/9), if given.
    pub zero_ctx_races: Option<u32>,
    /// Races reported by O2 (Table 8/9), if given.
    pub o2_races: Option<u32>,
}

/// A named preset: the spec plus the paper's reference values.
#[derive(Clone, Debug)]
pub struct Preset {
    /// Benchmark name (lowercase, as used by the harness CLI).
    pub name: &'static str,
    /// Benchmark group.
    pub group: Group,
    /// The workload parameters.
    pub spec: WorkloadSpec,
    /// Paper reference values.
    pub paper: PaperRef,
}

impl Preset {
    /// Generates the preset's program.
    pub fn generate(&self) -> GeneratedWorkload {
        generate(&self.spec)
    }
}

/// Distributes a false-positive bait budget over the five bait patterns
/// (40% depth-1 merges, 15% depth-2, 10% depth-3, 25% factory, 10% heap).
fn bait(total: usize) -> (usize, usize, usize, usize, usize) {
    let m1 = total * 40 / 100;
    let m2 = total * 15 / 100;
    let m3 = total * 10 / 100;
    let fact = total * 25 / 100;
    let heap = total - m1 - m2 - m3 - fact;
    (m1, m2, m3, fact, heap)
}

#[allow(clippy::too_many_arguments)]
fn preset(
    name: &'static str,
    group: Group,
    paper: PaperRef,
    threads: usize,
    events: usize,
    shared: usize,
    planted: usize,
    statics: usize,
    protected: usize,
    bait_total: usize,
    fan: (usize, usize),
    builders: usize,
    depth: usize,
    filler: usize,
    flags: (bool, bool, bool, bool), // wrappers, loop, nested, c_style
) -> Preset {
    let (m1, m2, m3, fact, heap) = bait(bait_total);
    let (use_wrappers, loop_spawn, nested_spawn, c_style) = flags;
    Preset {
        name,
        group,
        spec: WorkloadSpec {
            name: name.to_string(),
            seed: 0xC0FFEE ^ name.len() as u64 ^ (threads as u64) << 8,
            n_threads: threads,
            n_events: events,
            call_depth: depth,
            n_shared_objects: shared,
            planted_races: planted,
            racy_statics: statics,
            protected_fields: protected,
            fork_join_fields: 1,
            merges_depth1: m1,
            merges_depth2: m2,
            merges_depth3: m3,
            factory_merges: fact,
            heap_conflations: heap,
            stress_fan_width: fan.0,
            stress_fan_depth: fan.1,
            stress_builders: builders,
            use_wrappers,
            loop_spawn,
            nested_spawn,
            c_style,
            filler,
        },
        paper,
    }
}

fn p(num_origins: usize, zero_ctx: u32, o2: u32) -> PaperRef {
    PaperRef {
        num_origins,
        zero_ctx_races: Some(zero_ctx),
        o2_races: Some(o2),
    }
}

fn p_o(num_origins: usize) -> PaperRef {
    PaperRef {
        num_origins,
        zero_ctx_races: None,
        o2_races: None,
    }
}

/// All benchmark presets, in the paper's table order.
pub fn all_presets() -> Vec<Preset> {
    use Group::*;
    let no = (false, false, false, false);
    vec![
        // ---- DaCapo (Tables 5, 7, 8) -----------------------------------
        preset(
            "avrora",
            DaCapo,
            p(4, 12633, 38),
            3,
            0,
            1,
            1,
            0,
            2,
            40,
            (8, 5),
            11,
            3,
            3,
            no,
        ),
        preset(
            "batik",
            DaCapo,
            p(4, 4369, 186),
            3,
            0,
            1,
            2,
            1,
            2,
            30,
            (12, 6),
            12,
            3,
            3,
            no,
        ),
        preset(
            "eclipse",
            DaCapo,
            p(4, 958, 7),
            3,
            0,
            1,
            1,
            0,
            2,
            40,
            (6, 5),
            11,
            3,
            3,
            no,
        ),
        preset(
            "h2",
            DaCapo,
            p(3, 9698, 2817),
            2,
            0,
            1,
            6,
            2,
            3,
            18,
            (12, 6),
            12,
            5,
            12,
            no,
        ),
        preset(
            "jython",
            DaCapo,
            p(4, 7997, 3651),
            3,
            0,
            1,
            8,
            2,
            3,
            12,
            (8, 5),
            12,
            4,
            14,
            no,
        ),
        preset(
            "luindex",
            DaCapo,
            p(3, 3218, 1792),
            2,
            0,
            1,
            5,
            1,
            2,
            10,
            (8, 5),
            12,
            3,
            8,
            no,
        ),
        preset(
            "lusearch",
            DaCapo,
            p(3, 567, 341),
            2,
            0,
            1,
            3,
            1,
            2,
            6,
            (12, 6),
            6,
            3,
            4,
            no,
        ),
        preset(
            "pmd",
            DaCapo,
            p(3, 307, 256),
            2,
            0,
            1,
            4,
            1,
            2,
            2,
            (6, 5),
            12,
            3,
            4,
            no,
        ),
        preset(
            "sunflow",
            DaCapo,
            p(9, 9238, 1925),
            8,
            0,
            2,
            4,
            1,
            2,
            16,
            (6, 5),
            11,
            3,
            4,
            no,
        ),
        preset(
            "tomcat",
            DaCapo,
            p(6, 751, 307),
            5,
            0,
            2,
            2,
            1,
            2,
            8,
            (12, 6),
            10,
            3,
            4,
            no,
        ),
        preset(
            "tradebeans",
            DaCapo,
            p(3, 193, 75),
            2,
            0,
            1,
            1,
            1,
            2,
            6,
            (6, 5),
            12,
            3,
            3,
            no,
        ),
        preset(
            "tradesoap",
            DaCapo,
            p(3, 264, 64),
            2,
            0,
            1,
            1,
            1,
            2,
            8,
            (6, 5),
            12,
            3,
            3,
            no,
        ),
        preset(
            "xalan",
            DaCapo,
            p(3, 6, 1),
            2,
            0,
            1,
            0,
            1,
            2,
            2,
            (12, 6),
            11,
            3,
            6,
            no,
        ),
        // ---- Android (Table 5 middle) -----------------------------------
        preset(
            "connectbot",
            Android,
            p_o(11),
            2,
            8,
            2,
            2,
            1,
            2,
            10,
            (12, 6),
            12,
            3,
            3,
            no,
        ),
        preset(
            "sipdroid",
            Android,
            p_o(15),
            4,
            10,
            2,
            3,
            1,
            2,
            12,
            (12, 6),
            12,
            3,
            4,
            no,
        ),
        preset(
            "k9mail",
            Android,
            p_o(23),
            4,
            18,
            3,
            3,
            1,
            2,
            14,
            (12, 6),
            12,
            3,
            3,
            no,
        ),
        preset(
            "tasks",
            Android,
            p_o(7),
            2,
            4,
            2,
            2,
            0,
            2,
            8,
            (13, 6),
            12,
            3,
            3,
            no,
        ),
        preset(
            "fbreader",
            Android,
            p_o(15),
            4,
            10,
            2,
            2,
            1,
            2,
            10,
            (16, 6),
            12,
            3,
            3,
            no,
        ),
        preset(
            "vlc",
            Android,
            p_o(4),
            1,
            2,
            1,
            2,
            1,
            2,
            8,
            (12, 6),
            12,
            3,
            8,
            no,
        ),
        preset(
            "firefox_focus",
            Android,
            p_o(8),
            2,
            5,
            2,
            2,
            1,
            2,
            10,
            (16, 6),
            12,
            3,
            3,
            no,
        ),
        preset(
            "telegram",
            Android,
            p_o(134),
            13,
            120,
            4,
            4,
            2,
            3,
            16,
            (16, 6),
            12,
            3,
            2,
            no,
        ),
        preset(
            "zoom",
            Android,
            p_o(15),
            4,
            10,
            2,
            3,
            1,
            2,
            10,
            (16, 6),
            12,
            3,
            6,
            no,
        ),
        preset(
            "chrome",
            Android,
            p_o(34),
            8,
            25,
            3,
            3,
            1,
            2,
            12,
            (16, 6),
            12,
            3,
            3,
            no,
        ),
        // ---- Distributed systems (Tables 5, 9) --------------------------
        preset(
            "hbase",
            Distributed,
            p(16, 1269, 687),
            14,
            0,
            4,
            14,
            2,
            4,
            20,
            (16, 6),
            12,
            6,
            18,
            (true, false, false, false),
        ),
        preset(
            "hdfs",
            Distributed,
            p(12, 2322, 910),
            10,
            0,
            4,
            18,
            2,
            4,
            24,
            (12, 6),
            12,
            6,
            18,
            (false, true, false, false),
        ),
        preset(
            "yarn",
            Distributed,
            p(14, 5387, 1164),
            13,
            0,
            5,
            22,
            2,
            4,
            26,
            (8, 5),
            12,
            6,
            20,
            no,
        ),
        preset(
            "zookeeper",
            Distributed,
            p(40, 1389, 747),
            20,
            19,
            6,
            15,
            2,
            4,
            20,
            (8, 5),
            12,
            5,
            10,
            no,
        ),
        // ---- C/C++ programs (Table 6) ------------------------------------
        preset(
            "memcached",
            CStyle,
            p_o(12),
            8,
            3,
            3,
            5,
            3,
            2,
            6,
            (6, 4),
            4,
            3,
            6,
            (false, false, false, true),
        ),
        preset(
            "redis",
            CStyle,
            p_o(15),
            14,
            0,
            4,
            3,
            2,
            2,
            8,
            (10, 6),
            4,
            4,
            10,
            (false, false, false, true),
        ),
        preset(
            "sqlite3",
            CStyle,
            p_o(3),
            2,
            0,
            1,
            1,
            1,
            2,
            4,
            (16, 6),
            0,
            8,
            40,
            (false, false, false, true),
        ),
    ]
}

/// Looks up a preset by name.
pub fn preset_by_name(name: &str) -> Option<Preset> {
    all_presets().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_count_matches_paper() {
        let all = all_presets();
        assert_eq!(all.len(), 30); // 13 DaCapo + 10 Android + 4 distributed + 3 C
        assert_eq!(all.iter().filter(|p| p.group == Group::DaCapo).count(), 13);
        assert_eq!(all.iter().filter(|p| p.group == Group::Android).count(), 10);
        assert_eq!(
            all.iter().filter(|p| p.group == Group::Distributed).count(),
            4
        );
        assert_eq!(all.iter().filter(|p| p.group == Group::CStyle).count(), 3);
    }

    #[test]
    fn all_presets_generate_valid_programs() {
        for p in all_presets() {
            let w = p.generate();
            assert!(
                w.program.num_statements() > 30,
                "{}: too small ({} stmts)",
                p.name,
                w.program.num_statements()
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(preset_by_name("avrora").is_some());
        assert!(preset_by_name("telegram").is_some());
        assert!(preset_by_name("nope").is_none());
    }
}
