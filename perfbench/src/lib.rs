//! A layered, seeded benchmark of the O2 race detector.
//!
//! Each workload is a fixed sequence of operations drawn from the
//! benchmark seed. A run sets the workload up several times, then replays
//! the sequence until its time is up, all in this one process and closed
//! loop under the paper's default configuration (`O2::default()`). Every
//! op's output is checked against an oracle after its clock stops.
//!
//! End-to-end times come from per-op medians across replays, so a single
//! stall on a shared host moves one sample, not the result. The traced
//! run (`--trace 1`) alternates untraced and traced replays: spans are
//! taken around the calls into each layer's public function from this
//! crate, never inside the program, and the per-layer figures are built
//! from them. See `NOTES.md` for the metric definitions and baselines.

pub mod cold;
pub mod edit;
pub mod ops;
pub mod serve_mix;
pub mod stats;
pub mod trace;

use stats::{median, percentile, ratio};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::{Tracer, OP};

/// Deterministic work counters, summed over one replay of a sequence.
pub type Counts = BTreeMap<&'static str, u64>;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["cold-corpus", "mega-cold", "edit-warm", "serve-mix"];

/// The end-to-end metrics with their units, in output order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Fewest timed samples an end-to-end run takes, so that p90 has at least
/// ten samples beyond it.
const MIN_SAMPLES: usize = 100;
/// Fewest replays per mode: per-op medians need several samples per op.
const MIN_REPLAYS: usize = 5;
/// The reference speed end-to-end times are calibrated to: a host on
/// which [`reference_ms`] takes this long (about its median on the 2-vCPU
/// host the baselines in `NOTES.md` come from).
const REFERENCE_NOMINAL_MS: f64 = 6.0;
/// Wall-clock ceiling of the measuring loop, whatever the minimums say.
const HARD_CAP: Duration = Duration::from_secs(120);

/// How a replay runs its ops.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    /// Through the public entry points, no spans.
    Plain,
    /// Stage by stage, one span per layer call.
    Traced,
    /// Over a loopback socket to a daemon (serve-mix only).
    Socket,
}

/// What one replay of a sequence produced.
#[derive(Default)]
pub struct Replay {
    /// Wall time of each op, in sequence order (ms).
    pub op_ms: Vec<f64>,
    /// Ops that errored or failed their oracle.
    pub failures: Vec<String>,
    /// Work counters (traced replays only).
    pub counts: Counts,
}

/// One benchmark workload.
pub trait Workload {
    /// Distinct ops in one replay of the sequence.
    fn ops(&self) -> usize;
    /// One program-side set-up before the first timed op; its seconds.
    fn setup(&mut self) -> Result<f64, String>;
    /// How many set-ups a run makes (their median is `setup_s`).
    fn setup_reps(&self) -> usize {
        3
    }
    /// Replays the whole sequence once.
    fn replay(&mut self, mode: Mode, r: usize, t: &mut Tracer) -> Replay;
    /// The mode end-to-end figures are measured in.
    fn e2e_mode(&self) -> Mode {
        Mode::Plain
    }
    /// The modes a traced run cycles through.
    fn traced_modes(&self) -> &'static [Mode] {
        &[Mode::Plain, Mode::Traced]
    }
}

/// Generates the inputs and oracles of workload `name` for `seed`.
pub fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold-corpus" => Box::new(cold::Cold::new(cold::corpus_items(seed))),
        "mega-cold" => Box::new(cold::Cold::new(cold::mega_items(seed))),
        "edit-warm" => Box::new(edit::EditWarm::new(seed)?),
        "serve-mix" => Box::new(serve_mix::ServeMix::new(seed)?),
        other => return Err(format!("unknown workload {other:?} ({WORKLOADS:?})")),
    })
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
pub struct Outcome {
    /// Median time of [`reference_ms`] over the run.
    pub reference_ms: f64,
    /// The end-to-end values before calibration, in [`END_TO_END`] order
    /// (empty for a traced run).
    pub raw_values: Vec<f64>,
    /// Timed ops, all modes.
    pub attempted: usize,
    /// The names of ops that errored or failed their oracle.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer ones (traced run).
    pub metrics: Vec<Metric>,
    /// Timed samples behind the end-to-end percentiles.
    pub samples: usize,
    /// Replays made per mode.
    pub replays: BTreeMap<Mode, usize>,
    /// Work counters of the first traced replay.
    pub counts: Counts,
    /// The spans of the traced run.
    pub tracer: Tracer,
}

/// Everything measured in one mode: per op, one sample per replay.
#[derive(Default)]
struct Samples {
    per_op: Vec<Vec<f64>>,
    replays: usize,
}

impl Samples {
    fn add(&mut self, op_ms: &[f64]) {
        if self.per_op.len() < op_ms.len() {
            self.per_op.resize(op_ms.len(), Vec::new());
        }
        for (i, &ms) in op_ms.iter().enumerate() {
            self.per_op[i].push(ms);
        }
        self.replays += 1;
    }

    fn all(&self) -> Vec<f64> {
        self.per_op.iter().flatten().copied().collect()
    }

    /// Sum over ops of each op's median (ms): one pass of the sequence.
    fn median_pass_ms(&self) -> f64 {
        self.per_op.iter().map(|s| median(s)).sum()
    }

    /// Distinct ops per second of summed per-op medians.
    fn throughput(&self) -> f64 {
        ratio(self.per_op.len() as f64, self.median_pass_ms() / 1e3)
    }
}

/// Runs workload `w` for `seconds`: several set-ups, then replays until
/// the time is up and the sample minimums are met.
pub fn run(w: &mut dyn Workload, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..w.setup_reps() {
        setups.push(w.setup()?);
        refs.push(reference_ms());
    }
    let e2e = w.e2e_mode();
    let modes: Vec<Mode> = if traced {
        w.traced_modes().to_vec()
    } else {
        vec![e2e]
    };
    let mut tracer = Tracer::new();
    let mut samples: BTreeMap<Mode, Samples> = BTreeMap::new();
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut counts: Option<Counts> = None;
    // Peak RSS is read after the first replay: later replays of serve-mix
    // start fresh daemons whose threads draw other malloc arenas, so the
    // high-water mark keeps climbing with memory no single daemon holds.
    let mut rss_mb: Option<f64> = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    for r in 0.. {
        let mode = modes[r % modes.len()];
        tracer.set_on(mode == Mode::Traced);
        let rep = w.replay(mode, r, &mut tracer);
        attempted += rep.op_ms.len().max(rep.failures.len());
        failures.extend(rep.failures);
        if mode == Mode::Traced && counts.is_none() {
            counts = Some(rep.counts);
        }
        samples.entry(mode).or_default().add(&rep.op_ms);
        refs.push(reference_ms());
        if rss_mb.is_none() {
            rss_mb = Some(o2::peak_rss_bytes().unwrap_or(0) as f64 / (1 << 20) as f64);
        }
        let enough = modes.iter().all(|m| {
            let s = samples.get(m).map_or(0, |s| s.replays);
            s >= MIN_REPLAYS
        }) && (traced || samples[&e2e].all().len() >= MIN_SAMPLES);
        let elapsed = start.elapsed();
        if (enough && elapsed >= budget) || elapsed >= HARD_CAP {
            break;
        }
    }
    tracer.set_on(false);
    let counts = counts.unwrap_or_default();
    let mut raw_values = Vec::new();
    let metrics = if traced {
        layer_metrics(w.ops(), &samples, &counts, &tracer)
    } else {
        let s = &samples[&e2e];
        let all = s.all();
        let raw = [
            median(&setups),
            s.throughput(),
            percentile(&all, 0.5),
            percentile(&all, 0.9),
            rss_mb.unwrap_or(0.0),
        ];
        let scale = REFERENCE_NOMINAL_MS / median(&refs);
        let values = [
            raw[0] * scale,
            raw[1] / scale,
            raw[2] * scale,
            raw[3] * scale,
            raw[4],
        ];
        raw_values = raw.to_vec();
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| metric(name, value, unit))
            .collect()
    };
    Ok(Outcome {
        reference_ms: median(&refs),
        raw_values,
        attempted,
        failures,
        metrics,
        samples: samples.get(&e2e).map_or(0, |s| s.all().len()),
        replays: samples.iter().map(|(m, s)| (*m, s.replays)).collect(),
        counts,
        tracer,
    })
}

/// Times one pass of a fixed computation that has nothing to do with the
/// program: sorting, ordered-map inserts and string formatting, with the
/// allocation churn analysis code has. A run times it after every set-up
/// and replay. Other tenants slow it as they slow the ops, so scaling the
/// run's times by `REFERENCE_NOMINAL_MS / median` takes out most of the
/// host's speed drift between runs; the raw values are printed too.
pub fn reference_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x5EED_u64;
    let mut keys: Vec<u64> = (0..100_000)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        })
        .collect();
    keys.sort_unstable();
    let map: BTreeMap<u64, usize> = keys
        .iter()
        .step_by(4)
        .enumerate()
        .map(|(i, &k)| (k >> 7, i))
        .collect();
    let text: String = keys
        .iter()
        .take(20_000)
        .map(|k| format!("{k:x},"))
        .collect();
    std::hint::black_box((map.len(), text.len()));
    t0.elapsed().as_secs_f64() * 1e3
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The per-layer figures of a traced run. Times are ms per op: for each
/// op the median over traced replays, averaged over the sequence. Counts
/// are totals over one pass of the sequence. A layer a workload never
/// calls reads 0.
fn layer_metrics(
    ops: usize,
    samples: &BTreeMap<Mode, Samples>,
    counts: &Counts,
    tracer: &Tracer,
) -> Vec<Metric> {
    let by_self = tracer.ms_by_layer(true);
    let by_total = tracer.ms_by_layer(false);
    let per_op = |m: &BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>, layer: &str| -> f64 {
        m.get(layer).map_or(0.0, |ops_ms| {
            ops_ms.values().map(|s| median(s)).sum::<f64>() / ops.max(1) as f64
        })
    };
    let ms = |layer: &str| per_op(&by_self, layer);
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let rate = |num: &str, other: &str| ratio(c(num), c(num) + c(other));

    let parse_ms = ms("ir.parse");
    let parse_s_per_pass = parse_ms * ops as f64 / 1e3;
    let tput = |m: Mode| samples.get(&m).map_or(0.0, Samples::throughput);
    let wire_ms = samples.get(&Mode::Socket).map_or(0.0, |s| {
        s.median_pass_ms() / ops.max(1) as f64 - ms("serve.handle")
    });
    let coverage = median(&tracer.op_coverage());
    let warm_op = per_op(&by_total, OP);
    let cold_op = per_op(&by_total, "core.cold_op");
    let cold_probe = by_total.contains_key("core.cold_op");
    vec![
        metric("ir.parse_ms", parse_ms, "ms"),
        metric(
            "ir.parse_mb_per_s",
            ratio(c("ir.source_bytes") / 1e6, parse_s_per_pass),
            "MB/s",
        ),
        metric("ir.digest_ms", ms("ir.digest"), "ms"),
        metric("pta.ms", ms("pta"), "ms"),
        metric("pta.solve_steps", c("pta.solve_steps"), "count"),
        metric(
            "pta.propagated_objects",
            c("pta.propagated_objects"),
            "count",
        ),
        metric("pta.mis", c("pta.mis"), "count"),
        metric("analysis.osa_ms", ms("analysis.osa"), "ms"),
        metric(
            "analysis.shared_accesses",
            c("analysis.shared_accesses"),
            "count",
        ),
        metric("shb.ms", ms("shb"), "ms"),
        metric("shb.nodes", c("shb.nodes"), "count"),
        metric("shb.locksets", c("shb.locksets"), "count"),
        metric("detect.ms", ms("detect"), "ms"),
        metric(
            "detect.pre_prune_pairs",
            c("detect.pre_prune_pairs"),
            "count",
        ),
        metric(
            "detect.candidate_pairs",
            c("detect.candidate_pairs"),
            "count",
        ),
        metric("detect.pairs_checked", c("detect.pairs_checked"), "count"),
        metric(
            "detect.prune_rate",
            if c("detect.pre_prune_pairs") > 0.0 {
                1.0 - c("detect.candidate_pairs") / c("detect.pre_prune_pairs")
            } else {
                0.0
            },
            "fraction",
        ),
        metric("passes.ms", ms("passes.pipeline"), "ms"),
        metric("passes.render_ms", ms("passes.render"), "ms"),
        metric("passes.output_bytes", c("passes.output_bytes"), "count"),
        metric("db.load_ms", ms("db.load"), "ms"),
        metric("db.save_ms", ms("db.save"), "ms"),
        metric("db.image_bytes", c("db.image_bytes"), "count"),
        metric("db.store_artifacts", c("db.store_artifacts"), "count"),
        metric("core.warm_analyze_ms", ms("core.warm_analyze"), "ms"),
        metric("core.cold_analyze_ms", ms("core.cold_analyze"), "ms"),
        metric(
            "core.warm_op_ms",
            if cold_probe { warm_op } else { 0.0 },
            "ms",
        ),
        metric("core.cold_op_ms", cold_op, "ms"),
        metric("core.warm_over_cold", ratio(warm_op, cold_op), "ratio"),
        metric(
            "core.mis_replay_rate",
            rate("core.mis_replayed", "core.mis_rescanned"),
            "fraction",
        ),
        metric(
            "core.origins_replay_rate",
            rate("core.origins_replayed", "core.origins_walked"),
            "fraction",
        ),
        metric(
            "core.candidates_replay_rate",
            rate("core.candidates_replayed", "core.candidates_rechecked"),
            "fraction",
        ),
        metric("serve.request_parse_ms", ms("serve.request_parse"), "ms"),
        metric("serve.handle_ms", ms("serve.handle"), "ms"),
        metric("serve.wire_ms", wire_ms, "ms"),
        metric(
            "serve.report_hit_rate",
            ratio(c("serve.report_hits"), c("serve.analyze_ok")),
            "fraction",
        ),
        metric(
            "serve.artifact_replay_rate",
            rate("serve.artifact_replays", "serve.artifact_recomputes"),
            "fraction",
        ),
        metric("trace.coverage", coverage, "fraction"),
        metric(
            "trace.overhead",
            1.0 - ratio(tput(Mode::Traced), tput(Mode::Plain)),
            "fraction",
        ),
    ]
}

/// The per-layer metrics with their units, in output order.
pub fn per_layer() -> Vec<(&'static str, &'static str)> {
    layer_metrics(1, &BTreeMap::new(), &Counts::new(), &Tracer::new())
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failures.is_empty(),
        o.attempted.max(1),
        o.failures.len(),
        metrics.join(", ")
    )
}
