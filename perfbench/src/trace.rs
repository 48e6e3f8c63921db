//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side, around calls into each
//! layer's public function; nothing inside the program is instrumented.
//! With recording off, [`Tracer::span`] only calls its closure, so the
//! untraced replays run the same op code without the bookkeeping.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the span that wraps one whole op.
pub const OP: &str = "op";

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `pta` or `ir.parse` (or [`OP`]).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index of the op in the workload's sequence.
    pub op: usize,
    /// Replay the span belongs to.
    pub replay: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while on; a no-op wrapper while off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    replay: usize,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_on`].
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            replay: 0,
        }
    }

    /// Turns recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the op and replay that following spans belong to.
    pub fn at(&mut self, op: usize, replay: usize) {
        self.op = op;
        self.replay = replay;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: self.stack.last().copied(),
            op: self.op,
            replay: self.replay,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    /// Each span's self time: its duration minus the part its direct
    /// children cover (children never overlap: calls are sequential).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Time per layer, per op, in ms: one sample per replay. With
    /// `self_time` a span counts only what its children do not cover.
    pub fn ms_by_layer(
        &self,
        self_time: bool,
    ) -> BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>> {
        let mut out: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
        let ns = if self_time {
            self.self_ns()
        } else {
            self.spans.iter().map(Span::ns).collect()
        };
        // Sum within one (layer, op, replay) first: a layer may be called
        // more than once per op.
        let mut sums: BTreeMap<(&'static str, usize, usize), u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(ns) {
            *sums.entry((s.name, s.op, s.replay)).or_default() += ns;
        }
        for ((name, op, _), ns) in sums {
            out.entry(name)
                .or_default()
                .entry(op)
                .or_default()
                .push(ns as f64 / 1e6);
        }
        out
    }

    /// Per op span: the share of its duration its direct children cover.
    pub fn op_coverage(&self) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == OP && s.ns() > 0)
            .map(|(s, own)| 1.0 - own as f64 / s.ns() as f64)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `id parent op replay name start_ns end_ns` (parent `-` for none).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\top\treplay\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.replay, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
