//! `cold-corpus` and `mega-cold`: one cold op per program, replayed.

use crate::ops::{cold_op, report_counts, Expect};
use crate::trace::{Tracer, OP};
use crate::{Mode, Replay, Workload};
use o2::O2;
use o2_ir::printer::print_program;
use o2_workloads::{all_models, all_presets, extended_models, mega_presets, GeneratedWorkload};
use std::time::Instant;

/// Seeds per mega preset. Five programs of each of the three sizes put
/// both p50 and p90 in the middle of one program's samples instead of on
/// the boundary between two programs.
const MEGA_SEEDS: u64 = 5;

/// One program of a cold workload: its source text and known answer.
pub struct Item {
    /// Program name (with its seed variant).
    pub name: String,
    /// The printed source text the op receives.
    pub src: String,
    /// The oracle.
    pub expect: Expect,
}

fn planted(name: String, w: GeneratedWorkload) -> Item {
    Item {
        name,
        src: print_program(&w.program),
        expect: Expect::Planted(w.truth.racy_fields.into_iter().collect()),
    }
}

/// The 30 Table 5–9 presets re-seeded with `seed`, then the 14
/// Java-style real-bug models.
pub fn corpus_items(seed: u64) -> Vec<Item> {
    let mut items: Vec<Item> = all_presets()
        .into_iter()
        .map(|mut p| {
            p.spec.seed ^= seed;
            planted(p.name.to_string(), p.generate())
        })
        .collect();
    for m in all_models().into_iter().chain(extended_models()) {
        items.push(Item {
            name: format!("realbug:{}", m.name),
            src: print_program(&m.program),
            expect: Expect::Races(m.expected_races),
        });
    }
    items
}

/// `mega-smoke`, `mega-grid` and `mega-skew`, each at [`MEGA_SEEDS`]
/// seeds derived from `seed` (variant 0 is `MegaPreset.seed ^ seed`).
pub fn mega_items(seed: u64) -> Vec<Item> {
    let mut items = Vec::new();
    for k in 0..MEGA_SEEDS {
        let variant = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for mut p in mega_presets() {
            p.seed ^= variant;
            items.push(planted(format!("{}#{k}", p.name), p.generate()));
        }
    }
    items
}

/// A cold workload over a fixed list of programs.
pub struct Cold {
    engine: O2,
    items: Vec<Item>,
    /// The first JSON each op produced; every later replay, traced or
    /// not, must reproduce it byte for byte.
    first_json: Vec<Option<String>>,
}

impl Cold {
    /// A workload replaying `items` in order.
    pub fn new(items: Vec<Item>) -> Cold {
        let n = items.len();
        Cold {
            engine: O2::default(),
            items,
            first_json: vec![None; n],
        }
    }
}

impl Workload for Cold {
    fn ops(&self) -> usize {
        self.items.len()
    }

    /// Engine construction plus one discarded warm-up pass.
    fn setup(&mut self) -> Result<f64, String> {
        let t0 = Instant::now();
        self.engine = O2::default();
        let mut t = Tracer::new();
        for item in &self.items {
            std::hint::black_box(cold_op(&self.engine, &item.src, &mut t)?);
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    fn replay(&mut self, mode: Mode, r: usize, t: &mut Tracer) -> Replay {
        let mut out = Replay::default();
        for (i, item) in self.items.iter().enumerate() {
            t.at(i, r);
            let t0 = Instant::now();
            let res = t.span(OP, |t| cold_op(&self.engine, &item.src, t));
            out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let ok = match res {
                Ok(o) => {
                    if mode == Mode::Traced {
                        report_counts(&o.report, &mut out.counts);
                        *out.counts.entry("passes.output_bytes").or_default() +=
                            o.json.len() as u64;
                        *out.counts.entry("ir.source_bytes").or_default() += item.src.len() as u64;
                    }
                    let first = self.first_json[i].get_or_insert_with(|| o.json.clone());
                    item.expect.holds(&o.program, &o.report) && *first == o.json
                }
                Err(_) => false,
            };
            if !ok {
                out.failures.push(item.name.clone());
            }
        }
        out
    }
}
