//! `serve-mix`: one closed-loop client, standing in for an IDE that
//! waits for each reply, sends `analyze` requests with inline source to
//! an `o2 serve` daemon. About 30% of the requests are fresh edits (a
//! report-cache miss that replays the artifact store); the rest are
//! Zipf-drawn repeats of earlier sources (a whole-program digest hit).

use crate::ops::json_escape;
use crate::trace::{Tracer, OP};
use crate::{Counts, Mode, Replay, Workload};
use o2::serve::{parse_flat_json, solo_reports, spawn, Client, ServeState, ServerHandle};
use o2::{ServeOptions, O2};
use o2_ir::util::SplitMix64;
use o2_ir::{parser, printer::print_program, Program};
use o2_workloads::{preset_by_name, single_function_edit};
use std::sync::Arc;
use std::time::Instant;

/// Programs the client edits, printed sizes about 15–95 KB, with the
/// number of requests each gets per replay: Zipf shares (1/k) of 25
/// requests. A fixed mix keeps the work of a replay the same across
/// seeds; the seed draws the programs, the order and which earlier
/// version a repeat names. 25 requests put p50 and p90 each in the
/// middle of one request's samples.
const BASES: [(&str, usize); 5] = [
    ("memcached", 11),
    ("avrora", 5),
    ("connectbot", 4),
    ("hdfs", 3),
    ("zookeeper", 2),
];
/// Share of each base's requests that are fresh edits (at least one:
/// the first request for a base sends it unedited).
const FRESH: f64 = 0.3;

struct Request {
    line: String,
    source: usize,
    repeat: bool,
}

/// The serve-mix workload.
pub struct ServeMix {
    /// Per source: the tail every response must end with, built from the
    /// solo oracle's JSON.
    expected_tail: Vec<String>,
    requests: Vec<Request>,
    workers: usize,
}

/// Draws an index in `0..n` with probability proportional to `1/(k+1)`.
fn zipf(rng: &mut SplitMix64, n: usize) -> usize {
    let total: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    for k in 0..n {
        u -= 1.0 / (k + 1) as f64;
        if u < 0.0 {
            return k;
        }
    }
    n - 1
}

fn base_program(name: &str, seed: u64) -> Result<Program, String> {
    let mut p = preset_by_name(name).ok_or_else(|| format!("unknown preset {name}"))?;
    p.spec.seed ^= seed;
    let text = print_program(&p.generate().program);
    parser::parse(&text).map_err(|e| format!("{name}: {e}"))
}

impl ServeMix {
    /// Draws the request sequence from `SplitMix64(seed)` and computes
    /// the solo oracle of every distinct source.
    pub fn new(seed: u64) -> Result<ServeMix, String> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        // Per base: its pending requests, `true` for a fresh edit. The
        // first is fresh; the other fresh ones fall at random among the
        // repeats.
        let mut pending: Vec<Vec<bool>> = BASES
            .iter()
            .map(|&(_, n)| {
                let fresh = ((n as f64 * FRESH).round() as usize).clamp(1, n);
                let mut rest: Vec<bool> = (1..n).map(|k| k < fresh).collect();
                for k in (1..rest.len()).rev() {
                    rest.swap(k, rng.next_below(k as u64 + 1) as usize);
                }
                rest.push(true);
                rest
            })
            .collect();
        let mut latest: Vec<Option<Program>> = vec![None; BASES.len()];
        let mut versions: Vec<Vec<usize>> = vec![Vec::new(); BASES.len()];
        let mut sources: Vec<String> = Vec::new();
        let mut requests = Vec::new();
        while pending.iter().any(|p| !p.is_empty()) {
            // The next request goes to a base drawn in proportion to its
            // pending requests: a random interleaving of the bases.
            let left: usize = pending.iter().map(Vec::len).sum();
            let mut u = rng.next_below(left as u64) as usize;
            let b = pending
                .iter()
                .position(|p| {
                    let hit = u < p.len();
                    u = u.saturating_sub(p.len());
                    hit
                })
                .expect("a request is pending");
            let fresh = pending[b].pop().expect("base has a pending request");
            if fresh {
                let next = match &latest[b] {
                    None => base_program(BASES[b].0, seed)?,
                    Some(p) => single_function_edit(p).0,
                };
                sources.push(print_program(&next));
                latest[b] = Some(next);
                versions[b].push(sources.len() - 1);
                requests.push(sources.len() - 1);
            } else {
                // A repeat: Zipf over this base's versions, latest first.
                let vs = &versions[b];
                requests.push(vs[vs.len() - 1 - zipf(&mut rng, vs.len())]);
            }
        }
        let engine = O2::default();
        let mut expected_tail = Vec::new();
        for src in &sources {
            let program = parser::parse(src).map_err(|e| e.to_string())?;
            let json = solo_reports(&engine, &program).json;
            expected_tail.push(format!(",\"output\":\"{}\"}}", json_escape(&json)));
        }
        let mut seen = vec![false; sources.len()];
        let requests: Vec<Request> = requests
            .into_iter()
            .map(|s| {
                let repeat = std::mem::replace(&mut seen[s], true);
                Request {
                    line: format!(
                        "{{\"op\":\"analyze\",\"format\":\"json\",\"source\":\"{}\"}}",
                        json_escape(&sources[s])
                    ),
                    source: s,
                    repeat,
                }
            })
            .collect();
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(ServeMix {
            expected_tail,
            requests,
            workers,
        })
    }

    /// Spawns a fresh daemon on loopback and waits for its first `ping`.
    fn start(&self) -> Result<(ServerHandle, Client, f64), String> {
        let t0 = Instant::now();
        let state = Arc::new(ServeState::new(O2::default()));
        let opts = ServeOptions {
            workers: self.workers,
            ..ServeOptions::default()
        };
        let handle = spawn("127.0.0.1:0", state, opts).map_err(|e| e.to_string())?;
        let mut client = Client::connect(handle.addr()).map_err(|e| e.to_string())?;
        let pong = client
            .send_line("{\"op\":\"ping\"}")
            .map_err(|e| e.to_string())?;
        let secs = t0.elapsed().as_secs_f64();
        if !pong.contains("\"ok\":true") {
            return Err(format!("ping answered {pong}"));
        }
        Ok((handle, client, secs))
    }

    /// Whether `resp` is the right answer to request `req`.
    fn answer_ok(&self, req: &Request, resp: &str) -> bool {
        let hit = if req.repeat {
            "\"digest_hit\":true"
        } else {
            "\"digest_hit\":false"
        };
        resp.starts_with("{\"ok\":true,\"op\":\"analyze\"")
            && resp.contains(hit)
            && resp.ends_with(&self.expected_tail[req.source])
    }

    fn socket_replay(&self) -> Result<(Vec<f64>, Vec<String>), String> {
        let (handle, mut client, _) = self.start()?;
        let mut op_ms = Vec::with_capacity(self.requests.len());
        let mut responses = Vec::with_capacity(self.requests.len());
        for req in &self.requests {
            let t0 = Instant::now();
            let resp = client.send_line(&req.line).map_err(|e| e.to_string())?;
            op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            responses.push(resp);
        }
        drop(client);
        handle.shutdown().map_err(|e| e.to_string())?;
        Ok((op_ms, responses))
    }

    fn direct_replay(&self, r: usize, t: &mut Tracer) -> Replay {
        let mut out = Replay::default();
        let state = ServeState::new(O2::default());
        for (i, req) in self.requests.iter().enumerate() {
            t.at(i, r);
            let t0 = Instant::now();
            let (resp, _) = t.span(OP, |t| {
                t.span("serve.handle", |_| state.handle_line(&req.line))
            });
            out.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if t.is_on() {
                // The request parse on the same line, outside the op.
                let parsed = t.span("serve.request_parse", |_| parse_flat_json(&req.line));
                std::hint::black_box(parsed.is_ok());
            }
            if !self.answer_ok(req, &resp) {
                out.failures.push(format!("request {i}"));
            }
        }
        if t.is_on() {
            let s = state.stats();
            let mut add = |k: &'static str, v: u64| *out.counts.entry(k).or_default() += v;
            add("serve.report_hits", s.report_hits);
            add("serve.analyze_ok", s.analyze_ok);
            add("serve.artifact_replays", s.artifact_replays);
            add("serve.artifact_recomputes", s.artifact_recomputes);
            add(
                "db.store_artifacts",
                state.store_stats().artifacts_accepted as u64,
            );
            let bytes: usize = self.requests.iter().map(|q| q.line.len()).sum();
            add("serve.request_bytes", bytes as u64);
        }
        out
    }
}

impl Workload for ServeMix {
    fn ops(&self) -> usize {
        self.requests.len()
    }

    /// A set-up takes well under a millisecond, so many are cheap and
    /// their median is steadier.
    fn setup_reps(&self) -> usize {
        51
    }

    /// Daemon spawn until the first `ping` answers.
    fn setup(&mut self) -> Result<f64, String> {
        let (handle, client, secs) = self.start()?;
        drop(client);
        handle.shutdown().map_err(|e| e.to_string())?;
        Ok(secs)
    }

    fn replay(&mut self, mode: Mode, r: usize, t: &mut Tracer) -> Replay {
        match mode {
            Mode::Socket => match self.socket_replay() {
                Ok((op_ms, responses)) => {
                    // Responses are checked only after the clock stops.
                    let failures = self
                        .requests
                        .iter()
                        .zip(&responses)
                        .enumerate()
                        .filter(|(_, (q, resp))| !self.answer_ok(q, resp))
                        .map(|(i, _)| format!("request {i}"))
                        .collect();
                    Replay {
                        op_ms,
                        failures,
                        counts: Counts::new(),
                    }
                }
                // Every request of a broken replay counts as failed.
                Err(e) => Replay {
                    op_ms: Vec::new(),
                    failures: vec![format!("socket replay: {e}"); self.requests.len()],
                    counts: Counts::new(),
                },
            },
            Mode::Plain | Mode::Traced => self.direct_replay(r, t),
        }
    }

    fn e2e_mode(&self) -> Mode {
        Mode::Socket
    }

    fn traced_modes(&self) -> &'static [Mode] {
        &[Mode::Plain, Mode::Traced, Mode::Socket]
    }
}
