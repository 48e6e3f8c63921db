//! The resident analysis daemon behind `o2 serve <addr>`.
//!
//! A server process holds two caches across *all* requests:
//!
//! 1. **rendered-report cache**: keyed by whole-program digest. A
//!    repeat request for a digest-identical program skips the pipeline
//!    entirely and answers with the cached bytes (`digest_hit` in the
//!    response) — the same digest cache the solo CLI has behind
//!    `--load-db`, shared across every client. `--load-db` preseeds it
//!    from an [`AnalysisDb`] image (for example one written by
//!    `o2 batch --save-db`) and `--save-db` snapshots it on exit. Any
//!    other program runs the ordinary cold pipeline.
//! 2. **resolved-program cache**: registry workloads and inline sources
//!    are parsed/generated once per distinct request shape.
//!
//! # Protocol
//!
//! Line-delimited JSON over TCP: one request per line, one response
//! line per request, connections are keep-alive. Requests are *flat*
//! JSON objects (string / number / boolean values, no nesting); see
//! DESIGN §14 for the grammar. Operations:
//!
//! - `analyze` — `workload` (registry spec) or `source` (inline
//!   program; `frontend:"c"` selects the C frontend), optional `edit`
//!   (apply N deterministic single-function edits), `format`
//!   (`text|json|sarif`, default `text`), `deadline_ms` (per-request
//!   wall-clock budget; an exceeded deadline answers a structured
//!   `timeout` error and the worker returns to the pool).
//! - `diff-analyze` — `workload`+`edit` (old = base, new = edited) or
//!   `old_source`/`new_source`; answers with the digest diff counts and
//!   the new version's report. Also honors `deadline_ms`.
//! - `stats` — cumulative [`ServeStats`] counters.
//! - `ping`, `shutdown`.
//!
//! # Errors
//!
//! A request that fails inside the pipeline answers one line of the
//! shape `{"ok":false,"error":"...","stage":"<tag>"}` where the tag is
//! the [`O2Error`] stage (`parse`, `resolve`, `timeout`, …). Protocol
//! errors (unparseable line, unknown op, bad fields) answer without a
//! stage. Every analysis, with its passes and rendering, runs under the
//! one panic backstop ([`O2Error::catch`]): a bug answers a structured
//! `internal` error and the daemon keeps serving.
//!
//! # Invariants
//!
//! The `output` field of an `analyze` response is **byte-identical** to
//! the solo CLI's stdout for the same program and `--format` (with
//! `--quiet`): the report cache stores exactly the pipeline's rendered
//! bytes. Caching changes how fast a request answers, never what it
//! answers.
//!
//! Reentrancy: the engine configuration is immutable, every request
//! analyzes under its own [`ProgramCtx`] (a fresh [`ProgramId`] from an
//! atomic counter — dense ids never leak across requests), and all
//! shared state (the two caches, the counters) is behind mutexes held
//! only for copies, never across an analysis.

use crate::incremental::{render_reports, Format, IncrStats};
use crate::O2;
use o2_db::{AnalysisDb, CachedReports, Digest, DigestHasher, FastMap};
use o2_ir::{
    digest_diff, digest_program, json_escape, Budget, O2Error, Program, ProgramCtx, ProgramDigests,
    ProgramId,
};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on one request line's byte length (overridable via
/// [`ServeOptions::max_line`]). An oversized line answers a structured
/// error and the connection survives.
pub const DEFAULT_MAX_LINE: usize = 4 << 20;

// ---------------------------------------------------------------------
// Flat JSON: the protocol's wire format.
// ---------------------------------------------------------------------

/// One value of a flat protocol object.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// A JSON string (escapes decoded).
    Str(String),
    /// A JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses one *flat* JSON object (`{"k": "v", "n": 3, "b": true}`) into
/// a key → value map. Nested objects and arrays are rejected: the
/// protocol is deliberately one level deep so both sides can stay
/// dependency-free.
pub fn parse_flat_json(line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
    let mut p = FlatParser {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
        return p.finish(map);
    }
    loop {
        p.skip_ws();
        let key = p.parse_string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let value = p.parse_value()?;
        map.insert(key, value);
        p.skip_ws();
        match p.peek() {
            Some(b',') => p.pos += 1,
            Some(b'}') => {
                p.pos += 1;
                return p.finish(map);
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", p.pos)),
        }
    }
}

struct FlatParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl FlatParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn finish(
        &mut self,
        map: BTreeMap<String, JsonValue>,
    ) -> Result<BTreeMap<String, JsonValue>, String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(map)
        } else {
            Err(format!("trailing bytes after object at byte {}", self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters up to the next quote or
            // backslash with one push. Both stop bytes are ASCII and the
            // input is a `&str`, so the run ends on a char boundary.
            let start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // The backslash of an escape.
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".to_string());
                                }
                                self.pos += 1;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".to_string());
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                out.push(char::from_u32(c).ok_or("invalid surrogate pair")?);
                            } else {
                                out.push(char::from_u32(cp).ok_or("invalid \\u escape")?);
                            }
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| "invalid \\u escape")?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape")?;
        self.pos += 4;
        Ok(cp)
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b'{') | Some(b'[') => {
                Err("nested objects/arrays are not part of the flat protocol".to_string())
            }
            Some(b't') => self.parse_lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_lit("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_lit("null", JsonValue::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid number")?;
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("invalid number '{text}'"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// What an analyze request names: a registry workload or inline source,
/// plus a deterministic edit depth.
#[derive(Clone, Debug)]
enum Target {
    Workload { spec: String, edit: u32 },
    Source { src: String, c: bool, edit: u32 },
}

enum Request {
    Analyze {
        target: Target,
        format: Format,
        deadline_ms: Option<u64>,
    },
    Diff {
        old: Target,
        new: Target,
        format: Format,
        deadline_ms: Option<u64>,
    },
    Stats,
    Ping,
    Shutdown,
}

fn get_edit(map: &BTreeMap<String, JsonValue>, key: &str) -> Result<u32, String> {
    match map.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .filter(|&n| n <= 16)
            .map(|n| n as u32)
            .ok_or_else(|| format!("{key} must be an integer in 0..=16")),
    }
}

fn get_format(map: &BTreeMap<String, JsonValue>) -> Result<Format, String> {
    match map.get("format") {
        None => Ok(Format::Text),
        Some(v) => Format::parse(v.as_str().ok_or("format must be a string")?),
    }
}

fn get_deadline(map: &BTreeMap<String, JsonValue>) -> Result<Option<u64>, String> {
    match map.get("deadline_ms") {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| "deadline_ms must be a non-negative integer".to_string()),
    }
}

/// The per-request [`Budget`]: a wall-clock deadline when the client
/// sent `deadline_ms`, unlimited otherwise.
fn budget_for(deadline_ms: Option<u64>) -> Budget {
    match deadline_ms {
        Some(ms) => Budget::with_deadline(Duration::from_millis(ms)),
        None => Budget::unlimited(),
    }
}

impl Request {
    fn from_map(map: &BTreeMap<String, JsonValue>) -> Result<Request, String> {
        let op = map
            .get("op")
            .and_then(|v| v.as_str())
            .ok_or("missing string field \"op\"")?;
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "analyze" => {
                let format = get_format(map)?;
                let deadline_ms = get_deadline(map)?;
                let edit = get_edit(map, "edit")?;
                let target = match (map.get("workload"), map.get("source")) {
                    (Some(w), None) => Target::Workload {
                        spec: w.as_str().ok_or("workload must be a string")?.to_string(),
                        edit,
                    },
                    (None, Some(s)) => Target::Source {
                        src: s.as_str().ok_or("source must be a string")?.to_string(),
                        c: matches!(map.get("frontend").and_then(|v| v.as_str()), Some("c")),
                        edit,
                    },
                    (Some(_), Some(_)) => {
                        return Err("give either \"workload\" or \"source\", not both".into())
                    }
                    (None, None) => {
                        return Err("analyze needs a \"workload\" or \"source\" field".into())
                    }
                };
                Ok(Request::Analyze {
                    target,
                    format,
                    deadline_ms,
                })
            }
            "diff-analyze" => {
                let format = get_format(map)?;
                let deadline_ms = get_deadline(map)?;
                let c = matches!(map.get("frontend").and_then(|v| v.as_str()), Some("c"));
                let (old, new) = match (
                    map.get("workload"),
                    map.get("old_source"),
                    map.get("new_source"),
                ) {
                    (Some(w), None, None) => {
                        let spec = w.as_str().ok_or("workload must be a string")?.to_string();
                        let edit = match get_edit(map, "edit")? {
                            0 => 1, // diff against the unedited base needs an edit
                            n => n,
                        };
                        (
                            Target::Workload {
                                spec: spec.clone(),
                                edit: 0,
                            },
                            Target::Workload { spec, edit },
                        )
                    }
                    (None, Some(o), Some(n)) => (
                        Target::Source {
                            src: o.as_str().ok_or("old_source must be a string")?.to_string(),
                            c,
                            edit: 0,
                        },
                        Target::Source {
                            src: n.as_str().ok_or("new_source must be a string")?.to_string(),
                            c,
                            edit: 0,
                        },
                    ),
                    _ => {
                        return Err("diff-analyze needs \"workload\" (+ optional \"edit\") \
                                    or \"old_source\" and \"new_source\""
                            .into())
                    }
                };
                Ok(Request::Diff {
                    old,
                    new,
                    format,
                    deadline_ms,
                })
            }
            other => Err(format!(
                "unknown op {other:?} (analyze|diff-analyze|stats|ping|shutdown)"
            )),
        }
    }
}

/// Builds the one-line error response for `msg` (protocol-level errors
/// with no pipeline stage).
pub fn error_response(msg: &str) -> String {
    format!("{{\"ok\":false,\"error\":\"{}\"}}", json_escape(msg))
}

/// Builds the one-line error response for a typed pipeline error,
/// tagging the stage it came from (`parse`, `resolve`, `timeout`, …).
pub fn staged_error_response(err: &O2Error) -> String {
    format!(
        "{{\"ok\":false,\"error\":\"{}\",\"stage\":\"{}\"}}",
        json_escape(&err.to_string()),
        err.stage()
    )
}

// ---------------------------------------------------------------------
// Server state.
// ---------------------------------------------------------------------

/// Cumulative request accounting of one server process. Wall-time sums
/// are scheduling-dependent; everything else is a pure function of the
/// request stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Requests received (including malformed ones).
    pub requests: u64,
    /// Successful `analyze` responses.
    pub analyze_ok: u64,
    /// Successful `diff-analyze` responses.
    pub diff_ok: u64,
    /// Error responses (malformed, unknown op, resolution failures).
    pub errors: u64,
    /// Analyze/diff requests answered wholesale from the rendered-report
    /// cache (whole-program digest hit).
    pub report_hits: u64,
    /// Always 0: nothing is replayed below the whole-program report
    /// cache. Kept for the benchmark.
    pub artifact_replays: u64,
    /// Stage totals (method instances + origins + candidate locations)
    /// summed over every analysis run. Kept for the benchmark.
    pub artifact_recomputes: u64,
    /// Analyze/diff requests that ran the pipeline.
    pub cold_requests: u64,
    /// Analyze/diff requests answered from the report cache.
    pub warm_requests: u64,
    /// Total wall milliseconds spent answering cold requests.
    pub cold_ms_total: f64,
    /// Total wall milliseconds spent answering warm requests.
    pub warm_ms_total: f64,
    /// Requests aborted by a per-request `deadline_ms` budget.
    pub timeouts: u64,
    /// Requests answered by the panic backstop (also counted in
    /// `errors`).
    pub panics: u64,
    /// Resolved-program cache hits (request shape seen before).
    pub program_cache_hits: u64,
    /// Resolved-program cache LRU evictions.
    pub program_cache_evictions: u64,
    /// Rendered-report cache hits (lookup found the digest).
    pub report_cache_hits: u64,
    /// Rendered-report cache LRU evictions.
    pub report_cache_evictions: u64,
}

impl ServeStats {
    /// Mean cold-request latency in milliseconds (0 when none).
    pub fn cold_ms_mean(&self) -> f64 {
        if self.cold_requests == 0 {
            0.0
        } else {
            self.cold_ms_total / self.cold_requests as f64
        }
    }

    /// Mean warm-request latency in milliseconds (0 when none).
    pub fn warm_ms_mean(&self) -> f64 {
        if self.warm_requests == 0 {
            0.0
        } else {
            self.warm_ms_total / self.warm_requests as f64
        }
    }
}

/// Kept for the benchmark, which reads `artifacts_accepted`. The
/// artifact pool it counted is gone, so it always reads 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Always 0. Kept for the benchmark.
    pub artifacts_accepted: usize,
}

struct ResolvedProgram {
    name: String,
    program: Program,
    digests: ProgramDigests,
}

/// A bounded map with least-recently-used eviction and hit/evict
/// accounting. A lookup bumps the entry's recency stamp; inserting a
/// new key at capacity evicts the stalest entry instead of clearing the
/// whole cache, so a resident daemon keeps its hot set under an
/// adversarial request stream. Eviction scans all entries for the
/// minimum stamp — O(cap), and the caps are small (hundreds).
struct LruCache<K, V> {
    map: FastMap<K, (V, u64)>,
    tick: u64,
    cap: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    fn new(cap: usize) -> LruCache<K, V> {
        LruCache {
            map: FastMap::default(),
            tick: 0,
            cap: cap.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((v, stamp)) => {
                *stamp = self.tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.cap {
            let stalest = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone());
            if let Some(stalest) = stalest {
                self.map.remove(&stalest);
                self.evictions += 1;
            }
        }
        self.map.insert(key, (value, self.tick));
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (v, _))| (k, v))
    }
}

/// All state one server process shares across requests: the engine
/// configuration, the program / report caches, and the counters. See the
/// module docs for the reentrancy contract.
pub struct ServeState {
    engine: O2,
    /// LRU-bounded caches (cap 512 each): resolved request shapes and
    /// rendered whole-program reports.
    programs: Mutex<LruCache<String, Arc<ResolvedProgram>>>,
    reports: Mutex<LruCache<Digest, Arc<CachedReports>>>,
    stats: Mutex<ServeStats>,
    next_id: AtomicU32,
    shutdown: AtomicBool,
    addr: Mutex<Option<SocketAddr>>,
}

impl ServeState {
    /// Creates server state for `engine` with empty caches.
    pub fn new(engine: O2) -> ServeState {
        ServeState {
            engine,
            programs: Mutex::new(LruCache::new(512)),
            reports: Mutex::new(LruCache::new(512)),
            stats: Mutex::new(ServeStats::default()),
            // ProgramId(0) is reserved for solo runs; request ids start
            // at 1 so a request namespace never masquerades as SOLO.
            next_id: AtomicU32::new(1),
            shutdown: AtomicBool::new(false),
            addr: Mutex::new(None),
        }
    }

    /// The engine this server analyzes with.
    pub fn engine(&self) -> &O2 {
        &self.engine
    }

    /// Seeds the report cache from a persisted database image (the
    /// `--load-db` warm-restart path). Returns how many reports were
    /// seeded; rejects an image recorded under a different
    /// configuration.
    pub fn preseed(&self, image: &AnalysisDb) -> Result<usize, String> {
        if image.config_sig != self.engine.config_sig() {
            return Err(
                "database image was recorded under a different analysis configuration".to_string(),
            );
        }
        let mut cache = self.reports.lock().expect("report cache poisoned");
        for (digest, reports) in &image.reports {
            cache.insert(*digest, Arc::new(reports.clone()));
        }
        Ok(image.reports.len())
    }

    /// A point-in-time image of the report cache (the `--save-db`
    /// path).
    pub fn snapshot_db(&self) -> AnalysisDb {
        let mut db = AnalysisDb::new(self.engine.config_sig());
        let cache = self.reports.lock().expect("report cache poisoned");
        for (digest, reports) in cache.iter() {
            db.reports.insert(*digest, CachedReports::clone(reports));
        }
        db
    }

    /// Point-in-time copy of the request counters, with the cache
    /// hit/evict counters folded in from the two LRU caches.
    pub fn stats(&self) -> ServeStats {
        let mut s = *self.stats.lock().expect("serve stats poisoned");
        {
            let p = self.programs.lock().expect("program cache poisoned");
            s.program_cache_hits = p.hits;
            s.program_cache_evictions = p.evictions;
        }
        {
            let r = self.reports.lock().expect("report cache poisoned");
            s.report_cache_hits = r.hits;
            s.report_cache_evictions = r.evictions;
        }
        s
    }

    /// Kept for the benchmark; always [`StoreStats::default`].
    pub fn store_stats(&self) -> StoreStats {
        StoreStats::default()
    }

    /// Flags the server to stop accepting connections and wakes the
    /// acceptor. In-flight requests finish; idle connections close at
    /// their next read-timeout tick.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let addr = *self.addr.lock().expect("serve addr poisoned");
        if let Some(addr) = addr {
            // Wake the blocking accept() so the acceptor sees the flag.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }

    /// `true` once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn count_error(&self) {
        let mut s = self.stats.lock().expect("serve stats poisoned");
        s.requests += 1;
        s.errors += 1;
    }

    fn count_staged_error(&self, err: &O2Error) {
        let mut s = self.stats.lock().expect("serve stats poisoned");
        s.requests += 1;
        s.errors += 1;
        match err {
            O2Error::Timeout(_) | O2Error::Budget(_) => s.timeouts += 1,
            O2Error::Internal(_) => s.panics += 1,
            _ => {}
        }
    }

    fn count_misc(&self) {
        self.stats.lock().expect("serve stats poisoned").requests += 1;
    }

    fn fresh_program_id(&self) -> ProgramId {
        ProgramId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    // -- program resolution -------------------------------------------

    fn resolve_target(&self, target: &Target) -> Result<Arc<ResolvedProgram>, O2Error> {
        let key = match target {
            Target::Workload { spec, edit } => format!("w\u{1}{spec}\u{1}{edit}"),
            Target::Source { src, c, edit } => {
                let mut h = DigestHasher::with_tag("o2.serve.src.v1");
                h.write_bytes(src.as_bytes());
                h.write_bool(*c);
                h.write_u32(*edit);
                let d = h.finish();
                format!("s\u{1}{:016x}{:016x}", d.0, d.1)
            }
        };
        if let Some(p) = self
            .programs
            .lock()
            .expect("program cache poisoned")
            .get(&key)
        {
            return Ok(p);
        }
        // Resolve outside the lock: generation / parsing can be slow and
        // two concurrent resolutions of the same key are merely wasted
        // work, never wrong.
        let (base_name, mut program, edit) = match target {
            Target::Workload { spec, edit } => {
                let w = o2_workloads::workload_by_name(spec)
                    .ok_or_else(|| O2Error::Resolve(format!("unknown workload {spec:?}")))?;
                (w.name, w.program, *edit)
            }
            Target::Source { src, c, edit } => {
                ("inline".to_string(), crate::parse_program(src, *c)?, *edit)
            }
        };
        if edit > 0 && !has_memory_access(&program) {
            return Err(O2Error::Resolve(
                "program has no memory access to edit".to_string(),
            ));
        }
        for _ in 0..edit {
            program = o2_workloads::single_function_edit(&program).0;
        }
        let name = if edit > 0 {
            format!("{base_name}#edit{edit}")
        } else {
            base_name
        };
        let digests = digest_program(&program);
        let resolved = Arc::new(ResolvedProgram {
            name,
            program,
            digests,
        });
        self.programs
            .lock()
            .expect("program cache poisoned")
            .insert(key, resolved.clone());
        Ok(resolved)
    }

    // -- request handling ---------------------------------------------

    /// Handles one request line; returns the response line (without the
    /// trailing newline) and whether the server should shut down after
    /// sending it.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let t0 = Instant::now();
        let map = match parse_flat_json(line) {
            Ok(m) => m,
            Err(e) => {
                self.count_error();
                return (error_response(&format!("bad request: {e}")), false);
            }
        };
        let req = match Request::from_map(&map) {
            Ok(r) => r,
            Err(e) => {
                self.count_error();
                return (error_response(&e), false);
            }
        };
        match req {
            Request::Ping => {
                self.count_misc();
                ("{\"ok\":true,\"op\":\"ping\"}".to_string(), false)
            }
            Request::Stats => {
                self.count_misc();
                (self.stats_response(), false)
            }
            Request::Shutdown => {
                self.count_misc();
                (
                    "{\"ok\":true,\"op\":\"shutdown\",\"bye\":true}".to_string(),
                    true,
                )
            }
            Request::Analyze {
                target,
                format,
                deadline_ms,
            } => match self.analyze(&target, format, deadline_ms, t0) {
                Ok(resp) => (resp, false),
                Err(e) => {
                    self.count_staged_error(&e);
                    (staged_error_response(&e), false)
                }
            },
            Request::Diff {
                old,
                new,
                format,
                deadline_ms,
            } => match self.diff(&old, &new, format, deadline_ms, t0) {
                Ok(resp) => (resp, false),
                Err(e) => {
                    self.count_staged_error(&e);
                    (staged_error_response(&e), false)
                }
            },
        }
    }

    /// The rendered reports of `resolved`: from the report cache on a
    /// digest hit, else from a cold run that is then cached. Returns the
    /// reports, whether they were a hit, and the run's stage totals (0 on
    /// a hit). A budget trip or caught panic aborts without caching.
    fn reports_for(
        &self,
        resolved: &ResolvedProgram,
        budget: &Budget,
    ) -> Result<(Arc<CachedReports>, bool, usize), O2Error> {
        let digest = resolved.digests.program;
        if let Some(r) = self
            .reports
            .lock()
            .expect("report cache poisoned")
            .get(&digest)
        {
            return Ok((r, true, 0));
        }
        let ctx = ProgramCtx::new(self.fresh_program_id(), &resolved.name, &resolved.program);
        // No `ServeState` lock is held here, so a caught panic poisons
        // nothing shared: it answers an `internal` error and the worker
        // returns to the pool.
        let (cached, recomputes) = O2Error::catch(|| {
            let report = self.engine.try_analyze_ctx(&ctx, budget)?;
            let pipeline = report.run_pipeline(&resolved.program);
            Ok((
                Arc::new(render_reports(&pipeline, &resolved.program)),
                IncrStats::of(&report).recomputes(),
            ))
        })?;
        self.reports
            .lock()
            .expect("report cache poisoned")
            .insert(digest, cached.clone());
        Ok((cached, false, recomputes))
    }

    fn account_analysis(
        &self,
        kind: AnalysisKind,
        digest_hit: bool,
        recomputes: usize,
        wall_ms: f64,
    ) {
        let mut s = self.stats.lock().expect("serve stats poisoned");
        s.requests += 1;
        match kind {
            AnalysisKind::Analyze => s.analyze_ok += 1,
            AnalysisKind::Diff => s.diff_ok += 1,
        }
        s.artifact_recomputes += recomputes as u64;
        if digest_hit {
            s.report_hits += 1;
            s.warm_requests += 1;
            s.warm_ms_total += wall_ms;
        } else {
            s.cold_requests += 1;
            s.cold_ms_total += wall_ms;
        }
    }

    fn analyze(
        &self,
        target: &Target,
        format: Format,
        deadline_ms: Option<u64>,
        t0: Instant,
    ) -> Result<String, O2Error> {
        let budget = budget_for(deadline_ms);
        budget.check("request admission")?;
        let resolved = self.resolve_target(target)?;
        let (reports, digest_hit, recomputes) = self.reports_for(&resolved, &budget)?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.account_analysis(AnalysisKind::Analyze, digest_hit, recomputes, wall_ms);
        let mut out = String::with_capacity(256);
        out.push_str("{\"ok\":true,\"op\":\"analyze\",\"program\":\"");
        out.push_str(&json_escape(&resolved.name));
        out.push('"');
        push_counter_fields(&mut out, reports.n_races, digest_hit, wall_ms);
        push_output(&mut out, format, &reports);
        Ok(out)
    }

    /// Diffs the two versions by their function digests and answers with
    /// the new version's reports (one analysis, or a digest hit).
    fn diff(
        &self,
        old_t: &Target,
        new_t: &Target,
        format: Format,
        deadline_ms: Option<u64>,
        t0: Instant,
    ) -> Result<String, O2Error> {
        let budget = budget_for(deadline_ms);
        budget.check("request admission")?;
        let old = self.resolve_target(old_t)?;
        let new = self.resolve_target(new_t)?;
        let diff = digest_diff(&old.digests, &new.digests);
        let (reports, digest_hit, recomputes) = self.reports_for(&new, &budget)?;
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.account_analysis(AnalysisKind::Diff, digest_hit, recomputes, wall_ms);
        let mut out = String::with_capacity(256);
        out.push_str("{\"ok\":true,\"op\":\"diff-analyze\",\"program\":\"");
        out.push_str(&json_escape(&new.name));
        let _ = {
            use std::fmt::Write as _;
            write!(
                out,
                "\",\"changed\":{},\"added\":{},\"removed\":{}",
                diff.changed.len(),
                diff.added.len(),
                diff.removed.len()
            )
        };
        push_counter_fields(&mut out, reports.n_races, digest_hit, wall_ms);
        push_output(&mut out, format, &reports);
        Ok(out)
    }

    fn stats_response(&self) -> String {
        use std::fmt::Write as _;
        let s = self.stats();
        let cached = self.reports.lock().expect("report cache poisoned").len();
        let cached_programs = self.programs.lock().expect("program cache poisoned").len();
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\"ok\":true,\"op\":\"stats\",\"requests\":{},\"analyze_ok\":{},\"diff_ok\":{},\
             \"errors\":{},\"report_hits\":{},\"cold_requests\":{},\"warm_requests\":{},\
             \"cold_ms_mean\":{:.3},\"warm_ms_mean\":{:.3}",
            s.requests,
            s.analyze_ok,
            s.diff_ok,
            s.errors,
            s.report_hits,
            s.cold_requests,
            s.warm_requests,
            s.cold_ms_mean(),
            s.warm_ms_mean(),
        );
        let _ = write!(
            out,
            ",\"timeouts\":{},\"panics\":{},\"program_cache_hits\":{},\
             \"program_cache_evictions\":{},\"report_cache_hits\":{},\
             \"report_cache_evictions\":{},\"cached_programs\":{cached_programs},\
             \"cached_reports\":{cached}}}",
            s.timeouts,
            s.panics,
            s.program_cache_hits,
            s.program_cache_evictions,
            s.report_cache_hits,
            s.report_cache_evictions,
        );
        out
    }
}

#[derive(Clone, Copy)]
enum AnalysisKind {
    Analyze,
    Diff,
}

pub(crate) fn has_memory_access(p: &Program) -> bool {
    p.methods.iter().any(|m| {
        m.body
            .iter()
            .any(|i| i.stmt.field_access().is_some() || i.stmt.static_access().is_some())
    })
}

/// Writes the counter fields shared by analyze and diff responses. The
/// caller has already closed the `"program"` string.
fn push_counter_fields(out: &mut String, races: u64, digest_hit: bool, wall_ms: f64) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        ",\"races\":{races},\"digest_hit\":{digest_hit},\"wall_ms\":{wall_ms:.3}"
    );
}

fn push_output(out: &mut String, format: Format, reports: &CachedReports) {
    out.push_str(",\"output\":\"");
    out.push_str(&json_escape(format.select(reports)));
    out.push_str("\"}");
}

// ---------------------------------------------------------------------
// The TCP server.
// ---------------------------------------------------------------------

/// Knobs of one server process.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Connection-handling worker threads (0 = available parallelism,
    /// floor 8). Connections use blocking reads, so one worker serves
    /// one connection at a time: concurrency beyond the worker count
    /// queues at the acceptor. Idle workers cost almost nothing (they
    /// block in `recv`/`read`), hence the floor — a single-core host
    /// still serves several clients concurrently.
    pub workers: usize,
    /// Maximum accepted request-line length in bytes.
    pub max_line: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            max_line: DEFAULT_MAX_LINE,
        }
    }
}

/// Runs the accept loop on `listener` until shutdown is requested,
/// dispatching connections to a scoped worker pool. Blocks the calling
/// thread; returns after the last worker exits.
pub fn run(listener: TcpListener, state: &ServeState, opts: &ServeOptions) -> std::io::Result<()> {
    let addr = listener.local_addr()?;
    *state.addr.lock().expect("serve addr poisoned") = Some(addr);
    let workers = if opts.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .max(8)
    } else {
        opts.workers
    };
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let rx = rx.clone();
            scope.spawn(move || loop {
                let next = rx.lock().expect("serve queue poisoned").recv();
                match next {
                    Ok(stream) => handle_conn(state, stream, opts),
                    Err(_) => break, // acceptor gone, queue drained
                }
            });
        }
        for stream in listener.incoming() {
            if state.is_shutting_down() {
                break;
            }
            if let Ok(s) = stream {
                if state.is_shutting_down() {
                    break;
                }
                let _ = tx.send(s);
            }
        }
        drop(tx);
    });
    Ok(())
}

/// Serves one keep-alive connection: reads request lines, answers each,
/// survives malformed and oversized input, and closes on EOF or
/// shutdown.
fn handle_conn(state: &ServeState, stream: TcpStream, opts: &ServeOptions) {
    let _ = stream.set_nodelay(true);
    // Idle reads tick every 200 ms so a shutdown can close the
    // connection without waiting for the client.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut buf: Vec<u8> = Vec::new();
    // `buf[..scanned]` holds no newline: each read is searched once.
    let mut scanned = 0;
    let mut chunk = [0u8; 16384];
    let mut discarding = false;
    loop {
        // Answer every complete line currently buffered.
        while let Some(pos) = find_newline(&buf, scanned) {
            scanned = 0;
            let mut line: Vec<u8> = buf.drain(..=pos).collect();
            line.pop(); // the newline
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.is_empty() {
                continue;
            }
            if line.len() > opts.max_line {
                state.count_error();
                let msg = format!("request line exceeds {} bytes", opts.max_line);
                if write_line(&stream, &error_response(&msg)).is_err() {
                    return;
                }
                continue;
            }
            let (resp, shutdown) = match std::str::from_utf8(&line) {
                Ok(text) => state.handle_line(text),
                Err(_) => {
                    state.count_error();
                    (error_response("request is not valid UTF-8"), false)
                }
            };
            if write_line(&stream, &resp).is_err() {
                return;
            }
            if shutdown {
                state.request_shutdown();
                return;
            }
        }
        // No newline buffered: enforce the line cap before reading more.
        if !discarding && buf.len() > opts.max_line {
            state.count_error();
            let msg = format!(
                "request line exceeds {} bytes; close and resend",
                opts.max_line
            );
            if write_line(&stream, &error_response(&msg)).is_err() {
                return;
            }
            buf.clear();
            discarding = true;
        }
        scanned = buf.len();
        match (&stream).read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => {
                if discarding {
                    // Skip the rest of the oversized line; resume at the
                    // byte after its newline.
                    if let Some(pos) = chunk[..n].iter().position(|&b| b == b'\n') {
                        discarding = false;
                        buf.extend_from_slice(&chunk[pos + 1..n]);
                    }
                } else {
                    buf.extend_from_slice(&chunk[..n]);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state.is_shutting_down() {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Index of the first `\n` in `buf` at or after `from`. Readers pass
/// the length they already searched, so a line that arrives over many
/// reads costs one scan of its bytes, not one per read.
fn find_newline(buf: &[u8], from: usize) -> Option<usize> {
    buf[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| from + i)
}

fn write_line(mut stream: &TcpStream, line: &str) -> std::io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// A server running on a background thread (the in-process harness used
/// by tests and perfbench's serve-mix workload).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared server state (stats, caches, preseed).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Requests shutdown and joins the server thread.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.state.request_shutdown();
        self.thread
            .join()
            .map_err(|_| std::io::Error::other("server thread panicked"))?
    }
}

/// Binds `addr` and runs the server on a background thread.
pub fn spawn(
    addr: impl ToSocketAddrs,
    state: Arc<ServeState>,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let st = state.clone();
    let thread = std::thread::spawn(move || run(listener, &st, &opts));
    Ok(ServerHandle {
        addr: local,
        state,
        thread,
    })
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

/// A blocking protocol client over one keep-alive connection.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Bounds every later read and write on this connection: a reply
    /// that does not arrive within `limit` fails the request instead of
    /// blocking forever.
    pub fn set_timeout(&self, limit: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(limit))?;
        self.stream.set_write_timeout(Some(limit))
    }

    /// Sends one request line and blocks for the one response line.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut chunk = [0u8; 16384];
        let mut scanned = 0;
        loop {
            if let Some(pos) = find_newline(&self.buf, scanned) {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop();
                return String::from_utf8(line)
                    .map_err(|_| std::io::Error::other("response is not UTF-8"));
            }
            let n = (&self.stream).read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            scanned = self.buf.len();
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Sends a request and parses the flat-JSON response.
    pub fn request(&mut self, line: &str) -> Result<BTreeMap<String, JsonValue>, String> {
        let resp = self.send_line(line).map_err(|e| e.to_string())?;
        parse_flat_json(&resp)
    }
}

/// Renders the three solo report forms for `program` under `engine` —
/// the byte-identity oracle used by tests and perfbench. This is
/// exactly what the solo CLI prints per `--format` (with `--quiet`).
pub fn solo_reports(engine: &O2, program: &Program) -> CachedReports {
    render_reports(&engine.analyze(program).run_pipeline(program), program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_roundtrips_escapes() {
        let escaped = json_escape("a\"b\\c\nd\te\u{1}f");
        let line = format!("{{\"k\":\"{escaped}\",\"n\":3,\"b\":true,\"z\":null}}");
        let map = parse_flat_json(&line).unwrap();
        assert_eq!(map["k"].as_str(), Some("a\"b\\c\nd\te\u{1}f"));
        assert_eq!(map["n"].as_u64(), Some(3));
        assert_eq!(map["b"].as_bool(), Some(true));
        assert_eq!(map["z"], JsonValue::Null);
    }

    #[test]
    fn flat_json_rejects_nesting_and_garbage() {
        assert!(parse_flat_json("{\"a\":{}}").is_err());
        assert!(parse_flat_json("{\"a\":[1]}").is_err());
        assert!(parse_flat_json("not json").is_err());
        assert!(parse_flat_json("{\"a\":1} trailing").is_err());
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn megabyte_strings_parse_back_exactly() {
        // Every escape `json_escape` writes, multibyte UTF-8 of every
        // width, and plain ASCII runs, repeated past 1 MB.
        let mut chunk: String = (0u8..0x20).map(char::from).collect();
        chunk.push_str("\"\\/ plain ascii é ß € 😀 𝄞 中文 ");
        let text = chunk.repeat((1 << 20) / chunk.len() + 1);
        assert!(text.len() >= 1 << 20);
        let line = format!("{{\"k\":\"{}\"}}", json_escape(&text));
        let map = parse_flat_json(&line).unwrap();
        assert_eq!(map["k"].as_str(), Some(text.as_str()));
        // The escape forms `json_escape` never writes decode too.
        let map = parse_flat_json("{\"k\":\"a\\/\\b\\f\\u00e9\\ud834\\udd1e\\u4e2dz\"}").unwrap();
        assert_eq!(map["k"].as_str(), Some("a/\u{8}\u{c}é𝄞中z"));
    }

    #[test]
    fn malformed_strings_are_rejected() {
        for bad in [
            "{\"k\":\"abc}",
            "{\"k\":\"abc\\",
            "{\"k\":\"a\\qb\"}",
            "{\"k\":\"\\u12\"}",
            "{\"k\":\"\\u12g4\"}",
            "{\"k\":\"\\ud83dx\"}",
            "{\"k\":\"\\ud83d\\n\"}",
            "{\"k\":\"\\ud83d\\u0041\"}",
            "{\"k\":\"\\ude00\"}",
            "{\"k\":\"é",
        ] {
            assert!(parse_flat_json(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let map = parse_flat_json("{\"k\":\"\\ud83d\\ude00\"}").unwrap();
        assert_eq!(map["k"].as_str(), Some("😀"));
        assert!(parse_flat_json("{\"k\":\"\\ud83d\"}").is_err());
    }

    #[test]
    fn unknown_ops_and_missing_fields_are_errors() {
        let state = ServeState::new(O2::default());
        let (resp, _) = state.handle_line("{\"op\":\"frobnicate\"}");
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("unknown op"), "{resp}");
        let (resp, _) = state.handle_line("{\"op\":\"analyze\"}");
        assert!(resp.contains("\"ok\":false"), "{resp}");
        let s = state.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.errors, 2);
    }

    #[test]
    fn analyze_workload_hits_report_cache_on_repeat() {
        let state = ServeState::new(O2::default());
        let req = "{\"op\":\"analyze\",\"workload\":\"realbug:ZooKeeper\",\"format\":\"json\"}";
        let (cold, _) = state.handle_line(req);
        let cold_map = parse_flat_json(&cold).unwrap();
        assert_eq!(cold_map["ok"].as_bool(), Some(true), "{cold}");
        assert_eq!(cold_map["digest_hit"].as_bool(), Some(false));
        let (warm, _) = state.handle_line(req);
        let warm_map = parse_flat_json(&warm).unwrap();
        assert_eq!(warm_map["digest_hit"].as_bool(), Some(true), "{warm}");
        assert_eq!(
            cold_map["output"].as_str(),
            warm_map["output"].as_str(),
            "cached bytes must match the cold rendering"
        );
        // And both match the solo oracle byte-for-byte.
        let w = o2_workloads::workload_by_name("realbug:ZooKeeper").unwrap();
        let solo = solo_reports(state.engine(), &w.program);
        assert_eq!(cold_map["output"].as_str(), Some(solo.json.as_str()));
        let s = state.stats();
        assert_eq!(s.report_hits, 1);
        assert_eq!(s.cold_requests, 1);
        assert_eq!(s.warm_requests, 1);
    }

    #[test]
    fn diff_analyze_reports_the_edit() {
        let state = ServeState::new(O2::default());
        let (resp, _) =
            state.handle_line("{\"op\":\"diff-analyze\",\"workload\":\"realbug:ZooKeeper\"}");
        let map = parse_flat_json(&resp).unwrap();
        assert_eq!(map["ok"].as_bool(), Some(true), "{resp}");
        assert_eq!(map["changed"].as_u64(), Some(1), "{resp}");
        assert_eq!(map["digest_hit"].as_bool(), Some(false), "{resp}");
        // The edited program's output matches a solo run of the edited
        // program.
        let w = o2_workloads::workload_by_name("realbug:ZooKeeper").unwrap();
        let (edited, _) = o2_workloads::single_function_edit(&w.program);
        let solo = solo_reports(state.engine(), &edited);
        assert_eq!(map["output"].as_str(), Some(solo.text.as_str()));
    }
}
