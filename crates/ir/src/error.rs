//! The typed error plane shared by every layer of the pipeline.
//!
//! [`O2Error`] is the one error type that crosses crate boundaries: each
//! variant names the pipeline stage that failed, so the CLI can map it to
//! a distinct exit code, `o2 batch` can record it as a per-program corpus
//! entry, and `o2 serve` can answer it as a structured wire error — all
//! without ever panicking on user input.
//!
//! [`Budget`] is the companion request-lifecycle type: a wall-clock
//! deadline plus a step counter, checked at stage boundaries, in the OPA
//! solver's iteration loop, and in the detect candidate loop.
//! Unlike the per-stage *truncation* budgets ([`PtaConfig::timeout`]
//! and friends, which degrade the result and keep going), an exceeded
//! `Budget` aborts the request with [`O2Error::Timeout`] /
//! [`O2Error::Budget`] so a daemon worker can return to its pool.
//!
//! [`PtaConfig::timeout`]: https://docs.rs/o2-pta

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A stage-tagged pipeline error. Every failure reachable from user
/// input — malformed source, an unknown workload, an exceeded request
/// deadline, a corrupt database image — is one of these, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum O2Error {
    /// Front-end rejection, with the 1-based source position. `line` 0
    /// means the error is program-level (e.g. a missing `main`) rather
    /// than anchored to a token.
    Parse {
        /// 1-based source line (0 = whole-program).
        line: u32,
        /// 1-based source column (0 = whole-line).
        col: u32,
        /// Human-readable message.
        message: String,
    },
    /// Name resolution / validation failure: unknown workload or class,
    /// structurally invalid program, bad manifest entry.
    Resolve(String),
    /// The origin-sensitive pointer analysis failed.
    Pta(String),
    /// The origin-sharing analysis failed.
    Analysis(String),
    /// Race detection failed.
    Detect(String),
    /// The incremental database is corrupt or incompatible.
    Db(String),
    /// An I/O failure (file read/write, socket).
    Io(String),
    /// A wall-clock deadline (set by [`Budget::with_deadline`]) expired.
    Timeout(String),
    /// A step budget (set by [`Budget::with_max_steps`]) was exhausted.
    Budget(String),
    /// A caught panic — the backstop of last resort. Request and batch
    /// boundaries convert any residual panic into this variant so one
    /// bad program can never take a worker down.
    Internal(String),
}

impl O2Error {
    /// The lowercase stage tag (`parse`, `resolve`, …) used in wire
    /// responses and corpus error entries.
    pub fn stage(&self) -> &'static str {
        match self {
            O2Error::Parse { .. } => "parse",
            O2Error::Resolve(_) => "resolve",
            O2Error::Pta(_) => "pta",
            O2Error::Analysis(_) => "analysis",
            O2Error::Detect(_) => "detect",
            O2Error::Db(_) => "db",
            O2Error::Io(_) => "io",
            O2Error::Timeout(_) => "timeout",
            O2Error::Budget(_) => "budget",
            O2Error::Internal(_) => "internal",
        }
    }

    /// The CLI exit code for this stage. Distinct per stage so scripts
    /// can tell a parse rejection from a deadline kill; disjoint from
    /// the success-path codes (0 = clean, 1 = races found, 2 = usage).
    pub fn exit_code(&self) -> u8 {
        match self {
            O2Error::Parse { .. } => 10,
            O2Error::Resolve(_) => 11,
            O2Error::Pta(_) => 12,
            O2Error::Analysis(_) => 13,
            O2Error::Detect(_) => 14,
            O2Error::Db(_) => 15,
            O2Error::Io(_) => 16,
            O2Error::Timeout(_) => 17,
            O2Error::Budget(_) => 18,
            O2Error::Internal(_) => 19,
        }
    }

    /// The human-readable message without the stage prefix.
    pub fn message(&self) -> &str {
        match self {
            O2Error::Parse { message, .. }
            | O2Error::Resolve(message)
            | O2Error::Pta(message)
            | O2Error::Analysis(message)
            | O2Error::Detect(message)
            | O2Error::Db(message)
            | O2Error::Io(message)
            | O2Error::Timeout(message)
            | O2Error::Budget(message)
            | O2Error::Internal(message) => message,
        }
    }

    /// Runs `f` under the pipeline's one panic backstop: a panic anywhere
    /// inside becomes [`O2Error::Internal`] (carrying the panic message
    /// when it was a string) instead of unwinding further, so one bad
    /// program can never take down the CLI, a batch worker or a daemon
    /// worker. Each front end wraps a program's whole work in one call:
    /// analysis, the precision passes and rendering. The caller must not
    /// hold a lock across `f`, so a caught panic poisons nothing shared.
    ///
    /// # Errors
    ///
    /// The error `f` returns, or [`O2Error::Internal`] if `f` panicked.
    pub fn catch<T>(f: impl FnOnce() -> Result<T, O2Error>) -> Result<T, O2Error> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
            let msg: &str = if let Some(s) = payload.downcast_ref::<&str>() {
                s
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s
            } else {
                "panic with non-string payload"
            };
            Err(O2Error::Internal(format!("caught panic: {msg}")))
        })
    }
}

impl fmt::Display for O2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            O2Error::Parse { line, col, message } if *line > 0 && *col > 0 => {
                write!(f, "parse error at line {line}, col {col}: {message}")
            }
            O2Error::Parse { line, message, .. } if *line > 0 => {
                write!(f, "parse error at line {line}: {message}")
            }
            O2Error::Parse { message, .. } => write!(f, "parse error: {message}"),
            other => write!(f, "{} error: {}", other.stage(), other.message()),
        }
    }
}

impl Error for O2Error {}

impl From<std::io::Error> for O2Error {
    fn from(e: std::io::Error) -> Self {
        O2Error::Io(e.to_string())
    }
}

impl From<crate::parser::ParseError> for O2Error {
    fn from(e: crate::parser::ParseError) -> Self {
        O2Error::Parse {
            line: e.line,
            col: e.col,
            message: e.message,
        }
    }
}

/// A request-scoped execution budget: an optional wall-clock deadline
/// plus an optional step ceiling, shared (by reference) across every
/// stage of one analysis. All state is atomic or immutable, so a
/// `Budget` is `Sync`.
///
/// The checkpoints are deliberately coarse — stage boundaries, every
/// 256 OPA solver iterations, every detect candidate — so an unlimited
/// budget costs two atomic loads per checkpoint and nothing in the
/// inner pair loops.
#[derive(Debug)]
pub struct Budget {
    /// Absolute wall-clock deadline, if any.
    deadline: Option<Instant>,
    /// Step ceiling (`u64::MAX` = unlimited).
    max_steps: u64,
    /// Steps consumed so far, across all stages.
    steps: AtomicU64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget that never expires (the solo-CLI default).
    pub fn unlimited() -> Budget {
        Budget {
            deadline: None,
            max_steps: u64::MAX,
            steps: AtomicU64::new(0),
        }
    }

    /// A budget that expires `timeout` from now.
    pub fn with_deadline(timeout: Duration) -> Budget {
        Budget {
            deadline: Instant::now().checked_add(timeout),
            max_steps: u64::MAX,
            steps: AtomicU64::new(0),
        }
    }

    /// A budget with a step ceiling and no deadline.
    pub fn with_max_steps(max_steps: u64) -> Budget {
        Budget {
            deadline: None,
            max_steps,
            steps: AtomicU64::new(0),
        }
    }

    /// `true` if neither a deadline nor a step ceiling is set — hot
    /// loops skip polling entirely in that case.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_steps == u64::MAX
    }

    /// Records `n` units of work against the step ceiling.
    pub fn step(&self, n: u64) {
        if self.max_steps != u64::MAX {
            self.steps.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Cheap poll: `true` once the budget is exhausted. Safe to call
    /// from any thread at any frequency.
    pub fn exceeded(&self) -> bool {
        if self.max_steps != u64::MAX && self.steps.load(Ordering::Relaxed) > self.max_steps {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() > d,
            None => false,
        }
    }

    /// Checkpoint: returns the stage-tagged error if the budget is
    /// exhausted, `Ok(())` otherwise. `at` names the checkpoint for the
    /// error message (`"pta"`, `"detect"`, `"osa"`, …).
    pub fn check(&self, at: &str) -> Result<(), O2Error> {
        if self.max_steps != u64::MAX && self.steps.load(Ordering::Relaxed) > self.max_steps {
            return Err(O2Error::Budget(format!(
                "step budget of {} exhausted at {at}",
                self.max_steps
            )));
        }
        if let Some(d) = self.deadline {
            if Instant::now() > d {
                return Err(O2Error::Timeout(format!("deadline exceeded at {at}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_and_exit_codes_are_distinct() {
        let errs = [
            O2Error::Parse {
                line: 1,
                col: 2,
                message: "x".into(),
            },
            O2Error::Resolve("x".into()),
            O2Error::Pta("x".into()),
            O2Error::Analysis("x".into()),
            O2Error::Detect("x".into()),
            O2Error::Db("x".into()),
            O2Error::Io("x".into()),
            O2Error::Timeout("x".into()),
            O2Error::Budget("x".into()),
            O2Error::Internal("x".into()),
        ];
        let mut stages: Vec<&str> = errs.iter().map(|e| e.stage()).collect();
        let mut codes: Vec<u8> = errs.iter().map(|e| e.exit_code()).collect();
        stages.sort_unstable();
        stages.dedup();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(stages.len(), errs.len());
        assert_eq!(codes.len(), errs.len());
        // Exit codes stay clear of 0 (clean), 1 (races), 2 (usage).
        assert!(codes.iter().all(|&c| c >= 10));
    }

    #[test]
    fn parse_display_includes_position() {
        let e = O2Error::Parse {
            line: 3,
            col: 7,
            message: "expected identifier".into(),
        };
        assert_eq!(
            e.to_string(),
            "parse error at line 3, col 7: expected identifier"
        );
        let e0 = O2Error::Parse {
            line: 0,
            col: 0,
            message: "no static zero-argument main method".into(),
        };
        assert!(e0.to_string().starts_with("parse error: "));
    }

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        b.step(1_000_000);
        assert!(!b.exceeded());
        assert!(b.check("anywhere").is_ok());
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let b = Budget::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.exceeded());
        let err = b.check("pta").unwrap_err();
        assert_eq!(err.stage(), "timeout");
        assert_eq!(err.exit_code(), 17);
    }

    #[test]
    fn step_budget_trips_as_budget_stage() {
        let b = Budget::with_max_steps(10);
        b.step(11);
        assert!(b.exceeded());
        let err = b.check("detect").unwrap_err();
        assert_eq!(err.stage(), "budget");
        assert!(err.message().contains("detect"), "{err}");
    }

    #[test]
    fn catch_turns_panics_into_internal_errors() {
        let e = O2Error::catch(|| -> Result<(), O2Error> { panic!("boom") }).unwrap_err();
        assert_eq!(e.stage(), "internal");
        assert!(e.message().contains("boom"));
        let e = O2Error::catch(|| -> Result<(), O2Error> { panic!("{}", "ouch") }).unwrap_err();
        assert!(e.message().contains("ouch"));
        assert_eq!(O2Error::catch(|| Ok(7)), Ok(7));
        let err = O2Error::Resolve("x".into());
        assert_eq!(O2Error::catch(|| Err::<(), _>(err.clone())), Err(err));
    }

    #[test]
    fn budget_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Budget>();
    }
}
