//! # o2-ir — the intermediate representation of the O2 race detector
//!
//! This crate defines the mid-level IR shared by every analysis in the O2
//! reproduction (PLDI 2021, *"When Threads Meet Events: Efficient and
//! Precise Static Race Detection with Origins"*):
//!
//! - [`program`] — classes with virtual dispatch, methods, and the
//!   statement forms that the paper's Table 2 (pointer-analysis rules) and
//!   Table 4 (static happens-before rules) are defined over;
//! - [`origins`] — origin kinds and entry-point recognition (Table 1);
//! - [`builder`] — a programmatic construction API;
//! - [`parser`] — a small Java-like textual frontend;
//! - [`printer`] — pretty-printing back to the surface syntax;
//! - [`validate`] — structural well-formedness checks;
//! - [`util`] — sparse sets and interners used by the analyses, and the
//!   JSON string escaper.
//!
//! ## Example
//!
//! ```
//! use o2_ir::parser::parse;
//!
//! let program = parse(r#"
//!     class Worker impl Runnable {
//!         method run() { }
//!     }
//!     class Main {
//!         static method main() {
//!             w = new Worker();
//!             w.start();
//!             join w;
//!         }
//!     }
//! "#).unwrap();
//! let worker = program.class_by_name("Worker").unwrap();
//! assert!(program.is_origin_class(worker));
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cfront;
pub mod ctx;
pub mod digest;
pub mod error;
pub mod ids;
pub mod origins;
pub mod parser;
pub mod printer;
pub mod program;
pub mod util;
pub mod validate;

pub use ctx::ProgramCtx;
pub use digest::{digest_diff, digest_program, fn_digest, DigestDiff, ProgramDigests};
pub use error::{Budget, O2Error};
pub use ids::{ClassId, FieldId, GStmt, MethodId, ProgramId, VarId, ARRAY_FIELD};
pub use origins::{EntryPointConfig, OriginKind};
pub use program::{structurally_equal, Callee, Class, Instr, Method, Program, Selector, Stmt};
pub use util::json_escape;
