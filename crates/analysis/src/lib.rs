//! # o2-analysis — origin-sharing analysis and the escape baseline
//!
//! Two analyses sit between the pointer analysis and race detection:
//!
//! - [`osa`] — **origin-sharing analysis** (Algorithm 1 of the paper): a
//!   linear scan computing, per abstract memory location, the sets of
//!   origins that read and write it. Race detection only needs to check
//!   locations that are origin-shared with at least one writer.
//! - [`escape`] — a classic thread-escape analysis used as the comparison
//!   baseline in Table 7: coarser (no read/write origin information) and
//!   conservative about statics.
//!
//! ```
//! use o2_ir::parser::parse;
//! use o2_ir::ProgramCtx;
//! use o2_pta::{analyze, Policy, PtaConfig};
//! use o2_analysis::osa::run_osa;
//!
//! let program = parse(r#"
//!     class S { field data; }
//!     class W impl Runnable {
//!         field s;
//!         method <init>(s) { this.s = s; }
//!         method run() { s = this.s; s.data = s; }
//!     }
//!     class Main {
//!         static method main() {
//!             s = new S();
//!             w = new W(s);
//!             w.start();
//!             x = s.data;
//!         }
//!     }
//! "#).unwrap();
//! let ctx = ProgramCtx::solo(&program);
//! let pta = analyze(&ctx, &PtaConfig::with_policy(Policy::origin1()));
//! let osa = run_osa(&ctx, &pta);
//! // S.data (thread writes / main reads) plus the constructor handoff W.s.
//! assert_eq!(osa.shared_entries().count(), 2);
//! ```

#![warn(missing_docs)]

pub mod escape;
pub mod loc;
pub mod osa;

pub use escape::{run_escape, EscapeResult};
pub use loc::{LocId, LocTable};
pub use osa::{run_osa, run_osa_bounded, Access, MemKey, OsaResult, SharingEntry};
