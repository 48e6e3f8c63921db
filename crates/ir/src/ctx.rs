//! Per-program analysis context: the namespacing handle of the data
//! plane.
//!
//! Every analysis stage (OPA, OSA, SHB, detection, the precision
//! pipeline) takes a [`ProgramCtx`] instead of a bare
//! [`Program`]. The context carries the dense
//! [`ProgramId`] that all interned-id tables of the run hang off
//! (`LocTable`, the SHB graph), so many programs can be
//! analyzed concurrently in one process without their id spaces ever
//! mixing: a table built for one context panics (in debug builds) when
//! handed to a stage running under another.
//!
//! A `ProgramCtx` is a cheap `Copy` of borrows — it owns nothing, holds
//! no `&'static` data, and has no global registry behind it. Two
//! contexts are fully independent: batch analyses share no interned
//! state at all.

use crate::ids::ProgramId;
use crate::program::Program;

/// A program plus its batch identity: the value every analysis entry
/// point is keyed by.
#[derive(Clone, Copy, Debug)]
pub struct ProgramCtx<'p> {
    id: ProgramId,
    name: &'p str,
    program: &'p Program,
}

impl<'p> ProgramCtx<'p> {
    /// Creates a context for program `id` named `name` (the manifest /
    /// corpus-report name in batch runs).
    pub fn new(id: ProgramId, name: &'p str, program: &'p Program) -> Self {
        ProgramCtx { id, name, program }
    }

    /// The context used by single-program entry points ([`ProgramId::SOLO`],
    /// empty name). Dense ids from two `solo` contexts still must not be
    /// mixed — the id is a namespace label, not a uniqueness guarantee.
    pub fn solo(program: &'p Program) -> Self {
        ProgramCtx {
            id: ProgramId::SOLO,
            name: "",
            program,
        }
    }

    /// The dense program id all of this run's interned tables carry.
    #[inline]
    pub fn id(&self) -> ProgramId {
        self.id
    }

    /// The program's display name ("" for solo runs).
    #[inline]
    pub fn name(&self) -> &'p str {
        self.name
    }

    /// The program under analysis.
    #[inline]
    pub fn program(&self) -> &'p Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn solo_and_named_contexts() {
        let p = parse("class Main { static method main() { } }").unwrap();
        let solo = ProgramCtx::solo(&p);
        assert_eq!(solo.id(), ProgramId::SOLO);
        assert_eq!(solo.name(), "");
        let named = ProgramCtx::new(ProgramId(3), "avrora", &p);
        assert_eq!(named.id(), ProgramId(3));
        assert_eq!(named.name(), "avrora");
        assert!(std::ptr::eq(named.program(), &p));
    }
}
