//! Compact index-based identifiers used throughout the workspace.
//!
//! Every table in the IR (classes, methods, fields, …) is an append-only
//! `Vec`; an identifier is just the index into that table wrapped in a
//! newtype so indices into different tables cannot be confused
//! (C-NEWTYPE).

use std::fmt;

/// Defines a `u32`-backed index newtype with the usual conversions.
macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an identifier from a raw table index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_usize(index: usize) -> Self {
                $name(u32::try_from(index).expect("id overflow"))
            }

            /// Returns the identifier as a table index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifier of a class in [`crate::Program::classes`].
    ClassId,
    "c"
);
define_id!(
    /// Identifier of a method in [`crate::Program::methods`].
    MethodId,
    "m"
);
define_id!(
    /// Identifier of an interned field name in [`crate::Program::fields`].
    ///
    /// Field identity is name-based (as in RacerD and LLVM-offset style
    /// frontends); abstract objects are class-tagged, so `(object, field)`
    /// access keys still distinguish same-named fields of unrelated classes.
    FieldId,
    "f"
);
define_id!(
    /// Identifier of a local variable, scoped to one [`crate::Method`].
    VarId,
    "v"
);
define_id!(
    /// Identifier of one program in a multi-program (batch) run.
    ///
    /// Every interned-id table of the data plane (`LocTable`, the SHB
    /// graph, …) records the `ProgramId` it was built for, so dense
    /// ids from different programs can never be confused even when many
    /// analyses coexist in one process. Single-program entry points use
    /// [`ProgramId::SOLO`].
    ProgramId,
    "p"
);

impl ProgramId {
    /// The program id used by single-program (non-batch) analyses.
    pub const SOLO: ProgramId = ProgramId(0);
}

/// The reserved field identifier representing all array elements (`*`).
///
/// Arrays are modeled with a single smashed element field, as in §3.2 of the
/// paper: `x[idx] = y` is treated as `x.* = y`.
pub const ARRAY_FIELD: FieldId = FieldId(0);

/// A globally unique statement position: `method` plus the statement index
/// inside that method's body.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GStmt {
    /// The enclosing method.
    pub method: MethodId,
    /// Index into [`crate::Method::body`].
    pub index: u32,
}

impl GStmt {
    /// Creates a global statement id.
    #[inline]
    pub fn new(method: MethodId, index: usize) -> Self {
        GStmt {
            method,
            index: u32::try_from(index).expect("statement index overflow"),
        }
    }
}

impl fmt::Debug for GStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.method, self.index)
    }
}

impl fmt::Display for GStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.method, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let c = ClassId::from_usize(7);
        assert_eq!(c.index(), 7);
        assert_eq!(format!("{c}"), "c7");
        assert_eq!(format!("{c:?}"), "c7");
    }

    #[test]
    fn gstmt_ordering_follows_program_order() {
        let m = MethodId(3);
        assert!(GStmt::new(m, 0) < GStmt::new(m, 1));
        assert!(GStmt::new(MethodId(2), 9) < GStmt::new(m, 0));
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn overflow_panics() {
        let _ = ClassId::from_usize(usize::MAX);
    }
}
