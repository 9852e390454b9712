//! Strongly typed identifiers used throughout the IR.
//!
//! Every entity in a [`crate::Design`] — modules, FIFOs, arrays, AXI ports,
//! basic blocks, local variables and named outputs — is referenced by a small
//! index newtype rather than a string, following the newtype guidance of the
//! Rust API guidelines (`C-NEWTYPE`). Indices are only meaningful relative to
//! the design (or, for [`VarId`] and [`BlockId`], the module) that created
//! them.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index wrapped by this identifier.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an identifier from a raw index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in a `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("identifier index overflows u32"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifies a [`crate::Module`] within a design.
    ModuleId,
    "m"
);
id_type!(
    /// Identifies a FIFO channel ([`crate::FifoSpec`]) within a design.
    FifoId,
    "f"
);
id_type!(
    /// Identifies a global array ([`crate::ArraySpec`]) within a design.
    ArrayId,
    "a"
);
id_type!(
    /// Identifies an AXI port ([`crate::AxiPortSpec`]) within a design.
    AxiId,
    "axi"
);
id_type!(
    /// Identifies a basic block within a module.
    BlockId,
    "bb"
);
id_type!(
    /// Identifies a local variable (virtual register) within a module.
    VarId,
    "v"
);
id_type!(
    /// Identifies a named testbench-visible output of the design.
    OutputId,
    "out"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let id = ModuleId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(usize::from(id), 7);
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(FifoId(3).to_string(), "f3");
        assert_eq!(BlockId(0).to_string(), "bb0");
        assert_eq!(VarId(12).to_string(), "v12");
        assert_eq!(AxiId(1).to_string(), "axi1");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(VarId(1) < VarId(2));
        assert_eq!(ModuleId(4), ModuleId::from_index(4));
    }

    #[test]
    #[should_panic(expected = "identifier index overflows u32")]
    fn from_index_overflow_panics() {
        let _ = VarId::from_index(usize::MAX);
    }
}
