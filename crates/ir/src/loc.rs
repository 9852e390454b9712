//! A typed location inside a design.
//!
//! Validation errors ([`crate::IrError`]) and static-analyzer diagnostics
//! (`omnisim-analyze`) both need to point at "where" in a design something
//! went wrong. [`Loc`] is that shared currency: an optional module / block /
//! op-index triple, precise down to whatever granularity the reporting pass
//! actually knows. Entity identifiers (the FIFO, array or AXI port involved)
//! stay on the individual error or diagnostic — a location says *where the
//! code is*, not *what it touches*.

use crate::ids::{BlockId, ModuleId};
use std::fmt;

/// Where in a design an error or diagnostic points: a module, optionally a
/// basic block within it, optionally an op index within that block.
///
/// Ordering of precision is strictly nested: an op index without a block, or
/// a block without a module, is never produced by the constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Loc {
    /// Module the location points into, if known.
    pub module: Option<ModuleId>,
    /// Basic block within the module, if known.
    pub block: Option<BlockId>,
    /// Index of the op within the block's program order, if known.
    pub op: Option<usize>,
}

impl Loc {
    /// A location pointing nowhere (design-wide findings).
    pub const NONE: Loc = Loc {
        module: None,
        block: None,
        op: None,
    };

    /// A module-level location.
    pub fn module(module: ModuleId) -> Self {
        Loc {
            module: Some(module),
            block: None,
            op: None,
        }
    }

    /// A block-level location.
    pub fn block(module: ModuleId, block: BlockId) -> Self {
        Loc {
            module: Some(module),
            block: Some(block),
            op: None,
        }
    }

    /// An op-level location: `op` is the index into the block's op list.
    pub fn op(module: ModuleId, block: BlockId, op: usize) -> Self {
        Loc {
            module: Some(module),
            block: Some(block),
            op: Some(op),
        }
    }

    /// True if the location carries no information at all.
    pub fn is_none(&self) -> bool {
        self.module.is_none()
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.module, self.block, self.op) {
            (Some(m), Some(b), Some(o)) => write!(f, "{m}/{b}/op{o}"),
            (Some(m), Some(b), None) => write!(f, "{m}/{b}"),
            (Some(m), None, _) => write!(f, "{m}"),
            (None, _, _) => write!(f, "<design>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_narrows_with_precision() {
        assert_eq!(Loc::NONE.to_string(), "<design>");
        assert_eq!(Loc::module(ModuleId(1)).to_string(), "m1");
        assert_eq!(Loc::block(ModuleId(1), BlockId(2)).to_string(), "m1/bb2");
        assert_eq!(
            Loc::op(ModuleId(1), BlockId(2), 3).to_string(),
            "m1/bb2/op3"
        );
    }

    #[test]
    fn none_detection() {
        assert!(Loc::NONE.is_none());
        assert!(!Loc::module(ModuleId(0)).is_none());
    }
}
