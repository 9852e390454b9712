//! # omnisim-graph
//!
//! Simulation-graph data structures shared by the LightningSim baseline and
//! the OmniSim engine.
//!
//! A *simulation graph* records the events of one simulation run — FIFO
//! accesses, task starts/ends, block boundaries — as nodes, and the timing
//! constraints between them as weighted edges (`to` happens at least `weight`
//! cycles after `from`). Every node also carries a *base* cycle, the earliest
//! time permitted by its module's own static schedule. The hardware time of a
//! node is the longest-path value over base times and edges; the design
//! latency is the maximum over all nodes.
//!
//! Two representations are provided, mirroring §7.3.1 of the paper:
//!
//! * [`EventGraph`] — an adjacency-list graph optimised for *online*
//!   construction and zero-copy traversal of a partially built graph, with
//!   one inline predecessor edge per node to minimise pointer chasing. This
//!   is what the OmniSim engine uses.
//! * [`CsrGraph`] — a compressed-sparse-row graph built once after trace
//!   generation, as LightningSimV2 does. Cheaper to traverse, but it cannot
//!   be extended after construction.
//!
//! Both support *overlay edges*: longest-path analysis can be re-run with an
//! extra set of edges (the depth-dependent write-after-read constraints)
//! without mutating the graph, which is what makes incremental FIFO-depth
//! re-simulation (§7.2, Table 6) cheap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adjacency;
pub mod algo;
pub mod csr;
pub mod scc;

pub use adjacency::EventGraph;
pub use algo::{longest_path, CycleError, Edge};
pub use csr::{CsrGraph, CsrGraphBuilder};
pub use scc::{component_is_cyclic, strongly_connected_components};

use std::fmt;

/// Identifies a node of a simulation graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the raw index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Creates a node identifier from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
