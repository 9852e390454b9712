//! Top-level design containers: designs, modules, FIFOs, arrays, AXI ports.

use crate::ids::{ArrayId, AxiId, FifoId, ModuleId, OutputId};
use crate::op::Block;
use std::collections::BTreeMap;

/// A FIFO channel connecting exactly one producer module to one consumer
/// module, as in `hls::stream<T>` with `#pragma HLS stream depth=N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FifoSpec {
    /// Human-readable channel name.
    pub name: String,
    /// Capacity in elements. Must be at least one.
    pub depth: usize,
}

/// A global array visible to all modules: testbench inputs, outputs and
/// on-chip buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArraySpec {
    /// Human-readable array name.
    pub name: String,
    /// Initial contents; the array length is `init.len()`.
    pub init: Vec<i64>,
}

/// An AXI master port backed by a global array, with a fixed request latency
/// (the number of cycles between a burst request and its first beat).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxiPortSpec {
    /// Human-readable port name.
    pub name: String,
    /// Backing memory for the port.
    pub array: ArrayId,
    /// Cycles between a read/write request and the first data beat.
    pub request_latency: u64,
}

/// Distinguishes dataflow regions from ordinary scheduled functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleKind {
    /// A dataflow region: its children execute concurrently, connected by
    /// FIFOs, and the region completes when every child has returned.
    Dataflow {
        /// Child modules launched by the region.
        children: Vec<ModuleId>,
    },
    /// An ordinary function lowered to scheduled basic blocks.
    Function,
}

/// One hardware module (an HLS function).
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Human-readable module name.
    pub name: String,
    /// Whether this is a dataflow region or a scheduled function.
    pub kind: ModuleKind,
    /// Basic blocks; index 0 is the entry block. Empty for dataflow regions.
    pub blocks: Vec<Block>,
    /// Number of local variables (virtual registers) used by the blocks.
    pub num_vars: u32,
    /// Debug names of the local variables, indexed by `VarId`.
    pub var_names: Vec<String>,
}

impl Module {
    /// Returns the children of a dataflow region, or an empty slice for a
    /// function module.
    pub fn children(&self) -> &[ModuleId] {
        match &self.kind {
            ModuleKind::Dataflow { children } => children,
            ModuleKind::Function => &[],
        }
    }

    /// True if this module is a dataflow region.
    pub fn is_dataflow(&self) -> bool {
        matches!(self.kind, ModuleKind::Dataflow { .. })
    }

    /// Total number of scheduled operations across all blocks.
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len()).sum()
    }
}

/// A complete hardware design plus its testbench-visible environment
/// (input arrays, declared outputs).
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Design name (used in reports and benchmark tables).
    pub name: String,
    /// All modules; `top` is the simulation entry point.
    pub modules: Vec<Module>,
    /// FIFO channels.
    pub fifos: Vec<FifoSpec>,
    /// Global arrays.
    pub arrays: Vec<ArraySpec>,
    /// AXI master ports.
    pub axi_ports: Vec<AxiPortSpec>,
    /// Names of the testbench-visible scalar outputs, indexed by `OutputId`.
    pub outputs: Vec<String>,
    /// The top-level module started by the testbench.
    pub top: ModuleId,
}

impl Design {
    /// Looks up a module.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range for this design.
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// Looks up a FIFO specification.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range for this design.
    pub fn fifo(&self, id: FifoId) -> &FifoSpec {
        &self.fifos[id.index()]
    }

    /// Looks up an array specification.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range for this design.
    pub fn array(&self, id: ArrayId) -> &ArraySpec {
        &self.arrays[id.index()]
    }

    /// Looks up an AXI port specification.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range for this design.
    pub fn axi_port(&self, id: AxiId) -> &AxiPortSpec {
        &self.axi_ports[id.index()]
    }

    /// Returns the name of a testbench-visible output.
    ///
    /// # Panics
    ///
    /// Panics if the identifier is out of range for this design.
    pub fn output_name(&self, id: OutputId) -> &str {
        &self.outputs[id.index()]
    }

    /// Finds a module by name.
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.modules
            .iter()
            .position(|m| m.name == name)
            .map(ModuleId::from_index)
    }

    /// Finds a FIFO by name.
    pub fn fifo_by_name(&self, name: &str) -> Option<FifoId> {
        self.fifos
            .iter()
            .position(|f| f.name == name)
            .map(FifoId::from_index)
    }

    /// Finds an output slot by name.
    pub fn output_by_name(&self, name: &str) -> Option<OutputId> {
        self.outputs
            .iter()
            .position(|o| o == name)
            .map(OutputId::from_index)
    }

    /// Identifiers of every module, in declaration order.
    pub fn module_ids(&self) -> impl Iterator<Item = ModuleId> {
        (0..self.modules.len()).map(ModuleId::from_index)
    }

    /// Identifiers of every FIFO, in declaration order.
    pub fn fifo_ids(&self) -> impl Iterator<Item = FifoId> {
        (0..self.fifos.len()).map(FifoId::from_index)
    }

    /// Returns the FIFO depths as a vector indexed by [`FifoId`].
    pub fn fifo_depths(&self) -> Vec<usize> {
        self.fifos.iter().map(|f| f.depth).collect()
    }

    /// Returns a copy of this design with the FIFO depths replaced.
    ///
    /// Used by the incremental-simulation experiments (Table 6) and FIFO
    /// sizing design-space exploration.
    ///
    /// # Panics
    ///
    /// Panics if `depths.len()` does not match the number of FIFOs or if any
    /// depth is zero.
    pub fn with_fifo_depths(&self, depths: &[usize]) -> Design {
        assert_eq!(
            depths.len(),
            self.fifos.len(),
            "depth vector length must match the number of FIFOs"
        );
        assert!(
            depths.iter().all(|&d| d > 0),
            "FIFO depths must be at least one"
        );
        let mut clone = self.clone();
        for (spec, &depth) in clone.fifos.iter_mut().zip(depths) {
            spec.depth = depth;
        }
        clone
    }

    /// Total number of scheduled operations in the design.
    pub fn op_count(&self) -> usize {
        self.modules.iter().map(|m| m.op_count()).sum()
    }

    /// Dataflow tasks (leaf function modules) launched by the top module if
    /// it is a dataflow region; otherwise just the top module itself.
    pub fn dataflow_tasks(&self) -> Vec<ModuleId> {
        let top = self.module(self.top);
        if top.is_dataflow() {
            top.children().to_vec()
        } else {
            vec![self.top]
        }
    }
}

/// The functional result of simulating a design: the final value of every
/// declared output that was written during simulation.
pub type OutputMap = BTreeMap<String, i64>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::expr::Expr;

    fn tiny_design() -> Design {
        let mut d = DesignBuilder::new("tiny");
        let out = d.output("x");
        let f = d.fifo("q", 4);
        let producer = d.function("producer", |m| {
            m.entry(|b| {
                b.fifo_write(f, Expr::imm(7));
            });
        });
        let consumer = d.function("consumer", |m| {
            m.entry(|b| {
                let v = b.fifo_read(f);
                b.output(out, Expr::var(v));
            });
        });
        d.dataflow_top("top", [producer, consumer]);
        d.build().unwrap()
    }

    #[test]
    fn lookups_by_name() {
        let d = tiny_design();
        assert!(d.module_by_name("producer").is_some());
        assert!(d.module_by_name("missing").is_none());
        assert_eq!(d.fifo_by_name("q"), Some(FifoId(0)));
        assert_eq!(d.output_by_name("x"), Some(OutputId(0)));
    }

    #[test]
    fn with_fifo_depths_replaces_depths() {
        let d = tiny_design();
        let d2 = d.with_fifo_depths(&[9]);
        assert_eq!(d2.fifo(FifoId(0)).depth, 9);
        assert_eq!(d.fifo(FifoId(0)).depth, 4, "original is untouched");
    }

    #[test]
    #[should_panic(expected = "depth vector length")]
    fn with_fifo_depths_wrong_length_panics() {
        let d = tiny_design();
        let _ = d.with_fifo_depths(&[1, 2]);
    }

    #[test]
    fn dataflow_tasks_lists_children() {
        let d = tiny_design();
        assert_eq!(d.dataflow_tasks().len(), 2);
        assert!(d.module(d.top).is_dataflow());
        assert_eq!(d.module(d.top).children().len(), 2);
    }

    #[test]
    fn op_count_sums_blocks() {
        let d = tiny_design();
        assert!(d.op_count() >= 3);
    }
}
