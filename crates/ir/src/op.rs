//! Operations, basic blocks and terminators.
//!
//! Operations are the hardware-visible actions of a module: local arithmetic
//! (`Assign`), array accesses, blocking and non-blocking FIFO accesses, FIFO
//! status checks, AXI transactions, sub-function calls and testbench-visible
//! output writes. The set mirrors the request types of Table 1 in the paper.

use crate::expr::Expr;
use crate::ids::{ArrayId, AxiId, BlockId, FifoId, ModuleId, OutputId, VarId};
use crate::schedule::BlockSchedule;

/// One operation of a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `dst = expr`
    Assign {
        /// Destination variable.
        dst: VarId,
        /// Value to assign.
        expr: Expr,
    },
    /// `dst = array[index]`
    ///
    /// Out-of-bounds indices are a simulation error (the C-sim model turns
    /// them into the segmentation faults reported in Table 3 of the paper).
    ArrayLoad {
        /// Destination variable.
        dst: VarId,
        /// Array to read.
        array: ArrayId,
        /// Element index.
        index: Expr,
    },
    /// `array[index] = value`
    ArrayStore {
        /// Array to write.
        array: ArrayId,
        /// Element index.
        index: Expr,
        /// Value to store.
        value: Expr,
    },
    /// Blocking FIFO write (`fifo.write(value)`): stalls while the FIFO is full.
    FifoWrite {
        /// Target FIFO.
        fifo: FifoId,
        /// Value to push.
        value: Expr,
    },
    /// Blocking FIFO read (`dst = fifo.read()`): stalls while the FIFO is empty.
    FifoRead {
        /// Source FIFO.
        fifo: FifoId,
        /// Destination variable.
        dst: VarId,
    },
    /// Non-blocking FIFO write (`ok = fifo.write_nb(value)`).
    FifoNbWrite {
        /// Target FIFO.
        fifo: FifoId,
        /// Value to push when the write succeeds.
        value: Expr,
        /// Receives 1 on success, 0 on failure. `None` if the result is unused.
        success: Option<VarId>,
    },
    /// Non-blocking FIFO read (`ok = fifo.read_nb(dst)`).
    FifoNbRead {
        /// Source FIFO.
        fifo: FifoId,
        /// Receives the popped value on success; unchanged on failure.
        dst: VarId,
        /// Receives 1 on success, 0 on failure. `None` if the result is unused.
        success: Option<VarId>,
    },
    /// FIFO emptiness check (`dst = fifo.empty()`).
    ///
    /// A `dst` of `None` marks a check whose result is never used; the
    /// redundant-check elision pass (§7.3.2) produces these markers so the
    /// simulators can skip the query entirely.
    FifoEmpty {
        /// FIFO being inspected.
        fifo: FifoId,
        /// Receives 1 when empty, 0 otherwise.
        dst: Option<VarId>,
    },
    /// FIFO fullness check (`dst = fifo.full()`).
    FifoFull {
        /// FIFO being inspected.
        fifo: FifoId,
        /// Receives 1 when full, 0 otherwise.
        dst: Option<VarId>,
    },
    /// Issues an AXI read request for `len` beats starting at `addr`.
    AxiReadReq {
        /// AXI port.
        bus: AxiId,
        /// Start address (element index into the backing array).
        addr: Expr,
        /// Burst length in beats.
        len: Expr,
    },
    /// Consumes one beat of a previously issued AXI read burst.
    AxiRead {
        /// AXI port.
        bus: AxiId,
        /// Destination variable for the beat data.
        dst: VarId,
    },
    /// Issues an AXI write request for `len` beats starting at `addr`.
    AxiWriteReq {
        /// AXI port.
        bus: AxiId,
        /// Start address (element index into the backing array).
        addr: Expr,
        /// Burst length in beats.
        len: Expr,
    },
    /// Sends one beat of a previously issued AXI write burst.
    AxiWrite {
        /// AXI port.
        bus: AxiId,
        /// Beat data.
        value: Expr,
    },
    /// Waits for the write response of the last AXI write burst.
    AxiWriteResp {
        /// AXI port.
        bus: AxiId,
    },
    /// Calls another (non-dataflow) function module, passing `args` into its
    /// first `args.len()` variables and storing its return value into `dst`.
    Call {
        /// Callee module.
        callee: ModuleId,
        /// Argument expressions, bound to the callee's lowest-numbered variables.
        args: Vec<Expr>,
        /// Receives the callee's return value, if any.
        dst: Option<VarId>,
    },
    /// Writes a testbench-visible scalar output.
    Output {
        /// Output slot.
        output: OutputId,
        /// Value to record.
        value: Expr,
    },
}

impl Op {
    /// Returns the FIFO touched by this operation, if any.
    pub fn fifo(&self) -> Option<FifoId> {
        match self {
            Op::FifoWrite { fifo, .. }
            | Op::FifoRead { fifo, .. }
            | Op::FifoNbWrite { fifo, .. }
            | Op::FifoNbRead { fifo, .. }
            | Op::FifoEmpty { fifo, .. }
            | Op::FifoFull { fifo, .. } => Some(*fifo),
            _ => None,
        }
    }

    /// True for non-blocking FIFO accesses and status checks — the operations
    /// whose outcome depends on exact hardware cycles (Table 2 of the paper).
    pub fn is_nonblocking_fifo(&self) -> bool {
        matches!(
            self,
            Op::FifoNbWrite { .. }
                | Op::FifoNbRead { .. }
                | Op::FifoEmpty { dst: Some(_), .. }
                | Op::FifoFull { dst: Some(_), .. }
        )
    }

    /// True if this operation writes data into a FIFO (blocking or not).
    pub fn is_fifo_write(&self) -> bool {
        matches!(self, Op::FifoWrite { .. } | Op::FifoNbWrite { .. })
    }

    /// True if this operation reads data from a FIFO (blocking or not).
    pub fn is_fifo_read(&self) -> bool {
        matches!(self, Op::FifoRead { .. } | Op::FifoNbRead { .. })
    }

    /// Returns the variable whose value the success/result flag of a
    /// non-blocking access or status check is written to, if any.
    pub fn nb_result_var(&self) -> Option<VarId> {
        match self {
            Op::FifoNbWrite { success, .. } | Op::FifoNbRead { success, .. } => *success,
            Op::FifoEmpty { dst, .. } | Op::FifoFull { dst, .. } => *dst,
            _ => None,
        }
    }
}

/// An operation together with its scheduled cycle offset inside the block.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// Cycle offset relative to block entry at which the operation executes.
    pub offset: u64,
    /// The operation itself.
    pub op: Op,
}

/// Control-flow terminator of a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `cond != 0`.
    Branch {
        /// Branch condition.
        cond: Expr,
        /// Successor when the condition is non-zero.
        if_true: BlockId,
        /// Successor when the condition is zero.
        if_false: BlockId,
    },
    /// Return from the module, optionally yielding a value to the caller.
    Return(Option<Expr>),
}

impl Terminator {
    /// Returns the possible successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                if_true, if_false, ..
            } => vec![*if_true, *if_false],
            Terminator::Return(_) => Vec::new(),
        }
    }
}

/// A scheduled basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Operations in program order, each with its scheduled offset.
    pub ops: Vec<ScheduledOp>,
    /// Control-flow terminator, evaluated at block exit.
    pub terminator: Terminator,
    /// Static schedule of the block.
    pub schedule: BlockSchedule,
}

impl Block {
    /// Creates an empty single-cycle block that returns nothing. Used as a
    /// placeholder by the builder before the block body is filled in.
    pub fn placeholder() -> Self {
        Block {
            ops: Vec::new(),
            terminator: Terminator::Return(None),
            schedule: BlockSchedule::default(),
        }
    }

    /// Iterates over FIFO identifiers referenced by operations in this block.
    pub fn referenced_fifos(&self) -> impl Iterator<Item = FifoId> + '_ {
        self.ops.iter().filter_map(|s| s.op.fifo())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_accessors() {
        let w = Op::FifoWrite {
            fifo: FifoId(1),
            value: Expr::imm(1),
        };
        assert_eq!(w.fifo(), Some(FifoId(1)));
        assert!(w.is_fifo_write());
        assert!(!w.is_fifo_read());
        assert!(!w.is_nonblocking_fifo());

        let nb = Op::FifoNbRead {
            fifo: FifoId(0),
            dst: VarId(0),
            success: Some(VarId(1)),
        };
        assert!(nb.is_nonblocking_fifo());
        assert!(nb.is_fifo_read());
        assert_eq!(nb.nb_result_var(), Some(VarId(1)));
    }

    #[test]
    fn elided_checks_are_not_cycle_dependent() {
        let check = Op::FifoEmpty {
            fifo: FifoId(0),
            dst: None,
        };
        assert!(!check.is_nonblocking_fifo());
        let live = Op::FifoEmpty {
            fifo: FifoId(0),
            dst: Some(VarId(3)),
        };
        assert!(live.is_nonblocking_fifo());
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(2)).successors(), vec![BlockId(2)]);
        assert_eq!(Terminator::Return(None).successors(), Vec::<BlockId>::new());
        let b = Terminator::Branch {
            cond: Expr::imm(1),
            if_true: BlockId(1),
            if_false: BlockId(3),
        };
        assert_eq!(b.successors(), vec![BlockId(1), BlockId(3)]);
    }

    #[test]
    fn block_referenced_fifos() {
        let block = Block {
            ops: vec![
                ScheduledOp {
                    offset: 0,
                    op: Op::FifoRead {
                        fifo: FifoId(0),
                        dst: VarId(0),
                    },
                },
                ScheduledOp {
                    offset: 1,
                    op: Op::Assign {
                        dst: VarId(1),
                        expr: Expr::imm(0),
                    },
                },
                ScheduledOp {
                    offset: 1,
                    op: Op::FifoWrite {
                        fifo: FifoId(2),
                        value: Expr::var(VarId(1)),
                    },
                },
            ],
            terminator: Terminator::Return(None),
            schedule: BlockSchedule::new(2),
        };
        let fifos: Vec<_> = block.referenced_fifos().collect();
        assert_eq!(fifos, vec![FifoId(0), FifoId(2)]);
    }
}
