//! The [`SimBackend`] trait: the runtime-library interface of a simulator.
//!
//! Every hardware-visible action performed by an executed module is routed
//! through this trait, exactly as the paper's runtime shared object receives
//! every FIFO/AXI intrinsic call of the compiled design (§6.1). The methods
//! mirror the request types of Table 1.

use crate::error::SimError;
use omnisim_ir::{ArrayId, AxiId, FifoId, Op, OutputId};

/// Where an operation sits in hardware time, as the executor hands it to a
/// backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct At {
    /// The operation's scheduled cycle, including every stall its task has
    /// committed so far.
    pub cycle: u64,
    /// The task's forward-progress frontier, `min(cycle, next_entry_floor)`:
    /// no later FIFO access of the task can be scheduled before this cycle.
    pub frontier: u64,
}

/// Why a backend did not complete an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Halt<W> {
    /// Not yet: the executor hands `W` back from its `step` and retries the
    /// same operation on the next one.
    Wait(W),
    /// The run failed.
    Fail(SimError),
}

impl<W> From<SimError> for Halt<W> {
    fn from(error: SimError) -> Self {
        Halt::Fail(error)
    }
}

/// The interface between executed design code and a simulator.
///
/// The executor owns hardware time: every timed method receives the
/// operation's [`At`], and methods that can stall return the cycle at which
/// the operation commits (never earlier than `at.cycle`), which the executor
/// applies to the task's timeline. Untimed backends ignore `at` and commit at
/// `at.cycle`.
pub trait SimBackend {
    /// What the backend answers when an operation cannot complete yet.
    /// Backends that always answer use [`std::convert::Infallible`], which
    /// lets [`crate::Interpreter::run_module`] run them to completion.
    type Wait;

    /// Asked before every operation, with its scheduled cycle, and before
    /// every block terminator (`op` is `None`), with the entry cycle of the
    /// current block. `Err` holds the task there until the next step. The
    /// default never holds.
    fn admit(&mut self, entry: u64, op: Option<(&Op, u64)>) -> Result<(), Self::Wait> {
        let _ = (entry, op);
        Ok(())
    }

    /// Blocking FIFO read: the popped value and its commit cycle.
    fn fifo_read(&mut self, fifo: FifoId, at: At) -> Result<(i64, u64), Halt<Self::Wait>>;

    /// Blocking FIFO write: its commit cycle.
    fn fifo_write(&mut self, fifo: FifoId, value: i64, at: At) -> Result<u64, Halt<Self::Wait>>;

    /// Non-blocking FIFO read: `Some(value)` on success, `None` when the FIFO
    /// is empty at `at.cycle`.
    fn fifo_nb_read(&mut self, fifo: FifoId, at: At) -> Result<Option<i64>, Halt<Self::Wait>>;

    /// Non-blocking FIFO write: `true` when the value was accepted, `false`
    /// when the FIFO is full at `at.cycle`.
    fn fifo_nb_write(&mut self, fifo: FifoId, value: i64, at: At)
        -> Result<bool, Halt<Self::Wait>>;

    /// FIFO `empty()` status check at `at.cycle`.
    fn fifo_empty(&mut self, fifo: FifoId, at: At) -> Result<bool, Halt<Self::Wait>>;

    /// FIFO `full()` status check at `at.cycle`.
    fn fifo_full(&mut self, fifo: FifoId, at: At) -> Result<bool, Halt<Self::Wait>>;

    /// Global array load.
    fn array_load(&mut self, array: ArrayId, index: i64) -> Result<i64, SimError>;

    /// Global array store.
    fn array_store(&mut self, array: ArrayId, index: i64, value: i64) -> Result<(), SimError>;

    /// AXI read-burst request (`AxiReadReq`).
    fn axi_read_req(&mut self, bus: AxiId, addr: i64, len: i64, at: At) -> Result<(), SimError>;

    /// Consume one AXI read beat (`AxiRead`): its value and commit cycle.
    fn axi_read(&mut self, bus: AxiId, at: At) -> Result<(i64, u64), Halt<Self::Wait>>;

    /// AXI write-burst request (`AxiWriteReq`).
    fn axi_write_req(&mut self, bus: AxiId, addr: i64, len: i64, at: At) -> Result<(), SimError>;

    /// Send one AXI write beat (`AxiWrite`).
    fn axi_write(&mut self, bus: AxiId, value: i64, at: At) -> Result<(), SimError>;

    /// Wait for the AXI write response (`AxiWriteResp`): its commit cycle.
    fn axi_write_resp(&mut self, bus: AxiId, at: At) -> Result<u64, Halt<Self::Wait>>;

    /// Record a testbench-visible output value.
    fn output(&mut self, output: OutputId, value: i64) -> Result<(), SimError>;
}
