//! Per-task execution for the cycle-stepped reference simulator.
//!
//! The reference must *suspend* a task mid-block whenever an operation
//! cannot commit at the current clock cycle and resume it on a later cycle.
//! Each task runs on `omnisim-interp`'s resumable [`Executor`], which walks
//! the IR and keeps hardware time for every frame of the task's call stack;
//! this module adds only what sits on top of it, as the executor's backend:
//! wall-clock gating, the channel semantics of [`crate::channel`] and the
//! forced pessimistic resolution of undecided non-blocking accesses.

use crate::channel::{AxiChannel, FifoChannel};
use omnisim_interp::{At, Executor, Halt, SimBackend, SimError, Step};
use omnisim_ir::design::OutputMap;
use omnisim_ir::{ArrayId, AxiId, Design, FifoId, ModuleId, Op, OutputId};

/// State shared by every task: FIFO channels, AXI ports, array memory and the
/// testbench-visible outputs.
#[derive(Debug)]
pub struct SharedState {
    /// FIFO channel state, indexed by `FifoId`.
    pub fifos: Vec<FifoChannel>,
    /// AXI port state, indexed by `AxiId`.
    pub axis: Vec<AxiChannel>,
    /// Array memory, indexed by `ArrayId`.
    pub arrays: Vec<Vec<i64>>,
    /// Final output values.
    pub outputs: OutputMap,
    /// Total FIFO accesses committed.
    pub fifo_accesses: u64,
}

impl SharedState {
    /// Initialises shared state from a design.
    pub fn new(design: &Design) -> Self {
        SharedState {
            fifos: design.fifos.iter().map(FifoChannel::new).collect(),
            axis: design.axi_ports.iter().map(AxiChannel::new).collect(),
            arrays: design.arrays.iter().map(|a| a.init.clone()).collect(),
            outputs: OutputMap::new(),
            fifo_accesses: 0,
        }
    }
}

/// The per-cycle status of one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStatus {
    /// The task has run to completion.
    Finished,
    /// The task's next operation (or its block's entry, or the commit of a
    /// stalling access) lies at a future cycle.
    Waiting,
    /// The task is stalled on a blocking FIFO access that could not commit
    /// this cycle. Carries a human-readable description for deadlock reports
    /// and the task's forward-progress frontier.
    Blocked {
        /// What the task is blocked on.
        reason: String,
        /// Lower bound on the cycle of any future FIFO access of this task.
        frontier: u64,
    },
    /// The task's next operation is a non-blocking access (or status check)
    /// whose outcome cannot be decided yet: the peer side has not recorded
    /// the access that determines it. Mirrors a pending query in the OmniSim
    /// engine's query pool; if the whole simulation gets stuck, the driver
    /// force-resolves one such access pessimistically (§7.1 forward
    /// progress, frontier-aware).
    Undecided {
        /// Scheduled hardware cycle of the undecided access.
        effective: u64,
        /// Lower bound on the cycle of any future FIFO access of this task.
        frontier: u64,
    },
}

/// Result of stepping one task for one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// True if at least one operation committed during this cycle (a call
    /// counts both when it is entered and when its callee returns).
    pub progressed: bool,
    /// The task's status at the end of the cycle.
    pub status: TaskStatus,
}

/// One dataflow task (or the non-dataflow top function) being simulated
/// cycle by cycle.
#[derive(Debug)]
pub struct TaskState<'d> {
    design: &'d Design,
    /// Root module of the task (for reporting).
    pub module: ModuleId,
    exec: Executor<'d>,
    end_time: Option<u64>,
}

impl<'d> TaskState<'d> {
    /// Creates a task whose root module starts executing at cycle 1.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Aborted`] if `module` is a dataflow region.
    pub fn new(design: &'d Design, module: ModuleId) -> Result<Self, SimError> {
        Ok(TaskState {
            design,
            module,
            // The reference is bounded by its cycle limit, not by fuel.
            exec: Executor::new(design, module, &[], u64::MAX)?,
            end_time: None,
        })
    }

    /// True once the task has returned from its root module.
    pub fn is_finished(&self) -> bool {
        self.end_time.is_some()
    }

    /// Cycle at which the task's root module's final block exited, once the
    /// task has finished.
    pub fn end_time(&self) -> Option<u64> {
        self.end_time
    }

    /// Name of the task's root module.
    pub fn name(&self) -> &str {
        &self.design.module(self.module).name
    }

    /// Executes every operation of this task that can commit at `cycle`.
    ///
    /// `force_nb` pessimistically resolves the first undecided non-blocking
    /// access encountered (at most one per call) instead of reporting
    /// [`TaskStatus::Undecided`]; the driver sets it when the whole
    /// simulation is stuck.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] for array out-of-bounds accesses and AXI
    /// protocol violations.
    pub fn step_cycle(
        &mut self,
        cycle: u64,
        shared: &mut SharedState,
        force_nb: bool,
    ) -> Result<StepOutcome, SimError> {
        if self.is_finished() {
            return Ok(StepOutcome {
                progressed: false,
                status: TaskStatus::Finished,
            });
        }
        let (ops, depth) = (self.exec.ops_executed(), self.exec.depth());
        let mut port = Port {
            design: self.design,
            shared,
            wall: cycle,
            force_nb,
        };
        let status = match self.exec.step(&mut port)? {
            Step::Done(outcome) => {
                self.end_time = Some(outcome.end_cycle);
                TaskStatus::Finished
            }
            Step::Pending(status) => status,
        };
        // Progress is a committed operation or a callee returning into its
        // caller (the call completing); the root's own return is not. A step
        // that commits nothing enters no call, so a return shows as a
        // shallower stack than the step started with, counting the root's
        // frame as still there once it has returned.
        let returned = self.exec.depth() + usize::from(self.is_finished()) < depth;
        Ok(StepOutcome {
            progressed: self.exec.ops_executed() > ops || returned,
            status,
        })
    }
}

/// The executor's backend for one task at one wall-clock cycle: the shared
/// channel state, the wall clock and whether one undecided non-blocking
/// access may be forced.
struct Port<'a, 'd> {
    design: &'d Design,
    shared: &'a mut SharedState,
    wall: u64,
    force_nb: bool,
}

impl Port<'_, '_> {
    /// Resolves a non-blocking outcome at its scheduled cycle, which the
    /// wall gate guarantees to have final channel state up to it. When the
    /// driver forces forward progress, an undecided outcome is resolved
    /// pessimistically, at most once per step.
    fn decide(&mut self, decision: Option<bool>, at: At) -> Result<bool, Halt<TaskStatus>> {
        match decision {
            Some(decided) => Ok(decided),
            None if self.force_nb => {
                self.force_nb = false;
                Ok(false)
            }
            None => Err(Halt::Wait(TaskStatus::Undecided {
                effective: at.cycle,
                frontier: at.frontier,
            })),
        }
    }

    /// A stalling access commits at the earliest cycle that satisfies both
    /// its schedule and `ready` — which may lie *before* the wall cycle when
    /// the op walk lagged behind a pipelined iteration overlap (the timeline,
    /// not the walk, is hardware time) but never after it.
    fn commit(&self, ready: u64, at: At) -> Result<u64, Halt<TaskStatus>> {
        let commit = ready.max(at.cycle);
        if commit > self.wall {
            return Err(Halt::Wait(TaskStatus::Waiting));
        }
        Ok(commit)
    }

    fn cell(&mut self, array: ArrayId, index: i64) -> Result<&mut i64, SimError> {
        let data = &mut self.shared.arrays[array.index()];
        let len = data.len();
        usize::try_from(index)
            .ok()
            .and_then(|i| data.get_mut(i))
            .ok_or(SimError::ArrayOutOfBounds { array, index, len })
    }

    fn axi_violation(&self, what: &str, bus: AxiId) -> SimError {
        SimError::AxiProtocolViolation {
            detail: format!(
                "{what} beat on '{}' without an outstanding burst",
                self.design.axi_port(bus).name
            ),
        }
    }
}

impl SimBackend for Port<'_, '_> {
    type Wait = TaskStatus;

    /// Wall-clock gating. No block is entered before its entry cycle, and
    /// only channel-interacting operations are held to the wall clock
    /// beyond that: their hardware cycle must not run ahead of the global
    /// step, so that every access is committed against channel state that
    /// is final up to that cycle. Local operations (assigns, array traffic,
    /// outputs, calls) have no cross-task timing and execute as soon as
    /// program order reaches them — their hardware time is fully described
    /// by the timeline. Without this split, an operation scheduled late in a
    /// pipelined loop body would serialize against the next iteration's
    /// early operations, which real pipelined hardware overlaps.
    fn admit(&mut self, entry: u64, op: Option<(&Op, u64)>) -> Result<(), TaskStatus> {
        let early = entry > self.wall
            || op.is_some_and(|(op, cycle)| cycle > self.wall && interacts_with_channels(op));
        if early {
            return Err(TaskStatus::Waiting);
        }
        Ok(())
    }

    fn fifo_read(&mut self, fifo: FifoId, at: At) -> Result<(i64, u64), Halt<TaskStatus>> {
        let Some(ready) = self.shared.fifos[fifo.index()].next_read_ready() else {
            let name = &self.design.fifo(fifo).name;
            return Err(blocked(
                format!("blocking read from empty fifo '{name}'"),
                at,
            ));
        };
        let commit = self.commit(ready, at)?;
        self.shared.fifo_accesses += 1;
        Ok((self.shared.fifos[fifo.index()].pop(commit), commit))
    }

    fn fifo_write(&mut self, fifo: FifoId, value: i64, at: At) -> Result<u64, Halt<TaskStatus>> {
        let Some(ready) = self.shared.fifos[fifo.index()].next_write_ready() else {
            let name = &self.design.fifo(fifo).name;
            return Err(blocked(format!("blocking write to full fifo '{name}'"), at));
        };
        let commit = self.commit(ready, at)?;
        self.shared.fifo_accesses += 1;
        self.shared.fifos[fifo.index()].push(value, commit);
        Ok(commit)
    }

    fn fifo_nb_read(&mut self, fifo: FifoId, at: At) -> Result<Option<i64>, Halt<TaskStatus>> {
        let decision = self.shared.fifos[fifo.index()].can_read_decided(at.cycle);
        if !self.decide(decision, at)? {
            return Ok(None);
        }
        self.shared.fifo_accesses += 1;
        Ok(Some(self.shared.fifos[fifo.index()].pop(at.cycle)))
    }

    fn fifo_nb_write(
        &mut self,
        fifo: FifoId,
        value: i64,
        at: At,
    ) -> Result<bool, Halt<TaskStatus>> {
        let decision = self.shared.fifos[fifo.index()].can_write_decided(at.cycle);
        let accepted = self.decide(decision, at)?;
        if accepted {
            self.shared.fifo_accesses += 1;
            self.shared.fifos[fifo.index()].push(value, at.cycle);
        }
        Ok(accepted)
    }

    fn fifo_empty(&mut self, fifo: FifoId, at: At) -> Result<bool, Halt<TaskStatus>> {
        let decision = self.shared.fifos[fifo.index()].can_read_decided(at.cycle);
        Ok(!self.decide(decision, at)?)
    }

    fn fifo_full(&mut self, fifo: FifoId, at: At) -> Result<bool, Halt<TaskStatus>> {
        let decision = self.shared.fifos[fifo.index()].can_write_decided(at.cycle);
        Ok(!self.decide(decision, at)?)
    }

    fn array_load(&mut self, array: ArrayId, index: i64) -> Result<i64, SimError> {
        self.cell(array, index).copied()
    }

    fn array_store(&mut self, array: ArrayId, index: i64, value: i64) -> Result<(), SimError> {
        *self.cell(array, index)? = value;
        Ok(())
    }

    fn axi_read_req(&mut self, bus: AxiId, addr: i64, len: i64, at: At) -> Result<(), SimError> {
        self.shared.axis[bus.index()].read_req(addr, len, at.cycle);
        Ok(())
    }

    fn axi_read(&mut self, bus: AxiId, at: At) -> Result<(i64, u64), Halt<TaskStatus>> {
        let (ready, addr) = self.shared.axis[bus.index()]
            .next_read_beat()
            .ok_or_else(|| self.axi_violation("read", bus))?;
        let commit = self.commit(ready, at)?;
        let value = *self.cell(self.design.axi_port(bus).array, addr)?;
        self.shared.axis[bus.index()].take_read_beat();
        Ok((value, commit))
    }

    fn axi_write_req(&mut self, bus: AxiId, addr: i64, len: i64, at: At) -> Result<(), SimError> {
        self.shared.axis[bus.index()].write_req(addr, len, at.cycle);
        Ok(())
    }

    fn axi_write(&mut self, bus: AxiId, value: i64, at: At) -> Result<(), SimError> {
        let addr = self.shared.axis[bus.index()]
            .next_write_addr()
            .ok_or_else(|| self.axi_violation("write", bus))?;
        *self.cell(self.design.axi_port(bus).array, addr)? = value;
        self.shared.axis[bus.index()].take_write_beat(at.cycle);
        Ok(())
    }

    fn axi_write_resp(&mut self, bus: AxiId, at: At) -> Result<u64, Halt<TaskStatus>> {
        self.commit(self.shared.axis[bus.index()].write_resp_ready(), at)
    }

    fn output(&mut self, output: OutputId, value: i64) -> Result<(), SimError> {
        self.shared
            .outputs
            .insert(self.design.output_name(output).to_owned(), value);
        Ok(())
    }
}

fn blocked(reason: String, at: At) -> Halt<TaskStatus> {
    Halt::Wait(TaskStatus::Blocked {
        reason,
        frontier: at.frontier,
    })
}

/// True for operations whose timing is visible to other tasks through a
/// shared channel (FIFO or AXI): only these are gated on the wall clock
/// beyond their block's entry.
fn interacts_with_channels(op: &Op) -> bool {
    matches!(
        op,
        Op::FifoWrite { .. }
            | Op::FifoRead { .. }
            | Op::FifoNbWrite { .. }
            | Op::FifoNbRead { .. }
            | Op::FifoEmpty { .. }
            | Op::FifoFull { .. }
            | Op::AxiReadReq { .. }
            | Op::AxiRead { .. }
            | Op::AxiWriteReq { .. }
            | Op::AxiWrite { .. }
            | Op::AxiWriteResp { .. }
    )
}
