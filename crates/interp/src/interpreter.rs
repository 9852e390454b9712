//! The IR executor: runs function modules op by op on an explicit frame
//! stack, forwarding every hardware-visible action to a [`SimBackend`] and
//! keeping every frame's place in hardware time.

use crate::backend::{At, Halt, SimBackend};
use crate::error::SimError;
use crate::timeline::Timeline;
use omnisim_ir::{BlockId, Design, Expr, ModuleId, Op, Terminator, VarId};
use std::convert::Infallible;

/// Default fuel budget (number of executed operations) before the interpreter
/// aborts with [`SimError::OutOfFuel`]. Generous enough for the largest
/// benchmark designs while still catching runaway infinite loops.
pub const DEFAULT_FUEL: u64 = 200_000_000;

/// The cycle at which a task enters its first block: one cycle after its
/// dataflow region starts.
const TASK_START: u64 = 1;

/// Result of executing one module to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// The value returned by the module's `Return` terminator, if any.
    pub return_value: Option<i64>,
    /// Number of operations executed (including called modules).
    pub ops_executed: u64,
    /// The cycle at which the module's final block exits.
    pub end_cycle: u64,
}

/// How one [`Executor::step`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<W> {
    /// The module returned.
    Done(ExecOutcome),
    /// The backend answered "not yet"; the next step retries the same
    /// operation.
    Pending(W),
}

/// One activation of a function module: its registers, its place in the
/// code and its place in hardware time.
#[derive(Debug)]
struct Frame {
    module: ModuleId,
    vars: Vec<i64>,
    block: BlockId,
    /// Index of the next operation of `block`; the block's length stands
    /// for its terminator.
    op: usize,
    timeline: Timeline,
}

/// A resumable execution of one function module and the modules it calls —
/// the only walker of the IR in the workspace.
///
/// Calls push a frame whose first block is entered one cycle after the call
/// operation's scheduled cycle; a return stalls the caller so that the call
/// operation completes one cycle after the callee's final block exits. Every
/// simulator therefore shares one call contract and one cycle arithmetic.
///
/// All state that hardware would hold outside a module's registers (FIFO
/// contents, array memory, AXI buffers, outputs) lives in the backend, so
/// different simulators can give the same design different semantics
/// (infinite FIFOs for C simulation, hardware-timed FIFOs for OmniSim, …).
#[derive(Debug)]
pub struct Executor<'d> {
    design: &'d Design,
    frames: Vec<Frame>,
    fuel: u64,
    ops_executed: u64,
}

impl<'d> Executor<'d> {
    /// Prepares `module` to run with a budget of `fuel` operations. `args`
    /// are bound to its lowest-numbered variables; the rest start at zero.
    /// Its first block is entered at cycle 1.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Aborted`] if `module` is a dataflow region
    /// (regions are driven by the simulators themselves).
    pub fn new(
        design: &'d Design,
        module: ModuleId,
        args: &[i64],
        fuel: u64,
    ) -> Result<Self, SimError> {
        let mut exec = Executor {
            design,
            frames: Vec::new(),
            fuel,
            ops_executed: 0,
        };
        exec.enter(module, args, TASK_START)?;
        Ok(exec)
    }

    /// Operations executed so far; a call counts once, when it is entered.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Depth of the call stack: 1 while the root module runs, 0 once it has
    /// returned.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Runs operations until the module returns or the backend answers "not
    /// yet", either to an operation or in [`SimBackend::admit`].
    ///
    /// # Errors
    ///
    /// Returns any error raised by the backend, [`SimError::OutOfFuel`] if
    /// the fuel budget is exhausted, or [`SimError::Aborted`] if a call
    /// targets a dataflow region.
    ///
    /// # Panics
    ///
    /// Panics if called again after it returned [`Step::Done`].
    pub fn step<B: SimBackend>(&mut self, backend: &mut B) -> Result<Step<B::Wait>, SimError> {
        let design = self.design;
        'frames: loop {
            let frame = self
                .frames
                .last_mut()
                .expect("step after the module returned");
            let module = design.module(frame.module);
            loop {
                let block = &module.blocks[frame.block.index()];
                let entry = frame.timeline.block_entry();
                while let Some(sop) = block.ops.get(frame.op) {
                    let cycle = frame.timeline.op_cycle(sop.offset);
                    if let Err(wait) = backend.admit(entry, Some((&sop.op, cycle))) {
                        return Ok(Step::Pending(wait));
                    }
                    if self.ops_executed == self.fuel {
                        return Err(SimError::OutOfFuel {
                            module: frame.module,
                        });
                    }
                    if let Op::Call { callee, args, .. } = &sop.op {
                        let args: Vec<i64> = args.iter().map(|a| eval(a, &frame.vars)).collect();
                        self.enter(*callee, &args, cycle + 1)?;
                        self.ops_executed += 1;
                        continue 'frames;
                    }
                    match frame.run(&sop.op, sop.offset, cycle, backend) {
                        Ok(()) => frame.op += 1,
                        Err(Halt::Wait(wait)) => return Ok(Step::Pending(wait)),
                        Err(Halt::Fail(error)) => return Err(error),
                    }
                    self.ops_executed += 1;
                }
                if let Err(wait) = backend.admit(entry, None) {
                    return Ok(Step::Pending(wait));
                }
                let next = match &block.terminator {
                    Terminator::Jump(next) => *next,
                    Terminator::Branch {
                        cond,
                        if_true,
                        if_false,
                    } => {
                        if eval(cond, &frame.vars) != 0 {
                            *if_true
                        } else {
                            *if_false
                        }
                    }
                    Terminator::Return(value) => {
                        let value = value.as_ref().map(|e| eval(e, &frame.vars));
                        let end_cycle = frame.timeline.block_exit();
                        self.frames.pop();
                        let Some(caller) = self.frames.last_mut() else {
                            return Ok(Step::Done(ExecOutcome {
                                return_value: value,
                                ops_executed: self.ops_executed,
                                end_cycle,
                            }));
                        };
                        caller.complete_call(design, value, end_cycle);
                        continue 'frames;
                    }
                };
                // Re-entering the same block is a pipelined loop iteration.
                let back_edge = next == frame.block;
                frame
                    .timeline
                    .enter_block(&module.blocks[next.index()].schedule, back_edge);
                frame.block = next;
                frame.op = 0;
            }
        }
    }

    /// Pushes a frame for `module` whose first block is entered at `start`.
    fn enter(&mut self, module: ModuleId, args: &[i64], start: u64) -> Result<(), SimError> {
        let m = self.design.module(module);
        if m.is_dataflow() {
            return Err(SimError::Aborted {
                reason: format!(
                    "module {} is a dataflow region; regions are executed by the simulator, not the interpreter",
                    m.name
                ),
            });
        }
        let mut vars = vec![0i64; m.num_vars as usize];
        for (slot, value) in vars.iter_mut().zip(args) {
            *slot = *value;
        }
        let mut timeline = Timeline::starting_at(start);
        timeline.enter_block(&m.blocks[0].schedule, false);
        self.frames.push(Frame {
            module,
            vars,
            block: BlockId(0),
            op: 0,
            timeline,
        });
        Ok(())
    }
}

impl Frame {
    /// Runs one operation other than a call, scheduled at `offset` (cycle
    /// `cycle`), against `backend`, applying the commit cycle of a stalling
    /// access to the timeline.
    fn run<B: SimBackend>(
        &mut self,
        op: &Op,
        offset: u64,
        cycle: u64,
        backend: &mut B,
    ) -> Result<(), Halt<B::Wait>> {
        let at = At {
            cycle,
            frontier: cycle.min(self.timeline.next_entry_floor()),
        };
        let vars = &mut self.vars;
        match op {
            Op::Assign { dst, expr } => vars[dst.index()] = eval(expr, vars),
            Op::ArrayLoad { dst, array, index } => {
                vars[dst.index()] = backend.array_load(*array, eval(index, vars))?;
            }
            Op::ArrayStore {
                array,
                index,
                value,
            } => backend.array_store(*array, eval(index, vars), eval(value, vars))?,
            Op::FifoWrite { fifo, value } => {
                let commit = backend.fifo_write(*fifo, eval(value, vars), at)?;
                self.timeline.stall_until(offset, commit);
            }
            Op::FifoRead { fifo, dst } => {
                let (value, commit) = backend.fifo_read(*fifo, at)?;
                vars[dst.index()] = value;
                self.timeline.stall_until(offset, commit);
            }
            Op::FifoNbWrite {
                fifo,
                value,
                success,
            } => {
                let ok = backend.fifo_nb_write(*fifo, eval(value, vars), at)?;
                if let Some(s) = success {
                    vars[s.index()] = i64::from(ok);
                }
            }
            Op::FifoNbRead { fifo, dst, success } => {
                let value = backend.fifo_nb_read(*fifo, at)?;
                if let Some(v) = value {
                    vars[dst.index()] = v;
                }
                if let Some(s) = success {
                    vars[s.index()] = i64::from(value.is_some());
                }
            }
            // Checks whose result is unused were elided by the dead-check
            // pass (§7.3.2) and cost nothing to simulate.
            Op::FifoEmpty { fifo, dst } => {
                if let Some(d) = dst {
                    vars[d.index()] = i64::from(backend.fifo_empty(*fifo, at)?);
                }
            }
            Op::FifoFull { fifo, dst } => {
                if let Some(d) = dst {
                    vars[d.index()] = i64::from(backend.fifo_full(*fifo, at)?);
                }
            }
            Op::AxiReadReq { bus, addr, len } => {
                backend.axi_read_req(*bus, eval(addr, vars), eval(len, vars), at)?;
            }
            Op::AxiRead { bus, dst } => {
                let (value, commit) = backend.axi_read(*bus, at)?;
                vars[dst.index()] = value;
                self.timeline.stall_until(offset, commit);
            }
            Op::AxiWriteReq { bus, addr, len } => {
                backend.axi_write_req(*bus, eval(addr, vars), eval(len, vars), at)?;
            }
            Op::AxiWrite { bus, value } => backend.axi_write(*bus, eval(value, vars), at)?,
            Op::AxiWriteResp { bus } => {
                let commit = backend.axi_write_resp(*bus, at)?;
                self.timeline.stall_until(offset, commit);
            }
            Op::Output { output, value } => backend.output(*output, eval(value, vars))?,
            Op::Call { .. } => unreachable!("the executor enters calls itself"),
        }
        Ok(())
    }

    /// Completes the call operation this frame is suspended on: the callee's
    /// return value lands in the call's destination, and the call commits one
    /// cycle after the callee's final block exits at `end_cycle`.
    fn complete_call(&mut self, design: &Design, value: Option<i64>, end_cycle: u64) {
        let sop = &design.module(self.module).blocks[self.block.index()].ops[self.op];
        if let Op::Call { dst: Some(dst), .. } = &sop.op {
            self.vars[dst.index()] = value.unwrap_or(0);
        }
        self.timeline.stall_until(sop.offset, end_cycle + 1);
        self.op += 1;
    }
}

/// Runs function modules to completion on backends that never wait, drawing
/// every run from one fuel budget.
#[derive(Debug)]
pub struct Interpreter<'d> {
    design: &'d Design,
    fuel: u64,
}

impl<'d> Interpreter<'d> {
    /// Creates an interpreter with the default fuel budget.
    pub fn new(design: &'d Design) -> Self {
        Self::with_fuel(design, DEFAULT_FUEL)
    }

    /// Creates an interpreter with an explicit fuel budget.
    pub fn with_fuel(design: &'d Design, fuel: u64) -> Self {
        Interpreter { design, fuel }
    }

    /// Executes a function module to completion: an [`Executor`] stepped
    /// once, since a backend whose `Wait` is [`Infallible`] cannot leave it
    /// pending.
    ///
    /// `args` are bound to the module's lowest-numbered variables; remaining
    /// variables start at zero.
    ///
    /// # Errors
    ///
    /// Returns any error raised by the backend, [`SimError::OutOfFuel`] if
    /// the fuel budget is exhausted, or [`SimError::Aborted`] if `module`
    /// refers to a dataflow region (regions are driven by the simulators
    /// themselves, not the interpreter).
    pub fn run_module<B: SimBackend<Wait = Infallible>>(
        &mut self,
        module: ModuleId,
        args: &[i64],
        backend: &mut B,
    ) -> Result<ExecOutcome, SimError> {
        let mut exec = Executor::new(self.design, module, args, self.fuel)?;
        let step = exec.step(backend);
        self.fuel -= exec.ops_executed();
        match step? {
            Step::Done(outcome) => Ok(outcome),
            Step::Pending(never) => match never {},
        }
    }
}

#[inline]
fn eval(expr: &Expr, vars: &[i64]) -> i64 {
    expr.eval(&|v: VarId| vars[v.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim_ir::{ArrayId, AxiId, DesignBuilder, FifoId, OutputId};
    use std::collections::{BTreeMap, VecDeque};

    /// A minimal backend with unbounded FIFOs, used only for interpreter
    /// unit tests. It records the cycle of every blocking write, can answer
    /// one blocking read with "not yet" (`refuse`) and stalls every blocking
    /// read by `read_stall` cycles.
    #[derive(Debug)]
    struct TestBackend<W> {
        arrays: Vec<Vec<i64>>,
        fifos: Vec<VecDeque<i64>>,
        outputs: BTreeMap<OutputId, i64>,
        write_cycles: Vec<u64>,
        refuse: Option<W>,
        read_stall: u64,
    }

    impl<W> TestBackend<W> {
        fn for_design(design: &Design) -> Self {
            TestBackend {
                arrays: design.arrays.iter().map(|a| a.init.clone()).collect(),
                fifos: vec![VecDeque::new(); design.fifos.len()],
                outputs: BTreeMap::new(),
                write_cycles: Vec::new(),
                refuse: None,
                read_stall: 0,
            }
        }
    }

    impl<W> SimBackend for TestBackend<W> {
        type Wait = W;

        fn fifo_read(&mut self, fifo: FifoId, at: At) -> Result<(i64, u64), Halt<W>> {
            if let Some(wait) = self.refuse.take() {
                return Err(Halt::Wait(wait));
            }
            let value = self.fifos[fifo.index()]
                .pop_front()
                .ok_or(SimError::ReadWhileEmpty { fifo })?;
            Ok((value, at.cycle + self.read_stall))
        }

        fn fifo_write(&mut self, fifo: FifoId, value: i64, at: At) -> Result<u64, Halt<W>> {
            self.fifos[fifo.index()].push_back(value);
            self.write_cycles.push(at.cycle);
            Ok(at.cycle)
        }

        fn fifo_nb_read(&mut self, fifo: FifoId, _at: At) -> Result<Option<i64>, Halt<W>> {
            Ok(self.fifos[fifo.index()].pop_front())
        }

        fn fifo_nb_write(&mut self, fifo: FifoId, value: i64, _at: At) -> Result<bool, Halt<W>> {
            self.fifos[fifo.index()].push_back(value);
            Ok(true)
        }

        fn fifo_empty(&mut self, fifo: FifoId, _at: At) -> Result<bool, Halt<W>> {
            Ok(self.fifos[fifo.index()].is_empty())
        }

        fn fifo_full(&mut self, _fifo: FifoId, _at: At) -> Result<bool, Halt<W>> {
            Ok(false)
        }

        fn array_load(&mut self, array: ArrayId, index: i64) -> Result<i64, SimError> {
            let data = &self.arrays[array.index()];
            usize::try_from(index)
                .ok()
                .and_then(|i| data.get(i).copied())
                .ok_or(SimError::ArrayOutOfBounds {
                    array,
                    index,
                    len: data.len(),
                })
        }

        fn array_store(&mut self, array: ArrayId, index: i64, value: i64) -> Result<(), SimError> {
            let data = &mut self.arrays[array.index()];
            let len = data.len();
            let slot = usize::try_from(index)
                .ok()
                .and_then(|i| data.get_mut(i))
                .ok_or(SimError::ArrayOutOfBounds { array, index, len })?;
            *slot = value;
            Ok(())
        }

        fn axi_read_req(
            &mut self,
            _bus: AxiId,
            _addr: i64,
            _len: i64,
            _at: At,
        ) -> Result<(), SimError> {
            Ok(())
        }

        fn axi_read(&mut self, _bus: AxiId, at: At) -> Result<(i64, u64), Halt<W>> {
            Ok((0, at.cycle))
        }

        fn axi_write_req(
            &mut self,
            _bus: AxiId,
            _addr: i64,
            _len: i64,
            _at: At,
        ) -> Result<(), SimError> {
            Ok(())
        }

        fn axi_write(&mut self, _bus: AxiId, _value: i64, _at: At) -> Result<(), SimError> {
            Ok(())
        }

        fn axi_write_resp(&mut self, _bus: AxiId, at: At) -> Result<u64, Halt<W>> {
            Ok(at.cycle)
        }

        fn output(&mut self, output: OutputId, value: i64) -> Result<(), SimError> {
            self.outputs.insert(output, value);
            Ok(())
        }
    }

    fn producer_consumer(n: i64) -> Design {
        let mut d = DesignBuilder::new("pc");
        let data = d.array("data", (1..=n).collect::<Vec<i64>>());
        let out = d.output("sum");
        let fifo = d.fifo("q", 2);
        let p = d.function("producer", |m| {
            m.counted_loop("i", n, 1, |b| {
                let i = b.var_expr("i");
                let v = b.array_load(data, i);
                b.fifo_write(fifo, Expr::var(v));
            });
        });
        let c = d.function("consumer", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", n, 1, |b| {
                let v = b.fifo_read(fifo);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
            });
        });
        d.dataflow_top("top", [p, c]);
        d.build().unwrap()
    }

    #[test]
    fn sequential_producer_then_consumer_computes_sum() {
        let design = producer_consumer(10);
        let mut backend = TestBackend::for_design(&design);
        let mut interp = Interpreter::new(&design);
        for task in design.dataflow_tasks() {
            let outcome = interp.run_module(task, &[], &mut backend).unwrap();
            assert!(outcome.ops_executed > 10 && outcome.end_cycle > 10);
        }
        assert_eq!(backend.outputs[&OutputId(0)], 55);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let mut d = DesignBuilder::new("spin");
        let f = d.fifo("q", 1);
        let spin = d.function("spin", |m| {
            m.loop_block(1, |b| {
                b.fifo_empty_unused(f);
                let t = b.tmp();
                b.assign(t, Expr::imm(1));
            });
        });
        let other = d.function("other", |m| {
            m.entry(|b| {
                b.fifo_write(f, Expr::imm(1));
            });
        });
        d.dataflow_top("top", [spin, other]);
        let design = d.build().unwrap();
        let mut backend = TestBackend::for_design(&design);
        let mut interp = Interpreter::with_fuel(&design, 1000);
        let err = interp
            .run_module(design.dataflow_tasks()[0], &[], &mut backend)
            .unwrap_err();
        assert!(matches!(err, SimError::OutOfFuel { .. }));
    }

    #[test]
    fn array_out_of_bounds_is_reported() {
        let mut d = DesignBuilder::new("oob");
        let data = d.array("data", vec![1, 2, 3]);
        let out = d.output("x");
        d.function_top("f", |m| {
            m.entry(|b| {
                let v = b.array_load(data, Expr::imm(10));
                b.output(out, Expr::var(v));
            });
        });
        let design = d.build().unwrap();
        let mut backend = TestBackend::for_design(&design);
        let mut interp = Interpreter::new(&design);
        let err = interp
            .run_module(design.top, &[], &mut backend)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::ArrayOutOfBounds {
                array: ArrayId(0),
                index: 10,
                len: 3
            }
        );
    }

    #[test]
    fn calls_pass_arguments_and_return_values() {
        let mut d = DesignBuilder::new("call");
        let out = d.output("r");
        let helper = d.function("double", |m| {
            let x = m.var("x");
            m.entry(|b| {
                b.ret_val(Expr::var(x).mul(Expr::imm(2)));
            });
        });
        d.function_top("main", |m| {
            m.entry(|b| {
                let r = b.call(helper, vec![Expr::imm(21)]);
                b.output(out, Expr::var(r));
            });
        });
        let design = d.build().unwrap();
        let mut backend = TestBackend::for_design(&design);
        let mut interp = Interpreter::new(&design);
        let outcome = interp.run_module(design.top, &[], &mut backend).unwrap();
        assert_eq!(backend.outputs[&OutputId(0)], 42);
        assert!(outcome.ops_executed >= 2);
    }

    #[test]
    fn nb_read_on_empty_fifo_sets_success_to_zero() {
        let mut d = DesignBuilder::new("nb");
        let f = d.fifo("q", 1);
        let out_ok = d.output("ok");
        let reader = d.function("reader", |m| {
            m.entry(|b| {
                let (_v, ok) = b.fifo_nb_read(f);
                b.output(out_ok, Expr::var(ok));
            });
        });
        let writer = d.function("writer", |m| {
            m.entry(|b| {
                b.fifo_nb_write_ignored(f, Expr::imm(5));
            });
        });
        d.dataflow_top("top", [reader, writer]);
        let design = d.build().unwrap();
        let mut backend = TestBackend::for_design(&design);
        let mut interp = Interpreter::new(&design);
        // Run the reader first: FIFO is empty, so success must be zero.
        interp
            .run_module(design.dataflow_tasks()[0], &[], &mut backend)
            .unwrap();
        assert_eq!(backend.outputs[&OutputId(0)], 0);
    }

    #[test]
    fn dataflow_region_is_rejected_by_the_interpreter() {
        let design = producer_consumer(2);
        let mut backend = TestBackend::for_design(&design);
        let mut interp = Interpreter::new(&design);
        let err = interp
            .run_module(design.top, &[], &mut backend)
            .unwrap_err();
        assert!(matches!(err, SimError::Aborted { .. }));
    }

    #[test]
    fn calls_follow_the_call_timing_contract() {
        let mut d = DesignBuilder::new("contract");
        let q = d.fifo("q", 4);
        let r = d.fifo("r", 4);
        let helper = d.function("helper", |m| {
            m.entry(|b| {
                b.latency(10);
                b.fifo_write(q, Expr::imm(1));
            });
        });
        let caller = d.function("caller", |m| {
            m.entry(|b| {
                b.latency(4);
                b.at(2).call_void(helper, vec![]);
                b.at(3).fifo_write(r, Expr::imm(2));
            });
        });
        let sink = d.function("sink", |m| {
            m.entry(|b| {
                b.fifo_read(q);
                b.fifo_read(r);
            });
        });
        d.dataflow_top("top", [caller, sink]);
        let design = d.build().unwrap();
        let mut backend = TestBackend::for_design(&design);
        let outcome = Interpreter::new(&design)
            .run_module(caller, &[], &mut backend)
            .unwrap();
        // The call op is scheduled at 1 + 2 = 3, so the callee starts at 4
        // and its block exits at 14. The call completes at 15, pushing the
        // caller's later op from 4 to 16 and its block exit from 5 to 17.
        assert_eq!(backend.write_cycles, [4, 16]);
        assert_eq!(outcome.end_cycle, 17);
        assert_eq!(outcome.ops_executed, 3);
    }

    #[test]
    fn nested_calls_unwind_in_order() {
        let mut d = DesignBuilder::new("nested");
        let out = d.output("r");
        let inner = d.function("inner", |m| {
            m.entry(|b| {
                b.latency(5);
                b.ret_val(Expr::imm(5));
            });
        });
        let middle = d.function("middle", |m| {
            m.entry(|b| {
                let v = b.call(inner, vec![]);
                b.ret_val(Expr::var(v).add(Expr::imm(1)));
            });
        });
        d.function_top("outer", |m| {
            m.entry(|b| {
                let v = b.call(middle, vec![]);
                b.output(out, Expr::var(v));
            });
        });
        let design = d.build().unwrap();
        let mut backend = TestBackend::for_design(&design);
        let outcome = Interpreter::new(&design)
            .run_module(design.top, &[], &mut backend)
            .unwrap();
        assert_eq!(backend.outputs[&OutputId(0)], 6);
        // outer calls at 1, middle starts at 2 and calls at 2, inner runs
        // 3..8; middle's call completes at 9 and its block exits at 10;
        // outer's call completes at 11 and its block exits at 12.
        assert_eq!(outcome.end_cycle, 12);
    }

    #[test]
    fn a_pending_operation_is_retried_by_the_next_step() {
        let design = producer_consumer(3);
        let [producer, consumer] = design.dataflow_tasks()[..] else {
            unreachable!("two tasks")
        };
        let run = |refuse: Option<&'static str>, read_stall: u64| {
            let mut backend = TestBackend::for_design(&design);
            let mut exec = Executor::new(&design, producer, &[], DEFAULT_FUEL).unwrap();
            assert!(matches!(exec.step(&mut backend), Ok(Step::Done(_))));
            backend.refuse = refuse;
            backend.read_stall = read_stall;
            let mut exec = Executor::new(&design, consumer, &[], DEFAULT_FUEL).unwrap();
            let mut pending = Vec::new();
            loop {
                match exec.step(&mut backend).unwrap() {
                    Step::Pending(wait) => pending.push((wait, exec.ops_executed())),
                    Step::Done(outcome) => return (outcome, pending, backend.outputs),
                }
            }
        };
        let (plain, none, outputs) = run(None, 0);
        assert!(none.is_empty());
        assert_eq!(outputs[&OutputId(0)], 6);
        // The refused read is retried rather than skipped: it pends after
        // the consumer's two set-up assignments, and the finished run has the
        // same outputs, op count and timing, nothing executed twice.
        let (retried, pending, outputs) = run(Some("not yet"), 0);
        assert_eq!(pending, [("not yet", 2)]);
        assert_eq!(outputs[&OutputId(0)], 6);
        assert_eq!(retried, plain);
        // A commit cycle later than the schedule stalls the task: each of
        // the three reads commits five cycles late.
        let (stalled, _, _) = run(None, 5);
        assert_eq!(stalled.end_cycle, plain.end_cycle + 15);
    }
}
