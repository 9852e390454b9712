//! # omnisim-csim
//!
//! A faithful model of what commercial HLS *C simulation* does with dataflow
//! designs: execute the tasks **sequentially, in declaration order**, with
//! unbounded FIFOs and no notion of hardware time.
//!
//! This is exactly the behaviour the paper's Table 3 documents and that the
//! Vitis / Catapult manuals warn about:
//!
//! * non-blocking writes always "succeed" (streams are infinite during C sim),
//! * non-blocking reads simply check the current software-visible contents,
//! * reading an empty stream returns a default value and prints a
//!   `read while empty` warning,
//! * streams holding data at the end of simulation produce a
//!   `leftover data` warning,
//! * producers that poll for a "done" signal written by a later task run off
//!   the end of their input arrays and crash (the `SIGSEGV` rows of Table 3),
//! * and no cycle counts are produced at all.
//!
//! The point of this crate is to *reproduce the failure modes*, so that the
//! Table 3 comparison (C-sim vs reference vs OmniSim) can be regenerated.
//!
//! ## Via the unified API
//!
//! [`CsimBackend`] exposes this crate through the workspace-wide
//! [`omnisim_api::Simulator`] trait; note the missing cycle count — C
//! simulation has no notion of hardware time:
//!
//! ```
//! use omnisim_api::Simulator;
//! use omnisim_csim::CsimBackend;
//! use omnisim_ir::{DesignBuilder, Expr};
//!
//! let mut d = DesignBuilder::new("pc");
//! let out = d.output("sum");
//! let q = d.fifo("q", 2);
//! let p = d.function("p", |m| {
//!     m.counted_loop("i", 4, 1, |b| {
//!         let i = b.var_expr("i");
//!         b.fifo_write(q, i.add(Expr::imm(1)));
//!     });
//! });
//! let c = d.function("c", |m| {
//!     let acc = m.var("acc");
//!     m.entry(|b| { b.assign(acc, Expr::imm(0)); });
//!     m.counted_loop("i", 4, 1, |b| {
//!         let v = b.fifo_read(q);
//!         b.assign(acc, Expr::var(acc).add(Expr::var(v)));
//!     });
//!     m.exit(|b| { b.output(out, Expr::var(acc)); });
//! });
//! d.dataflow_top("top", [p, c]);
//! let design = d.build().unwrap();
//!
//! let backend = CsimBackend::default();
//! assert!(!backend.capabilities().cycle_accurate);
//! let report = backend.simulate(&design).unwrap();
//! assert!(report.outcome.is_completed());
//! assert_eq!(report.output("sum"), Some(10));
//! assert_eq!(report.total_cycles, None, "C sim produces no cycle counts");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use omnisim_api::{
    Capabilities, CompiledSim, RunConfig, RunPath, SimFailure, SimOutcome, SimReport, SimTimings,
    Simulator,
};
use omnisim_codec::{frame, unframe, ByteReader, ByteWriter, CodecError};
use omnisim_interp::{At, Halt, Interpreter, SimBackend, SimError};
use omnisim_ir::design::OutputMap;
use omnisim_ir::{ArrayId, AxiId, Design, FifoId, ModuleId, OutputId};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How a C simulation run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsimOutcome {
    /// All tasks ran to completion (which does **not** imply the results are
    /// hardware-accurate).
    Completed,
    /// The simulation crashed, e.g. with an out-of-bounds array access
    /// (reported as `SIGSEGV` in the paper) or a runaway loop.
    Crashed {
        /// The underlying error.
        error: SimError,
        /// Index of the task (in declaration order) that crashed.
        task_index: usize,
    },
}

impl CsimOutcome {
    /// True if the run completed without crashing.
    pub fn is_completed(&self) -> bool {
        matches!(self, CsimOutcome::Completed)
    }

    /// A short human-readable description, styled after the tool output
    /// quoted in Table 3.
    pub fn describe(&self) -> String {
        match self {
            CsimOutcome::Completed => "completed".to_owned(),
            CsimOutcome::Crashed { error, .. } => match error {
                SimError::ArrayOutOfBounds { .. } => "@E Simulation failed: SIGSEGV.".to_owned(),
                SimError::OutOfFuel { .. } => {
                    "@E Simulation failed: did not terminate (killed).".to_owned()
                }
                other => format!("@E Simulation failed: {other}."),
            },
        }
    }
}

/// Result of a C simulation run.
#[derive(Debug, Clone)]
pub struct CsimReport {
    /// How the run ended.
    pub outcome: CsimOutcome,
    /// Outputs written before the run ended.
    pub outputs: OutputMap,
    /// Warning messages and how often each occurred (`read while empty`,
    /// `leftover data`, …).
    pub warnings: BTreeMap<String, usize>,
    /// Host wall-clock time of the run.
    pub wall_time: Duration,
}

impl CsimReport {
    /// Convenience accessor: value of a named output, if written.
    pub fn output(&self, name: &str) -> Option<i64> {
        self.outputs.get(name).copied()
    }

    /// Total number of warnings emitted.
    pub fn warning_count(&self) -> usize {
        self.warnings.values().sum()
    }
}

/// Configuration for C simulation.
#[derive(Debug, Clone, Copy)]
pub struct CsimConfig {
    /// Operation budget before the run is declared non-terminating.
    pub fuel: u64,
}

impl Default for CsimConfig {
    fn default() -> Self {
        CsimConfig { fuel: 20_000_000 }
    }
}

/// Runs naive sequential C simulation of a design with default settings.
pub fn simulate(design: &Design) -> CsimReport {
    simulate_with_config(design, CsimConfig::default())
}

/// Runs naive sequential C simulation with an explicit configuration.
pub fn simulate_with_config(design: &Design, config: CsimConfig) -> CsimReport {
    let started = Instant::now();
    let mut backend = SeqBackend::new(design);
    let mut interp = Interpreter::with_fuel(design, config.fuel);
    let mut outcome = CsimOutcome::Completed;

    for (index, task) in design.dataflow_tasks().into_iter().enumerate() {
        if let Err(error) = interp.run_module(task, &[], &mut backend) {
            outcome = CsimOutcome::Crashed {
                error,
                task_index: index,
            };
            break;
        }
    }

    // Leftover-data warnings, mirroring `Hls::stream … contains leftover data`.
    for (idx, fifo) in backend.fifos.iter().enumerate() {
        if !fifo.is_empty() {
            let name = &design.fifos[idx].name;
            *backend
                .warnings
                .entry(format!("Hls::stream '{name}' contains leftover data"))
                .or_insert(0) += 1;
        }
    }

    CsimReport {
        outcome,
        outputs: backend.outputs,
        warnings: backend.warnings,
        wall_time: started.elapsed(),
    }
}

/// Naive sequential C simulation as a unified [`Simulator`] backend.
///
/// The capability matrix is all-false on purpose: the backend exists to
/// reproduce what commercial C simulation gets *wrong* on Type B/C designs,
/// so cross-backend harnesses must not trust its results there.
#[derive(Debug, Default, Clone, Copy)]
pub struct CsimBackend {
    /// Configuration used for every run.
    pub config: CsimConfig,
}

impl CsimBackend {
    /// Creates a backend with an explicit configuration.
    pub fn with_config(config: CsimConfig) -> Self {
        CsimBackend { config }
    }
}

impl Simulator for CsimBackend {
    fn name(&self) -> &'static str {
        "csim"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            cycle_accurate: false,
            handles_type_b: false,
            handles_type_c: false,
            produces_timings: false,
            incremental_dse: false,
            compiled_dse: false,
            compiled_run: true,
            serializable_artifact: true,
        }
    }

    fn compile(&self, design: &Design) -> Result<Box<dyn CompiledSim>, SimFailure> {
        let started = Instant::now();
        let cached = simulate_with_config(design, self.config);
        let execution = started.elapsed();
        Ok(Box::new(CompiledCsim {
            design: design.clone(),
            config: self.config,
            cached,
            compile_timings: SimTimings {
                execution,
                ..SimTimings::default()
            },
            replays: AtomicU64::new(0),
            reexecutions: AtomicU64::new(0),
        }))
    }

    fn simulate(&self, design: &Design) -> Result<SimReport, SimFailure> {
        Ok(simulate_with_config(design, self.config).into())
    }

    fn decode_artifact(
        &self,
        design: &Design,
        bytes: &[u8],
    ) -> Result<Box<dyn CompiledSim>, SimFailure> {
        decode_compiled(design, bytes)
            .map(|compiled| Box::new(compiled) as Box<dyn CompiledSim>)
            .map_err(|error| {
                SimFailure::internal("csim", format!("artifact decode failed: {error}"))
            })
    }
}

/// Magic bytes of an encoded C-simulation artifact.
pub const CSIM_MAGIC: [u8; 4] = *b"OSAC";
/// Current C-simulation artifact encoding version.
pub const CSIM_VERSION: u16 = 1;

/// Encodes a compiled C-simulation artifact: the configuration plus the
/// cached functional evaluation the runs replay. Host wall-clock times are
/// excluded; a decoded artifact reports zeroed timings.
///
/// Unknown future [`SimError`] variants (the enum is `non_exhaustive`)
/// degrade to [`SimError::Aborted`] carrying the display string, preserving
/// the user-visible diagnosis.
pub fn encode_compiled(compiled: &CompiledCsim) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(256);
    w.str(&compiled.design.name);
    w.u64(compiled.config.fuel);
    match &compiled.cached.outcome {
        CsimOutcome::Completed => w.u8(0),
        CsimOutcome::Crashed { error, task_index } => {
            w.u8(1);
            write_sim_error(&mut w, error);
            w.usize(*task_index);
        }
    }
    w.seq(compiled.cached.outputs.iter(), |w, (name, &value)| {
        w.str(name);
        w.i64(value);
    });
    w.seq(compiled.cached.warnings.iter(), |w, (message, &count)| {
        w.str(message);
        w.usize(count);
    });
    frame(CSIM_MAGIC, CSIM_VERSION, &w.into_bytes())
}

/// Decodes an artifact encoded by [`encode_compiled`] against the design it
/// was compiled from.
///
/// # Errors
///
/// Any [`CodecError`]; an artifact naming a different design surfaces as
/// [`CodecError::Invalid`].
pub fn decode_compiled(design: &Design, bytes: &[u8]) -> Result<CompiledCsim, CodecError> {
    let payload = unframe(CSIM_MAGIC, CSIM_VERSION, bytes)?;
    let mut r = ByteReader::new(payload);
    let design_name = r.str()?;
    if design_name != design.name {
        return Err(CodecError::Invalid(format!(
            "artifact belongs to design '{design_name}', not '{}'",
            design.name
        )));
    }
    let config = CsimConfig { fuel: r.u64()? };
    let outcome = match r.u8()? {
        0 => CsimOutcome::Completed,
        1 => {
            let error = read_sim_error(&mut r)?;
            let task_index = r.usize()?;
            CsimOutcome::Crashed { error, task_index }
        }
        tag => return Err(CodecError::Invalid(format!("outcome tag {tag}"))),
    };
    let mut outputs = OutputMap::new();
    for _ in 0..r.len()? {
        let name = r.str()?;
        let value = r.i64()?;
        outputs.insert(name, value);
    }
    let mut warnings = BTreeMap::new();
    for _ in 0..r.len()? {
        let message = r.str()?;
        let count = r.usize()?;
        warnings.insert(message, count);
    }
    r.finish()?;
    Ok(CompiledCsim {
        design: design.clone(),
        config,
        cached: CsimReport {
            outcome,
            outputs,
            warnings,
            wall_time: Duration::ZERO,
        },
        compile_timings: SimTimings::default(),
        replays: AtomicU64::new(0),
        reexecutions: AtomicU64::new(0),
    })
}

fn write_sim_error(w: &mut ByteWriter, error: &SimError) {
    match error {
        SimError::ArrayOutOfBounds { array, index, len } => {
            w.u8(0);
            w.u32(array.0);
            w.i64(*index);
            w.usize(*len);
        }
        SimError::OutOfFuel { module } => {
            w.u8(1);
            w.u32(module.0);
        }
        SimError::Deadlock { detail } => {
            w.u8(2);
            w.str(detail);
        }
        SimError::AxiProtocolViolation { detail } => {
            w.u8(3);
            w.str(detail);
        }
        SimError::ReadWhileEmpty { fifo } => {
            w.u8(4);
            w.u32(fifo.0);
        }
        SimError::Aborted { reason } => {
            w.u8(5);
            w.str(reason);
        }
        other => {
            w.u8(5);
            w.str(&other.to_string());
        }
    }
}

fn read_sim_error(r: &mut ByteReader<'_>) -> Result<SimError, CodecError> {
    Ok(match r.u8()? {
        0 => SimError::ArrayOutOfBounds {
            array: ArrayId(r.u32()?),
            index: r.i64()?,
            len: r.usize()?,
        },
        1 => SimError::OutOfFuel {
            module: ModuleId(r.u32()?),
        },
        2 => SimError::Deadlock { detail: r.str()? },
        3 => SimError::AxiProtocolViolation { detail: r.str()? },
        4 => SimError::ReadWhileEmpty {
            fifo: FifoId(r.u32()?),
        },
        5 => SimError::Aborted { reason: r.str()? },
        tag => return Err(CodecError::Invalid(format!("sim error tag {tag}"))),
    })
}

/// C simulation compiled for repeated runs.
///
/// C simulation is deterministic, untimed and depth-insensitive (streams
/// are unbounded), so the whole functional evaluation happens once at
/// compile time and every [`CompiledSim::run`] replays the cached
/// [`CsimReport`]. The only [`RunConfig`] knob that can change the result
/// is `fuel` (a smaller budget can turn a completing run into a
/// non-terminating one); a run with a different fuel budget re-executes.
#[derive(Debug)]
pub struct CompiledCsim {
    design: Design,
    config: CsimConfig,
    cached: CsimReport,
    compile_timings: SimTimings,
    // Which path answered each run — scraped by the serving tier through
    // `CompiledSim::counters`.
    replays: AtomicU64,
    reexecutions: AtomicU64,
}

impl CompiledCsim {
    /// The cached functional evaluation the runs replay.
    pub fn cached(&self) -> &CsimReport {
        &self.cached
    }
}

impl CompiledSim for CompiledCsim {
    fn backend(&self) -> &'static str {
        "csim"
    }

    fn design_name(&self) -> &str {
        &self.design.name
    }

    fn compile_timings(&self) -> SimTimings {
        self.compile_timings
    }

    fn run(&self, config: &RunConfig) -> Result<SimReport, SimFailure> {
        let started = Instant::now();
        let (mut unified, path): (SimReport, RunPath) = match config.fuel {
            Some(fuel) if fuel != self.config.fuel => {
                self.reexecutions.fetch_add(1, Ordering::Relaxed);
                (
                    simulate_with_config(&self.design, CsimConfig { fuel }).into(),
                    RunPath("reexecution"),
                )
            }
            _ => {
                self.replays.fetch_add(1, Ordering::Relaxed);
                (self.cached.clone().into(), RunPath("cached_replay"))
            }
        };
        unified.extras.insert(path);
        // The evaluation cost lives in the compile timings (or, for a
        // fuel-override re-execution, in the elapsed time measured here);
        // either way this run's report covers only its own work.
        unified.timings = SimTimings {
            execution: started.elapsed(),
            ..SimTimings::default()
        };
        Ok(unified)
    }

    fn encode(&self) -> Option<Vec<u8>> {
        Some(encode_compiled(self))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cached_replays", self.replays.load(Ordering::Relaxed)),
            ("reexecutions", self.reexecutions.load(Ordering::Relaxed)),
        ]
    }
}

impl From<CsimOutcome> for SimOutcome {
    fn from(outcome: CsimOutcome) -> SimOutcome {
        match &outcome {
            CsimOutcome::Completed => SimOutcome::Completed,
            CsimOutcome::Crashed { .. } => SimOutcome::Crashed {
                reason: outcome.describe(),
            },
        }
    }
}

impl From<CsimReport> for SimReport {
    fn from(report: CsimReport) -> SimReport {
        let mut unified = SimReport::new("csim", report.outcome.clone().into());
        unified.outputs = report.outputs.clone();
        unified.warnings = report.warnings.clone();
        unified.timings.execution = report.wall_time;
        unified.extras.insert(report);
        unified
    }
}

/// The untimed, infinite-depth FIFO backend used by C simulation.
#[derive(Debug)]
struct SeqBackend<'d> {
    design: &'d Design,
    fifos: Vec<VecDeque<i64>>,
    arrays: Vec<Vec<i64>>,
    axi_read_queues: Vec<VecDeque<i64>>,
    axi_write_cursors: Vec<Option<(i64, i64)>>,
    outputs: OutputMap,
    warnings: BTreeMap<String, usize>,
}

impl<'d> SeqBackend<'d> {
    fn new(design: &'d Design) -> Self {
        SeqBackend {
            design,
            fifos: vec![VecDeque::new(); design.fifos.len()],
            arrays: design.arrays.iter().map(|a| a.init.clone()).collect(),
            axi_read_queues: vec![VecDeque::new(); design.axi_ports.len()],
            axi_write_cursors: vec![None; design.axi_ports.len()],
            outputs: OutputMap::new(),
            warnings: BTreeMap::new(),
        }
    }

    fn warn(&mut self, message: String) {
        *self.warnings.entry(message).or_insert(0) += 1;
    }
}

/// Untimed: every access commits at its scheduled cycle.
impl SimBackend for SeqBackend<'_> {
    type Wait = Infallible;

    fn fifo_read(&mut self, fifo: FifoId, at: At) -> Result<(i64, u64), Halt<Infallible>> {
        let value = self.fifos[fifo.index()].pop_front().unwrap_or_else(|| {
            let name = &self.design.fifos[fifo.index()].name;
            self.warn(format!("Hls::stream '{name}' is read while empty"));
            0
        });
        Ok((value, at.cycle))
    }

    fn fifo_write(&mut self, fifo: FifoId, value: i64, at: At) -> Result<u64, Halt<Infallible>> {
        self.fifos[fifo.index()].push_back(value);
        Ok(at.cycle)
    }

    fn fifo_nb_read(&mut self, fifo: FifoId, _at: At) -> Result<Option<i64>, Halt<Infallible>> {
        Ok(self.fifos[fifo.index()].pop_front())
    }

    fn fifo_nb_write(
        &mut self,
        fifo: FifoId,
        value: i64,
        _at: At,
    ) -> Result<bool, Halt<Infallible>> {
        // During C simulation streams are infinite, so a non-blocking write
        // can never observe a full FIFO — the root cause of the wrong
        // results in Table 3.
        self.fifos[fifo.index()].push_back(value);
        Ok(true)
    }

    fn fifo_empty(&mut self, fifo: FifoId, _at: At) -> Result<bool, Halt<Infallible>> {
        Ok(self.fifos[fifo.index()].is_empty())
    }

    fn fifo_full(&mut self, _fifo: FifoId, _at: At) -> Result<bool, Halt<Infallible>> {
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

    fn axi_read_req(&mut self, bus: AxiId, addr: i64, len: i64, _at: At) -> Result<(), SimError> {
        let port = self.design.axi_port(bus);
        let data = &self.arrays[port.array.index()];
        for beat in 0..len {
            let idx = addr + beat;
            let value = usize::try_from(idx)
                .ok()
                .and_then(|i| data.get(i).copied())
                .ok_or(SimError::ArrayOutOfBounds {
                    array: port.array,
                    index: idx,
                    len: data.len(),
                })?;
            self.axi_read_queues[bus.index()].push_back(value);
        }
        Ok(())
    }

    fn axi_read(&mut self, bus: AxiId, at: At) -> Result<(i64, u64), Halt<Infallible>> {
        let value = self.axi_read_queues[bus.index()]
            .pop_front()
            .ok_or_else(|| SimError::AxiProtocolViolation {
                detail: "axi read beat without outstanding request".to_owned(),
            })?;
        Ok((value, at.cycle))
    }

    fn axi_write_req(&mut self, bus: AxiId, addr: i64, _len: i64, _at: At) -> Result<(), SimError> {
        self.axi_write_cursors[bus.index()] = Some((addr, 0));
        Ok(())
    }

    fn axi_write(&mut self, bus: AxiId, value: i64, _at: At) -> Result<(), SimError> {
        let port = self.design.axi_port(bus);
        let (addr, done) =
            self.axi_write_cursors[bus.index()].ok_or_else(|| SimError::AxiProtocolViolation {
                detail: "axi write beat without outstanding request".to_owned(),
            })?;
        let idx = addr + done;
        let data = &mut self.arrays[port.array.index()];
        let len = data.len();
        let slot = usize::try_from(idx)
            .ok()
            .and_then(|i| data.get_mut(i))
            .ok_or(SimError::ArrayOutOfBounds {
                array: port.array,
                index: idx,
                len,
            })?;
        *slot = value;
        self.axi_write_cursors[bus.index()] = Some((addr, done + 1));
        Ok(())
    }

    fn axi_write_resp(&mut self, _bus: AxiId, at: At) -> Result<u64, Halt<Infallible>> {
        Ok(at.cycle)
    }

    fn output(&mut self, output: OutputId, value: i64) -> Result<(), SimError> {
        self.outputs
            .insert(self.design.output_name(output).to_owned(), value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim_ir::{DesignBuilder, Expr};

    #[test]
    fn type_a_design_completes_with_correct_outputs() {
        let mut d = DesignBuilder::new("pc");
        let data = d.array("data", (1..=10).collect::<Vec<i64>>());
        let out = d.output("sum");
        let q = d.fifo("q", 2);
        let p = d.function("p", |m| {
            m.counted_loop("i", 10, 1, |b| {
                let i = b.var_expr("i");
                let v = b.array_load(data, i);
                b.fifo_write(q, Expr::var(v));
            });
        });
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", 10, 1, |b| {
                let v = b.fifo_read(q);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
            });
        });
        d.dataflow_top("top", [p, c]);
        let design = d.build().unwrap();
        let report = simulate(&design);
        assert!(report.outcome.is_completed());
        assert_eq!(report.output("sum"), Some(55));
        assert_eq!(report.warning_count(), 0);
    }

    #[test]
    fn consumer_declared_first_warns_and_reads_zero() {
        // Cyclic-looking declaration order: the consumer runs before the
        // producer, so every read hits an empty stream.
        let mut d = DesignBuilder::new("warn");
        let out = d.output("sum");
        let q = d.fifo("q", 2);
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", 5, 1, |b| {
                let v = b.fifo_read(q);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
            });
        });
        let p = d.function("p", |m| {
            m.counted_loop("i", 5, 1, |b| {
                let i = b.var_expr("i");
                b.fifo_write(q, i.add(Expr::imm(1)));
            });
        });
        d.dataflow_top("top", [c, p]);
        let design = d.build().unwrap();
        let report = simulate(&design);
        assert!(report.outcome.is_completed());
        assert_eq!(report.output("sum"), Some(0), "reads returned zero");
        // 5 read-while-empty warnings plus one leftover-data warning.
        assert_eq!(report.warning_count(), 6);
        assert!(report
            .warnings
            .keys()
            .any(|w| w.contains("read while empty")));
        assert!(report.warnings.keys().any(|w| w.contains("leftover data")));
    }

    #[test]
    fn done_signal_polling_producer_crashes_with_sigsegv() {
        // Fig. 4 Ex. 2-style: producer loops forever writing data[i] until a
        // done signal arrives; under sequential C sim the consumer never runs
        // so the producer runs off the end of `data`.
        let mut d = DesignBuilder::new("crash");
        let data = d.array("data", (0..16).collect::<Vec<i64>>());
        let out = d.output("sum");
        let q = d.fifo("q", 2);
        let done = d.fifo("done", 1);
        let p = d.function("p", |m| {
            let i = m.var("i");
            m.entry(|b| {
                b.assign(i, Expr::imm(0));
            });
            m.loop_block(1, |b| {
                let iv = Expr::var(b.var("i"));
                let v = b.array_load(data, iv.clone());
                let ok = b.fifo_nb_write(q, Expr::var(v));
                b.assign(i, Expr::var(ok).select(iv.clone().add(Expr::imm(1)), iv));
                let (_d, got_done) = b.fifo_nb_read(done);
                b.exit_loop_if(Expr::var(got_done));
            });
        });
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", 16, 1, |b| {
                let v = b.fifo_read(q);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
                b.fifo_write(done, Expr::imm(1));
            });
        });
        d.dataflow_top("top", [p, c]);
        let design = d.build().unwrap();
        let report = simulate(&design);
        assert!(!report.outcome.is_completed());
        assert!(report.outcome.describe().contains("SIGSEGV"));
        assert_eq!(report.output("sum"), None, "consumer never ran");
    }

    #[test]
    fn compiled_sessions_replay_the_cached_evaluation() {
        let mut d = DesignBuilder::new("pc");
        let out = d.output("sum");
        let q = d.fifo("q", 2);
        let p = d.function("p", |m| {
            m.counted_loop("i", 6, 1, |b| {
                let i = b.var_expr("i");
                b.fifo_write(q, i.add(Expr::imm(1)));
            });
        });
        let c = d.function("c", |m| {
            let acc = m.var("acc");
            m.entry(|b| {
                b.assign(acc, Expr::imm(0));
            });
            m.counted_loop("i", 6, 1, |b| {
                let v = b.fifo_read(q);
                b.assign(acc, Expr::var(acc).add(Expr::var(v)));
            });
            m.exit(|b| {
                b.output(out, Expr::var(acc));
            });
        });
        d.dataflow_top("top", [p, c]);
        let design = d.build().unwrap();

        let backend = CsimBackend::default();
        let one_shot = backend.simulate(&design).unwrap();
        let compiled = backend.compile(&design).unwrap();
        for _ in 0..2 {
            let run = compiled.run(&RunConfig::default()).unwrap();
            assert_eq!(run.outcome, one_shot.outcome);
            assert_eq!(run.outputs, one_shot.outputs);
            assert_eq!(run.warnings, one_shot.warnings);
            assert_eq!(run.total_cycles, None, "C sim stays untimed in sessions");
        }
        // Depth overrides cannot change C-sim results; they are ignored.
        let overridden = compiled
            .run(&RunConfig::new().with_fifo_depths([1usize]))
            .unwrap();
        assert_eq!(overridden.outputs, one_shot.outputs);
        // A starving fuel budget re-executes and kills the run.
        let starved = compiled.run(&RunConfig::new().with_fuel(3)).unwrap();
        assert!(starved.outcome.is_crashed());
    }

    #[test]
    fn nb_writes_always_succeed_giving_wrong_drop_counts() {
        // Fig. 4 Ex. 4b-style: the drop counter should be non-zero in real
        // hardware, but C sim reports zero because streams are infinite.
        let mut d = DesignBuilder::new("drops");
        let q = d.fifo("q", 1);
        let dropped = d.output("dropped");
        let p = d.function("p", |m| {
            let n = m.var("n");
            m.entry(|b| {
                b.assign(n, Expr::imm(0));
            });
            m.counted_loop("i", 32, 1, |b| {
                let i = b.var_expr("i");
                let ok = b.fifo_nb_write(q, i);
                b.assign(
                    n,
                    Expr::var(ok).select(Expr::var(n), Expr::var(n).add(Expr::imm(1))),
                );
            });
            m.exit(|b| {
                b.output(dropped, Expr::var(n));
            });
        });
        let c = d.function("c", |m| {
            m.counted_loop("i", 32, 4, |b| {
                let (_v, _ok) = b.fifo_nb_read(q);
            });
        });
        d.dataflow_top("top", [p, c]);
        let design = d.build().unwrap();
        let report = simulate(&design);
        assert!(report.outcome.is_completed());
        assert_eq!(
            report.output("dropped"),
            Some(0),
            "C sim believes nothing was dropped"
        );
    }
}
