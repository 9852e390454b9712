//! # omnisim-rtlsim
//!
//! A cycle-stepped reference simulator that stands in for C/RTL
//! co-simulation in the paper's evaluation.
//!
//! Real co-simulation runs the synthesized Verilog in an event-driven RTL
//! simulator; its roles in the evaluation are (1) ground-truth functional
//! outputs, (2) ground-truth cycle counts and (3) the slow baseline that
//! OmniSim is compared against (Fig. 8). This crate provides the same three
//! roles for `omnisim-ir` designs by advancing a global clock one cycle at a
//! time and letting every dataflow task attempt its scheduled operations at
//! each cycle, with registered FIFO semantics (a value written at cycle *c*
//! is visible to reads strictly after *c*) and real FIFO depths.
//!
//! Because every module is evaluated at every cycle, runtime scales with the
//! simulated cycle count — exactly the property that makes RTL co-simulation
//! slow and event-driven simulation (LightningSim, OmniSim) fast.
//!
//! Each task runs on `omnisim-interp`'s resumable executor, the same code
//! that walks the IR and keeps hardware time for every other backend; this
//! crate adds the wall clock, the cycle-accurate channels and the forced
//! resolution of undecided non-blocking accesses on top. Since `omnisim` and
//! this reference therefore share their call contract and initiation-interval
//! arithmetic, `tests/timing_golden.rs` pins this reference's cycle counts
//! with values recorded when the two still walked the IR independently.
//!
//! # Example
//!
//! ```
//! use omnisim_rtlsim::RtlSimulator;
//! use omnisim_ir::{DesignBuilder, Expr};
//!
//! let mut d = DesignBuilder::new("pc");
//! let data = d.array("data", (1..=8).collect::<Vec<i64>>());
//! let out = d.output("sum");
//! let q = d.fifo("q", 2);
//! let p = d.function("producer", |m| {
//!     m.counted_loop("i", 8, 1, |b| {
//!         let i = b.var_expr("i");
//!         let v = b.array_load(data, i);
//!         b.fifo_write(q, Expr::var(v));
//!     });
//! });
//! let c = d.function("consumer", |m| {
//!     let acc = m.var("acc");
//!     m.entry(|b| { b.assign(acc, Expr::imm(0)); });
//!     m.counted_loop("i", 8, 1, |b| {
//!         let v = b.fifo_read(q);
//!         b.assign(acc, Expr::var(acc).add(Expr::var(v)));
//!     });
//!     m.exit(|b| { b.output(out, Expr::var(acc)); });
//! });
//! d.dataflow_top("top", [p, c]);
//! let design = d.build().unwrap();
//!
//! let report = RtlSimulator::new(&design).run().unwrap();
//! assert_eq!(report.outputs["sum"], 36);
//! assert!(report.total_cycles > 8);
//!
//! // Via the unified API: the same run through `dyn Simulator`.
//! use omnisim_api::Simulator;
//! let backend: Box<dyn Simulator> = Box::new(omnisim_rtlsim::RtlBackend::default());
//! assert!(backend.capabilities().cycle_accurate);
//! let unified = backend.simulate(&design).unwrap();
//! assert_eq!(unified.output("sum"), Some(36));
//! assert_eq!(unified.total_cycles, Some(report.total_cycles));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
pub mod report;
pub mod simulator;
pub mod task;
pub mod unified;

pub use report::{RtlOutcome, RtlReport};
pub use simulator::{RtlConfig, RtlSimulator};
pub use unified::{CompiledRtl, RtlBackend};
