//! # omnisim
//!
//! The OmniSim engine: fast, cycle-accurate simulation of HLS dataflow
//! designs — including the Type B and Type C designs (non-blocking FIFO
//! accesses, cyclic dependencies, infinite loops) that commercial HLS tools
//! cannot simulate at the C level — via orchestrated software
//! multi-threading (Sarkar & Hao, MICRO 2025).
//!
//! ## How it works
//!
//! * One **Func Sim thread** is spawned per dataflow module; it executes the
//!   module's code on `omnisim-interp`'s executor, which keeps the module's
//!   exact hardware cycle (including the stalls the Perf Sim thread reports
//!   back), against a runtime that turns each access into a request.
//! * Every FIFO access is sent as a **request** to a central **Perf Sim
//!   thread** (Table 1 of the paper), and the issuing thread pauses until
//!   the Perf Sim thread answers: a blocking access with its commit cycle
//!   (parked until the matching access on the other side is known), a
//!   non-blocking access or status check with its resolved outcome. AXI
//!   traffic and outputs are sent without pausing.
//! * The Perf Sim thread maintains **FIFO read/write tables** recording the
//!   exact hardware cycle of every committed access, a **partial simulation
//!   graph** ([`omnisim_graph::EventGraph`]) and a **query pool**. Queries
//!   ("can the *w*-th write succeed at cycle *c*?") are resolved against the
//!   tables using the rules of Table 2 — against *hardware* time, never
//!   against OS scheduling order.
//! * A **task tracker** counts running Func Sim threads. When every thread is
//!   paused and no query can be resolved, the earliest pending query is
//!   resolved as `false` (the forward-progress insight of §7.1); when every
//!   thread is paused and no queries are pending at all, a true design
//!   deadlock is reported.
//! * **Finalization** overlays the depth-dependent write-after-read
//!   constraints on the simulation graph and runs a longest-path pass to
//!   produce the end-to-end cycle count.
//! * Every resolved query is recorded as a **constraint**; the
//!   [`incremental::IncrementalState`] bundled with each report re-evaluates
//!   those constraints under new FIFO depths so that FIFO sizing DSE can skip
//!   full re-simulation whenever the control flow would not change (§7.2).
//!   The companion `omnisim-dse` crate compiles that state into a frozen
//!   CSR *sweep plan* for batch design-space exploration (its `Sweep`
//!   driver is re-exported by the `omnisim-suite` facade).
//!
//! ## Example
//!
//! ```
//! use omnisim::OmniSimulator;
//! use omnisim_ir::{DesignBuilder, Expr};
//!
//! // Fig. 2 of the paper: a timer that counts cycles until a compute module
//! // produces its result — unsimulatable by naive C simulation.
//! let mut d = DesignBuilder::new("timer");
//! let input = d.fifo("input", 2);
//! let result = d.fifo("result", 2);
//! let cycles_out = d.output("cycles");
//! let feeder = d.function("feeder", |m| {
//!     m.entry(|b| { b.latency(5); b.at(4).fifo_write(input, Expr::imm(84)); });
//! });
//! let compute = d.function("compute", |m| {
//!     m.entry(|b| {
//!         let v = b.fifo_read(input);
//!         b.step(2); // two cycles of work
//!         b.fifo_write(result, Expr::var(v).div(Expr::imm(2)));
//!     });
//! });
//! let timer = d.function("timer", |m| {
//!     let cycles = m.var("cycles");
//!     m.entry(|b| { b.assign(cycles, Expr::imm(0)); });
//!     m.loop_block(1, |b| {
//!         let empty = b.fifo_empty(result);
//!         b.assign(cycles, Expr::var(cycles).add(Expr::var(empty)));
//!         b.exit_loop_if(Expr::var(empty).logical_not());
//!     });
//!     m.exit(|b| { b.output(cycles_out, Expr::var(cycles)); });
//! });
//! d.dataflow_top("top", [feeder, compute, timer]);
//! let design = d.build().unwrap();
//!
//! let report = OmniSimulator::new(&design).run().unwrap();
//! assert!(report.outcome.is_completed());
//! assert!(report.outputs["cycles"] > 0);
//!
//! // Via the unified API: the same engine as a `dyn Simulator`, with the
//! // incremental-DSE state riding along in the report extras.
//! use omnisim_api::Simulator;
//! let backend: Box<dyn Simulator> = Box::new(omnisim::OmniBackend::default());
//! assert!(backend.capabilities().incremental_dse);
//! let unified = backend.simulate(&design).unwrap();
//! assert_eq!(unified.output("cycles"), report.output("cycles"));
//! assert!(unified
//!     .extras
//!     .get::<omnisim::IncrementalState>()
//!     .is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod config;
pub mod engine;
pub mod fifo_table;
pub mod incremental;
pub mod query;
pub mod report;
pub mod request;
pub mod runtime;
#[doc(hidden)]
pub mod test_fixtures;
pub mod unified;

pub use config::SimConfig;
pub use engine::OmniSimulator;
pub use incremental::{IncrementalOutcome, IncrementalState};
pub use query::{QueryKind, QueryPool};
pub use report::{OmniError, OmniOutcome, OmniReport, SimStats, SimTimings};
pub use request::{Request, Response};
pub use unified::{CompiledOmni, OmniBackend};
