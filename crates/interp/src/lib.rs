//! # omnisim-interp
//!
//! Executes `omnisim-ir` modules against a pluggable [`SimBackend`].
//!
//! In the paper's artefact, the HLS design's LLVM IR is compiled to native
//! code and linked against a runtime shared library that implements FIFO and
//! AXI intrinsics and collects traces (§6.1). This crate plays both roles for
//! our IR, and holds the workspace's only walker of it: the [`Executor`]
//! runs a module's scheduled basic blocks on an explicit frame stack (module,
//! registers, block, op index and a per-frame [`Timeline`]) and forwards
//! every hardware-visible action to a [`SimBackend`].
//!
//! The executor owns hardware time. It hands every backend call the
//! operation's scheduled cycle and the task's forward-progress frontier
//! ([`At`]) and applies the commit cycle a stalling access returns, so every
//! simulator shares one timing model: block entry and exit, pipelined loop
//! initiation intervals, stall accounting and the call contract.
//!
//! [`Executor::step`] runs until the module returns or the backend answers
//! an operation with "not yet" ([`Halt::Wait`]); the next step retries that
//! operation. Backends that always answer declare `Wait = Infallible` and run
//! modules to completion through [`Interpreter::run_module`]:
//!
//! * `omnisim-csim` — infinite FIFOs, no timing (naive C simulation),
//! * `omnisim-lightning` — trace recording for the decoupled baseline,
//! * `omnisim` — the per-thread runtime of the OmniSim engine, which turns
//!   backend calls into requests/queries for the Perf Sim thread.
//!
//! The cycle-stepped reference (`omnisim-rtlsim`) is the one backend that
//! waits: it steps every task's executor once per clock cycle, holding
//! operations that would run ahead of the wall clock or that depend on
//! channel state not yet final.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod error;
pub mod interpreter;
pub mod timeline;

pub use backend::{At, Halt, SimBackend};
pub use error::SimError;
pub use interpreter::{ExecOutcome, Executor, Interpreter, Step, DEFAULT_FUEL};
pub use timeline::Timeline;
