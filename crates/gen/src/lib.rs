//! # omnisim-gen
//!
//! Seeded random design generation and cross-backend differential fuzzing
//! for the OmniSim reproduction.
//!
//! The workspace's evaluation inherits a fixed benchmark suite from the
//! paper; this crate removes that ceiling. A deterministic generator
//! ([`generate`]) maps `(GenConfig, seed)` onto well-formed dataflow designs
//! over the `omnisim-ir` builder — targeted per taxonomy class (Type A
//! acyclic/blocking, Type B cyclic/non-blocking-but-invisible, Type C
//! outcome-dependent), with three orthogonal timing dimensions riding on
//! top (AXI read/write bursts with outstanding transactions and
//! interleaving, `Op::Call` chains with optionally wrapped blocking reads,
//! and multi-rate edges with token surpluses) — and a differential oracle
//! ([`differential_check`]) turns the four-backend matrix plus the
//! compiled DSE engine into a self-testing machine:
//!
//! * `omnisim` and the cycle-stepped reference must agree **bit for bit**
//!   (outcome, outputs, total cycles),
//! * `lightning` must be exactly right on completed Type A runs (reporting
//!   its honest graph-cycle diagnosis on deadlocked ones) and reject
//!   Type B/C,
//! * `csim` must reproduce completed Type A runs and is book-kept (not
//!   asserted) on its documented failure modes,
//! * the compiled DSE VM, the uncompiled incremental path and full
//!   re-simulation must give identical DSE answers on random depth vectors
//!   — including the `DepthInfeasible`/`DepthCyclic` verdicts multi-rate
//!   designs produce — and the `min_depths` inverse query's certificate
//!   must be tight against ground truth.
//!
//! Any failing seed reproduces deterministically and [`shrink`]s to a
//! minimal committable [`Blueprint`].
//!
//! ## Example
//!
//! ```
//! use omnisim_gen::{differential_check, generate, DiffConfig, GenConfig, Rng};
//! use omnisim_ir::DesignClass;
//!
//! let g = generate(&GenConfig::type_c(), 42);
//! assert_eq!(g.class, DesignClass::TypeC);
//!
//! let mut rng = Rng::new(42);
//! let report = differential_check(&g.design, &DiffConfig::default(), &mut rng);
//! assert!(report.passed(), "{:?}", report.failures);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod blueprint;
pub mod config;
pub mod generate;
pub mod oracle;
pub mod rng;
pub mod shrink;

pub use blueprint::{AxiPlan, AxiRole, Blueprint, CallPlan, EdgeKind, EdgePlan, TaskPlan};
pub use config::GenConfig;
pub use generate::{generate, Generated};
pub use omnisim_analyze::DeadlockVerdict;
pub use oracle::{
    check_seeded, differential_check, fuzz_seed, CsimAgreement, DiffConfig, DiffReport,
    DSE_RNG_SALT,
};
pub use rng::Rng;
pub use shrink::shrink;
