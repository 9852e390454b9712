//! # omnisim-suite
//!
//! Facade crate for the OmniSim reproduction workspace: the unified
//! [`Simulator`] API, a string-keyed backend registry, the concurrent
//! [`SimService`] compile-once/run-many serving layer, and re-exports of
//! every member crate under a short name.
//!
//! ## The unified API
//!
//! Every backend implements [`omnisim_api::Simulator`], so cross-backend
//! tooling — the Table 3/5 comparison binaries, the integration tests, the
//! [`Sweep`] DSE driver — holds `Box<dyn Simulator>` and treats all four
//! identically:
//!
//! ```
//! use omnisim_suite::{all_backends, backend, Simulator};
//! use omnisim_suite::ir::{DesignBuilder, Expr};
//!
//! let mut d = DesignBuilder::new("pc");
//! let out = d.output("sum");
//! let q = d.fifo("q", 2);
//! let p = d.function("p", |m| {
//!     m.counted_loop("i", 8, 1, |b| {
//!         let i = b.var_expr("i");
//!         b.fifo_write(q, i.add(Expr::imm(1)));
//!     });
//! });
//! let c = d.function("c", |m| {
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
//! // By name…
//! let omni = backend("omnisim").unwrap();
//! let report = omni.simulate(&design).unwrap();
//! assert_eq!(report.output("sum"), Some(36));
//!
//! // …or all at once. Every backend agrees on this Type A design's outputs.
//! for sim in all_backends() {
//!     let report = sim.simulate(&design).unwrap();
//!     assert_eq!(report.output("sum"), Some(36), "{} disagrees", sim.name());
//! }
//! ```
//!
//! ## Compile once, run many
//!
//! `simulate` is the one-shot convenience; the session API splits the
//! lifecycle so the front-end cost is paid once and every subsequent run —
//! including FIFO-depth what-ifs — is answered from the compiled artifact:
//!
//! ```
//! # use omnisim_suite::{backend, RunConfig};
//! # use omnisim_suite::designs::typea;
//! let design = typea::vecadd_stream(32, 2);
//! let compiled = backend("omnisim").unwrap().compile(&design).unwrap();
//! let baseline = compiled.run(&RunConfig::default()).unwrap();
//! let wider = compiled
//!     .run(&RunConfig::new().with_fifo_depths(vec![64; design.fifos.len()]))
//!     .unwrap();
//! assert!(wider.total_cycles <= baseline.total_cycles);
//! ```
//!
//! [`SimService`] scales the same idea to many designs and many concurrent
//! requests: a content-hash registry of `Arc<dyn CompiledSim>` artifacts
//! with batched, multi-threaded request serving.
//!
//! ## Member crates
//!
//! * [`ir`] — the HLS-like design IR and builders,
//! * [`interp`] — the one resumable IR executor and the `SimBackend` trait,
//! * [`graph`] — simulation-graph structures and longest-path analysis,
//! * [`api`] — the unified `Simulator` trait and `SimReport` types,
//! * [`rtlsim`] — the cycle-stepped reference simulator (co-sim stand-in),
//! * [`csim`] — naive sequential C simulation,
//! * [`lightning`] — the decoupled two-phase LightningSim baseline,
//! * [`omnisim`] — the OmniSim engine itself,
//! * [`dse`] — the compiled DSE engine ([`CompiledPlan`] and its VM,
//!   [`Sweep`], min-depth search),
//! * [`gen`] — the seeded random design generator, test-case shrinker and
//!   cross-backend differential fuzzing oracle,
//! * [`codec`] — the zero-dependency binary codec under every persisted
//!   artifact and wire message,
//! * [`obs`] — zero-dependency metrics: counters, gauges, latency
//!   histograms, spans, Prometheus/JSON exporters,
//! * [`serve`] — the persistent serving tier: [`SimService`], the
//!   disk-backed [`ArtifactStore`] and the TCP server/client pair,
//! * [`designs`] — the benchmark designs of the paper's evaluation.
//!
//! See `README.md` for a quickstart, the backend matrix and how to
//! regenerate each table/figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod service;

pub use omnisim;
pub use omnisim_analyze as analyze;
pub use omnisim_api as api;
pub use omnisim_codec as codec;
pub use omnisim_csim as csim;
pub use omnisim_designs as designs;
pub use omnisim_dse as dse;
pub use omnisim_gen as gen;
pub use omnisim_graph as graph;
pub use omnisim_interp as interp;
pub use omnisim_ir as ir;
pub use omnisim_lightning as lightning;
pub use omnisim_obs as obs;
pub use omnisim_rtlsim as rtlsim;
pub use omnisim_serve as serve;

pub use omnisim_analyze::{analyze, AnalysisReport, DeadlockVerdict, Diagnostic};
pub use omnisim_api::{
    Capabilities, CompiledSim, Extras, RunConfig, SimFailure, SimOutcome, SimReport, SimTimings,
    Simulator,
};
pub use omnisim_dse::{
    CompiledPlan, CompiledVm, MinDepthsReport, PlanError, Sweep, SweepMethod, SweepPlan,
    SweepPoint, SweepReport,
};
pub use service::{ArtifactStore, DesignKey, ServiceStats, SimService, StoreStats};

/// Canonical names of every registered backend, in the order the paper's
/// tables list them: C simulation, the LightningSim baseline, OmniSim, and
/// the cycle-stepped reference.
pub const BACKEND_NAMES: [&str; 4] = ["csim", "lightning", "omnisim", "rtl"];

/// Looks up a backend by name (with common aliases) and returns it as a
/// trait object with its default configuration.
///
/// Accepted names: `csim`/`c-sim`, `lightning`/`lightningsim`, `omnisim`,
/// `rtl`/`rtlsim`/`reference`. Returns `None` for anything else.
pub fn backend(name: &str) -> Option<Box<dyn Simulator>> {
    match name {
        "csim" | "c-sim" => Some(Box::new(csim::CsimBackend::default())),
        "lightning" | "lightningsim" => Some(Box::new(lightning::LightningBackend)),
        "omnisim" => Some(Box::new(omnisim::OmniBackend::default())),
        "rtl" | "rtlsim" | "reference" => Some(Box::new(rtlsim::RtlBackend::default())),
        _ => None,
    }
}

/// Every registered backend, in [`BACKEND_NAMES`] order.
pub fn all_backends() -> Vec<Box<dyn Simulator>> {
    BACKEND_NAMES
        .iter()
        .map(|name| backend(name).expect("registry covers every canonical name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_canonical_names_and_aliases() {
        for name in BACKEND_NAMES {
            let sim = backend(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert_eq!(sim.name(), name);
        }
        assert_eq!(backend("lightningsim").unwrap().name(), "lightning");
        assert_eq!(backend("reference").unwrap().name(), "rtl");
        assert_eq!(backend("c-sim").unwrap().name(), "csim");
        assert!(backend("verilator").is_none());
    }

    #[test]
    fn all_backends_returns_all_four_with_sane_capabilities() {
        let backends = all_backends();
        assert_eq!(backends.len(), BACKEND_NAMES.len());
        let caps: Vec<_> = backends
            .iter()
            .map(|b| (b.name(), b.capabilities()))
            .collect();
        // Only the cycle-accurate Type-C-capable engines handle everything.
        for (name, c) in &caps {
            match *name {
                "omnisim" | "rtl" => {
                    assert!(c.cycle_accurate && c.handles_type_b && c.handles_type_c)
                }
                "lightning" => assert!(c.cycle_accurate && !c.handles_type_c),
                "csim" => assert!(!c.cycle_accurate),
                other => panic!("unexpected backend {other}"),
            }
        }
    }
}
