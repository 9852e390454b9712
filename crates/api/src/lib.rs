//! # omnisim-api
//!
//! The unified simulation API shared by every backend in the workspace.
//!
//! The paper's whole evaluation is a *cross-backend comparison* — naive C
//! simulation vs the LightningSim baseline vs OmniSim vs the cycle-stepped
//! reference — so the backends need one vocabulary for "simulate this design
//! and tell me what happened". This crate provides it:
//!
//! * [`Simulator`] — an object-safe trait (`name()`, `capabilities()`,
//!   `compile(&Design)`, `simulate(&Design)`) implemented by
//!   `omnisim-csim`, `omnisim-lightning`, `omnisim-rtlsim` and the
//!   `omnisim` engine itself,
//! * [`CompiledSim`] / [`RunConfig`] — the compile-once / run-many session
//!   lifecycle: [`Simulator::compile`] pays the front-end cost (design
//!   elaboration, trace or event-graph construction) **once**, and the
//!   returned artifact answers any number of [`CompiledSim::run`] calls —
//!   concurrently, it is `Send + Sync` — each parameterized by a
//!   [`RunConfig`] (FIFO-depth overrides, cycle limit, fuel budget),
//! * [`SimReport`] — the unified result: outputs, a common [`SimOutcome`],
//!   optional cycle count, per-phase [`SimTimings`], warnings and an
//!   [`Extras`] escape hatch for backend-specific payloads (e.g. the
//!   OmniSim engine's `IncrementalState`),
//! * [`SimFailure`] — the unified error, distinguishing designs a backend
//!   *cannot* handle ([`SimFailure::Unsupported`], e.g. Type B/C designs
//!   under LightningSim) from runs that *failed* ([`SimFailure::Execution`]).
//!
//! Each backend's native outcome type converts into [`SimOutcome`] via
//! `From` impls located in the backend's own crate; the `omnisim-suite`
//! facade adds a string-keyed backend registry, a batch `Sweep` API and a
//! concurrent `SimService` design registry (content-hash → shared
//! [`CompiledSim`] artifact) on top of these traits.
//!
//! ## The session lifecycle
//!
//! OmniSim's premise (§7 of the paper) — and LightningSimV2's before it —
//! is that the *expensive* part of simulation is paid once and amortized
//! over many cheap queries. The trait surface mirrors that:
//!
//! ```text
//! Simulator::compile(design)  ──►  Box<dyn CompiledSim>     (front-end, once)
//! CompiledSim::run(&config)   ──►  SimReport                (per query, cheap)
//! Simulator::simulate(design)  ==  compile + run(default)   (one-shot)
//! ```
//!
//! [`SimTimings`] splits along the same seam: `compile` reports its cost
//! through [`CompiledSim::compile_timings`] (front-end elaboration, and —
//! for backends whose graph is built *by executing*, like the OmniSim
//! engine — the one-time execution), while each `run` reports only the
//! per-run `execution`/`finalize` work. The provided [`Simulator::simulate`]
//! sums the two, so [`SimTimings::total`] of a one-shot run remains the
//! true end-to-end wall time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use omnisim_ir::design::OutputMap;
use omnisim_ir::{Design, DesignClass};
use std::any::Any;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// An HLS-design simulator, as seen by the cross-backend tooling.
///
/// The trait is object-safe on purpose: registries, comparison harnesses and
/// sweep drivers hold `Box<dyn Simulator>` and treat every backend
/// identically. The required [`Simulator::compile`] pays the backend's
/// front-end cost once and returns a reusable [`CompiledSim`] session
/// artifact; the provided [`Simulator::simulate`] is the one-shot
/// convenience (`compile` + one default [`CompiledSim::run`]).
pub trait Simulator: Send + Sync {
    /// Stable, registry-friendly backend name (e.g. `"omnisim"`, `"csim"`).
    fn name(&self) -> &'static str;

    /// What this backend can and cannot do.
    fn capabilities(&self) -> Capabilities;

    /// Compiles a design into a reusable session artifact.
    ///
    /// This performs all per-design work the backend can do up front —
    /// elaboration, taxonomy classification, trace generation, event-graph
    /// construction — so that subsequent [`CompiledSim::run`] calls only pay
    /// per-run costs. The artifact is `Send + Sync`: one compiled design can
    /// serve concurrent runs from many threads (e.g. behind an
    /// `Arc<dyn CompiledSim>` in a serving registry).
    ///
    /// # Errors
    ///
    /// Returns [`SimFailure::Unsupported`] when the design falls outside the
    /// backend's supported taxonomy classes, and [`SimFailure::Execution`] /
    /// [`SimFailure::Internal`] when front-end work starts but cannot
    /// produce an artifact.
    fn compile(&self, design: &Design) -> Result<Box<dyn CompiledSim>, SimFailure>;

    /// Reconstructs a compiled artifact from bytes previously produced by
    /// [`CompiledSim::encode`] — the warm-start half of the persistent
    /// artifact store.
    ///
    /// `design` must be the same design the artifact was compiled from
    /// (stores key artifacts by design content hash, so this holds by
    /// construction); artifact encodings deliberately do not embed the
    /// design itself. A decoded artifact answers [`CompiledSim::run`]
    /// bit-identically to the original, but reports zeroed
    /// [`CompiledSim::compile_timings`] — the front-end work it represents
    /// was paid in some earlier process.
    ///
    /// # Errors
    ///
    /// Returns [`SimFailure::Unsupported`] when the backend has no artifact
    /// codec (`serializable_artifact` is false in [`Capabilities`]) and
    /// [`SimFailure::Internal`] when the bytes are truncated, corrupted or
    /// of an incompatible version — callers fall back to a fresh
    /// [`Simulator::compile`].
    fn decode_artifact(
        &self,
        design: &Design,
        bytes: &[u8],
    ) -> Result<Box<dyn CompiledSim>, SimFailure> {
        let _ = (design, bytes);
        Err(SimFailure::unsupported(
            self.name(),
            "backend has no artifact codec",
        ))
    }

    /// Runs the design end to end (one-shot): [`Simulator::compile`]
    /// followed by a single [`CompiledSim::run`] with the default
    /// [`RunConfig`], with the compile-phase timings folded back into the
    /// report so [`SimTimings::total`] covers the whole run.
    ///
    /// # Errors
    ///
    /// Returns [`SimFailure::Unsupported`] when the design falls outside the
    /// backend's supported taxonomy classes, and [`SimFailure::Execution`] /
    /// [`SimFailure::Internal`] when a run starts but cannot produce a
    /// report. Deadlocks, crashes-by-design and cycle-limit aborts are *not*
    /// failures — they are reported through [`SimReport::outcome`], because
    /// observing them is exactly what the evaluation tables compare.
    fn simulate(&self, design: &Design) -> Result<SimReport, SimFailure> {
        let compiled = self.compile(design)?;
        let mut report = compiled.run(&RunConfig::default())?;
        let compile_timings = compiled.compile_timings();
        report.timings.front_end += compile_timings.front_end;
        report.timings.execution += compile_timings.execution;
        report.timings.finalize += compile_timings.finalize;
        Ok(report)
    }
}

impl fmt::Debug for dyn Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("name", &self.name())
            .field("capabilities", &self.capabilities())
            .finish()
    }
}

/// A design compiled by one backend for repeated runs — the session half of
/// the compile-once / run-many lifecycle.
///
/// Artifacts are `Send + Sync` and take `&self`, so a single compiled
/// design can serve concurrent [`CompiledSim::run`] calls from many threads
/// (the `omnisim-suite` facade's `SimService` shares them behind
/// `Arc<dyn CompiledSim>`). Runs are deterministic: the same [`RunConfig`]
/// always produces the same outcome, outputs and cycle count.
pub trait CompiledSim: Send + Sync {
    /// Name of the backend that compiled this artifact.
    fn backend(&self) -> &'static str;

    /// Name of the compiled design.
    fn design_name(&self) -> &str;

    /// Wall-clock cost of the compile phase, on the same three-slot
    /// breakdown as per-run timings: `front_end` covers elaboration /
    /// classification / trace or graph construction, and `execution` covers
    /// any one-time execution the backend performs while building its graph
    /// (the OmniSim engine executes the design to construct it). Added to a
    /// run's own timings by the provided [`Simulator::simulate`].
    fn compile_timings(&self) -> SimTimings;

    /// Runs the compiled design once under the given per-run parameters.
    ///
    /// Backends apply the [`RunConfig`] knobs they understand and ignore the
    /// rest (see the field docs on [`RunConfig`]). The report's
    /// [`SimTimings`] cover only this run's work; the compile-phase cost is
    /// available separately through [`CompiledSim::compile_timings`].
    ///
    /// # Errors
    ///
    /// Returns [`SimFailure::Execution`] / [`SimFailure::Internal`] when the
    /// run cannot produce a report (wrong-arity depth overrides, a failing
    /// re-execution, …). As with [`Simulator::simulate`], deadlocks and
    /// cycle-limit aborts are outcomes, not errors.
    fn run(&self, config: &RunConfig) -> Result<SimReport, SimFailure>;

    /// Serializes this artifact into a versioned, checksummed byte vector
    /// that the owning backend's [`Simulator::decode_artifact`] can
    /// reconstruct in another process.
    ///
    /// Returns `None` when the backend has no artifact codec (the default).
    /// Encodings are canonical: compiling the same design twice and encoding
    /// both artifacts yields byte-identical vectors, so stores can trust
    /// content-hash keys. Wall-clock compile timings are deliberately not
    /// encoded.
    fn encode(&self) -> Option<Vec<u8>> {
        None
    }

    /// The artifact as [`Any`], so backend-aware tooling can downcast to the
    /// concrete type (e.g. `omnisim-dse` compiles its `CompiledPlan` from the
    /// engine's artifact instead of going through [`Extras`]).
    fn as_any(&self) -> &dyn Any;

    /// Lifetime totals of backend-internal events on this artifact, as
    /// `(name, count)` pairs — which run path answered each
    /// [`CompiledSim::run`] (certified replay, incremental re-finalize,
    /// full re-simulation fallback, …). Names are stable,
    /// Prometheus-friendly identifiers; counts are cumulative since the
    /// artifact was created. The serving tier scrapes these into its
    /// metrics registry, which keeps backend crates free of any
    /// observability dependency. The default is no counters.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl fmt::Debug for dyn CompiledSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledSim")
            .field("backend", &self.backend())
            .field("design", &self.design_name())
            .finish()
    }
}

/// Per-run parameters of a [`CompiledSim::run`] call.
///
/// Every knob is optional; `None` means "use what the design / backend was
/// compiled with". Backends apply the knobs they understand:
///
/// | knob          | omnisim                    | lightning | rtl | csim |
/// |---------------|----------------------------|-----------|-----|------|
/// | `fifo_depths` | ✓ (incremental or re-sim)  | ✓         | ✓   | –¹   |
/// | `max_cycles`  | –                          | –         | ✓   | –    |
/// | `fuel`        | ✓ (re-sim fallbacks only)  | –         | –   | ✓    |
///
/// ¹ C simulation models unbounded streams, so FIFO depths cannot affect
/// its results by construction; overrides are accepted and ignored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// Per-FIFO depth overrides (one entry per FIFO of the design, in
    /// declaration order). `None` runs at the design's declared depths.
    pub fifo_depths: Option<Vec<usize>>,
    /// Cycle budget override for cycle-stepping backends.
    pub max_cycles: Option<u64>,
    /// Operation-budget override for backends that (re-)execute the design.
    pub fuel: Option<u64>,
}

impl RunConfig {
    /// A configuration that runs the design exactly as compiled.
    pub fn new() -> Self {
        RunConfig::default()
    }

    /// Overrides the FIFO depths for this run.
    pub fn with_fifo_depths(mut self, depths: impl Into<Vec<usize>>) -> Self {
        self.fifo_depths = Some(depths.into());
        self
    }

    /// Overrides the cycle budget for this run.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = Some(max_cycles);
        self
    }

    /// Overrides the operation budget for this run.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }
}

/// Feature matrix of one backend (the rows of the paper's Table 3/5
/// comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Produces hardware-accurate cycle counts.
    pub cycle_accurate: bool,
    /// Correctly simulates Type B designs (blocking-only accesses whose
    /// *timing* feeds back into behaviour: cyclic dependencies, deadlocks).
    pub handles_type_b: bool,
    /// Correctly simulates Type C designs (non-blocking FIFO accesses whose
    /// *outcome* feeds back into behaviour).
    pub handles_type_c: bool,
    /// Fills in the per-phase [`SimTimings`] breakdown.
    pub produces_timings: bool,
    /// Ships an incremental-DSE payload in [`SimReport::extras`] that can
    /// re-answer FIFO-depth changes without a full re-run.
    pub incremental_dse: bool,
    /// The compiled artifact can additionally be *compiled* into a DSE
    /// bytecode program (`omnisim-dse`'s `CompiledPlan::from_compiled`) for
    /// allocation-free, delta-evaluated grid solving.
    pub compiled_dse: bool,
    /// [`Simulator::compile`] produces an artifact whose [`CompiledSim::run`]
    /// genuinely amortizes front-end work (i.e. a run is cheaper than a
    /// fresh [`Simulator::simulate`], not just a re-execution behind a new
    /// name). True for every workspace backend; the *degree* of
    /// amortization differs — the engine and lightning skip execution
    /// entirely on certified runs, csim replays its cached evaluation, and
    /// rtl only saves elaboration (its runtime is execution-bound by
    /// design).
    pub compiled_run: bool,
    /// The compiled artifact round-trips through [`CompiledSim::encode`] /
    /// [`Simulator::decode_artifact`]: it can be persisted to disk by the
    /// artifact store and warm-started in another process, answering runs
    /// bit-identically to the original.
    pub serializable_artifact: bool,
}

impl Capabilities {
    /// True if the backend claims correct results for the given taxonomy
    /// class.
    pub fn supports(&self, class: DesignClass) -> bool {
        match class {
            DesignClass::TypeA => true,
            DesignClass::TypeB => self.handles_type_b,
            DesignClass::TypeC => self.handles_type_c,
        }
    }
}

/// How a simulation run ended, across all backends.
///
/// Native outcome types (`OmniOutcome`, `RtlOutcome`, `CsimOutcome`) convert
/// into this via `From` impls in their home crates.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimOutcome {
    /// Every task ran to completion.
    Completed,
    /// A design-level deadlock was detected.
    Deadlock {
        /// One human-readable entry per blocked task/FIFO pair.
        blocked: Vec<String>,
    },
    /// The simulated program itself crashed (e.g. the `SIGSEGV` rows of
    /// Table 3 under sequential C simulation).
    Crashed {
        /// What went wrong, styled after the originating tool's output.
        reason: String,
    },
    /// The backend's configured cycle limit was reached before completion.
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
}

impl SimOutcome {
    /// True if the run completed normally.
    pub fn is_completed(&self) -> bool {
        matches!(self, SimOutcome::Completed)
    }

    /// True if a design deadlock was detected.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, SimOutcome::Deadlock { .. })
    }

    /// True if the simulated program crashed.
    pub fn is_crashed(&self) -> bool {
        matches!(self, SimOutcome::Crashed { .. })
    }

    /// A short human-readable description for table cells.
    pub fn describe(&self) -> String {
        match self {
            SimOutcome::Completed => "completed".to_owned(),
            SimOutcome::Deadlock { blocked } if blocked.is_empty() => {
                "deadlock detected".to_owned()
            }
            SimOutcome::Deadlock { blocked } => {
                format!("deadlock detected: {}", blocked.join("; "))
            }
            SimOutcome::Crashed { reason } => reason.clone(),
            SimOutcome::CycleLimit { limit } => format!("cycle limit {limit} reached"),
        }
    }
}

/// Wall-clock time breakdown of a run, mirroring Fig. 8(c) of the paper.
///
/// The slots follow the session lifecycle: `front_end` is compile-phase
/// work (elaboration, taxonomy, trace/graph construction — reported by
/// [`CompiledSim::compile_timings`]), while `execution` and `finalize` are
/// per-run work (reported by each [`CompiledSim::run`]). Backends map their
/// native phases onto the slots: the OmniSim engine reports elaboration
/// under `front_end` and its one-time multi-threaded execution under the
/// compile phase's `execution`, with per-run re-finalization under
/// `finalize`; the LightningSim baseline reports Phase 1 (trace) under
/// `front_end` and Phase 2 (analysis) under `finalize`; single-phase
/// backends report everything under `execution`. For a one-shot
/// [`Simulator::simulate`], compile and run timings are summed, so
/// [`SimTimings::total`] is always the end-to-end wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTimings {
    /// Front-end elaboration: design copy, optimisation passes, taxonomy,
    /// trace/graph construction.
    pub front_end: Duration,
    /// The main simulation work.
    pub execution: Duration,
    /// Finalization / analysis after execution.
    pub finalize: Duration,
}

impl SimTimings {
    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.front_end + self.execution + self.finalize
    }
}

/// Which engine path answered one run — a backend-agnostic label such as
/// `baseline_replay`, `refinalize` or `resim_fallback`, inserted into
/// [`SimReport::extras`] by the backend that served the run.
///
/// [`CompiledSim::counters`] exposes the same vocabulary as *cumulative*
/// artifact totals; this payload is the *per-run* attribution, which a
/// serving tier can attach to exactly the request that took the path
/// (race-free under concurrency, where counter deltas are not).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunPath(pub &'static str);

impl RunPath {
    /// The path label.
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

/// Type-keyed container for backend-specific payloads riding on a
/// [`SimReport`] — e.g. the OmniSim engine's `SimStats` and
/// `IncrementalState`, or the reference simulator's native report.
///
/// At most one value per type is stored; inserting a second value of the
/// same type replaces the first.
#[derive(Default)]
pub struct Extras {
    items: Vec<Box<dyn Any + Send>>,
}

impl Extras {
    /// Creates an empty container.
    pub fn new() -> Self {
        Extras::default()
    }

    /// Stores `value`, replacing any existing payload of the same type.
    pub fn insert<T: Any + Send>(&mut self, value: T) {
        self.remove_slot::<T>();
        self.items.push(Box::new(value));
    }

    /// Borrows the payload of type `T`, if present.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.items.iter().find_map(|item| item.downcast_ref::<T>())
    }

    /// Removes and returns the payload of type `T`, if present.
    pub fn take<T: Any>(&mut self) -> Option<T> {
        self.remove_slot::<T>()
    }

    fn remove_slot<T: Any>(&mut self) -> Option<T> {
        let position = self.items.iter().position(|item| item.as_ref().is::<T>())?;
        self.items
            .swap_remove(position)
            .downcast::<T>()
            .ok()
            .map(|boxed| *boxed)
    }

    /// Number of stored payloads.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if no payload is stored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl fmt::Debug for Extras {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Extras({} payloads)", self.items.len())
    }
}

/// The unified result of a simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Name of the backend that produced this report.
    pub backend: &'static str,
    /// How the run ended.
    pub outcome: SimOutcome,
    /// Final value of every testbench-visible output that was written.
    pub outputs: OutputMap,
    /// End-to-end latency in clock cycles. `None` for backends with no
    /// notion of hardware time (naive C simulation).
    pub total_cycles: Option<u64>,
    /// Wall-clock time breakdown.
    pub timings: SimTimings,
    /// Warning messages and how often each occurred.
    pub warnings: BTreeMap<String, usize>,
    /// Backend-specific payloads (incremental-DSE state, native stats, …).
    pub extras: Extras,
}

impl SimReport {
    /// Creates an empty report for a backend and outcome; callers fill in
    /// the remaining fields.
    pub fn new(backend: &'static str, outcome: SimOutcome) -> Self {
        SimReport {
            backend,
            outcome,
            outputs: OutputMap::new(),
            total_cycles: None,
            timings: SimTimings::default(),
            warnings: BTreeMap::new(),
            extras: Extras::new(),
        }
    }

    /// Convenience accessor: value of a named output, if written.
    pub fn output(&self, name: &str) -> Option<i64> {
        self.outputs.get(name).copied()
    }

    /// Total number of warnings emitted.
    pub fn warning_count(&self) -> usize {
        self.warnings.values().sum()
    }
}

/// Why a backend could not produce a [`SimReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimFailure {
    /// The design falls outside the backend's supported taxonomy classes
    /// (the "not supported" cells of the paper's comparison tables).
    Unsupported {
        /// The rejecting backend.
        backend: &'static str,
        /// Why the design is out of scope.
        reason: String,
    },
    /// The run started but failed (interpreter error, thread panic, …).
    Execution {
        /// The failing backend.
        backend: &'static str,
        /// Human-readable description of the failure.
        message: String,
    },
    /// An invariant violation inside the backend itself.
    Internal {
        /// The failing backend.
        backend: &'static str,
        /// Human-readable description of the bug.
        message: String,
    },
}

impl SimFailure {
    /// Creates an [`SimFailure::Unsupported`] failure.
    pub fn unsupported(backend: &'static str, reason: impl Into<String>) -> Self {
        SimFailure::Unsupported {
            backend,
            reason: reason.into(),
        }
    }

    /// Creates an [`SimFailure::Execution`] failure.
    pub fn execution(backend: &'static str, message: impl Into<String>) -> Self {
        SimFailure::Execution {
            backend,
            message: message.into(),
        }
    }

    /// Creates an [`SimFailure::Internal`] failure.
    pub fn internal(backend: &'static str, message: impl Into<String>) -> Self {
        SimFailure::Internal {
            backend,
            message: message.into(),
        }
    }

    /// The backend that produced this failure.
    pub fn backend(&self) -> &'static str {
        match self {
            SimFailure::Unsupported { backend, .. }
            | SimFailure::Execution { backend, .. }
            | SimFailure::Internal { backend, .. } => backend,
        }
    }

    /// True if the design was rejected as out of scope (rather than a run
    /// going wrong).
    pub fn is_unsupported(&self) -> bool {
        matches!(self, SimFailure::Unsupported { .. })
    }
}

impl fmt::Display for SimFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFailure::Unsupported { backend, reason } => {
                write!(f, "design not supported by backend '{backend}': {reason}")
            }
            SimFailure::Execution { backend, message } => {
                write!(f, "backend '{backend}' failed: {message}")
            }
            SimFailure::Internal { backend, message } => {
                write!(f, "internal error in backend '{backend}': {message}")
            }
        }
    }
}

impl Error for SimFailure {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_predicates_and_descriptions() {
        assert!(SimOutcome::Completed.is_completed());
        let d = SimOutcome::Deadlock {
            blocked: vec!["task 'a' blocked reading fifo 'q'".into()],
        };
        assert!(d.is_deadlock());
        assert!(!d.is_completed());
        assert!(d.describe().contains("task 'a'"));
        let c = SimOutcome::Crashed {
            reason: "@E Simulation failed: SIGSEGV.".into(),
        };
        assert!(c.is_crashed());
        assert_eq!(c.describe(), "@E Simulation failed: SIGSEGV.");
        assert!(SimOutcome::CycleLimit { limit: 7 }.describe().contains('7'));
    }

    #[test]
    fn capabilities_support_matrix() {
        let lightning_like = Capabilities {
            cycle_accurate: true,
            handles_type_b: false,
            handles_type_c: false,
            produces_timings: true,
            incremental_dse: true,
            compiled_dse: false,
            compiled_run: true,
            serializable_artifact: true,
        };
        assert!(lightning_like.supports(DesignClass::TypeA));
        assert!(!lightning_like.supports(DesignClass::TypeB));
        assert!(!lightning_like.supports(DesignClass::TypeC));
    }

    #[test]
    fn timings_total() {
        let t = SimTimings {
            front_end: Duration::from_millis(2),
            execution: Duration::from_millis(5),
            finalize: Duration::from_millis(1),
        };
        assert_eq!(t.total(), Duration::from_millis(8));
    }

    #[test]
    fn run_config_builders() {
        let cfg = RunConfig::new();
        assert_eq!(cfg, RunConfig::default());
        assert!(cfg.fifo_depths.is_none() && cfg.max_cycles.is_none() && cfg.fuel.is_none());
        let cfg = RunConfig::new()
            .with_fifo_depths([4usize, 8])
            .with_max_cycles(1000)
            .with_fuel(99);
        assert_eq!(cfg.fifo_depths.as_deref(), Some(&[4usize, 8][..]));
        assert_eq!(cfg.max_cycles, Some(1000));
        assert_eq!(cfg.fuel, Some(99));
    }

    #[test]
    fn extras_stores_one_payload_per_type() {
        #[derive(Debug, PartialEq)]
        struct Stats(u64);
        #[derive(Debug, PartialEq)]
        struct Other(&'static str);

        let mut extras = Extras::new();
        assert!(extras.is_empty());
        extras.insert(Stats(1));
        extras.insert(Other("x"));
        extras.insert(Stats(2)); // replaces Stats(1)
        assert_eq!(extras.len(), 2);
        assert_eq!(extras.get::<Stats>(), Some(&Stats(2)));
        assert_eq!(extras.get::<Other>(), Some(&Other("x")));
        assert_eq!(extras.take::<Stats>(), Some(Stats(2)));
        assert_eq!(extras.get::<Stats>(), None);
        assert_eq!(extras.len(), 1);
    }

    #[test]
    fn report_accessors() {
        let mut report = SimReport::new("test", SimOutcome::Completed);
        report.outputs.insert("sum".into(), 55);
        report.warnings.insert("read while empty".into(), 3);
        assert_eq!(report.output("sum"), Some(55));
        assert_eq!(report.output("missing"), None);
        assert_eq!(report.warning_count(), 3);
        assert_eq!(report.total_cycles, None);
    }

    #[test]
    fn failures_format_and_classify() {
        let u = SimFailure::unsupported("lightning", "non-blocking FIFO accesses");
        assert!(u.is_unsupported());
        assert_eq!(u.backend(), "lightning");
        assert!(u.to_string().contains("lightning"));
        let e = SimFailure::execution("omnisim", "task 'p' failed");
        assert!(!e.is_unsupported());
        fn assert_err<E: Error + Send + Sync + 'static>(_: &E) {}
        assert_err(&e);
    }

    /// A minimal backend whose compiled artifact counts its runs, proving
    /// the trait surface is object-safe and the provided `simulate` folds
    /// compile timings into the run report.
    struct Dummy;

    struct DummyCompiled;

    impl CompiledSim for DummyCompiled {
        fn backend(&self) -> &'static str {
            "dummy"
        }
        fn design_name(&self) -> &str {
            "d"
        }
        fn compile_timings(&self) -> SimTimings {
            SimTimings {
                front_end: Duration::from_millis(3),
                execution: Duration::from_millis(4),
                finalize: Duration::ZERO,
            }
        }
        fn run(&self, config: &RunConfig) -> Result<SimReport, SimFailure> {
            let mut report = SimReport::new("dummy", SimOutcome::Completed);
            report.total_cycles = Some(config.max_cycles.unwrap_or(10));
            report.timings.finalize = Duration::from_millis(1);
            Ok(report)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    impl Simulator for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
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
                serializable_artifact: false,
            }
        }
        fn compile(&self, _design: &Design) -> Result<Box<dyn CompiledSim>, SimFailure> {
            Ok(Box::new(DummyCompiled))
        }
    }

    fn tiny_design() -> Design {
        let mut d = omnisim_ir::DesignBuilder::new("tiny");
        let out = d.output("x");
        d.function_top("main", |m| {
            m.entry(|b| {
                b.output(out, omnisim_ir::Expr::imm(1));
            });
        });
        d.build().unwrap()
    }

    #[test]
    fn traits_are_object_safe_and_sessions_run() {
        let boxed: Box<dyn Simulator> = Box::new(Dummy);
        assert_eq!(boxed.name(), "dummy");
        assert!(format!("{boxed:?}").contains("dummy"));

        let design = tiny_design();
        let compiled = boxed.compile(&design).unwrap();
        assert!(format!("{compiled:?}").contains("dummy"));
        assert!(compiled.as_any().is::<DummyCompiled>());
        // Per-run knobs reach the artifact.
        let report = compiled.run(&RunConfig::new().with_max_cycles(42)).unwrap();
        assert_eq!(report.total_cycles, Some(42));
        // A bare run reports only per-run timings…
        let bare = compiled.run(&RunConfig::default()).unwrap();
        assert_eq!(bare.timings.total(), Duration::from_millis(1));
        // …while the provided one-shot `simulate` folds the compile phase
        // back in, keeping `total()` end-to-end.
        let one_shot = boxed.simulate(&design).unwrap();
        assert_eq!(one_shot.timings.front_end, Duration::from_millis(3));
        assert_eq!(one_shot.timings.execution, Duration::from_millis(4));
        assert_eq!(one_shot.timings.finalize, Duration::from_millis(1));
        assert_eq!(one_shot.timings.total(), Duration::from_millis(8));
    }

    #[test]
    fn artifact_codec_defaults_to_unsupported() {
        let design = tiny_design();
        let compiled = Dummy.compile(&design).unwrap();
        assert_eq!(compiled.encode(), None, "no codec by default");
        let failure = Dummy.decode_artifact(&design, &[1, 2, 3]).unwrap_err();
        assert!(failure.is_unsupported());
        assert!(failure.to_string().contains("no artifact codec"));
    }

    #[test]
    fn compiled_artifacts_are_shareable_across_threads() {
        let design = tiny_design();
        let compiled: std::sync::Arc<dyn CompiledSim> =
            std::sync::Arc::from(Dummy.compile(&design).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = std::sync::Arc::clone(&compiled);
                scope.spawn(move || {
                    let report = shared.run(&RunConfig::default()).unwrap();
                    assert_eq!(report.total_cycles, Some(10));
                });
            }
        });
    }
}
