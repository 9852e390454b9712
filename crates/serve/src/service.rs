//! `SimService`: the concurrent compile-once / run-many serving layer.
//!
//! The expensive half of every query (front-end elaboration, trace or
//! event-graph construction) depends only on the design, so the service
//! keeps a registry of compiled artifacts keyed by design content hash:
//!
//! * [`SimService::register`] content-hashes the design and compiles it
//!   through the configured backend **once**; re-registering the same
//!   design (same structure, any allocation) is a cache hit and returns
//!   the same [`DesignKey`]. With an attached [`ArtifactStore`], a registry
//!   miss first tries to *decode* a previously persisted artifact — a warm
//!   start that skips compilation entirely, even across process restarts.
//! * [`SimService::run`] answers one request against the shared
//!   `Arc<dyn CompiledSim>` artifact — [`CompiledSim`] is `Send + Sync`,
//!   so any number of requests can run concurrently against one artifact.
//! * [`SimService::run_batch`] fans a request list out across scoped
//!   worker threads (the same pool the batch DSE solver uses), with the
//!   worker count tunable via [`SimService::with_workers`] and defaulting
//!   to one per core.
//!
//! [`SimService::with_capacity`] bounds the in-memory registry: inserting
//! past the capacity evicts the least-recently-used design. Evicted
//! artifacts stay in the attached store (if any), so a later register
//! warm-starts from disk instead of recompiling.

use crate::store::ArtifactStore;
use omnisim_api::{CompiledSim, RunConfig, RunPath, SimFailure, SimReport, SimTimings, Simulator};
use omnisim_codec::fnv1a64;
use omnisim_dse::{pool, CompiledPlan, IncrementalOutcome};
use omnisim_ir::wire::encode_design;
use omnisim_ir::Design;
use omnisim_obs::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, Trace, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Handle to a design registered with a [`SimService`] — its content hash.
///
/// Two structurally identical designs (same modules, FIFOs, arrays,
/// schedules and testbench environment) hash to the same key, so callers
/// submitting the same design independently share one compiled artifact.
/// The hash is FNV-1a-64 over the design's canonical wire encoding
/// (`omnisim_ir::wire::encode_design`), so keys are durable: the same
/// design hashes to the same key in every process, which is what lets the
/// [`ArtifactStore`] address artifacts on disk and lets remote clients
/// quote keys over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DesignKey(u64);

/// Store kind the service persists lowered DSE bytecode programs under
/// (next to the backend-named session artifacts they were lowered from).
const DSE_STORE_KIND: &str = "dse";

impl DesignKey {
    /// The raw 64-bit content hash.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// Reconstructs a key from its raw hash (e.g. received over the wire).
    pub fn from_raw(raw: u64) -> Self {
        DesignKey(raw)
    }
}

/// Content hash of a design: FNV-1a-64 over its canonical wire encoding.
///
/// Durable across processes and Rust releases — the encoding is the
/// versioned `omnisim-ir` wire format, not an unspecified `Debug`/hasher
/// pair — so the same key addresses the same design in the registry, on
/// disk and over the wire.
pub fn design_key(design: &Design) -> DesignKey {
    DesignKey(fnv1a64(&encode_design(design)))
}

struct Entry {
    artifact: Arc<dyn CompiledSim>,
    last_used: AtomicU64,
}

/// Point-in-time counters of a [`SimService`] (plus its store, if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Designs currently resident in the in-memory registry.
    pub designs: usize,
    /// Compilations performed (registry misses not answered by the store).
    pub compiles: usize,
    /// Register calls answered by the in-memory registry.
    pub cache_hits: usize,
    /// Register calls answered by decoding a persisted artifact.
    pub warm_starts: usize,
    /// Designs evicted from the in-memory registry by the LRU capacity.
    pub registry_evictions: usize,
    /// Lowered DSE bytecode programs currently resident.
    pub dse_programs: usize,
    /// Counters of the attached [`ArtifactStore`], if any.
    pub store: Option<crate::store::StoreStats>,
}

impl ServiceStats {
    /// Fraction of register calls answered without compiling — in-memory
    /// hits plus store warm starts over all resolutions (0.0 before the
    /// first register).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.warm_starts + self.compiles;
        if total == 0 {
            0.0
        } else {
            (self.cache_hits + self.warm_starts) as f64 / total as f64
        }
    }
}

/// The service's metric handles, re-buildable against any registry.
#[derive(Debug)]
struct ServiceMetrics {
    register_hit: Counter,
    register_warm: Counter,
    register_compile: Counter,
    register_hit_nanos: Histogram,
    register_warm_nanos: Histogram,
    register_compile_nanos: Histogram,
    dse_hit: Counter,
    dse_warm: Counter,
    dse_compile: Counter,
    dse_points: Histogram,
    analyze_free: Counter,
    analyze_deadlock: Counter,
    analyze_unknown: Counter,
    analyze_nanos: Histogram,
    runs: Counter,
    run_nanos: Histogram,
    batch_size: Histogram,
    batch_nanos: Histogram,
    batch_workers: Gauge,
    registry_evictions: Counter,
    designs: Gauge,
    compile_front_end: Histogram,
    compile_execution: Histogram,
    compile_finalize: Histogram,
    run_execution: Histogram,
    run_finalize: Histogram,
}

impl ServiceMetrics {
    fn bind(registry: &MetricsRegistry) -> Self {
        let register_nanos =
            |outcome| registry.histogram_with("service_register_nanos", &[("outcome", outcome)]);
        let compile_phase =
            |phase| registry.histogram_with("compile_phase_nanos", &[("phase", phase)]);
        let run_phase = |phase| registry.histogram_with("run_phase_nanos", &[("phase", phase)]);
        ServiceMetrics {
            register_hit: registry.counter_with("service_register_total", &[("outcome", "hit")]),
            register_warm: registry.counter_with("service_register_total", &[("outcome", "warm")]),
            register_compile: registry
                .counter_with("service_register_total", &[("outcome", "compile")]),
            register_hit_nanos: register_nanos("hit"),
            register_warm_nanos: register_nanos("warm"),
            register_compile_nanos: register_nanos("compile"),
            dse_hit: registry.counter_with("service_dse_total", &[("outcome", "hit")]),
            dse_warm: registry.counter_with("service_dse_total", &[("outcome", "warm")]),
            dse_compile: registry.counter_with("service_dse_total", &[("outcome", "compile")]),
            dse_points: registry.histogram("service_dse_points"),
            analyze_free: registry
                .counter_with("service_analyze_total", &[("verdict", "certified_free")]),
            analyze_deadlock: registry.counter_with(
                "service_analyze_total",
                &[("verdict", "certified_deadlock")],
            ),
            analyze_unknown: registry
                .counter_with("service_analyze_total", &[("verdict", "unknown")]),
            analyze_nanos: registry.histogram("service_analyze_nanos"),
            runs: registry.counter("service_runs_total"),
            run_nanos: registry.histogram("service_run_nanos"),
            batch_size: registry.histogram("service_batch_size"),
            batch_nanos: registry.histogram("service_batch_nanos"),
            batch_workers: registry.gauge("service_batch_workers"),
            registry_evictions: registry.counter("service_registry_evictions_total"),
            designs: registry.gauge("service_designs_resident"),
            compile_front_end: compile_phase("front_end"),
            compile_execution: compile_phase("execution"),
            compile_finalize: compile_phase("finalize"),
            run_execution: run_phase("execution"),
            run_finalize: run_phase("finalize"),
        }
    }

    fn migrate_counters(&self, fresh: &ServiceMetrics) {
        fresh.register_hit.add(self.register_hit.value());
        fresh.register_warm.add(self.register_warm.value());
        fresh.register_compile.add(self.register_compile.value());
        fresh.dse_hit.add(self.dse_hit.value());
        fresh.dse_warm.add(self.dse_warm.value());
        fresh.dse_compile.add(self.dse_compile.value());
        fresh.analyze_free.add(self.analyze_free.value());
        fresh.analyze_deadlock.add(self.analyze_deadlock.value());
        fresh.analyze_unknown.add(self.analyze_unknown.value());
        fresh.runs.add(self.runs.value());
        fresh
            .registry_evictions
            .add(self.registry_evictions.value());
    }

    fn observe_compile(&self, timings: SimTimings) {
        self.compile_front_end.observe_duration(timings.front_end);
        self.compile_execution.observe_duration(timings.execution);
        self.compile_finalize.observe_duration(timings.finalize);
    }

    // An exactly-zero phase means the backend never timed it (e.g. a
    // cached replay with no execution leg) — skipping it keeps the
    // per-run histograms meaningful and the hot path cheap.
    fn observe_run(&self, timings: SimTimings) {
        if !timings.execution.is_zero() {
            self.run_execution.observe_duration(timings.execution);
        }
        if !timings.finalize.is_zero() {
            self.run_finalize.observe_duration(timings.finalize);
        }
    }
}

/// A concurrent compile-once / run-many simulation service over one
/// backend. See the [module docs](self) for the design.
pub struct SimService {
    backend: Box<dyn Simulator>,
    artifacts: RwLock<HashMap<DesignKey, Entry>>,
    /// Lowered DSE bytecode programs, keyed like the artifacts they were
    /// lowered from. Kept alongside (not inside) the artifact registry:
    /// programs are derived on first use, not at register time, so designs
    /// that never take a DSE query pay nothing.
    dse_programs: RwLock<HashMap<DesignKey, Arc<CompiledPlan>>>,
    workers: Option<usize>,
    capacity: Option<usize>,
    store: Option<ArtifactStore>,
    clock: AtomicU64,
    registry: Arc<MetricsRegistry>,
    metrics: ServiceMetrics,
    tracer: Tracer,
}

impl SimService {
    /// Creates a service over the given backend, with one worker per core
    /// for batched requests, no registry capacity bound and no store.
    pub fn new(backend: Box<dyn Simulator>) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let metrics = ServiceMetrics::bind(&registry);
        SimService {
            backend,
            artifacts: RwLock::new(HashMap::new()),
            dse_programs: RwLock::new(HashMap::new()),
            workers: None,
            capacity: None,
            store: None,
            clock: AtomicU64::new(0),
            registry,
            metrics,
            tracer: Tracer::disabled(),
        }
    }

    /// Swaps the service's metrics registry — e.g. for a shared registry
    /// spanning several services, or an
    /// [`omnisim_obs::MetricsRegistry::disabled`] one to measure the
    /// uninstrumented path. Accumulated counter values carry across, and an
    /// attached store is re-homed into the same registry.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        let fresh = ServiceMetrics::bind(&registry);
        self.metrics.migrate_counters(&fresh);
        self.metrics = fresh;
        if let Some(store) = &mut self.store {
            store.bind_metrics(Arc::clone(&registry));
        }
        self.registry = registry;
        self
    }

    /// Pins the number of worker threads used by [`SimService::run_batch`]
    /// (clamped to at least one).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Bounds the in-memory registry to `designs` artifacts (clamped to at
    /// least one); registering past the bound evicts the least-recently-used
    /// design. Evicted artifacts remain in the attached store, so they
    /// warm-start instead of recompiling on their next register.
    pub fn with_capacity(mut self, designs: usize) -> Self {
        self.capacity = Some(designs.max(1));
        self
    }

    /// Attaches a persistent artifact store: registrations consult it
    /// before compiling and persist freshly compiled artifacts into it.
    pub fn with_store(mut self, mut store: ArtifactStore) -> Self {
        store.bind_metrics(Arc::clone(&self.registry));
        store.bind_tracer(self.tracer.clone());
        self.store = Some(store);
        self
    }

    /// Attaches a tracer: register, run and batch calls open
    /// `service_*`/`backend_run` spans under the caller's current span
    /// (or the remote context the server joined), the attached store's
    /// disk operations nest inside them, and the tracer's own counters
    /// (`dropped_spans_total`, kept/discarded traces) are published into
    /// the service's metrics registry.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        tracer.bind_metrics(&self.registry);
        if let Some(store) = &mut self.store {
            store.bind_tracer(tracer.clone());
        }
        self.tracer = tracer;
        self
    }

    /// The tracer the service records request spans into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Recently kept traces from the tracer's flight recorder — sampled
    /// survivors grouped into per-trace span trees.
    pub fn recent_traces(&self) -> Vec<Trace> {
        self.tracer.recent_traces()
    }

    /// The metrics registry shared by the service, its store and (when
    /// served over TCP) the wire layer.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Name of the backend this service compiles and runs with.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers a design: compiles it if its content hash is new, returns
    /// the existing artifact's key otherwise.
    ///
    /// Resolution order on a registry miss: with a store attached, a
    /// persisted artifact is loaded and decoded (a *warm start*); a
    /// truncated, corrupted or version-mismatched artifact falls back to a
    /// fresh compile, removing the bad file so the new encoding replaces
    /// it. Freshly compiled artifacts of serializable backends are encoded
    /// and persisted.
    ///
    /// Compilation happens outside the registry lock, so registering a new
    /// design never blocks concurrent [`SimService::run`] calls (two
    /// concurrent first registrations of the same design may both compile;
    /// artifacts are deterministic, so either result is kept).
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`Simulator::compile`] failure
    /// ([`SimFailure::Unsupported`] designs are not cached — a later
    /// register retries).
    pub fn register(&self, design: &Design) -> Result<DesignKey, SimFailure> {
        let started = Instant::now();
        let key = design_key(design);
        let mut tspan = self.tracer.span("service_register");
        tspan.set_attr("design_key", format!("{:#018x}", key.raw()));
        if let Some(entry) = self
            .artifacts
            .read()
            .expect("service registry poisoned")
            .get(&key)
        {
            entry.last_used.store(self.tick(), Ordering::Relaxed);
            self.metrics.register_hit.inc();
            self.metrics
                .register_hit_nanos
                .observe_duration(started.elapsed());
            tspan.set_attr("outcome", "hit");
            return Ok(key);
        }
        if let Some(store) = &self.store {
            if let Some(bytes) = store.load(self.backend.name(), key.raw()) {
                match self.backend.decode_artifact(design, &bytes) {
                    Ok(artifact) => {
                        self.metrics.register_warm.inc();
                        self.install(key, Arc::from(artifact));
                        self.metrics
                            .register_warm_nanos
                            .observe_duration(started.elapsed());
                        tspan.set_attr("outcome", "warm");
                        return Ok(key);
                    }
                    // A bad persisted artifact must never take the service
                    // down: drop the file and recompile below.
                    Err(_) => store.remove(self.backend.name(), key.raw()),
                }
            }
        }
        let artifact: Arc<dyn CompiledSim> = match self.backend.compile(design) {
            Ok(artifact) => Arc::from(artifact),
            Err(failure) => {
                tspan.set_attr("outcome", "rejected");
                return Err(failure);
            }
        };
        self.metrics.register_compile.inc();
        self.metrics.observe_compile(artifact.compile_timings());
        if let Some(store) = &self.store {
            if let Some(bytes) = artifact.encode() {
                // Persisting is best-effort: a full disk degrades warm
                // starts, it does not fail registration.
                let _ = store.save(self.backend.name(), key.raw(), &bytes);
            }
        }
        self.install(key, artifact);
        self.metrics
            .register_compile_nanos
            .observe_duration(started.elapsed());
        tspan.set_attr("outcome", "compile");
        Ok(key)
    }

    /// Statically analyzes a design — deadlock certificate, FIFO depth
    /// lower bounds, race and lint diagnostics — without compiling or
    /// simulating anything.
    ///
    /// The analyzer is pure CPU work over the design's structure, so this
    /// takes no registry locks, touches no artifact and never fails;
    /// clients use it as a cheap pre-flight before paying for a register
    /// (a `certified-deadlock` design will never complete on any backend).
    /// Outcomes are counted in `service_analyze_total` (labelled by
    /// verdict) and timed in `service_analyze_nanos`.
    pub fn analyze(&self, design: &Design) -> omnisim_analyze::AnalysisReport {
        let started = Instant::now();
        let mut tspan = self.tracer.span("service_analyze");
        let report = omnisim_analyze::analyze(design);
        match report.verdict {
            omnisim_analyze::DeadlockVerdict::CertifiedFree => self.metrics.analyze_free.inc(),
            omnisim_analyze::DeadlockVerdict::CertifiedDeadlock => {
                self.metrics.analyze_deadlock.inc()
            }
            omnisim_analyze::DeadlockVerdict::Unknown => self.metrics.analyze_unknown.inc(),
        }
        self.metrics
            .analyze_nanos
            .observe_duration(started.elapsed());
        tspan.set_attr("verdict", report.verdict.to_string());
        tspan.set_attr("diagnostics", report.diagnostics.len().to_string());
        report
    }

    fn install(&self, key: DesignKey, artifact: Arc<dyn CompiledSim>) {
        let mut evicted = Vec::new();
        {
            let mut map = self.artifacts.write().expect("service registry poisoned");
            map.entry(key).or_insert_with(|| Entry {
                artifact,
                last_used: AtomicU64::new(self.tick()),
            });
            if let Some(capacity) = self.capacity {
                while map.len() > capacity {
                    let victim = map
                        .iter()
                        .filter(|(candidate, _)| **candidate != key)
                        .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
                        .map(|(candidate, _)| *candidate);
                    let Some(victim) = victim else { break };
                    map.remove(&victim);
                    self.metrics.registry_evictions.inc();
                    evicted.push(victim);
                }
            }
            self.metrics.designs.set(map.len() as i64);
        }
        // An evicted design takes its derived DSE program with it, so the
        // capacity bound bounds both registries. (Locks are never nested
        // the other way around: DSE resolution drops the program lock
        // before touching the artifact registry.)
        if !evicted.is_empty() {
            let mut programs = self
                .dse_programs
                .write()
                .expect("service dse registry poisoned");
            for victim in evicted {
                programs.remove(&victim);
            }
        }
    }

    /// The shared artifact for a registered design, if present. Callers can
    /// hold the `Arc` and run against it directly (e.g. to downcast the
    /// engine's artifact into a DSE `CompiledPlan`).
    pub fn artifact(&self, key: DesignKey) -> Option<Arc<dyn CompiledSim>> {
        let map = self.artifacts.read().expect("service registry poisoned");
        let entry = map.get(&key)?;
        entry.last_used.store(self.tick(), Ordering::Relaxed);
        Some(Arc::clone(&entry.artifact))
    }

    /// Resolves the lowered DSE bytecode program of a registered design
    /// ([`CompiledPlan`]), lowering and caching it on first use.
    ///
    /// Resolution order mirrors [`SimService::register`]: the in-memory
    /// program cache first; then, with a store attached, a persisted
    /// program is decoded (a warm start that skips both simulation and
    /// lowering, even across process restarts — a corrupt file falls
    /// through and is replaced); finally the resident session artifact is
    /// compiled through [`CompiledPlan::from_compiled`], and the fresh
    /// encoding is persisted best-effort under the store kind `"dse"`.
    ///
    /// Two concurrent first resolutions may both lower; programs are
    /// deterministic, so either result is kept.
    ///
    /// # Errors
    ///
    /// Returns [`SimFailure::Execution`] for an unknown key or a cyclic
    /// baseline, and [`SimFailure::Unsupported`] when the backend's
    /// artifact carries no frozen incremental state to lower (see
    /// `Capabilities::compiled_dse`).
    pub fn dse_program(&self, key: DesignKey) -> Result<Arc<CompiledPlan>, SimFailure> {
        let mut tspan = self.tracer.span("service_dse_program");
        if let Some(program) = self
            .dse_programs
            .read()
            .expect("service dse registry poisoned")
            .get(&key)
        {
            self.metrics.dse_hit.inc();
            tspan.set_attr("outcome", "hit");
            return Ok(Arc::clone(program));
        }
        if let Some(store) = &self.store {
            if let Some(bytes) = store.load(DSE_STORE_KIND, key.raw()) {
                match CompiledPlan::decode(&bytes) {
                    Ok(program) => {
                        let program = Arc::new(program);
                        self.metrics.dse_warm.inc();
                        self.install_program(key, Arc::clone(&program));
                        tspan.set_attr("outcome", "warm");
                        return Ok(program);
                    }
                    // Same discipline as artifacts: a bad persisted
                    // program must never take the service down.
                    Err(_) => store.remove(DSE_STORE_KIND, key.raw()),
                }
            }
        }
        let Some(artifact) = self.artifact(key) else {
            tspan.set_attr("outcome", "unknown_key");
            return Err(SimFailure::execution(
                self.backend.name(),
                format!("no design registered under key {:#018x}", key.raw()),
            ));
        };
        let Some(program) = CompiledPlan::from_compiled(artifact.as_ref()) else {
            tspan.set_attr("outcome", "unsupported");
            return Err(SimFailure::unsupported(
                self.backend.name(),
                "artifact carries no frozen incremental state to lower into a DSE program",
            ));
        };
        let program = match program {
            Ok(program) => Arc::new(program),
            Err(cycle) => {
                tspan.set_attr("outcome", "rejected");
                return Err(SimFailure::execution(
                    self.backend.name(),
                    cycle.to_string(),
                ));
            }
        };
        self.metrics.dse_compile.inc();
        if let Some(store) = &self.store {
            // Best-effort, like artifact persistence.
            let _ = store.save(DSE_STORE_KIND, key.raw(), &program.encode());
        }
        self.install_program(key, Arc::clone(&program));
        tspan.set_attr("outcome", "compile");
        Ok(program)
    }

    fn install_program(&self, key: DesignKey, program: Arc<CompiledPlan>) {
        self.dse_programs
            .write()
            .expect("service dse registry poisoned")
            .entry(key)
            .or_insert(program);
    }

    /// Evaluates a batch of FIFO-depth points against a registered
    /// design's DSE program, in request order — the serving-tier face of
    /// [`CompiledPlan::evaluate_batch`]. The service's pinned worker count
    /// ([`SimService::with_workers`]) is honored; without one the program
    /// decides serial vs. parallel from the batch's estimated work.
    ///
    /// # Errors
    ///
    /// Program-resolution failures as in [`SimService::dse_program`]; a
    /// wrong-arity or zero-depth point maps to [`SimFailure::Execution`]
    /// and fails the batch as a whole.
    pub fn dse_batch<P>(
        &self,
        key: DesignKey,
        points: &[P],
    ) -> Result<Vec<IncrementalOutcome>, SimFailure>
    where
        P: AsRef<[usize]> + Sync,
    {
        let mut tspan = self.tracer.span("service_dse_batch");
        tspan.set_attr("points", points.len());
        let program = self.dse_program(key)?;
        self.metrics.dse_points.observe(points.len() as u64);
        let result = match self.workers {
            Some(workers) => program.evaluate_batch_workers(points, workers),
            None => program.evaluate_batch(points, true),
        };
        match result {
            Ok(outcomes) => {
                tspan.set_attr("outcome", "ok");
                Ok(outcomes)
            }
            Err(error) => {
                tspan.set_attr("outcome", "invalid_point");
                Err(SimFailure::execution(
                    self.backend.name(),
                    error.to_string(),
                ))
            }
        }
    }

    /// Serves one run request against a registered design.
    ///
    /// # Errors
    ///
    /// Returns [`SimFailure::Execution`] for an unknown key, and the
    /// artifact's own failure otherwise.
    pub fn run(&self, key: DesignKey, config: &RunConfig) -> Result<SimReport, SimFailure> {
        let span = self.metrics.run_nanos.span();
        // A fragment root: under `run_batch` each request settles into
        // the flight recorder as its own small fragment when it finishes
        // (still parented under the batch span), rather than thousands of
        // request spans accumulating under the batch root.
        let mut tspan = self.tracer.span_fragment("service_run");
        let Some(artifact) = self.artifact(key) else {
            // The key only goes on the span when something needs
            // explaining — formatting it on every run is measurable at
            // replay throughput.
            tspan.set_attr("design_key", format!("{:#018x}", key.raw()));
            tspan.set_attr("outcome", "unknown_key");
            return Err(SimFailure::execution(
                self.backend.name(),
                format!("no design registered under key {:#018x}", key.raw()),
            ));
        };
        let mut run_span = self.tracer.span("backend_run");
        run_span.set_attr("backend", artifact.backend());
        let result = artifact.run(config);
        match &result {
            Ok(report) => {
                // Which engine path answered this run (certified replay,
                // re-finalize, full re-simulation, …) — the per-run view of
                // the cumulative `CompiledSim::counters` scraped below.
                if let Some(path) = report.extras.get::<RunPath>() {
                    run_span.set_attr("path", path.as_str());
                }
                run_span.set_attr("outcome", "ok");
            }
            Err(failure) => run_span.set_attr(
                "outcome",
                if failure.is_unsupported() {
                    "unsupported"
                } else {
                    "failed"
                },
            ),
        }
        for (event, count) in artifact.counters() {
            run_span.set_attr(event, count);
        }
        run_span.finish();
        let report = result?;
        self.metrics.runs.inc();
        self.metrics.observe_run(report.timings);
        tspan.set_attr("outcome", "ok");
        span.finish();
        Ok(report)
    }

    /// Serves a batch of run requests across scoped worker threads,
    /// returning one result per request in request order. Requests may mix
    /// designs and run configurations freely.
    pub fn run_batch(
        &self,
        requests: &[(DesignKey, RunConfig)],
    ) -> Vec<Result<SimReport, SimFailure>> {
        let span = self.metrics.batch_nanos.span();
        let mut tspan = self.tracer.span("service_run_batch");
        tspan.set_attr("requests", requests.len());
        let workers = pool::resolve_workers(self.workers);
        self.metrics.batch_size.observe(requests.len() as u64);
        self.metrics.batch_workers.set(workers as i64);
        // Each pool worker re-attaches the batch span's context, so the
        // per-request `service_run` spans land under this batch span even
        // though they record from other threads.
        let context = self.tracer.local_context();
        let results = pool::parallel_map(requests, workers, |(key, config)| {
            let _guard = context.map(|context| self.tracer.attach(context));
            self.run(*key, config)
        });
        span.finish();
        results
    }

    /// Number of designs currently registered.
    pub fn len(&self) -> usize {
        self.artifacts
            .read()
            .expect("service registry poisoned")
            .len()
    }

    /// True if no design has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of compilations performed (registry misses not answered by
    /// the store).
    pub fn compiles(&self) -> usize {
        self.metrics.register_compile.value() as usize
    }

    /// Number of [`SimService::register`] calls answered from the registry.
    pub fn cache_hits(&self) -> usize {
        self.metrics.register_hit.value() as usize
    }

    /// Number of [`SimService::register`] calls answered by decoding a
    /// persisted artifact instead of compiling.
    pub fn warm_starts(&self) -> usize {
        self.metrics.register_warm.value() as usize
    }

    /// Number of designs evicted from the in-memory registry by the LRU
    /// capacity bound.
    pub fn registry_evictions(&self) -> usize {
        self.metrics.registry_evictions.value() as usize
    }

    /// Number of lowered DSE bytecode programs currently resident.
    pub fn dse_programs(&self) -> usize {
        self.dse_programs
            .read()
            .expect("service dse registry poisoned")
            .len()
    }

    /// A point-in-time snapshot of every counter, including the attached
    /// store's.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            designs: self.len(),
            compiles: self.compiles(),
            cache_hits: self.cache_hits(),
            warm_starts: self.warm_starts(),
            registry_evictions: self.registry_evictions(),
            dse_programs: self.dse_programs(),
            store: self.store.as_ref().map(ArtifactStore::stats),
        }
    }

    /// Freezes the shared metrics registry, first scraping every resident
    /// artifact's engine-level [`CompiledSim::counters`] (which run path
    /// answered each request: certified replay, re-finalize, re-simulation
    /// fallback, …) into `engine_events{backend=…,event=…}` gauges. Gauges,
    /// not counters: artifacts evicted from the LRU registry take their
    /// lifetime totals with them, so the scrape is a point-in-time view of
    /// the resident set.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        if self.registry.is_enabled() {
            let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
            let map = self.artifacts.read().expect("service registry poisoned");
            for entry in map.values() {
                for (event, count) in entry.artifact.counters() {
                    *totals.entry(event).or_insert(0) += count;
                }
            }
            drop(map);
            for (event, total) in totals {
                self.registry
                    .gauge_with(
                        "engine_events",
                        &[("backend", self.backend.name()), ("event", event)],
                    )
                    .set(total as i64);
            }
        }
        self.registry.snapshot()
    }
}

impl std::fmt::Debug for SimService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimService")
            .field("backend", &self.backend.name())
            .field("designs", &self.len())
            .field("compiles", &self.compiles())
            .field("cache_hits", &self.cache_hits())
            .field("warm_starts", &self.warm_starts())
            .field("registry_evictions", &self.registry_evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omnisim::OmniBackend;
    use omnisim_designs::{fig4, typea};
    use std::path::PathBuf;

    fn service() -> SimService {
        SimService::new(Box::new(OmniBackend::default()))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static UNIQUE: AtomicUsize = AtomicUsize::new(0);
        let n = UNIQUE.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("omnisim-svc-dse-{tag}-{}-{n}", std::process::id()))
    }

    #[test]
    fn registering_the_same_design_compiles_once() {
        let service = service();
        assert!(service.is_empty());
        let design = typea::vecadd_stream(24, 2);
        let key = service.register(&design).unwrap();
        // A structurally identical, separately-built design shares the key.
        let again = service.register(&typea::vecadd_stream(24, 2)).unwrap();
        assert_eq!(key, again);
        assert_eq!(service.len(), 1);
        assert_eq!(service.compiles(), 1);
        assert_eq!(service.cache_hits(), 1);
        // A different design gets its own artifact.
        let other = service.register(&typea::vecadd_stream(25, 2)).unwrap();
        assert_ne!(key, other);
        assert_eq!(service.compiles(), 2);
    }

    #[test]
    fn design_keys_are_durable_content_hashes() {
        let design = typea::vecadd_stream(24, 2);
        let key = design_key(&design);
        // Recomputing from scratch (fresh allocations) reproduces the key…
        assert_eq!(design_key(&typea::vecadd_stream(24, 2)), key);
        // …and it matches the documented definition, so on-disk artifact
        // names are reproducible in any process.
        assert_eq!(key.raw(), fnv1a64(&encode_design(&design)));
        assert_eq!(DesignKey::from_raw(key.raw()), key);
    }

    #[test]
    fn run_answers_requests_and_rejects_unknown_keys() {
        let service = service();
        let design = typea::vecadd_stream(24, 2);
        let key = service.register(&design).unwrap();
        let report = service.run(key, &RunConfig::default()).unwrap();
        assert!(report.outcome.is_completed());

        let bogus = DesignKey(0xdead_beef);
        let failure = service.run(bogus, &RunConfig::default()).unwrap_err();
        assert!(failure.to_string().contains("no design registered"));
    }

    #[test]
    fn batched_requests_match_sequential_runs_at_any_worker_count() {
        let design = typea::vecadd_stream(32, 2);
        let fifos = design.fifos.len();
        let requests: Vec<(DesignKey, RunConfig)> = {
            let service = service();
            let key = service.register(&design).unwrap();
            (1..=6)
                .map(|d| (key, RunConfig::new().with_fifo_depths(vec![d; fifos])))
                .collect()
        };
        let mut per_worker_counts: Vec<Vec<Option<u64>>> = Vec::new();
        for workers in [1usize, 3, 8] {
            let service = service().with_workers(workers);
            service.register(&design).unwrap();
            let reports = service.run_batch(&requests);
            per_worker_counts.push(
                reports
                    .into_iter()
                    .map(|r| r.unwrap().total_cycles)
                    .collect(),
            );
        }
        assert_eq!(per_worker_counts[0], per_worker_counts[1]);
        assert_eq!(per_worker_counts[0], per_worker_counts[2]);
    }

    #[test]
    fn rejected_designs_are_not_cached() {
        let service = SimService::new(Box::new(omnisim_lightning::LightningBackend));
        // Type C: lightning refuses to compile it.
        let design = omnisim_designs::fig4::ex5_with_depths(32, 2, 2);
        let failure = service.register(&design).unwrap_err();
        assert!(failure.is_unsupported());
        assert!(service.is_empty());
        assert_eq!(service.compiles(), 0);
    }

    #[test]
    fn capacity_evicts_least_recently_used_design() {
        let service = service().with_capacity(2);
        let designs: Vec<_> = (0..3).map(|i| typea::vecadd_stream(16 + i, 2)).collect();
        let a = service.register(&designs[0]).unwrap();
        let b = service.register(&designs[1]).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        assert!(service.artifact(a).is_some());
        let c = service.register(&designs[2]).unwrap();
        assert_eq!(service.len(), 2);
        assert_eq!(service.registry_evictions(), 1);
        assert!(service.artifact(a).is_some(), "recently used survives");
        assert!(service.artifact(b).is_none(), "LRU design evicted");
        assert!(service.artifact(c).is_some(), "new design resident");
        // Re-registering the evicted design recompiles (no store attached).
        service.register(&designs[1]).unwrap();
        assert_eq!(service.compiles(), 4);
        let stats = service.stats();
        assert_eq!(stats.designs, 2);
        assert_eq!(stats.registry_evictions, 2);
        assert_eq!(stats.store, None);
    }

    #[test]
    fn metrics_snapshot_covers_service_and_engine_layers() {
        let service = service();
        let design = typea::vecadd_stream(24, 2);
        let key = service.register(&design).unwrap();
        service.register(&design).unwrap();
        service.run(key, &RunConfig::default()).unwrap();
        service
            .run_batch(&[(key, RunConfig::default()), (key, RunConfig::default())])
            .into_iter()
            .for_each(|r| assert!(r.is_ok()));

        let snapshot = service.metrics_snapshot();
        let outcome = |o| snapshot.counter_with("service_register_total", &[("outcome", o)]);
        assert_eq!(outcome("compile"), Some(1));
        assert_eq!(outcome("hit"), Some(1));
        // All outcome series are pre-registered at bind time, so a scraper
        // sees a stable schema; unused outcomes read zero, not absent.
        assert_eq!(outcome("warm"), Some(0), "no store, no warm starts");
        assert_eq!(snapshot.counter("service_runs_total"), Some(3));
        let runs = snapshot.histogram("service_run_nanos").unwrap();
        assert_eq!(runs.count, 3);
        let batch = snapshot.histogram("service_batch_size").unwrap();
        assert_eq!((batch.count, batch.min, batch.max), (1, 2, 2));
        assert_eq!(snapshot.gauge("service_designs_resident"), Some(1));
        // Compile phases were observed once, run phases once per run.
        let phase = |p| snapshot.histogram_with("compile_phase_nanos", &[("phase", p)]);
        assert_eq!(phase("front_end").unwrap().count, 1);
        assert_eq!(phase("execution").unwrap().count, 1);
        // Engine-level path counters surface as gauges: one baseline replay
        // (the first default run) and the rest answered by the engine's own
        // dispatch — their sum is the run count.
        let event = |e| {
            snapshot
                .gauge_with("engine_events", &[("backend", "omnisim"), ("event", e)])
                .unwrap_or(0)
        };
        let total = event("baseline_replays") + event("refinalizes") + event("resim_fallbacks");
        assert_eq!(total, 3);

        // `hit_ratio` summarizes the same counters the snapshot carries.
        let stats = service.stats();
        assert!((stats.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn with_metrics_rehomes_counters_and_disables_cleanly() {
        let design = typea::vecadd_stream(24, 2);
        let service = service();
        service.register(&design).unwrap();
        // Swapping registries mid-life carries the accumulated counts over.
        let shared = Arc::new(MetricsRegistry::new());
        let service = service.with_metrics(Arc::clone(&shared));
        service.register(&design).unwrap();
        assert_eq!(service.compiles(), 1);
        assert_eq!(service.cache_hits(), 1);
        let snapshot = shared.snapshot();
        assert_eq!(
            snapshot.counter_with("service_register_total", &[("outcome", "compile")]),
            Some(1)
        );

        // A disabled registry records nothing but the service still works.
        let dark = SimService::new(Box::new(OmniBackend::default()))
            .with_metrics(Arc::new(MetricsRegistry::disabled()));
        let key = dark.register(&design).unwrap();
        dark.run(key, &RunConfig::default()).unwrap();
        assert!(dark.metrics_snapshot().samples.is_empty());
        // Registry-backed accessors read zero when dark — the documented
        // cost of running uninstrumented.
        assert_eq!(dark.compiles(), 0);
    }

    #[test]
    fn dse_batch_matches_engine_runs_and_caches_the_program() {
        let service = service();
        let design = fig4::ex5_with_depths(32, 2, 2);
        let key = service.register(&design).unwrap();
        let points: Vec<[usize; 2]> = (1..=6).flat_map(|a| (1..=4).map(move |b| [a, b])).collect();
        let outcomes = service.dse_batch(key, &points).unwrap();
        assert_eq!(outcomes.len(), points.len());
        // Every certified-valid point agrees with a full engine run of the
        // same depth vector — the serving tier's differential anchor.
        let mut valid = 0;
        for (point, outcome) in points.iter().zip(&outcomes) {
            if let IncrementalOutcome::Valid { total_cycles } = outcome {
                valid += 1;
                let config = RunConfig::new().with_fifo_depths(point.to_vec());
                let report = service.run(key, &config).unwrap();
                assert_eq!(report.total_cycles, Some(*total_cycles), "point {point:?}");
            }
        }
        assert!(valid > 0, "grid must certify at least one point");

        // The second batch reuses the cached program; both observations
        // land in the DSE metrics.
        assert_eq!(service.dse_programs(), 1);
        assert_eq!(service.stats().dse_programs, 1);
        assert_eq!(service.dse_batch(key, &points).unwrap(), outcomes);
        let snapshot = service.metrics_snapshot();
        let outcome = |o| snapshot.counter_with("service_dse_total", &[("outcome", o)]);
        assert_eq!(outcome("compile"), Some(1));
        assert_eq!(outcome("hit"), Some(1));
        assert_eq!(outcome("warm"), Some(0), "no store, no warm starts");
        let points_hist = snapshot.histogram("service_dse_points").unwrap();
        assert_eq!(points_hist.count, 2);

        // A malformed point fails the batch as a whole, cleanly.
        let failure = service.dse_batch(key, &[vec![1usize]]).unwrap_err();
        assert!(failure.to_string().contains("compiled for"), "{failure}");
    }

    #[test]
    fn dse_program_rejects_unknown_keys_and_non_omni_artifacts() {
        let service = service();
        let failure = service
            .dse_batch(DesignKey(0xbad), &[[1usize, 1]])
            .unwrap_err();
        assert!(failure.to_string().contains("no design registered"));

        // Lightning artifacts carry no frozen incremental state to lower.
        let lightning = SimService::new(Box::new(omnisim_lightning::LightningBackend));
        let key = lightning.register(&typea::vecadd_stream(24, 2)).unwrap();
        let failure = lightning.dse_program(key).unwrap_err();
        assert!(failure.is_unsupported());
        assert_eq!(lightning.dse_programs(), 0);
    }

    #[test]
    fn dse_programs_warm_start_from_the_store_across_restarts() {
        let dir = temp_dir("warm");
        let design = fig4::ex5_with_depths(24, 2, 2);
        let points = [[2usize, 2], [3, 1], [1, 4]];
        let key;
        let baseline;
        {
            let first = service().with_store(ArtifactStore::open(&dir).unwrap());
            key = first.register(&design).unwrap();
            baseline = first.dse_batch(key, &points).unwrap();
        }
        // A fresh service over the same store answers from the persisted
        // program — no registration, no simulation, no re-lowering.
        let second = service().with_store(ArtifactStore::open(&dir).unwrap());
        assert_eq!(second.dse_batch(key, &points).unwrap(), baseline);
        let snapshot = second.metrics_snapshot();
        let outcome = |o| snapshot.counter_with("service_dse_total", &[("outcome", o)]);
        assert_eq!(outcome("warm"), Some(1), "program decoded from the store");
        assert_eq!(outcome("compile"), Some(0), "no re-lowering after restart");

        // A corrupt persisted program falls through to a fresh lowering
        // (after re-registering the design) and replaces the bad file.
        let store = ArtifactStore::open(&dir).unwrap();
        store.save(DSE_STORE_KIND, key.raw(), b"garbage").unwrap();
        let third = service().with_store(store);
        third.register(&design).unwrap();
        assert_eq!(third.dse_batch(key, &points).unwrap(), baseline);
        let snapshot = third.metrics_snapshot();
        assert_eq!(
            snapshot.counter_with("service_dse_total", &[("outcome", "compile")]),
            Some(1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evicting_a_design_purges_its_dse_program() {
        let service = service().with_capacity(1);
        let key = service.register(&fig4::ex5_with_depths(16, 2, 2)).unwrap();
        service.dse_batch(key, &[[1usize, 1]]).unwrap();
        assert_eq!(service.dse_programs(), 1);
        // Registering a second design evicts the first — and its program.
        service.register(&typea::vecadd_stream(16, 2)).unwrap();
        assert_eq!(service.dse_programs(), 0, "program evicted with its design");
        // With no store attached, the evicted key cannot be resolved.
        let failure = service.dse_program(key).unwrap_err();
        assert!(failure.to_string().contains("no design registered"));
    }
}
