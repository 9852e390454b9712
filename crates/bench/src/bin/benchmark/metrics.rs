//! The metric catalog (mirrored by `BENCHMARK.json`) and the values one
//! workload run measured against it.
//!
//! Every workload emits every metric: end-to-end metrics from untraced
//! runs, per-layer metrics from traced runs. A per-layer metric whose layer
//! is not on a workload's path reads 0 there, which is why per-layer
//! timings are shares (`%`) of the pass or set-up they sit in, never bare
//! durations.

use crate::stats::{percentile, quartiles};
use omnisim_suite::gen::Rng;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// A metric's name, unit, direction and regression bound (the share of the
/// baseline median by which it may worsen; `None` for per-layer metrics).
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees, defined for every workload (see the
/// crate docs for each workload's reading of "pass", "call" and "work").
///
/// The timing bounds are wide because on a small shared host the median
/// of one run moves by 5–10% from run to run (quartile spread over ten
/// seeds), and neighbours can slow even single-threaded compute by half
/// for a minute at a time.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("pass_s", "s", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("call_ms_p50", "ms", Lower, 0.25),
    e2e("call_ms_p90", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
];

/// Single-layer attribution, from traced runs.
pub const PER_LAYER: &[Spec] = &[
    // The trace itself and the process.
    layer("trace.coverage_pct", "%", Higher),
    layer("trace.overhead_pct", "%", Lower),
    layer("proc.user_cpu_pct", "%", Lower),
    layer("proc.sys_cpu_pct", "%", Lower),
    layer("check.fail_ratio", "ratio", Lower),
    // One-shot simulate (typebc_oneshot, typea_dataflow): self-time shares
    // of the pass.
    layer("core.front_end_pct", "%", Lower),
    layer("core.execution_pct", "%", Lower),
    layer("core.finalize_pct", "%", Lower),
    layer("api.residual_pct", "%", Lower),
    layer("rtl.simulate_pct", "%", Lower),
    layer("lightning.front_end_pct", "%", Lower),
    layer("lightning.finalize_pct", "%", Lower),
    layer("csim.simulate_pct", "%", Lower),
    layer("core.fifo_accesses_per_s", "accesses/s", Higher),
    layer("core.fifo_accesses", "count", Lower),
    layer("core.queries", "count", Lower),
    layer("core.queries_forced_false", "count", Lower),
    layer("core.threads", "count", Lower),
    layer("core.graph_nodes", "count", Lower),
    layer("paper.speedup_vs_ref", "x", Higher),
    layer("paper.slowdown_vs_csim", "x", Lower),
    // FIFO sizing (dse_sizing): shares of the pass, then of the set-up.
    layer("dse.vm_evaluate_pct", "%", Lower),
    layer("dse.min_depths_pct", "%", Lower),
    layer("core.run_pct", "%", Lower),
    layer("core.compile_pct", "%", Lower),
    layer("dse.plan_compile_pct", "%", Lower),
    layer("dse.bytecode_lower_pct", "%", Lower),
    layer("dse.vm_valid_ratio", "ratio", Higher),
    layer("dse.vm_slow_points", "count", Lower),
    layer("dse.min_depths_probes", "count", Lower),
    layer("dse.min_depths_probes_per_s", "probes/s", Higher),
    // Served batches (served_batches): shares of the client-observed
    // latency of small (phase A) and large (phase B) batches, then of the
    // set-up.
    layer("serve.wire_pct", "%", Lower),
    layer("serve.service_pct", "%", Lower),
    layer("wire.encode_pct", "%", Lower),
    layer("wire.decode_pct", "%", Lower),
    layer("serve.wire_large_pct", "%", Lower),
    layer("serve.service_large_pct", "%", Lower),
    layer("serve.register_cold_pct", "%", Lower),
    layer("serve.register_warm_pct", "%", Lower),
    layer("store.save_pct", "%", Lower),
    layer("store.load_pct", "%", Lower),
    layer("codec.encode_pct", "%", Lower),
    layer("codec.decode_pct", "%", Lower),
    layer("serve.replay_runs", "count", Higher),
    layer("serve.refinalize_runs", "count", Higher),
    layer("serve.resim_runs", "count", Lower),
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// One measured metric: the reported value, the samples its spread is
/// judged from (one per pass or per set-up, or bootstrap replicates of a
/// pooled percentile) and how many measurements it rests on.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
    pub n: usize,
}

impl Measured {
    /// Quartiles of the samples (the value itself when there are none).
    pub fn quartiles(&self) -> (f64, f64, f64) {
        if self.samples.is_empty() {
            (self.value, self.value, self.value)
        } else {
            quartiles(&self.samples)
        }
    }
}

/// Measured metrics in catalog order, filled in by a workload.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<Measured>,
}

impl Sheet {
    fn push(&mut self, name: &'static str, value: f64, samples: Vec<f64>, n: usize) {
        debug_assert!(spec(name).is_some(), "{name} is not in the catalog");
        debug_assert!(self.get(name).is_none(), "{name} measured twice");
        self.metrics.push(Measured {
            name,
            value,
            samples,
            n,
        });
    }

    /// A value with the samples its spread is judged from.
    pub fn record(&mut self, name: &'static str, value: f64, samples: Vec<f64>) {
        let n = samples.len().max(1);
        self.push(name, value, samples, n);
    }

    /// The median of per-sample values.
    pub fn median(&mut self, name: &'static str, samples: Vec<f64>) {
        let value = quartiles(&samples).1;
        self.record(name, value, samples);
    }

    /// Percentile `p` pooled over every call of every pass. Its spread
    /// comes from a bootstrap over passes: the calls of one pass share its
    /// conditions, and a design mix makes per-pass percentiles of a few
    /// calls meaningless.
    pub fn pooled(&mut self, name: &'static str, per_pass_calls: &[Vec<f64>], p: f64) {
        const REPLICATES: usize = 101;
        let all: Vec<f64> = per_pass_calls.iter().flatten().copied().collect();
        let mut rng = Rng::new(0x626f_6f74);
        let replicates = if per_pass_calls.is_empty() {
            Vec::new()
        } else {
            (0..REPLICATES)
                .map(|_| {
                    let resampled: Vec<f64> = (0..per_pass_calls.len())
                        .flat_map(|_| {
                            per_pass_calls[rng.range_usize(0, per_pass_calls.len() - 1)]
                                .iter()
                                .copied()
                        })
                        .collect();
                    percentile(&resampled, p)
                })
                .collect()
        };
        self.push(name, percentile(&all, p), replicates, all.len());
    }

    /// A single derived value.
    pub fn single(&mut self, name: &'static str, value: f64) {
        self.record(name, value, Vec::new());
    }

    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// A metric the run's catalog guarantees: every workload measures
    /// every end-to-end metric, and traced runs zero-fill the per-layer
    /// ones their path lacks.
    pub fn measured(&self, name: &str) -> &Measured {
        self.get(name)
            .unwrap_or_else(|| panic!("{name} was not measured"))
    }

    /// Sets every catalog metric this sheet lacks to 0: the layer is not
    /// on this workload's path.
    pub fn zero_fill(&mut self, catalog: &[Spec]) {
        for spec in catalog {
            if self.get(spec.name).is_none() {
                self.single(spec.name, 0.0);
            }
        }
    }
}
