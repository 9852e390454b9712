//! What every workload shares: the set-up and pass loops, the correctness
//! tally, and the per-layer metrics read off the trace of any workload.

use crate::metrics::Sheet;
use crate::stats::{median, pct, peak_rss_mib, CpuTimes};
use crate::trace::{coverage, self_time_per_root, Recorder};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How long a run measures. A run makes at least `min_passes` passes and
/// starts no new pass once `seconds` have gone by since its first one.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_passes: usize,
    /// How many times the set-up runs before the first pass.
    pub setup_reps: usize,
}

/// See [`measure`].
const CHEAP_SETUP_S: f64 = 0.01;

/// Operations attempted and how many of them failed (errors, reference
/// mismatches and refusals alike), with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self, operations: u64) {
        self.attempted += operations;
    }

    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(reason);
        }
    }

    /// Records one checked operation: a failure when `check` is `Err`.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempt(1);
        if let Err(reason) = check {
            self.fail(reason);
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The paper's headline for one workload, recorded as information only:
/// per design, the median wall time of `omnisim` and of the reference.
#[derive(Debug)]
pub struct Paper {
    pub figure: &'static str,
    pub reference: &'static str,
    /// The paper's reported geomean speedup over the reference.
    pub paper_geomean: f64,
    /// `(design, omnisim ms, reference ms)`.
    pub rows: Vec<(String, f64, f64)>,
}

impl Paper {
    /// Geomean over designs of reference time ÷ `omnisim` time.
    pub fn geomean_speedup(&self) -> f64 {
        let speedups: Vec<f64> = self
            .rows
            .iter()
            .map(|(_, omni, reference)| reference / omni)
            .collect();
        omnisim_bench::geomean(&speedups)
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub sheet: Sheet,
    pub tally: Tally,
    pub paper: Option<Paper>,
}

/// One pass as the loop saw it.
#[derive(Debug)]
pub struct PassInfo<R> {
    pub traced: bool,
    pub wall: Duration,
    pub cpu: CpuTimes,
    pub data: R,
}

/// Every pass of a run, and every set-up's seconds.
#[derive(Debug)]
pub struct Passes<R> {
    pub list: Vec<PassInfo<R>>,
    pub setup_s: Vec<f64>,
    /// `VmHWM` once set-up and the first `min_passes` passes are done: a
    /// fixed amount of work, so the figure does not grow with however many
    /// passes fit in the run.
    pub peak_rss_mb: f64,
}

impl<R> Passes<R> {
    /// The untraced passes' data (the end-to-end metrics' source).
    pub fn untraced(&self) -> Vec<&R> {
        self.list
            .iter()
            .filter(|p| !p.traced)
            .map(|p| &p.data)
            .collect()
    }

    /// The traced passes' data (the per-layer metrics' source).
    pub fn traced(&self) -> Vec<&R> {
        self.list
            .iter()
            .filter(|p| p.traced)
            .map(|p| &p.data)
            .collect()
    }
}

/// Sets up `budget.setup_reps` times, keeping the last result (earlier
/// ones go to `discard`), then makes passes over it until the budget is
/// spent. A set-up shorter than `CHEAP_SETUP_S` is also repeated (and
/// discarded) before every pass: back to back, its repetitions would all
/// see the host in one momentary state. In a traced run, passes alternate
/// traced and untraced, starting traced, so the untraced ones measure the
/// recorder's overhead. Returns the kept set-up result with the passes.
pub fn measure<T, R>(
    budget: &Budget,
    rec: &mut Recorder,
    mut build: impl FnMut(&mut Recorder) -> T,
    mut discard: impl FnMut(T),
    mut pass: impl FnMut(&mut Recorder, &mut T, usize) -> R,
) -> (T, Passes<R>) {
    let mut setup_s = Vec::new();
    let mut state = timed_setup(rec, &mut build, &mut setup_s);
    for _ in 1..budget.setup_reps {
        // Gone before the next is built, so two never count in `VmHWM`.
        discard(state);
        state = timed_setup(rec, &mut build, &mut setup_s);
    }
    let cheap = median(&setup_s) < CHEAP_SETUP_S;

    let trace = rec.enabled();
    let min_passes = budget.min_passes.max(1);
    let mut list = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let start = Instant::now();
    while list.len() < min_passes || start.elapsed().as_secs_f64() < budget.seconds {
        let traced = trace && list.len() % 2 == 0;
        rec.set_enabled(traced);
        if cheap && !list.is_empty() {
            discard(timed_setup(rec, &mut build, &mut setup_s));
        }
        let span = rec.open("pass");
        let cpu = CpuTimes::now();
        let begun = Instant::now();
        let data = pass(rec, &mut state, list.len());
        let wall = begun.elapsed();
        let cpu = CpuTimes::now().since(cpu);
        rec.close(span);
        list.push(PassInfo {
            traced,
            wall,
            cpu,
            data,
        });
        if list.len() == min_passes {
            peak_rss_mb = peak_rss_mib();
        }
    }
    rec.set_enabled(trace);
    (
        state,
        Passes {
            list,
            setup_s,
            peak_rss_mb,
        },
    )
}

fn timed_setup<T>(
    rec: &mut Recorder,
    build: &mut impl FnMut(&mut Recorder) -> T,
    setup_s: &mut Vec<f64>,
) -> T {
    let span = rec.open("setup");
    let start = Instant::now();
    let built = build(rec);
    setup_s.push(start.elapsed().as_secs_f64());
    rec.close(span);
    built
}

/// The end-to-end metrics every workload measures the same way.
pub fn common_metrics<R>(sheet: &mut Sheet, passes: &Passes<R>) {
    sheet.median("setup_s", passes.setup_s.clone());
    sheet.single("peak_rss_mb", passes.peak_rss_mb);
}

/// Per-layer metrics every workload has: trace coverage and overhead,
/// CPU use, the correctness tally, and self-time shares of each pass
/// (`pass_shares`) and each set-up (`setup_shares`) as `(metric, span)`.
pub fn layer_metrics<R>(
    report: &mut Report,
    rec: &Recorder,
    passes: &Passes<R>,
    pass_shares: &[(&'static str, &'static str)],
    setup_shares: &[(&'static str, &'static str)],
) {
    let passes = &passes.list;
    let sheet = &mut report.sheet;
    let pass_roots = self_time_per_root(rec.spans(), "pass");
    let covered: Vec<f64> = pass_roots
        .iter()
        .map(|(duration, names)| 100.0 * coverage(*duration, names, "pass"))
        .collect();
    let least = covered.iter().copied().fold(f64::INFINITY, f64::min);
    sheet.record("trace.coverage_pct", least, covered);

    let wall = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall.as_secs_f64())
            .collect()
    };
    let (on, off) = (median(&wall(true)), median(&wall(false)));
    sheet.single(
        "trace.overhead_pct",
        if off.is_finite() {
            pct(on - off, off)
        } else {
            0.0
        },
    );

    let cpu_share = |pick: fn(&CpuTimes) -> f64| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.traced)
            .map(|p| pct(pick(&p.cpu), p.wall.as_secs_f64()))
            .collect()
    };
    sheet.median("proc.user_cpu_pct", cpu_share(|c| c.user_s));
    sheet.median("proc.sys_cpu_pct", cpu_share(|c| c.sys_s));
    sheet.single("check.fail_ratio", report.tally.fail_ratio());

    shares(sheet, &pass_roots, pass_shares);
    shares(
        sheet,
        &self_time_per_root(rec.spans(), "setup"),
        setup_shares,
    );
}

fn shares(
    sheet: &mut Sheet,
    roots: &[(u64, BTreeMap<&'static str, u64>)],
    pairs: &[(&'static str, &'static str)],
) {
    for &(metric, span) in pairs {
        let samples = roots
            .iter()
            .map(|(duration, names)| {
                pct(
                    names.get(span).copied().unwrap_or(0) as f64,
                    *duration as f64,
                )
            })
            .collect();
        sheet.median(metric, samples);
    }
}
