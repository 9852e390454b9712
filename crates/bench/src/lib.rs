//! # omnisim-bench
//!
//! Harness code shared by the table/figure regeneration binaries and the
//! Criterion benchmarks. Each binary regenerates one table or figure of the
//! paper's evaluation section; see `EXPERIMENTS.md` at the workspace root for
//! the mapping and for recorded results.
//!
//! Binaries (run with `cargo run --release -p omnisim-bench --bin <name>`):
//!
//! * `table3_functionality` — C-sim vs reference vs OmniSim functional outputs,
//! * `table4_dataset` — the benchmark design inventory,
//! * `fig8_accuracy` — cycle-count accuracy vs the reference simulator,
//! * `fig8_runtime` — runtime vs the reference simulator + OmniSim breakdown,
//! * `table5_vs_lightningsim` — OmniSim vs the LightningSim baseline,
//! * `table6_incremental` — the incremental FIFO-resizing case study,
//! * `dse_throughput` — the compiled DSE VM vs per-point incremental vs
//!   full re-simulation, in points/sec (writes `BENCH_dse.json`),
//! * `api_throughput` — one-shot `simulate()` vs amortized compile-once
//!   `run()` per backend, plus `SimService` batched serving throughput
//!   (writes `BENCH_api.json`),
//! * `fuzz` — cross-backend differential fuzzing over seeded random designs
//!   (reproduce any failing seed with `--seed N --class X`),
//! * `gen_throughput` — generator / fuzzing-loop throughput (writes
//!   `BENCH_gen.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use omnisim_ir::design::OutputMap;
use std::time::Duration;

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Formats an output map as `key=value; …` for compact table cells.
pub fn format_outputs(outputs: &OutputMap) -> String {
    if outputs.is_empty() {
        return "(no outputs)".to_owned();
    }
    outputs
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join("; ")
}

/// Geometric mean of a set of ratios.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Relative error of `measured` against `reference`, in percent.
///
/// A zero reference only means zero error when the measurement is also
/// zero; a non-zero measurement against a zero reference is unbounded
/// divergence and reported as `f64::INFINITY` rather than silently masked
/// as 0%.
pub fn percent_error(measured: u64, reference: u64) -> f64 {
    if reference == 0 {
        return if measured == 0 { 0.0 } else { f64::INFINITY };
    }
    (measured as f64 - reference as f64).abs() / reference as f64 * 100.0
}

/// Prints a horizontal rule of the given width.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn percent_error_basics() {
        assert_eq!(percent_error(100, 100), 0.0);
        assert!((percent_error(101, 100) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn percent_error_zero_reference_distinguishes_divergence() {
        // A zero reference with a zero measurement is an exact match…
        assert_eq!(percent_error(0, 0), 0.0);
        // …but a non-zero measurement against a zero reference is unbounded
        // divergence, not 0% error (the regression this guards against).
        assert!(percent_error(5, 0).is_infinite());
        assert!(percent_error(1, 0) > 1e300);
    }

    #[test]
    fn output_formatting() {
        let mut m = OutputMap::new();
        assert_eq!(format_outputs(&m), "(no outputs)");
        m.insert("sum".into(), 7);
        m.insert("dropped".into(), 2);
        assert_eq!(format_outputs(&m), "dropped=2; sum=7");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500s");
    }
}
