//! DSE throughput benchmark: the compiled DSE VM vs per-point incremental
//! analysis vs full re-simulation, in points/sec.
//!
//! Two grids over `fig4_ex5`, both in nested-loop order (last axis
//! fastest) so the VM's delta evaluation sees realistic single-axis steps:
//!
//! * a **small grid** (40 x 25 = 1000 points) times the VM against
//!   per-point `IncrementalState::try_with_depths` and against a
//!   sampled-and-extrapolated full re-simulation;
//! * a **large grid** (960 x 25 = 24000 points, N = 1024) owns the
//!   headline numbers — the VM serial and parallel — where per-leg times
//!   are long enough to measure and the parallel path is past its work
//!   cutoff.
//!
//! Every throughput leg reports its best of several repetitions: the
//! numbers feed ratio asserts, and single-shot wall times are far too
//! noisy to gate on. Two ratios are enforced: VM >= 10x per-point
//! incremental, and parallel VM >= 0.95x serial VM (the batch path must
//! never be slower than the loop it wraps).
//!
//! Results are printed as a table and written to `BENCH_dse.json` so the
//! perf trajectory of the compiled engine is recorded over time. Pass
//! `--smoke` for a seconds-scale run (used by CI) — same measurements and
//! asserts, smaller small-grid design and fewer repetitions.

use omnisim_bench::secs;
use omnisim_designs::fig4;
use omnisim_suite::omnisim::{IncrementalOutcome, OmniSimulator};
use omnisim_suite::CompiledPlan;
use std::time::{Duration, Instant};

/// Best wall-clock of `reps` runs of `f`, with the last run's value.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = f();
        best = best.min(start.elapsed());
        out = Some(value);
    }
    (best, out.expect("reps >= 1"))
}

fn pps(points: usize, time: Duration) -> f64 {
    points as f64 / time.as_secs_f64().max(1e-9)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let n: i64 = if smoke { 256 } else { 1024 };
    let resim_sample = if smoke { 8 } else { 24 };
    let reps = if smoke { 3 } else { 5 };

    // 40 x 25 = 1000 points for the small grid.
    let points: Vec<Vec<usize>> = (1..=40usize)
        .flat_map(|d1| (1..=25usize).map(move |d2| vec![d1, d2]))
        .collect();

    println!(
        "DSE throughput on fig4_ex5 (N = {n}): {} points{}\n",
        points.len(),
        if smoke { " [smoke]" } else { "" }
    );

    let design = fig4::ex5_with_depths(n, 2, 2);
    let start = Instant::now();
    let baseline = OmniSimulator::new(&design).run().expect("baseline run");
    let baseline_time = start.elapsed();

    let start = Instant::now();
    let plan = CompiledPlan::compile(&baseline.incremental).expect("plan compiles");
    let compile_time = start.elapsed();
    println!(
        "baseline run {} + plan compile {} ({} registers, {} ops, {} constraints)",
        secs(baseline_time),
        secs(compile_time),
        plan.register_count(),
        plan.op_count(),
        plan.constraint_count()
    );

    // 1. The VM on the small grid (one warm VM, delta evaluation).
    let (small_time, small) = best_of(reps, || {
        plan.evaluate_batch_workers(&points, 1)
            .expect("VM batch succeeds")
    });
    let small_pps = pps(points.len(), small_time);

    // 2. Uncompiled incremental path, one cold pass per point.
    let start = Instant::now();
    let mut agreement = 0usize;
    for (point, vm_outcome) in points.iter().zip(&small) {
        let outcome = baseline
            .incremental
            .try_with_depths(point)
            .expect("incremental pass succeeds");
        agreement += usize::from(&outcome == vm_outcome);
    }
    let incremental_time = start.elapsed();
    let incremental_pps = pps(points.len(), incremental_time);
    assert_eq!(
        agreement,
        points.len(),
        "VM and incremental answers must be identical"
    );

    // 3. Full re-simulation, sampled and extrapolated.
    let stride = (points.len() / resim_sample).max(1);
    let sample: Vec<&Vec<usize>> = points.iter().step_by(stride).collect();
    let start = Instant::now();
    for point in &sample {
        let resized = design.with_fifo_depths(point);
        OmniSimulator::new(&resized).run().expect("full re-sim");
    }
    let resim_time = start.elapsed();
    let resim_pps = pps(sample.len(), resim_time);

    let valid = small
        .iter()
        .filter(|o| matches!(o, IncrementalOutcome::Valid { .. }))
        .count();
    println!(
        "{valid}/{} small-grid points certified by the VM; {} would fall back to re-simulation",
        points.len(),
        points.len() - valid
    );

    // 4. The large grid: 960 x 25 = 24000 points at N = 1024, where the
    // parallel path is past its work cutoff and per-leg times are long
    // enough to time reliably.
    let big_points: Vec<Vec<usize>> = (1..=960usize)
        .flat_map(|d1| (1..=25usize).map(move |d2| vec![d1, d2]))
        .collect();
    let big_plan_owned;
    let big_plan = if n == 1024 {
        &plan
    } else {
        let big_design = fig4::ex5_with_depths(1024, 2, 2);
        let big_baseline = OmniSimulator::new(&big_design).run().expect("baseline run");
        big_plan_owned = CompiledPlan::compile(&big_baseline.incremental).expect("plan compiles");
        &big_plan_owned
    };
    println!(
        "large grid: {} points at N = 1024 ({} registers, {} ops)\n",
        big_points.len(),
        big_plan.register_count(),
        big_plan.op_count()
    );

    let (bytecode_time, bytecode) = best_of(reps, || {
        big_plan
            .evaluate_batch_workers(&big_points, 1)
            .expect("VM batch succeeds")
    });
    let bytecode_pps = pps(big_points.len(), bytecode_time);

    let (bytecode_par_time, bytecode_par) = best_of(reps, || {
        big_plan
            .evaluate_batch(&big_points, true)
            .expect("VM parallel batch succeeds")
    });
    let bytecode_par_pps = pps(big_points.len(), bytecode_par_time);
    assert_eq!(
        bytecode, bytecode_par,
        "parallel VM chunking changes nothing"
    );

    println!("{:<26} {:>12} {:>16}", "method", "time", "points/sec");
    omnisim_bench::rule(56);
    let rows = [
        ("bytecode VM (serial)", bytecode_time, bytecode_pps),
        (
            "bytecode VM (parallel)",
            bytecode_par_time,
            bytecode_par_pps,
        ),
        ("bytecode VM (serial)*", small_time, small_pps),
        ("incremental per-point*", incremental_time, incremental_pps),
        ("full re-sim (sampled)*", resim_time, resim_pps),
    ];
    for (label, time, leg_pps) in rows {
        println!("{label:<26} {:>12} {leg_pps:>16.0}", secs(time));
    }
    omnisim_bench::rule(56);
    println!("(*) small 1000-point grid; other legs on the 24000-point grid");
    let speedup_incremental = small_pps / incremental_pps.max(1e-9);
    let speedup_resim = small_pps / resim_pps.max(1e-9);
    println!(
        "VM vs incremental: {speedup_incremental:.1}x    VM vs full re-sim: {speedup_resim:.0}x"
    );

    let json = format!(
        "{{\n  \"bench\": \"dse_throughput\",\n  \"design\": \"fig4_ex5\",\n  \"n\": {n},\n  \
         \"points\": {},\n  \"big_points\": {},\n  \"smoke\": {smoke},\n  \
         \"plan_registers\": {},\n  \"plan_ops\": {},\n  \"plan_compile_secs\": {:.6},\n  \
         \"bytecode_pps\": {bytecode_pps:.1},\n  \
         \"bytecode_parallel_pps\": {bytecode_par_pps:.1},\n  \
         \"small_bytecode_pps\": {small_pps:.1},\n  \
         \"incremental_pps\": {incremental_pps:.1},\n  \"full_resim_pps\": {resim_pps:.3},\n  \
         \"speedup_compiled_vs_incremental\": {speedup_incremental:.2},\n  \
         \"speedup_compiled_vs_full_resim\": {speedup_resim:.1}\n}}\n",
        points.len(),
        big_points.len(),
        plan.register_count(),
        plan.op_count(),
        compile_time.as_secs_f64(),
    );
    std::fs::write("BENCH_dse.json", &json).expect("write BENCH_dse.json");
    println!("\nwrote BENCH_dse.json");

    assert!(
        speedup_incremental >= 10.0,
        "the VM must be >= 10x faster than per-point incremental analysis \
         (got {speedup_incremental:.1}x)"
    );
    // The work cutoff must keep `parallel = true` from ever regressing the
    // serial loop it wraps. On low-core machines both legs resolve to the
    // same serial path, so allow a small measurement-noise tolerance on the
    // ratio.
    assert!(
        bytecode_par_pps >= 0.95 * bytecode_pps,
        "the parallel batch path must not be slower than the serial loop it wraps \
         (parallel {bytecode_par_pps:.0} pps vs serial {bytecode_pps:.0} pps)"
    );
}
