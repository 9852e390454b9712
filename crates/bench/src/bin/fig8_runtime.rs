//! Regenerates **Fig. 8(b)** and **Fig. 8(c)**: wall-clock runtime of the
//! cycle-stepped reference simulator vs OmniSim, and the breakdown of
//! OmniSim's runtime into front-end elaboration, multi-threaded execution
//! and finalization — all through the unified `Simulator` API, whose
//! `SimTimings` carry the per-phase breakdown.

use omnisim_bench::{geomean, secs};
use omnisim_designs::table4_designs;
use omnisim_suite::backend;
use std::time::Instant;

fn main() {
    println!("Fig. 8(b)/(c): simulation runtime, reference co-sim stand-in vs OmniSim\n");
    println!(
        "{:<14} {:>12} {:>12} {:>9} | {:>11} {:>11} {:>11}",
        "design", "reference", "omnisim", "speedup", "front-end", "execution", "finalize"
    );
    omnisim_bench::rule(90);
    let reference_sim = backend("rtl").expect("registered");
    let omni_sim = backend("omnisim").expect("registered");
    let mut speedups = Vec::new();
    for bench in table4_designs() {
        let reference_start = Instant::now();
        let _reference = reference_sim
            .simulate(&bench.design)
            .expect("reference run");
        let reference_time = reference_start.elapsed();

        let omni_start = Instant::now();
        let report = omni_sim.simulate(&bench.design).expect("omnisim run");
        let omni_time = omni_start.elapsed();

        let speedup = reference_time.as_secs_f64() / omni_time.as_secs_f64().max(1e-9);
        speedups.push(speedup);
        println!(
            "{:<14} {:>12} {:>12} {:>8.3}x | {:>11} {:>11} {:>11}",
            bench.name,
            secs(reference_time),
            secs(omni_time),
            speedup,
            secs(report.timings.front_end),
            secs(report.timings.execution),
            secs(report.timings.finalize),
        );
    }
    omnisim_bench::rule(90);
    println!(
        "\ngeomean speedup over the reference simulator: {:.3}x measured, 30.7x in the paper \
         (over RTL co-simulation)",
        geomean(&speedups)
    );
}
