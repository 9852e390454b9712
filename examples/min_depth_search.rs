//! Minimum-depth search on the packet-router design: the inverse DSE query.
//!
//! Grid sweeps ask "what latency do these depths give?"; a FIFO-sizing
//! engineer usually wants the inverse — "what are the *smallest* lane
//! depths that provably keep the router behaving like the generously-sized
//! baseline?". This example runs the router once with deep lanes, compiles
//! the run into a [`CompiledPlan`], and lets
//! [`CompiledPlan::min_depths`](omnisim_suite::CompiledPlan::min_depths)
//! binary-search each lane's smallest certified depth — a handful of
//! microsecond VM evaluations instead of a grid of re-simulations. The
//! found depths are then cross-checked with one real re-simulation.
//!
//! Run with: `cargo run --release --example min_depth_search`

use omnisim_suite::designs::misc::packet_router;
use omnisim_suite::omnisim::OmniSimulator;
use omnisim_suite::CompiledPlan;

fn main() {
    // A burst of 120 packets against generously over-provisioned lanes:
    // nothing drops, so this baseline is the behaviour to preserve.
    let packets = 120;
    let max_depth = 128;
    let design = packet_router(packets, max_depth, max_depth);
    let baseline = OmniSimulator::new(&design).run().expect("baseline run");
    println!(
        "baseline lanes ({max_depth}, {max_depth}): {} cycles, dropped={:?}, fast/slow = {:?}/{:?}",
        baseline.total_cycles,
        baseline.output("dropped"),
        baseline.output("routed_fast"),
        baseline.output("routed_slow"),
    );

    let plan = CompiledPlan::compile(&baseline.incremental).expect("plan compiles");
    let target = baseline.total_cycles;
    let search = plan.min_depths(target, max_depth).expect("search succeeds");
    println!(
        "\nmin_depths(target = {target} cycles, bound = {max_depth}): {} plan probes",
        search.probes
    );
    for (fifo, min) in search.per_fifo.iter().enumerate() {
        let name = &design.fifos[fifo].name;
        match min {
            Some(depth) => println!("  {name}: smallest certified depth = {depth}"),
            None => println!("  {name}: not certifiable within the bound"),
        }
    }
    println!(
        "  joint depths {:?}: {}",
        search.depths,
        if search.combined_meets_target() {
            "certified against the baseline constraints"
        } else {
            "needs a full re-simulation to certify"
        }
    );

    // Cross-check the answer with one real re-simulation. When the joint
    // minima certify, the plan *guarantees* behaviour and latency are
    // preserved, so that case is asserted; an uncertified result would
    // make this re-simulation the authority instead.
    let resized = packet_router(packets, search.depths[0], search.depths[1]);
    let check = OmniSimulator::new(&resized)
        .run()
        .expect("verification run");
    println!(
        "\nre-simulated at {:?}: {} cycles, dropped={:?}, fast/slow = {:?}/{:?}",
        search.depths,
        check.total_cycles,
        check.output("dropped"),
        check.output("routed_fast"),
        check.output("routed_slow"),
    );
    if search.combined_meets_target() {
        assert_eq!(
            check.outputs, baseline.outputs,
            "certified depths must preserve the baseline behaviour"
        );
        assert!(
            check.total_cycles <= target,
            "certified depths must meet the latency target"
        );
        println!(
            "\nthe router keeps its zero-drop behaviour with {}x smaller fast lane and {}x smaller slow lane",
            max_depth / search.depths[0].max(1),
            max_depth / search.depths[1].max(1),
        );
    } else {
        println!("\nthe joint minima were not certified; the re-simulation above is the authority");
    }
}
