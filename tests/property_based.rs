//! Property-based tests over randomly generated dataflow pipelines and FIFO
//! access patterns.
//!
//! The build container has no access to external crates, so instead of
//! `proptest` these use a small deterministic xorshift PRNG: every run
//! explores the same pseudo-random sample of the configuration space, and a
//! failing case prints its exact parameters for replay.

use omnisim::OmniSimulator;
use omnisim_lightning::LightningSimulator;
use omnisim_rtlsim::RtlSimulator;
use omnisim_suite::designs::typea::dataflow_graph;
use omnisim_suite::ir::{DesignBuilder, Expr};

use omnisim_suite::gen::Rng;

/// Builds a producer/consumer design with arbitrary trip count, FIFO depth
/// and producer/consumer initiation intervals.
fn producer_consumer(
    n: i64,
    depth: usize,
    prod_ii: u64,
    cons_ii: u64,
) -> omnisim_suite::ir::Design {
    let mut d = DesignBuilder::new("prop_pc");
    let data = d.array("data", (1..=n).collect::<Vec<i64>>());
    let out = d.output("sum");
    let q = d.fifo("q", depth);
    let p = d.function("producer", |m| {
        m.counted_loop("i", n, prod_ii, |b| {
            let i = b.var_expr("i");
            let v = b.array_load(data, i);
            b.fifo_write(q, Expr::var(v));
        });
    });
    let c = d.function("consumer", |m| {
        let acc = m.var("acc");
        m.entry(|b| {
            b.assign(acc, Expr::imm(0));
        });
        m.counted_loop("i", n, cons_ii, |b| {
            let v = b.fifo_read(q);
            b.assign(acc, Expr::var(acc).add(Expr::var(v)));
        });
        m.exit(|b| {
            b.output(out, Expr::var(acc));
        });
    });
    d.dataflow_top("top", [p, c]);
    d.build().unwrap()
}

/// All three simulators agree on arbitrary blocking producer/consumer
/// configurations (the Type A core of the timing-model contract).
#[test]
fn simulators_agree_on_random_producer_consumer() {
    let mut rng = Rng::new(0x5EED_0001);
    for case in 0..24 {
        let n = rng.range(1, 120) as i64;
        let depth = rng.range(1, 16) as usize;
        let prod_ii = rng.range(1, 4);
        let cons_ii = rng.range(1, 4);
        let ctx = format!("case {case}: n={n} depth={depth} prod_ii={prod_ii} cons_ii={cons_ii}");

        let design = producer_consumer(n, depth, prod_ii, cons_ii);
        let reference = RtlSimulator::new(&design).run().unwrap();
        let omni = OmniSimulator::new(&design).run().unwrap();
        let light = LightningSimulator::new(&design)
            .unwrap()
            .simulate()
            .unwrap();

        assert_eq!(omni.outputs, reference.outputs, "{ctx}");
        assert_eq!(light.outputs, reference.outputs, "{ctx}");
        assert_eq!(omni.total_cycles, reference.total_cycles, "{ctx}");
        assert_eq!(light.total_cycles, reference.total_cycles, "{ctx}");
        // Expected sum: 1 + 2 + … + n.
        assert_eq!(omni.outputs["sum"], n * (n + 1) / 2, "{ctx}");
    }
}

/// Deeper FIFOs never increase latency (monotonicity of stall analysis).
#[test]
fn deeper_fifos_never_hurt() {
    let mut rng = Rng::new(0x5EED_0002);
    for case in 0..16 {
        let n = rng.range(1, 100) as i64;
        let prod_ii = rng.range(1, 3);
        let cons_ii = rng.range(1, 3);
        let d1 = rng.range(1, 8) as usize;
        let extra = rng.range(1, 16) as usize;
        let ctx =
            format!("case {case}: n={n} d1={d1} extra={extra} prod_ii={prod_ii} cons_ii={cons_ii}");

        let shallow = producer_consumer(n, d1, prod_ii, cons_ii);
        let deep = producer_consumer(n, d1 + extra, prod_ii, cons_ii);
        let shallow_cycles = OmniSimulator::new(&shallow).run().unwrap().total_cycles;
        let deep_cycles = OmniSimulator::new(&deep).run().unwrap().total_cycles;
        assert!(deep_cycles <= shallow_cycles, "{ctx}");
    }
}

/// Incremental re-analysis is exact whenever it declares itself valid: it
/// reports the latency a full re-simulation of the resized design reports,
/// and never exceeds the original latency when FIFOs only grow.
#[test]
fn certified_incremental_latency_equals_full_resimulation() {
    let mut rng = Rng::new(0x5EED_0003);
    for case in 0..16 {
        let n = rng.range(1, 80) as i64;
        let depth = rng.range(1, 6) as usize;
        let extra_depth = rng.range(0, 32) as usize;
        let cons_ii = rng.range(1, 3);
        let ctx = format!("case {case}: n={n} depth={depth} extra={extra_depth} cons_ii={cons_ii}");

        let design = producer_consumer(n, depth, 1, cons_ii);
        let report = OmniSimulator::new(&design).run().unwrap();
        let new_depth = depth + extra_depth;
        if let omnisim::IncrementalOutcome::Valid { total_cycles } =
            report.incremental.try_with_depths(&[new_depth]).unwrap()
        {
            let resized = design.with_fifo_depths(&[new_depth]);
            let full = OmniSimulator::new(&resized).run().unwrap();
            assert_eq!(
                total_cycles, full.total_cycles,
                "{ctx}: incremental must equal full re-simulation"
            );
            assert!(
                total_cycles <= report.total_cycles,
                "{ctx}: growing FIFOs must not raise the latency"
            );
        }
    }
}

/// Pipelines of arbitrary depth stay consistent between OmniSim and
/// LightningSim, and OmniSim is deterministic across repeated runs.
#[test]
fn pipelines_agree_and_are_deterministic() {
    let mut rng = Rng::new(0x5EED_0004);
    for case in 0..12 {
        let stages = rng.range(1, 6) as usize;
        let n = rng.range(1, 80) as i64;
        let ii = rng.range(1, 3);
        let ctx = format!("case {case}: stages={stages} n={n} ii={ii}");

        let design = dataflow_graph("prop_pipeline", stages, n, ii);
        let light = LightningSimulator::new(&design)
            .unwrap()
            .simulate()
            .unwrap();
        let first = OmniSimulator::new(&design).run().unwrap();
        let second = OmniSimulator::new(&design).run().unwrap();
        assert_eq!(first.outputs, light.outputs, "{ctx}");
        assert_eq!(first.total_cycles, light.total_cycles, "{ctx}");
        assert_eq!(first.outputs, second.outputs, "{ctx}");
        assert_eq!(first.total_cycles, second.total_cycles, "{ctx}");
    }
}
