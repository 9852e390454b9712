//! Fuzzing the DSE inverse query: `min_depths` tightness on generated
//! designs.
//!
//! `CompiledPlan::min_depths` binary-searches, per FIFO, the smallest depth
//! whose *certified* latency meets a target (holding the other FIFOs at
//! their baseline anchors). On Type A designs the plan is exact — there are
//! no non-blocking constraints that could flip — so the certificate has a
//! ground truth this suite checks with full re-simulations on 240 random
//! designs (plain Type A pipelines plus the multi-rate preset, whose
//! surpluses and rate skews produce infeasible and cyclic boundary probes):
//!
//! * **soundness** — every certified per-FIFO minimum, applied with the
//!   other FIFOs at their anchors, completes within the target;
//! * **tightness** — one depth shallower either certifies a latency above
//!   the target that full re-simulation reproduces exactly, or is
//!   infeasible/cyclic and full re-simulation confirms the resized design
//!   does not complete.

use omnisim_suite::dse::CompiledPlan;
use omnisim_suite::gen::{generate, GenConfig};
use omnisim_suite::ir::DesignClass;
use omnisim_suite::omnisim::{IncrementalOutcome, OmniSimulator};

const DESIGNS_PER_PRESET: u64 = 120;
const MAX_DEPTH: usize = 12;

struct TightnessStats {
    designs: usize,
    searches: usize,
    minima: usize,
    boundary_resims: usize,
    infeasible_boundaries: usize,
}

fn check_tightness(preset: &GenConfig, seeds: std::ops::Range<u64>) -> TightnessStats {
    let mut stats = TightnessStats {
        designs: 0,
        searches: 0,
        minima: 0,
        boundary_resims: 0,
        infeasible_boundaries: 0,
    };
    for seed in seeds {
        let g = generate(preset, seed);
        assert_eq!(g.class, DesignClass::TypeA, "seed {seed}");
        if g.design.fifos.is_empty() {
            continue;
        }
        let baseline = OmniSimulator::new(&g.design).run().unwrap();
        if !baseline.outcome.is_completed() {
            // Multi-rate designs can deadlock on undersized FIFOs; the
            // inverse query is only meaningful from a completed anchor.
            continue;
        }
        stats.designs += 1;
        let plan = CompiledPlan::compile(&baseline.incremental).unwrap();
        // The baseline latency is always reachable; every fourth design
        // also searches a slacker target to move the boundary.
        let mut targets = vec![baseline.total_cycles];
        if seed % 4 == 0 {
            targets.push(baseline.total_cycles + 8);
        }
        for target in targets {
            stats.searches += 1;
            let md = plan.min_depths(target, MAX_DEPTH).unwrap();
            // The *joint* minima may stall more than any single probe did
            // (documented on `MinDepthsReport::combined`) — but whatever the
            // combined verdict certifies must match ground truth.
            if let IncrementalOutcome::Valid { total_cycles } = md.combined {
                let joint = OmniSimulator::new(&g.design.with_fifo_depths(&md.depths))
                    .run()
                    .unwrap();
                assert!(
                    joint.outcome.is_completed() && joint.total_cycles == total_cycles,
                    "seed {seed}: combined certificate {total_cycles} diverges from ground \
                     truth {} (completed: {}) at {:?}",
                    joint.total_cycles,
                    joint.outcome.is_completed(),
                    md.depths
                );
            }
            let anchors: Vec<usize> = plan
                .original_depths()
                .iter()
                .map(|&d| d.clamp(1, MAX_DEPTH))
                .collect();
            let mut vm = plan.vm();
            for (f, min) in md.per_fifo.iter().enumerate() {
                let Some(min) = *min else { continue };
                stats.minima += 1;
                let mut probe = anchors.clone();
                probe[f] = min;
                let certified = OmniSimulator::new(&g.design.with_fifo_depths(&probe))
                    .run()
                    .unwrap();
                assert!(
                    certified.outcome.is_completed() && certified.total_cycles <= target,
                    "seed {seed} fifo {f}: certified minimum {min} gives {} cycles \
                     (completed: {}) against target {target}",
                    certified.total_cycles,
                    certified.outcome.is_completed()
                );
                if min == 1 {
                    continue;
                }
                // One depth shallower must certifiably fail.
                probe[f] = min - 1;
                stats.boundary_resims += 1;
                let shallower = OmniSimulator::new(&g.design.with_fifo_depths(&probe))
                    .run()
                    .unwrap();
                match vm.evaluate(&probe).unwrap() {
                    IncrementalOutcome::Valid { total_cycles } => {
                        assert!(
                            total_cycles > target,
                            "seed {seed} fifo {f}: plan certifies {total_cycles} <= {target} \
                             one depth below the reported minimum {min}"
                        );
                        assert!(
                            shallower.outcome.is_completed()
                                && shallower.total_cycles == total_cycles,
                            "seed {seed} fifo {f}: boundary certificate {total_cycles} diverges \
                             from ground truth {} (completed: {})",
                            shallower.total_cycles,
                            shallower.outcome.is_completed()
                        );
                    }
                    IncrementalOutcome::DepthInfeasible { .. }
                    | IncrementalOutcome::DepthCyclic => {
                        stats.infeasible_boundaries += 1;
                        assert!(
                            !shallower.outcome.is_completed(),
                            "seed {seed} fifo {f}: plan calls depth {} infeasible but the \
                             resized design completes",
                            min - 1
                        );
                    }
                    IncrementalOutcome::ConstraintViolated { constraint } => panic!(
                        "seed {seed} fifo {f}: constraint {constraint} flipped on a Type A \
                         design, which records no non-blocking constraints"
                    ),
                }
            }
        }
    }
    stats
}

#[test]
fn min_depths_is_tight_on_random_type_a_pipelines() {
    let stats = check_tightness(&GenConfig::type_a(), 0..DESIGNS_PER_PRESET);
    assert!(
        stats.designs >= 100,
        "only {} designs checked",
        stats.designs
    );
    assert!(stats.minima > stats.designs, "too few certified minima");
    assert!(
        stats.boundary_resims > 0,
        "no boundary ever needed a shallower probe"
    );
}

#[test]
fn min_depths_is_tight_on_multirate_designs_with_leftover_data() {
    let stats = check_tightness(&GenConfig::multirate(), 0..DESIGNS_PER_PRESET);
    assert!(
        stats.designs >= 80,
        "only {} designs checked",
        stats.designs
    );
    assert!(stats.minima > 0);
    assert!(
        stats.infeasible_boundaries > 0,
        "surpluses and rate skews must produce infeasible boundary probes"
    );
}
