//! Cross-backend differential fuzzing over seeded random designs.
//!
//! `omnisim-gen` generates well-formed dataflow designs targeted at each
//! taxonomy class; for every seed the differential oracle asserts
//!
//! * `omnisim` == cycle-stepped reference, **bit for bit** (outcome,
//!   outputs, total cycles),
//! * `lightning` exactly right on Type A, honestly rejecting Type B/C,
//! * `csim` exactly right on Type A, book-kept on its documented Type B/C
//!   divergence,
//! * the compiled DSE VM == `try_with_depths` == full re-simulation on
//!   random FIFO-depth vectors.
//!
//! A failing seed is shrunk to a minimal blueprint and reported with a CLI
//! reproduction line (`cargo run -p omnisim-bench --bin fuzz -- --seed N
//! --class X`). Divergences the fuzzer has already caught live on as
//! fixtures in `omnisim_suite::designs::fuzz` and are re-pinned below.

use omnisim_suite::backend;
use omnisim_suite::designs::fuzz as fuzz_fixtures;
use omnisim_suite::dse::CompiledPlan;
use omnisim_suite::gen::{
    check_seeded, fuzz_seed, shrink, CsimAgreement, DiffConfig, DiffReport, GenConfig,
};
use omnisim_suite::ir::DesignClass;
use omnisim_suite::omnisim::{IncrementalOutcome, OmniSimulator};

/// Seeds fuzzed per taxonomy class; 3 × 400 > the 1000-design floor the
/// subsystem promises, while staying debug-build friendly.
const SEEDS_PER_CLASS: u64 = 400;

/// Seeds fuzzed per orthogonal dimension preset (AXI bursts, call chains,
/// multi-rate dataflow) — each against the full four-backend oracle.
const SEEDS_PER_DIMENSION: u64 = 300;

#[derive(Default)]
struct CorpusStats {
    completed: usize,
    deadlocked: usize,
    csim_agreed: usize,
    csim_diverged: usize,
    csim_crashed: usize,
    dse_points: usize,
    min_depth_probes: usize,
}

impl CorpusStats {
    fn record(&mut self, report: &DiffReport) {
        if report.completed {
            self.completed += 1;
        } else {
            self.deadlocked += 1;
        }
        match report.csim {
            Some(CsimAgreement::Agreed) => self.csim_agreed += 1,
            Some(CsimAgreement::Diverged) => self.csim_diverged += 1,
            Some(CsimAgreement::Crashed) => self.csim_crashed += 1,
            None => {}
        }
        self.dse_points += report.dse_points_checked;
        self.min_depth_probes += report.min_depths_probes;
    }

    fn total(&self) -> usize {
        self.completed + self.deadlocked
    }
}

/// Fuzzes `seeds` seeds of `cfg`, shrinking and reporting the first failure.
fn fuzz_corpus(label: &str, cfg: &GenConfig, seeds: u64) -> CorpusStats {
    let diff = DiffConfig::default();
    let mut stats = CorpusStats::default();
    for seed in 0..seeds {
        let (generated, report) = fuzz_seed(cfg, &diff, seed);
        if let Some(class) = cfg.target {
            assert_eq!(generated.class, class, "{label}: seed {seed} missed class");
        }
        if !report.passed() {
            let minimal = shrink(&generated.blueprint, |bp| {
                !check_seeded(&bp.lower(), &diff, seed).passed()
            });
            let minimal_report = check_seeded(&minimal.lower(), &diff, seed);
            panic!(
                "{label}: seed {seed} (class {:?}) failed the differential check:\n  {}\n\
                 reproduce with: cargo run -p omnisim-bench --bin fuzz -- --seed {seed} --preset {label}\n\
                 minimized blueprint (failures: {:?}):\n{minimal:#?}",
                generated.class,
                report.failures.join("\n  "),
                minimal_report.failures,
            );
        }
        stats.record(&report);
    }
    assert_eq!(stats.total() as u64, seeds);
    stats
}

#[test]
fn type_a_designs_agree_across_all_backends() {
    let stats = fuzz_corpus("a", &GenConfig::type_a(), SEEDS_PER_CLASS);
    // Type A is every backend's home turf: csim must have agreed everywhere
    // (the oracle already asserts it per design) and nothing may deadlock.
    assert_eq!(stats.csim_agreed, stats.total());
    assert_eq!(stats.deadlocked, 0, "Type A pipelines cannot deadlock");
    assert!(stats.dse_points > 0, "DSE consistency must be exercised");
}

#[test]
fn type_b_designs_agree_between_the_cycle_accurate_backends() {
    let stats = fuzz_corpus("b", &GenConfig::type_b(), SEEDS_PER_CLASS);
    // Expected-divergence bookkeeping: sequential C simulation gets most
    // cyclic / retry designs wrong (its reads of not-yet-produced data
    // return defaults), mirroring the paper's Table 3.
    assert!(
        (stats.csim_diverged + stats.csim_crashed) * 2 > stats.total(),
        "csim agreed suspiciously often on Type B: {}/{} diverged",
        stats.csim_diverged + stats.csim_crashed,
        stats.total()
    );
}

#[test]
fn type_c_designs_agree_between_the_cycle_accurate_backends() {
    let stats = fuzz_corpus("c", &GenConfig::type_c(), SEEDS_PER_CLASS);
    assert!(
        (stats.csim_diverged + stats.csim_crashed) * 2 > stats.total(),
        "csim agreed suspiciously often on Type C: {}/{} diverged",
        stats.csim_diverged + stats.csim_crashed,
        stats.total()
    );
}

#[test]
fn axi_burst_designs_agree_across_all_backends() {
    // Burst read sources, burst write sinks, axi4_master-shaped tasks —
    // with randomized burst lengths, outstanding-transaction prefetch and
    // beat/FIFO interleaving. All Type A, so lightning and csim must be
    // bit-exact on every completed seed.
    let stats = fuzz_corpus("axi", &GenConfig::axi(), SEEDS_PER_DIMENSION);
    assert_eq!(stats.csim_agreed, stats.completed);
    assert!(stats.dse_points > 0, "DSE consistency must be exercised");
    assert!(
        stats.min_depth_probes > 0,
        "the min_depths inverse query must be exercised"
    );
}

#[test]
fn call_chain_designs_agree_across_all_backends() {
    let stats = fuzz_corpus("calls", &GenConfig::calls(), SEEDS_PER_DIMENSION);
    assert_eq!(stats.csim_agreed, stats.completed);
    assert!(stats.dse_points > 0);
}

#[test]
fn multirate_designs_agree_across_all_backends() {
    // Rate-mismatched edges and token surpluses. Unlike single-rate Type A
    // pipelines these can deadlock on undersized FIFOs (insufficient
    // buffering across a rate skew) — a legitimate behaviour both
    // cycle-accurate backends must diagnose identically, and the one
    // Type A corner where csim (unbounded FIFOs) legitimately diverges.
    let stats = fuzz_corpus("multirate", &GenConfig::multirate(), SEEDS_PER_DIMENSION);
    assert_eq!(stats.csim_agreed, stats.completed);
    assert!(
        stats.completed > stats.deadlocked,
        "most multirate seeds should complete"
    );
    assert!(stats.dse_points > 0);
}

#[test]
fn mixed_corpus_spans_all_three_classes() {
    let cfg = GenConfig::mixed();
    let mut seen = [false; 3];
    for seed in 0..100 {
        let g = omnisim_suite::gen::generate(&cfg, seed);
        seen[match g.class {
            DesignClass::TypeA => 0,
            DesignClass::TypeB => 1,
            DesignClass::TypeC => 2,
        }] = true;
    }
    assert_eq!(seen, [true; 3], "mixed config must reach every class");
}

#[test]
fn forced_deadlocks_are_diagnosed_identically_by_both_backends() {
    let cfg = GenConfig::mixed().with_deadlocks(60);
    let stats = fuzz_corpus("mixed+deadlocks", &cfg, 100);
    assert!(
        stats.deadlocked > 0,
        "the deadlock knob must produce deadlocking designs"
    );
    assert!(
        stats.completed > 0,
        "not every design should deadlock at 60%"
    );
}

/// Analyzer soundness at fuzz scale: ≥1000 seeds per generator preset,
/// each checked by the oracle's analyzer leg — `CertifiedFree` designs
/// must complete in the reference simulator, `CertifiedDeadlock` designs
/// must not, and every static depth lower bound must stay at or below the
/// certified `min_depths` minimum. The expensive simulation cross-checks
/// (DSE points) are off: the reference run the analyzer is judged against
/// is the only simulation this test needs.
#[test]
fn analyzer_verdicts_are_sound_across_every_preset() {
    let diff = DiffConfig {
        dse_points: 0,
        min_depths: true,
        analyze: true,
        ..DiffConfig::default()
    };
    for preset in GenConfig::PRESET_NAMES {
        let cfg = GenConfig::preset(preset).expect("preset names are exhaustive");
        for seed in 0..1000u64 {
            let (generated, report) = fuzz_seed(&cfg, &diff, seed);
            if !report.passed() {
                let minimal = shrink(&generated.blueprint, |bp| {
                    !check_seeded(&bp.lower(), &diff, seed).passed()
                });
                panic!(
                    "analyzer unsound on preset {preset} seed {seed}:\n  {}\n\
                     reproduce with: cargo run -p omnisim-bench --bin fuzz -- \
                     --seed {seed} --preset {preset}\nminimized blueprint:\n{minimal:#?}",
                    report.failures.join("\n  "),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Regression pins for divergences the fuzzer has already caught. Each
// fixture in `designs::fuzz` is a shrunk witness of a real bug; the designs
// stay in the corpus forever.
// ---------------------------------------------------------------------------

/// Every fuzz fixture must pass the full differential oracle (with the
/// min_depths tightness resims on for the new dimensional fixtures).
#[test]
fn minimized_fuzz_fixtures_pass_the_differential_oracle() {
    let diff = DiffConfig {
        min_depths_resim: true,
        ..DiffConfig::default()
    };
    let fixtures = [
        (
            "pipelined_reader_overlap",
            fuzz_fixtures::pipelined_reader_overlap(2),
        ),
        ("nb_undecided_race", fuzz_fixtures::nb_undecided_race(3)),
        ("depth_relaxation", fuzz_fixtures::depth_relaxation(2)),
        // Larger workloads of the same shapes.
        (
            "pipelined_reader_overlap_64",
            fuzz_fixtures::pipelined_reader_overlap(64),
        ),
        ("nb_undecided_race_64", fuzz_fixtures::nb_undecided_race(64)),
        // Witnesses of the AXI / call / multi-rate divergences this PR's
        // generator extension surfaced and fixed.
        (
            "axi_outstanding_bursts",
            fuzz_fixtures::axi_outstanding_bursts(4),
        ),
        (
            "axi_beat_stall_anchor",
            fuzz_fixtures::axi_beat_stall_anchor(3),
        ),
        (
            "multirate_leftover",
            fuzz_fixtures::multirate_leftover(6, 3, 2),
        ),
        ("multirate_diamond", fuzz_fixtures::multirate_diamond(5)),
        ("call_wrapped_reader", fuzz_fixtures::call_wrapped_reader(5)),
        // Larger workloads of the same shapes.
        (
            "axi_outstanding_bursts_32",
            fuzz_fixtures::axi_outstanding_bursts(32),
        ),
        (
            "axi_beat_stall_anchor_16",
            fuzz_fixtures::axi_beat_stall_anchor(16),
        ),
        (
            "call_wrapped_reader_64",
            fuzz_fixtures::call_wrapped_reader(64),
        ),
    ];
    for (name, design) in fixtures {
        let report = check_seeded(&design, &diff, 0xf1f0);
        assert!(
            report.passed(),
            "fixture {name} regressed:\n  {}",
            report.failures.join("\n  ")
        );
    }
}

/// The outstanding-burst fixture's pacing: both engines and lightning must
/// agree with the reference on the cycle count (the pre-fix engine re-paced
/// the first burst's beats from the second request's ready cycle).
#[test]
fn axi_outstanding_bursts_pacing_is_pinned() {
    let design = fuzz_fixtures::axi_outstanding_bursts(4);
    let omni = backend("omnisim").unwrap().simulate(&design).unwrap();
    let rtl = backend("rtl").unwrap().simulate(&design).unwrap();
    let lightning = backend("lightning").unwrap().simulate(&design).unwrap();
    assert_eq!(omni.total_cycles, rtl.total_cycles);
    assert_eq!(lightning.total_cycles, rtl.total_cycles);
    assert_eq!(omni.outputs, rtl.outputs);
}

/// The beat-anchor fixture: certified incremental answers must equal a full
/// re-simulation at every depth, even though deeper FIFOs shift the AXI
/// beats onto the bus's absolute ready cycles (the pre-fix graph model
/// shifted the beats along with the FIFO writes).
#[test]
fn axi_beat_anchor_incremental_matches_full_resim_at_every_depth() {
    let design = fuzz_fixtures::axi_beat_stall_anchor(3);
    let baseline = OmniSimulator::new(&design).run().unwrap();
    assert!(baseline.outcome.is_completed());
    for depth in 1..=8usize {
        let incremental = baseline.incremental.try_with_depths(&[depth]).unwrap();
        let full = OmniSimulator::new(&design.with_fifo_depths(&[depth]))
            .run()
            .unwrap();
        assert_eq!(
            incremental,
            IncrementalOutcome::Valid {
                total_cycles: full.total_cycles
            },
            "depth {depth}: the absolute-bus-anchor bug is back"
        );
    }
}

/// Leftover data: probes below the surplus are infeasible — the resized
/// design deadlocks — and both the uncompiled path and the DSE VM must say
/// so instead of certifying a latency (the pre-fix paths skipped the
/// non-existent freeing read and certified).
#[test]
fn multirate_leftover_probes_below_surplus_are_infeasible() {
    let design = fuzz_fixtures::multirate_leftover(6, 3, 2);
    let baseline = OmniSimulator::new(&design).run().unwrap();
    assert!(baseline.outcome.is_completed());
    let plan = CompiledPlan::compile(&baseline.incremental).unwrap();
    let mut vm = plan.vm();
    for depth in 1..2usize {
        assert_eq!(
            baseline.incremental.try_with_depths(&[depth]).unwrap(),
            IncrementalOutcome::DepthInfeasible { fifo: 0 },
            "depth {depth}"
        );
        assert_eq!(
            vm.evaluate(&[depth]).unwrap(),
            IncrementalOutcome::DepthInfeasible { fifo: 0 },
            "VM at depth {depth}"
        );
        let full = OmniSimulator::new(&design.with_fifo_depths(&[depth]))
            .run()
            .unwrap();
        assert!(!full.outcome.is_completed(), "depth {depth} must deadlock");
    }
    // From the surplus upward the design completes and certifies.
    for depth in 2..=6usize {
        let incremental = baseline.incremental.try_with_depths(&[depth]).unwrap();
        let full = OmniSimulator::new(&design.with_fifo_depths(&[depth]))
            .run()
            .unwrap();
        assert!(full.outcome.is_completed());
        assert_eq!(
            incremental,
            IncrementalOutcome::Valid {
                total_cycles: full.total_cycles
            },
            "depth {depth}"
        );
    }
}

/// Multi-rate reconvergence: the depth-1 overlay is cyclic (the design
/// deadlocks at depth 1), the plan must still compile from the completed
/// baseline, and the uncompiled path and the VM must report the cyclic
/// point identically.
#[test]
fn multirate_diamond_depth_one_is_cyclic_and_diagnosed_identically() {
    let design = fuzz_fixtures::multirate_diamond(5);
    let baseline = OmniSimulator::new(&design).run().unwrap();
    assert!(baseline.outcome.is_completed());
    let plan = CompiledPlan::compile(&baseline.incremental)
        .expect("completed multi-rate baselines must compile");
    let all_one = vec![1usize; design.fifos.len()];
    assert_eq!(
        baseline.incremental.try_with_depths(&all_one).unwrap(),
        IncrementalOutcome::DepthCyclic
    );
    assert_eq!(
        plan.vm().evaluate(&all_one).unwrap(),
        IncrementalOutcome::DepthCyclic
    );
    // The undersized design itself deadlocks, and both cycle-accurate
    // backends agree on the diagnosis.
    let shallow = fuzz_fixtures::multirate_diamond(1);
    let report = check_seeded(&shallow, &DiffConfig::default(), 0xf1f0);
    assert!(
        report.passed(),
        "shallow diamond diverged:\n  {}",
        report.failures.join("\n  ")
    );
    assert!(!report.completed, "the shallow diamond must deadlock");
}

/// The wrapped-read fixture: lightning must order the producer before the
/// consumer even though the FIFO's reader module is a callee, and stay
/// cycle-exact through the two-deep call chain.
#[test]
fn call_wrapped_reader_is_cycle_exact_on_every_backend() {
    let design = fuzz_fixtures::call_wrapped_reader(5);
    let omni = backend("omnisim").unwrap().simulate(&design).unwrap();
    let rtl = backend("rtl").unwrap().simulate(&design).unwrap();
    let lightning = backend("lightning").unwrap().simulate(&design).unwrap();
    assert_eq!(omni.total_cycles, rtl.total_cycles);
    assert_eq!(lightning.total_cycles, rtl.total_cycles);
    assert_eq!(lightning.outputs, rtl.outputs);
}

/// Representative shrunk seeds per new dimension, pinned forever: the
/// generator is deterministic, so `(preset, seed)` *is* the fixture. Each
/// runs the full oracle with the tightness resims enabled.
#[test]
fn representative_dimension_seeds_stay_pinned() {
    let diff = DiffConfig {
        min_depths_resim: true,
        ..DiffConfig::default()
    };
    let pins = [
        ("axi", GenConfig::axi(), [3u64, 17, 40]),
        ("calls", GenConfig::calls(), [0, 4, 23]),
        ("multirate", GenConfig::multirate(), [1, 11, 29]),
    ];
    for (label, cfg, seeds) in pins {
        for seed in seeds {
            let (generated, report) = fuzz_seed(&cfg, &diff, seed);
            assert!(
                report.passed(),
                "pinned {label} seed {seed} regressed:\n  {}\nblueprint: {:#?}",
                report.failures.join("\n  "),
                generated.blueprint
            );
        }
    }
}

/// The reference simulator must overlap pipelined loop iterations: the
/// original divergence was rtl reporting 13 cycles against the engines' 12.
#[test]
fn pipelined_overlap_fixture_cycle_count_is_pinned() {
    let design = fuzz_fixtures::pipelined_reader_overlap(2);
    let omni = backend("omnisim").unwrap().simulate(&design).unwrap();
    let rtl = backend("rtl").unwrap().simulate(&design).unwrap();
    let lightning = backend("lightning").unwrap().simulate(&design).unwrap();
    assert_eq!(omni.total_cycles, Some(12), "engine timing model moved");
    assert_eq!(
        rtl.total_cycles,
        Some(12),
        "reference lost iteration overlap"
    );
    assert_eq!(lightning.total_cycles, Some(12));
}

/// Incremental DSE must *relax* write-after-read stalls for deeper FIFOs:
/// the original divergence certified the baseline's 9 cycles at every depth
/// where ground truth is 8 from depth 2 up.
#[test]
fn depth_relaxation_fixture_relaxes_with_depth() {
    let design = fuzz_fixtures::depth_relaxation(2);
    let baseline = OmniSimulator::new(&design).run().unwrap();
    assert_eq!(baseline.total_cycles, 9);
    for depth in 2..=16 {
        let incremental = baseline.incremental.try_with_depths(&[depth]).unwrap();
        let full = OmniSimulator::new(&design.with_fifo_depths(&[depth]))
            .run()
            .unwrap();
        assert_eq!(full.total_cycles, 8);
        assert_eq!(
            incremental,
            IncrementalOutcome::Valid { total_cycles: 8 },
            "depth {depth}: the baked-in-stall bug is back"
        );
    }
}
