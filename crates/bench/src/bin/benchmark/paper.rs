//! `typebc_oneshot` and `typea_dataflow`: one-shot `simulate` of every
//! design on `omnisim`, its cycle-accurate reference and `csim`, in an
//! order shuffled per pass from the seed — the paper's Fig. 8 and Table 5
//! comparisons.

use crate::harness::{common_metrics, layer_metrics, measure, Budget, Paper, Report, Tally};
use crate::stats::median;
use crate::trace::Recorder;
use omnisim_bench::percent_error;
use omnisim_suite::designs::{table4_designs_with_n, typea, DEFAULT_N};
use omnisim_suite::gen::{generate, GenConfig, Rng};
use omnisim_suite::ir::design::OutputMap;
use omnisim_suite::ir::Design;
use omnisim_suite::omnisim::SimStats;
use omnisim_suite::{backend, SimReport, Simulator};

/// Which suite a run simulates, and at what size.
#[derive(Debug, Clone, Copy)]
pub enum Suite {
    /// The 11 Table 4 designs at element count `n`, plus `generated`
    /// designs each from `GenConfig::type_b()` and `type_c()`; `rtl` is
    /// the reference.
    TypeBC { n: i64, generated: usize },
    /// The seven large Type A dataflow graphs with their token counts
    /// divided by `token_divisor`; `lightning` is the reference.
    TypeA { token_divisor: i64 },
}

impl Suite {
    pub const TYPEBC: Suite = Suite::TypeBC {
        n: DEFAULT_N,
        generated: 12,
    };
    pub const TYPEA: Suite = Suite::TypeA { token_divisor: 16 };

    fn reference(self) -> &'static str {
        match self {
            Suite::TypeBC { .. } => "rtl",
            Suite::TypeA { .. } => "lightning",
        }
    }
}

/// The large graphs of `typea_suite()` as `(name, stages, tokens)`: the
/// FlowGNN variants, INR-Arch and SkyNet.
const LARGE_GRAPHS: [(&str, usize, i64); 7] = [
    ("flowgnn_gin", 12, 6_000),
    ("flowgnn_gcn", 16, 6_000),
    ("flowgnn_gat", 20, 8_000),
    ("flowgnn_pna", 24, 8_000),
    ("flowgnn_dgn", 12, 10_000),
    ("inr_arch", 32, 12_000),
    ("skynet", 48, 25_000),
];

struct Case {
    name: String,
    design: Design,
    /// Counts toward the call latency percentiles and the paper table.
    headline: bool,
}

/// Builds the suite's designs; the generated ones take their seeds from
/// the workload seed.
fn build(suite: Suite, seed: u64) -> Vec<Case> {
    match suite {
        Suite::TypeBC { n, generated } => {
            let mut cases: Vec<Case> = table4_designs_with_n(n)
                .into_iter()
                .map(|b| Case {
                    name: b.name.to_owned(),
                    design: b.design,
                    headline: true,
                })
                .collect();
            let mut rng = Rng::new(seed ^ 0x7479_7065_6263);
            for preset in [GenConfig::type_b(), GenConfig::type_c()] {
                for _ in 0..generated {
                    let g = generate(&preset, rng.next());
                    cases.push(Case {
                        name: g.design.name.clone(),
                        design: g.design,
                        headline: false,
                    });
                }
            }
            cases
        }
        Suite::TypeA { token_divisor } => LARGE_GRAPHS
            .iter()
            .map(|&(name, stages, tokens)| Case {
                name: name.to_owned(),
                design: typea::dataflow_graph(name, stages, (tokens / token_divisor).max(1), 1),
                headline: true,
            })
            .collect(),
    }
}

/// The deterministic part of a report that two backends must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    pub completed: bool,
    pub outcome: String,
    pub outputs: OutputMap,
    pub cycles: Option<u64>,
}

impl From<&SimReport> for Projection {
    fn from(report: &SimReport) -> Projection {
        Projection {
            completed: report.outcome.is_completed(),
            outcome: report.outcome.describe(),
            outputs: report.outputs.clone(),
            cycles: report.total_cycles,
        }
    }
}

/// `omnisim` against its reference, by the fuzz oracle's rule: the same
/// outcome kind, and for completed runs the same outputs and cycles (on a
/// deadlock OmniSim's optimistic functional threads may have run further
/// than hardware, so partial outputs are incomparable). Any cycle error is
/// a mismatch, so a run without failures has none.
pub fn check_against_reference(omni: &Projection, reference: &Projection) -> Result<(), String> {
    if omni.completed != reference.completed {
        return Err(format!(
            "outcome mismatch: omnisim {} vs reference {}",
            omni.outcome, reference.outcome
        ));
    }
    if !omni.completed {
        return Ok(());
    }
    if omni.outputs != reference.outputs {
        return Err(format!(
            "output mismatch: omnisim {:?} vs reference {:?}",
            omni.outputs, reference.outputs
        ));
    }
    match (omni.cycles, reference.cycles) {
        (Some(o), Some(r)) if o == r => Ok(()),
        (Some(o), Some(r)) => Err(format!(
            "cycle mismatch: omnisim {o} vs reference {r} ({:.3}% off)",
            percent_error(o, r)
        )),
        (o, r) => Err(format!(
            "cycle count missing: omnisim {o:?}, reference {r:?}"
        )),
    }
}

/// What one pass measured.
#[derive(Debug, Default)]
struct PassData {
    omni_s: f64,
    ref_s: f64,
    csim_s: f64,
    /// Summed `SimTimings::execution` of the `omnisim` calls.
    exec_s: f64,
    stats: [u64; 5],
    /// `omnisim` call latencies of the headline designs, in ms.
    calls_ms: Vec<f64>,
    /// Per headline design: `(omnisim ms, reference ms)`.
    per_case: Vec<(f64, f64)>,
}

#[derive(Clone, Copy, PartialEq)]
enum Leg {
    Omni,
    Reference,
    Csim,
}

pub fn run(suite: Suite, seed: u64, budget: &Budget, rec: &mut Recorder) -> Report {
    let omni = backend("omnisim").expect("registered");
    let reference = backend(suite.reference()).expect("registered");
    let csim = backend("csim").expect("registered");
    let mut tally = Tally::default();
    let (cases, passes) = measure(
        budget,
        rec,
        |_| build(suite, seed),
        drop,
        |rec, cases, pass| {
            let mut order: Vec<(usize, Leg)> = (0..cases.len())
                .flat_map(|c| [(c, Leg::Omni), (c, Leg::Reference), (c, Leg::Csim)])
                .collect();
            shuffle(
                &mut order,
                &mut Rng::new(seed ^ (pass as u64 + 1).wrapping_mul(0x9E37)),
            );
            let mut data = PassData::default();
            let mut omni_out: Vec<Option<(Projection, f64)>> = vec![None; cases.len()];
            let mut ref_out: Vec<Option<(Projection, f64)>> = vec![None; cases.len()];
            for (c, leg) in order {
                let design = &cases[c].design;
                match leg {
                    Leg::Omni => {
                        let (result, took, span) =
                            rec.time("core.simulate", || omni.simulate(design));
                        data.omni_s += took.as_secs_f64();
                        if let Ok(report) = &result {
                            let t = report.timings;
                            rec.phases(
                                span,
                                &[
                                    ("core.front_end", t.front_end),
                                    ("core.execution", t.execution),
                                    ("core.finalize", t.finalize),
                                ],
                            );
                            data.exec_s += t.execution.as_secs_f64();
                            if let Some(s) = report.extras.get::<SimStats>() {
                                let counts = [
                                    s.fifo_accesses,
                                    s.queries as u64,
                                    s.queries_forced_false as u64,
                                    s.threads as u64,
                                    s.graph_nodes as u64,
                                ];
                                for (sum, count) in data.stats.iter_mut().zip(counts) {
                                    *sum += count;
                                }
                            }
                        }
                        omni_out[c] =
                            outcome(&result, took.as_secs_f64() * 1e3, &mut tally, "omnisim");
                    }
                    Leg::Reference => {
                        let (result, took) = simulate_reference(rec, reference.as_ref(), design);
                        data.ref_s += took;
                        ref_out[c] = outcome(&result, took * 1e3, &mut tally, suite.reference());
                    }
                    Leg::Csim => {
                        // C simulation is the speed floor, not a reference:
                        // its outputs differ on Type C designs by design.
                        let (_, took, _) = rec.time("csim.simulate", || csim.simulate(design));
                        data.csim_s += took.as_secs_f64();
                    }
                }
            }
            for (case, (o, r)) in cases.iter().zip(omni_out.iter().zip(&ref_out)) {
                if let (Some((o, _)), Some((r, _))) = (o, r) {
                    tally.check(
                        check_against_reference(o, r)
                            .map_err(|why| format!("{}: {why}", case.name)),
                    );
                }
                if case.headline {
                    let ms =
                        |side: &Option<(Projection, f64)>| side.as_ref().map_or(f64::NAN, |s| s.1);
                    data.calls_ms.extend(o.as_ref().map(|s| s.1));
                    data.per_case.push((ms(o), ms(r)));
                }
            }
            data
        },
    );

    let mut report = Report {
        tally,
        ..Report::default()
    };
    let off = passes.untraced();
    let sheet = &mut report.sheet;
    common_metrics(sheet, &passes);
    sheet.median("pass_s", off.iter().map(|p| p.omni_s).collect());
    sheet.median(
        "work_per_s",
        off.iter().map(|p| p.stats[0] as f64 / p.omni_s).collect(),
    );
    let calls: Vec<Vec<f64>> = off.iter().map(|p| p.calls_ms.clone()).collect();
    sheet.pooled("call_ms_p50", &calls, 50.0);
    sheet.pooled("call_ms_p90", &calls, 90.0);

    let headline: Vec<&Case> = cases.iter().filter(|c| c.headline).collect();
    report.paper = Some(Paper {
        figure: match suite {
            Suite::TypeBC { .. } => "Fig. 8b",
            Suite::TypeA { .. } => "Table 5",
        },
        reference: suite.reference(),
        paper_geomean: match suite {
            Suite::TypeBC { .. } => 30.7,
            Suite::TypeA { .. } => 1.26,
        },
        rows: headline
            .iter()
            .enumerate()
            .map(|(i, case)| {
                let at = |pick: fn(&(f64, f64)) -> f64| {
                    let ms: Vec<f64> = off
                        .iter()
                        .map(|p| pick(&p.per_case[i]))
                        .filter(|ms| ms.is_finite())
                        .collect();
                    median(&ms)
                };
                (case.name.clone(), at(|c| c.0), at(|c| c.1))
            })
            .collect(),
    });

    if rec.enabled() {
        layer_metrics(
            &mut report,
            rec,
            &passes,
            &[
                ("core.front_end_pct", "core.front_end"),
                ("core.execution_pct", "core.execution"),
                ("core.finalize_pct", "core.finalize"),
                ("api.residual_pct", "core.simulate"),
                ("rtl.simulate_pct", "rtl.simulate"),
                ("lightning.front_end_pct", "lightning.front_end"),
                ("lightning.finalize_pct", "lightning.finalize"),
                ("csim.simulate_pct", "csim.simulate"),
            ],
            &[],
        );
        let on = passes.traced();
        let sheet = &mut report.sheet;
        sheet.median(
            "core.fifo_accesses_per_s",
            on.iter().map(|p| p.stats[0] as f64 / p.exec_s).collect(),
        );
        for (i, name) in [
            "core.fifo_accesses",
            "core.queries",
            "core.queries_forced_false",
            "core.threads",
            "core.graph_nodes",
        ]
        .into_iter()
        .enumerate()
        {
            sheet.median(name, on.iter().map(|p| p.stats[i] as f64).collect());
        }
        let pass_median =
            |pick: fn(&PassData) -> f64| median(&off.iter().map(|p| pick(p)).collect::<Vec<_>>());
        let omni_pass = pass_median(|p| p.omni_s);
        sheet.single("paper.speedup_vs_ref", pass_median(|p| p.ref_s) / omni_pass);
        sheet.single(
            "paper.slowdown_vs_csim",
            omni_pass / pass_median(|p| p.csim_s),
        );
    }
    report
}

/// Times the reference; `lightning`'s two phases become child spans.
fn simulate_reference(
    rec: &mut Recorder,
    reference: &dyn Simulator,
    design: &Design,
) -> (Result<SimReport, omnisim_suite::SimFailure>, f64) {
    if reference.name() == "lightning" {
        let (result, took, span) = rec.time("lightning.simulate", || reference.simulate(design));
        if let Ok(report) = &result {
            rec.phases(
                span,
                &[
                    ("lightning.front_end", report.timings.front_end),
                    ("lightning.finalize", report.timings.finalize),
                ],
            );
        }
        (result, took.as_secs_f64())
    } else {
        let (result, took, _) = rec.time("rtl.simulate", || reference.simulate(design));
        (result, took.as_secs_f64())
    }
}

/// A successful run's projection and latency; a failed run is a failure.
fn outcome(
    result: &Result<SimReport, omnisim_suite::SimFailure>,
    ms: f64,
    tally: &mut Tally,
    who: &str,
) -> Option<(Projection, f64)> {
    match result {
        Ok(report) => Some((Projection::from(report), ms)),
        Err(failure) => {
            tally.attempt(1);
            tally.fail(format!("{who} failed: {failure}"));
            None
        }
    }
}

/// Fisher–Yates with the workspace's seeded generator.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.range_usize(0, i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn projection(cycles: u64, sum: i64) -> Projection {
        Projection {
            completed: true,
            outcome: "completed".into(),
            outputs: OutputMap::from([("sum".to_owned(), sum)]),
            cycles: Some(cycles),
        }
    }

    #[test]
    fn a_corrupted_reference_counts_as_a_failure() {
        let good = projection(100, 7);
        assert_eq!(check_against_reference(&good, &good.clone()), Ok(()));

        let mut tally = Tally::default();
        for corrupted in [
            projection(101, 7),
            projection(100, 8),
            Projection {
                completed: false,
                outcome: "deadlock detected".into(),
                ..good.clone()
            },
        ] {
            tally.check(check_against_reference(&good, &corrupted));
        }
        assert_eq!((tally.attempted, tally.failed), (3, 3));
        assert!(tally.failures[0].contains("cycle mismatch"));
        assert!(tally.failures[1].contains("output mismatch"));
        assert!(tally.failures[2].contains("outcome mismatch"));
    }

    #[test]
    fn deadlocks_agree_on_outcome_kind_alone() {
        let stuck = |sum| Projection {
            completed: false,
            outcome: "deadlock detected".into(),
            outputs: OutputMap::from([("sum".to_owned(), sum)]),
            cycles: Some(5),
        };
        assert_eq!(check_against_reference(&stuck(1), &stuck(2)), Ok(()));
    }
}
