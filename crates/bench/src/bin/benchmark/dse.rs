//! `dse_sizing`: FIFO-depth design-space exploration on compiled plans.
//! The engine runs only in set-up, so the timed part is the `dse` layer's
//! bytecode VM and its minimum-depth search.

use crate::harness::{common_metrics, layer_metrics, measure, Budget, Report, Tally};
use crate::trace::Recorder;
use omnisim_suite::designs::{table4_designs_with_n, DEFAULT_N};
use omnisim_suite::dse::IncrementalOutcome;
use omnisim_suite::gen::Rng;
use omnisim_suite::{backend, CompiledPlan, CompiledSim, RunConfig, SweepPlan};
use std::time::Instant;

/// Workload size: Table 4 element count, depth vectors per design and
/// `min_depths` searches per design per pass.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub n: i64,
    pub points: usize,
    pub searches: usize,
}

impl Size {
    pub const FULL: Size = Size {
        n: DEFAULT_N,
        points: 4000,
        searches: 20,
    };
}

/// Depths are drawn from `1..=MAX_DEPTH` and searched up to it.
const MAX_DEPTH: usize = 64;
/// Every this many `Valid` VM points, one is re-run on the engine.
const CHECK_EVERY: u64 = 100;

struct Sizing {
    name: &'static str,
    compiled: Box<dyn CompiledSim>,
    plan: SweepPlan,
    program: CompiledPlan,
    /// 110% of the baseline latency: the `min_depths` target.
    target: u64,
    points: Vec<Vec<usize>>,
}

/// Compiles, plans and lowers each Table 4 design with FIFOs (all but
/// `deadlock`), and draws its depth vectors from the seed.
fn build(size: Size, seed: u64, rec: &mut Recorder) -> Vec<Sizing> {
    let omni = backend("omnisim").expect("registered");
    let mut rng = Rng::new(seed ^ 0x6473_655f_7369_7a65);
    table4_designs_with_n(size.n)
        .into_iter()
        .filter(|bench| !bench.design.fifos.is_empty())
        .map(|bench| {
            let (compiled, _, _) = rec.time("core.compile", || omni.compile(&bench.design));
            let compiled = compiled.expect("Table 4 designs compile on omnisim");
            let (plan, _, _) = rec.time("dse.plan_compile", || {
                SweepPlan::from_compiled(compiled.as_ref())
            });
            let plan = plan
                .expect("omnisim artifacts compile to plans")
                .expect("Table 4 baselines are acyclic");
            let (program, _, _) = rec.time("dse.bytecode_lower", || plan.compile_bytecode());
            let baseline = compiled
                .run(&RunConfig::default())
                .expect("baseline replay")
                .total_cycles
                .expect("omnisim counts cycles");
            let fifos = bench.design.fifos.len();
            let points = (0..size.points)
                .map(|_| (0..fifos).map(|_| rng.depth(MAX_DEPTH)).collect())
                .collect();
            Sizing {
                name: bench.name,
                compiled,
                plan,
                program,
                target: baseline * 11 / 10,
                points,
            }
        })
        .collect()
}

#[derive(Debug, Default)]
struct PassData {
    vm_s: f64,
    search_s: f64,
    points: u64,
    valid: u64,
    slow: u64,
    probes: u64,
    calls_ms: Vec<f64>,
}

pub fn run(size: Size, seed: u64, budget: &Budget, rec: &mut Recorder) -> Report {
    let mut tally = Tally::default();
    let build = |rec: &mut Recorder| build(size, seed, rec);
    let (_, passes) = measure(budget, rec, build, drop, |rec, designs, _| {
        let mut data = PassData::default();
        for sizing in designs.iter() {
            evaluate_points(rec, sizing, &mut data, &mut tally);
            search_depths(rec, sizing, size.searches, &mut data, &mut tally);
        }
        data
    });

    let mut report = Report {
        tally,
        ..Report::default()
    };
    let off = passes.untraced();
    let sheet = &mut report.sheet;
    common_metrics(sheet, &passes);
    sheet.median("pass_s", off.iter().map(|p| p.vm_s + p.search_s).collect());
    sheet.median(
        "work_per_s",
        off.iter().map(|p| p.points as f64 / p.vm_s).collect(),
    );
    let calls: Vec<Vec<f64>> = off.iter().map(|p| p.calls_ms.clone()).collect();
    sheet.pooled("call_ms_p50", &calls, 50.0);
    sheet.pooled("call_ms_p90", &calls, 90.0);

    if rec.enabled() {
        layer_metrics(
            &mut report,
            rec,
            &passes,
            &[
                ("dse.vm_evaluate_pct", "dse.vm_evaluate"),
                ("dse.min_depths_pct", "dse.min_depths"),
                ("core.run_pct", "core.run"),
            ],
            &[
                ("core.compile_pct", "core.compile"),
                ("dse.plan_compile_pct", "dse.plan_compile"),
                ("dse.bytecode_lower_pct", "dse.bytecode_lower"),
            ],
        );
        let on = passes.traced();
        let sheet = &mut report.sheet;
        let per_pass = |f: fn(&PassData) -> f64| on.iter().map(|p| f(p)).collect::<Vec<_>>();
        sheet.median(
            "dse.vm_valid_ratio",
            per_pass(|p| p.valid as f64 / p.points as f64),
        );
        sheet.median("dse.vm_slow_points", per_pass(|p| p.slow as f64));
        sheet.median("dse.min_depths_probes", per_pass(|p| p.probes as f64));
        sheet.median(
            "dse.min_depths_probes_per_s",
            per_pass(|p| p.probes as f64 / p.search_s),
        );
    }
    report
}

/// All depth vectors through one fresh VM, then every `CHECK_EVERY`th
/// `Valid` point re-run on the engine's compiled session.
fn evaluate_points(rec: &mut Recorder, sizing: &Sizing, data: &mut PassData, tally: &mut Tally) {
    let (outcomes, took, _) = rec.time("dse.vm_evaluate", || {
        let mut vm = sizing.program.vm();
        sizing
            .points
            .iter()
            .map(|depths| vm.evaluate(depths))
            .collect::<Vec<_>>()
    });
    data.vm_s += took.as_secs_f64();
    data.points += outcomes.len() as u64;
    let mut checks = Vec::new();
    for (depths, outcome) in sizing.points.iter().zip(outcomes) {
        tally.attempt(1);
        match outcome {
            Ok(IncrementalOutcome::Valid { total_cycles }) => {
                if data.valid.is_multiple_of(CHECK_EVERY) {
                    checks.push((depths, total_cycles));
                }
                data.valid += 1;
            }
            Ok(IncrementalOutcome::DepthInfeasible { .. } | IncrementalOutcome::DepthCyclic) => {
                data.slow += 1;
            }
            Ok(_) => {}
            Err(error) => {
                tally.fail(format!("{}: VM rejected {depths:?}: {error}", sizing.name));
            }
        }
    }
    let (runs, _, _) = rec.time("core.run", || {
        checks
            .iter()
            .map(|(depths, _)| {
                sizing
                    .compiled
                    .run(&RunConfig::new().with_fifo_depths(depths.to_vec()))
            })
            .collect::<Vec<_>>()
    });
    for ((depths, vm_cycles), run) in checks.into_iter().zip(runs) {
        let engine = run.map(|report| report.total_cycles);
        if engine != Ok(Some(vm_cycles)) {
            tally.fail(format!(
                "{}: VM says {vm_cycles} cycles at {depths:?}, the engine {engine:?}",
                sizing.name
            ));
        }
    }
}

/// Repeated identical `min_depths` searches: each must succeed, agree
/// with the first, and its joint verdict must match the VM's.
fn search_depths(
    rec: &mut Recorder,
    sizing: &Sizing,
    searches: usize,
    data: &mut PassData,
    tally: &mut Tally,
) {
    let (results, took, _) = rec.time("dse.min_depths", || {
        (0..searches)
            .map(|_| {
                let start = Instant::now();
                let result = sizing.plan.min_depths(sizing.target, MAX_DEPTH);
                (result, start.elapsed())
            })
            .collect::<Vec<_>>()
    });
    data.search_s += took.as_secs_f64();
    let mut first = None;
    for (result, elapsed) in results {
        data.calls_ms.push(elapsed.as_secs_f64() * 1e3);
        tally.attempt(1);
        let report = match result {
            Ok(report) => report,
            Err(error) => {
                tally.fail(format!("{}: min_depths failed: {error}", sizing.name));
                continue;
            }
        };
        data.probes += report.probes as u64;
        let this = (report.depths, report.combined, report.probes);
        match &first {
            None => first = Some(this),
            Some(earlier) if *earlier == this => {}
            Some(_) => tally.fail(format!("{}: min_depths is not deterministic", sizing.name)),
        }
    }
    if let Some((depths, combined, _)) = first {
        let (vm, _, _) = rec.time("dse.vm_check", || sizing.program.evaluate(&depths));
        if vm.as_ref() != Ok(&combined) {
            tally.fail(format!(
                "{}: min_depths says {combined:?} at {depths:?}, the VM {vm:?}",
                sizing.name
            ));
        }
    }
}
