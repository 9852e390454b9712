//! # benchmark — one seeded harness for the OmniSim reproduction
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--trace 0|1]        # all four workloads
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark compare A.json[,A2.json...] B.json[,B2.json...]
//! ```
//!
//! Run it from the repository root, e.g.
//! `cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --seed 1`.
//! Without `--workload` it runs each workload in a child process (this
//! binary again, with `--workload`), so memory and CPU are counted per
//! workload, and writes `target/benchmark/results.json`. With `--workload`
//! it runs that one workload in-process, prints every metric as
//! `workload metric unit median [q1 q3] n=`, writes
//! `target/benchmark/<workload>.json` (`.trace.json` when traced), and
//! prints as its last line one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Every output is checked against a reference;
//! any mismatch makes `correct` false and the exit code 1.
//!
//! All load is closed-loop from one process: serial calls, and for the
//! served workload one client connection that waits for each reply. The
//! only other threads are the ones the program under test starts (engine
//! Func Sim threads, `SimService` workers, the server's connection
//! thread). Each layer is timed from outside, around calls to its crate's
//! public functions. Inputs come from `--seed` alone.
//!
//! ## Workloads
//!
//! A run sets up 5 times, keeping the last, then makes passes until
//! `--seconds` have gone by (at least 3). A set-up under 10 ms is also
//! repeated before every pass, so its samples span the run instead of one
//! moment of a shared host.
//!
//! * `typebc_oneshot` — per pass, one-shot `simulate` of the 11
//!   `table4_designs()` (N = 2025) and 24 `omnisim_gen::generate` designs
//!   (12 `GenConfig::type_b()`, 12 `type_c()`, seeded) on `omnisim`, `rtl`
//!   and `csim`, in a seed-shuffled order. The paper's Fig. 8 claim, on
//!   designs only `omnisim` and `rtl` can run: the `core` engine's
//!   request/response round trip per FIFO access and its §7.1 query
//!   resolution do nearly all the work, and the generated designs make a
//!   held-out seed change the inputs. Set-up: building the designs.
//! * `typea_dataflow` — the same on the seven large `typea_suite()` graphs
//!   (`flowgnn_gin` … `skynet`) rebuilt through `typea::dataflow_graph`
//!   with 1/16 of their tokens (14–50 tasks, zero queries), with
//!   `lightning` as the reference. Table 5's large-design regime: many
//!   more engine threads than cores and only blocking traffic, so a
//!   thread-scheduling change shows here and in `typebc_oneshot`, while a
//!   query-resolution change shows only in `typebc_oneshot`.
//! * `dse_sizing` — set-up compiles `omnisim` baselines of the 10 Table 4
//!   designs with FIFOs, runs `SweepPlan::from_compiled` and
//!   `compile_bytecode` on each and draws 4000 depth vectors per design
//!   (depths in 1..=64). Per pass and design: all vectors through a fresh
//!   `CompiledVm`, then 20 `SweepPlan::min_depths(baseline*11/10, 64)`
//!   searches. The `dse` layer does all the timed work and the engine runs
//!   only in set-up, so an engine speed-up should move only `setup_s`
//!   here. `min_depths` still runs on the interpreted `PlanEvaluator`.
//! * `served_batches` — set-up boots a `Server` on `127.0.0.1:0` over a
//!   `SimService` with an `ArtifactStore`, registers `vecadd_stream(512,2)`,
//!   `fir_filter(512,8)` and `window_conv(512,4)` cold, restarts on the
//!   same store, registers them warm, and builds an in-process twin
//!   service. Per pass: 20 `Client::run_batch` calls of 8 runs (phase A),
//!   then 2 of 256 runs (phase B), half default replays and half depth
//!   overrides in 1..=12 (drawn once from the seed, the same every pass),
//!   each replayed on the twin outside the client's timer. The wire dominates small batches and the service's
//!   re-finalize work large ones, so a wire fix should move `call_ms_p50`
//!   a lot and `work_per_s` little; registering cold then warm exercises
//!   `store` and `codec`.
//!
//! `analyze` and `obs` are left out on purpose: neither is on a blocking
//! user path today, and `api_throughput` already measures the `obs`
//! overhead.
//!
//! ## End-to-end metrics (untraced runs)
//!
//! Every workload reports every one; "the system under test" is `omnisim`
//! in the first two, the `dse` calls in the third and the client in the
//! fourth. Host wall time throughout.
//!
//! * `setup_s` — median wall time of one set-up.
//! * `pass_s` — median over passes of the summed wall time of the system
//!   under test's calls in one pass (references excluded).
//! * `work_per_s` — work per second of that time, median over passes:
//!   simulated FIFO accesses (`SimStats::fifo_accesses`) in the first two
//!   workloads, VM depth points in `dse_sizing`, served runs of phase B in
//!   `served_batches`.
//! * `call_ms_p50`, `call_ms_p90` — latency of one user call, pooled over
//!   every pass: an `omnisim` `simulate` of a Table 4 design (the
//!   generated designs take ~1 ms and vary with the seed, so they count in
//!   `pass_s` and `work_per_s` only) or of a dataflow graph, one
//!   `min_depths` search, or one phase-A `run_batch`.
//! * `peak_rss_mb` — `VmHWM` of the workload's process once set-up and the
//!   first three passes are done (the engine's many short-lived threads
//!   keep growing the allocator's arenas, so a later reading would depend
//!   on how many passes fit in the run).
//!
//! The regression bound of each is in [`metrics::END_TO_END`] and
//! `BENCHMARK.json`. Correctness is not a metric: `attempted` counts
//! checked operations and `failed` counts errors, reference mismatches and
//! `Overloaded` refusals; any failure fails the run, and `compare` reports
//! a failed run as a bad row whatever its metrics say. Any cycle error
//! against the reference is a mismatch, so a run without failures has a
//! cycle error of 0.
//!
//! ## Per-layer metrics (traced runs) and what they should move
//!
//! Layer timings are shares (`%`) of the pass or set-up they sit in,
//! computed from the self time of the spans around each call; a layer not
//! on a workload's path reads 0 there. Counts are exact: a speed-only
//! change must leave them unchanged.
//!
//! * `core.front_end_pct`, `core.execution_pct`, `core.finalize_pct` (the
//!   engine's `SimTimings`) and `api.residual_pct` (`simulate` wall time
//!   minus `timings.total()`) → `pass_s` and `call_ms_*` on
//!   `typebc_oneshot` and `typea_dataflow`.
//! * `core.fifo_accesses_per_s` (accesses ÷ `SimTimings::execution`) →
//!   `work_per_s` there; `proc.user_cpu_pct`, `proc.sys_cpu_pct` (from
//!   `/proc/self/stat`; the sys share is what thread hand-off costs) →
//!   `pass_s` everywhere.
//! * Counts `core.fifo_accesses`, `core.queries`,
//!   `core.queries_forced_false`, `core.threads`, `core.graph_nodes`.
//! * `rtl.simulate_pct`, `lightning.front_end_pct`,
//!   `lightning.finalize_pct`, `csim.simulate_pct` — the references, which
//!   must not move when only the engine changes; `paper.speedup_vs_ref`
//!   (reference pass ÷ `omnisim` pass) and `paper.slowdown_vs_csim`.
//! * `dse.vm_evaluate_pct`, `dse.vm_valid_ratio` (`Valid` ÷ points),
//!   `dse.vm_slow_points` (`DepthInfeasible` + `DepthCyclic`) →
//!   `work_per_s` on `dse_sizing`; `dse.min_depths_pct`,
//!   `dse.min_depths_probes`, `dse.min_depths_probes_per_s` → `pass_s`
//!   and `call_ms_*` there; `core.run_pct` is the engine re-running checked
//!   points. `core.compile_pct`, `dse.plan_compile_pct`,
//!   `dse.bytecode_lower_pct` are shares of the set-up → `setup_s`.
//! * `serve.wire_pct` (client latency − twin service − `wire::encode_request`
//!   − `wire::decode_response`, timed on the same messages),
//!   `serve.service_pct`, `wire.encode_pct`, `wire.decode_pct` → shares of
//!   phase-A latency → `call_ms_*`; `serve.wire_large_pct`,
//!   `serve.service_large_pct` → `work_per_s` on `served_batches`.
//! * `serve.register_cold_pct`, `serve.register_warm_pct`, `store.save_pct`,
//!   `store.load_pct`, `codec.encode_pct`, `codec.decode_pct` (the store
//!   and codec called directly on the three artifacts) → `setup_s` there.
//! * Counts `serve.replay_runs`, `serve.refinalize_runs`,
//!   `serve.resim_runs` from the twin's `RunPath` extras.
//! * `trace.coverage_pct` (least share of a pass its layer spans cover;
//!   under 95% fails the run), `trace.overhead_pct` (traced minus untraced
//!   pass time: traced runs alternate the two), `check.fail_ratio`.
//!
//! A traced run writes `target/benchmark/trace-<workload>.jsonl` (one span
//! per line: id, parent, name, start, end, workload, seed) and prints a
//! self-time table per layer.

#![forbid(unsafe_code)]

mod compare;
mod dse;
mod harness;
mod metrics;
mod paper;
mod served;
mod stats;
mod trace;

use harness::{Budget, Report};
use metrics::{spec, Measured, Spec, END_TO_END, PER_LAYER};
use omnisim_suite::obs::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::Recorder;

/// The workloads, with why each was chosen (mirrored in `BENCHMARK.json`).
const WORKLOADS: [(&str, &str); 4] = [
    (
        "typebc_oneshot",
        "Fig. 8 claim: one-shot simulate of Table 4 and seeded Type B/C designs, omnisim vs rtl; engine round trips and query resolution dominate",
    ),
    (
        "typea_dataflow",
        "Table 5 regime: seven large dataflow graphs with more engine threads than cores and only blocking traffic, omnisim vs lightning",
    ),
    (
        "dse_sizing",
        "FIFO sizing: bytecode VM over seeded depth vectors and min_depths searches; the engine runs only in set-up",
    ),
    (
        "served_batches",
        "served path: small and large run_batch requests over TCP to a store-backed service, replayed in-process to split wire from service",
    ),
];

/// Workload sizes: the full ones, or small ones for tests.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    typebc: paper::Suite,
    typea: paper::Suite,
    dse: dse::Size,
    served: served::Size,
}

const FULL: Sizes = Sizes {
    typebc: paper::Suite::TYPEBC,
    typea: paper::Suite::TYPEA,
    dse: dse::Size::FULL,
    served: served::Size::FULL,
};

const SETUP_REPS: usize = 5;
const MIN_PASSES: usize = 3;
/// A traced pass whose layer spans cover less than this fails the run.
const MIN_COVERAGE_PCT: f64 = 95.0;

fn out_dir() -> PathBuf {
    PathBuf::from("target").join("benchmark")
}

/// Runs one workload in this process; the recorder is enabled for a
/// traced run.
fn execute(
    name: &str,
    sizes: &Sizes,
    seed: u64,
    budget: &Budget,
    store_root: &Path,
    rec: &mut Recorder,
) -> Report {
    let mut report = match name {
        "typebc_oneshot" => paper::run(sizes.typebc, seed, budget, rec),
        "typea_dataflow" => paper::run(sizes.typea, seed, budget, rec),
        "dse_sizing" => dse::run(sizes.dse, seed, budget, rec),
        "served_batches" => served::run(sizes.served, seed, budget, store_root, rec),
        other => unreachable!("unknown workload {other} passed validation"),
    };
    if rec.enabled() {
        report.sheet.zero_fill(PER_LAYER);
    }
    report
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|(w, _)| w == name) {
                    return Err(format!("unknown workload {name}"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.get(1..) {
            Some([a, b]) => match compare::run(a, b) {
                Ok(0) => ExitCode::SUCCESS,
                Ok(bad) => {
                    eprintln!("{bad} metric(s) worse or unresolved");
                    ExitCode::FAILURE
                }
                Err(error) => {
                    eprintln!("compare: {error}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: benchmark compare A.json[,A2.json...] B.json[,B2.json...]");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    if let Err(error) = std::fs::create_dir_all(out_dir()) {
        eprintln!("benchmark: cannot create {}: {error}", out_dir().display());
        return ExitCode::FAILURE;
    }
    match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_suite(&args),
    }
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    let budget = Budget {
        seconds: args.seconds,
        min_passes: MIN_PASSES,
        setup_reps: SETUP_REPS,
    };
    let store_root = out_dir().join(format!("store-{}", std::process::id()));
    let mut rec = Recorder::new(args.trace);
    let root = rec.open("workload");
    let mut report = execute(workload, &FULL, args.seed, &budget, &store_root, &mut rec);
    rec.close(root);
    let _ = std::fs::remove_dir_all(&store_root);
    if args.trace {
        let coverage = report.sheet.measured("trace.coverage_pct").value;
        if coverage < MIN_COVERAGE_PCT {
            report.tally.fail(format!(
                "layer spans cover only {coverage:.2}% of a pass (need {MIN_COVERAGE_PCT}%)"
            ));
        }
    }

    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    for spec in catalog {
        print_metric(workload, spec, report.sheet.measured(spec.name));
    }
    if let Some(paper) = &report.paper {
        print_paper(paper);
    }
    let mut written = true;
    if args.trace {
        print_self_times(&rec);
        let overhead = report.sheet.measured("trace.overhead_pct").value;
        println!("tracing overhead: {overhead:+.2}% of an untraced pass");
        let path = out_dir().join(format!("trace-{workload}.jsonl"));
        if let Err(error) = rec.write_jsonl(&path, workload, args.seed) {
            eprintln!("benchmark: cannot write {}: {error}", path.display());
            written = false;
        }
    }
    for reason in &report.tally.failures {
        eprintln!("FAILED {workload}: {reason}");
    }
    let file = record_path(workload, args.trace);
    if let Err(error) = std::fs::write(&file, record_json(workload, args, &report)) {
        eprintln!("benchmark: cannot write {}: {error}", file.display());
        written = false;
    }
    let correct = report.tally.failed == 0;
    println!("{}", result_line(correct, &report, catalog));
    if correct && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where a workload run leaves its full record.
fn record_path(workload: &str, trace: bool) -> PathBuf {
    out_dir().join(format!(
        "{workload}{}.json",
        if trace { ".trace" } else { "" }
    ))
}

fn print_metric(workload: &str, spec: &Spec, m: &Measured) {
    let (q1, _, q3) = m.quartiles();
    println!(
        "{workload} {} {} {} [{} {}] n={}",
        m.name,
        spec.unit,
        sig(m.value),
        sig(q1),
        sig(q3),
        m.n
    );
}

/// Six significant digits for the human-readable lines (the JSON keeps
/// every digit).
fn sig(value: f64) -> String {
    if value == 0.0 || !value.is_finite() {
        return format!("{value}");
    }
    let digits = (5 - value.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{value:.digits$}")
}

fn print_paper(paper: &harness::Paper) {
    println!(
        "{}: omnisim vs {} (median ms per design; the paper reports a {}x geomean)",
        paper.figure, paper.reference, paper.paper_geomean
    );
    for (design, omni_ms, ref_ms) in &paper.rows {
        println!(
            "  {design:<16} omnisim {omni_ms:>10.3} {:>10} {ref_ms:>10.3} speedup {:>8.3}x",
            paper.reference,
            ref_ms / omni_ms
        );
    }
    println!("  geomean speedup {:.3}x", paper.geomean_speedup());
}

/// Self time per span name inside the traced passes and set-ups, as a
/// share of their summed durations (`pass` and `setup` rows are the time
/// no layer span covers).
fn print_self_times(rec: &Recorder) {
    let mut totals = std::collections::BTreeMap::new();
    let mut all = 0;
    for root in ["setup", "pass"] {
        for (duration, names) in trace::self_time_per_root(rec.spans(), root) {
            all += duration;
            for (name, ns) in names {
                *totals.entry(name).or_insert(0) += ns;
            }
        }
    }
    println!("self time per layer (traced passes and set-ups):");
    let mut rows: Vec<_> = totals.into_iter().collect();
    rows.sort_by_key(|row| std::cmp::Reverse(row.1));
    for (name, ns) in rows {
        println!(
            "  {name:<24} {:>12.3} ms {:>7.2}%",
            ns as f64 / 1e6,
            stats::pct(ns as f64, all as f64)
        );
    }
}

/// A JSON object from `(key, value)` pairs, in order.
fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn text(s: &str) -> JsonValue {
    JsonValue::Str(s.to_owned())
}

/// The last line of a workload run, for machines: the run's catalog of
/// metrics and its correctness tally.
fn result_line(correct: bool, report: &Report, catalog: &[Spec]) -> String {
    let metrics = catalog
        .iter()
        .map(|spec| {
            let value = report.sheet.measured(spec.name).value;
            (
                spec.name.to_owned(),
                object(vec![
                    ("value", JsonValue::F64(value)),
                    ("unit", text(spec.unit)),
                ]),
            )
        })
        .collect();
    object(vec![
        ("correct", JsonValue::Bool(correct)),
        ("attempted", JsonValue::U64(report.tally.attempted.max(1))),
        ("failed", JsonValue::U64(report.tally.failed)),
        ("metrics", JsonValue::Object(metrics)),
    ])
    .render()
}

/// The full record of one workload run: every metric with its samples,
/// the failures and the paper table.
fn record_json(workload: &str, args: &Args, report: &Report) -> String {
    let tally = &report.tally;
    let metrics = report
        .sheet
        .metrics
        .iter()
        .map(|m| {
            let spec = spec(m.name).expect("sheets hold catalog metrics");
            let (q1, _, q3) = m.quartiles();
            (
                m.name.to_owned(),
                object(vec![
                    ("unit", text(spec.unit)),
                    ("better", text(spec.better.as_str())),
                    ("bound", spec.bound.map_or(JsonValue::Null, JsonValue::F64)),
                    ("value", JsonValue::F64(m.value)),
                    ("q1", JsonValue::F64(q1)),
                    ("q3", JsonValue::F64(q3)),
                    ("n", JsonValue::U64(m.n as u64)),
                    (
                        "samples",
                        JsonValue::Array(m.samples.iter().map(|&s| JsonValue::F64(s)).collect()),
                    ),
                ]),
            )
        })
        .collect();
    let mut fields = vec![
        ("workload", text(workload)),
        ("seed", JsonValue::U64(args.seed)),
        ("seconds", JsonValue::F64(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("correct", JsonValue::Bool(tally.failed == 0)),
        ("attempted", JsonValue::U64(tally.attempted)),
        ("failed", JsonValue::U64(tally.failed)),
        ("fail_ratio", JsonValue::F64(tally.fail_ratio())),
        (
            "failures",
            JsonValue::Array(tally.failures.iter().map(|f| text(f)).collect()),
        ),
        ("metrics", JsonValue::Object(metrics)),
    ];
    if let Some(paper) = &report.paper {
        let rows = paper
            .rows
            .iter()
            .map(|(design, omni_ms, ref_ms)| {
                object(vec![
                    ("design", text(design)),
                    ("omnisim_ms", JsonValue::F64(*omni_ms)),
                    ("reference_ms", JsonValue::F64(*ref_ms)),
                    ("speedup", JsonValue::F64(ref_ms / omni_ms)),
                ])
            })
            .collect();
        fields.push((
            "paper",
            object(vec![
                ("note", text("information only, no gate")),
                ("figure", text(paper.figure)),
                ("reference", text(paper.reference)),
                ("paper_geomean_speedup", JsonValue::F64(paper.paper_geomean)),
                ("geomean_speedup", JsonValue::F64(paper.geomean_speedup())),
                ("designs", JsonValue::Array(rows)),
            ]),
        ));
    }
    let mut out = object(fields).render();
    out.push('\n');
    out
}

/// Runs every workload in a child process and gathers their records into
/// `target/benchmark/results.json`.
fn run_suite(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("benchmark: cannot locate this binary: {error}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut records = Vec::new();
    for (workload, _) in WORKLOADS {
        let file = record_path(workload, args.trace);
        // A record left by an earlier run must not stand in for this one.
        let _ = std::fs::remove_file(&file);
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(&status, Ok(s) if s.success()) {
            eprintln!("benchmark: workload {workload} failed: {status:?}");
            ok = false;
        }
        let record = std::fs::read_to_string(&file)
            .map_err(|error| error.to_string())
            .and_then(|text| json::parse(&text).map_err(|error| error.to_string()));
        match record {
            Ok(record) => records.push((workload.to_owned(), record)),
            Err(error) => {
                eprintln!("benchmark: no record from {workload}: {error}");
                ok = false;
            }
        }
    }
    let mut results = object(vec![
        ("seed", JsonValue::U64(args.seed)),
        ("seconds", JsonValue::F64(args.seconds)),
        ("trace", JsonValue::Bool(args.trace)),
        ("workloads", JsonValue::Object(records)),
    ])
    .render();
    results.push('\n');
    let path = out_dir().join("results.json");
    match std::fs::write(&path, results) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => {
            eprintln!("benchmark: cannot write {}: {error}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug-build test run, big enough that every
    /// layer of every workload does real work.
    const SMALL: Sizes = Sizes {
        typebc: paper::Suite::TypeBC {
            n: 24,
            generated: 1,
        },
        typea: paper::Suite::TypeA {
            token_divisor: 1000,
        },
        dse: dse::Size {
            n: 24,
            points: 40,
            searches: 2,
        },
        served: served::Size {
            n: 16,
            small_batches: 2,
            small_runs: 4,
            large_batches: 1,
            large_runs: 12,
        },
    };

    fn run_small(workload: &str, trace: bool) -> Report {
        let budget = Budget {
            seconds: 0.0,
            min_passes: 2,
            setup_reps: 1,
        };
        let store_root = std::env::temp_dir().join(format!(
            "omnisim-benchmark-{}-{workload}-{trace}",
            std::process::id()
        ));
        let mut rec = Recorder::new(trace);
        let report = execute(workload, &SMALL, 3, &budget, &store_root, &mut rec);
        let _ = std::fs::remove_dir_all(&store_root);
        report
    }

    #[test]
    fn every_workload_emits_every_metric_finite_with_no_failures() {
        for (workload, _) in WORKLOADS {
            for (trace, catalog) in [(false, END_TO_END), (true, PER_LAYER)] {
                let report = run_small(workload, trace);
                assert_eq!(
                    report.tally.failures,
                    Vec::<String>::new(),
                    "{workload} (trace {trace}) failed"
                );
                assert!(report.tally.attempted > 0);
                for spec in catalog {
                    let m = report
                        .sheet
                        .get(spec.name)
                        .unwrap_or_else(|| panic!("{workload} lacks {}", spec.name));
                    assert!(
                        m.value.is_finite(),
                        "{workload} {} = {}",
                        spec.name,
                        m.value
                    );
                }
                if !trace {
                    for spec in END_TO_END {
                        let value = report.sheet.get(spec.name).expect("checked").value;
                        assert!(value > 0.0, "{workload} {} must never be 0", spec.name);
                    }
                }
            }
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_catalog() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let file = json::parse(text).expect("BENCHMARK.json parses");
        let list = |key: &str| file.get(key).and_then(JsonValue::as_array).expect(key);
        let field = |v: &JsonValue, k: &str| {
            v.get(k)
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_owned()
        };
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            list(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name"),
                        field(m, "unit"),
                        field(m, "better"),
                        m.get("bound").and_then(compare::as_f64),
                    )
                })
                .collect()
        };
        let expect = |catalog: &[Spec]| -> Vec<(String, String, String, Option<f64>)> {
            catalog
                .iter()
                .map(|s| {
                    (
                        s.name.to_owned(),
                        s.unit.to_owned(),
                        s.better.as_str().to_owned(),
                        s.bound,
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), expect(END_TO_END));
        assert_eq!(listed("per_layer"), expect(PER_LAYER));
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);
    }

    /// The `[profile.*]` tables of a manifest, comments and blank lines
    /// left out.
    fn profiles(manifest: &str) -> Vec<&str> {
        let mut inside = false;
        manifest
            .lines()
            .map(str::trim)
            .filter(|line| {
                if line.starts_with('[') {
                    inside = line.starts_with("[profile.");
                }
                inside && !line.is_empty() && !line.starts_with('#')
            })
            .collect()
    }

    #[test]
    fn builds_with_the_workspace_release_profile() {
        assert_eq!(
            profiles(include_str!("Cargo.toml")),
            profiles(include_str!("../../../../../Cargo.toml")),
            "the benchmark's own manifest must carry the workspace's profiles"
        );
    }

    #[test]
    fn arguments_are_checked_where_they_enter() {
        let parse = |line: &str| {
            parse_args(
                &line
                    .split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
        };
        let args = parse("--workload dse_sizing --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(args.workload.as_deref(), Some("dse_sizing"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, true));
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds -1",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse(bad).is_err(), "{bad} must be rejected");
        }
    }
}
