//! Cross-backend differential fuzzing CLI.
//!
//! Drives `omnisim-gen` over a seed range and reports every violated claim,
//! shrinking failures to minimal committable blueprints. A failing seed from
//! CI or the integration suite reproduces bit-identically here:
//!
//! ```text
//! cargo run --release -p omnisim-bench --bin fuzz -- --seed 17 --preset c
//! ```
//!
//! Options:
//!
//! * `--preset a|b|c|mixed|axi|calls|multirate|all` — generator preset
//!   (default `mixed`): the class presets target one taxonomy row, the
//!   dimension presets concentrate on AXI bursts, `Op::Call` chains or
//!   multi-rate/leftover dataflow, and `all` walks every preset (`--class`
//!   is an accepted alias),
//! * `--seeds N` / `--count N` — number of seeds to fuzz (default 1000),
//! * `--start S` — first seed (default 0),
//! * `--seed X` — fuzz exactly one seed (overrides the range),
//! * `--deadlocks P` — forced-deadlock probability in percent,
//! * `--min-depths` — also ground-truth the `min_depths` certificate with
//!   full re-simulations (the tightness oracle),
//! * `--analyze` / `--no-analyze` — force the static-analyzer soundness
//!   leg on/off (on by default: certificates and depth bounds are checked
//!   against the reference outcome and the `min_depths` certificate),
//! * `--no-shrink` — skip shrinking on failure,
//! * `--smoke` — CI preset: 120 seeds per preset, all presets.
//!
//! Exits non-zero if any seed fails.

use omnisim_gen::{
    check_seeded, fuzz_seed, shrink, CsimAgreement, DeadlockVerdict, DiffConfig, GenConfig,
};
use std::time::Instant;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn preset(name: &str) -> GenConfig {
    match GenConfig::preset(name) {
        Some(cfg) => cfg,
        None => {
            eprintln!(
                "unknown preset '{name}' (expected one of {} or all)",
                GenConfig::PRESET_NAMES.join(", ")
            );
            std::process::exit(2);
        }
    }
}

#[derive(Default)]
struct Tally {
    designs: usize,
    completed: usize,
    deadlocked: usize,
    csim_agreed: usize,
    csim_diverged: usize,
    csim_crashed: usize,
    dse_points: usize,
    min_depth_probes: usize,
    certified_free: usize,
    certified_deadlock: usize,
    analysis_unknown: usize,
    failures: usize,
}

fn fuzz_range(
    label: &str,
    cfg: &GenConfig,
    diff: &DiffConfig,
    seeds: impl Iterator<Item = u64>,
    shrink_failures: bool,
    tally: &mut Tally,
) {
    for seed in seeds {
        let (generated, report) = fuzz_seed(cfg, diff, seed);
        tally.designs += 1;
        if report.completed {
            tally.completed += 1;
        } else {
            tally.deadlocked += 1;
        }
        match report.csim {
            Some(CsimAgreement::Agreed) => tally.csim_agreed += 1,
            Some(CsimAgreement::Diverged) => tally.csim_diverged += 1,
            Some(CsimAgreement::Crashed) => tally.csim_crashed += 1,
            None => {}
        }
        tally.dse_points += report.dse_points_checked;
        tally.min_depth_probes += report.min_depths_probes;
        match report.analysis {
            Some(DeadlockVerdict::CertifiedFree) => tally.certified_free += 1,
            Some(DeadlockVerdict::CertifiedDeadlock) => tally.certified_deadlock += 1,
            Some(DeadlockVerdict::Unknown) => tally.analysis_unknown += 1,
            None => {}
        }
        if report.passed() {
            continue;
        }
        tally.failures += 1;
        println!(
            "\nFAIL preset {label} seed {seed} (design class {:?}):",
            generated.class
        );
        for failure in &report.failures {
            println!("  - {failure}");
        }
        println!(
            "  reproduce: cargo run --release -p omnisim-bench --bin fuzz -- \
             --seed {seed} --preset {label}"
        );
        if shrink_failures {
            let minimal = shrink(&generated.blueprint, |bp| {
                !check_seeded(&bp.lower(), diff, seed).passed()
            });
            let minimal_failures = check_seeded(&minimal.lower(), diff, seed).failures;
            println!("  minimized blueprint (failures {minimal_failures:?}):");
            println!("{minimal:#?}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let shrink_failures = !args.iter().any(|a| a == "--no-shrink");
    let start: u64 = arg_value(&args, "--start")
        .map(|v| v.parse().expect("--start takes a number"))
        .unwrap_or(0);
    let count: u64 = arg_value(&args, "--seeds")
        .or_else(|| arg_value(&args, "--count"))
        .map(|v| v.parse().expect("--seeds/--count take a number"))
        .unwrap_or(1000);
    let single: Option<u64> =
        arg_value(&args, "--seed").map(|v| v.parse().expect("--seed takes a number"));
    let deadlocks: Option<u32> =
        arg_value(&args, "--deadlocks").map(|v| v.parse().expect("--deadlocks takes a percent"));

    let mut diff = DiffConfig::default();
    if args.iter().any(|a| a == "--min-depths") {
        diff.min_depths_resim = true;
    }
    if args.iter().any(|a| a == "--analyze") {
        diff.analyze = true;
    }
    if args.iter().any(|a| a == "--no-analyze") {
        diff.analyze = false;
    }
    let mut tally = Tally::default();
    let started = Instant::now();

    let requested = arg_value(&args, "--preset").or_else(|| arg_value(&args, "--class"));
    let presets: Vec<String> = match requested.as_deref() {
        Some("all") => GenConfig::PRESET_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        Some(name) => vec![name.to_owned()],
        None if smoke => GenConfig::PRESET_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        None => vec!["mixed".into()],
    };
    let per_preset = if smoke { 120 } else { count };

    for name in &presets {
        let mut cfg = preset(name);
        if let Some(p) = deadlocks {
            cfg = cfg.with_deadlocks(p);
        }
        match single {
            Some(seed) => fuzz_range(name, &cfg, &diff, seed..=seed, shrink_failures, &mut tally),
            None => fuzz_range(
                name,
                &cfg,
                &diff,
                start..start + per_preset,
                shrink_failures,
                &mut tally,
            ),
        }
    }

    let elapsed = started.elapsed();
    let per_sec = tally.designs as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "\nfuzzed {} designs in {} ({per_sec:.0} designs/sec): \
         {} completed, {} deadlocked, {} DSE points, {} min-depth probes",
        tally.designs,
        omnisim_bench::secs(elapsed),
        tally.completed,
        tally.deadlocked,
        tally.dse_points,
        tally.min_depth_probes,
    );
    println!(
        "csim bookkeeping: {} agreed, {} diverged, {} crashed",
        tally.csim_agreed, tally.csim_diverged, tally.csim_crashed
    );
    if diff.analyze {
        println!(
            "analyzer verdicts: {} certified-free, {} certified-deadlock, {} unknown",
            tally.certified_free, tally.certified_deadlock, tally.analysis_unknown
        );
    }
    if tally.failures > 0 {
        println!("{} seed(s) FAILED", tally.failures);
        std::process::exit(1);
    }
    println!("all seeds passed");
}
