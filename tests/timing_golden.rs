//! Golden timing pins for the cycle-stepped reference simulator.
//!
//! `omnisim` and `rtl` walk the IR through the same executor, so the
//! `omnisim == rtl` oracle cannot catch a slip in the shared call contract
//! or initiation-interval arithmetic: both sides would inherit it. These
//! values were recorded when the two backends still walked the IR with
//! independent code, and pin `rtl`'s outcome kind, total cycle count and
//! outputs on every Table 4 design and on the first seeds of every
//! generator preset.
//!
//! On a mismatch the test prints the whole table as measured, in the
//! format of [`GOLDEN`], so a deliberate timing-model change can be
//! reviewed as one diff.

use omnisim_suite::designs::table4_designs_with_n;
use omnisim_suite::gen::{generate, DiffConfig, GenConfig};
use omnisim_suite::ir::Design;
use omnisim_suite::rtlsim::{RtlConfig, RtlOutcome, RtlSimulator};
use std::fmt::Write as _;

/// Element count of the Table 4 designs.
const TABLE4_N: i64 = 64;

/// Seeds pinned per generator preset.
const SEEDS: u64 = 9;

/// One pinned run: design label, outcome kind, total cycles, outputs.
type Pin = (
    &'static str,
    &'static str,
    u64,
    &'static [(&'static str, i64)],
);

fn pinned_designs() -> Vec<(String, Design)> {
    let mut designs: Vec<(String, Design)> = table4_designs_with_n(TABLE4_N)
        .into_iter()
        .map(|bench| (bench.name.to_owned(), bench.design))
        .collect();
    for preset in GenConfig::PRESET_NAMES {
        let cfg = GenConfig::preset(preset).expect("preset exists");
        for seed in 0..SEEDS {
            designs.push((format!("{preset}/{seed}"), generate(&cfg, seed).design));
        }
    }
    designs
}

fn kind(outcome: &RtlOutcome) -> &'static str {
    match outcome {
        RtlOutcome::Completed => "completed",
        RtlOutcome::Deadlock { .. } => "deadlock",
        RtlOutcome::CycleLimit { .. } => "cycle_limit",
    }
}

#[test]
fn reference_timing_matches_the_golden_pins() {
    let config = RtlConfig {
        max_cycles: DiffConfig::default().rtl_max_cycles,
    };
    let mut measured = String::new();
    let mut mismatches = Vec::new();
    let designs = pinned_designs();
    for (index, (label, design)) in designs.iter().enumerate() {
        let report = RtlSimulator::with_config(design, config)
            .run()
            .unwrap_or_else(|e| panic!("{label}: rtl failed: {e}"));
        let got: Vec<(&str, i64)> = report
            .outputs
            .iter()
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        let got_kind = kind(&report.outcome);
        let matches = GOLDEN
            .get(index)
            .is_some_and(|&(name, outcome, cycles, outputs)| {
                name == label
                    && outcome == got_kind
                    && cycles == report.total_cycles
                    && outputs == got
            });
        if !matches {
            mismatches.push(label.clone());
        }
        let outputs: Vec<String> = got.iter().map(|(k, v)| format!("({k:?}, {v})")).collect();
        writeln!(
            measured,
            "    ({label:?}, {got_kind:?}, {}, &[{}]),",
            report.total_cycles,
            outputs.join(", ")
        )
        .unwrap();
    }
    assert!(
        mismatches.is_empty() && designs.len() == GOLDEN.len(),
        "rtl diverges from the golden pins on {mismatches:?}; measured:\n{measured}"
    );
}

#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    ("fig4_ex2", "completed", 71, &[("sum_out", 2080)]),
    ("fig4_ex3", "completed", 197, &[("sum", 4160)]),
    ("fig4_ex4a", "completed", 133, &[("sum_out", 1024)]),
    ("fig4_ex4a_d", "completed", 135, &[("sum_out", 4096)]),
    ("fig4_ex4b", "completed", 133, &[("dropped", 32), ("sum_out", 1055)]),
    ("fig4_ex4b_d", "completed", 135, &[("dropped", 66), ("sum_out", 4096)]),
    ("fig4_ex5", "completed", 211, &[("processed_by_p1", 40), ("processed_by_p2", 24), ("sum_out_p1", 1252), ("sum_out_p2", 828)]),
    ("fig2_timer", "completed", 74, &[("compute_result", 1040), ("timer_cycles", 69)]),
    ("deadlock", "deadlock", 12, &[("bystander", 28)]),
    ("branch", "completed", 1485, &[("executed", 66), ("fetched", 706)]),
    ("multicore", "completed", 35, &[("total_executed", 2), ("total_fetched", 64)]),
    ("a/0", "completed", 35, &[("t0_acc", 720), ("t1_acc", 25642)]),
    ("a/1", "completed", 78, &[("t0_acc", 854), ("t1_acc", 30521)]),
    ("a/2", "completed", 36, &[("t0_acc", 65), ("t1_acc", 550), ("t2_acc", 1664), ("t3_acc", 796), ("t4_acc", 4698), ("t5_acc", 24488)]),
    ("a/3", "completed", 19, &[("t0_acc", 12), ("t1_acc", 66), ("t2_acc", 55), ("t3_acc", 57), ("t4_acc", 557), ("t5_acc", 395)]),
    ("a/4", "completed", 49, &[("t0_acc", 255), ("t1_acc", 4179), ("t2_acc", 34996)]),
    ("a/5", "completed", 65, &[("t0_acc", 1017), ("t1_acc", 26795), ("t2_acc", 489255), ("t3_acc", 344126)]),
    ("a/6", "completed", 50, &[("t0_acc", 760), ("t1_acc", 20590)]),
    ("a/7", "completed", 49, &[("t0_acc", 727), ("t1_acc", 8769), ("t2_acc", 4440)]),
    ("a/8", "completed", 47, &[("t0_acc", 328), ("t1_acc", 3412), ("t2_acc", 15439), ("t3_acc", 6868)]),
    ("b/0", "completed", 393, &[("t0_acc", 1363), ("t1_acc", 37033277612846310), ("t2_acc", 4699250246444655), ("t3_acc", 17411916789645205), ("t4_acc", -5211866583216687821), ("t5_acc", -3758480150141205)]),
    ("b/1", "completed", 254, &[("t0_acc", 553647933), ("t1_acc", 50683970190), ("t2_acc", 2716061064405), ("t3_acc", 5326185797040), ("t4_acc", 1678456501016)]),
    ("b/2", "completed", 33, &[("t0_acc", 1083451232), ("t1_acc", 487000208)]),
    ("b/3", "completed", 18, &[("t0_acc", 6), ("t1_acc", 25), ("t2_acc", 134), ("t3_acc", 263)]),
    ("b/4", "completed", 75, &[("t0_acc", 727), ("t1_acc", 263759698), ("t2_acc", 2261918374252499), ("t3_acc", 2054561334786068)]),
    ("b/5", "completed", 62, &[("t0_acc", 95078349279), ("t1_acc", 69602182358), ("t2_acc", 104403273508)]),
    ("b/6", "completed", 97, &[("t0_acc", 200), ("t1_acc", 430375009443), ("t2_acc", 1647659353361), ("t3_acc", 1291125022889), ("t4_acc", 4675577295345), ("t5_acc", 89133588293)]),
    ("b/7", "deadlock", 20, &[]),
    ("b/8", "completed", 46, &[("t0_acc", 3623321678935), ("t1_acc", 3163099483656), ("t2_acc", 1054366494602)]),
    ("c/0", "completed", 352, &[("t0_acc", 1363), ("t1_acc", 410364239204), ("t2_acc", 169978433117), ("t3_acc", 169978433145), ("t3_drops", 0), ("t4_acc", 24377943977548), ("t5_acc", 7366416703529)]),
    ("c/1", "completed", 298, &[("t0_acc", 503316288), ("t0_drops", 3), ("t1_acc", 2013261279), ("t2_acc", 3931178), ("t2_drops", 3), ("t3_acc", 12103032933), ("t4_acc", 7857910)]),
    ("c/2", "completed", 33, &[("t0_acc", 72), ("t0_drops", 1), ("t1_acc", 1556)]),
    ("c/3", "completed", 14, &[("t0_acc", 6), ("t0_drops", 0), ("t1_acc", 7), ("t2_acc", 80), ("t3_acc", 131)]),
    ("c/4", "completed", 49, &[("t0_acc", 727), ("t0_drops", 3), ("t1_acc", 394), ("t2_acc", 13154), ("t3_acc", 426304)]),
    ("c/5", "completed", 61, &[("t0_acc", 95078349279), ("t0_drops", 0), ("t1_acc", 69602182358), ("t2_acc", 9324924352)]),
    ("c/6", "completed", 133, &[("t0_acc", 200), ("t1_acc", 2423), ("t1_drops", 8), ("t2_acc", 343), ("t3_acc", 713), ("t3_drops", 7), ("t4_acc", 1054529), ("t5_acc", 10955)]),
    ("c/7", "deadlock", 20, &[]),
    ("c/8", "completed", 33, &[("t0_acc", 252), ("t1_acc", 8118), ("t2_acc", 1152)]),
    ("mixed/0", "completed", 325, &[("t0_acc", 576), ("t1_acc", 6681), ("t2_acc", 57435), ("t3_acc", 57463), ("t4_acc", 1096077359243), ("t5_acc", 331865505708)]),
    ("mixed/1", "completed", 311, &[("t0_acc", 503316288), ("t1_acc", 2013261279), ("t2_acc", 1006630802), ("t2_drops", 1), ("t3_acc", 176831880545), ("t4_acc", 31446633)]),
    ("mixed/2", "completed", 33, &[("t0_acc", 72), ("t1_acc", 1571)]),
    ("mixed/3", "completed", 34, &[("t0_acc", 6), ("t0_drops", 0), ("t1_acc", 7), ("t2_acc", 119), ("t3_acc", 788)]),
    ("mixed/4", "completed", 47, &[("t0_acc", 727), ("t1_acc", 13111), ("t2_acc", 3059), ("t3_acc", 121838)]),
    ("mixed/5", "completed", 62, &[("t0_acc", 477), ("t1_acc", 6620), ("t2_acc", 9901)]),
    ("mixed/6", "completed", 133, &[("t0_acc", 200), ("t1_acc", 2423), ("t1_drops", 8), ("t2_acc", 343), ("t3_acc", 713), ("t3_drops", 7), ("t4_acc", 1054529), ("t5_acc", 10955)]),
    ("mixed/7", "deadlock", 20, &[]),
    ("mixed/8", "completed", 111, &[("t0_acc", 252), ("t1_acc", 8118), ("t2_acc", 2756)]),
    ("axi/0", "completed", 70, &[("t0_acc", 1363), ("t1_acc", 15774), ("t2_acc", 142944), ("t3_acc", 15820), ("t4_acc", 4392635)]),
    ("axi/1", "completed", 185, &[("t0_acc", 1901), ("t1_acc", 34904), ("t2_acc", 228590), ("t3_acc", 3574986)]),
    ("axi/2", "completed", 31, &[("t0_acc", 537)]),
    ("axi/3", "completed", 83, &[("t0_acc", 3540), ("t1_acc", 83707), ("t2_acc", 4739495)]),
    ("axi/4", "completed", 158, &[("t0_acc", 1371), ("t1_acc", 34291), ("t2_acc", 610649)]),
    ("axi/5", "completed", 62, &[("t0_acc", 1368), ("t1_acc", 47067)]),
    ("axi/6", "completed", 79, &[("t0_acc", 1371), ("t1_acc", 31618), ("t2_acc", 611307), ("t3_acc", 12640192), ("t4_acc", 47508)]),
    ("axi/7", "completed", 43, &[("t0_acc", 2453)]),
    ("axi/8", "completed", 37, &[("t0_acc", 2452), ("t1_acc", 104460)]),
    ("calls/0", "completed", 490, &[("t0_acc", 1020), ("t1_acc", 11253), ("t2_acc", 97113), ("t3_acc", 7086849846), ("t4_acc", 1451517550007), ("t5_acc", 4891011472296)]),
    ("calls/1", "completed", 215, &[("t0_acc", 483), ("t1_acc", 22017549), ("t2_acc", 3827), ("t3_acc", 2211433929), ("t4_acc", 22164)]),
    ("calls/2", "completed", 176, &[("t0_acc", 184223), ("t1_acc", 1471480)]),
    ("calls/3", "completed", 131, &[("t0_acc", 12713), ("t1_acc", 50341), ("t2_acc", 221522), ("t3_acc", 588859)]),
    ("calls/4", "completed", 329, &[("t0_acc", 38282253), ("t1_acc", 229686151), ("t2_acc", 4043117266), ("t3_acc", 68871443737)]),
    ("calls/5", "completed", 236, &[("t0_acc", 294805), ("t1_acc", 437491539), ("t2_acc", 13305825110)]),
    ("calls/6", "completed", 182, &[("t0_acc", 29621), ("t1_acc", 1090793), ("t2_acc", 11402678), ("t3_acc", 264328867), ("t4_acc", 21560929594), ("t5_acc", 1945849)]),
    ("calls/7", "completed", 461, &[("t0_acc", 452984640), ("t1_acc", 1809608363758)]),
    ("calls/8", "completed", 136, &[("t0_acc", 59291), ("t1_acc", 708457), ("t2_acc", 236407)]),
    ("multirate/0", "completed", 96, &[("t0_acc", 576), ("t1_acc", 5901), ("t2_acc", 48039), ("t3_acc", 48067), ("t4_acc", 1101380), ("t5_acc", 7202436)]),
    ("multirate/1", "completed", 67, &[("t0_acc", 538), ("t1_acc", 7964), ("t2_acc", 4087), ("t3_acc", 203328), ("t4_acc", 23341)]),
    ("multirate/2", "completed", 38, &[("t0_acc", 578), ("t1_acc", 13526)]),
    ("multirate/3", "completed", 43, &[("t0_acc", 1131), ("t1_acc", 69549), ("t2_acc", 1715822), ("t3_acc", 33451560)]),
    ("multirate/4", "completed", 121, &[("t0_acc", 584), ("t1_acc", 6085), ("t2_acc", 94865), ("t3_acc", 2330693)]),
    ("multirate/5", "completed", 64, &[("t0_acc", 1391), ("t1_acc", 118140), ("t2_acc", 10551920)]),
    ("multirate/6", "deadlock", 13, &[]),
    ("multirate/7", "completed", 61, &[("t0_acc", 855), ("t1_acc", 78235)]),
    ("multirate/8", "completed", 109, &[("t0_acc", 854), ("t1_acc", 58596), ("t2_acc", 480962)]),
];
