//! Quartiles, percentiles and the process counters read from `/proc`.

/// First quartile, median and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (its default "exclusive" method)
/// computes them; one sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    match n {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (data[0], data[0], data[0]),
        _ => {
            let m = n + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The value at percentile `p` (0–100) by linear interpolation between
/// closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => f64::NAN,
        1 => data[0],
        n => {
            let rank = p / 100.0 * (n - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            data[lo] + (data[hi] - data[lo]) * (rank - lo as f64)
        }
    }
}

/// `part / whole` in percent, 0 when nothing was measured.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// User and system CPU time this process (all its threads) has used so
/// far, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads `utime` and `stime` from `/proc/self/stat` (in clock ticks of
    /// the kernel's fixed 100 Hz `USER_HZ`); zero where `/proc` is absent.
    pub fn now() -> CpuTimes {
        const USER_HZ: f64 = 100.0;
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The command name may contain spaces; the fields after it do not.
        let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        // `rest` starts at field 3 (state); utime is field 14, stime 15.
        CpuTimes {
            user_s: ticks(11) / USER_HZ,
            sys_s: ticks(12) / USER_HZ,
        }
    }

    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 9], n=4) == [-1.0, 5.0, 11.0]
        assert_eq!(quartiles(&[1.0, 9.0]), (-1.0, 5.0, 11.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let values: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&values, 50.0), 6.0);
        assert_eq!(percentile(&values, 90.0), 10.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }
}
