//! Summary statistics and process readings.

use std::fs;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_TAIL: usize = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, reported only
/// when at least [`MIN_TAIL`] samples lie strictly above its rank.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    // Nearest rank, 1-based: the smallest rank r with r / n >= q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || n - rank < MIN_TAIL {
        return None;
    }
    Some(s[rank - 1])
}

/// A latency distribution summarised as its sample count, median and
/// 90th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
}

impl Latency {
    /// Summarises `samples`.
    ///
    /// # Errors
    ///
    /// Fails when there are too few samples to report a 90th percentile,
    /// naming `what` so the run can be resized.
    pub fn of(samples: &[f64], what: &str) -> Result<Latency, String> {
        let n = samples.len();
        match (median(samples), tail_percentile(samples, 0.9)) {
            (Some(p50), Some(p90)) => Ok(Latency { n, p50, p90 }),
            _ => Err(format!(
                "{what}: {n} samples leave fewer than {MIN_TAIL} beyond the 90th percentile"
            )),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// User plus system CPU time of this process so far, in seconds.
///
/// # Errors
///
/// Fails when `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    // Linux reports utime/stime in USER_HZ ticks, fixed at 100 per second.
    const TICKS_PER_S: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn below_ten_samples_only_the_median_is_reported() {
        for n in 1..10 {
            let s = ramp(n);
            assert!(tail_percentile(&s, 0.9).is_none(), "n = {n}");
            assert!(tail_percentile(&s, 0.5).is_none(), "n = {n}");
            assert!(Latency::of(&s, "x").is_err());
        }
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn hundred_samples_report_p90_with_ten_beyond() {
        let s = ramp(100);
        assert_eq!(tail_percentile(&s, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&s, 0.91), None);
        assert_eq!(tail_percentile(&s, 0.99), None);
        let l = Latency::of(&s, "x").unwrap();
        assert_eq!((l.n, l.p50, l.p90), (100, 50.5, 90.0));
    }

    #[test]
    fn thousand_samples_report_p99_but_not_p999() {
        let s = ramp(1000);
        assert_eq!(tail_percentile(&s, 0.9), Some(900.0));
        assert_eq!(tail_percentile(&s, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&s, 0.999), None);
        assert_eq!(median(&s), Some(500.5));
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
