//! Order statistics and the two reporting rules of the benchmark: the
//! tail percentile a sample supports, and the rate-ladder rule behind
//! `max_rps`.

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
/// An empty slice has no quantile: `NaN`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Mean of the middle of a sample: the lowest and highest fifth (rounded
/// down) are dropped. Per-round figures of this benchmark are often
/// bimodal — a fresh process lands on a fast or a slow core, or draws a
/// different autotuner choice — and a median then jumps between the modes
/// from run to run, while this mean moves by the share of rounds in each.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 5;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return f64::NAN;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The highest percentile (in percent, rounded down to a tenth) that
/// leaves at least ten of `n` samples beyond it, or `None` when the
/// sample is too small to support any tail beyond its median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    let p = (1.0 - 10.0 / n as f64) * 100.0;
    Some((p * 10.0 + 1e-9).floor() / 10.0)
}

/// A timing series reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile (interpolated; rule-backed only from 1000 samples).
    pub p99: f64,
    /// The tail percentile the sample supports, see [`tail_percentile`].
    pub tail_pct: Option<f64>,
    /// The value at `tail_pct`.
    pub tail: Option<f64>,
}

/// Summarize an unsorted series.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let tail_pct = tail_percentile(v.len());
    Summary {
        n: v.len(),
        p50: quantile(&v, 0.5),
        p99: quantile(&v, 0.99),
        tail_pct,
        tail: tail_pct.map(|p| quantile(&v, p / 100.0)),
    }
}

/// Whether an open-loop generator fell progressively further behind its
/// schedule: the median lateness of the last fifth of the requests (in
/// due order) exceeds that of the first fifth by more than half the
/// latency limit. A system that keeps up shows flat lateness; one that
/// cannot shows lateness growing with time.
pub fn lateness_growing(lateness_ms: &[f64], limit_ms: f64) -> bool {
    let fifth = lateness_ms.len() / 5;
    if fifth == 0 {
        return false;
    }
    let first = median(&lateness_ms[..fifth]);
    let last = median(&lateness_ms[lateness_ms.len() - fifth..]);
    last - first > limit_ms / 2.0
}

/// One rung of the rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, operations per second.
    pub rate: f64,
    /// Operations that failed, were refused or returned wrong outputs.
    pub failed: u64,
    /// Latency p99 from the due time, ms.
    pub p99_ms: f64,
    /// Whether the generator's lateness grew during the rung.
    pub growing: bool,
}

impl Rung {
    /// A rung passes with no failures, a p99 within the limit and a
    /// backlog that does not grow.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.failed == 0 && self.p99_ms <= limit_ms && !self.growing
    }
}

/// The `max_rps` rule: walking the ladder upwards, the highest rate
/// reached before the first rung that fails. `None` when the lowest
/// rung already fails.
pub fn ladder_max(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    let mut best = None;
    let mut sorted = rungs.to_vec();
    sorted.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    for r in &sorted {
        if !r.passes(limit_ms) {
            break;
        }
        best = Some(r.rate);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[1.0, 3.0], 0.5), 2.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn trimmed_mean_drops_the_outer_fifths() {
        assert_eq!(trimmed_mean(&[100.0, 1.0, 2.0, 3.0, 4.0]), 3.0);
        let ten = [9.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, -9.0];
        assert_eq!(trimmed_mean(&ten), 1.5);
        assert_eq!(trimmed_mean(&[7.0]), 7.0);
        assert!(trimmed_mean(&[]).is_nan());
        // Between two modes the median jumps with one round; the trimmed
        // mean moves by a tenth of the gap.
        let four_fast = [15.0, 15.0, 15.0, 15.0, 22.0, 22.0, 22.0, 22.0, 22.0, 22.0];
        let six_fast = [15.0, 15.0, 15.0, 15.0, 15.0, 15.0, 22.0, 22.0, 22.0, 22.0];
        assert_eq!(median(&four_fast) - median(&six_fast), 7.0);
        assert!(trimmed_mean(&four_fast) - trimmed_mean(&six_fast) < 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(300), Some(96.6));
        // On every size, the samples strictly above the chosen rank are
        // at least ten.
        for n in 20..3000 {
            let p = tail_percentile(n).unwrap() / 100.0;
            let beyond = n - 1 - (p * (n - 1) as f64).floor() as usize;
            assert!(beyond >= 10, "n={n} p={p} beyond={beyond}");
        }
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.n, 200);
        assert_eq!(s.tail_pct, Some(95.0));
        assert!((s.p50 - 100.5).abs() < 1e-9);
        assert!((s.tail.unwrap() - quantile(&v, 0.95)).abs() < 1e-9);
        assert_eq!(summarize(&[1.0; 5]).tail, None);
    }

    #[test]
    fn lateness_growth_separates_backlog_from_jitter() {
        let flat: Vec<f64> = (0..500).map(|i| 0.1 + (i % 7) as f64 * 0.05).collect();
        assert!(!lateness_growing(&flat, 5.0));
        let backlog: Vec<f64> = (0..500).map(|i| i as f64 * 0.05).collect();
        assert!(lateness_growing(&backlog, 5.0));
        assert!(!lateness_growing(&[100.0; 3], 5.0));
    }

    #[test]
    fn ladder_takes_the_highest_rung_before_the_first_failure() {
        let rung = |rate, failed, p99_ms, growing| Rung {
            rate,
            failed,
            p99_ms,
            growing,
        };
        let rungs = [
            rung(500.0, 0, 2.0, false),
            rung(250.0, 0, 1.0, false),
            rung(1000.0, 0, 4.0, false),
            rung(1500.0, 0, 9.0, false),
            // A later rung that passes again does not count.
            rung(2000.0, 0, 3.0, false),
        ];
        assert_eq!(ladder_max(&rungs, 5.0), Some(1000.0));
        assert_eq!(ladder_max(&rungs, 10.0), Some(2000.0));
        let refused = [rung(250.0, 0, 1.0, false), rung(500.0, 1, 1.0, false)];
        assert_eq!(ladder_max(&refused, 5.0), Some(250.0));
        let backlog = [rung(250.0, 0, 1.0, false), rung(500.0, 0, 1.0, true)];
        assert_eq!(ladder_max(&backlog, 5.0), Some(250.0));
        assert_eq!(ladder_max(&[rung(250.0, 0, 6.0, false)], 5.0), None);
    }
}
