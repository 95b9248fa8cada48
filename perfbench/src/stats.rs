//! Sample summaries and operation accounting shared by every workload.

/// Percentiles tried, highest first, when reporting a latency tail.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`; `None` when
/// there are no samples. NaN samples sort last.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    rank(sorted.len(), p).map(|r| sorted[r - 1])
}

/// Median of `samples`: the mean of the two middle values for an even
/// count, so small samples are not biased low.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A reported latency tail: the highest percentile that still has at
/// least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 90.0.
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub count: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond its nearest rank; `None` below 20
/// samples, where not even the median has ten beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let r = rank(n, pct)?;
        let beyond = n - r;
        (beyond >= MIN_BEYOND).then(|| Tail {
            pct,
            value: s[r - 1],
            count: n,
            beyond,
        })
    })
}

/// Nearest rank (1-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // the epsilon keeps p·n/100 that is integral in exact arithmetic
    // from rounding up a rank
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    Some(r.clamp(1, n))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Operations attempted and failed in one run. An output check that does
/// not hold counts as a failed operation, so `failed == 0` is the run's
/// correctness verdict.
#[derive(Debug, Default)]
pub struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one operation whose outcome is `ok`; a failure is logged to
    /// stderr with `what`.
    pub fn record(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
        ok
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed or whose output check did not hold.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// True when at least one operation ran and none failed.
    pub fn all_ok(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // shuffled 1..=n so the helpers must sort
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 90.0), Some(90.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0], 90.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).expect("20 samples resolve the median");
        assert_eq!((t.pct, t.value, t.count, t.beyond), (50.0, 10.0, 20, 10));
        let t = tail(&ramp(99)).expect("99 samples");
        assert_eq!((t.pct, t.beyond), (75.0, 24));
        let t = tail(&ramp(100)).expect("100 samples");
        assert_eq!((t.pct, t.value, t.count, t.beyond), (90.0, 90.0, 100, 10));
        let t = tail(&ramp(200)).expect("200 samples");
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));
        let t = tail(&ramp(1000)).expect("1000 samples");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&ramp(10_000)).expect("10k samples");
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
    }

    #[test]
    fn failures_are_counted_against_attempts() {
        let mut ops = Ops::default();
        assert!(!ops.all_ok(), "no operation is not a pass");
        assert!(ops.record(true, "first"));
        assert!(ops.all_ok());
        assert!(!ops.record(false, "second"));
        assert!(ops.record(true, "third"));
        assert_eq!((ops.attempted(), ops.failed()), (3, 1));
        assert!(!ops.all_ok());
    }
}
