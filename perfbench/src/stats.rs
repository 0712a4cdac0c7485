//! The benchmark's own arithmetic: medians, percentiles that refuse to
//! report a tail they have too few samples for, and the
//! attempted/failed accounting behind `failed_frac`.

/// Samples a percentile must have strictly beyond it before it is
/// reported: a p90 is only meaningful with at least ten slower samples.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0.0..=1.0`) of `samples`.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// the chosen rank, so a p90 needs at least 100 samples and a p50 at
/// least 20.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    // Nearest rank: the smallest rank r (1-based) with r / n >= q.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle values for an even count), or
/// `None` for no samples. Used for small repeated measurements such as
/// set-up time, where no tail is reported.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Operations attempted and failed in one run. An operation is one
/// timed slot or one simulated chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts `n` operations that completed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` operations that returned an error.
    pub fn err(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Closes the run: when its correctness check failed, every
    /// operation it attempted counts as failed.
    #[must_use]
    pub fn settle(self, correct: bool) -> Tally {
        Tally {
            attempted: self.attempted,
            failed: if correct { self.failed } else { self.attempted },
        }
    }

    /// Operations attempted.
    #[must_use]
    pub fn attempted(self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    #[must_use]
    pub fn failed(self) -> u64 {
        self.failed
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    #[must_use]
    pub fn failed_frac(self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Descending, so the helper must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(101), 0.9), Some(91.0));
    }

    #[test]
    fn p50_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn percentile_rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(200), 1.5), None);
        // p100 never has samples beyond it.
        assert_eq!(percentile(&ramp(200), 1.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failed_frac_counts_errors_against_attempts() {
        let mut tally = Tally::default();
        tally.ok(30);
        tally.err(10);
        let settled = tally.settle(true);
        assert_eq!((settled.attempted(), settled.failed()), (40, 10));
        assert_eq!(settled.failed_frac(), 0.25);
    }

    #[test]
    fn a_failed_check_fails_every_attempt() {
        let mut tally = Tally::default();
        tally.ok(7);
        tally.err(1);
        let settled = tally.settle(false);
        assert_eq!((settled.attempted(), settled.failed()), (8, 8));
        assert_eq!(settled.failed_frac(), 1.0);
    }

    #[test]
    fn nothing_attempted_is_not_a_failure() {
        assert_eq!(Tally::default().settle(true).failed_frac(), 0.0);
    }
}
