//! Exact order statistics over recorded samples: every timing the
//! benchmark reports is a sample that was measured, selected from the
//! sorted list (nearest rank), never a histogram bucket or an average.

/// The `p`-th percentile (`0 < p <= 100`) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `p` percent of
/// the samples at or below it.  Empty input gives 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples.  The
/// guard keeps a product such as 99.9 % of 10 000, which is 9990 but
/// computes to 9990.000000000002, from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many samples lie strictly beyond the nearest-rank position of
/// percentile `p` among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The tail percentiles the benchmark knows how to name.
pub const TAILS: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest of [`TAILS`] that still has at least ten samples beyond
/// it: a percentile with fewer is the reading of a handful of outliers.
/// `None` when even the median has fewer than ten samples beyond it.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Lower decile, median, quartiles and count of one timing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub p10: f64,
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

impl Summary {
    /// What a repeated timing is reported by: its lower decile, the time
    /// of the calls the host left alone.  On a shared host a sample is
    /// the program's time plus whatever the hypervisor gave to other
    /// guests meanwhile: nothing for most samples, milliseconds for
    /// some, and how many it takes from changes with the hour.  That
    /// share decides the median and the quartiles, not the decile: runs
    /// of one binary read their batches' medians 1.2-5.7 % apart in a
    /// calm hour and 7-39 % in a busy one, their deciles 0.4-1.6 % (see
    /// README.md).  The median and the quartiles go to the table next
    /// to it.
    pub fn reading(&self) -> f64 {
        self.p10
    }
}

/// Sort ascending (NaN-free input) and return the slice's owner.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples.to_vec());
    Summary {
        p10: percentile(&s, 10.0),
        median: percentile(&s, 50.0),
        p25: percentile(&s, 25.0),
        p75: percentile(&s, 75.0),
        n: s.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// [`Summary::reading`] of `samples`.
pub fn typical(samples: &[f64]) -> f64 {
    summarize(samples).reading()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 3.0);
        assert_eq!(percentile(&v, 75.0), 8.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Odd count: the middle sample, exactly.
        assert_eq!(percentile(&[1.0, 2.0, 100.0], 50.0), 2.0);
    }

    #[test]
    fn summary_sorts_and_selects_quartiles() {
        let s = summarize(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0]);
        assert_eq!(
            s,
            Summary {
                p10: 1.0,
                median: 4.0,
                p25: 2.0,
                p75: 7.0,
                n: 8
            }
        );
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(typical(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0]), 1.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(typical(&v), 10.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(250_000), Some(99.99));
    }
}
