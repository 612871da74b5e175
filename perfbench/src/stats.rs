//! Percentiles with sample-count discipline.
//!
//! Percentiles use the nearest-rank definition on integer per-mille
//! levels, so the rank never depends on floating-point rounding. A tail is
//! only ever reported at a level with at least [`MIN_BEYOND`] samples
//! strictly above its rank; a run too short for that has no tail.

/// Samples a tail percentile needs beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail levels in per mille, highest first. The median is not a
/// candidate: a run that cannot support a tail above p50 reports none.
const TAIL_LEVELS: [u32; 8] = [999, 995, 990, 980, 950, 900, 800, 750];

/// One percentile read off a sorted sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// Level in per mille (500 = p50).
    pub per_mille: u32,
    /// The sample at that rank.
    pub value: f64,
    /// Samples strictly above the rank.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

impl Percentile {
    /// `p50`, `p99`, `p99.9`, ...
    pub fn label(&self) -> String {
        if self.per_mille.is_multiple_of(10) {
            format!("p{}", self.per_mille / 10)
        } else {
            format!("p{}.{}", self.per_mille / 10, self.per_mille % 10)
        }
    }
}

/// Nearest-rank percentile of an ascending sample: rank
/// `ceil(per_mille * n / 1000)`, 1-based. `None` for an empty sample.
pub fn percentile(sorted: &[f64], per_mille: u32) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (per_mille as usize * n).div_ceil(1000).clamp(1, n);
    Some(Percentile {
        per_mille,
        value: sorted[rank - 1],
        beyond: n - rank,
        count: n,
    })
}

/// The highest candidate tail level with at least [`MIN_BEYOND`] samples
/// beyond it; `None` when even p75 lacks them.
pub fn tail(sorted: &[f64]) -> Option<Percentile> {
    TAIL_LEVELS
        .iter()
        .filter_map(|&pm| percentile(sorted, pm))
        .find(|p| p.beyond >= MIN_BEYOND)
}

/// Sorts a sample ascending (NaN-free input; infinities sort last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_uses_integer_arithmetic() {
        // 0.99 * 1200 is 1188.0000000000002 in floating point; the rank
        // must still be 1188.
        let p = percentile(&ramp(1200), 990).unwrap();
        assert_eq!((p.value, p.beyond), (1188.0, 12));
        let p50 = percentile(&ramp(140), 500).unwrap();
        assert_eq!((p50.value, p50.beyond, p50.count), (70.0, 70, 140));
        assert_eq!(percentile(&ramp(1), 999).unwrap().value, 1.0);
        assert!(percentile(&[], 500).is_none());
    }

    #[test]
    fn tail_is_highest_level_with_ten_beyond() {
        let t = tail(&ramp(140)).unwrap();
        assert_eq!((t.per_mille, t.value, t.beyond), (900, 126.0, 14));
        assert_eq!(t.label(), "p90");
        let t = tail(&ramp(1200)).unwrap();
        assert_eq!((t.label().as_str(), t.beyond), ("p99", 12));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.label().as_str(), t.beyond), ("p99.9", 10));
        // Exactly at the boundary: p95 of 200 leaves 10 beyond.
        assert_eq!(tail(&ramp(200)).unwrap().per_mille, 950);
    }

    #[test]
    fn tail_refused_rather_than_falling_back_to_median() {
        // 39 samples: p75 has rank 30 and only 9 beyond.
        assert!(tail(&ramp(39)).is_none());
        assert_eq!(tail(&ramp(40)).unwrap().per_mille, 750);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
