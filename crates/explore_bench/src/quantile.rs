//! Quantiles by rank over kept samples. Every latency the benchmark
//! reports is computed here from the raw samples of one run; no
//! histogram or bucketing is involved.

/// The nearest-rank `q`-quantile of `values` (`0 < q <= 1`): the
/// smallest value with at least `ceil(q * n)` values at or below it.
/// `None` for an empty slice.
pub fn by_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Kept latency samples of one operation kind, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples kept.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank quantile (see [`by_rank`]).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        by_rank(&self.0, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference: the element at 1-based rank `ceil(q n)` of a sorted copy,
    /// checked by counting instead of indexing.
    fn rank_property_holds(values: &[f64], q: f64, got: f64) -> bool {
        let need = (q * values.len() as f64).ceil().max(1.0) as usize;
        let at_or_below = values.iter().filter(|&&v| v <= got).count();
        let below = values.iter().filter(|&&v| v < got).count();
        at_or_below >= need && below < need
    }

    #[test]
    fn agrees_with_sorted_array_reference() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for n in 1..60 {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 1000) as f64 / 10.0
                })
                .collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let got = by_rank(&values, q).unwrap();
                assert!(rank_property_holds(&values, q, got), "n={n} q={q}");
                let idx = ((q * n as f64).ceil() as usize).max(1) - 1;
                assert_eq!(got, sorted[idx], "n={n} q={q}");
            }
        }
    }

    #[test]
    fn small_cases() {
        assert_eq!(by_rank(&[], 0.5), None);
        assert_eq!(by_rank(&[3.0], 0.9), Some(3.0));
        assert_eq!(by_rank(&[4.0, 1.0, 3.0, 2.0], 0.5), Some(2.0));
        assert_eq!(by_rank(&[4.0, 1.0, 3.0, 2.0], 1.0), Some(4.0));
        let mut s = Samples::default();
        for v in [5.0, 1.0, 9.0] {
            s.push(v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.quantile(0.5), Some(5.0));
    }
}
