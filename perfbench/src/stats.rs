//! Sample collection and order statistics computed from the benchmark's
//! own samples (never from the library's in-region histograms).

/// A bounded sample buffer that stays unbiased in time.
///
/// Every value is kept until the buffer holds `cap` samples; then every
/// other stored sample is discarded and from there on only every
/// `stride`-th offered value is kept, the stride doubling at each
/// further fill.  Memory stays at `cap` values however long a run is,
/// and the kept samples still cover the whole run evenly.
#[derive(Debug, Clone)]
pub struct Sampler {
    vals: Vec<u64>,
    cap: usize,
    stride: u64,
    offered: u64,
}

impl Sampler {
    /// Default capacity: one million samples (8 MB).
    pub const DEFAULT_CAP: usize = 1 << 20;

    pub fn new(cap: usize) -> Self {
        assert!(cap >= 2, "sampler capacity must be at least 2");
        Sampler {
            vals: Vec::new(),
            cap,
            stride: 1,
            offered: 0,
        }
    }

    pub fn push(&mut self, v: u64) {
        let keep = self.offered.is_multiple_of(self.stride);
        self.offered += 1;
        if !keep {
            return;
        }
        if self.vals.len() == self.cap {
            let mut i = 0;
            self.vals.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
            // The value in hand was offered at a position the new stride
            // may skip; keep the thinning exact by re-checking it.
            if !(self.offered - 1).is_multiple_of(self.stride) {
                return;
            }
        }
        self.vals.push(v);
    }

    pub fn values(&self) -> &[u64] {
        &self.vals
    }

    /// Appends another sampler's kept values (used to merge threads).
    pub fn absorb(&mut self, other: &Sampler) {
        for &v in &other.vals {
            self.push(v);
        }
    }

    /// Order statistics of the kept values.
    pub fn summary(&self) -> Summary {
        Summary::of(self.vals.clone())
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAP)
    }
}

/// One percentile read from a sorted sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile's value (a sample, nearest-rank).
    pub value: u64,
    /// Samples in the set.
    pub n: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    sorted: Vec<u64>,
}

impl Summary {
    pub fn of(mut vals: Vec<u64>) -> Self {
        vals.sort_unstable();
        Summary { sorted: vals }
    }

    /// Nearest-rank percentile: the smallest sample with at least `p`
    /// percent of the set at or below it.  `None` on an empty set.
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        let value = self.sorted[rank.min(n) - 1];
        let beyond = n - self.sorted.partition_point(|&v| v <= value);
        Some(Percentile { value, n, beyond })
    }
}

/// Median of `vals` (mean of the middle pair for an even count).
pub fn median(vals: &[f64]) -> f64 {
    assert!(!vals.is_empty(), "median of an empty set");
    let mut v = vals.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact() {
        // 1..=100: p50 is 50, p99 is 99, p100 is 100, p0 clamps to 1.
        let s = Summary::of((1..=100).rev().collect());
        assert_eq!(
            s.percentile(50.0),
            Some(Percentile {
                value: 50,
                n: 100,
                beyond: 50
            })
        );
        assert_eq!(s.percentile(99.0).unwrap().value, 99);
        assert_eq!(s.percentile(99.0).unwrap().beyond, 1);
        assert_eq!(s.percentile(100.0).unwrap().value, 100);
        assert_eq!(s.percentile(0.0).unwrap().value, 1);
        // Ties: beyond counts strictly greater samples only.
        let t = Summary::of(vec![5, 1, 5, 5, 9]);
        assert_eq!(
            t.percentile(50.0),
            Some(Percentile {
                value: 5,
                n: 5,
                beyond: 1
            })
        );
        assert_eq!(Summary::of(vec![]).percentile(50.0), None);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sampler_thins_evenly_and_stays_bounded() {
        let mut s = Sampler::new(8);
        for v in 0..64 {
            s.push(v);
        }
        assert!(s.values().len() <= 8);
        // Kept values are evenly spaced across the whole run.
        assert_eq!(s.values(), &[0, 8, 16, 24, 32, 40, 48, 56]);
    }
}
