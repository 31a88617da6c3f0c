//! Small numeric helpers: percentiles with an honest tail, digests, a
//! seeded generator, and the metric-name rule.

/// Percentiles the tail ladder may report, in tenths, highest first.
const TAIL_LADDER: [usize; 4] = [990, 950, 900, 750];

/// Samples that must lie beyond a percentile before it may be reported.
const BEYOND: usize = 10;

/// The value at percentile `p` (0–100) of `sorted`, by linear
/// interpolation between closest ranks. `sorted` must be ascending and
/// non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Samples beyond the percentile `tenths / 10` out of `n`.
fn beyond(n: usize, tenths: usize) -> usize {
    n * (1000 - tenths) / 1000
}

/// The highest ladder percentile with at least ten samples beyond it, and
/// its value; `None` when even the lowest rung lacks them. p99 therefore
/// needs at least 1000 samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find(|&&t| beyond(sorted.len(), t) >= BEYOND)
        .map(|&t| {
            let p = t as f64 / 10.0;
            (p, percentile(sorted, p))
        })
}

/// A latency distribution summarized as the benchmark reports it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Samples the figures rest on.
    pub samples: usize,
    /// Median.
    pub p50: f64,
    /// Percentile the tail figure was taken at (50 when too few samples
    /// lie beyond every ladder rung: the tail then repeats the median).
    pub tail_pct: f64,
    /// Tail figure.
    pub tail: f64,
}

/// Median and tail of `values` (any order); `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 50.0);
    let (tail_pct, tail) = tail(&sorted).unwrap_or((50.0, p50));
    Some(Summary {
        samples: sorted.len(),
        p50,
        tail_pct,
        tail,
    })
}

/// Median of `values` (any order); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    summarize(values).map_or(0.0, |s| s.p50)
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// FNV-1a over a byte stream, for input and result digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` plus a separator into the digest.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own seeded generator for request streams
/// and per-input seeds.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed` and `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail(&ramp(2000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&ramp(100_000)).map(|t| t.0), Some(99.0));
        assert_eq!(tail(&ramp(200)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&ramp(100)).map(|t| t.0), Some(90.0));
        assert_eq!(tail(&ramp(40)).map(|t| t.0), Some(75.0));
        assert_eq!(tail(&ramp(39)), None);
    }

    #[test]
    fn p99_is_refused_below_1000_samples() {
        assert_eq!(tail(&ramp(999)).map(|t| t.0), Some(95.0));
        assert_eq!(tail(&ramp(1000)).map(|t| t.0), Some(99.0));
    }

    #[test]
    fn summary_falls_back_to_the_median() {
        let s = summarize(&[3.0, 1.0, 2.0]).expect("samples");
        assert_eq!((s.samples, s.p50, s.tail_pct, s.tail), (3, 2.0, 50.0, 2.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.5);
        assert_eq!(percentile(&ramp(101), 99.0), 100.0);
    }

    #[test]
    fn metric_names_follow_the_rule() {
        for ok in ["setup_s", "core.p3_us", "hit_p99_ms", "9x", "a-b"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn rng_is_a_function_of_seed_and_salt() {
        let draw = |seed, salt| {
            let mut r = Rng::new(seed, salt);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 2), draw(1, 2));
        assert_ne!(draw(1, 2), draw(2, 2));
        assert_ne!(draw(1, 2), draw(1, 3));
    }
}
