//! Sample statistics, seeded input generation and Prometheus scraping.

use std::collections::HashMap;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The tail of a latency sample: the nearest-rank p99, or — when the
/// sample is too small for p99 to have at least 10 samples beyond it —
/// the highest percentile that does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually reported, in (0, 99].
    pub percentile: f64,
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// [`Tail`] of `xs`; `None` when fewer than `TAIL_MIN_BEYOND + 1`
/// samples exist (no percentile has 10 samples beyond it).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank of p99 is ceil(0.99 n); index = rank - 1. Never let
    // fewer than TAIL_MIN_BEYOND samples sit above the index.
    let p99_index = (99 * n).div_ceil(100) - 1;
    let index = p99_index.min(n - 1 - TAIL_MIN_BEYOND);
    Some(Tail {
        value: v[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        samples: n,
    })
}

/// FNV-1a, 64-bit: the digest of response bodies, annotations and the
/// source tree.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

/// SplitMix64: a small, fully specified PRNG so the generated inputs
/// depend only on the seed, not on any library's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// `k` distinct indices from `0..n`, in draw order.
    pub fn distinct(&mut self, k: usize, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k.min(n) {
            let i = self.below(n);
            if !out.contains(&i) {
                out.push(i);
            }
        }
        out
    }
}

/// Poisson arrival offsets (seconds from the phase start) at `rate` per
/// second over `seconds`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 1);
    loop {
        // 1 - unit() is in (0, 1], so the log is finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A Prometheus text scrape: `name{labels}` → value.
#[derive(Debug, Clone, Default)]
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn parse(text: &str) -> Self {
        let mut map = HashMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(key.to_string(), v);
                }
            }
        }
        Self(map)
    }

    /// Series-wise sum of several scrapes (e.g. every shard's).
    pub fn sum(scrapes: impl IntoIterator<Item = Scrape>) -> Self {
        let mut map: HashMap<String, f64> = HashMap::new();
        for s in scrapes {
            for (k, v) in s.0 {
                *map.entry(k).or_default() += v;
            }
        }
        Self(map)
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `self - before` for one series.
    pub fn delta(&self, before: &Scrape, key: &str) -> f64 {
        self.get(key) - before.get(key)
    }

    /// Quantile `q` of the histogram `name` over the interval between
    /// `before` and `self`, interpolated linearly inside the bucket
    /// (the usual `histogram_quantile`). Cumulative bucket series are
    /// read in `bounds` order; the `+Inf` bucket is clamped to the last
    /// finite bound.
    pub fn histogram_quantile(&self, before: &Scrape, name: &str, bounds: &[f64], q: f64) -> f64 {
        let key = |le: &str| format!("{name}_bucket{{le=\"{le}\"}}");
        let total = self.delta(before, &key("+Inf"));
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let mut prev_count = 0.0;
        let mut prev_bound = 0.0;
        for &ub in bounds {
            let count = self.delta(before, &key(&ub.to_string()));
            if count >= rank {
                let in_bucket = count - prev_count;
                let frac = if in_bucket > 0.0 {
                    (rank - prev_count) / in_bucket
                } else {
                    1.0
                };
                return prev_bound + frac * (ub - prev_bound);
            }
            prev_count = count;
            prev_bound = ub;
        }
        prev_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_when_the_sample_supports_it() {
        // 1..=2000: nearest-rank p99 is the 1980th value, 20 beyond.
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is index 989, exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        // 999 samples: p99 would leave 9 beyond; fall back to the
        // 989th value (index 988), which leaves 10.
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 989.0);
        assert!((t.percentile - 100.0 * 989.0 / 999.0).abs() < 1e-12);
        // 100 samples: the 90th value, 10 beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        // 11 samples: the smallest sample is the only choice.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 1.0);
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn schedule_is_deterministic_in_the_seed() {
        let a = poisson_schedule(&mut Rng::new(7, 0), 500.0, 2.0);
        let b = poisson_schedule(&mut Rng::new(7, 0), 500.0, 2.0);
        let c = poisson_schedule(&mut Rng::new(8, 0), 500.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // About rate x seconds arrivals, strictly increasing, in range.
        assert!((900..1100).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(64, 1.0);
        let mut rng = Rng::new(3, 1);
        let mut counts = [0usize; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[8]);
        assert!(counts[63] > 0);
    }

    #[test]
    fn histogram_quantile_interpolates_deltas() {
        let before =
            Scrape::parse("h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 5\nh_bucket{le=\"+Inf\"} 5\n");
        let after = Scrape::parse(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 15\nh_bucket{le=\"2\"} 25\nh_bucket{le=\"+Inf\"} 25\n",
        );
        // 20 new observations: 10 in (0,1], 10 in (1,2].
        assert_eq!(
            after.histogram_quantile(&before, "h", &[1.0, 2.0], 0.5),
            1.0
        );
        assert_eq!(
            after.histogram_quantile(&before, "h", &[1.0, 2.0], 0.75),
            1.5
        );
        assert_eq!(after.delta(&before, "h_bucket{le=\"+Inf\"}"), 20.0);
    }
}
