//! Exact order statistics, the benchmark's own seeded RNG, and the FNV-1a
//! input fingerprint. Nothing here depends on the program under test, so
//! an edit to the program cannot change how the benchmark draws inputs or
//! summarises samples.

/// Sort samples for the percentile helpers (NaN-free by construction:
/// every sample is a measured duration or a finite ratio).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Exact nearest-rank percentile of sorted samples: the value at rank
/// `ceil(q·n)`. Returns 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The tail a sample supports: p99 when at least ten samples lie beyond
/// it (n ≥ 1000); otherwise the highest nearest-rank percentile that
/// still has ten samples beyond it, as long as that is at least p90
/// (n ≥ 100); below that, no tail percentile is supported and the
/// maximum is reported. Returns `(percentile used, value)`.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.99, 0.0);
    }
    let p99_rank = ((0.99 * n as f64).ceil() as usize).clamp(1, n);
    if n - p99_rank >= 10 {
        return (0.99, sorted[p99_rank - 1]);
    }
    if n < 100 {
        return (1.0, sorted[n - 1]);
    }
    let rank = n - 10;
    (rank as f64 / n as f64, sorted[rank - 1])
}

/// Quartiles by the same rule as Python's `statistics.quantiles(data,
/// n=4)` (the default "exclusive" method), so spreads printed here match
/// the ones a Python check computes; the middle one is the median.
/// Needs at least two samples.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = sorted.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// SplitMix64: the benchmark's own deterministic generator for op
/// streams. Each `(seed, stream)` pair gives an independent sequence.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform vertex pair over `0..n` (self-loops possible).
    pub fn pair(&mut self, n: u32) -> (u32, u32) {
        (self.below(n as usize) as u32, self.below(n as usize) as u32)
    }

    /// True with probability `pct`/100.
    pub fn percent(&mut self, pct: usize) -> bool {
        self.below(100) < pct
    }
}

/// FNV-1a (64-bit) over the generated inputs: a fingerprint that changes
/// whenever a generator changes what it produces for a seed.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn pair(&mut self, (u, v): (u32, u32)) {
        self.u32(u);
        self.u32(v);
    }

    pub fn pairs(&mut self, ps: &[(u32, u32)]) {
        self.u32(ps.len() as u32);
        for &p in ps {
            self.pair(p);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&ramp(1), 0.5), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        // n = 1000: rank 990, exactly ten beyond.
        assert_eq!(tail(&ramp(1000)), (0.99, 990.0));
        // n = 999: p99 would be rank 990 with nine beyond, so fall back
        // to rank 989 — the highest with ten beyond.
        let (q, v) = tail(&ramp(999));
        assert_eq!(v, 989.0);
        assert!((q - 989.0 / 999.0).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_small_samples() {
        let (q, v) = tail(&ramp(128));
        assert_eq!(v, 118.0);
        assert!((q - 118.0 / 128.0).abs() < 1e-12);
        assert_eq!(tail(&ramp(100)), (0.9, 90.0));
        // Below 100 samples even p90 lacks ten beyond it: the maximum.
        assert_eq!(tail(&ramp(99)), (1.0, 99.0));
        assert_eq!(tail(&ramp(11)), (1.0, 11.0));
        assert_eq!(tail(&ramp(5)), (1.0, 5.0));
        assert_eq!(tail(&[]), (0.99, 0.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&ramp(1)), None);
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        let mut c = Rng::new(7, 2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| a.below(7) < 7));
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a 64 of the four bytes 01 00 00 00.
        let mut h = Fnv::default();
        h.u32(1);
        let mut want: u64 = 0xCBF2_9CE4_8422_2325;
        for b in [1u8, 0, 0, 0] {
            want ^= b as u64;
            want = want.wrapping_mul(0x100_0000_01B3);
        }
        assert_eq!(h.finish(), want);
        assert_ne!(Fnv::default().finish(), h.finish());
    }
}
