//! The one pseudo-random source of the benchmark.  `--seed` reaches the
//! generated source corpus, every input vector and the `XFER` payloads
//! only through this generator; the programs under test never see the
//! seed, only what was generated from it.

/// SplitMix64: 64 bits of state, passes BigCrush, and one seed gives one
/// stream on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent generator for one purpose (`stream` names it), so
    /// drawing more values for one input never shifts another input.
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        // The modulo bias is below 2^-40 for every `n` used here.
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `n` floats uniform in `[-1, 1)`: the signal fed to float programs.
    pub fn signal(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.range(-1.0, 1.0)).collect()
    }

    /// `n` whole numbers in `[-512, 512)` as floats: the input of
    /// int-typed programs, which the engines cast with `as i64`.
    pub fn integers(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.below(1024) as f64 - 512.0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(a.signal(16), b.signal(16));
        let root = Rng::new(7);
        let mut f1 = root.fork(1);
        let mut f2 = root.fork(2);
        assert_ne!(f1.next_u64(), f2.next_u64());
        // Forking does not depend on how much another fork was used.
        let mut again = root.fork(2);
        again.next_u64();
        assert_eq!(again.next_u64(), f2.next_u64());
    }

    #[test]
    fn ranges_hold() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(5) < 5);
        }
        assert!(r.integers(100).iter().all(|v| v.fract() == 0.0));
        let mut v: Vec<u32> = (0..32).collect();
        r.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..32).collect::<Vec<u32>>());
    }
}
