//! A minimal deterministic PRNG (SplitMix64), the workspace's only one:
//! the seeded workload generators, the sample keys of balanced k-means,
//! the tests' shuffles and the vendored proptest shim's cases all draw
//! from it, so one pinned stream fixes every seeded input.
//!
//! The balanced k-means sampling initialization (Sec. 4.5 of the paper)
//! keys each point by mixing the seed with its coordinate bits through
//! this generator's output function; SplitMix64 passes BigCrush-level
//! statistical tests and is two instructions per word.

/// SplitMix64 generator (Steele, Lea & Flood; the JDK's `SplittableRandom`).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift method
    /// (with rejection to remove modulo bias).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Fisher–Yates shuffle of `slice`. Test support: no partitioner
    /// permutes its input.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn golden_stream_is_platform_independent() {
        // Cross-platform anchor: SplitMix64 is pure integer arithmetic, so
        // these exact outputs must hold on every OS/architecture/toolchain.
        // Seeded mesh generation and the sampling init both consume this
        // stream; if it ever changes, every "same seed ⇒ same partition"
        // guarantee in the test suite silently changes meaning.
        let mut rng = SplitMix64::new(0xDEAD_BEEF);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            got,
            vec![
                5395234354446855067,
                16021672434157553954,
                153047824787635229,
                8387618351419058064,
            ]
        );
    }

    #[test]
    fn clone_forks_an_identical_stream() {
        let mut a = SplitMix64::new(99);
        let _ = a.next_u64();
        let mut b = a.clone();
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound_and_hits_everything() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(11);
        let mut v: Vec<u32> = (0..1000).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
        assert_ne!(v, (0..1000).collect::<Vec<_>>(), "shuffle should move things");
    }

    #[test]
    fn mean_of_uniform_draws_is_centered() {
        let mut rng = SplitMix64::new(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }
}
