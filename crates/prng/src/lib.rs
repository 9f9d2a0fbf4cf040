#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! A tiny, dependency-free, deterministic pseudo-random number generator.
//!
//! The workspace builds in fully offline environments, so it cannot pull in
//! the `rand` crate; this module provides the small slice of its API the
//! repository actually uses — seeding from a `u64`, uniform integers over
//! ranges, and uniform floats in `[0, 1)` — on top of xoshiro256++ with a
//! SplitMix64 seed expander. Output is stable across platforms and releases:
//! the synthetic corpora (`qmatch-datasets`) and the randomized property
//! tests both depend on that stability.
//!
//! This is NOT a cryptographic generator; it is for reproducible test data
//! only.

use std::ops::{Range, RangeInclusive};

/// A small, fast, deterministic RNG (xoshiro256++).
///
/// The name mirrors `rand::rngs::SmallRng` so call sites read familiarly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmallRng {
    s: [u64; 4],
}

/// SplitMix64 step, used to expand a 64-bit seed into the full state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SmallRng {
    /// Seeds the generator from a single `u64` (SplitMix64 expansion, as
    /// recommended by the xoshiro authors). Equal seeds produce equal
    /// streams on every platform.
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        let mut sm = seed;
        SmallRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64 random bits (xoshiro256++ output function).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 high bits of one output).
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform value from a half-open (`lo..hi`) or inclusive (`lo..=hi`)
    /// range. Panics on empty ranges, like `rand`.
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: UniformSample,
        R: IntoBounds<T>,
    {
        let (lo, hi_inclusive) = range.into_bounds();
        T::sample(self, lo, hi_inclusive)
    }

    /// An unbiased uniform `u64` in `[0, bound]` (inclusive) via rejection
    /// of the partial top interval.
    fn uniform_u64_inclusive(&mut self, bound: u64) -> u64 {
        if bound == u64::MAX {
            return self.next_u64();
        }
        let span = bound + 1;
        // r = 2^64 mod span, computed without 128-bit arithmetic.
        let r = (u64::MAX % span + 1) % span;
        if r == 0 {
            // span divides 2^64: plain modulo is already unbiased.
            return self.next_u64() % span;
        }
        // Accept v in [0, 2^64 - r), the largest prefix holding an integral
        // number of spans.
        let zone = 0u64.wrapping_sub(r);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }
}

/// Integer types [`SmallRng::gen_range`] can sample uniformly.
pub trait UniformSample: Copy + PartialOrd {
    /// Uniform sample in `[lo, hi]` (inclusive).
    fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as u64) - (lo as u64);
                lo + rng.uniform_u64_inclusive(span) as $t
            }
        }
    )*};
}

macro_rules! impl_uniform_signed {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range in gen_range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                (lo as i64).wrapping_add(rng.uniform_u64_inclusive(span) as i64) as $t
            }
        }
    )*};
}

impl_uniform_unsigned!(u8, u16, u32, u64, usize);
impl_uniform_signed!(i8, i16, i32, i64, isize);

impl UniformSample for f64 {
    fn sample(rng: &mut SmallRng, lo: Self, hi: Self) -> Self {
        assert!(lo <= hi, "empty range in gen_range");
        lo + rng.gen_f64() * (hi - lo)
    }
}

/// Range arguments accepted by [`SmallRng::gen_range`].
pub trait IntoBounds<T> {
    /// `(low, high_inclusive)` bounds of the range.
    fn into_bounds(self) -> (T, T);
}

impl<T: UniformSample + Dec> IntoBounds<T> for Range<T> {
    fn into_bounds(self) -> (T, T) {
        (self.start, self.end.dec())
    }
}

impl<T: UniformSample> IntoBounds<T> for RangeInclusive<T> {
    fn into_bounds(self) -> (T, T) {
        self.into_inner()
    }
}

/// Decrement by one unit, for converting `lo..hi` to inclusive bounds.
pub trait Dec {
    /// The previous representable value.
    fn dec(self) -> Self;
}

macro_rules! impl_dec_int {
    ($($t:ty),*) => {$(
        impl Dec for $t {
            fn dec(self) -> Self {
                self.checked_sub(1).expect("empty range in gen_range")
            }
        }
    )*};
}

impl_dec_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Dec for f64 {
    fn dec(self) -> Self {
        // Half-open float ranges: gen_f64 never returns 1.0, so the upper
        // bound is effectively exclusive already.
        self
    }
}

/// Fisher–Yates shuffle (deterministic given the RNG state).
pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_produce_equal_streams() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn stream_is_pinned_across_releases() {
        // The synthetic corpora depend on this exact stream; changing the
        // generator invalidates every pinned corpus statistic.
        let mut rng = SmallRng::seed_from_u64(0x51AC_2005);
        assert_eq!(rng.next_u64(), 0xFC92_79C3_604A_9059);
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.gen_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let a: usize = rng.gen_range(0..17);
            assert!(a < 17);
            let b: u32 = rng.gen_range(3..=9);
            assert!((3..=9).contains(&b));
            let c: i64 = rng.gen_range(-50..=-10);
            assert!((-50..=-10).contains(&c));
            let d: f64 = rng.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&d));
        }
    }

    #[test]
    fn all_residues_are_reachable() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.gen_range(0..7usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn one_element_range_is_constant() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            assert_eq!(rng.gen_range(5..6usize), 5);
            assert_eq!(rng.gen_range(5..=5usize), 5);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(3);
        let _: usize = rng.gen_range(5..5);
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut v: Vec<usize> = (0..32).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, (0..32).collect::<Vec<_>>(), "shuffle changed the order");
    }

    #[test]
    fn gen_bool_probability_is_sane() {
        let mut rng = SmallRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
