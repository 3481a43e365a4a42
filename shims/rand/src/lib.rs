//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! This build environment has no crates.io access, so the workspace
//! vendors the surface it uses: the [`Rng`] extension trait
//! (`gen`, `gen_range`, `gen_bool`), [`SeedableRng::seed_from_u64`],
//! and [`rngs::StdRng`].
//!
//! [`rngs::StdRng`] here is xoshiro256++ seeded through SplitMix64 —
//! deterministic for a given seed, statistically solid for synthetic
//! corpora and tests, but a *different stream* than upstream rand's
//! ChaCha12-based `StdRng`. Anything persisted must therefore record
//! the generator alongside the seed (the corpus builders do).

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Types samplable from the uniform "standard" distribution
/// (`rng.gen::<T>()`): full range for integers, `[0, 1)` for floats.
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    /// Panics if the range is empty.
    fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

/// User-facing random-value methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution for `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable generators (`rand::SeedableRng` subset).
pub trait SeedableRng: Sized {
    /// Creates a generator deterministically from a `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            #[inline]
            fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl StandardSample for u128 {
    #[inline]
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl StandardSample for i128 {
    #[inline]
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        u128::sample_standard(rng) as i128
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn sample_standard<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = u128::from(rng.next_u64()) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let v = u128::from(rng.next_u64()) % span;
                (start as i128 + v as i128) as $t
            }
        }
    )*};
}
impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let unit: $t = rng.gen();
                self.start + unit * (self.end - self.start)
            }
        }
    )*};
}
impl_sample_range_float!(f32, f64);

/// Concrete generators (`rand::rngs` subset).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard PRNG: xoshiro256++ (Blackman & Vigna),
    /// seeded via SplitMix64 as its authors recommend.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            Self {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = self.s[0]
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
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        let va: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(va[0], c.gen::<u64>(), "different seed, different stream");
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let a = rng.gen_range(10u32..20);
            assert!((10..20).contains(&a));
            let b = rng.gen_range(0usize..=5);
            assert!(b <= 5);
            let c = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&c));
            let d = rng.gen_range(0.5f64..2.5);
            assert!((0.5..2.5).contains(&d));
        }
    }

    #[test]
    fn gen_range_covers_support() {
        // Every value of a small range appears (sanity against
        // off-by-one or bias catastrophes).
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dyn_rng_usable() {
        // `R: Rng + ?Sized` call sites (zipf sampler) must compile and run.
        fn draw(rng: &mut dyn super::RngCore) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(3);
        let x = draw(&mut rng);
        assert!((0.0..1.0).contains(&x));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = rng.gen_range(5u32..5);
    }
}
