//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset this workspace's property tests use — the
//! [`proptest!`] macro, range/tuple/vec strategies, `prop_map`, and the
//! `prop_assert*` macros — over a seeded deterministic PRNG. There is
//! **no shrinking**: a failing case reports the base seed and case
//! index instead, and `SPARTA_TEST_SEED=<seed>` replays the exact same
//! generated inputs (the same knob the deterministic executor uses, so
//! one seed story covers the whole suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy {
    //! Value-generation strategies (no shrinking).

    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident),+))*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut StdRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec`s of `element` values with a length drawn from
    /// `len` — `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let n = if self.len.is_empty() {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! The case-loop driver behind [`proptest!`](crate::proptest).

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runner configuration (`proptest::test_runner::Config` subset).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
        /// Accepted for source compatibility; unused (no forking).
        pub fork: bool,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self {
                cases: 64,
                fork: false,
            }
        }
    }

    /// A failed property with its explanation.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    /// Base seed: `SPARTA_TEST_SEED` when set, else a fixed default so
    /// plain `cargo test` is reproducible run to run.
    pub fn base_seed() -> u64 {
        match std::env::var("SPARTA_TEST_SEED") {
            Ok(v) => v
                .parse()
                .unwrap_or_else(|_| panic!("SPARTA_TEST_SEED must be a u64, got {v:?}")),
            Err(_) => 0xC0FF_EE00,
        }
    }

    /// Runs `f` over `cfg.cases` generated cases. Each case's PRNG is
    /// derived from (base seed, test name, case index) so tests are
    /// independent and individually replayable.
    pub fn run<F>(test_name: &str, cfg: ProptestConfig, mut f: F)
    where
        F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
    {
        let base = base_seed();
        for case in 0..cfg.cases {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            use std::hash::{Hash, Hasher};
            (base, test_name, case).hash(&mut h);
            let mut rng = StdRng::seed_from_u64(h.finish());
            if let Err(TestCaseError(msg)) = f(&mut rng) {
                panic!(
                    "property `{test_name}` failed at case {case}/{}: {msg}\n\
                     replay: SPARTA_TEST_SEED={base} cargo test {test_name}",
                    cfg.cases
                );
            }
        }
    }
}

/// Common imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests: each `#[test] fn name(pat in strategy, ...)`
/// becomes a normal test that generates inputs for `cases` iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ( ($cfg:expr)
      $( #[test] fn $name:ident( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {$(
        #[test]
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run(stringify!($name), cfg, |__rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                $body
                Ok(())
            });
        }
    )*};
}

/// `assert!` that fails the current case instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that fails the current case instead of panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{a:?} != {b:?}");
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{a:?} != {b:?}: {}", format!($($fmt)+));
    }};
}

/// `assert_ne!` that fails the current case instead of panicking.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{a:?} == {b:?}");
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{a:?} == {b:?}: {}", format!($($fmt)+));
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn strategies_generate_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = crate::collection::vec((0u32..10, 0u64..5), 1..20);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((1..20).contains(&v.len()));
            assert!(v.iter().all(|&(a, b)| a < 10 && b < 5));
        }
    }

    #[test]
    fn prop_map_applies() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = (0u32..5).prop_map(|x| x * 100);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert_eq!(v % 100, 0);
            assert!(v < 500);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

        #[test]
        fn macro_binds_multiple_patterns(x in 0u32..10, (a, b) in (0u8..3, 0u8..3)) {
            prop_assert!(x < 10);
            prop_assert!(a < 3 && b < 3, "a={} b={}", a, b);
            prop_assert_eq!(a / 3, 0);
            prop_assert_ne!(x + 1, 0);
        }
    }

    #[test]
    fn failing_property_names_seed() {
        let err = std::panic::catch_unwind(|| {
            crate::test_runner::run(
                "demo",
                ProptestConfig {
                    cases: 1,
                    ..ProptestConfig::default()
                },
                |_rng| Err(crate::test_runner::TestCaseError("boom".into())),
            );
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("SPARTA_TEST_SEED="), "got: {msg}");
        assert!(msg.contains("boom"), "got: {msg}");
    }
}
