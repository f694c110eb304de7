//! Offline shim for the subset of the `proptest` crate API used in this
//! workspace.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a minimal property-testing harness with the same surface the
//! tests use: the [`proptest!`] macro, [`prelude::Strategy`] with
//! `prop_map`/`prop_flat_map`, [`prelude::any`], integer-range and tuple
//! strategies, and [`collection::vec`]. Failing cases panic with the seed
//! of the failing iteration; there is no shrinking.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The per-test RNG handed to strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    rng: StdRng,
}

impl TestRng {
    /// A deterministic RNG for case number `case` of test `name`.
    pub fn for_case(name: &str, case: u32) -> TestRng {
        // FNV-1a over the test name, mixed with the case index, so every
        // test gets an independent deterministic stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            rng: StdRng::seed_from_u64(h ^ ((case as u64) << 32 | 0x9e37_79b9)),
        }
    }

    /// The next random word.
    pub fn next_u64(&mut self) -> u64 {
        use rand::RngCore;
        self.rng.next_u64()
    }

    /// A uniform sample from an integer range.
    pub fn sample<T, R: rand::SampleRange<T>>(&mut self, range: R) -> T {
        self.rng.random_range(range)
    }
}

/// Test-runner configuration (`cases` = iterations per property).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` iterations.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Runs `body` for every case, reporting the failing case on panic.
pub fn run_property(name: &str, config: ProptestConfig, mut body: impl FnMut(&mut TestRng)) {
    for case in 0..config.cases {
        let mut rng = TestRng::for_case(name, case);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!(
                "proptest shim: property `{name}` failed at case {case}/{}",
                config.cases
            );
            std::panic::resume_unwind(payload);
        }
    }
}

pub mod strategy {
    use super::TestRng;

    /// A generator of values of type `Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        /// Keeps only values satisfying `f` (re-draws up to a retry cap).
        fn prop_filter<F: Fn(&Self::Value) -> bool>(
            self,
            whence: &'static str,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                f,
                whence,
            }
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
        pub(crate) whence: &'static str,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> S::Value {
            for _ in 0..1000 {
                let v = self.inner.generate(rng);
                if (self.f)(&v) {
                    return v;
                }
            }
            panic!("prop_filter `{}` rejected 1000 draws in a row", self.whence);
        }
    }

    /// `any::<T>()` — the full value range of `T`.
    pub struct Any<T>(std::marker::PhantomData<T>);

    /// A strategy over the whole of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.sample(self.clone())
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.sample(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);

    /// `Just(v)` — always generates clones of `v`.
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Lengths acceptable to [`vec()`]: a fixed size or a range of sizes.
    pub trait IntoLenRange {
        /// Resolves to concrete `(min, max)` bounds (inclusive).
        fn bounds(&self) -> (usize, usize);
    }

    impl IntoLenRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl IntoLenRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end.saturating_sub(1))
        }
    }

    impl IntoLenRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// A strategy generating `Vec`s of elements of `S`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// `vec(element, len)` — vectors with `len` elements (or a length drawn
    /// from a range).
    pub fn vec<S: Strategy>(element: S, len: impl IntoLenRange) -> VecStrategy<S> {
        let (min, max) = len.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.min >= self.max {
                self.min
            } else {
                rng.sample(self.min..=self.max)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Any, Arbitrary, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{ProptestConfig, TestRng};
}

/// Asserts a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Declares property tests: each `fn name(binding in strategy, ...) { .. }`
/// becomes a `#[test]` running the body over random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @cfg ($cfg) $($rest)* }
    };
    (@cfg ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let shim_cfg: $crate::ProptestConfig = $cfg;
                $crate::run_property(stringify!($name), shim_cfg, |shim_rng| {
                    $(let $pat = $crate::strategy::Strategy::generate(&($strat), shim_rng);)+
                    $body
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @cfg ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair(max: usize) -> impl Strategy<Value = (usize, Vec<u8>)> {
        (1..=max).prop_flat_map(|n| (Just(n), collection::vec(0u8..5, n)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn vec_len_matches(p in arb_pair(20)) {
            let (n, v) = p;
            prop_assert_eq!(v.len(), n);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn ranges_in_bounds(x in 3..10usize, y in 0u8..2) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y < 2);
        }
    }
}
