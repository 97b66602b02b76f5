//! A self-contained subset of the `proptest` crate API.
//!
//! The build environment has no access to crates.io, so the workspace
//! aliases this crate as `proptest` (see the root `Cargo.toml`). It
//! implements the surface the NAPEL property tests use: the [`proptest!`]
//! macro (with optional `#![proptest_config(..)]` header), the
//! [`Strategy`](strategy::Strategy) trait with `prop_map`/`prop_flat_map`,
//! range and tuple strategies, [`collection::vec`], [`arbitrary::any`],
//! [`strategy::Just`], and the `prop_assert*` macros.
//!
//! Unlike the real crate there is **no shrinking**: a failing case panics
//! with the generated inputs in the panic message (every strategy value
//! used here implements `Debug`). Cases are generated from a deterministic
//! per-test seed, so failures reproduce exactly on re-run.

/// Configuration accepted by `#![proptest_config(..)]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Accepted for source compatibility; shrinking is not implemented.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 64,
            max_shrink_iters: 0,
        }
    }
}

pub mod test_runner {
    //! The per-test deterministic generator.

    pub use rand::rngs::StdRng as TestRng;
    use rand::SeedableRng;

    /// Builds the RNG for `(test name, case index)` — deterministic and
    /// independent across tests.
    pub fn rng_for(test_name: &str, case: u32) -> TestRng {
        // FNV-1a over the test name, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng::seed_from_u64(h ^ ((u64::from(case) << 32) | u64::from(case)))
    }

    /// Marker returned (via `Err`) by a case that [`crate::prop_assume!`]
    /// rejected; the runner skips the case without failing the test.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Rejected;
}

pub mod strategy {
    //! Value-generation strategies.

    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` builds
        /// out of it.
        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// A strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    range_strategy!(usize, u8, u16, u32, u64, i8, i16, i32, i64, isize, f64);

    impl<S: Strategy> Strategy for Vec<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            self.iter().map(|s| s.generate(rng)).collect()
        }
    }

    macro_rules! tuple_strategy {
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

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    //! `any::<T>()` — the canonical strategy of a type.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary: Sized {
        /// Generates one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.gen_range(<$t>::MIN..=<$t>::MAX)
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.gen()
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            // Finite values only; uniform over a wide symmetric range.
            rng.gen_range(-1e9..1e9)
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<A>(PhantomData<A>);

    impl<A: Arbitrary> Strategy for Any<A> {
        type Value = A;
        fn generate(&self, rng: &mut TestRng) -> A {
            A::arbitrary(rng)
        }
    }

    /// The canonical strategy of `A`.
    pub fn any<A: Arbitrary>() -> Any<A> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// A length range for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.lo..self.size.hi_exclusive);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `Vec`s of `element` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

#[allow(clippy::module_inception)]
pub mod bool {
    //! Boolean strategies.

    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use rand::Rng;

    /// The strategy behind [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.gen()
        }
    }

    /// Either boolean, uniformly.
    pub const ANY: BoolAny = BoolAny;
}

pub mod prelude {
    //! Everything a property-test file needs, mirroring
    //! `proptest::prelude`.

    /// The crate itself, addressable as `prop::` (so `prop::collection::vec`
    /// and `prop::bool::ANY` resolve as with the real crate).
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when the precondition does not hold (no
/// rejection-rate accounting in this subset — rejected cases are simply
/// not run).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Rejected);
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}

/// Defines property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident ( $( $arg:pat in $strat:expr ),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                for case in 0..config.cases {
                    let mut __rng = $crate::test_runner::rng_for(stringify!($name), case);
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&($strat), &mut __rng);
                    )+
                    // The body runs in a closure so `prop_assume!` can
                    // reject a case by early-returning `Err(Rejected)`;
                    // rejected cases are skipped, not failed.
                    #[allow(clippy::redundant_closure_call)]
                    let __outcome: ::core::result::Result<(), $crate::test_runner::Rejected> =
                        (move || {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    let _ = __outcome;
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_generation() {
        use crate::strategy::Strategy;
        let s = (0u64..100, any::<bool>());
        let mut a = crate::test_runner::rng_for("t", 0);
        let mut b = crate::test_runner::rng_for("t", 0);
        assert_eq!(s.generate(&mut a), s.generate(&mut b));
    }

    #[test]
    fn vec_lengths_respect_range() {
        use crate::strategy::Strategy;
        let s = prop::collection::vec(0u64..10, 3..7);
        for case in 0..50 {
            let mut rng = crate::test_runner::rng_for("lens", case);
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 17, ..ProptestConfig::default() })]

        #[test]
        fn macro_generates_and_runs(x in 0usize..50, flip in any::<bool>(), v in prop::collection::vec(1u64..5, 1..4)) {
            prop_assert!(x < 50);
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert_eq!(flip, flip);
        }

        #[test]
        fn maps_and_flat_maps_compose(y in (1usize..10).prop_map(|n| n * 2), z in (1u64..4).prop_flat_map(|n| 0..n)) {
            prop_assert!(y % 2 == 0 && y < 20);
            prop_assert!(z < 3);
        }

        #[test]
        fn just_yields_constant(k in Just(41), b in prop::bool::ANY) {
            prop_assert_eq!(k, 41);
            prop_assert_ne!(b, !b);
        }
    }
}
