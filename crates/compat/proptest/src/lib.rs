//! Offline stand-in for `proptest`.
//!
//! Supports the subset of the proptest API this workspace's property tests
//! use: the [`proptest!`] macro (with `x in strategy` and `x: type`
//! parameters and an optional `#![proptest_config(...)]` header),
//! [`Strategy`] / [`Just`] / ranges / [`any`] / `prop_oneof!` /
//! `collection::vec`, and the `prop_assert*` macros. Cases are generated
//! from a deterministic per-test seed; failing inputs are reported via the
//! panic message rather than shrunk.

use rand::{Rng, SeedableRng, StdRng};

/// Configuration for a `proptest!` block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, or `PROPTEST_CASES` when it is set (as upstream reads it;
    /// an explicit [`ProptestConfig::with_cases`] is not overridden).
    fn default() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;
    /// Draws one value.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Applies `f` to every drawn value.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        (self.f)(self.source.new_value(rng))
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        (self.0.new_value(rng), self.1.new_value(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        (
            self.0.new_value(rng),
            self.1.new_value(rng),
            self.2.new_value(rng),
        )
    }
}

/// Strategy producing a constant.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn new_value(&self, rng: &mut StdRng) -> Self::Value {
        (**self).new_value(rng)
    }
}

impl<T> Strategy for std::ops::Range<T>
where
    T: Clone,
    std::ops::Range<T>: rand::SampleRange<T>,
{
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T> Strategy for std::ops::RangeInclusive<T>
where
    T: Clone,
    std::ops::RangeInclusive<T>: rand::SampleRange<T>,
{
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary_std {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                rng.gen::<$t>()
            }
        }
    )*};
}

impl_arbitrary_std!(u8, u32, u64, bool, f64);

impl Arbitrary for u16 {
    fn arbitrary(rng: &mut StdRng) -> u16 {
        (rng.gen::<u32>() >> 16) as u16
    }
}

impl Arbitrary for usize {
    fn arbitrary(rng: &mut StdRng) -> usize {
        rng.gen::<u64>() as usize
    }
}

macro_rules! impl_arbitrary_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> $t {
                <$u>::arbitrary(rng) as $t
            }
        }
    )*};
}

impl_arbitrary_signed!(i8 => u8, i16 => u16, i32 => u32, i64 => u64);

/// Strategy drawing arbitrary values of `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn new_value(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

/// Returns the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Strategy utilities used by the `prop_oneof!` macro.
pub mod strategy {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Uniform choice between boxed strategies of one value type.
    pub struct Union<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// Creates a union over `options`; must be non-empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Union<V> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut StdRng) -> V {
            let idx = rng.gen_range(0..self.options.len());
            self.options[idx].new_value(rng)
        }
    }

    /// Boxes a strategy, erasing its concrete type.
    pub fn boxed<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;

    /// Inclusive bounds on a generated collection's size.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        /// Minimum length, inclusive.
        pub min: usize,
        /// Maximum length, inclusive.
        pub max: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy producing vectors of values drawn from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Vector strategy with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.min..=self.size.max);
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// Runs `body` for every case of a property test. Used by the expansion of
/// [`proptest!`]; panics (failing the test) on the first failing case.
pub fn run_cases(config: &ProptestConfig, test_name: &str, mut body: impl FnMut(&mut StdRng)) {
    // FNV-1a over the test name gives each property its own seed sequence,
    // deterministic across runs.
    let mut name_hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        name_hash ^= u64::from(b);
        name_hash = name_hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for case in 0..config.cases {
        let seed = name_hash ^ (u64::from(case)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut rng = StdRng::seed_from_u64(seed);
        body(&mut rng);
    }
}

/// Samples a strategy once; exposed for the macro expansion.
pub fn sample<S: Strategy>(strategy: &S, rng: &mut StdRng) -> S::Value {
    strategy.new_value(rng)
}

// Re-exported so generated code can name the rng type via `$crate`.
pub use rand::StdRng as TestRng;

/// Binds `proptest!` parameters from strategies; internal.
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr $(,)?) => {
        let $name = $crate::sample(&($strat), $rng);
    };
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)+) => {
        let $name = $crate::sample(&($strat), $rng);
        $crate::__proptest_bind!($rng, $($rest)+);
    };
    ($rng:ident, $name:ident : $ty:ty $(,)?) => {
        let $name = $crate::sample(&$crate::any::<$ty>(), $rng);
    };
    ($rng:ident, $name:ident : $ty:ty, $($rest:tt)+) => {
        let $name = $crate::sample(&$crate::any::<$ty>(), $rng);
        $crate::__proptest_bind!($rng, $($rest)+);
    };
}

/// Expands the test functions of a `proptest!` block; internal.
#[macro_export]
macro_rules! __proptest_fns {
    ($config:expr;) => {};
    ($config:expr; $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $config;
            $crate::run_cases(&__config, stringify!($name), |__rng| {
                $crate::__proptest_bind!(__rng, $($params)*);
                $body
            });
        }
        $crate::__proptest_fns!($config; $($rest)*);
    };
}

/// Property-test block: each contained `#[test] fn` runs once per generated
/// case. Supports an optional `#![proptest_config(expr)]` header.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!($crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Uniform choice between several strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// The common imports property tests expect.
pub mod prelude {
    pub use crate::strategy::Union;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{Arbitrary, Just, ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn typed_params_are_bound(a: u8, b: u64) {
            let _ = (a, b);
        }

        #[test]
        fn ranges_respect_bounds(x in 3u8..10, y in 1u8..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn oneof_picks_from_options(v in prop_oneof![Just(1u8), Just(2), Just(3)]) {
            prop_assert!((1..=3).contains(&v));
        }

        #[test]
        fn vec_strategy_sizes(data in crate::collection::vec(any::<u8>(), 2..5)) {
            prop_assert!((2..5).contains(&data.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_header_accepted(x: u32) {
            let _ = x;
        }
    }
}
