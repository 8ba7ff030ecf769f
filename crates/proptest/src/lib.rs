//! Offline drop-in shim for the subset of the `proptest` 1.x API that
//! the UNICO workspace uses.
//!
//! The build environment is air-gapped, so the real crates.io `proptest`
//! cannot be resolved. This package keeps the familiar surface — the
//! [`proptest!`] macro, [`Strategy`] combinators (`prop_map`,
//! `prop_shuffle`), range/tuple/[`Just`] strategies,
//! [`array::uniform3`]-style array strategies, [`collection::vec`], and
//! the `prop_assert*` macros — backed by a simple deterministic
//! random-testing engine.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports its case index and the
//!   test's deterministic seed; re-running reproduces it exactly.
//! * **Deterministic seeding.** Case `i` of test `t` draws from
//!   `StdRng::seed_from_u64(fnv1a(t) ^ i)`, so failures are stable
//!   across runs and machines.
//! * **No `.proptest-regressions` files.** Upstream persists shrunk
//!   failures to per-crate regression files and replays them first; this
//!   shim neither reads nor writes them (deterministic seeding already
//!   makes every failure reproducible), so such files next to tests are
//!   dead weight and should not be committed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::Rng;

/// Re-exports everything tests conventionally import.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, Just, ProptestConfig, Strategy,
    };
}

/// Per-test configuration (the `with_cases` subset).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of random values for property tests.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn new_value(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Uniformly shuffles the generated collection.
    fn prop_shuffle(self) -> Shuffle<Self>
    where
        Self: Sized,
        Self::Value: Shuffleable,
    {
        Shuffle { inner: self }
    }
}

/// Collections [`Strategy::prop_shuffle`] can permute.
pub trait Shuffleable {
    /// Shuffles `self` in place.
    fn shuffle(&mut self, rng: &mut StdRng);
}

impl<T> Shuffleable for Vec<T> {
    fn shuffle(&mut self, rng: &mut StdRng) {
        rand::seq::SliceRandom::shuffle(self.as_mut_slice(), rng);
    }
}

impl<T, const N: usize> Shuffleable for [T; N] {
    fn shuffle(&mut self, rng: &mut StdRng) {
        rand::seq::SliceRandom::shuffle(self.as_mut_slice(), rng);
    }
}

/// Strategy producing a constant (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn new_value(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn new_value(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

/// See [`Strategy::prop_shuffle`].
#[derive(Debug, Clone)]
pub struct Shuffle<S> {
    inner: S,
}

impl<S> Strategy for Shuffle<S>
where
    S: Strategy,
    S::Value: Shuffleable,
{
    type Value = S::Value;

    fn new_value(&self, rng: &mut StdRng) -> S::Value {
        let mut v = self.inner.new_value(rng);
        v.shuffle(rng);
        v
    }
}

impl<T: rand::SampleUniform> Strategy for std::ops::Range<T> {
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.start..self.end)
    }
}

impl<T: rand::SampleUniform> Strategy for std::ops::RangeInclusive<T> {
    type Value = T;

    fn new_value(&self, rng: &mut StdRng) -> T {
        rng.gen_range(*self.start()..=*self.end())
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn new_value(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.new_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(S0 / 0);
impl_tuple_strategy!(S0 / 0, S1 / 1);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5);
impl_tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3, S4 / 4, S5 / 5, S6 / 6);
impl_tuple_strategy!(
    S0 / 0,
    S1 / 1,
    S2 / 2,
    S3 / 3,
    S4 / 4,
    S5 / 5,
    S6 / 6,
    S7 / 7
);
impl_tuple_strategy!(
    S0 / 0,
    S1 / 1,
    S2 / 2,
    S3 / 3,
    S4 / 4,
    S5 / 5,
    S6 / 6,
    S7 / 7,
    S8 / 8
);
impl_tuple_strategy!(
    S0 / 0,
    S1 / 1,
    S2 / 2,
    S3 / 3,
    S4 / 4,
    S5 / 5,
    S6 / 6,
    S7 / 7,
    S8 / 8,
    S9 / 9
);

/// Fixed-size array strategies (`uniform2(s)` ⇒ `[S::Value; 2]`, …).
pub mod array {
    use super::{StdRng, Strategy};

    /// Strategy producing `[S::Value; N]` from one element strategy.
    #[derive(Debug, Clone)]
    pub struct UniformArray<S, const N: usize>(S);

    impl<S: Strategy, const N: usize> Strategy for UniformArray<S, N> {
        type Value = [S::Value; N];

        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            std::array::from_fn(|_| self.0.new_value(rng))
        }
    }

    macro_rules! uniform_fns {
        ($($name:ident => $n:literal),+ $(,)?) => {$(
            /// Array strategy drawing every element from `strategy`.
            pub fn $name<S: Strategy>(strategy: S) -> UniformArray<S, $n> {
                UniformArray(strategy)
            }
        )+};
    }

    uniform_fns!(
        uniform1 => 1, uniform2 => 2, uniform3 => 3, uniform4 => 4,
        uniform5 => 5, uniform6 => 6, uniform7 => 7, uniform8 => 8,
    );
}

/// Collection strategies (the `vec` subset).
pub mod collection {
    use super::{Rng, StdRng, Strategy};

    /// Strategy producing vectors with length drawn from `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// A vector strategy: every element from `element`, length uniform in
    /// `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut StdRng) -> Self::Value {
            let n = rng.gen_range(self.len.start..self.len.end);
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// FNV-1a hash of a test name; the per-test seed base.
pub fn fnv1a(name: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Runs `cases` deterministic cases of a property. Used by the
/// [`proptest!`] macro; call it directly only when a test must also
/// assert something across all cases (e.g. that a rare branch was hit).
pub fn run_property<V>(
    test_name: &str,
    config: &ProptestConfig,
    strategy: &impl Strategy<Value = V>,
    body: impl Fn(V),
) {
    let base = fnv1a(test_name);
    for case in 0..u64::from(config.cases) {
        let mut rng = StdRng::seed_from_u64(base ^ case);
        let value = strategy.new_value(&mut rng);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(value)));
        if let Err(panic) = outcome {
            eprintln!(
                "proptest shim: property `{test_name}` failed at case {case}/{} \
                 (deterministic seed {:#x}); rerun to reproduce",
                config.cases,
                base ^ case,
            );
            std::panic::resume_unwind(panic);
        }
    }
}

pub use rand::SeedableRng as __SeedableRng;

/// Defines property tests: `proptest! { #![proptest_config(cfg)]
/// #[test] fn name(x in strategy, ...) { body } ... }`. As upstream,
/// each property carries its own `#[test]`; the macro adds none.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; do not use directly.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategy = ($($strat,)+);
            $crate::run_property(
                stringify!($name),
                &config,
                &strategy,
                |($($arg,)+)| { $body },
            );
        }
    )*};
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)+) => { assert!($($tt)+) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)+) => { assert_eq!($($tt)+) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)+) => { assert_ne!($($tt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_values_per_case() {
        let strat = (0u64..1000, 0.0f64..1.0);
        let mut first: Vec<(u64, f64)> = Vec::new();
        let mut second: Vec<(u64, f64)> = Vec::new();
        for out in [&mut first, &mut second] {
            let base = crate::fnv1a("t");
            for case in 0..10 {
                let mut rng = rand::SeedableRng::seed_from_u64(base ^ case);
                out.push(crate::Strategy::new_value(&strat, &mut rng));
            }
        }
        assert_eq!(first, second);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Range strategies stay in bounds.
        #[test]
        fn ranges_in_bounds(a in 3u64..17, b in -2i64..=2, f in 0.25f64..0.75) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-2..=2).contains(&b));
            prop_assert!((0.25..0.75).contains(&f));
        }

        /// Mapped, tupled, vec and array strategies compose.
        #[test]
        fn combinators_compose(
            v in crate::collection::vec((1u32..5).prop_map(|x| x * 2), 1..6),
            arr in crate::array::uniform4(0.0f64..1.0),
            perm in Just([1u8, 2, 3, 4, 5]).prop_shuffle(),
        ) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|x| x % 2 == 0 && (2..10).contains(x)));
            prop_assert!(arr.iter().all(|x| (0.0..1.0).contains(x)));
            let mut sorted = perm;
            sorted.sort_unstable();
            prop_assert_eq!(sorted, [1, 2, 3, 4, 5], "shuffle must permute {:?}", perm);
        }
    }
}
