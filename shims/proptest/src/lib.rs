//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Implements the same surface syntax — `proptest! { #![proptest_config(..)]
//! #[test] fn f(x in strategy) { .. } }`, `prop_oneof!`, `prop_assert!`,
//! `Strategy::prop_map`, `collection::vec`, `bool::ANY` — as a deterministic
//! random-case runner. Differences from the real crate, deliberately
//! accepted for an offline build:
//!
//! * **no shrinking** — a failing case reports the generated inputs via the
//!   assertion message instead of a minimized counterexample;
//! * **fixed seeding** — cases derive from a per-test seed (hash of the test
//!   name), so runs are reproducible without a `proptest-regressions` file;
//! * `PROPTEST_CASES` caps the per-test case count from the environment so
//!   CI can bound total runtime.

pub mod strategy {
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// A generator of values. The real crate's `Strategy` also carries a
    /// shrinking `ValueTree`; the shim only generates.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
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

        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// One weighted `prop_oneof!` alternative: `(weight, generator)`.
    pub type UnionArm<V> = (u32, Box<dyn Fn(&mut TestRng) -> V>);

    /// Weighted union over same-valued strategies (built by `prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<UnionArm<V>>,
        total: u64,
    }

    impl<V> Union<V> {
        pub fn new(arms: Vec<UnionArm<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            let total = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! weights must not all be zero");
            Union { arms, total }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;

        fn generate(&self, rng: &mut TestRng) -> V {
            let mut pick = rng.0.gen_range(0u64..self.total);
            for (w, arm) in &self.arms {
                if pick < *w as u64 {
                    return arm(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick out of range")
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.0.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(usize, u64, u32, u16, u8, isize, i64, i32, f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident $idx:tt),+)),*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy!((A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3));
}

pub mod test_runner {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The per-test RNG. Wraps the workspace's deterministic `SmallRng`.
    pub struct TestRng(pub SmallRng);

    impl TestRng {
        /// Deterministic seed from the test's name: reruns regenerate the
        /// same case sequence with no persistence file.
        pub fn for_test(name: &str) -> TestRng {
            let mut h = 0xcbf29ce484222325u64; // FNV-1a
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            TestRng(SmallRng::seed_from_u64(h))
        }
    }

    /// Runner configuration. Only `cases` is consulted.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }

        /// Case count after the `PROPTEST_CASES` environment cap.
        pub fn effective_cases(&self) -> u32 {
            match std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
            {
                Some(cap) => self.cases.min(cap),
                None => self.cases,
            }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// Assertion failure: the property is false.
        Fail(String),
        /// `prop_assume!` rejection: the case does not count.
        Reject(String),
    }

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Fail(reason.into())
        }

        pub fn reject(reason: impl Into<String>) -> TestCaseError {
            TestCaseError::Reject(reason.into())
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for `Vec`s with a length drawn from `len` and elements from
    /// `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.0.gen_range(self.len.clone());
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use rand::Rng;

    /// Strategy producing either boolean.
    #[derive(Debug, Clone, Copy)]
    pub struct AnyBool;

    pub const ANY: AnyBool = AnyBool;

    impl Strategy for AnyBool {
        type Value = bool;

        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.0.gen_bool(0.5)
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                left,
                right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let left = $left;
        let right = $right;
        if !(left == right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+),
                left,
                right
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assumption failed: ", stringify!($cond)),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $({
                let __strategy = $strat;
                (
                    $weight as u32,
                    ::std::boxed::Box::new(move |rng: &mut $crate::test_runner::TestRng| {
                        $crate::strategy::Strategy::generate(&__strategy, rng)
                    }) as ::std::boxed::Box<dyn Fn(&mut $crate::test_runner::TestRng) -> _>,
                )
            }),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1 => $strat),+)
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    ($config:expr; $(
        #[test]
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        $(#[$meta])*
        fn $name() {
            let config = $config;
            let cases = config.effective_cases();
            let mut rng = $crate::test_runner::TestRng::for_test(stringify!($name));
            let mut passed = 0u32;
            let mut attempts = 0u32;
            let max_attempts = cases.saturating_mul(10).saturating_add(100);
            while passed < cases {
                assert!(
                    attempts < max_attempts,
                    "gave up after {attempts} attempts ({passed}/{cases} cases passed): \
                     too many prop_assume! rejections"
                );
                attempts += 1;
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                let case_inputs = format!(
                    concat!($("  ", stringify!($arg), " = {:?}\n"),+),
                    $(&$arg),+
                );
                let outcome = (move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match outcome {
                    Ok(()) => passed += 1,
                    Err($crate::test_runner::TestCaseError::Reject(_)) => {}
                    Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest case {} of {} failed: {}\ninputs:\n{}",
                            passed + 1,
                            cases,
                            msg,
                            case_inputs
                        );
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;

    #[test]
    fn union_respects_weights_and_map_applies() {
        let s = prop_oneof![
            3 => Just(0usize),
            1 => (10usize..20).prop_map(|v| v),
        ];
        let mut rng = TestRng::for_test("union");
        let mut saw_zero = false;
        let mut saw_range = false;
        for _ in 0..200 {
            match s.generate(&mut rng) {
                0 => saw_zero = true,
                v if (10usize..20).contains(&v) => saw_range = true,
                other => panic!("unexpected value {other}"),
            }
        }
        assert!(saw_zero && saw_range);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn generated_vectors_respect_bounds(
            v in crate::collection::vec(1usize..10, 1..20),
            flag in crate::bool::ANY,
        ) {
            prop_assume!(v.len() < 19);
            prop_assert!(!v.is_empty());
            prop_assert!(v.iter().all(|x| (1..10).contains(x)), "out of range: {v:?}");
            prop_assert_eq!(flag & !flag, false, "flag={flag}");
        }
    }
}
