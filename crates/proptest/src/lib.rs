//! # proptest — offline drop-in property-testing runner
//!
//! The build environment cannot fetch the real `proptest` crate from
//! crates.io, so this crate implements the subset of the proptest API that
//! the repository's property suites use: the [`proptest!`] macro,
//! [`Strategy`](strategy::Strategy) with `prop_map` / `prop_recursive`,
//! integer/float range strategies, [`any`](strategy::any), [`Just`](strategy::Just),
//! [`prop_oneof!`], `collection::vec`, `option::of`, and regex-subset
//! string strategies.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case panics immediately with the generated
//!   inputs `Debug`-printed; minimisation is left to the reader. (The
//!   repository's fault-schedule shrinker in `pfi-testgen` is the in-tree
//!   answer for the artifacts that matter.)
//! * **Deterministic.** Every test function derives its RNG seed from its
//!   own name, so runs are reproducible without a persistence file;
//!   `*.proptest-regressions` files are ignored.
//! * String strategies accept the regex *subset* the suites use (`.`,
//!   character classes with ranges and escapes, and the `*`, `?`, `{n}`,
//!   `{n,m}` quantifiers), not full regex syntax.

pub mod collection;
pub mod option;
pub mod strategy;
pub mod string;

mod rng;

pub use rng::TestRng;

/// The commonly used names, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Runner configuration, mirroring `proptest::test_runner`.
pub mod test_runner {
    /// How many cases each property runs, and (ignored) knobs of the real
    /// crate's config surface.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real crate defaults to 256; 64 keeps the full workspace
            // sweep fast while still exercising each property broadly.
            ProptestConfig { cases: 64 }
        }
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// A failed property case (carried out of the test body by the
    /// `prop_assert*` macros).
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Creates a failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError(msg.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

/// Derives a stable 64-bit seed from a test's module path and name.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a: tiny, stable across platforms and compiler versions.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current property case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                l,
                r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Fails the current property case unless the two values compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{:?}` != `{:?}`: {}",
                l,
                r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Chooses uniformly between several strategies producing the same value
/// type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, …) { body }`
/// becomes an ordinary `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_item! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_item! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

/// Internal: expands one test function at a time.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_item {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let seed = $crate::seed_for(concat!(module_path!(), "::", stringify!($name)));
            let mut rng = $crate::TestRng::seed_from(seed);
            for case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, "),+),
                    $(&$arg),+
                );
                #[allow(unused_mut)]
                let mut body = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                };
                if let ::std::result::Result::Err(e) = body() {
                    panic!(
                        "property {} failed at case {}/{} (seed {:#x}):\n  {}\n  inputs: {}",
                        stringify!($name),
                        case + 1,
                        config.cases,
                        seed,
                        e,
                        inputs
                    );
                }
            }
        }
        $crate::__proptest_item! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(a in 10u64..20, b in -5i64..5, f in 0.25f64..0.75) {
            prop_assert!((10..20).contains(&a));
            prop_assert!((-5..5).contains(&b));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_lengths_respect_range(v in crate::collection::vec(any::<u8>(), 3..7)) {
            prop_assert!((3..7).contains(&v.len()), "len was {}", v.len());
        }

        #[test]
        fn oneof_picks_only_listed_values(x in prop_oneof![Just(1u8), Just(2), Just(9)]) {
            prop_assert!(x == 1 || x == 2 || x == 9);
        }

        #[test]
        fn string_pattern_shapes(s in "[a-c]{2,4}", t in "x[0-9]?") {
            prop_assert!((2..=4).contains(&s.chars().count()), "{s:?}");
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");
            prop_assert!(t.starts_with('x') && t.len() <= 2, "{t:?}");
        }

        #[test]
        fn option_of_covers_both(o in crate::option::of(0u32..10)) {
            if let Some(v) = o {
                prop_assert!(v < 10);
            }
        }

        #[test]
        fn map_applies(n in (0u32..10).prop_map(|n| n * 2)) {
            prop_assert!(n % 2 == 0 && n < 20);
        }
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let strat = crate::collection::vec(any::<u64>(), 0..9);
        let one: Vec<_> = {
            let mut rng = crate::TestRng::seed_from(7);
            (0..20).map(|_| strat.generate(&mut rng)).collect()
        };
        let two: Vec<_> = {
            let mut rng = crate::TestRng::seed_from(7);
            (0..20).map(|_| strat.generate(&mut rng)).collect()
        };
        assert_eq!(one, two);
    }

    #[test]
    fn recursive_strategies_terminate() {
        let leaf = (0i64..10).prop_map(|n| n.to_string());
        let expr = leaf.prop_recursive(4, 64, 2, |inner| {
            (inner.clone(), inner).prop_map(|(a, b)| format!("({a}+{b})"))
        });
        let mut rng = crate::TestRng::seed_from(3);
        let mut saw_composite = false;
        for _ in 0..64 {
            let s = expr.generate(&mut rng);
            saw_composite |= s.contains('+');
            assert!(!s.is_empty());
        }
        assert!(saw_composite, "depth > 0 must be reachable");
    }

    #[test]
    #[should_panic(expected = "property")]
    #[allow(unnameable_test_items)]
    fn failures_panic_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            #[test]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 200, "x was only {x}");
            }
        }
        always_fails();
    }
}
