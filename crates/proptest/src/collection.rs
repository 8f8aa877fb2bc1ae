//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::TestRng;

/// Generates `Vec`s whose elements come from `element` and whose length is
/// uniform in `len`.
pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    len: std::ops::Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = rng.below(self.len.start as u64, self.len.end as u64) as usize;
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
