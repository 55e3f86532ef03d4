//! Collection strategies (`proptest::collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let len = self.len.start + rng.below(span.max(1)) as usize;
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// A strategy for vectors whose length is drawn from `len` and whose
/// elements are drawn from `element`.
///
/// # Panics
///
/// Panics at sampling time if `len` is empty.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Just;

    #[test]
    fn lengths_respect_the_range() {
        let mut rng = TestRng::from_seed(5);
        let s = vec(Just(1u8), 2..7);
        for _ in 0..200 {
            let v = s.sample(&mut rng);
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn empty_vectors_are_reachable() {
        let mut rng = TestRng::from_seed(6);
        let s = vec(Just(0u8), 0..3);
        assert!((0..500).any(|_| s.sample(&mut rng).is_empty()));
    }
}
