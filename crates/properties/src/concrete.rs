//! Concrete (run-time) property verifiers.
//!
//! The compile-time analysis *derives* properties; these functions *check*
//! them on actual array contents.  They are the reference oracle the tests
//! judge against: the catalogue test checks every derived fact on the heap
//! the program builds, and `ss_inspector::inspect`'s own tests check the
//! runtime inspector against them.

use crate::property::ArrayProperty;
use std::collections::HashSet;

/// `a[i] != a[j]` for all `i != j`.
pub fn is_injective(a: &[i64]) -> bool {
    let mut seen = HashSet::with_capacity(a.len());
    a.iter().all(|&x| seen.insert(x))
}

/// `a[i] <= a[i+1]` for all `i` (non-strict increasing).
pub fn is_monotonic_inc(a: &[i64]) -> bool {
    a.windows(2).all(|w| w[0] <= w[1])
}

/// `a[i] >= a[i+1]` for all `i` (non-strict decreasing).
pub fn is_monotonic_dec(a: &[i64]) -> bool {
    a.windows(2).all(|w| w[0] >= w[1])
}

/// `a[i] < a[i+1]` for all `i`.
pub fn is_strict_monotonic_inc(a: &[i64]) -> bool {
    a.windows(2).all(|w| w[0] < w[1])
}

/// `a[i] > a[i+1]` for all `i`.
pub fn is_strict_monotonic_dec(a: &[i64]) -> bool {
    a.windows(2).all(|w| w[0] > w[1])
}

/// `a[i] == i` for all `i`.
pub fn is_identity(a: &[i64]) -> bool {
    a.iter().enumerate().all(|(i, &x)| x == i as i64)
}

/// Every element `>= 0`.
pub fn is_non_negative(a: &[i64]) -> bool {
    a.iter().all(|&x| x >= 0)
}

/// Checks a single property on concrete contents.
pub fn check_property(a: &[i64], p: ArrayProperty) -> bool {
    match p {
        ArrayProperty::MonotonicInc => is_monotonic_inc(a),
        ArrayProperty::MonotonicDec => is_monotonic_dec(a),
        ArrayProperty::StrictMonotonicInc => is_strict_monotonic_inc(a),
        ArrayProperty::StrictMonotonicDec => is_strict_monotonic_dec(a),
        ArrayProperty::Injective => is_injective(a),
        ArrayProperty::Identity => is_identity(a),
        ArrayProperty::NonNegative => is_non_negative(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ArrayProperty::*;

    #[test]
    fn basic_verifiers() {
        assert!(is_injective(&[3, 1, 4, 5, 9, 2, 6]));
        assert!(!is_injective(&[3, 1, 4, 1]));
        assert!(is_monotonic_inc(&[0, 0, 1, 3, 3, 7]));
        assert!(!is_monotonic_inc(&[0, 2, 1]));
        assert!(is_monotonic_dec(&[5, 5, 3, 0]));
        assert!(is_strict_monotonic_inc(&[0, 1, 3, 7]));
        assert!(!is_strict_monotonic_inc(&[0, 1, 1]));
        assert!(is_strict_monotonic_dec(&[9, 4, 1]));
        assert!(is_identity(&[0, 1, 2, 3]));
        assert!(!is_identity(&[0, 2, 1]));
        assert!(is_non_negative(&[0, 5, 2]));
        assert!(!is_non_negative(&[0, -1]));
        // degenerate cases: empty and singleton arrays satisfy everything
        // except identity-with-offset concerns
        for p in ArrayProperty::all() {
            assert!(check_property(&[], *p), "{p} should hold for empty");
        }
        assert!(check_property(&[0], Identity));
        assert!(check_property(&[7], Injective));
    }
}
