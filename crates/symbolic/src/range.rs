//! Symbolic value ranges `[lo : hi]`.
//!
//! The paper's representation (Section 3.2) uses *may* ranges for scalar
//! values ("the value is somewhere in `[lb : ub]`") and *must* ranges for
//! array subscript regions ("all elements in index range `[sl : su]` carry a
//! value in `[vl : vu]`").  Both are represented by [`SymRange`]; the
//! may/must distinction lives in how the client interprets the range.

use crate::expr::Expr;
use crate::simplify::{simplify, simplify_diff};
use std::fmt;

/// A symbolic inclusive range `[lo : hi]`.
///
/// Either bound may be `⊥` (unknown). An *empty* range is never constructed
/// explicitly; clients that need emptiness reasoning compare bounds through
/// [`crate::relation`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SymRange {
    /// Lower bound (inclusive).
    pub lo: Expr,
    /// Upper bound (inclusive).
    pub hi: Expr,
}

impl SymRange {
    /// Builds `[lo : hi]`, simplifying both bounds.
    pub fn new(lo: Expr, hi: Expr) -> SymRange {
        SymRange {
            lo: simplify(&lo),
            hi: simplify(&hi),
        }
    }

    /// A degenerate range `[e : e]` representing an exactly-known value.
    pub fn exact(e: Expr) -> SymRange {
        let s = simplify(&e);
        SymRange {
            lo: s.clone(),
            hi: s,
        }
    }

    /// A constant range `[lo : hi]`.
    pub fn constant(lo: i64, hi: i64) -> SymRange {
        SymRange {
            lo: Expr::Int(lo),
            hi: Expr::Int(hi),
        }
    }

    /// The fully-unknown range `[⊥ : ⊥]`.
    pub fn unknown() -> SymRange {
        SymRange {
            lo: Expr::Bottom,
            hi: Expr::Bottom,
        }
    }

    /// Whether both bounds are unknown.
    pub fn is_unknown(&self) -> bool {
        self.lo == Expr::Bottom && self.hi == Expr::Bottom
    }

    /// Whether either bound is unknown.
    pub fn has_unknown_bound(&self) -> bool {
        self.lo == Expr::Bottom || self.hi == Expr::Bottom
    }

    /// Whether the range is a single exactly-known value (`lo == hi`, neither
    /// `⊥`).
    pub fn is_exact(&self) -> bool {
        !self.has_unknown_bound() && self.lo == self.hi
    }

    /// If the range is exact, returns the value.
    pub fn as_exact(&self) -> Option<&Expr> {
        if self.is_exact() {
            Some(&self.lo)
        } else {
            None
        }
    }

    /// If both bounds are integer constants, returns them.
    pub fn as_const(&self) -> Option<(i64, i64)> {
        match (self.lo.as_int(), self.hi.as_int()) {
            (Some(a), Some(b)) => Some((a, b)),
            _ => None,
        }
    }

    /// Range addition: `[a:b] + [c:d] = [a+c : b+d]`, `⊥` propagating per
    /// bound.
    pub fn add(&self, other: &SymRange) -> SymRange {
        SymRange {
            lo: bound_add(&self.lo, &other.lo),
            hi: bound_add(&self.hi, &other.hi),
        }
    }

    /// Range subtraction: `[a:b] - [c:d] = [a-d : b-c]`.
    pub fn sub(&self, other: &SymRange) -> SymRange {
        SymRange {
            lo: bound_sub(&self.lo, &other.hi),
            hi: bound_sub(&self.hi, &other.lo),
        }
    }

    /// Adds a single expression to both bounds.
    pub fn offset(&self, e: &Expr) -> SymRange {
        SymRange {
            lo: bound_add(&self.lo, e),
            hi: bound_add(&self.hi, e),
        }
    }

    /// Multiplies the range by a constant. Negative constants swap the
    /// bounds.
    pub fn scale(&self, k: i64) -> SymRange {
        let mul = |e: &Expr| -> Expr {
            if *e == Expr::Bottom {
                Expr::Bottom
            } else {
                simplify(&Expr::mul(Expr::Int(k), e.clone()))
            }
        };
        if k >= 0 {
            SymRange {
                lo: mul(&self.lo),
                hi: mul(&self.hi),
            }
        } else {
            SymRange {
                lo: mul(&self.hi),
                hi: mul(&self.lo),
            }
        }
    }

    /// Multiplication of two ranges. Only handled precisely when at least one
    /// side is an exactly-known constant; otherwise returns the unknown
    /// range (sound because unknown subsumes everything).
    pub fn mul(&self, other: &SymRange) -> SymRange {
        if let Some((k, k2)) = other.as_const() {
            if k == k2 {
                return self.scale(k);
            }
        }
        if let Some((k, k2)) = self.as_const() {
            if k == k2 {
                return other.scale(k);
            }
        }
        if let (Some((a, b)), Some((c, d))) = (self.as_const(), other.as_const()) {
            let products = [a * c, a * d, b * c, b * d];
            return SymRange::constant(
                *products.iter().min().unwrap(),
                *products.iter().max().unwrap(),
            );
        }
        SymRange::unknown()
    }

    /// Union hull of two ranges: `[min(lo1,lo2) : max(hi1,hi2)]`.
    /// Used when merging values from different control-flow paths.
    pub fn union(&self, other: &SymRange) -> SymRange {
        SymRange {
            lo: bound_min(&self.lo, &other.lo),
            hi: bound_max(&self.hi, &other.hi),
        }
    }

    /// Widening: keeps bounds that are stable, drops (to `⊥`) bounds that
    /// changed between iterations of a fixed-point computation.
    pub fn widen(&self, newer: &SymRange) -> SymRange {
        SymRange {
            lo: if crate::simplify::sym_eq(&self.lo, &newer.lo) {
                self.lo.clone()
            } else {
                Expr::Bottom
            },
            hi: if crate::simplify::sym_eq(&self.hi, &newer.hi) {
                self.hi.clone()
            } else {
                Expr::Bottom
            },
        }
    }

    /// True if the range mentions the given symbol in either bound.
    pub fn mentions_sym(&self, name: &str) -> bool {
        self.lo.contains_sym(name) || self.hi.contains_sym(name)
    }

    /// True if the range mentions any `λ(..)` placeholder.
    pub fn mentions_lambda(&self) -> bool {
        self.lo.contains_any_lambda() || self.hi.contains_any_lambda()
    }
}

impl fmt::Display for SymRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_exact() {
            write!(f, "[{}]", self.lo)
        } else {
            write!(f, "[{} : {}]", self.lo, self.hi)
        }
    }
}

fn bound_add(a: &Expr, b: &Expr) -> Expr {
    if *a == Expr::Bottom || *b == Expr::Bottom {
        Expr::Bottom
    } else {
        simplify(&Expr::add(a.clone(), b.clone()))
    }
}

fn bound_sub(a: &Expr, b: &Expr) -> Expr {
    if *a == Expr::Bottom || *b == Expr::Bottom {
        Expr::Bottom
    } else {
        simplify_diff(a, b)
    }
}

fn bound_min(a: &Expr, b: &Expr) -> Expr {
    if *a == Expr::Bottom || *b == Expr::Bottom {
        return Expr::Bottom;
    }
    if crate::simplify::sym_eq(a, b) {
        return a.clone();
    }
    // If the two bounds differ by a constant, the smaller one is known even
    // when both are symbolic (e.g. min(λ, λ+1) = λ).
    if let Some(d) = simplify_diff(a, b).as_int() {
        return if d <= 0 { simplify(a) } else { simplify(b) };
    }
    simplify(&Expr::min(a.clone(), b.clone()))
}

fn bound_max(a: &Expr, b: &Expr) -> Expr {
    if *a == Expr::Bottom || *b == Expr::Bottom {
        return Expr::Bottom;
    }
    if crate::simplify::sym_eq(a, b) {
        return a.clone();
    }
    if let Some(d) = simplify_diff(a, b).as_int() {
        return if d >= 0 { simplify(a) } else { simplify(b) };
    }
    simplify(&Expr::max(a.clone(), b.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_constant_ranges() {
        let r = SymRange::exact(Expr::add(Expr::sym("i"), Expr::int(0)));
        assert!(r.is_exact());
        assert_eq!(r.as_exact(), Some(&Expr::sym("i")));
        let c = SymRange::constant(0, 5);
        assert_eq!(c.as_const(), Some((0, 5)));
        assert!(!c.is_exact());
    }

    #[test]
    fn addition_and_subtraction() {
        let a = SymRange::constant(1, 2);
        let b = SymRange::constant(10, 20);
        assert_eq!(a.add(&b), SymRange::constant(11, 22));
        assert_eq!(b.sub(&a), SymRange::constant(8, 19));
        // symbolic
        let l = SymRange::new(Expr::lambda("count"), Expr::lambda("count"));
        let one = SymRange::constant(0, 1);
        let sum = l.add(&one);
        assert_eq!(sum.lo, Expr::lambda("count"));
        assert_eq!(
            sum.hi,
            simplify(&Expr::add(Expr::lambda("count"), Expr::int(1)))
        );
    }

    #[test]
    fn bottom_propagates_per_bound() {
        let u = SymRange {
            lo: Expr::Int(0),
            hi: Expr::Bottom,
        };
        let c = SymRange::constant(1, 1);
        let r = u.add(&c);
        assert_eq!(r.lo, Expr::Int(1));
        assert_eq!(r.hi, Expr::Bottom);
        assert!(r.has_unknown_bound());
        assert!(!r.is_unknown());
    }

    #[test]
    fn scaling_swaps_bounds_for_negative_constants() {
        let r = SymRange::constant(2, 5);
        assert_eq!(r.scale(3), SymRange::constant(6, 15));
        assert_eq!(r.scale(-1), SymRange::constant(-5, -2));
        let s = SymRange::new(Expr::sym("a"), Expr::sym("b"));
        let neg = s.scale(-2);
        assert_eq!(neg.lo, simplify(&Expr::mul(Expr::int(-2), Expr::sym("b"))));
        assert_eq!(neg.hi, simplify(&Expr::mul(Expr::int(-2), Expr::sym("a"))));
    }

    #[test]
    fn multiplication_constant_cases() {
        let a = SymRange::constant(-2, 3);
        let b = SymRange::constant(4, 4);
        assert_eq!(a.mul(&b), SymRange::constant(-8, 12));
        let c = SymRange::constant(-1, 2);
        assert_eq!(a.mul(&c), SymRange::constant(-4, 6));
        // symbolic times non-exact constant range: unknown
        let s = SymRange::new(Expr::sym("n"), Expr::sym("m"));
        assert!(s.mul(&c).is_unknown());
        // symbolic times exact constant: scaled
        assert_eq!(
            s.mul(&SymRange::constant(2, 2)),
            SymRange::new(
                Expr::mul(Expr::int(2), Expr::sym("n")),
                Expr::mul(Expr::int(2), Expr::sym("m"))
            )
        );
    }

    #[test]
    fn union_hull() {
        let a = SymRange::constant(0, 5);
        let b = SymRange::constant(3, 9);
        assert_eq!(a.union(&b), SymRange::constant(0, 9));
        let s = SymRange::new(Expr::sym("x"), Expr::sym("x"));
        let u = a.union(&s);
        assert_eq!(u.lo, Expr::Min(vec![Expr::Int(0), Expr::sym("x")]));
        assert_eq!(u.hi, Expr::Max(vec![Expr::Int(5), Expr::sym("x")]));
    }

    #[test]
    fn widening_keeps_stable_bounds() {
        let a = SymRange::new(Expr::int(0), Expr::sym("n"));
        let b = SymRange::new(Expr::int(0), Expr::add(Expr::sym("n"), Expr::int(1)));
        let w = a.widen(&b);
        assert_eq!(w.lo, Expr::Int(0));
        assert_eq!(w.hi, Expr::Bottom);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", SymRange::constant(0, 5)), "[0 : 5]");
        assert_eq!(format!("{}", SymRange::exact(Expr::sym("i"))), "[i]");
    }
}
