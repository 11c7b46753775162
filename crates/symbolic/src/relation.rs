//! Proving relations between symbolic expressions under assumptions.
//!
//! The extended Range Test (Section 5 of the paper) must answer questions of
//! the form "is `rowptr[i] <= rowptr[i+1]` for every `i` in the loop range?".
//! After the aggregation pass has substituted what it knows (e.g. the
//! difference between the two elements equals a value range known to be
//! non-negative), such queries reduce to *sign determination* of a symbolic
//! difference under a set of assumptions:
//!
//! * value ranges for symbols (loop indices have their loop ranges, symbolic
//!   sizes like `ROWLEN` are known positive, …),
//! * expressions asserted non-negative or strictly positive.
//!
//! Sign determination evaluates the difference over the assumption intervals.
//! The result is a three-valued verdict: proven, disproven, or unknown — the
//! analysis only acts on *proven*.

use crate::expr::Expr;
use crate::range::SymRange;
use crate::simplify::{simplify, simplify_diff, sym_eq};
use std::collections::HashMap;
use std::fmt;

/// Outcome of a relational query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proof {
    /// The relation definitely holds.
    Proven,
    /// The relation definitely does not hold.
    Disproven,
    /// The analysis cannot tell.
    Unknown,
}

impl Proof {
    /// True iff the relation was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, Proof::Proven)
    }
}

impl fmt::Display for Proof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proof::Proven => write!(f, "proven"),
            Proof::Disproven => write!(f, "disproven"),
            Proof::Unknown => write!(f, "unknown"),
        }
    }
}

/// A set of facts under which relations are evaluated.
#[derive(Debug, Clone, Default)]
pub struct Assumptions {
    /// Known value ranges for symbols.
    sym_ranges: HashMap<String, SymRange>,
    /// Expressions known to be `>= 0`.
    nonneg: Vec<Expr>,
    /// Expressions known to be `>= 1`.
    positive: Vec<Expr>,
}

impl Assumptions {
    /// Empty assumption set.
    pub fn new() -> Assumptions {
        Assumptions::default()
    }

    /// Records `name ∈ [lo : hi]`.
    pub fn assume_range(&mut self, name: impl Into<String>, range: SymRange) -> &mut Self {
        self.sym_ranges.insert(name.into(), range);
        self
    }

    /// Records `e >= 0`.
    pub fn assume_nonneg(&mut self, e: Expr) -> &mut Self {
        self.nonneg.push(simplify(&e));
        self
    }

    /// Records `e >= 1` (strictly positive for integers).
    pub fn assume_positive(&mut self, e: Expr) -> &mut Self {
        let s = simplify(&e);
        self.positive.push(s.clone());
        self.nonneg.push(s);
        self
    }

    /// Computes a conservative constant lower bound of `e`, if one can be
    /// derived from the assumptions. Symbols without assumptions, `λ`/`Λ`
    /// placeholders and array references contribute "unknown" unless the
    /// whole (sub)expression matches a recorded non-negative/positive fact.
    pub fn lower_bound(&self, e: &Expr) -> Option<i64> {
        self.bound(e, true)
    }

    /// Conservative constant upper bound of `e` (see [`Self::lower_bound`]).
    pub fn upper_bound(&self, e: &Expr) -> Option<i64> {
        self.bound(e, false)
    }

    fn fact_lower_bound(&self, e: &Expr) -> Option<i64> {
        if self.positive.iter().any(|p| sym_eq(p, e)) {
            return Some(1);
        }
        if self.nonneg.iter().any(|p| sym_eq(p, e)) {
            return Some(0);
        }
        None
    }

    fn bound(&self, e: &Expr, lower: bool) -> Option<i64> {
        // A recorded fact about the whole expression takes precedence for
        // lower bounds (facts never provide upper bounds).
        if lower {
            if let Some(b) = self.fact_lower_bound(&simplify(e)) {
                return Some(b);
            }
        }
        match e {
            Expr::Int(v) => Some(*v),
            Expr::Sym(s) => {
                let r = self.sym_ranges.get(s)?;
                let b = if lower { &r.lo } else { &r.hi };
                // Bounds of assumed ranges may themselves be symbolic; recurse.
                if *b == Expr::Bottom {
                    None
                } else if let Some(v) = b.as_int() {
                    Some(v)
                } else {
                    self.bound(b, lower)
                }
            }
            Expr::Add(xs) => {
                let mut total: i64 = 0;
                for x in xs {
                    total = total.checked_add(self.bound(x, lower)?)?;
                }
                Some(total)
            }
            Expr::Mul(xs) => {
                // Handle the common `constant * rest` shape.
                let mut constant: i64 = 1;
                let mut rest: Vec<Expr> = Vec::new();
                for x in xs {
                    match x.as_int() {
                        Some(v) => constant = constant.checked_mul(v)?,
                        None => rest.push(x.clone()),
                    }
                }
                if rest.is_empty() {
                    return Some(constant);
                }
                if rest.len() == 1 {
                    // constant * inner: pick the matching bound of inner based
                    // on the sign of the constant.
                    let inner = rest.pop().unwrap();
                    let want_lower_of_inner = (constant >= 0) == lower;
                    let ib = self.bound(&inner, want_lower_of_inner)?;
                    return constant.checked_mul(ib);
                }
                // General product: fold factor intervals. Requires both bounds
                // of every non-constant factor.
                let mut lo = constant;
                let mut hi = constant;
                if lo > hi {
                    std::mem::swap(&mut lo, &mut hi);
                }
                for x in &rest {
                    let xl = self.bound(x, true)?;
                    let xh = self.bound(x, false)?;
                    let cands = [
                        lo.checked_mul(xl)?,
                        lo.checked_mul(xh)?,
                        hi.checked_mul(xl)?,
                        hi.checked_mul(xh)?,
                    ];
                    lo = *cands.iter().min().unwrap();
                    hi = *cands.iter().max().unwrap();
                }
                Some(if lower { lo } else { hi })
            }
            Expr::Min(xs) => {
                let bounds: Option<Vec<i64>> = xs.iter().map(|x| self.bound(x, lower)).collect();
                if lower {
                    bounds.map(|b| b.into_iter().min().unwrap())
                } else {
                    // upper bound of min: need all upper bounds; min of them
                    bounds.map(|b| b.into_iter().min().unwrap())
                }
            }
            Expr::Max(xs) => {
                let bounds: Option<Vec<i64>> = xs.iter().map(|x| self.bound(x, lower)).collect();
                bounds.map(|b| b.into_iter().max().unwrap())
            }
            Expr::Mod(_, m) => {
                // `a % m` with positive constant m lies in (-(m-1), m-1); with
                // non-negative dividend it lies in [0, m-1]. We only use the
                // generic bound here.
                let m = self.bound(m, false)?;
                if m <= 0 {
                    return None;
                }
                if lower {
                    Some(-(m - 1))
                } else {
                    Some(m - 1)
                }
            }
            // Division, λ, Λ, array refs, ⊥: no information (facts about the
            // whole expression were already consulted above).
            _ => None,
        }
    }

    /// Tries to prove `a <= b`.
    pub fn prove_le(&self, a: &Expr, b: &Expr) -> Proof {
        let d = simplify_diff(b, a);
        if d == Expr::Bottom {
            return Proof::Unknown;
        }
        if let Some(v) = d.as_int() {
            return if v >= 0 {
                Proof::Proven
            } else {
                Proof::Disproven
            };
        }
        if let Some(lb) = self.lower_bound(&d) {
            if lb >= 0 {
                return Proof::Proven;
            }
        }
        if let Some(ub) = self.upper_bound(&d) {
            if ub < 0 {
                return Proof::Disproven;
            }
        }
        Proof::Unknown
    }

    /// Tries to prove `a < b`.
    pub fn prove_lt(&self, a: &Expr, b: &Expr) -> Proof {
        let d = simplify_diff(b, a);
        if d == Expr::Bottom {
            return Proof::Unknown;
        }
        if let Some(v) = d.as_int() {
            return if v >= 1 {
                Proof::Proven
            } else {
                Proof::Disproven
            };
        }
        if let Some(lb) = self.lower_bound(&d) {
            if lb >= 1 {
                return Proof::Proven;
            }
        }
        if let Some(ub) = self.upper_bound(&d) {
            if ub < 1 {
                return Proof::Disproven;
            }
        }
        Proof::Unknown
    }

    /// Tries to prove `a >= 0`.
    pub fn prove_nonneg(&self, a: &Expr) -> Proof {
        self.prove_le(&Expr::Int(0), a)
    }

    /// Tries to prove `a == b` (both `<=` directions).
    pub fn prove_eq(&self, a: &Expr, b: &Expr) -> Proof {
        if sym_eq(a, b) {
            return Proof::Proven;
        }
        match (self.prove_le(a, b), self.prove_le(b, a)) {
            (Proof::Proven, Proof::Proven) => Proof::Proven,
            (Proof::Disproven, _) | (_, Proof::Disproven) => Proof::Disproven,
            _ => Proof::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_relations() {
        let a = Assumptions::new();
        assert_eq!(a.prove_le(&Expr::int(1), &Expr::int(2)), Proof::Proven);
        assert_eq!(a.prove_le(&Expr::int(3), &Expr::int(2)), Proof::Disproven);
        assert_eq!(a.prove_lt(&Expr::int(2), &Expr::int(2)), Proof::Disproven);
        assert_eq!(a.prove_eq(&Expr::int(2), &Expr::int(2)), Proof::Proven);
    }

    #[test]
    fn symbol_ranges_drive_proofs() {
        let mut a = Assumptions::new();
        a.assume_range("i", SymRange::constant(0, 100));
        // i + 1 > i
        assert_eq!(
            a.prove_lt(&Expr::sym("i"), &Expr::add(Expr::sym("i"), Expr::int(1))),
            Proof::Proven
        );
        // i >= 0
        assert_eq!(a.prove_nonneg(&Expr::sym("i")), Proof::Proven);
        // i <= 100
        assert_eq!(a.prove_le(&Expr::sym("i"), &Expr::int(100)), Proof::Proven);
        // i <= 50 is unknown (i could be 80)
        assert_eq!(a.prove_le(&Expr::sym("i"), &Expr::int(50)), Proof::Unknown);
        // i < 0 is disproven
        assert_eq!(a.prove_lt(&Expr::sym("i"), &Expr::int(0)), Proof::Disproven);
    }

    #[test]
    fn symbolic_range_bounds_recurse() {
        let mut a = Assumptions::new();
        a.assume_range("n", SymRange::constant(1, 1_000_000));
        a.assume_range(
            "i",
            SymRange::new(Expr::int(0), Expr::sub(Expr::sym("n"), Expr::int(1))),
        );
        // i >= 0 via the symbolic upper bound of n
        assert_eq!(a.prove_nonneg(&Expr::sym("i")), Proof::Proven);
        // i <= n - 1  i.e.  n - 1 - i >= 0: needs the lower bound of -i which
        // comes from i's upper bound n-1, so n - 1 - (n-1) = 0 ... our interval
        // arithmetic loses the correlation and reports Unknown; record the
        // fact directly instead.
        a.assume_nonneg(Expr::sub(
            Expr::sub(Expr::sym("n"), Expr::int(1)),
            Expr::sym("i"),
        ));
        assert_eq!(
            a.prove_le(&Expr::sym("i"), &Expr::sub(Expr::sym("n"), Expr::int(1))),
            Proof::Proven
        );
    }

    #[test]
    fn nonneg_facts_apply_to_whole_expressions() {
        let mut a = Assumptions::new();
        // rowsize[i-1] >= 0 (what the aggregation pass derives from Figure 9)
        a.assume_nonneg(Expr::array_ref(
            "rowsize",
            Expr::sub(Expr::sym("i"), Expr::int(1)),
        ));
        // rowptr[i] = rowptr[i-1] + rowsize[i-1]  =>  rowptr[i] - rowptr[i-1] >= 0
        let diff = Expr::array_ref("rowsize", Expr::sub(Expr::sym("i"), Expr::int(1)));
        assert_eq!(a.prove_nonneg(&diff), Proof::Proven);
        // strict positivity not provable from a nonneg fact
        assert_eq!(a.prove_lt(&Expr::int(0), &diff), Proof::Unknown);
        // but a positive fact proves it
        a.assume_positive(Expr::sym("COLUMNLEN"));
        assert_eq!(
            a.prove_lt(&Expr::int(0), &Expr::sym("COLUMNLEN")),
            Proof::Proven
        );
    }

    #[test]
    fn scaled_symbols() {
        let mut a = Assumptions::new();
        a.assume_range("k", SymRange::constant(2, 5));
        // 3*k in [6,15]
        assert_eq!(
            a.prove_le(&Expr::int(6), &Expr::mul(Expr::int(3), Expr::sym("k"))),
            Proof::Proven
        );
        // -2*k in [-10,-4]
        assert_eq!(
            a.prove_le(&Expr::mul(Expr::int(-2), Expr::sym("k")), &Expr::int(-4)),
            Proof::Proven
        );
    }

    #[test]
    fn mod_bounds() {
        let a = Assumptions::new();
        // (x % 8) <= 7
        let e = Expr::modulo(Expr::sym("x"), Expr::int(8));
        assert_eq!(a.prove_le(&e, &Expr::int(7)), Proof::Proven);
        assert_eq!(a.prove_le(&Expr::int(-7), &e), Proof::Proven);
        // cannot prove nonneg without knowing the dividend's sign
        assert_eq!(a.prove_nonneg(&e), Proof::Unknown);
    }

    #[test]
    fn bottom_never_proves() {
        let a = Assumptions::new();
        assert_eq!(a.prove_le(&Expr::Bottom, &Expr::int(5)), Proof::Unknown);
        assert_eq!(a.prove_eq(&Expr::Bottom, &Expr::Bottom), Proof::Unknown);
    }
}
