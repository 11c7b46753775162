//! Closed-form aggregation of per-iteration increments.
//!
//! Phase 2 (Section 3.4) turns "the effect of one iteration" into "the effect
//! of the whole loop".  For scalar recurrences the per-iteration effect is an
//! expression over `λ` (the value at the start of the iteration) and possibly
//! the loop index `i`.  This module provides the closed forms the paper
//! describes:
//!
//! * `λ + k`  repeated `n` times ⇒ `Λ + n·k`
//! * `λ + i`  with `i` running `0 … n-1` ⇒ `Λ + n(n-1)/2`
//! * more generally `λ + (a + b·i)` ⇒ `Λ + n·a + b·n(n-1)/2`

use crate::expr::Expr;
use crate::simplify::{affine_in, simplify};

/// The closed form of `Σ_{i=lo}^{hi} 1 = hi - lo + 1` (the trip count).
pub fn trip_count(lo: &Expr, hi: &Expr) -> Expr {
    simplify(&Expr::add(Expr::sub(hi.clone(), lo.clone()), Expr::Int(1)))
}

/// The closed form of `Σ_{i=lo}^{hi} i = (hi(hi+1) - (lo-1)lo) / 2`.
///
/// To stay in integer arithmetic without introducing symbolic division the
/// result is expressed as `(hi + lo) * (hi - lo + 1) / 2`; the product of the
/// two factors is always even so truncating division is exact.
pub fn sum_of_index(lo: &Expr, hi: &Expr) -> Expr {
    let n = trip_count(lo, hi);
    let avg_num = simplify(&Expr::add(hi.clone(), lo.clone()));
    simplify(&Expr::div(Expr::mul(avg_num, n), Expr::Int(2)))
}

/// The result of aggregating a scalar recurrence across a loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aggregate {
    /// The value after the loop, as an expression over `Λ` and loop-invariant
    /// symbols.
    Closed(Expr),
    /// The recurrence was too complex for the current aggregation algebra.
    Unknown,
}

/// Aggregates a per-iteration update `x = step(λ(x), i)` across the iteration
/// space `i = lo … hi` (inclusive), producing the value of `x` at loop exit
/// in terms of `Λ(x)`.
///
/// Handled forms (everything else returns [`Aggregate::Unknown`]):
///
/// * `step` does not mention `λ(x)`: the last iteration wins, so the result is
///   `step` with the loop index replaced by `hi` (loop-invariant values stay
///   unchanged).
/// * `step = λ(x) + c` where `c` is loop-invariant: result `Λ(x) + n·c`.
/// * `step = λ(x) + a + b·i`: result `Λ(x) + n·a + b·Σ i`.
pub fn aggregate_scalar(var: &str, step: &Expr, index: &str, lo: &Expr, hi: &Expr) -> Aggregate {
    let step = simplify(step);
    if step == Expr::Bottom {
        return Aggregate::Unknown;
    }
    if !step.contains_lambda(var) {
        // Not a recurrence in `var`: the value written in the last iteration
        // survives. If the step depends on other λ placeholders we cannot
        // resolve it here.
        if step.contains_any_lambda() {
            return Aggregate::Unknown;
        }
        let last = crate::subst::subst_sym(&step, index, hi);
        return Aggregate::Closed(last);
    }
    // Isolate the increment: step - λ(x) must not mention λ(x) any more.
    let increment = simplify(&Expr::sub(step.clone(), Expr::lambda(var)));
    if increment.contains_lambda(var) || increment.contains_any_lambda() {
        return Aggregate::Unknown;
    }
    // The increment must be loop-invariant or affine in the loop index.
    let n = trip_count(lo, hi);
    if !increment.contains_sym(index) {
        if increment.contains_any_array_ref() {
            // Array-valued increments are handled by the array-recurrence
            // logic in the aggregation crate, not here.
            return Aggregate::Unknown;
        }
        let total = simplify(&Expr::add(Expr::big_lambda(var), Expr::mul(n, increment)));
        return Aggregate::Closed(total);
    }
    match affine_in(&increment, index) {
        Some((b, a)) => {
            if a.contains_any_array_ref() {
                return Aggregate::Unknown;
            }
            let sum_i = sum_of_index(lo, hi);
            let total = simplify(&Expr::add(
                Expr::big_lambda(var),
                Expr::add(Expr::mul(n, a), Expr::mul(Expr::Int(b), sum_i)),
            ));
            Aggregate::Closed(total)
        }
        None => Aggregate::Unknown,
    }
}

/// Aggregates a per-iteration *range* update by aggregating both bounds.
/// Returns `(lo_closed, hi_closed)` or `None` if either bound resists the
/// closed forms above.
pub fn aggregate_scalar_range(
    var: &str,
    step_lo: &Expr,
    step_hi: &Expr,
    index: &str,
    lo: &Expr,
    hi: &Expr,
) -> Option<(Expr, Expr)> {
    let a = aggregate_scalar(var, step_lo, index, lo, hi);
    let b = aggregate_scalar(var, step_hi, index, lo, hi);
    match (a, b) {
        (Aggregate::Closed(x), Aggregate::Closed(y)) => Some((x, y)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Valuation;

    #[test]
    fn trip_count_and_index_sum() {
        assert_eq!(trip_count(&Expr::int(0), &Expr::int(9)), Expr::Int(10));
        assert_eq!(sum_of_index(&Expr::int(0), &Expr::int(9)), Expr::Int(45));
        assert_eq!(sum_of_index(&Expr::int(3), &Expr::int(5)), Expr::Int(12));
        // symbolic: 0..n-1
        let n_minus_1 = Expr::sub(Expr::sym("n"), Expr::int(1));
        let tc = trip_count(&Expr::int(0), &n_minus_1);
        assert_eq!(tc, Expr::sym("n"));
    }

    #[test]
    fn constant_increment_matches_paper_example() {
        // count: [λ : λ+1] over COLUMNLEN iterations (lo=0, hi=COLUMNLEN-1).
        // The upper bound aggregates to Λ + COLUMNLEN.
        // (The paper quotes the value *range* [Λ : Λ + COLUMNLEN - 1] for the
        // written elements because the last increment may or may not happen;
        // the aggregation of the upper bound expression itself is Λ + n·1.)
        let hi = Expr::sub(Expr::sym("COLUMNLEN"), Expr::int(1));
        let step = Expr::add(Expr::lambda("count"), Expr::int(1));
        let agg = aggregate_scalar("count", &step, "j", &Expr::int(0), &hi);
        assert_eq!(
            agg,
            Aggregate::Closed(simplify(&Expr::add(
                Expr::big_lambda("count"),
                Expr::sym("COLUMNLEN")
            )))
        );
    }

    #[test]
    fn zero_and_negative_increments() {
        let agg = aggregate_scalar("x", &Expr::lambda("x"), "i", &Expr::int(0), &Expr::int(99));
        assert_eq!(agg, Aggregate::Closed(Expr::big_lambda("x")));
        let agg = aggregate_scalar(
            "x",
            &Expr::sub(Expr::lambda("x"), Expr::int(2)),
            "i",
            &Expr::int(0),
            &Expr::int(9),
        );
        assert_eq!(
            agg,
            Aggregate::Closed(simplify(&Expr::sub(Expr::big_lambda("x"), Expr::int(20))))
        );
    }

    #[test]
    fn non_recurrence_takes_last_iteration() {
        // x = 3*i + 1, i in 0..=9  ->  x = 28 after the loop
        let step = Expr::add(Expr::mul(Expr::int(3), Expr::sym("i")), Expr::int(1));
        let agg = aggregate_scalar("x", &step, "i", &Expr::int(0), &Expr::int(9));
        assert_eq!(agg, Aggregate::Closed(Expr::Int(28)));
    }

    #[test]
    fn lambda_plus_index_uses_index_sum() {
        // x = λ(x) + i, i in 0..=n-1  ->  Λ(x) + n(n-1)/2
        let step = Expr::add(Expr::lambda("x"), Expr::sym("i"));
        let agg = aggregate_scalar(
            "x",
            &step,
            "i",
            &Expr::int(0),
            &Expr::sub(Expr::sym("n"), Expr::int(1)),
        );
        let Aggregate::Closed(closed) = agg else {
            panic!("expected closed form");
        };
        // check numerically for n = 13
        let v = Valuation::new().with_sym("n", 13);
        let mut v = v;
        v.big_lambdas.insert("x".into(), 100);
        let expected = 100 + (0..13).sum::<i64>();
        assert_eq!(v.eval(&closed).unwrap(), expected);
    }

    #[test]
    fn affine_increment_in_index() {
        // x = λ(x) + 2*i + 3, i in 0..=9 -> Λ + 2*45 + 3*10 = Λ + 120
        let step = Expr::add(
            Expr::lambda("x"),
            Expr::add(Expr::mul(Expr::int(2), Expr::sym("i")), Expr::int(3)),
        );
        let agg = aggregate_scalar("x", &step, "i", &Expr::int(0), &Expr::int(9));
        assert_eq!(
            agg,
            Aggregate::Closed(simplify(&Expr::add(Expr::big_lambda("x"), Expr::int(120))))
        );
    }

    #[test]
    fn unsupported_forms_are_unknown() {
        // multiplicative recurrence
        let agg = aggregate_scalar(
            "x",
            &Expr::mul(Expr::lambda("x"), Expr::int(2)),
            "i",
            &Expr::int(0),
            &Expr::int(9),
        );
        assert_eq!(agg, Aggregate::Unknown);
        // increment depends on another λ
        let agg = aggregate_scalar(
            "x",
            &Expr::add(Expr::lambda("x"), Expr::lambda("y")),
            "i",
            &Expr::int(0),
            &Expr::int(9),
        );
        assert_eq!(agg, Aggregate::Unknown);
        // bottom
        assert_eq!(
            aggregate_scalar("x", &Expr::Bottom, "i", &Expr::int(0), &Expr::int(9)),
            Aggregate::Unknown
        );
        // array-valued increment is deferred to the array-recurrence logic
        let agg = aggregate_scalar(
            "x",
            &Expr::add(Expr::lambda("x"), Expr::array_ref("a", Expr::sym("i"))),
            "i",
            &Expr::int(0),
            &Expr::int(9),
        );
        assert_eq!(agg, Aggregate::Unknown);
    }

    #[test]
    fn range_aggregation() {
        // count: [λ : λ + 1] over 0..=k-1 -> [Λ : Λ + k]
        let (lo, hi) = aggregate_scalar_range(
            "count",
            &Expr::lambda("count"),
            &Expr::add(Expr::lambda("count"), Expr::int(1)),
            "j",
            &Expr::int(0),
            &Expr::sub(Expr::sym("k"), Expr::int(1)),
        )
        .unwrap();
        assert_eq!(lo, Expr::big_lambda("count"));
        assert_eq!(
            hi,
            simplify(&Expr::add(Expr::big_lambda("count"), Expr::sym("k")))
        );
    }
}
