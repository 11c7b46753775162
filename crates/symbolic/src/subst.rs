//! Substitution of symbols, `λ`/`Λ` placeholders and array references.
//!
//! Phase 1 introduces `λ(x)` placeholders and Phase 2 rewrites them to
//! `Λ(x)` or to aggregate expressions; the range-propagation pass substitutes
//! known scalar value ranges for symbols.  All of those rewrites are simple
//! structural substitutions implemented here.

use crate::expr::Expr;
use crate::simplify::simplify;

/// Replaces every occurrence of symbol `name` with `value` and simplifies.
pub fn subst_sym(e: &Expr, name: &str, value: &Expr) -> Expr {
    let out = e.rewrite_bottom_up(&|n| match n {
        Expr::Sym(ref s) if s == name => value.clone(),
        other => other,
    });
    simplify(&out)
}

/// Replaces `Λ(name)` with `value` and simplifies (used when collapsing a
/// loop into its surrounding context, where the value at loop entry is
/// known).
pub fn subst_big_lambda(e: &Expr, name: &str, value: &Expr) -> Expr {
    let out = e.rewrite_bottom_up(&|n| match n {
        Expr::BigLambda(ref s) if s == name => value.clone(),
        other => other,
    });
    simplify(&out)
}

/// Replaces references `array[idx]` with `f(idx)` for the given array and
/// simplifies. Used, e.g., to substitute a known per-element value range's
/// bound for `rowsize[i-1]` when aggregating the `rowptr` recurrence.
pub fn subst_array_ref(e: &Expr, array: &str, f: &impl Fn(&Expr) -> Expr) -> Expr {
    let out = e.rewrite_bottom_up(&|n| match n {
        Expr::ArrayRef(ref a, ref idx) if a == array => f(idx),
        other => other,
    });
    simplify(&out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sym_substitution_simplifies() {
        let e = Expr::add(Expr::sym("i"), Expr::sym("i"));
        assert_eq!(subst_sym(&e, "i", &Expr::int(3)), Expr::Int(6));
        // untouched symbols stay
        let e = Expr::add(Expr::sym("i"), Expr::sym("j"));
        let out = subst_sym(&e, "i", &Expr::int(1));
        assert_eq!(out, Expr::Add(vec![Expr::Int(1), Expr::sym("j")]));
    }

    #[test]
    fn big_lambda_substitution() {
        let e = Expr::add(Expr::big_lambda("count"), Expr::sym("n"));
        let out = subst_big_lambda(&e, "count", &Expr::int(0));
        assert_eq!(out, Expr::sym("n"));
    }

    #[test]
    fn array_ref_substitution() {
        // rowptr[i-1] + rowsize[i-1]  with rowsize[*] -> 0 lower bound
        let e = Expr::add(
            Expr::array_ref("rowptr", Expr::sub(Expr::sym("i"), Expr::int(1))),
            Expr::array_ref("rowsize", Expr::sub(Expr::sym("i"), Expr::int(1))),
        );
        let out = subst_array_ref(&e, "rowsize", &|_| Expr::Int(0));
        assert_eq!(
            out,
            Expr::array_ref("rowptr", Expr::add(Expr::Int(-1), Expr::sym("i")))
        );
    }
}
