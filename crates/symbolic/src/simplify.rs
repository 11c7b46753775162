//! Canonical simplification of symbolic expressions.
//!
//! The analysis constantly needs to answer questions such as "is
//! `rowptr[i] - rowptr[i-1]` equal to `rowsize[i-1]`?" or "is this difference
//! non-negative?".  Both reduce to bringing expressions into a canonical
//! *sum-of-products* form:
//!
//! ```text
//! c0 + c1·m1 + c2·m2 + …
//! ```
//!
//! where each `mk` is a sorted product of non-arithmetic atoms (symbols,
//! `λ`/`Λ` placeholders, array references, divisions, …).  Two expressions are
//! symbolically equal iff their canonical forms are identical.
//!
//! `⊥` (unknown) is absorbing: any expression containing `⊥` simplifies to
//! `⊥`, mirroring the paper's treatment of values the compiler cannot
//! represent.

use crate::expr::Expr;
use std::collections::BTreeMap;

/// Simplifies an expression into canonical sum-of-products form.
pub fn simplify(e: &Expr) -> Expr {
    if e.contains_bottom() {
        return Expr::Bottom;
    }
    let terms = collect_terms(e);
    rebuild(terms)
}

/// Simplifies `a - b`. Convenience wrapper used heavily by the relation and
/// dependence-test code.
pub fn simplify_diff(a: &Expr, b: &Expr) -> Expr {
    simplify(&Expr::sub(a.clone(), b.clone()))
}

/// Returns `true` if `a` and `b` are symbolically equal (identical canonical
/// forms). `⊥` is never equal to anything, including itself, because an
/// unknown value gives no guarantee.
pub fn sym_eq(a: &Expr, b: &Expr) -> bool {
    let (sa, sb) = (simplify(a), simplify(b));
    if sa == Expr::Bottom || sb == Expr::Bottom {
        return false;
    }
    sa == sb
}

/// A monomial: product of atoms (each atom canonically simplified), sorted.
type Monomial = Vec<Expr>;

/// Term collection: map monomial -> integer coefficient.
fn collect_terms(e: &Expr) -> BTreeMap<Monomial, i64> {
    let mut acc: BTreeMap<Monomial, i64> = BTreeMap::new();
    add_into(&mut acc, e, 1);
    acc.retain(|_, c| *c != 0);
    acc
}

fn add_into(acc: &mut BTreeMap<Monomial, i64>, e: &Expr, mult: i64) {
    match e {
        Expr::Int(v) => {
            *acc.entry(Vec::new()).or_insert(0) += mult.saturating_mul(*v);
        }
        Expr::Add(xs) => {
            for x in xs {
                add_into(acc, x, mult);
            }
        }
        Expr::Mul(xs) => {
            // Multiply the factors out only when at most one of them is an
            // Add; full distribution of products of sums can blow up, but in
            // the subscript expressions the analysis sees (affine forms such
            // as `(front[miel] - 1) * 7`) one sum times constants is the
            // common case and must be expanded for canonical comparison.
            let mut coeff: i64 = mult;
            let mut atoms: Vec<Expr> = Vec::new();
            let mut sums: Vec<&Expr> = Vec::new();
            for x in xs {
                let sx = simplify_node(x);
                match sx {
                    Expr::Int(v) => coeff = coeff.saturating_mul(v),
                    Expr::Add(_) => sums.push(x),
                    // Nested products flatten into this one.
                    Expr::Mul(inner) => {
                        for f in inner {
                            match f {
                                Expr::Int(v) => coeff = coeff.saturating_mul(v),
                                other => atoms.push(other),
                            }
                        }
                    }
                    other => atoms.push(other),
                }
            }
            if coeff == 0 {
                return;
            }
            if sums.is_empty() {
                atoms.sort();
                *acc.entry(atoms).or_insert(0) += coeff;
            } else if sums.len() == 1 && atoms.is_empty() {
                // coeff * (t1 + t2 + ...) -> distribute
                let inner = collect_terms(sums[0]);
                for (mono, c) in inner {
                    *acc.entry(mono).or_insert(0) += coeff.saturating_mul(c);
                }
            } else {
                // Too complex to distribute safely: keep as an opaque product
                // atom built from the simplified factors.
                let mut factors: Vec<Expr> = Vec::new();
                if coeff != 1 {
                    // fold the constant back in as part of the coefficient
                }
                for s in sums {
                    factors.push(simplify(s));
                }
                factors.extend(atoms);
                factors.sort();
                *acc.entry(factors).or_insert(0) += coeff;
            }
        }
        other => {
            let atom = simplify_node(other);
            match atom {
                Expr::Int(v) => {
                    *acc.entry(Vec::new()).or_insert(0) += mult.saturating_mul(v);
                }
                Expr::Add(_) | Expr::Mul(_) => {
                    // simplify_node may have rewritten the node into an
                    // arithmetic form (e.g. Min of equal entries); recurse.
                    add_into(acc, &atom, mult);
                }
                a => {
                    *acc.entry(vec![a]).or_insert(0) += mult;
                }
            }
        }
    }
}

/// Simplifies a single non-Add/Mul node (atoms with children get their
/// children canonicalized; foldable operations are folded).
fn simplify_node(e: &Expr) -> Expr {
    match e {
        Expr::Int(_) | Expr::Sym(_) | Expr::Lambda(_) | Expr::BigLambda(_) | Expr::Bottom => {
            e.clone()
        }
        Expr::Add(_) | Expr::Mul(_) => simplify(e),
        Expr::ArrayRef(a, idx) => Expr::ArrayRef(a.clone(), Box::new(simplify(idx))),
        Expr::Div(a, b) => {
            let (sa, sb) = (simplify(a), simplify(b));
            match (&sa, &sb) {
                (Expr::Int(x), Expr::Int(y)) if *y != 0 => Expr::Int(x / y),
                (_, Expr::Int(1)) => sa,
                (Expr::Int(0), _) => Expr::Int(0),
                _ => Expr::Div(Box::new(sa), Box::new(sb)),
            }
        }
        Expr::Mod(a, b) => {
            let (sa, sb) = (simplify(a), simplify(b));
            match (&sa, &sb) {
                (Expr::Int(x), Expr::Int(y)) if *y != 0 => Expr::Int(x % y),
                (_, Expr::Int(1)) => Expr::Int(0),
                (Expr::Int(0), _) => Expr::Int(0),
                _ => Expr::Mod(Box::new(sa), Box::new(sb)),
            }
        }
        Expr::Min(xs) => fold_min_max(xs, true),
        Expr::Max(xs) => fold_min_max(xs, false),
    }
}

fn fold_min_max(xs: &[Expr], is_min: bool) -> Expr {
    let mut simplified: Vec<Expr> = xs.iter().map(simplify).collect();
    simplified.sort();
    simplified.dedup();
    // Fold all constant entries into one.
    let mut consts: Vec<i64> = Vec::new();
    let mut rest: Vec<Expr> = Vec::new();
    for s in simplified {
        match s {
            Expr::Int(v) => consts.push(v),
            other => rest.push(other),
        }
    }
    if !consts.is_empty() {
        let folded = if is_min {
            *consts.iter().min().unwrap()
        } else {
            *consts.iter().max().unwrap()
        };
        rest.push(Expr::Int(folded));
        rest.sort();
    }
    if rest.len() == 1 {
        return rest.pop().unwrap();
    }
    if is_min {
        Expr::Min(rest)
    } else {
        Expr::Max(rest)
    }
}

/// Rebuilds a canonical expression from collected terms.
fn rebuild(terms: BTreeMap<Monomial, i64>) -> Expr {
    if terms.is_empty() {
        return Expr::Int(0);
    }
    let mut parts: Vec<Expr> = Vec::new();
    for (mono, coeff) in terms {
        if coeff == 0 {
            continue;
        }
        if mono.is_empty() {
            parts.push(Expr::Int(coeff));
        } else if mono.len() == 1 && coeff == 1 {
            parts.push(mono.into_iter().next().unwrap());
        } else {
            let mut factors = Vec::new();
            if coeff != 1 {
                factors.push(Expr::Int(coeff));
            }
            factors.extend(mono);
            if factors.len() == 1 {
                parts.push(factors.pop().unwrap());
            } else {
                parts.push(Expr::Mul(factors));
            }
        }
    }
    match parts.len() {
        0 => Expr::Int(0),
        1 => parts.pop().unwrap(),
        _ => Expr::Add(parts),
    }
}

/// If the expression has the affine form `coeff * sym + offset` in the given
/// symbol (with everything else constant-free in `sym`), returns
/// `(coeff, offset)`.  This is how the analysis recognizes "simple
/// subscripts" `i + k` and strided expressions such as `7*index + c`.
pub fn affine_in(e: &Expr, sym: &str) -> Option<(i64, Expr)> {
    let s = simplify(e);
    let terms = collect_terms(&s);
    let mut coeff: i64 = 0;
    let mut offset: BTreeMap<Monomial, i64> = BTreeMap::new();
    for (mono, c) in terms {
        let mentions: usize = mono.iter().filter(|a| a.contains_sym(sym)).count();
        if mentions == 0 {
            offset.insert(mono, c);
        } else if mentions == 1 && mono.len() == 1 && mono[0] == Expr::Sym(sym.to_string()) {
            coeff += c;
        } else {
            // Non-linear or nested occurrence (e.g. a[i], i*i): not affine.
            return None;
        }
    }
    Some((coeff, rebuild(offset)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(e: Expr) -> Expr {
        simplify(&e)
    }

    #[test]
    fn constant_folding() {
        assert_eq!(s(Expr::add(Expr::int(2), Expr::int(3))), Expr::Int(5));
        assert_eq!(s(Expr::mul(Expr::int(4), Expr::int(-2))), Expr::Int(-8));
        assert_eq!(s(Expr::sub(Expr::int(7), Expr::int(7))), Expr::Int(0));
        assert_eq!(s(Expr::div(Expr::int(7), Expr::int(2))), Expr::Int(3));
        assert_eq!(s(Expr::div(Expr::int(-7), Expr::int(2))), Expr::Int(-3));
        assert_eq!(s(Expr::modulo(Expr::int(7), Expr::int(8))), Expr::Int(7));
    }

    #[test]
    fn like_terms_collapse() {
        // i + i -> 2*i
        let e = s(Expr::add(Expr::sym("i"), Expr::sym("i")));
        assert_eq!(e, Expr::Mul(vec![Expr::Int(2), Expr::Sym("i".into())]));
        // i - i -> 0
        assert_eq!(s(Expr::sub(Expr::sym("i"), Expr::sym("i"))), Expr::Int(0));
        // 3*i + 2 - i -> 2*i + 2
        let e = s(Expr::add(
            Expr::sub(Expr::mul(Expr::int(3), Expr::sym("i")), Expr::sym("i")),
            Expr::int(2),
        ));
        assert_eq!(
            e,
            Expr::Add(vec![
                Expr::Int(2),
                Expr::Mul(vec![Expr::Int(2), Expr::Sym("i".into())])
            ])
        );
    }

    #[test]
    fn distribution_of_constant_times_sum() {
        // (front - 1) * 7 -> 7*front - 7
        let e = s(Expr::mul(
            Expr::sub(Expr::sym("front"), Expr::int(1)),
            Expr::int(7),
        ));
        assert_eq!(
            e,
            Expr::Add(vec![
                Expr::Int(-7),
                Expr::Mul(vec![Expr::Int(7), Expr::Sym("front".into())])
            ])
        );
    }

    #[test]
    fn bottom_is_absorbing() {
        assert_eq!(s(Expr::add(Expr::Bottom, Expr::int(1))), Expr::Bottom);
        assert_eq!(s(Expr::mul(Expr::Bottom, Expr::int(0))), Expr::Bottom);
        assert!(!sym_eq(&Expr::Bottom, &Expr::Bottom));
    }

    #[test]
    fn array_refs_are_atoms_with_simplified_indices() {
        // rowptr[i + 0] == rowptr[i]
        let a = Expr::array_ref("rowptr", Expr::add(Expr::sym("i"), Expr::int(0)));
        let b = Expr::array_ref("rowptr", Expr::sym("i"));
        assert!(sym_eq(&a, &b));
        // rowptr[i] - rowptr[i-1] does not cancel
        let d = simplify_diff(
            &Expr::array_ref("rowptr", Expr::sym("i")),
            &Expr::array_ref("rowptr", Expr::sub(Expr::sym("i"), Expr::int(1))),
        );
        assert_ne!(d, Expr::Int(0));
        // but rowptr[i] - rowptr[i] does
        let d = simplify_diff(
            &Expr::array_ref("rowptr", Expr::sym("i")),
            &Expr::array_ref("rowptr", Expr::add(Expr::sym("i"), Expr::int(0))),
        );
        assert_eq!(d, Expr::Int(0));
    }

    #[test]
    fn sym_eq_examples_from_paper() {
        // λ(count) + 1 + 1  ==  λ(count) + 2
        let a = Expr::add(Expr::add(Expr::lambda("count"), Expr::int(1)), Expr::int(1));
        let b = Expr::add(Expr::lambda("count"), Expr::int(2));
        assert!(sym_eq(&a, &b));
        // miel + (front[miel]-1)*7  ==  7*front[miel] + miel - 7
        let lhs = Expr::add(
            Expr::sym("miel"),
            Expr::mul(
                Expr::sub(Expr::array_ref("front", Expr::sym("miel")), Expr::int(1)),
                Expr::int(7),
            ),
        );
        let rhs = Expr::add(
            Expr::sub(
                Expr::mul(Expr::int(7), Expr::array_ref("front", Expr::sym("miel"))),
                Expr::int(7),
            ),
            Expr::sym("miel"),
        );
        assert!(sym_eq(&lhs, &rhs));
    }

    #[test]
    fn min_max_folding() {
        assert_eq!(s(Expr::min(Expr::int(3), Expr::int(5))), Expr::Int(3));
        assert_eq!(s(Expr::max(Expr::int(3), Expr::int(5))), Expr::Int(5));
        assert_eq!(s(Expr::min(Expr::sym("n"), Expr::sym("n"))), Expr::sym("n"));
        // min(n, 3, 5) -> min(3, n)
        let e = s(Expr::Min(vec![Expr::sym("n"), Expr::int(3), Expr::int(5)]));
        assert_eq!(e, Expr::Min(vec![Expr::Int(3), Expr::sym("n")]));
    }

    #[test]
    fn div_mod_identities() {
        assert_eq!(s(Expr::div(Expr::sym("x"), Expr::int(1))), Expr::sym("x"));
        assert_eq!(s(Expr::modulo(Expr::sym("x"), Expr::int(1))), Expr::Int(0));
        assert_eq!(s(Expr::div(Expr::int(0), Expr::sym("x"))), Expr::Int(0));
        // division by zero is left symbolic, never panics
        let e = s(Expr::div(Expr::int(4), Expr::int(0)));
        assert_eq!(e, Expr::Div(Box::new(Expr::Int(4)), Box::new(Expr::Int(0))));
    }

    #[test]
    fn affine_recognition() {
        // i + 4 is affine in i with coeff 1
        assert_eq!(
            affine_in(&Expr::add(Expr::sym("i"), Expr::int(4)), "i"),
            Some((1, Expr::Int(4)))
        );
        // 7*index + nelttemp - 7 is affine in index
        let e = Expr::add(
            Expr::mul(Expr::int(7), Expr::sym("index")),
            Expr::sub(Expr::sym("nelttemp"), Expr::int(7)),
        );
        let (c, off) = affine_in(&e, "index").unwrap();
        assert_eq!(c, 7);
        assert!(sym_eq(
            &off,
            &Expr::sub(Expr::sym("nelttemp"), Expr::int(7))
        ));
        // i*i is not affine in i
        assert_eq!(
            affine_in(&Expr::mul(Expr::sym("i"), Expr::sym("i")), "i"),
            None
        );
        // a[i] + i is not affine in i (nested occurrence)
        assert_eq!(
            affine_in(
                &Expr::add(Expr::array_ref("a", Expr::sym("i")), Expr::sym("i")),
                "i"
            ),
            None
        );
        // n (no i at all) is affine with coeff 0
        assert_eq!(affine_in(&Expr::sym("n"), "i"), Some((0, Expr::sym("n"))));
    }

    #[test]
    fn nested_sums_flatten() {
        let e = s(Expr::Add(vec![
            Expr::Add(vec![Expr::sym("a"), Expr::sym("b")]),
            Expr::Add(vec![Expr::sym("c"), Expr::Int(1)]),
            Expr::Int(2),
        ]));
        assert_eq!(
            e,
            Expr::Add(vec![
                Expr::Int(3),
                Expr::Sym("a".into()),
                Expr::Sym("b".into()),
                Expr::Sym("c".into()),
            ])
        );
    }
}
