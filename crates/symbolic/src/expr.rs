//! Symbolic integer expressions.
//!
//! The analysis of the paper (Section 3.2) represents variable values as
//! symbolic expressions that may mention:
//!
//! * program symbols (loop bounds such as `ROWLEN`, loop indices such as `i`),
//! * `λ` — the value of the variable being analyzed at the *beginning of the
//!   loop iteration* (used by Phase 1),
//! * `Λ` — the value of the variable at the *beginning of the loop* (used by
//!   Phase 2 and in collapsed-loop summaries),
//! * `⊥` — an unknown value, produced whenever an expression is too complex
//!   for the analysis to track,
//! * symbolic array element references such as `rowptr[i - 1]`, which are the
//!   key ingredient for recognizing the recurrence patterns of Section 3.4.
//!
//! Expressions are plain trees ([`Expr`]); the [`mod@crate::simplify`] module
//! brings them into a canonical sum-of-products form so that structurally
//! different but equal expressions compare equal.

use std::fmt;

/// A symbolic integer expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// A named program symbol: a scalar variable, loop index or symbolic
    /// constant such as `ROWLEN`.
    Sym(String),
    /// `λ(x)` — the value of variable `x` at the beginning of the current
    /// loop iteration (Phase 1 placeholder).
    Lambda(String),
    /// `Λ(x)` — the value of variable `x` at the beginning of the loop
    /// (Phase 2 / collapsed-loop placeholder).
    BigLambda(String),
    /// `⊥` — unknown value.
    Bottom,
    /// `a[e]` — symbolic reference to element `e` of array `a`.
    ArrayRef(String, Box<Expr>),
    /// N-ary addition.
    Add(Vec<Expr>),
    /// N-ary multiplication.
    Mul(Vec<Expr>),
    /// Truncating integer division `a / b` (C semantics, rounds toward zero;
    /// the analysis only reasons about it when the sign is known).
    Div(Box<Expr>, Box<Expr>),
    /// Remainder `a % b` (C semantics).
    Mod(Box<Expr>, Box<Expr>),
    /// N-ary minimum.
    Min(Vec<Expr>),
    /// N-ary maximum.
    Max(Vec<Expr>),
}

// The arithmetic constructors below deliberately mirror the expression
// language (`Expr::add(a, b)` builds an unsimplified sum); they are
// associated functions, not operator implementations.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer literal convenience constructor.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Named symbol convenience constructor.
    pub fn sym(name: impl Into<String>) -> Expr {
        Expr::Sym(name.into())
    }

    /// `λ(name)` constructor.
    pub fn lambda(name: impl Into<String>) -> Expr {
        Expr::Lambda(name.into())
    }

    /// `Λ(name)` constructor.
    pub fn big_lambda(name: impl Into<String>) -> Expr {
        Expr::BigLambda(name.into())
    }

    /// Symbolic array element reference `array[index]`.
    pub fn array_ref(array: impl Into<String>, index: Expr) -> Expr {
        Expr::ArrayRef(array.into(), Box::new(index))
    }

    /// `a + b` (not simplified).
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(vec![a, b])
    }

    /// `a - b` (not simplified).
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Add(vec![a, Expr::Mul(vec![Expr::Int(-1), b])])
    }

    /// `a * b` (not simplified).
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(vec![a, b])
    }

    /// `-a` (not simplified).
    pub fn neg(a: Expr) -> Expr {
        Expr::Mul(vec![Expr::Int(-1), a])
    }

    /// `a / b` (truncating division, not simplified).
    pub fn div(a: Expr, b: Expr) -> Expr {
        Expr::Div(Box::new(a), Box::new(b))
    }

    /// `a % b` (not simplified).
    pub fn modulo(a: Expr, b: Expr) -> Expr {
        Expr::Mod(Box::new(a), Box::new(b))
    }

    /// `min(a, b)` (not simplified).
    pub fn min(a: Expr, b: Expr) -> Expr {
        Expr::Min(vec![a, b])
    }

    /// `max(a, b)` (not simplified).
    pub fn max(a: Expr, b: Expr) -> Expr {
        Expr::Max(vec![a, b])
    }

    /// Returns `Some(v)` if the expression is an integer literal.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Expr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns `true` if the expression is (or contains) `⊥`.
    pub fn contains_bottom(&self) -> bool {
        self.any_node(&mut |e| matches!(e, Expr::Bottom))
    }

    /// Returns `true` if the expression mentions the given symbol name
    /// (as a `Sym`, not as a `Lambda`/`BigLambda`/array name).
    pub fn contains_sym(&self, name: &str) -> bool {
        self.any_node(&mut |e| matches!(e, Expr::Sym(s) if s == name))
    }

    /// Returns `true` if the expression mentions `λ(name)`.
    pub fn contains_lambda(&self, name: &str) -> bool {
        self.any_node(&mut |e| matches!(e, Expr::Lambda(s) if s == name))
    }

    /// Returns `true` if the expression mentions any `λ(..)`.
    pub fn contains_any_lambda(&self) -> bool {
        self.any_node(&mut |e| matches!(e, Expr::Lambda(_)))
    }

    /// Returns `true` if the expression mentions a reference to the given
    /// array.
    pub fn contains_array_ref(&self, array: &str) -> bool {
        self.any_node(&mut |e| matches!(e, Expr::ArrayRef(a, _) if a == array))
    }

    /// Returns `true` if the expression mentions any array reference.
    pub fn contains_any_array_ref(&self) -> bool {
        self.any_node(&mut |e| matches!(e, Expr::ArrayRef(_, _)))
    }

    /// Collects the names of all `Sym` nodes in the expression.
    pub fn symbols(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_node(&mut |e| {
            if let Expr::Sym(s) = e {
                if !out.contains(s) {
                    out.push(s.clone());
                }
            }
        });
        out
    }

    /// Collects the names of all arrays referenced in the expression.
    pub fn array_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_node(&mut |e| {
            if let Expr::ArrayRef(a, _) = e {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
        });
        out
    }

    /// Visits every node (pre-order) and returns true if `pred` holds for any.
    pub fn any_node(&self, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            Expr::Int(_) | Expr::Sym(_) | Expr::Lambda(_) | Expr::BigLambda(_) | Expr::Bottom => {
                false
            }
            Expr::ArrayRef(_, idx) => idx.any_node(pred),
            Expr::Add(xs) | Expr::Mul(xs) | Expr::Min(xs) | Expr::Max(xs) => {
                xs.iter().any(|x| x.any_node(pred))
            }
            Expr::Div(a, b) | Expr::Mod(a, b) => a.any_node(pred) || b.any_node(pred),
        }
    }

    /// Visits every node in pre-order.
    pub fn for_each_node(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Int(_) | Expr::Sym(_) | Expr::Lambda(_) | Expr::BigLambda(_) | Expr::Bottom => {}
            Expr::ArrayRef(_, idx) => idx.for_each_node(f),
            Expr::Add(xs) | Expr::Mul(xs) | Expr::Min(xs) | Expr::Max(xs) => {
                xs.iter().for_each(|x| x.for_each_node(f))
            }
            Expr::Div(a, b) | Expr::Mod(a, b) => {
                a.for_each_node(f);
                b.for_each_node(f);
            }
        }
    }

    /// Number of nodes in the expression tree (used to cap analysis blow-up).
    pub fn size(&self) -> usize {
        let mut n = 0;
        self.for_each_node(&mut |_| n += 1);
        n
    }

    /// Rewrites the tree bottom-up by applying `f` to each node after its
    /// children have been rewritten.
    pub fn rewrite_bottom_up(&self, f: &impl Fn(Expr) -> Expr) -> Expr {
        let rebuilt = match self {
            Expr::Int(_) | Expr::Sym(_) | Expr::Lambda(_) | Expr::BigLambda(_) | Expr::Bottom => {
                self.clone()
            }
            Expr::ArrayRef(a, idx) => Expr::ArrayRef(a.clone(), Box::new(idx.rewrite_bottom_up(f))),
            Expr::Add(xs) => Expr::Add(xs.iter().map(|x| x.rewrite_bottom_up(f)).collect()),
            Expr::Mul(xs) => Expr::Mul(xs.iter().map(|x| x.rewrite_bottom_up(f)).collect()),
            Expr::Min(xs) => Expr::Min(xs.iter().map(|x| x.rewrite_bottom_up(f)).collect()),
            Expr::Max(xs) => Expr::Max(xs.iter().map(|x| x.rewrite_bottom_up(f)).collect()),
            Expr::Div(a, b) => Expr::Div(
                Box::new(a.rewrite_bottom_up(f)),
                Box::new(b.rewrite_bottom_up(f)),
            ),
            Expr::Mod(a, b) => Expr::Mod(
                Box::new(a.rewrite_bottom_up(f)),
                Box::new(b.rewrite_bottom_up(f)),
            ),
        };
        f(rebuilt)
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Int(v)
    }
}

impl From<&str> for Expr {
    fn from(s: &str) -> Self {
        Expr::Sym(s.to_string())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Sym(s) => write!(f, "{s}"),
            Expr::Lambda(s) => write!(f, "λ({s})"),
            Expr::BigLambda(s) => write!(f, "Λ({s})"),
            Expr::Bottom => write!(f, "⊥"),
            Expr::ArrayRef(a, idx) => write!(f, "{a}[{idx}]"),
            Expr::Add(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Mul(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Div(a, b) => write!(f, "({a} / {b})"),
            Expr::Mod(a, b) => write!(f, "({a} % {b})"),
            Expr::Min(xs) => {
                write!(f, "min(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Max(xs) => {
                write!(f, "max(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_expected_shapes() {
        assert_eq!(Expr::int(3), Expr::Int(3));
        assert_eq!(Expr::sym("n"), Expr::Sym("n".into()));
        assert_eq!(
            Expr::add(Expr::int(1), Expr::sym("i")),
            Expr::Add(vec![Expr::Int(1), Expr::Sym("i".into())])
        );
        assert_eq!(
            Expr::sub(Expr::sym("a"), Expr::sym("b")),
            Expr::Add(vec![
                Expr::Sym("a".into()),
                Expr::Mul(vec![Expr::Int(-1), Expr::Sym("b".into())])
            ])
        );
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::add(
            Expr::array_ref("rowptr", Expr::sub(Expr::sym("i"), Expr::int(1))),
            Expr::int(4),
        );
        assert_eq!(format!("{e}"), "(rowptr[(i + (-1 * 1))] + 4)");
        assert_eq!(format!("{}", Expr::lambda("count")), "λ(count)");
        assert_eq!(format!("{}", Expr::big_lambda("count")), "Λ(count)");
        assert_eq!(format!("{}", Expr::Bottom), "⊥");
    }

    #[test]
    fn contains_queries() {
        let e = Expr::add(
            Expr::lambda("count"),
            Expr::array_ref("rowsize", Expr::sym("i")),
        );
        assert!(e.contains_lambda("count"));
        assert!(!e.contains_lambda("other"));
        assert!(e.contains_array_ref("rowsize"));
        assert!(!e.contains_array_ref("rowptr"));
        assert!(e.contains_sym("i"));
        assert!(!e.contains_bottom());
        assert!(Expr::add(Expr::Bottom, Expr::int(1)).contains_bottom());
    }

    #[test]
    fn symbols_and_array_names_are_deduplicated() {
        let e = Expr::add(
            Expr::add(Expr::sym("i"), Expr::sym("i")),
            Expr::add(
                Expr::array_ref("a", Expr::sym("j")),
                Expr::array_ref("a", Expr::sym("i")),
            ),
        );
        assert_eq!(e.symbols(), vec!["i".to_string(), "j".to_string()]);
        assert_eq!(e.array_names(), vec!["a".to_string()]);
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::add(Expr::int(1), Expr::mul(Expr::sym("i"), Expr::int(2)));
        // Add, Int, Mul, Sym, Int
        assert_eq!(e.size(), 5);
    }

    #[test]
    fn rewrite_bottom_up_replaces_nodes() {
        let e = Expr::add(Expr::sym("i"), Expr::sym("j"));
        let out = e.rewrite_bottom_up(&|n| match n {
            Expr::Sym(ref s) if s == "i" => Expr::Int(7),
            other => other,
        });
        assert_eq!(out, Expr::Add(vec![Expr::Int(7), Expr::Sym("j".into())]));
    }

    #[test]
    fn from_impls() {
        let a: Expr = 5i64.into();
        let b: Expr = "n".into();
        assert_eq!(a, Expr::Int(5));
        assert_eq!(b, Expr::Sym("n".into()));
    }
}
