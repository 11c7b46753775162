//! The abstract environment of the symbolic range propagation pass.
//!
//! Maps every integer scalar to a symbolic **may**-range and carries the
//! relational assumptions (loop-index ranges, facts established by guards)
//! under which expressions are compared.

use ss_symbolic::{Assumptions, Expr, SymRange};
use std::collections::HashMap;

/// The abstract state at a program point.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Value ranges of integer scalars. Scalars not present are *symbolic
    /// inputs*: reading them yields the exact symbolic value `Sym(name)`.
    scalars: HashMap<String, SymRange>,
    /// Element-value ranges known for whole arrays (established by earlier,
    /// already-collapsed loops), e.g. `rowsize: [0 : COLUMNLEN-1]`.
    array_values: HashMap<String, SymRange>,
    /// Relational facts for proving comparisons.
    pub assumptions: Assumptions,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Sets the value range of a scalar.
    pub fn set_scalar(&mut self, name: impl Into<String>, r: SymRange) {
        self.scalars.insert(name.into(), r);
    }

    /// The value range of a scalar.  Unbound scalars read as their own
    /// symbolic name (they are loop-invariant inputs from the analysis'
    /// point of view).
    pub fn scalar(&self, name: &str) -> SymRange {
        self.scalars
            .get(name)
            .cloned()
            .unwrap_or_else(|| SymRange::exact(Expr::sym(name)))
    }

    /// Whether a scalar has an explicit binding.
    pub fn has_scalar(&self, name: &str) -> bool {
        self.scalars.contains_key(name)
    }

    /// Names of all explicitly bound scalars.
    pub fn scalar_names(&self) -> Vec<&String> {
        let mut v: Vec<&String> = self.scalars.keys().collect();
        v.sort();
        v
    }

    /// Sets the element-value range known for a whole array.
    pub fn set_array_value(&mut self, name: impl Into<String>, r: SymRange) {
        self.array_values.insert(name.into(), r);
    }

    /// The element-value range known for an array, if any.
    pub fn array_value(&self, name: &str) -> Option<&SymRange> {
        self.array_values.get(name)
    }

    /// Forgets everything known about an array's values.
    pub fn clear_array_value(&mut self, name: &str) {
        self.array_values.remove(name);
    }

    /// Merges this environment with the one from another control-flow path:
    /// scalars bound on both sides get the union hull of their ranges,
    /// scalars bound on only one side become unknown-bounded unions with
    /// their symbolic initial value (conservative), array value facts must
    /// agree on both sides to survive.
    pub fn merge(&self, other: &Env) -> Env {
        let mut out = Env {
            scalars: HashMap::new(),
            array_values: HashMap::new(),
            assumptions: self.assumptions.clone(),
        };
        let mut names: Vec<&String> = self.scalars.keys().collect();
        for n in other.scalars.keys() {
            if !names.contains(&n) {
                names.push(n);
            }
        }
        for name in names {
            match (self.scalars.get(name), other.scalars.get(name)) {
                (Some(a), Some(b)) => {
                    out.scalars.insert(name.clone(), a.union(b));
                }
                (Some(a), None) | (None, Some(a)) => {
                    // On the other path the scalar kept its previous
                    // (symbolic) value.
                    let sym = SymRange::exact(Expr::sym(name));
                    out.scalars.insert(name.clone(), a.union(&sym));
                }
                (None, None) => {}
            }
        }
        for (name, r) in &self.array_values {
            if let Some(r2) = other.array_values.get(name) {
                out.array_values.insert(name.clone(), r.union(r2));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbound_scalars_read_symbolically() {
        let env = Env::new();
        assert_eq!(env.scalar("nelt"), SymRange::exact(Expr::sym("nelt")));
        assert!(!env.has_scalar("nelt"));
    }

    #[test]
    fn set_and_clear() {
        let mut env = Env::new();
        env.set_scalar("count", SymRange::constant(0, 0));
        assert!(env.has_scalar("count"));
        assert_eq!(env.scalar("count"), SymRange::constant(0, 0));
        env.set_array_value("rowsize", SymRange::constant(0, 9));
        assert_eq!(env.array_value("rowsize"), Some(&SymRange::constant(0, 9)));
        env.clear_array_value("rowsize");
        assert!(env.array_value("rowsize").is_none());
    }

    #[test]
    fn merge_takes_union_and_keeps_common_array_facts() {
        let mut a = Env::new();
        a.set_scalar("x", SymRange::constant(0, 1));
        a.set_scalar("only_a", SymRange::constant(5, 5));
        a.set_array_value("v", SymRange::constant(0, 3));
        a.set_array_value("only_a_arr", SymRange::constant(0, 3));
        let mut b = Env::new();
        b.set_scalar("x", SymRange::constant(3, 4));
        b.set_array_value("v", SymRange::constant(2, 7));
        let m = a.merge(&b);
        assert_eq!(m.scalar("x"), SymRange::constant(0, 4));
        assert_eq!(m.array_value("v"), Some(&SymRange::constant(0, 7)));
        assert!(m.array_value("only_a_arr").is_none());
        // only_a merges with its symbolic initial value
        let r = m.scalar("only_a");
        assert_eq!(r.lo, Expr::Min(vec![Expr::Int(5), Expr::sym("only_a")]));
    }

    #[test]
    fn scalar_names_sorted() {
        let mut env = Env::new();
        env.set_scalar("z", SymRange::constant(0, 0));
        env.set_scalar("a", SymRange::constant(0, 0));
        let names: Vec<&str> = env.scalar_names().iter().map(|s| s.as_str()).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
