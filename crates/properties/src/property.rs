//! The index-array property lattice.
//!
//! Section 2 of the paper identifies the properties of subscript arrays that
//! make enclosing loops parallelizable: injectivity, (strict) monotonicity,
//! monotonic differences, injective/monotonic subsets.  This module defines
//! those properties, their implication ordering (e.g. strict monotonicity
//! implies injectivity), and sets of properties closed under implication.

use std::collections::BTreeSet;
use std::fmt;

/// A property of (a section of) an integer array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArrayProperty {
    /// `a[i] <= a[j]` for all `i < j` (non-strict).
    MonotonicInc,
    /// `a[i] >= a[j]` for all `i < j` (non-strict).
    MonotonicDec,
    /// `a[i] < a[j]` for all `i < j`.
    StrictMonotonicInc,
    /// `a[i] > a[j]` for all `i < j`.
    StrictMonotonicDec,
    /// `a[i] != a[j]` for all `i != j`.
    Injective,
    /// `a[i] == i` for all `i` in the section.
    Identity,
    /// Every element in the section is `>= 0`.
    NonNegative,
}

impl ArrayProperty {
    /// Properties directly implied by `self` (one step of the implication
    /// relation; inserting into a `PropertySet` applies the transitive
    /// closure).
    pub fn direct_implications(&self) -> &'static [ArrayProperty] {
        use ArrayProperty::*;
        match self {
            Identity => &[StrictMonotonicInc, NonNegative],
            StrictMonotonicInc => &[MonotonicInc, Injective],
            StrictMonotonicDec => &[MonotonicDec, Injective],
            MonotonicInc | MonotonicDec | Injective | NonNegative => &[],
        }
    }

    /// True if `self` implies `other` (reflexive-transitively).
    pub fn implies(&self, other: ArrayProperty) -> bool {
        if *self == other {
            return true;
        }
        self.direct_implications().iter().any(|p| p.implies(other))
    }

    /// All properties, useful for exhaustive testing.
    pub fn all() -> &'static [ArrayProperty] {
        use ArrayProperty::*;
        &[
            MonotonicInc,
            MonotonicDec,
            StrictMonotonicInc,
            StrictMonotonicDec,
            Injective,
            Identity,
            NonNegative,
        ]
    }
}

impl fmt::Display for ArrayProperty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArrayProperty::MonotonicInc => "Monotonic_inc",
            ArrayProperty::MonotonicDec => "Monotonic_dec",
            ArrayProperty::StrictMonotonicInc => "Strict_monotonic_inc",
            ArrayProperty::StrictMonotonicDec => "Strict_monotonic_dec",
            ArrayProperty::Injective => "Injective",
            ArrayProperty::Identity => "Identity",
            ArrayProperty::NonNegative => "Non_negative",
        };
        write!(f, "{s}")
    }
}

/// A set of array properties, automatically closed under implication.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PropertySet {
    props: BTreeSet<ArrayProperty>,
}

impl PropertySet {
    /// The empty set (no known properties).
    pub fn empty() -> PropertySet {
        PropertySet::default()
    }

    /// A set containing `p` and everything it implies.
    pub fn single(p: ArrayProperty) -> PropertySet {
        let mut s = PropertySet::empty();
        s.insert(p);
        s
    }

    /// Builds a set from several properties.
    #[allow(clippy::should_implement_trait)] // bitset builder, not FromIterator
    pub fn from_iter(iter: impl IntoIterator<Item = ArrayProperty>) -> PropertySet {
        let mut s = PropertySet::empty();
        for p in iter {
            s.insert(p);
        }
        s
    }

    /// Inserts a property together with its implication closure.
    pub fn insert(&mut self, p: ArrayProperty) {
        if self.props.insert(p) {
            for q in p.direct_implications() {
                self.insert(*q);
            }
        }
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// True if `p` is known to hold (directly or by implication closure).
    pub fn has(&self, p: ArrayProperty) -> bool {
        self.props.contains(&p)
    }

    /// Number of properties in the (closed) set.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// Iterates the properties in a deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = ArrayProperty> + '_ {
        self.props.iter().copied()
    }

    /// The *meet*: properties guaranteed on both sides.  Used when merging
    /// facts from different control-flow paths — only what holds on every
    /// path survives.
    pub fn meet(&self, other: &PropertySet) -> PropertySet {
        PropertySet {
            props: self.props.intersection(&other.props).copied().collect(),
        }
    }

    /// The *join*: union of the two property sets (closed by construction).
    /// Used when independent analyses contribute facts about the same array
    /// section.
    pub fn join(&self, other: &PropertySet) -> PropertySet {
        let mut out = self.clone();
        for p in other.iter() {
            out.insert(p);
        }
        out
    }
}

impl fmt::Display for PropertySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.props.is_empty() {
            return write!(f, "{{}}");
        }
        let names: Vec<String> = self.props.iter().map(|p| p.to_string()).collect();
        write!(f, "{{{}}}", names.join(", "))
    }
}

impl FromIterator<ArrayProperty> for PropertySet {
    fn from_iter<T: IntoIterator<Item = ArrayProperty>>(iter: T) -> Self {
        PropertySet::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ArrayProperty::*;

    #[test]
    fn implication_chains() {
        assert!(Identity.implies(StrictMonotonicInc));
        assert!(Identity.implies(MonotonicInc));
        assert!(Identity.implies(Injective));
        assert!(Identity.implies(NonNegative));
        assert!(StrictMonotonicInc.implies(Injective));
        assert!(StrictMonotonicInc.implies(MonotonicInc));
        assert!(StrictMonotonicDec.implies(Injective));
        assert!(StrictMonotonicDec.implies(MonotonicDec));
        assert!(!MonotonicInc.implies(Injective));
        assert!(!Injective.implies(MonotonicInc));
        assert!(!MonotonicInc.implies(MonotonicDec));
        // reflexivity
        for p in ArrayProperty::all() {
            assert!(p.implies(*p));
        }
    }

    #[test]
    fn insertion_closes_under_implication() {
        let s = PropertySet::single(Identity);
        assert!(s.has(StrictMonotonicInc));
        assert!(s.has(MonotonicInc));
        assert!(s.has(Injective));
        assert!(s.has(NonNegative));
        assert!(!s.has(MonotonicDec));
        assert_eq!(s.len(), 5);
        let s = PropertySet::single(MonotonicInc);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn meet_keeps_only_common_properties() {
        let a = PropertySet::single(StrictMonotonicInc); // {SMI, MI, Inj}
        let b = PropertySet::single(StrictMonotonicDec); // {SMD, MD, Inj}
        let m = a.meet(&b);
        assert!(m.has(Injective));
        assert!(!m.has(MonotonicInc));
        assert!(!m.has(MonotonicDec));
        assert_eq!(m.len(), 1);
        // meet with empty is empty
        assert!(a.meet(&PropertySet::empty()).is_empty());
    }

    #[test]
    fn join_unions() {
        let a = PropertySet::single(MonotonicInc);
        let b = PropertySet::single(Injective);
        let j = a.join(&b);
        assert!(j.has(MonotonicInc));
        assert!(j.has(Injective));
        assert!(!j.has(StrictMonotonicInc));
    }

    #[test]
    fn meet_join_lattice_laws() {
        // idempotence, commutativity, absorption — checked over all single-
        // property sets.
        for p in ArrayProperty::all() {
            for q in ArrayProperty::all() {
                let a = PropertySet::single(*p);
                let b = PropertySet::single(*q);
                assert_eq!(a.meet(&a), a);
                assert_eq!(a.join(&a), a);
                assert_eq!(a.meet(&b), b.meet(&a));
                assert_eq!(a.join(&b), b.join(&a));
                assert_eq!(a.join(&a.meet(&b)), a);
                assert_eq!(a.meet(&a.join(&b)), a);
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", MonotonicInc), "Monotonic_inc");
        let s = PropertySet::single(StrictMonotonicInc);
        let txt = format!("{s}");
        assert!(txt.contains("Injective"));
        assert!(txt.contains("Strict_monotonic_inc"));
        assert_eq!(format!("{}", PropertySet::empty()), "{}");
    }
}
