//! The property database: what the analysis knows about every array and
//! scalar at a given program point.
//!
//! This is the hand-off structure between the aggregation pass (Section 3,
//! which *derives* facts from the code filling the index arrays) and the
//! extended Range Test (Section 5, which *consumes* them to prove loops
//! parallel).

use crate::property::{ArrayProperty, PropertySet};
use ss_symbolic::{Expr, SymRange};
use std::collections::HashMap;
use std::fmt;

/// A comparison selecting a subset of an array's elements by value,
/// e.g. "the elements with value `>= 0`" (Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueFilter {
    /// Comparison operator (only ordering comparisons are meaningful here).
    pub op: FilterOp,
    /// The bound the element values are compared against.
    pub bound: Expr,
}

/// Operators usable in a [`ValueFilter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterOp {
    /// value `>=` bound
    Ge,
    /// value `>` bound
    Gt,
    /// value `<=` bound
    Le,
    /// value `<` bound
    Lt,
}

impl ValueFilter {
    /// "value >= 0", the filter of Figure 5.
    pub fn non_negative() -> ValueFilter {
        ValueFilter {
            op: FilterOp::Ge,
            bound: Expr::Int(0),
        }
    }

    /// Evaluates the filter on a concrete value (only constant bounds).
    pub fn accepts(&self, value: i64) -> Option<bool> {
        let b = self.bound.as_int()?;
        Some(match self.op {
            FilterOp::Ge => value >= b,
            FilterOp::Gt => value > b,
            FilterOp::Le => value <= b,
            FilterOp::Lt => value < b,
        })
    }
}

impl fmt::Display for ValueFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            FilterOp::Ge => ">=",
            FilterOp::Gt => ">",
            FilterOp::Le => "<=",
            FilterOp::Lt => "<",
        };
        write!(f, "value {op} {}", self.bound)
    }
}

/// Properties that hold only for a value-filtered subset of the elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardedFact {
    /// Which elements the fact applies to.
    pub filter: ValueFilter,
    /// The properties of that subset.
    pub properties: PropertySet,
}

/// Everything known about one array at the program point of interest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayFact {
    /// Array name.
    pub array: String,
    /// The subscript (index) range for which the fact holds — a **must**
    /// range per Section 3.2.
    pub index_range: SymRange,
    /// Value range of the elements in that index range, if known.
    pub value_range: Option<SymRange>,
    /// Whole-section properties.
    pub properties: PropertySet,
    /// Properties of value-filtered subsets (Figure 5 style).
    pub guarded: Vec<GuardedFact>,
    /// Human-readable provenance ("recurrence aggregation at loop L1", …).
    pub origin: String,
}

impl ArrayFact {
    /// Creates a fact with no information beyond the section it covers.
    pub fn new(array: impl Into<String>, index_range: SymRange) -> ArrayFact {
        ArrayFact {
            array: array.into(),
            index_range,
            value_range: None,
            properties: PropertySet::empty(),
            guarded: Vec::new(),
            origin: String::new(),
        }
    }

    /// Builder-style: sets the value range.
    pub fn with_value_range(mut self, r: SymRange) -> Self {
        self.value_range = Some(r);
        self
    }

    /// Builder-style: adds a property (closure under implication applies).
    pub fn with_property(mut self, p: ArrayProperty) -> Self {
        self.properties.insert(p);
        self
    }

    /// Builder-style: adds a guarded (subset) fact.
    pub fn with_guarded(mut self, filter: ValueFilter, props: PropertySet) -> Self {
        self.guarded.push(GuardedFact {
            filter,
            properties: props,
        });
        self
    }

    /// Builder-style: records where the fact came from.
    pub fn with_origin(mut self, origin: impl Into<String>) -> Self {
        self.origin = origin.into();
        self
    }

    /// True if property `p` holds for the whole covered section.
    pub fn has(&self, p: ArrayProperty) -> bool {
        self.properties.has(p)
    }

    /// True if property `p` holds for the subset selected by a filter at
    /// least as strict as `filter` (currently: exact filter match).
    pub fn has_on_subset(&self, filter: &ValueFilter, p: ArrayProperty) -> bool {
        self.guarded
            .iter()
            .any(|g| &g.filter == filter && g.properties.has(p))
    }
}

impl fmt::Display for ArrayFact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.array, self.index_range)?;
        if let Some(v) = &self.value_range {
            write!(f, ", {v}")?;
        }
        if !self.properties.is_empty() {
            write!(f, ", {}", self.properties)?;
        }
        for g in &self.guarded {
            write!(f, ", [{}] {}", g.filter, g.properties)?;
        }
        Ok(())
    }
}

/// The complete set of facts available at a program point.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropertyDatabase {
    facts: HashMap<String, ArrayFact>,
    scalar_ranges: HashMap<String, SymRange>,
}

impl PropertyDatabase {
    /// An empty database (what a conventional compiler knows about index
    /// arrays: nothing).
    pub fn new() -> PropertyDatabase {
        PropertyDatabase::default()
    }

    /// Records (or replaces) the fact for an array.
    pub fn insert(&mut self, fact: ArrayFact) {
        self.facts.insert(fact.array.clone(), fact);
    }

    /// Drops everything known about `array`.  Used when later code
    /// modifies the array in a way the analysis cannot summarize — keeping
    /// stale properties past such a write would be unsound.
    pub fn invalidate_array(&mut self, array: &str) {
        self.facts.remove(array);
    }

    /// Records the value range of an integer scalar.
    pub fn set_scalar_range(&mut self, name: impl Into<String>, range: SymRange) {
        self.scalar_ranges.insert(name.into(), range);
    }

    /// The fact recorded for `array`, if any.
    pub fn fact(&self, array: &str) -> Option<&ArrayFact> {
        self.facts.get(array)
    }

    /// True if `array` is known to have property `p` over its covered
    /// section.
    pub fn has_property(&self, array: &str, p: ArrayProperty) -> bool {
        self.facts.get(array).map(|f| f.has(p)).unwrap_or(false)
    }

    /// True if the filtered subset of `array` has property `p`.
    pub fn has_property_on_subset(
        &self,
        array: &str,
        filter: &ValueFilter,
        p: ArrayProperty,
    ) -> bool {
        self.facts
            .get(array)
            .map(|f| f.has_on_subset(filter, p) || f.has(p))
            .unwrap_or(false)
    }

    /// The value range of `array`'s elements, if known.
    pub fn value_range(&self, array: &str) -> Option<&SymRange> {
        self.facts.get(array).and_then(|f| f.value_range.as_ref())
    }

    /// The value range of a scalar, if known.
    pub fn scalar_range(&self, name: &str) -> Option<&SymRange> {
        self.scalar_ranges.get(name)
    }

    /// All array facts in deterministic (name) order.
    pub fn facts(&self) -> Vec<&ArrayFact> {
        let mut v: Vec<&ArrayFact> = self.facts.values().collect();
        v.sort_by(|a, b| a.array.cmp(&b.array));
        v
    }

    /// All scalar ranges in deterministic (name) order.
    pub fn scalar_ranges(&self) -> Vec<(&String, &SymRange)> {
        let mut v: Vec<(&String, &SymRange)> = self.scalar_ranges.iter().collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Number of array facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True if no facts are recorded.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty() && self.scalar_ranges.is_empty()
    }
}

impl fmt::Display for PropertyDatabase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for fact in self.facts() {
            writeln!(f, "{fact}")?;
        }
        for (name, r) in self.scalar_ranges() {
            writeln!(f, "{name}: {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::ArrayProperty::*;

    fn rowptr_fact() -> ArrayFact {
        // rowptr: [1 : ROWLEN], Monotonic_inc  (the paper's Phase 2 result)
        ArrayFact::new("rowptr", SymRange::new(Expr::int(1), Expr::sym("ROWLEN")))
            .with_property(MonotonicInc)
            .with_origin("Phase 2 aggregation of loop L1")
    }

    #[test]
    fn fact_queries() {
        let f = rowptr_fact();
        assert!(f.has(MonotonicInc));
        assert!(!f.has(Injective));
        assert_eq!(format!("{f}"), "rowptr: [1 : ROWLEN], {Monotonic_inc}");
        let f = ArrayFact::new(
            "rowsize",
            SymRange::new(Expr::int(0), Expr::sub(Expr::sym("ROWLEN"), Expr::int(1))),
        )
        .with_value_range(SymRange::new(
            Expr::int(0),
            Expr::sub(Expr::sym("COLUMNLEN"), Expr::int(1)),
        ))
        .with_property(NonNegative);
        assert!(f.has(NonNegative));
        assert!(f.value_range.is_some());
    }

    #[test]
    fn database_queries() {
        let mut db = PropertyDatabase::new();
        assert!(db.is_empty());
        db.insert(rowptr_fact());
        db.insert(
            ArrayFact::new(
                "mt_to_id",
                SymRange::new(Expr::int(0), Expr::sub(Expr::sym("nelt"), Expr::int(1))),
            )
            .with_property(Injective),
        );
        db.set_scalar_range("count", SymRange::constant(0, 100));
        assert!(db.has_property("rowptr", MonotonicInc));
        assert!(!db.has_property("rowptr", Injective));
        assert!(db.has_property("mt_to_id", Injective));
        assert!(!db.has_property("unknown", Injective));
        assert_eq!(db.len(), 2);
        assert!(db.scalar_range("count").is_some());
        assert!(db.scalar_range("other").is_none());
        assert!(!db.is_empty());
        let txt = format!("{db}");
        assert!(txt.contains("rowptr"));
        assert!(txt.contains("count: [0 : 100]"));
    }

    #[test]
    fn guarded_subset_facts() {
        let filter = ValueFilter::non_negative();
        let mut db = PropertyDatabase::new();
        db.insert(
            ArrayFact::new(
                "jmatch",
                SymRange::new(Expr::int(0), Expr::sub(Expr::sym("m"), Expr::int(1))),
            )
            .with_guarded(filter.clone(), PropertySet::single(Injective)),
        );
        assert!(db.has_property_on_subset("jmatch", &filter, Injective));
        assert!(!db.has_property("jmatch", Injective));
        // whole-array property also satisfies subset queries
        let mut db2 = PropertyDatabase::new();
        db2.insert(ArrayFact::new("p", SymRange::constant(0, 9)).with_property(Injective));
        assert!(db2.has_property_on_subset("p", &filter, Injective));
        // filter evaluation
        assert_eq!(filter.accepts(3), Some(true));
        assert_eq!(filter.accepts(-1), Some(false));
        assert_eq!(format!("{filter}"), "value >= 0");
    }
}
