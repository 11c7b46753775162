//! Runtime inspectors over index arrays.
//!
//! An *inspector* is the piece of run-time code that inspector/executor
//! schemes insert before a candidate loop: it scans the index array (or the
//! set of subscripts the loop will use) and decides whether this particular
//! input allows the loop to run in parallel.  The decision is exact for the
//! given input, but it must be repeated on every invocation whose index
//! arrays may have changed — which is precisely the overhead the paper's
//! compile-time analysis avoids.
//!
//! All inspectors here detect the same Section 2 properties that the
//! compile-time analysis derives symbolically, so the two approaches can be
//! compared head-to-head on identical inputs.

use ss_properties::{ArrayProperty, PropertySet};
use ss_runtime::{team_parallel_reduce, time_it, with_shared_team, Schedule};
use std::collections::HashSet;

/// How an inspection is carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InspectorConfig {
    /// Number of threads used for the inspection scan itself.  Production
    /// inspector/executor systems parallelize the inspector; `1` models the
    /// straightforward serial inspector.
    pub threads: usize,
    /// Whether injectivity should be checked at all.  Injectivity needs a
    /// hash set (or a shadow array over the value domain) and is noticeably
    /// more expensive than the monotonicity scan; callers that only need
    /// monotonicity can switch it off.
    pub check_injectivity: bool,
}

impl InspectorConfig {
    /// A serial inspector checking every property.
    pub fn serial() -> InspectorConfig {
        InspectorConfig {
            threads: 1,
            check_injectivity: true,
        }
    }

    /// A parallel inspector checking every property.
    pub fn parallel(threads: usize) -> InspectorConfig {
        InspectorConfig {
            threads: threads.max(1),
            check_injectivity: true,
        }
    }

    /// A serial inspector that only performs the cheap monotonicity /
    /// non-negativity scan.
    pub fn monotonicity_only() -> InspectorConfig {
        InspectorConfig {
            threads: 1,
            check_injectivity: false,
        }
    }
}

/// The outcome of inspecting one index array.
#[derive(Debug, Clone)]
pub struct InspectionReport {
    /// Properties that hold for the inspected contents.  The set is closed
    /// under implication, exactly like the compile-time property database.
    pub properties: PropertySet,
    /// Number of elements inspected.
    pub elements: usize,
    /// Wall-clock seconds spent inspecting (the run-time overhead an
    /// inspector/executor scheme pays on this invocation).
    pub seconds: f64,
}

impl InspectionReport {
    /// True if the report licenses parallel execution of a loop that needs
    /// `required` (i.e. every required property was observed).
    pub fn licenses(&self, required: &PropertySet) -> bool {
        required.iter().all(|p| self.properties.has(p))
    }
}

/// Inspects `a` and reports every Section 2 property that holds for its
/// current contents.
pub fn inspect_index_array(a: &[i64], config: &InspectorConfig) -> InspectionReport {
    let (properties, seconds) = time_it(|| {
        let mut props = PropertySet::empty();
        let scan = scan_order(a, config.threads);
        if scan.strictly_increasing {
            props.insert(ArrayProperty::StrictMonotonicInc);
        } else if scan.non_decreasing {
            props.insert(ArrayProperty::MonotonicInc);
        }
        if scan.strictly_decreasing {
            props.insert(ArrayProperty::StrictMonotonicDec);
        } else if scan.non_increasing {
            props.insert(ArrayProperty::MonotonicDec);
        }
        if scan.non_negative {
            props.insert(ArrayProperty::NonNegative);
        }
        if scan.identity {
            props.insert(ArrayProperty::Identity);
        }
        if config.check_injectivity
            && !props.has(ArrayProperty::Injective)
            && is_injective_runtime(a, config.threads)
        {
            props.insert(ArrayProperty::Injective);
        }
        props
    });
    InspectionReport {
        properties,
        elements: a.len(),
        seconds,
    }
}

/// Inspects the *write-index multiset* of a scatter loop for conflicts: the
/// loop `target[index[i]] = f(i)` is output-dependence-free exactly when no
/// subscript value occurs twice.  `guard(i)` selects which iterations write
/// (Figure 5's `if (jmatch[i] >= 0)`); unguarded loops pass `|_| true`.
pub fn inspect_write_conflicts(index: &[i64], guard: impl Fn(usize) -> bool) -> InspectionReport {
    let (ok, seconds) = time_it(|| {
        let mut seen = HashSet::with_capacity(index.len());
        (0..index.len())
            .filter(|&i| guard(i))
            .all(|i| seen.insert(index[i]))
    });
    let mut properties = PropertySet::empty();
    if ok {
        properties.insert(ArrayProperty::Injective);
    }
    InspectionReport {
        properties,
        elements: index.len(),
        seconds,
    }
}

/// Partial order facts gathered by a single (possibly parallel) scan.
#[derive(Clone, Copy)]
struct OrderScan {
    non_decreasing: bool,
    non_increasing: bool,
    strictly_increasing: bool,
    strictly_decreasing: bool,
    non_negative: bool,
    identity: bool,
}

impl OrderScan {
    /// What holds of an empty scan; every element and adjacent pair seen
    /// can only clear facts.
    const VACUOUS: OrderScan = OrderScan {
        non_decreasing: true,
        non_increasing: true,
        strictly_increasing: true,
        strictly_decreasing: true,
        non_negative: true,
        identity: true,
    };

    fn and(self, c: OrderScan) -> OrderScan {
        OrderScan {
            non_decreasing: self.non_decreasing && c.non_decreasing,
            non_increasing: self.non_increasing && c.non_increasing,
            strictly_increasing: self.strictly_increasing && c.strictly_increasing,
            strictly_decreasing: self.strictly_decreasing && c.strictly_decreasing,
            non_negative: self.non_negative && c.non_negative,
            identity: self.identity && c.identity,
        }
    }
}

fn scan_order(a: &[i64], threads: usize) -> OrderScan {
    // Each chunk scans its own adjacent pairs plus the pair straddling its
    // left boundary, so the union of chunks covers every adjacent pair
    // exactly once and the scan parallelizes without synchronization.
    if threads <= 1 || a.len() <= 1 {
        return scan_chunk(a, 0..a.len(), OrderScan::VACUOUS);
    }
    with_shared_team(threads, |team| {
        team_parallel_reduce(
            team,
            a.len(),
            Schedule::Static,
            OrderScan::VACUOUS,
            |r, seen| scan_chunk(a, r, seen),
            OrderScan::and,
        )
    })
}

fn scan_chunk(a: &[i64], r: std::ops::Range<usize>, mut s: OrderScan) -> OrderScan {
    for i in r {
        let v = a[i];
        s.non_negative &= v >= 0;
        s.identity &= v == i as i64;
        if i > 0 {
            let prev = a[i - 1];
            s.non_decreasing &= prev <= v;
            s.strictly_increasing &= prev < v;
            s.non_increasing &= prev >= v;
            s.strictly_decreasing &= prev > v;
        }
    }
    s
}

/// Run-time injectivity check.  For dense, bounded-domain index arrays (the
/// common case for the benchmarks: subscripts are element indices of another
/// array) a bit-vector over the value range is used; otherwise a hash set.
fn is_injective_runtime(a: &[i64], threads: usize) -> bool {
    if a.is_empty() {
        return true;
    }
    let (min, max) = a
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = (max - min) as u128 + 1;
    // A value span of up to 4x the element count keeps the bit-vector small
    // and cache-friendly; beyond that, fall back to hashing.
    if span <= (a.len() as u128) * 4 {
        let mut seen = vec![false; span as usize];
        for &v in a {
            let slot = (v - min) as usize;
            if seen[slot] {
                return false;
            }
            seen[slot] = true;
        }
        true
    } else if threads <= 1 || a.len() < 1 << 14 {
        let mut seen = HashSet::with_capacity(a.len());
        a.iter().all(|&v| seen.insert(v))
    } else {
        // Parallel hash-based check: each worker builds the set for its
        // chunk (`None` once it has seen a duplicate), then the per-chunk
        // sets are merged.  (Merging is serial but touches each value once
        // more at most.)
        with_shared_team(threads, |team| {
            team_parallel_reduce(
                team,
                a.len(),
                Schedule::Static,
                Some(HashSet::new()),
                |r, seen| {
                    let mut seen = seen?;
                    seen.reserve(r.len());
                    a[r].iter().all(|&v| seen.insert(v)).then_some(seen)
                },
                |merged, chunk| {
                    let mut merged = merged?;
                    chunk?
                        .into_iter()
                        .all(|v| merged.insert(v))
                        .then_some(merged)
                },
            )
        })
        .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_properties::concrete;

    #[test]
    fn monotonic_but_not_injective_rowptr() {
        let rowptr = vec![0i64, 3, 3, 7, 12];
        let r = inspect_index_array(&rowptr, &InspectorConfig::serial());
        assert!(r.properties.has(ArrayProperty::MonotonicInc));
        assert!(!r.properties.has(ArrayProperty::StrictMonotonicInc));
        assert!(!r.properties.has(ArrayProperty::Injective));
        assert!(r.properties.has(ArrayProperty::NonNegative));
        assert_eq!(r.elements, 5);
    }

    #[test]
    fn permutation_is_injective_not_monotonic() {
        let perm = vec![3i64, 0, 2, 1, 4];
        let r = inspect_index_array(&perm, &InspectorConfig::serial());
        assert!(r.properties.has(ArrayProperty::Injective));
        assert!(!r.properties.has(ArrayProperty::MonotonicInc));
        assert!(!r.properties.has(ArrayProperty::MonotonicDec));
    }

    #[test]
    fn identity_implies_everything_upward() {
        let id: Vec<i64> = (0..100).collect();
        let r = inspect_index_array(&id, &InspectorConfig::serial());
        assert!(r.properties.has(ArrayProperty::Identity));
        assert!(r.properties.has(ArrayProperty::StrictMonotonicInc));
        assert!(r.properties.has(ArrayProperty::Injective));
        assert!(r.properties.has(ArrayProperty::NonNegative));
    }

    #[test]
    fn strictly_decreasing_detected() {
        let a: Vec<i64> = (0..50).rev().collect();
        let r = inspect_index_array(&a, &InspectorConfig::serial());
        assert!(r.properties.has(ArrayProperty::StrictMonotonicDec));
        assert!(r.properties.has(ArrayProperty::Injective));
    }

    #[test]
    fn parallel_and_serial_inspection_agree() {
        let inputs: Vec<Vec<i64>> = vec![
            (0..10_000).collect(),
            (0..10_000).rev().collect(),
            vec![5; 10_000],
            (0..10_000).map(|i| i / 3).collect(),
            (0..10_000).map(|i| (i * 7919) % 10_000).collect(),
            (0..10_000).map(|i| i - 5_000).collect(),
        ];
        for a in &inputs {
            let s = inspect_index_array(a, &InspectorConfig::serial());
            let p = inspect_index_array(a, &InspectorConfig::parallel(4));
            assert_eq!(
                s.properties,
                p.properties,
                "input disagrees: {:?}…",
                &a[..4]
            );
        }
    }

    #[test]
    fn inspection_agrees_with_concrete_verifiers() {
        let inputs: Vec<Vec<i64>> = vec![
            vec![],
            vec![7],
            vec![1, 1, 2, 3],
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 3, 1],
            vec![2, 9, 4, 4],
            vec![-3, -1, 0, 8],
        ];
        for a in &inputs {
            let r = inspect_index_array(a, &InspectorConfig::serial());
            for &p in ArrayProperty::all() {
                assert_eq!(
                    r.properties.has(p),
                    concrete::check_property(a, p),
                    "property {p} disagrees on {a:?}"
                );
            }
        }
    }

    #[test]
    fn injectivity_check_can_be_disabled() {
        let perm = vec![3i64, 0, 2, 1, 4];
        let r = inspect_index_array(&perm, &InspectorConfig::monotonicity_only());
        assert!(!r.properties.has(ArrayProperty::Injective));
    }

    #[test]
    fn hash_fallback_handles_sparse_value_domains() {
        // Values far apart force the HashSet path.
        let a: Vec<i64> = (0..1000).map(|i| i * 1_000_003).collect();
        let r = inspect_index_array(&a, &InspectorConfig::serial());
        assert!(r.properties.has(ArrayProperty::Injective));
        let mut b = a.clone();
        b[999] = b[0];
        let r = inspect_index_array(&b, &InspectorConfig::serial());
        assert!(!r.properties.has(ArrayProperty::Injective));
    }

    #[test]
    fn parallel_hash_injectivity_on_large_sparse_input() {
        let a: Vec<i64> = (0..40_000).map(|i| i * 1_000_003).collect();
        let r = inspect_index_array(&a, &InspectorConfig::parallel(4));
        assert!(r.properties.has(ArrayProperty::Injective));
        let mut b = a.clone();
        b[39_999] = b[17];
        let r = inspect_index_array(&b, &InspectorConfig::parallel(4));
        assert!(!r.properties.has(ArrayProperty::Injective));
    }

    #[test]
    fn write_conflict_inspection() {
        let index = vec![4i64, 2, 7, 2, 9];
        let all = inspect_write_conflicts(&index, |_| true);
        assert!(!all.properties.has(ArrayProperty::Injective));
        // Guarding out iteration 3 removes the duplicate write.
        let guarded = inspect_write_conflicts(&index, |i| i != 3);
        assert!(guarded.properties.has(ArrayProperty::Injective));
    }

    #[test]
    fn licenses_checks_all_required_properties() {
        let rowptr = vec![0i64, 3, 3, 7];
        let r = inspect_index_array(&rowptr, &InspectorConfig::serial());
        let need_mono = PropertySet::single(ArrayProperty::MonotonicInc);
        let need_inj = PropertySet::single(ArrayProperty::Injective);
        assert!(r.licenses(&need_mono));
        assert!(!r.licenses(&need_inj));
        assert!(r.licenses(&PropertySet::empty()));
    }
}
