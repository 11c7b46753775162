//! # ss-properties — index-array property algebra
//!
//! The properties of Section 2 of *Compile-time Parallelization of
//! Subscripted Subscript Patterns* — injectivity, (strict) monotonicity,
//! monotonic differences, injective subsets — together with:
//!
//! * [`property`] — the property lattice (implication closure, meet/join);
//! * [`database`] — the [`PropertyDatabase`] the aggregation pass fills and
//!   the extended Range Test consumes;
//! * [`concrete`] — run-time verifiers, the oracle tests check derived
//!   facts and the runtime inspector against.
//!
//! ```
//! use ss_properties::{ArrayProperty, PropertySet};
//!
//! let strict = PropertySet::single(ArrayProperty::StrictMonotonicInc);
//! // strict monotonicity implies injectivity (Section 2, property 2b)
//! assert!(strict.has(ArrayProperty::Injective));
//! ```

pub mod concrete;
pub mod database;
pub mod property;

pub use database::{ArrayFact, FilterOp, GuardedFact, PropertyDatabase, ValueFilter};
pub use property::{ArrayProperty, PropertySet};
