//! The interpreter's typed heap: named integer scalars and dense row-major
//! integer arrays.
//!
//! The mini-C language is integer-only (`int` scalars, `int` arrays of any
//! rank), so one value type suffices.  Both engines execute against a
//! [`Heap`]; the differential harness compares final heaps with [`Heap::diff`],
//! whose output is deterministic because both maps are ordered.  Arrays
//! carry write generations (see [`ArrayVal`]).

use crate::engine::ExecError;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn fresh_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// An array's row-major elements: read through `Deref<Target = [i64]>`,
/// written only through [`ArrayVal::data_mut`], so no write can skip the
/// generation the array carries.  A boxed slice, since the length never
/// changes: that keeps [`ArrayVal`], generation included, at six words,
/// the stride of the slot table the executors index on every access.
#[derive(Clone, PartialEq, Eq)]
pub struct ArrayData(Box<[i64]>);

impl Deref for ArrayData {
    type Target = [i64];

    #[inline(always)]
    fn deref(&self) -> &[i64] {
        &self.0
    }
}

impl std::fmt::Debug for ArrayData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// A dense, row-major integer array with explicit extents.
///
/// **Generations.**  Every array carries a generation, a `u64` drawn from
/// a process-wide counter that stands for "these exact contents": two
/// live arrays with the same generation hold the same elements.  The
/// constructors draw a fresh one, `Clone` copies it, and
/// [`data_mut`](Self::data_mut) draws a fresh one before handing out the
/// elements.  The engines write through a crate-private accessor that
/// does not, under one rule: before a program runs, every array it writes
/// gets a fresh generation, so arrays it only reads keep theirs across
/// runs — and the level-set schedule cache proves them unchanged in O(1).
/// The one exception is the level-set inspection's private shadow copies,
/// which no cache ever sees and which are dropped after the replay.
///
/// Equality compares extents and contents only, never generations.
#[derive(Debug, Clone)]
pub struct ArrayVal {
    /// Extent of each dimension (rank = `dims.len()`).
    pub dims: Vec<usize>,
    /// Row-major element storage; `data.len() == dims.iter().product()`.
    pub data: ArrayData,
    generation: u64,
}

impl PartialEq for ArrayVal {
    fn eq(&self, other: &ArrayVal) -> bool {
        self.dims == other.dims && self.data == other.data
    }
}

impl Eq for ArrayVal {}

impl ArrayVal {
    /// An array of the given extents holding `data` in row-major order.
    ///
    /// # Panics
    /// When `data.len()` is not the product of `dims`.
    pub fn new(dims: Vec<usize>, data: Vec<i64>) -> ArrayVal {
        assert_eq!(
            Some(data.len()),
            cells(&dims),
            "array data does not fill extents {dims:?}"
        );
        ArrayVal {
            dims,
            data: ArrayData(data.into_boxed_slice()),
            generation: fresh_generation(),
        }
    }

    /// A zero-filled array of the given extents.
    ///
    /// # Panics
    /// When the product of `dims` overflows `usize`.
    pub fn zeros(dims: Vec<usize>) -> ArrayVal {
        let len = cells(&dims).expect("array extents overflow usize");
        ArrayVal::new(dims, vec![0; len])
    }

    /// The zero-filled array a program's `int name[dims];` declares.  Fails
    /// with `OutOfBounds { dims: [] }`, naming the declared extents, when it
    /// would hold more than [`MAX_ARRAY_CELLS`] — as input discovery fails
    /// on the same declaration.
    pub(crate) fn declared(name: &str, dims: Vec<usize>) -> Result<ArrayVal, ExecError> {
        let len = declared_cells(name, &dims)?;
        Ok(ArrayVal::new(dims, vec![0; len]))
    }

    /// A 1-D array holding the given values.
    pub fn from_vec(data: Vec<i64>) -> ArrayVal {
        ArrayVal::new(vec![data.len()], data)
    }

    /// The generation of the current contents (see the type's docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The elements, writable; draws a fresh generation first.
    pub fn data_mut(&mut self) -> &mut [i64] {
        self.restamp();
        &mut self.data.0
    }

    /// The elements, writable, keeping the generation.  Only the engines
    /// may write through this, and only to arrays the engine rule
    /// restamped (or created) for the run — CI greps for it.
    #[inline(always)]
    pub(crate) fn data_mut_unstamped(&mut self) -> &mut [i64] {
        &mut self.data.0
    }

    /// Draws a fresh generation: the contents may be about to change.
    pub(crate) fn restamp(&mut self) {
        self.generation = fresh_generation();
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major flat offset of `indices`, or `None` when any index is
    /// negative or out of its extent (rank mismatches are the caller's to
    /// check against `dims.len()`).
    pub fn flat_index(&self, indices: &[i64]) -> Option<usize> {
        row_major_flat(&self.dims, indices)
    }
}

/// The most cells one array of a running program may hold (512 MiB of
/// `i64`): a declaration, or a subscript input discovery would grow an
/// undeclared array to, that needs more fails like a negative subscript.
/// The largest buffer any catalogue kernel or benchmark program needs at
/// the wire's `MAX_SCALE` of 2048 is a 2048 × 2048 matrix, 4,194,304
/// cells, so this leaves 16× headroom.
pub(crate) const MAX_ARRAY_CELLS: usize = 1 << 26;

/// The number of cells of an array of extents `dims`; `None` past `usize`.
fn cells(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1, |n: usize, &d| n.checked_mul(d))
}

/// The number of cells of an array of extents `dims`; `None` past
/// [`MAX_ARRAY_CELLS`] (or past `usize`).
pub(crate) fn capped_cells(dims: &[usize]) -> Option<usize> {
    cells(dims).filter(|&n| n <= MAX_ARRAY_CELLS)
}

/// [`capped_cells`] of a declaration of `name`, or the error the
/// declaration fails with.
pub(crate) fn declared_cells(name: &str, dims: &[usize]) -> Result<usize, ExecError> {
    capped_cells(dims).ok_or_else(|| ExecError::OutOfBounds {
        array: name.to_string(),
        indices: dims.iter().map(|&d| d as i64).collect(),
        dims: vec![],
    })
}

/// Row-major flat offset of `indices` within `dims`; `None` when the rank
/// differs or any index is negative or out of its extent.  The single
/// source of indexing truth for both the heap and the shared worker views.
pub fn row_major_flat(dims: &[usize], indices: &[i64]) -> Option<usize> {
    if indices.len() != dims.len() {
        return None;
    }
    let mut flat = 0usize;
    for (&idx, &extent) in indices.iter().zip(dims) {
        if idx < 0 || idx as usize >= extent {
            return None;
        }
        flat = flat * extent + idx as usize;
    }
    Some(flat)
}

/// Program state: scalar and array bindings by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Heap {
    /// Integer scalars.
    pub scalars: BTreeMap<String, i64>,
    /// Integer arrays.
    pub arrays: BTreeMap<String, ArrayVal>,
}

impl Heap {
    /// An empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Binds a scalar (builder style).
    pub fn with_scalar(mut self, name: impl Into<String>, v: i64) -> Heap {
        self.scalars.insert(name.into(), v);
        self
    }

    /// Binds a 1-D array (builder style).
    pub fn with_array(mut self, name: impl Into<String>, data: Vec<i64>) -> Heap {
        self.arrays.insert(name.into(), ArrayVal::from_vec(data));
        self
    }

    /// Human-readable differences between two heaps (empty when equal):
    /// scalar mismatches, shape mismatches, and the first few differing
    /// elements per array.
    pub fn diff(&self, other: &Heap) -> Vec<String> {
        const MAX_ELEMS_PER_ARRAY: usize = 3;
        let mut out = Vec::new();
        let scalar_names: std::collections::BTreeSet<&String> =
            self.scalars.keys().chain(other.scalars.keys()).collect();
        for name in scalar_names {
            match (self.scalars.get(name), other.scalars.get(name)) {
                (Some(a), Some(b)) if a != b => out.push(format!("scalar {name}: {a} != {b}")),
                (Some(a), None) => out.push(format!("scalar {name}: {a} != <absent>")),
                (None, Some(b)) => out.push(format!("scalar {name}: <absent> != {b}")),
                _ => {}
            }
        }
        let array_names: std::collections::BTreeSet<&String> =
            self.arrays.keys().chain(other.arrays.keys()).collect();
        for name in array_names {
            match (self.arrays.get(name), other.arrays.get(name)) {
                (Some(a), Some(b)) => {
                    if a.dims != b.dims {
                        out.push(format!("array {name}: dims {:?} != {:?}", a.dims, b.dims));
                        continue;
                    }
                    let mut shown = 0;
                    let mut differing = 0usize;
                    for (i, (x, y)) in a.data.iter().zip(b.data.iter()).enumerate() {
                        if x != y {
                            differing += 1;
                            if shown < MAX_ELEMS_PER_ARRAY {
                                out.push(format!("array {name}[{i}]: {x} != {y}"));
                                shown += 1;
                            }
                        }
                    }
                    if differing > shown {
                        out.push(format!(
                            "array {name}: {} more differing element(s)",
                            differing - shown
                        ));
                    }
                }
                (Some(a), None) => out.push(format!("array {name}: {:?} != <absent>", a.dims)),
                (None, Some(b)) => out.push(format!("array {name}: <absent> != {:?}", b.dims)),
                (None, None) => unreachable!(),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_indexing_is_row_major_and_bounds_checked() {
        let a = ArrayVal::zeros(vec![3, 4]);
        assert_eq!(a.len(), 12);
        assert_eq!(a.flat_index(&[0, 0]), Some(0));
        assert_eq!(a.flat_index(&[1, 0]), Some(4));
        assert_eq!(a.flat_index(&[2, 3]), Some(11));
        assert_eq!(a.flat_index(&[3, 0]), None);
        assert_eq!(a.flat_index(&[0, 4]), None);
        assert_eq!(a.flat_index(&[-1, 0]), None);
        assert_eq!(a.flat_index(&[0]), None);
        assert!(ArrayVal::zeros(vec![0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not fill extents")]
    fn extents_whose_product_wraps_do_not_describe_an_empty_array() {
        ArrayVal::new(vec![1 << 32, 1 << 32], Vec::new());
    }

    #[test]
    fn declarations_past_the_cell_cap_fail() {
        assert_eq!(ArrayVal::declared("a", vec![4, 8]).unwrap().len(), 32);
        for dims in [vec![1 << 32, 1 << 32], vec![1 << 40], vec![8192, 8193]] {
            assert_eq!(
                ArrayVal::declared("a", dims.clone()),
                Err(ExecError::OutOfBounds {
                    array: "a".into(),
                    indices: dims.iter().map(|&d| d as i64).collect(),
                    dims: vec![],
                })
            );
        }
    }

    #[test]
    fn diff_reports_scalars_arrays_and_shapes() {
        let a = Heap::new()
            .with_scalar("n", 4)
            .with_array("x", vec![1, 2, 3]);
        let same = a.clone();
        assert!(a.diff(&same).is_empty());

        let b = Heap::new()
            .with_scalar("n", 5)
            .with_array("x", vec![1, 9, 3]);
        let d = a.diff(&b);
        assert!(d.iter().any(|m| m.contains("scalar n: 4 != 5")));
        assert!(d.iter().any(|m| m.contains("array x[1]: 2 != 9")));

        let c = Heap::new().with_array("x", vec![1, 2]);
        let d = a.diff(&c);
        assert!(d.iter().any(|m| m.contains("scalar n: 4 != <absent>")));
        assert!(d.iter().any(|m| m.contains("dims")));
    }

    #[test]
    fn equality_ignores_generations() {
        let a = Heap::new().with_array("x", vec![1, 2, 3]);
        let b = Heap::new().with_array("x", vec![1, 2, 3]);
        assert_ne!(a.arrays["x"].generation(), b.arrays["x"].generation());
        assert_eq!(a, b);
        assert!(a.diff(&b).is_empty());
        // A clone shares the generation; a write through `data_mut` does not.
        let mut c = a.clone();
        assert_eq!(c.arrays["x"].generation(), a.arrays["x"].generation());
        c.arrays.get_mut("x").unwrap().data_mut()[0] = 1;
        assert_ne!(c.arrays["x"].generation(), a.arrays["x"].generation());
        assert_eq!(a, c);
    }

    #[test]
    fn array_slots_stay_six_words() {
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<Option<ArrayVal>>(), 6 * word);
    }

    #[test]
    fn diff_truncates_long_element_lists() {
        let a = Heap::new().with_array("x", vec![0; 100]);
        let b = Heap::new().with_array("x", vec![1; 100]);
        let d = a.diff(&b);
        assert!(d.len() <= 5);
        assert!(d.iter().any(|m| m.contains("more differing")));
    }
}
