//! Sparse-matrix substrate: CSR storage and the kernels that exhibit the
//! paper's subscripted-subscript patterns.
//!
//! The CSR (compressed sparse row) format is exactly the data structure the
//! paper's motivating example (Figure 9) constructs: `rowptr` is monotone
//! non-decreasing, `colidx`/`values` hold the per-row entries in
//! `rowptr[i] .. rowptr[i+1]`.
//!
//! The two ways a team region's members share an array live here as well:
//! [`BlockedVec`], the phase-disciplined view native CG's hand-written
//! loops vectorize through, and [`atomic_cells`], the relaxed-atomic view
//! every loop licensed by a verdict stores through.

use crate::pool::parallel_for_mut;
use std::marker::PhantomData;
use std::mem::{align_of, size_of};
use std::ops::Range;
use std::sync::atomic::AtomicU64;

/// A CSR matrix with `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row pointer (length `nrows + 1`, monotone non-decreasing).
    pub rowptr: Vec<usize>,
    /// Column index of each stored entry.
    pub colidx: Vec<usize>,
    /// Value of each stored entry.
    pub values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense row-major matrix, using the exact
    /// count / prefix-sum / fill structure of Figure 9.
    pub fn from_dense(dense: &[Vec<f64>]) -> CsrMatrix {
        let nrows = dense.len();
        let ncols = dense.first().map(|r| r.len()).unwrap_or(0);
        // lines 1–10: per-row non-zero counts and gathered entries
        let mut rowsize = vec![0usize; nrows];
        let mut colidx = Vec::new();
        let mut values = Vec::new();
        for (i, row) in dense.iter().enumerate() {
            let mut count = 0;
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    count += 1;
                    colidx.push(j);
                    values.push(v);
                }
            }
            rowsize[i] = count;
        }
        // lines 12–15: prefix sum (the monotone rowptr)
        let mut rowptr = vec![0usize; nrows + 1];
        for i in 1..=nrows {
            rowptr[i] = rowptr[i - 1] + rowsize[i - 1];
        }
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        }
    }

    /// Builds a CSR matrix directly from per-row `(column, value)` lists.
    pub fn from_rows(ncols: usize, rows: &[Vec<(usize, f64)>]) -> CsrMatrix {
        let nrows = rows.len();
        let mut rowptr = vec![0usize; nrows + 1];
        for i in 0..nrows {
            rowptr[i + 1] = rowptr[i] + rows[i].len();
        }
        let nnz = rowptr[nrows];
        let mut colidx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for (i, row) in rows.iter().enumerate() {
            let base = rowptr[i];
            for (k, &(c, v)) in row.iter().enumerate() {
                colidx[base + k] = c;
                values[base + k] = v;
            }
        }
        CsrMatrix {
            nrows,
            ncols,
            rowptr,
            colidx,
            values,
        }
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Checks the CSR invariants (monotone rowptr, in-range column indices).
    pub fn is_well_formed(&self) -> bool {
        self.rowptr.len() == self.nrows + 1
            && self.rowptr[0] == 0
            && *self.rowptr.last().unwrap() == self.values.len()
            && self.rowptr.windows(2).all(|w| w[0] <= w[1])
            && self.colidx.len() == self.values.len()
            && self.colidx.iter().all(|&c| c < self.ncols.max(1))
    }

    /// Sparse matrix–vector product `y = A x`, serial.
    pub fn spmv_serial(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(1, x, y);
    }

    /// Sparse matrix–vector product `y = A x` using `threads` threads.
    ///
    /// The row loop is exactly the Figure 3 / Figure 9 pattern: iteration `j`
    /// touches `colidx[rowstr[j] .. rowstr[j+1]]`; its parallelization is
    /// licensed by `rowptr`'s monotonicity.
    pub fn spmv(&self, threads: usize, x: &[f64], y: &mut [f64]) {
        assert_eq!(y.len(), self.nrows);
        parallel_for_mut(threads, y, |start, chunk| {
            self.spmv_rows(start..start + chunk.len(), x, chunk)
        });
    }

    /// The row sweep of [`spmv`](Self::spmv) over one block of rows:
    /// `y_block[k] = (A x)[rows.start + k]`.  What a member of a team
    /// region calls on the rows it owns.
    pub fn spmv_rows(&self, rows: Range<usize>, x: &[f64], y_block: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y_block.len(), rows.len());
        for (out, row) in y_block.iter_mut().zip(rows) {
            let mut sum = 0.0;
            for idx in self.rowptr[row]..self.rowptr[row + 1] {
                sum += self.values[idx] * x[self.colidx[idx]];
            }
            *out = sum;
        }
    }
}

/// A vector the members of one team region share *by phases*: in some
/// phases each member writes the block it owns, in others every member
/// reads the whole vector, and a [`Member::barrier`](crate::Member::barrier)
/// separates the two kinds.  Rust cannot see that discipline through
/// `&mut [f64]`, so the view goes through a raw pointer and each access
/// states what it relies on.
pub struct BlockedVec<'a> {
    ptr: *mut f64,
    len: usize,
    _borrow: PhantomData<&'a mut [f64]>,
}

// SAFETY: the view owns the exclusive borrow of the slice for `'a`, and
// every access through `&BlockedVec` is an `unsafe fn` whose caller vouches
// that no other thread touches the same elements concurrently.
unsafe impl Sync for BlockedVec<'_> {}

impl<'a> BlockedVec<'a> {
    /// Takes over `data` for the lifetime of the view.
    pub fn new(data: &'a mut [f64]) -> BlockedVec<'a> {
        BlockedVec {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _borrow: PhantomData,
        }
    }

    /// The caller's block, writable.
    ///
    /// # Safety
    /// From the barrier before this call to the barrier after the returned
    /// slice is last used, no other thread may read or write any element of
    /// `rows` (blocks of distinct members must be disjoint, and no member
    /// may hold a [`whole`](Self::whole) view in that phase).
    ///
    /// # Panics
    /// If `rows` does not lie inside the vector.
    #[allow(clippy::mut_from_ref)] // disjoint blocks of one shared vector
    pub unsafe fn block_mut(&self, rows: Range<usize>) -> &mut [f64] {
        assert!(rows.start <= rows.end && rows.end <= self.len);
        // SAFETY: in bounds (asserted); exclusive by the caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(rows.start), rows.len()) }
    }

    /// The whole vector, read-only.
    ///
    /// # Safety
    /// From the barrier before this call to the barrier after the returned
    /// slice is last used, no thread may write any element.
    pub unsafe fn whole(&self) -> &[f64] {
        // SAFETY: the view's own extent; unwritten by the caller's contract.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f64 {}
    impl Sealed for i64 {}
}

/// The element types [`atomic_cells`] views: eight bytes for which every
/// bit pattern is a valid value, so a `u64` stored through the view always
/// leaves a valid element behind.  Sealed, because the view's soundness
/// rests on exactly that.
pub trait Word: sealed::Sealed {}

impl Word for f64 {}

impl Word for i64 {}

/// `data`'s own cells as relaxed atomics, for as long as `data` is
/// borrowed.  The parallel loops a verdict licenses store through this
/// view, so taking it allocates and copies nothing, and on x86-64 a
/// `Relaxed` load or store is the plain `mov` a `&mut` access would be.
/// If the verdict licensing the loop is wrong after all, its members race
/// on values, never into undefined behaviour.  What orders one phase's
/// stores before the next phase's loads is the team's barrier (or the
/// region's end), not the view.
///
/// # Panics
/// If `T` is not eight bytes or `data` is not aligned for `AtomicU64`
/// (neither happens for `f64` and `i64` on a 64-bit target).
pub fn atomic_cells<T: Word>(data: &mut [T]) -> &[AtomicU64] {
    assert_eq!(size_of::<T>(), size_of::<AtomicU64>());
    assert_eq!(data.as_ptr() as usize % align_of::<AtomicU64>(), 0);
    // SAFETY: `AtomicU64::from_ptr`'s contract, for every cell at once:
    // each is 8 bytes and aligned for `AtomicU64` (asserted above), valid
    // for reads and writes, and — since `data`'s exclusive borrow lives
    // as long as the view — accessed only atomically while the view
    // exists.  `AtomicU64` has `u64`'s in-memory representation, and any
    // `u64` is a valid `T` (`Word`).
    unsafe { std::slice::from_raw_parts(data.as_mut_ptr().cast::<AtomicU64>(), data.len()) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn small_dense() -> Vec<Vec<f64>> {
        vec![
            vec![4.0, 0.0, 1.0, 0.0],
            vec![0.0, 3.0, 0.0, 0.0],
            vec![1.0, 0.0, 5.0, 2.0],
            vec![0.0, 0.0, 2.0, 6.0],
        ]
    }

    #[test]
    fn from_dense_builds_well_formed_csr() {
        let a = CsrMatrix::from_dense(&small_dense());
        assert!(a.is_well_formed());
        assert_eq!(a.nnz(), 8);
        assert_eq!(a.rowptr, vec![0, 2, 3, 6, 8]);
        assert_eq!(a.colidx, vec![0, 2, 1, 0, 2, 3, 2, 3]);
    }

    #[test]
    fn from_rows_matches_from_dense() {
        let dense = small_dense();
        let rows: Vec<Vec<(usize, f64)>> = dense
            .iter()
            .map(|r| {
                r.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(j, &v)| (j, v))
                    .collect()
            })
            .collect();
        assert_eq!(
            CsrMatrix::from_rows(4, &rows),
            CsrMatrix::from_dense(&dense)
        );
    }

    #[test]
    fn spmv_matches_dense_product_for_all_thread_counts() {
        let dense = small_dense();
        let a = CsrMatrix::from_dense(&dense);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let mut expected = vec![0.0; 4];
        for i in 0..4 {
            expected[i] = (0..4).map(|j| dense[i][j] * x[j]).sum();
        }
        for threads in [1, 2, 3, 8] {
            let mut y = vec![0.0; 4];
            a.spmv(threads, &x, &mut y);
            assert_eq!(y, expected, "threads = {threads}");
        }
    }

    #[test]
    fn atomic_cells_view_every_cell_at_every_offset() {
        // The size and alignment assertions hold for both words, for a
        // view that starts at any element and for an empty one.
        let mut ints: Vec<i64> = (0..9).map(|i| -i).collect();
        let mut floats: Vec<f64> = (0..9).map(|i| i as f64 / 4.0).collect();
        for start in 0..=9 {
            let cells = atomic_cells(&mut ints[start..]);
            assert_eq!(cells.len(), 9 - start);
            if let Some(c) = cells.first() {
                assert_eq!(c.load(Ordering::Relaxed) as i64, -(start as i64));
                c.store(start as u64 * 10, Ordering::Relaxed);
            }
            let cells = atomic_cells(&mut floats[start..]);
            assert_eq!(cells.len(), 9 - start);
            if let Some(c) = cells.first() {
                assert_eq!(
                    f64::from_bits(c.load(Ordering::Relaxed)),
                    start as f64 / 4.0
                );
                c.store((-1.5f64).to_bits(), Ordering::Relaxed);
            }
        }
        // Every store landed in the caller's own buffer.
        assert_eq!(ints, (0..9).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(floats, vec![-1.5; 9]);
    }
}
