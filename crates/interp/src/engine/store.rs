//! The tree walker's pluggable stores: where scalar and array accesses
//! land during AST execution.
//!
//! | store           | used by              | backing                               |
//! |-----------------|----------------------|---------------------------------------|
//! | `HeapStore`     | the serial reference | whole heap                            |
//! | discovery store | input synthesis      | growable recording heap (in `inputs`) |

use super::ExecError;
use crate::heap::{ArrayVal, Heap};

/// Where scalar and array accesses land during AST execution.
pub(crate) trait Store {
    /// Reads a scalar; undefined scalars read as 0 (C-style zero init, and
    /// it keeps discovery and serial behavior identical).
    fn scalar(&mut self, name: &str) -> i64;
    /// Writes a scalar, creating it if needed.
    fn set_scalar(&mut self, name: &str, v: i64);
    /// Reads one array element.
    fn read_elem(&mut self, array: &str, indices: &[i64]) -> Result<i64, ExecError>;
    /// Writes one array element.
    fn write_elem(&mut self, array: &str, indices: &[i64], v: i64) -> Result<(), ExecError>;
    /// Declares an array with the given extents (zero-filled).
    fn declare_array(&mut self, name: &str, dims: Vec<usize>);
}

/// Store over the whole heap.
pub(crate) struct HeapStore<'h> {
    pub heap: &'h mut Heap,
}

impl Store for HeapStore<'_> {
    fn scalar(&mut self, name: &str) -> i64 {
        self.heap.scalars.get(name).copied().unwrap_or(0)
    }

    fn set_scalar(&mut self, name: &str, v: i64) {
        // Fast path without the String allocation: loop counters are
        // rewritten every iteration.
        match self.heap.scalars.get_mut(name) {
            Some(slot) => *slot = v,
            None => {
                self.heap.scalars.insert(name.to_string(), v);
            }
        }
    }

    fn read_elem(&mut self, array: &str, indices: &[i64]) -> Result<i64, ExecError> {
        let a = self
            .heap
            .arrays
            .get(array)
            .ok_or_else(|| ExecError::UndefinedArray(array.to_string()))?;
        elem_at(array, a, indices).map(|flat| a.data[flat])
    }

    fn write_elem(&mut self, array: &str, indices: &[i64], v: i64) -> Result<(), ExecError> {
        let a = self
            .heap
            .arrays
            .get_mut(array)
            .ok_or_else(|| ExecError::UndefinedArray(array.to_string()))?;
        let flat = elem_at(array, a, indices)?;
        a.data_mut_unstamped()[flat] = v;
        Ok(())
    }

    fn declare_array(&mut self, name: &str, dims: Vec<usize>) {
        self.heap
            .arrays
            .insert(name.to_string(), ArrayVal::zeros(dims));
    }
}

pub(crate) fn elem_at(name: &str, a: &ArrayVal, indices: &[i64]) -> Result<usize, ExecError> {
    if indices.len() != a.dims.len() {
        return Err(ExecError::ArityMismatch {
            array: name.to_string(),
            expected: a.dims.len(),
            got: indices.len(),
        });
    }
    a.flat_index(indices).ok_or_else(|| ExecError::OutOfBounds {
        array: name.to_string(),
        indices: indices.to_vec(),
        dims: a.dims.clone(),
    })
}
