//! Input synthesis: turn *any* parsed mini-C program into a concrete,
//! reproducible initial [`Heap`] so it can actually be executed.
//!
//! The programs of the paper's figures reference symbolic inputs — size
//! scalars like `nelt` or `ROWLEN`, and data arrays like the dense matrix
//! `a[i][j]` — and the array extents they need depend on the program's own
//! behavior (the number of nonzeros determines how long `value` must be).
//! Rather than asking the caller to size everything by hand, synthesis runs
//! a **discovery pass**: the program is executed once, serially, against a
//! growable recording store in which
//!
//! * every free scalar ([`ss_ir::free_scalars`]) is bound to the requested
//!   `scale`,
//! * a read of a never-written array element yields a deterministic
//!   pseudo-random value `hash(seed, array, indices) % scale`,
//! * every access records the maximal index per dimension.
//!
//! The discovered extents (+1) become the allocation sizes, and the initial
//! heap fills **every** array with the same hash values the discovery read —
//! so the real serial and parallel runs observe exactly the accesses the
//! discovery did, with no out-of-bounds surprises and no second source of
//! randomness.

use crate::engine::serial::exec_stmts;
use crate::engine::store::Store;
use crate::engine::{ExecEnvTiming, ExecError, ExecOptions, ExecStats};
use crate::heap::{ArrayVal, Heap};
use ss_ir::{free_scalars, Program};
use std::collections::HashMap;

/// Parameters of input synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSpec {
    /// Value given to every free scalar (loop bounds etc.), and the modulus
    /// of generated array data — so synthesized index values always lie in
    /// `0 .. scale`.
    pub scale: i64,
    /// Seed decorrelating the generated array data across runs.
    pub seed: u64,
}

impl Default for InputSpec {
    fn default() -> InputSpec {
        InputSpec { scale: 64, seed: 1 }
    }
}

/// The deterministic "initial memory" function: what array element
/// `name[indices]` contains before the program writes it.
pub fn input_value(seed: u64, name: &str, indices: &[i64], scale: i64) -> i64 {
    let mut h: u64 = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &i in indices {
        h ^= i as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // SplitMix64 finalizer for avalanche.
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % scale.max(1) as u64) as i64
}

#[derive(Default)]
struct DiscoveredArray {
    /// Max index seen per dimension (rank fixed by first access).
    max_index: Vec<i64>,
    /// Elements written so far during discovery, with current values.
    written: HashMap<Vec<i64>, i64>,
    /// Declared extents (for arrays introduced by `int a[n];`), which also
    /// fix the allocation even if the program touches less.  Declared arrays
    /// are zero-initialized — reads of unwritten elements must yield 0, like
    /// the real engines' `declare_array`, not synthesized input data.
    declared: Option<Vec<usize>>,
}

struct DiscoveryStore {
    scalars: HashMap<String, i64>,
    arrays: HashMap<String, DiscoveredArray>,
    spec: InputSpec,
}

impl DiscoveryStore {
    fn touch(&mut self, array: &str, indices: &[i64]) -> Result<&mut DiscoveredArray, ExecError> {
        let a = self.arrays.entry(array.to_string()).or_default();
        if a.max_index.is_empty() && a.written.is_empty() && a.declared.is_none() {
            a.max_index = vec![-1; indices.len()];
        }
        if indices.len() != a.max_index.len() {
            return Err(ExecError::ArityMismatch {
                array: array.to_string(),
                expected: a.max_index.len(),
                got: indices.len(),
            });
        }
        for (&idx, max) in indices.iter().zip(&mut a.max_index) {
            if idx < 0 {
                return Err(ExecError::OutOfBounds {
                    array: array.to_string(),
                    indices: indices.to_vec(),
                    dims: vec![],
                });
            }
            if idx > *max {
                *max = idx;
            }
        }
        Ok(a)
    }
}

impl Store for DiscoveryStore {
    fn scalar(&mut self, name: &str) -> i64 {
        self.scalars.get(name).copied().unwrap_or(0)
    }

    fn set_scalar(&mut self, name: &str, v: i64) {
        self.scalars.insert(name.to_string(), v);
    }

    fn read_elem(&mut self, array: &str, indices: &[i64]) -> Result<i64, ExecError> {
        let spec = self.spec;
        let a = self.touch(array, indices)?;
        Ok(match a.written.get(indices) {
            Some(&v) => v,
            None if a.declared.is_some() => 0,
            None => input_value(spec.seed, array, indices, spec.scale),
        })
    }

    fn write_elem(&mut self, array: &str, indices: &[i64], v: i64) -> Result<(), ExecError> {
        let a = self.touch(array, indices)?;
        a.written.insert(indices.to_vec(), v);
        Ok(())
    }

    fn declare_array(&mut self, name: &str, dims: Vec<usize>) {
        let a = self.arrays.entry(name.to_string()).or_default();
        a.max_index = dims.iter().map(|&d| d as i64 - 1).collect();
        a.declared = Some(dims);
        a.written.clear();
    }
}

/// Runs the discovery pass and builds the initial heap for `program`.
///
/// The returned heap is what every engine should start from; feeding
/// clones of it to each [`Engine`](crate::Engine) run guarantees all
/// executions observe identical initial memory.
pub fn synthesize_inputs(program: &Program, spec: &InputSpec) -> Result<Heap, ExecError> {
    let mut store = DiscoveryStore {
        scalars: free_scalars(program)
            .into_iter()
            .map(|s| (s, spec.scale))
            .collect(),
        arrays: HashMap::new(),
        spec: *spec,
    };
    let mut stats = ExecStats::default();
    let mut env = ExecEnvTiming {
        stats: &mut stats,
        timing: false,
        while_cap: ExecOptions::default().while_cap,
    };
    exec_stmts(&mut store, &program.body, &mut env)?;

    let mut heap = Heap::new();
    for name in free_scalars(program) {
        heap.scalars.insert(name, spec.scale);
    }
    for (name, d) in &store.arrays {
        let dims: Vec<usize> = match &d.declared {
            Some(dims) => dims.clone(),
            None => d
                .max_index
                .iter()
                .map(|&m| (m + 1).max(0) as usize)
                .collect(),
        };
        // Declared arrays start zeroed (their `Decl` re-zeroes them anyway);
        // everything else starts as synthesized input data.
        let mut data = vec![0; dims.iter().product()];
        if d.declared.is_none() {
            fill_with_input_values(&mut data, name, &dims, spec);
        }
        heap.arrays.insert(name.clone(), ArrayVal::new(dims, data));
    }
    Ok(heap)
}

fn fill_with_input_values(data: &mut [i64], name: &str, dims: &[usize], spec: &InputSpec) {
    let mut indices = vec![0i64; dims.len()];
    for elem in data {
        *elem = input_value(spec.seed, name, &indices, spec.scale);
        // Row-major increment.
        for d in (0..dims.len()).rev() {
            indices[d] += 1;
            if (indices[d] as usize) < dims[d] {
                break;
            }
            indices[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineRegistry, ExecOutcome};
    use ss_ir::parse_program;

    /// Runs `p` serially on the default registry engine (off a one-shot
    /// pipeline invocation).
    fn run_serial(p: &Program, heap: Heap) -> Result<ExecOutcome, crate::SsError> {
        let artifacts = ss_parallelizer::Artifacts::compile(p);
        EngineRegistry::builtin().default_engine().run_serial(
            &artifacts,
            heap,
            &ExecOptions::default(),
        )
    }

    #[test]
    fn discovery_sizes_arrays_from_observed_extents() {
        let p = parse_program(
            "fig2",
            r#"
            for (e = 0; e < nelt; e++) { mt_to_id[e] = e; }
            for (miel = 0; miel < nelt; miel++) {
                iel = mt_to_id[miel];
                id_to_mt[iel] = miel;
            }
        "#,
        )
        .unwrap();
        let spec = InputSpec { scale: 32, seed: 7 };
        let heap = synthesize_inputs(&p, &spec).unwrap();
        assert_eq!(heap.scalars["nelt"], 32);
        assert_eq!(heap.arrays["mt_to_id"].dims, vec![32]);
        assert_eq!(heap.arrays["id_to_mt"].dims, vec![32]);
        // The synthesized heap actually executes.
        let out = run_serial(&p, heap).unwrap();
        // mt_to_id was filled with the identity, so id_to_mt inverts it.
        assert_eq!(
            out.heap.arrays["id_to_mt"].data[..],
            (0..32).collect::<Vec<_>>()[..]
        );
    }

    #[test]
    fn data_dependent_extents_are_discovered() {
        // The length of `value` depends on how many generated a[i][j] are
        // nonzero — only discoverable by running the filling code.
        let p = parse_program(
            "fig9ish",
            r#"
            index = 0;
            for (i = 0; i < ROWLEN; i++) {
                for (j = 0; j < COLUMNLEN; j++) {
                    if (a[i][j] != 0) {
                        value[index] = a[i][j];
                        index++;
                    }
                }
            }
        "#,
        )
        .unwrap();
        let spec = InputSpec { scale: 16, seed: 3 };
        let heap = synthesize_inputs(&p, &spec).unwrap();
        assert_eq!(heap.arrays["a"].dims, vec![16, 16]);
        let nonzeros = heap.arrays["a"].data.iter().filter(|&&v| v != 0).count();
        assert!(nonzeros > 0);
        assert_eq!(heap.arrays["value"].dims, vec![nonzeros]);
        // Rerunning on the materialized heap stays in bounds and reproduces
        // the discovered fill count.
        let out = run_serial(&p, heap).unwrap();
        assert_eq!(out.heap.scalars["index"], nonzeros as i64);
    }

    #[test]
    fn generated_values_are_deterministic_and_bounded() {
        for idx in [vec![0i64], vec![5], vec![3, 4]] {
            let v1 = input_value(9, "arr", &idx, 50);
            let v2 = input_value(9, "arr", &idx, 50);
            assert_eq!(v1, v2);
            assert!((0..50).contains(&v1));
            assert_ne!(
                input_value(9, "arr", &idx, 1 << 62),
                input_value(10, "arr", &idx, 1 << 62),
                "seeds must decorrelate"
            );
        }
        assert_eq!(input_value(1, "x", &[0], 1), 0);
    }

    #[test]
    fn declared_arrays_use_their_declared_extents() {
        let p = parse_program(
            "t",
            r#"
            int buf[n];
            for (i = 0; i < 3; i++) { buf[i] = i; }
        "#,
        )
        .unwrap();
        let heap = synthesize_inputs(&p, &InputSpec { scale: 8, seed: 1 }).unwrap();
        assert_eq!(heap.arrays["buf"].dims, vec![8]);
    }

    #[test]
    fn negative_subscripts_fail_discovery() {
        let p = parse_program("t", "x = a[0 - 1];").unwrap();
        assert!(matches!(
            synthesize_inputs(&p, &InputSpec::default()),
            Err(ExecError::OutOfBounds { .. })
        ));
    }
}
