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
//! * every free scalar ([`Program::free_scalars`]) is bound to the requested
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
//!
//! The pass runs the program's O1 bytecode stream on the direct-threaded
//! chain (`engine::threaded`), lowered for store kind `DiscoverKind` —
//! O1 never drops a load, so the chain makes every access the program
//! does.  Its store keeps one dense row-major buffer per array slot: the
//! rank is fixed by the first access (or declaration), and an index past
//! the buffer grows that dimension geometrically, filling the new cells
//! with [`input_value`].  A declared array keeps its declared extent; the
//! cells a program touches past it, where its real run fails, are kept
//! aside rather than allocated.  A negative subscript, or one that would
//! grow an array past `heap::MAX_ARRAY_CELLS`, fails with
//! `OutOfBounds { dims: [] }`, as does a declaration whose extents hold
//! more cells than that; a rank mismatch fails with `ArityMismatch`;
//! division and runaway loops fail as in every engine.

use crate::engine::threaded::{lowered, run_chain};
use crate::engine::{ArrayStore, ExecError, ExecOptions, StoreKind};
use crate::heap::{capped_cells, declared_cells, ArrayVal, Heap};
use ss_ir::opt::OptLevel;
use ss_ir::slots::ArraySlot;
use ss_ir::Program;
use ss_parallelizer::Artifacts;
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
    let f = InputFn::new(seed, name, scale);
    f.finish(f.absorb(indices))
}

/// [`input_value`] for one array, with the seed and the name folded into
/// the hash once.
#[derive(Clone, Copy)]
struct InputFn {
    h: u64,
    scale: u64,
}

impl InputFn {
    fn new(seed: u64, name: &str, scale: i64) -> InputFn {
        let mut h: u64 = seed ^ 0x9e37_79b9_7f4a_7c15;
        for b in name.bytes() {
            h = step(h, b as u64);
        }
        InputFn {
            h,
            scale: scale.max(1) as u64,
        }
    }

    /// The hash state after `indices`.
    fn absorb(self, indices: &[i64]) -> u64 {
        indices.iter().fold(self.h, |h, &i| step(h, i as u64))
    }

    fn finish(self, mut h: u64) -> i64 {
        // SplitMix64 finalizer for avalanche.
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h % self.scale) as i64
    }

    /// Fills `row` with the values of `prefix ++ [from + k]`, k = 0, 1, ….
    fn fill(self, prefix: &[i64], from: usize, row: &mut [i64]) {
        let h = self.absorb(prefix);
        for (k, cell) in row.iter_mut().enumerate() {
            *cell = self.finish(step(h, (from + k) as u64));
        }
    }
}

fn step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Calls `f(prefix, row)` on each last-dimension row of the row-major
/// buffer `data` over `dims`, in order; `prefix` holds the row's leading
/// indices.
fn for_each_row(dims: &[usize], data: &mut [i64], mut f: impl FnMut(&[i64], &mut [i64])) {
    let Some((&last, outer)) = dims.split_last() else {
        return;
    };
    let mut prefix = vec![0i64; outer.len()];
    for row in data.chunks_exact_mut(last.max(1)) {
        f(&prefix, row);
        for d in (0..outer.len()).rev() {
            prefix[d] += 1;
            if (prefix[d] as usize) < outer[d] {
                break;
            }
            prefix[d] = 0;
        }
    }
}

fn fill_with_input_values(data: &mut [i64], name: &str, dims: &[usize], spec: &InputSpec) {
    let f = InputFn::new(spec.seed, name, spec.scale);
    for_each_row(dims, data, |prefix, row| f.fill(prefix, 0, row));
}

// ---------------------------------------------------------------------------
// The discovery store.
// ---------------------------------------------------------------------------

/// One array as discovery sees it.
struct Discovered {
    /// Max index seen per dimension; its length is the rank, fixed by the
    /// first access or declaration.
    max: Vec<i64>,
    /// Allocated extent per dimension; `data` is row-major over it.
    cap: Vec<usize>,
    data: Vec<i64>,
    /// `Some` for arrays introduced by `int a[n];`.  Their extent is the
    /// declared one, which fixes the allocation even if the program
    /// touches less, and they are zero-initialized — reads of unwritten
    /// elements must yield 0, like the real engines' `declare_array`, not
    /// synthesized input data.  They never grow: the cells a program
    /// touches past the extent, where its real run fails, live here.
    declared: Option<HashMap<Vec<i64>, i64>>,
}

impl Discovered {
    fn fresh(rank: usize) -> Discovered {
        Discovered {
            max: vec![-1; rank],
            declared: None,
            cap: vec![0; rank],
            data: Vec::new(),
        }
    }

    fn declared(dims: Vec<usize>, cells: usize) -> Discovered {
        Discovered {
            max: dims.iter().map(|&d| d as i64 - 1).collect(),
            data: vec![0; cells],
            cap: dims,
            declared: Some(HashMap::new()),
        }
    }

    /// Grows every dimension `indices` overruns to at least twice its
    /// extent, keeping the cells held so far and filling the new ones
    /// from `fill`.  `false`, with nothing changed, when the grown buffer
    /// would hold more than [`MAX_ARRAY_CELLS`](crate::heap::MAX_ARRAY_CELLS).
    fn grow(&mut self, indices: &[i64], fill: InputFn) -> bool {
        let cap: Vec<usize> = (self.cap.iter().zip(indices))
            .map(|(&c, &i)| match i as usize {
                i if i < c => c,
                i => (i + 1).max(2 * c),
            })
            .collect();
        let Some(cells) = capped_cells(&cap) else {
            return false;
        };
        let (old, (&old_last, old_outer)) = (&self.data, self.cap.split_last().expect("rank ≥ 1"));
        let mut data = vec![0; cells];
        for_each_row(&cap, &mut data, |prefix, row| {
            let held = prefix
                .iter()
                .zip(old_outer)
                .all(|(&p, &c)| (p as usize) < c);
            let kept = if held { old_last } else { 0 };
            if kept > 0 {
                let r = (prefix.iter().zip(old_outer)).fold(0, |r, (&p, &c)| r * c + p as usize);
                row[..kept].copy_from_slice(&old[r * kept..(r + 1) * kept]);
            }
            fill.fill(prefix, kept, &mut row[kept..]);
        });
        self.cap = cap;
        self.data = data;
        true
    }
}

/// The discovery pass's array store: one [`Discovered`] per array slot,
/// created by the first access.
pub(crate) struct DiscoverArrays<'s> {
    names: &'s [String],
    arrays: Vec<Option<Discovered>>,
    spec: InputSpec,
}

impl DiscoverArrays<'_> {
    /// Element `indices` of `a`, recording the access and growing the
    /// buffer to hold it.
    fn cell(&mut self, a: ArraySlot, indices: &[i64]) -> Result<&mut i64, ExecError> {
        let name = &self.names[a.index()];
        let arr = self.arrays[a.index()].get_or_insert_with(|| Discovered::fresh(indices.len()));
        if indices.len() != arr.max.len() {
            return Err(ExecError::ArityMismatch {
                array: name.clone(),
                expected: arr.max.len(),
                got: indices.len(),
            });
        }
        let out_of_bounds = || ExecError::OutOfBounds {
            array: name.clone(),
            indices: indices.to_vec(),
            dims: vec![],
        };
        let mut fits = true;
        for ((&i, max), &cap) in indices.iter().zip(&mut arr.max).zip(&arr.cap) {
            if i < 0 {
                return Err(out_of_bounds());
            }
            *max = (*max).max(i);
            fits &= (i as usize) < cap;
        }
        if !fits {
            match arr.declared {
                None => {
                    let fill = InputFn::new(self.spec.seed, name, self.spec.scale);
                    if !arr.grow(indices, fill) {
                        return Err(out_of_bounds());
                    }
                }
                Some(ref mut past) => return Ok(past.entry(indices.to_vec()).or_insert(0)),
            }
        }
        let flat = (indices.iter().zip(&arr.cap)).fold(0, |f, (&i, &c)| f * c + i as usize);
        Ok(&mut arr.data[flat])
    }

    /// The cell of an in-buffer rank-1 (`j = None`) or rank-2 access to
    /// `a`, its maxima updated; `None` sends the access down [`cell`]
    /// (fresh array, other rank, negative or past the buffer).
    ///
    /// [`cell`]: Self::cell
    #[inline(always)]
    fn fast(&mut self, a: ArraySlot, i: i64, j: Option<i64>) -> Option<&mut i64> {
        let arr = self.arrays[a.index()].as_mut()?;
        let ui = usize::try_from(i).ok()?;
        match (j, &mut arr.max[..], &arr.cap[..]) {
            (None, [m], &[c]) if ui < c => {
                *m = (*m).max(i);
                Some(&mut arr.data[ui])
            }
            (Some(j), [m0, m1], &[c0, c1]) if ui < c0 => {
                let uj = usize::try_from(j).ok().filter(|&uj| uj < c1)?;
                *m0 = (*m0).max(i);
                *m1 = (*m1).max(j);
                Some(&mut arr.data[ui * c1 + uj])
            }
            _ => None,
        }
    }
}

impl ArrayStore for DiscoverArrays<'_> {
    fn read(&mut self, a: ArraySlot, indices: &[i64]) -> Result<i64, ExecError> {
        self.cell(a, indices).map(|c| *c)
    }

    fn write(&mut self, a: ArraySlot, indices: &[i64], v: i64) -> Result<(), ExecError> {
        *self.cell(a, indices)? = v;
        Ok(())
    }

    /// Fails like every engine's declaration past
    /// [`MAX_ARRAY_CELLS`](crate::heap::MAX_ARRAY_CELLS).
    fn declare(&mut self, a: ArraySlot, dims: Vec<usize>) -> Result<(), ExecError> {
        let cells = declared_cells(&self.names[a.index()], &dims)?;
        self.arrays[a.index()] = Some(Discovered::declared(dims, cells));
        Ok(())
    }

    #[inline(always)]
    fn read1(&mut self, a: ArraySlot, i: i64) -> Result<i64, ExecError> {
        match self.fast(a, i, None) {
            Some(c) => Ok(*c),
            None => self.read(a, &[i]),
        }
    }

    #[inline(always)]
    fn write1(&mut self, a: ArraySlot, i: i64, v: i64) -> Result<(), ExecError> {
        match self.fast(a, i, None) {
            Some(c) => {
                *c = v;
                Ok(())
            }
            None => self.write(a, &[i], v),
        }
    }

    #[inline(always)]
    fn read2(&mut self, a: ArraySlot, i: i64, j: i64) -> Result<i64, ExecError> {
        match self.fast(a, i, Some(j)) {
            Some(c) => Ok(*c),
            None => self.read(a, &[i, j]),
        }
    }

    #[inline(always)]
    fn write2(&mut self, a: ArraySlot, i: i64, j: i64, v: i64) -> Result<(), ExecError> {
        match self.fast(a, i, Some(j)) {
            Some(c) => {
                *c = v;
                Ok(())
            }
            None => self.write(a, &[i, j], v),
        }
    }
}

/// The discovery pass's store kind: [`DiscoverArrays`].
pub(crate) enum DiscoverKind {}

impl StoreKind for DiscoverKind {
    type Arrays<'s> = DiscoverArrays<'s>;
    const INDEX: u8 = 3;
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

/// Runs the discovery pass and builds the initial heap for `program`.
///
/// The returned heap is what every engine should start from; feeding
/// clones of it to each [`Engine`](crate::Engine) run guarantees all
/// executions observe identical initial memory.
pub fn synthesize_inputs(program: &Program, spec: &InputSpec) -> Result<Heap, ExecError> {
    synthesize_for(&Artifacts::compile(program), spec)
}

/// Runs the discovery pass on the artifacts' O1 stream, its lowering
/// cached on them, and builds the initial heap.
pub(crate) fn synthesize_for(artifacts: &Artifacts, spec: &InputSpec) -> Result<Heap, ExecError> {
    let (program, bc) = (&artifacts.program, artifacts.bytecode_at(OptLevel::O1));
    let chain = lowered::<DiscoverKind>(artifacts, OptLevel::O1);
    let free = program.free_scalars();
    let mut scalars = vec![0; bc.slots.scalar_count()];
    for name in &free {
        if let Some(slot) = bc.slots.scalar_slot(name) {
            scalars[slot.index()] = spec.scale;
        }
    }
    let names = bc.slots.array_names();
    let store = DiscoverArrays {
        names,
        arrays: names.iter().map(|_| None).collect(),
        spec: *spec,
    };
    let while_cap = ExecOptions::default().while_cap;
    let store = run_chain::<DiscoverKind>(&chain, scalars, store, while_cap)?;

    let mut heap = Heap::new();
    for name in free {
        heap.scalars.insert(name, spec.scale);
    }
    for (name, d) in names.iter().zip(store.arrays) {
        let Some(d) = d else { continue };
        // The discovery buffer goes before the heap's array is allocated.
        drop(d.data);
        let declared = d.declared.is_some();
        let dims: Vec<usize> = if declared {
            d.cap
        } else {
            d.max.iter().map(|&m| (m + 1).max(0) as usize).collect()
        };
        // Declared arrays start zeroed (their `Decl` re-zeroes them anyway);
        // everything else starts as synthesized input data.
        let mut data = vec![0; dims.iter().product()];
        if !declared {
            fill_with_input_values(&mut data, name, &dims, spec);
        }
        heap.arrays.insert(name.clone(), ArrayVal::new(dims, data));
    }
    Ok(heap)
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
        assert_eq!(
            synthesize_inputs(&p, &InputSpec::default()).unwrap_err(),
            ExecError::OutOfBounds {
                array: "a".into(),
                indices: vec![-1],
                dims: vec![],
            }
        );
    }

    #[test]
    fn a_subscript_past_the_cell_cap_fails_discovery() {
        // 2^40 cells would be 8 TiB: discovery refuses before allocating.
        let p = parse_program("t", "x = a[1099511627776];").unwrap();
        assert_eq!(
            synthesize_inputs(&p, &InputSpec::default()).unwrap_err(),
            ExecError::OutOfBounds {
                array: "a".into(),
                indices: vec![1 << 40],
                dims: vec![],
            }
        );
        // Rank 2: each extent fits alone, their product does not.
        let p = parse_program("t", "x = m[8192][8192];").unwrap();
        assert!(matches!(
            synthesize_inputs(&p, &InputSpec::default()),
            Err(ExecError::OutOfBounds { dims, .. }) if dims.is_empty()
        ));
    }

    #[test]
    fn a_declaration_past_the_cell_cap_fails_discovery() {
        // `int a[2^40];` would be 8 TiB; in rank 2 the product of two
        // 2^32 extents wraps to 0 in a release build's unchecked `usize`.
        for (src, indices) in [
            ("int a[1099511627776];", vec![1i64 << 40]),
            ("int a[4294967296][4294967296];", vec![1 << 32, 1 << 32]),
            // Just past the cap, by 8,192 cells.
            ("int a[8192][8193];", vec![8192, 8193]),
        ] {
            let p = parse_program("t", src).unwrap();
            assert_eq!(
                synthesize_inputs(&p, &InputSpec::default()).unwrap_err(),
                ExecError::OutOfBounds {
                    array: "a".into(),
                    indices,
                    dims: vec![],
                },
                "{src}"
            );
        }
    }

    #[test]
    fn two_data_dependent_extents_survive_regrowth() {
        // Both extents of `m` come from input data and are never powers of
        // two; `m` is filled row by row, so both dimensions grow past their
        // capacity while earlier writes must survive.  `out`'s extent is
        // read back out of `m`'s last cell.
        let p = parse_program(
            "t",
            r#"
            r = a[0] % 6 + 9;
            c = a[1] % 6 + 17;
            for (i = 0; i < r; i++) {
                for (j = 0; j < c; j++) { m[i][j] = i * c + j; }
            }
            out[m[r - 1][c - 1]] = 1;
        "#,
        )
        .unwrap();
        let spec = InputSpec {
            scale: 100,
            seed: 11,
        };
        let heap = synthesize_inputs(&p, &spec).unwrap();
        let r = input_value(11, "a", &[0], 100) as usize % 6 + 9;
        let c = input_value(11, "a", &[1], 100) as usize % 6 + 17;
        assert_eq!(heap.arrays["m"].dims, vec![r, c]);
        assert_eq!(heap.arrays["out"].dims, vec![r * c]);
        assert_eq!(heap.arrays["a"].dims, vec![2]);
        run_serial(&p, heap).unwrap();
    }

    #[test]
    fn a_redeclared_local_array_keeps_its_last_extent() {
        let p = parse_program(
            "t",
            r#"
            for (i = 0; i < n; i++) {
                k = n + 3 - i;
                int t[k];
                t[k - 1] = i;
            }
        "#,
        )
        .unwrap();
        let heap = synthesize_inputs(&p, &InputSpec { scale: 8, seed: 1 }).unwrap();
        assert_eq!(heap.arrays["t"].dims, vec![4]);
        assert!(heap.arrays["t"].data.iter().all(|&v| v == 0));
        run_serial(&p, heap).unwrap();
    }

    #[test]
    fn reading_past_a_declared_extent_is_left_to_the_real_run() {
        // However far past: discovery allocates no cell beyond the extent,
        // and reads back what it wrote there.
        let p = parse_program(
            "t",
            r#"
            int t[3];
            t[1099511627776] = 7;
            n = t[1099511627776];
            for (i = 0; i < n; i++) { a[i] = i; }
        "#,
        )
        .unwrap();
        let heap = synthesize_inputs(&p, &InputSpec::default()).unwrap();
        assert_eq!(heap.arrays["t"].dims, vec![3]);
        assert_eq!(heap.arrays["a"].dims, vec![7]);
        let err = run_serial(&p, heap).unwrap_err();
        assert!(
            matches!(
                &err,
                crate::SsError::Runtime(ExecError::OutOfBounds { array, indices, dims })
                    if array == "t" && indices == &[1099511627776] && dims == &[3]
            ),
            "{err:?}"
        );
    }

    #[test]
    fn a_rank_mismatch_fails_discovery() {
        let p = parse_program("t", "a[1] = 2; x = a[1][2];").unwrap();
        assert_eq!(
            synthesize_inputs(&p, &InputSpec::default()).unwrap_err(),
            ExecError::ArityMismatch {
                array: "a".into(),
                expected: 1,
                got: 2,
            }
        );
    }

    #[test]
    fn a_runaway_while_hits_the_default_cap() {
        let p = parse_program("t", "while (1) { x = 1; }").unwrap();
        assert_eq!(
            synthesize_inputs(&p, &InputSpec::default()).unwrap_err(),
            ExecError::NonTerminating {
                loop_id: ss_ir::LoopId(0),
                cap: ExecOptions::default().while_cap,
            }
        );
    }
}
