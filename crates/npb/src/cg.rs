//! The NPB CG benchmark (Conjugate Gradient, unstructured sparse solver).
//!
//! This is the workload of the paper's Figure 10.  The structure follows the
//! NAS reference implementation: `makea` builds a random sparse symmetric
//! positive-definite matrix in CSR form (the construction is exactly the
//! count → prefix-sum → fill pattern of Figure 9, and the column-index
//! adjustment is Figure 3), and `conj_grad` runs the CG iteration whose
//! dominant loop sweeps rows through `rowstr[j] .. rowstr[j+1]`.
//!
//! Only the loops that the compile-time analysis proves parallel are
//! parallelized — everything else stays serial — so the measured speedup is
//! attributable to the subscripted-subscript analysis, as in the paper.
//!
//! One inner solve is **one team region** (`solve`), the shape of NPB's
//! OpenMP version: every member owns a contiguous block of rows — its
//! blocks of `q` and `r` are locals on its stack, its blocks of `p` and `z`
//! live in vectors the row sweeps of the other members read whole — and
//! the 25 iterations cross three in-region barriers each instead of
//! opening six regions each.  A dot product is "store my block's partial,
//! barrier, add everybody's partials in worker order", so the sums
//! associate as one partial per static block, added in worker order, and
//! `zeta`/`rnorm` depend on the thread count but never on timing.  One
//! thread runs the same closure inline on a team of one.
//!
//! The NPB class parameters (`na`, `nonzer`, `niter`, `shift`) are the
//! official ones; the random matrix generator is a simplified but
//! structurally equivalent substitute for NPB's `makea` (documented in
//! DESIGN.md), so absolute `zeta` verification values differ from the
//! reference while the sparsity structure and access patterns match.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ss_runtime::{
    chunk_range, time_it, with_shared_team, BlockedVec, CsrMatrix, Member, RegionAborted,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// NPB problem classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Sample size (tiny, for tests).
    S,
    /// Workstation size.
    W,
    /// Class A.
    A,
    /// Class B.
    B,
    /// Class C.
    C,
}

/// Parameters of a CG problem class (from the NPB 3.3.1 specification).
#[derive(Debug, Clone, Copy)]
pub struct CgParams {
    /// Matrix order.
    pub na: usize,
    /// Non-zeros per generated row (before symmetrization).
    pub nonzer: usize,
    /// Outer CG iterations.
    pub niter: usize,
    /// Eigenvalue shift.
    pub shift: f64,
}

impl Class {
    /// The official NPB parameters for this class.
    pub fn params(self) -> CgParams {
        match self {
            Class::S => CgParams {
                na: 1400,
                nonzer: 7,
                niter: 15,
                shift: 10.0,
            },
            Class::W => CgParams {
                na: 7000,
                nonzer: 8,
                niter: 15,
                shift: 12.0,
            },
            Class::A => CgParams {
                na: 14000,
                nonzer: 11,
                niter: 15,
                shift: 20.0,
            },
            Class::B => CgParams {
                na: 75000,
                nonzer: 13,
                niter: 75,
                shift: 60.0,
            },
            Class::C => CgParams {
                na: 150000,
                nonzer: 15,
                niter: 75,
                shift: 110.0,
            },
        }
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
        }
    }

    /// All classes in increasing size.
    pub fn all() -> &'static [Class] {
        &[Class::S, Class::W, Class::A, Class::B, Class::C]
    }
}

/// NPB's `randlc` linear congruential generator (kept for fidelity of the
/// pseudo-random column-index streams).
#[derive(Debug, Clone)]
pub struct Randlc {
    seed: f64,
    a: f64,
}

impl Randlc {
    /// Creates the generator with the NPB default seed and multiplier.
    pub fn new() -> Randlc {
        Randlc {
            seed: 314_159_265.0,
            a: 1_220_703_125.0,
        }
    }

    /// Next pseudo-random number in `(0, 1)`.
    #[allow(clippy::should_implement_trait)] // NPB's randlc() name, not Iterator
    pub fn next(&mut self) -> f64 {
        const R23: f64 = 1.1920928955078125e-7; // 2^-23
        const R46: f64 = 1.4210854715202004e-14; // 2^-46
        const T23: f64 = 8_388_608.0; // 2^23
        const T46: f64 = 70_368_744_177_664.0; // 2^46
        let t1 = R23 * self.a;
        let a1 = t1.trunc();
        let a2 = self.a - T23 * a1;
        let t1 = R23 * self.seed;
        let x1 = t1.trunc();
        let x2 = self.seed - T23 * x1;
        let t1 = a1 * x2 + a2 * x1;
        let t2 = (R23 * t1).trunc();
        let z = t1 - T23 * t2;
        let t3 = T23 * z + a2 * x2;
        let t4 = (R46 * t3).trunc();
        self.seed = t3 - T46 * t4;
        R46 * self.seed
    }
}

impl Default for Randlc {
    fn default() -> Self {
        Randlc::new()
    }
}

/// Builds the CG matrix for a class: a sparse, symmetric, diagonally
/// dominant matrix with `nonzer` off-diagonal entries per row, assembled
/// through the Figure 9 CSR-construction pattern.
#[allow(clippy::needless_range_loop)] // transcribes the NPB construction loop
pub fn makea(params: &CgParams, seed: u64) -> CsrMatrix {
    let n = params.na;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lcg = Randlc::new();
    // Per-row entry lists (upper triangle), then symmetrize.
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for i in 0..n {
        for _ in 0..params.nonzer {
            // Mix the NPB LCG with the std generator to decorrelate rows.
            let u = lcg.next();
            let j = ((u * n as f64) as usize + rng.gen_range(0..n)) % n;
            if j == i {
                continue;
            }
            let v = 0.5 * (lcg.next() - 0.5) / params.nonzer as f64;
            rows[i].push((j, v));
        }
    }
    // Symmetrize: A := (L + L^T)/2 with a dominant diagonal.
    let mut sym: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for i in 0..n {
        for &(j, v) in &rows[i] {
            sym[i].push((j, v));
            sym[j].push((i, v));
        }
    }
    for (i, row) in sym.iter_mut().enumerate() {
        row.sort_by_key(|&(j, _)| j);
        row.dedup_by(|a, b| {
            if a.0 == b.0 {
                b.1 += a.1;
                true
            } else {
                false
            }
        });
        let offdiag: f64 = row.iter().map(|&(_, v)| v.abs()).sum();
        match row.binary_search_by_key(&i, |&(j, _)| j) {
            Ok(pos) => row[pos].1 = offdiag + 1.0 + params.shift * 0.01,
            Err(pos) => row.insert(pos, (i, offdiag + 1.0 + params.shift * 0.01)),
        }
    }
    CsrMatrix::from_rows(n, &sym)
}

/// Result of a CG run.
#[derive(Debug, Clone)]
pub struct CgResult {
    /// The computed eigenvalue estimate (`shift + 1 / (x·z)`).
    pub zeta: f64,
    /// Final residual norm of the inner solve.
    pub rnorm: f64,
    /// Wall-clock seconds of the timed section.
    pub seconds: f64,
    /// Threads used for the parallelized subscripted-subscript loops.
    pub threads: usize,
}

/// The CG inner solve: 25 iterations of conjugate gradient on `A z = x`.
/// Returns the residual norm.  The row-sweep loops (SpMV) are the
/// subscripted-subscript loops parallelized according to the analysis.
pub fn conj_grad(a: &CsrMatrix, x: &[f64], z: &mut [f64], threads: usize) -> f64 {
    solve(a, x, z, threads).rnorm
}

/// What one inner solve hands the outer iteration.
#[derive(Clone, Copy)]
struct Solve {
    /// `||x - A z||`.
    rnorm: f64,
    /// `x · z`.
    xz: f64,
    /// `z · z`.
    zz: f64,
}

/// Blockwise sums across the members of one region: each member stores its
/// block's partial, crosses the barrier, and adds all partials in worker
/// order.  Two slots per member, used in turn: a member may already be
/// storing its next partial while a slower one still adds up these.
struct Dots<'r> {
    slots: &'r [[AtomicU64; 2]],
    member: &'r Member<'r>,
    turn: Cell<usize>,
}

impl Dots<'_> {
    fn sum(&self, partial: f64) -> Result<f64, RegionAborted> {
        let turn = self.turn.replace(self.turn.get() ^ 1);
        // Relaxed: the barrier orders the store before every load below.
        self.slots[self.member.index()][turn].store(partial.to_bits(), Ordering::Relaxed);
        self.member.barrier()?;
        let partials = (self.slots.iter()).map(|s| f64::from_bits(s[turn].load(Ordering::Relaxed)));
        Ok(partials
            .reduce(|a, b| a + b)
            .expect("a team has at least one member"))
    }
}

/// One inner solve as one region on the shared team of `threads` (inline
/// on a team of one for `threads <= 1`).
fn solve(a: &CsrMatrix, x: &[f64], z: &mut [f64], threads: usize) -> Solve {
    let mut p = x.to_vec();
    let (p, z) = (BlockedVec::new(&mut p), BlockedVec::new(z));
    with_shared_team(threads, |team| {
        let slots: Vec<[AtomicU64; 2]> = (0..team.size()).map(|_| Default::default()).collect();
        let solves = team.region(|m| solve_member(a, x, &p, &z, &slots, m));
        solves[0].expect("no member of a CG region aborts")
    })
}

/// One member's share of [`solve`]: rows `chunk_range(n, size)[index]` of
/// every vector.  `p` arrives holding `x`.
fn solve_member(
    a: &CsrMatrix,
    x: &[f64],
    p: &BlockedVec<'_>,
    z: &BlockedVec<'_>,
    slots: &[[AtomicU64; 2]],
    m: &Member<'_>,
) -> Result<Solve, RegionAborted> {
    let rows = chunk_range(a.nrows, m.size(), m.index());
    let dots = Dots {
        slots,
        member: m,
        turn: Cell::new(0),
    };
    let x_blk = &x[rows.clone()];
    let mut r = x_blk.to_vec();
    let mut q = vec![0.0; rows.len()];
    // SAFETY: this member's block; nobody reads `z` whole before the
    // barriers of the last iteration.
    unsafe { z.block_mut(rows.clone()) }.fill(0.0);
    let mut rho = dots.sum(r.iter().map(|ri| ri * ri).sum())?;
    const CGITMAX: usize = 25;
    for _ in 0..CGITMAX {
        // q = A p   — the Figure 3/9 row sweep, on this member's rows.
        // SAFETY: `p` was last written before the barrier that ended the
        // previous iteration (or by the caller) and is next written after
        // the second barrier from here: read-only in between.
        let p_all = unsafe { p.whole() };
        a.spmv_rows(rows.clone(), p_all, &mut q);
        let p_blk = &p_all[rows.clone()];
        let d = dots.sum(p_blk.iter().zip(&q).map(|(pi, qi)| pi * qi).sum())?;
        let alpha = rho / d;
        // SAFETY: this member's block of `z`, which nobody reads whole
        // before the barriers of the last iteration.
        for (zi, pi) in unsafe { z.block_mut(rows.clone()) }.iter_mut().zip(p_blk) {
            *zi += alpha * pi;
        }
        for (ri, qi) in r.iter_mut().zip(&q) {
            *ri -= alpha * qi;
        }
        let rho_new = dots.sum(r.iter().map(|ri| ri * ri).sum())?;
        let beta = rho_new / rho;
        rho = rho_new;
        // SAFETY: this member's block of `p`; every member finished its row
        // sweep over the whole of `p` two barriers ago, and the next sweep
        // starts after the barrier below.
        for (pi, ri) in unsafe { p.block_mut(rows.clone()) }.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        m.barrier()?;
    }
    // ||x - A z||, and the two sums the outer iteration needs of `z`.
    // SAFETY: `z` was last written two barriers ago and is not written
    // again inside the region.
    let z_all = unsafe { z.whole() };
    a.spmv_rows(rows.clone(), z_all, &mut q);
    let z_blk = &z_all[rows];
    let residual = x_blk.iter().zip(&q).map(|(xi, qi)| {
        let d = xi - qi;
        d * d
    });
    Ok(Solve {
        rnorm: dots.sum(residual.sum())?.sqrt(),
        xz: dots.sum(x_blk.iter().zip(z_blk).map(|(xi, zi)| xi * zi).sum())?,
        zz: dots.sum(z_blk.iter().map(|zi| zi * zi).sum())?,
    })
}

/// Runs the full CG benchmark for a class with the given thread count.
/// `threads = 1` is the serial baseline.
pub fn run_cg(class: Class, threads: usize, seed: u64) -> CgResult {
    let params = class.params();
    run_cg_with(&params, threads, seed)
}

/// Runs CG with explicit parameters (used by the benchmark harness to scale
/// problem sizes down for quick runs).
pub fn run_cg_with(params: &CgParams, threads: usize, seed: u64) -> CgResult {
    let a = makea(params, seed);
    let n = params.na;
    let mut x = vec![1.0f64; n];
    let mut z = vec![0.0f64; n];
    let mut zeta = 0.0;
    let mut rnorm = 0.0;
    let (_, seconds) = time_it(|| {
        for _ in 0..params.niter {
            let s = solve(&a, &x, &mut z, threads);
            rnorm = s.rnorm;
            zeta = params.shift + 1.0 / s.xz.max(f64::MIN_POSITIVE);
            let norm = 1.0 / s.zz.sqrt();
            for i in 0..n {
                x[i] = norm * z[i];
            }
        }
    });
    CgResult {
        zeta,
        rnorm,
        seconds,
        threads,
    }
}

/// A scaled-down parameter set for a class, keeping the class's sparsity and
/// iteration structure but shrinking `na` so the full sweep fits in a quick
/// benchmark run. `fraction` of 1.0 returns the official parameters.
pub fn scaled_params(class: Class, fraction: f64) -> CgParams {
    let p = class.params();
    let na = ((p.na as f64 * fraction).round() as usize).max(64);
    CgParams {
        na,
        nonzer: p.nonzer,
        niter: p.niter.min(15),
        shift: p.shift,
    }
}

/// One measured point of the Figure 10 sweep.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// NPB class.
    pub class: Class,
    /// Threads used for the subscripted-subscript loops.
    pub threads: usize,
    /// Wall-clock seconds of the timed section.
    pub seconds: f64,
    /// Speedup relative to the serial run of the same class.
    pub speedup: f64,
}

/// Runs the Figure 10 sweep: serial plus the given thread counts, for each
/// class, using problem sizes scaled by `fraction` (1.0 = official class
/// sizes).
pub fn figure10_sweep(classes: &[Class], threads: &[usize], fraction: f64) -> Vec<SpeedupPoint> {
    let mut out = Vec::new();
    for &class in classes {
        let params: CgParams = scaled_params(class, fraction);
        let serial = run_cg_with(&params, 1, 42);
        out.push(SpeedupPoint {
            class,
            threads: 1,
            seconds: serial.seconds,
            speedup: 1.0,
        });
        for &t in threads {
            if t <= 1 {
                continue;
            }
            let r = run_cg_with(&params, t, 42);
            out.push(SpeedupPoint {
                class,
                threads: t,
                seconds: r.seconds,
                speedup: serial.seconds / r.seconds.max(1e-12),
            });
        }
    }
    out
}

/// Renders the sweep as the Figure 10 table (classes × thread counts).
pub fn render_figure10(points: &[SpeedupPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:>8} {:>12} {:>10}\n",
        "class", "threads", "seconds", "speedup"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<8} {:>8} {:>12.4} {:>10.2}\n",
            p.class.name(),
            p.threads,
            p.seconds,
            p.speedup
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_figure10_sweep_produces_sane_numbers() {
        let points = figure10_sweep(&[Class::S], &[2], 0.2);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.seconds > 0.0));
        assert!(points.iter().all(|p| p.speedup > 0.0));
        let txt = render_figure10(&points);
        assert!(txt.contains("class"));
        assert!(txt.contains('S'));
    }

    #[test]
    fn class_parameters_match_the_npb_tables() {
        assert_eq!(Class::A.params().na, 14000);
        assert_eq!(Class::A.params().nonzer, 11);
        assert_eq!(Class::B.params().na, 75000);
        assert_eq!(Class::C.params().na, 150000);
        assert_eq!(Class::B.params().niter, 75);
        assert_eq!(Class::S.name(), "S");
        assert_eq!(Class::all().len(), 5);
    }

    #[test]
    fn randlc_is_deterministic_and_in_range() {
        let mut a = Randlc::new();
        let mut b = Randlc::new();
        for _ in 0..1000 {
            let x = a.next();
            assert_eq!(x, b.next());
            assert!(x > 0.0 && x < 1.0);
        }
    }

    #[test]
    fn makea_produces_a_well_formed_symmetric_matrix() {
        let params = CgParams {
            na: 200,
            nonzer: 5,
            niter: 1,
            shift: 10.0,
        };
        let a = makea(&params, 42);
        assert!(a.is_well_formed());
        assert_eq!(a.nrows, 200);
        // symmetry: (i, j) present implies (j, i) present with equal value
        for i in 0..a.nrows {
            for idx in a.rowptr[i]..a.rowptr[i + 1] {
                let j = a.colidx[idx];
                let v = a.values[idx];
                let found = (a.rowptr[j]..a.rowptr[j + 1])
                    .any(|k| a.colidx[k] == i && (a.values[k] - v).abs() < 1e-12);
                assert!(found, "missing symmetric entry ({j},{i})");
            }
        }
    }

    #[test]
    fn conj_grad_converges_on_small_problems() {
        let params = CgParams {
            na: 300,
            nonzer: 6,
            niter: 3,
            shift: 10.0,
        };
        let r = run_cg_with(&params, 1, 7);
        assert!(r.rnorm < 1e-6, "rnorm = {}", r.rnorm);
        assert!(r.zeta.is_finite());
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let params = CgParams {
            na: 400,
            nonzer: 5,
            niter: 2,
            shift: 12.0,
        };
        let serial = run_cg_with(&params, 1, 11);
        for threads in [2, 4] {
            let par = run_cg_with(&params, threads, 11);
            assert!(
                (par.zeta - serial.zeta).abs() < 1e-6,
                "zeta mismatch at {threads} threads: {} vs {}",
                par.zeta,
                serial.zeta
            );
        }
    }

    #[test]
    fn phased_cg_is_bit_identical_to_the_blockwise_sums() {
        // Class S, seed 1, as computed at the parent commit — where every
        // dot product was its own parallel-sum region: one partial per
        // static block, added in worker order.
        for (threads, zeta, rnorm) in [
            (1usize, 0x4026795982fa8030u64, 0x3cb4fd522d0ffcceu64),
            (2, 0x4026795982fa8032, 0x3cb56edd7adbd9ad),
            (3, 0x4026795982fa8032, 0x3cb4d8c006fc07d0),
            (4, 0x4026795982fa8032, 0x3cb563525cc44ce3),
        ] {
            let r = run_cg(Class::S, threads, 1);
            assert_eq!(
                (r.zeta.to_bits(), r.rnorm.to_bits()),
                (zeta, rnorm),
                "{threads} threads: zeta {:e} rnorm {:e}",
                r.zeta,
                r.rnorm
            );
        }
    }

    #[test]
    fn scaled_params_shrink_but_keep_structure() {
        let p = scaled_params(Class::B, 0.01);
        assert_eq!(p.nonzer, 13);
        assert!(p.na >= 64 && p.na < 75000);
        let full = scaled_params(Class::S, 1.0);
        assert_eq!(full.na, 1400);
    }
}
