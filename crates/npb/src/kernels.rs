//! Input generators for the native executor benchmarks: a random dense
//! matrix for the Figure 9 product loop and a random permutation scatter
//! for CSparse `cs_ipvec`.  The kernels themselves run as analysed mini-C
//! ([`crate::ir_kernels`]); these generators only feed the native
//! compile-time / inspector / LRPD executors in `ss_inspector`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Figure 9: the CSR construction and row-partitioned product loop.
pub mod fig9 {
    use super::*;

    /// Generates a random dense matrix with the given fill density.
    pub fn generate_dense(rows: usize, cols: usize, density: f64, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| {
                (0..cols)
                    .map(|_| {
                        if rng.gen_bool(density) {
                            rng.gen_range(0.5..2.0)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// CSparse `cs_ipvec`: `x[p[k]] = b[k]` — parallel because the permutation
/// `p` is injective.
pub mod ipvec {
    use super::*;

    /// Generates a random permutation `p` and a value vector `b`.
    pub fn generate(n: usize, seed: u64) -> (Vec<usize>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p: Vec<usize> = (0..n).collect();
        p.shuffle(&mut rng);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        (p, b)
    }
}
