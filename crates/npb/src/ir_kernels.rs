//! Mini-C transcriptions of the paper's benchmark kernels.
//!
//! Each entry pairs one of the loops from the paper's study (Figures 2–9,
//! drawn from NPB UA, NPB CG and SuiteSparse/CSparse) with the code that
//! fills its index arrays, so that the compile-time analysis can derive the
//! enabling property from the program text alone — the paper's central
//! claim.  The catalogue drives the Figure 1 study table, the detection
//! benchmarks and the integration tests.

use ss_parallelizer::{run_study, StudyInput, StudyTable};

/// Which benchmark suite a kernel comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// NAS Parallel Benchmarks (CG, UA).
    Npb,
    /// SuiteSparse / CSparse.
    SuiteSparse,
    /// The paper's own motivating example (Figure 9).
    Paper,
}

/// The property class the paper assigns to the kernel (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternClass {
    /// Property 1: injectivity.
    Injectivity,
    /// Property 2a: non-strict monotonicity.
    Monotonicity,
    /// Property 2c: monotonic difference between arrays.
    MonotonicDifference,
    /// Property 3: injective or monotonic subsets.
    InjectiveSubset,
    /// Property 4: simultaneous monotonicity and injectivity.
    SimultaneousMonotonicInjective,
    /// Property 5: disjoint injective expressions.
    DisjointInjectiveExpressions,
    /// No compile-time property: the loop is truly carried, but its
    /// footprint is determined by loop-entry state, so the wavefront tier
    /// can schedule it into dependence level sets at run time.
    CarriedWavefront,
}

impl PatternClass {
    /// Short label used in the study table.
    pub fn label(&self) -> &'static str {
        match self {
            PatternClass::Injectivity => "injectivity",
            PatternClass::Monotonicity => "monotonicity",
            PatternClass::MonotonicDifference => "monotonic difference",
            PatternClass::InjectiveSubset => "injective subset",
            PatternClass::SimultaneousMonotonicInjective => "monotonic + injective",
            PatternClass::DisjointInjectiveExpressions => "disjoint injective expressions",
            PatternClass::CarriedWavefront => "carried wavefront",
        }
    }
}

/// A study kernel: mini-C source plus the loop the paper parallelizes.
#[derive(Debug, Clone)]
pub struct StudyKernel {
    /// Kernel name (figure reference).
    pub name: &'static str,
    /// Program / benchmark the pattern comes from.
    pub program: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// The property class of Section 2.
    pub class: PatternClass,
    /// The mini-C source (index-array filling code + target loop).
    pub source: &'static str,
    /// The id of the loop that should be proven parallel.
    pub target_loop: u32,
}

/// The full kernel catalogue.
pub fn study_kernels() -> Vec<StudyKernel> {
    vec![
        StudyKernel {
            name: "fig2_ua_transfer",
            program: "UA (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::Injectivity,
            source: r#"
                for (e = 0; e < nelt; e++) {
                    mt_to_id[e] = e;
                }
                for (miel = 0; miel < nelt; miel++) {
                    iel = mt_to_id[miel];
                    id_to_mt[iel] = miel;
                }
            "#,
            target_loop: 1,
        },
        StudyKernel {
            name: "fig3_cg_colidx",
            program: "CG (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::Monotonicity,
            source: r#"
                for (i = 0; i < nrows; i++) {
                    cnt = 0;
                    for (t = 0; t < ncols; t++) {
                        if (dense[i][t] != 0) { cnt++; }
                    }
                    rowcount[i] = cnt;
                }
                rowstr[0] = 0;
                for (r = 1; r <= nrows; r++) {
                    rowstr[r] = rowstr[r-1] + rowcount[r-1];
                }
                for (j = 0; j < nrows; j++) {
                    for (k = rowstr[j]; k < rowstr[j+1]; k++) {
                        colidx[k] = colidx[k] - firstcol;
                    }
                }
            "#,
            target_loop: 3,
        },
        StudyKernel {
            name: "fig4_cg_gather",
            program: "CG (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::MonotonicDifference,
            source: r#"
                for (i = 0; i < nrows; i++) {
                    cnt = 0;
                    for (t = 0; t < ncols; t++) {
                        if (dense[i][t] != 0) { cnt++; }
                    }
                    rowcount[i] = cnt;
                }
                rowstr[0] = 0;
                for (r = 1; r <= nrows; r++) {
                    rowstr[r] = rowstr[r-1] + rowcount[r-1];
                }
                for (j = 0; j < nrows; j++) {
                    if (j > 0) {
                        j1 = rowstr[j];
                    } else {
                        j1 = 0;
                    }
                    j2 = rowstr[j+1];
                    for (k = j1; k < j2; k++) {
                        a[k] = v[k];
                        colidx[k] = iv[k];
                    }
                }
            "#,
            target_loop: 3,
        },
        StudyKernel {
            name: "fig5_csparse_maxtrans",
            program: "CSparse (SuiteSparse 5.4)",
            suite: Suite::SuiteSparse,
            class: PatternClass::InjectiveSubset,
            source: r#"
                for (r = 0; r < m; r++) {
                    if (matched[r] > 0) {
                        jmatch[r] = r;
                    } else {
                        jmatch[r] = 0 - 1;
                    }
                }
                for (i = 0; i < m; i++) {
                    if (jmatch[i] >= 0) {
                        imatch[jmatch[i]] = i;
                    }
                }
            "#,
            target_loop: 1,
        },
        StudyKernel {
            name: "fig6_csparse_blocks",
            program: "CSparse (SuiteSparse 5.4)",
            suite: Suite::SuiteSparse,
            class: PatternClass::SimultaneousMonotonicInjective,
            source: r#"
                for (b = 0; b < nb; b++) {
                    bs = 0;
                    for (t = 0; t < bmax; t++) {
                        if (members[b][t] > 0) { bs++; }
                    }
                    blocksize[b] = bs;
                }
                r[0] = 0;
                for (b = 1; b <= nb; b++) {
                    r[b] = r[b-1] + blocksize[b-1];
                }
                nzb = r[nb];
                for (k = 0; k < nzb; k++) {
                    p[k] = k;
                }
                for (b = 0; b < nb; b++) {
                    for (k = r[b]; k < r[b+1]; k++) {
                        Blk[p[k]] = b;
                    }
                }
            "#,
            target_loop: 4,
        },
        StudyKernel {
            name: "fig7_ua_refine",
            program: "UA (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::DisjointInjectiveExpressions,
            source: r#"
                front[0] = 1;
                for (f = 1; f < num_refine; f++) {
                    front[f] = front[f-1] + 1;
                }
                for (idx = 0; idx < num_refine; idx++) {
                    nelt = (front[idx] - 1) * 7;
                    for (i = 0; i < 7; i++) {
                        tree[nelt + i] = idx + (i + 1) % 8;
                    }
                }
            "#,
            target_loop: 1,
        },
        StudyKernel {
            name: "fig9_csr_product",
            program: "paper, Figure 9",
            suite: Suite::Paper,
            class: PatternClass::Monotonicity,
            source: r#"
                index = 0;
                ind = 0;
                for (i = 0; i < ROWLEN; i++) {
                    count = 0;
                    for (j = 0; j < COLUMNLEN; j++) {
                        if (a[i][j] != 0) {
                            count++;
                            column_number[index] = j;
                            index++;
                            value[ind] = a[i][j];
                            ind++;
                        }
                    }
                    rowsize[i] = count;
                }
                rowptr[0] = 0;
                for (i = 1; i < ROWLEN + 1; i++) {
                    rowptr[i] = rowptr[i-1] + rowsize[i-1];
                }
                for (i = 0; i < ROWLEN+1; i++) {
                    if (i == 0) {
                        j1 = i;
                    } else {
                        j1 = rowptr[i-1];
                    }
                    for (j = j1; j < rowptr[i]; j++) {
                        product_array[j] = value[j] * vector[j];
                    }
                }
            "#,
            target_loop: 3,
        },
        StudyKernel {
            name: "cg_spmv_rows",
            program: "CG (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::Monotonicity,
            source: r#"
                for (i = 0; i < nrows; i++) {
                    cnt = 0;
                    for (t = 0; t < ncols; t++) {
                        if (dense[i][t] != 0) { cnt++; }
                    }
                    rowcount[i] = cnt;
                }
                rowstr[0] = 0;
                for (r = 1; r <= nrows; r++) {
                    rowstr[r] = rowstr[r-1] + rowcount[r-1];
                }
                for (j = 0; j < nrows; j++) {
                    sum = 0;
                    for (k = rowstr[j]; k < rowstr[j+1]; k++) {
                        prod[k] = aval[k] * p[colidx[k]];
                        sum = sum + prod[k];
                    }
                    q[j] = sum;
                }
            "#,
            target_loop: 3,
        },
        StudyKernel {
            name: "is_bucket_traversal",
            program: "IS (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::Monotonicity,
            source: r#"
                for (b = 0; b < nbuckets; b++) {
                    cnt = 0;
                    for (i = 0; i < nkeys; i++) {
                        if (key[i] == b) { cnt++; }
                    }
                    bucket_size[b] = cnt;
                }
                bucket_ptr[0] = 0;
                for (b = 1; b <= nbuckets; b++) {
                    bucket_ptr[b] = bucket_ptr[b-1] + bucket_size[b-1];
                }
                for (b = 0; b < nbuckets; b++) {
                    for (k = bucket_ptr[b]; k < bucket_ptr[b+1]; k++) {
                        key_buff[k] = key_buff[k] - minkey;
                    }
                }
            "#,
            target_loop: 3,
        },
        StudyKernel {
            name: "csparse_ipvec",
            program: "CSparse (SuiteSparse 5.4)",
            suite: Suite::SuiteSparse,
            class: PatternClass::Injectivity,
            source: r#"
                for (k = 0; k < n; k++) {
                    p[k] = n - 1 - k;
                }
                for (k = 0; k < n; k++) {
                    x[p[k]] = b[k];
                }
            "#,
            target_loop: 1,
        },
        StudyKernel {
            name: "cg_norm_reduction",
            program: "CG (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::Monotonicity,
            source: r#"
                for (i = 0; i < nrows; i++) {
                    cnt = 0;
                    for (t = 0; t < ncols; t++) {
                        if (dense[i][t] != 0) { cnt++; }
                    }
                    rowcount[i] = cnt;
                }
                rowstr[0] = 0;
                for (r = 1; r <= nrows; r++) {
                    rowstr[r] = rowstr[r-1] + rowcount[r-1];
                }
                total = 0;
                for (j = 0; j < nrows; j++) {
                    for (k = rowstr[j]; k < rowstr[j+1]; k++) {
                        prod[k] = aval[k] * 3;
                        total += prod[k];
                    }
                }
            "#,
            target_loop: 3,
        },
        StudyKernel {
            name: "ua_refine_scratch",
            program: "UA (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::DisjointInjectiveExpressions,
            source: r#"
                front[0] = 1;
                for (f = 1; f < num_refine; f++) {
                    front[f] = front[f-1] + 1;
                }
                for (idx = 0; idx < num_refine; idx++) {
                    int scratch[8];
                    nelt = (front[idx] - 1) * 8;
                    for (t = 0; t < 8; t++) {
                        scratch[t] = dense[idx][t] * 3;
                    }
                    for (t = 0; t < 8; t++) {
                        tree[nelt + t] = scratch[t] + idx;
                    }
                }
            "#,
            target_loop: 1,
        },
        StudyKernel {
            name: "csparse_symperm_cols",
            program: "CSparse (SuiteSparse 5.4)",
            suite: Suite::SuiteSparse,
            class: PatternClass::Monotonicity,
            source: r#"
                for (j = 0; j < n; j++) {
                    cnt = 0;
                    for (t = 0; t < n; t++) {
                        if (upper[j][t] != 0) { cnt++; }
                    }
                    colcount[j] = cnt;
                }
                cp[0] = 0;
                for (j = 1; j <= n; j++) {
                    cp[j] = cp[j-1] + colcount[j-1];
                }
                for (j = 0; j < n; j++) {
                    for (k = cp[j]; k < cp[j+1]; k++) {
                        ci[k] = ci[k] + rowshift;
                    }
                }
            "#,
            target_loop: 3,
        },
        StudyKernel {
            name: "sptrsv_levels",
            program: "CSparse (SuiteSparse 5.4)",
            suite: Suite::SuiteSparse,
            class: PatternClass::CarriedWavefront,
            source: r#"
                for (i = 0; i < n; i++) {
                    cnt = 0;
                    for (t = 0; t < i; t++) {
                        if (lower[i][t] % 17 == 0) { cnt = cnt + 1; }
                    }
                    rowcount[i] = cnt;
                }
                rowptr[0] = 0;
                for (r = 1; r <= n; r++) {
                    rowptr[r] = rowptr[r-1] + rowcount[r-1];
                }
                for (i = 0; i < n; i++) {
                    k = rowptr[i];
                    for (t = 0; t < i; t++) {
                        if (lower[i][t] % 17 == 0) {
                            col[k] = t;
                            val[k] = lower[i][t] + 1;
                            k = k + 1;
                        }
                    }
                }
                for (i = 0; i < n; i++) {
                    sum = b[i];
                    for (k = rowptr[i]; k < rowptr[i+1]; k++) {
                        sum = sum - val[k] * x[col[k]];
                    }
                    x[i] = sum;
                }
            "#,
            target_loop: 5,
        },
        StudyKernel {
            name: "gauss_seidel_sweep",
            program: "UA (NPB 3.3)",
            suite: Suite::Npb,
            class: PatternClass::CarriedWavefront,
            source: r#"
                for (i = 0; i < n; i++) {
                    cnt = 0;
                    for (t = 0; t < n; t++) {
                        if (mat[i][t] % 17 == 0) { cnt = cnt + 1; }
                    }
                    deg[i] = cnt;
                }
                ptr[0] = 0;
                for (r = 1; r <= n; r++) {
                    ptr[r] = ptr[r-1] + deg[r-1];
                }
                for (i = 0; i < n; i++) {
                    k = ptr[i];
                    for (t = 0; t < n; t++) {
                        if (mat[i][t] % 17 == 0) {
                            col[k] = t;
                            w[k] = mat[i][t] + 1;
                            k = k + 1;
                        }
                    }
                }
                for (i = 0; i < n; i++) {
                    acc = rhs[i];
                    for (k = ptr[i]; k < ptr[i+1]; k++) {
                        acc = acc - w[k] * x[col[k]];
                    }
                    x[i] = acc;
                }
            "#,
            target_loop: 5,
        },
    ]
}

/// Converts the kernel catalogue into study inputs for the parallelizer's
/// Figure-1 study.
pub fn catalogue_inputs() -> Vec<StudyInput> {
    study_kernels()
        .into_iter()
        .map(|k| StudyInput {
            name: k.name.to_string(),
            program: k.program.to_string(),
            suite: format!("{:?}", k.suite),
            pattern: k.class.label().to_string(),
            source: k.source.to_string(),
            target_loop: k.target_loop,
        })
        .collect()
}

/// Runs the Figure-1 study over the whole catalogue.
pub fn run_catalogue_study() -> StudyTable {
    run_study(&catalogue_inputs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_ir::parse_program;

    #[test]
    fn catalogue_converts_completely() {
        let inputs = catalogue_inputs();
        assert_eq!(inputs.len(), study_kernels().len());
        assert!(inputs.iter().all(|i| !i.source.is_empty()));
    }

    #[test]
    fn study_detects_every_catalogued_kernel() {
        let table = run_catalogue_study();
        // Every kernel is either proven parallel at compile time or marked
        // wavefront-schedulable for the runtime level-set tier.
        assert_eq!(
            table.detected_count() + table.wavefront_count(),
            table.rows.len()
        );
        assert!(table.wavefront_count() >= 2);
        // and the baseline detects none of them (they all hinge on
        // subscripted-subscript reasoning)
        assert_eq!(table.baseline_count(), 0);
    }

    #[test]
    fn all_kernel_sources_parse_and_contain_the_target_loop() {
        for k in study_kernels() {
            let p = parse_program(k.name, k.source)
                .unwrap_or_else(|e| panic!("{} does not parse: {e}", k.name));
            let ids: Vec<u32> = p.loop_ids().iter().map(|l| l.0).collect();
            assert!(
                ids.contains(&k.target_loop),
                "{}: target loop {} not among {:?}",
                k.name,
                k.target_loop,
                ids
            );
        }
    }

    #[test]
    fn catalogue_covers_all_pattern_classes() {
        let kernels = study_kernels();
        assert!(kernels.len() >= 7);
        for class in [
            PatternClass::Injectivity,
            PatternClass::Monotonicity,
            PatternClass::MonotonicDifference,
            PatternClass::InjectiveSubset,
            PatternClass::SimultaneousMonotonicInjective,
            PatternClass::DisjointInjectiveExpressions,
            PatternClass::CarriedWavefront,
        ] {
            assert!(
                kernels.iter().any(|k| k.class == class),
                "missing class {:?}",
                class
            );
            assert!(!class.label().is_empty());
        }
        // both suites of the paper's study are represented
        assert!(kernels.iter().any(|k| k.suite == Suite::Npb));
        assert!(kernels.iter().any(|k| k.suite == Suite::SuiteSparse));
    }
}
