//! `native_kernels`: no interpreter.  The paper's own experiments — NPB CG
//! class A at 1 and `T` threads (Figure 10), and the range-partitioned and
//! indirect-scatter loops under `Serial`, `CompileTime` and
//! `InspectorExecutor` execution plus speculative LRPD (the sizes of
//! `benches/inspector_overhead.rs`).  These run on `ss-runtime`'s scoped
//! thread pool, not the persistent team, so a runtime change is seen from
//! its other caller.
//!
//! Oracles: parallel CG's `zeta` within 1e-9 relative (and `rnorm` within
//! 1e-9 absolute) of the one-thread run; range / scatter outputs equal to
//! `Serial` mode's.

use super::{time_ms, Layers, OpLog, Size, Workload, PARALLEL, SERIAL};
use crate::stats;
use crate::trace::Tracer;
use ss_inspector::executor::Mode;
use ss_inspector::{lrpd_scatter, run_indirect_scatter, run_range_partitioned};
use ss_npb::{makea, run_cg, CgResult, Class};
use ss_parallelizer::Artifacts;
use ss_runtime::CsrMatrix;

const INSPECTOR: &str = "inspector";
const LRPD: &str = "lrpd";
const CG: &str = "cg_class_A";
const RANGE: &str = "range_fig9";
const SCATTER: &str = "scatter_ipvec";
/// Catalogue kernels whose compile-time proofs license the parallel legs.
const LICENSING_KERNELS: [&str; 3] = ["cg_spmv_rows", "fig9_csr_product", "csparse_ipvec"];

/// The `native_kernels` workload.
pub struct NativeKernels {
    seed: u64,
    class: Class,
    threads: usize,
    cg_reference: CgResult,
    // Range-partitioned loop (Figure 9 shape).
    bounds: Vec<i64>,
    values: Vec<f64>,
    vector: Vec<f64>,
    range_reference: Vec<f64>,
    // Indirect scatter (cs_ipvec shape).
    index: Vec<i64>,
    scatter_values: Vec<i64>,
    scatter_reference: Vec<i64>,
    /// The two loops' output arrays, allocated once and zeroed before every
    /// op outside its timing.  A fresh `vec![0; n]` is untouched zero pages:
    /// the op would take its ~200 / ~800 first-touch page faults inside the
    /// timing, which is most of a 0.2 ms / 1.5 ms op, costs what the
    /// hypervisor charges that minute, and comes and goes with the
    /// allocator's reuse of the block.
    range_out: Vec<f64>,
    scatter_out: Vec<i64>,
    proven_loops: u64,
    /// `CgResult::seconds` of every CG leg, ms: CG without `makea`.
    cg_inner_ms: [Vec<f64>; 2],
}

impl NativeKernels {
    /// Generates the inputs from `seed`, computes the serial references,
    /// and warms up with one untimed round.
    pub fn set_up(seed: u64, size: Size) -> Result<NativeKernels, String> {
        let (class, rows, cols, scattered) = match size {
            Size::Full => (Class::A, 1200, 1600, 400_000),
            Size::Smoke => (Class::S, 120, 160, 4_000),
        };
        let dense = ss_npb::kernels::fig9::generate_dense(rows, cols, 0.05, seed);
        let a = CsrMatrix::from_dense(&dense);
        let bounds: Vec<i64> = std::iter::once(0)
            .chain(a.rowptr.iter().map(|&r| r as i64))
            .collect();
        let vector: Vec<f64> = (0..a.ncols).map(|i| 1.0 + (i % 17) as f64).collect();
        let (p, b) = ss_npb::kernels::ipvec::generate(scattered, seed);
        let mut proven_loops = 0;
        for kernel in LICENSING_KERNELS {
            let program = crate::gen::named_program(kernel).ok_or("catalogue kernel missing")?;
            let art =
                Artifacts::compile_source(kernel, &program.source).map_err(|e| e.to_string())?;
            proven_loops += super::compile::proven_in(&art.report);
        }
        let mut workload = NativeKernels {
            seed,
            class,
            threads: crate::team_threads(),
            cg_reference: run_cg(class, 1, seed),
            bounds,
            values: a.values,
            vector,
            range_reference: Vec::new(),
            index: p.iter().map(|&x| x as i64).collect(),
            scatter_values: b.iter().map(|&v| (v * 1e6) as i64).collect(),
            scatter_reference: Vec::new(),
            range_out: Vec::new(),
            scatter_out: Vec::new(),
            proven_loops,
            cg_inner_ms: [Vec::new(), Vec::new()],
        };
        workload.range_out = vec![0.0; workload.values.len()];
        workload.scatter_out = vec![0; workload.index.len()];
        workload.range(Mode::Serial);
        workload.range_reference = workload.range_out.clone();
        workload.scatter(Some(Mode::Serial));
        workload.scatter_reference = workload.scatter_out.clone();
        super::warmed(workload)
    }

    /// Runs the range-partitioned loop into `range_out`, which the caller
    /// has zeroed; its wall time, ms.
    fn range(&mut self, mode: Mode) -> f64 {
        let (values, vector) = (&self.values, &self.vector);
        let body = |_i: usize, j: usize| values[j] * vector[j % vector.len()];
        let data = &mut self.range_out;
        time_ms(|| run_range_partitioned(data, &self.bounds, body, self.threads, mode)).0
    }

    /// Runs the scatter into `scatter_out`, which the caller has zeroed
    /// (`None`: the speculative LRPD scheme); its wall time, ms.
    fn scatter(&mut self, mode: Option<Mode>) -> f64 {
        let (index, values, threads) = (&self.index, &self.scatter_values, self.threads);
        let value = |i: usize| values[i];
        let target = &mut self.scatter_out;
        time_ms(|| match mode {
            Some(mode) => {
                run_indirect_scatter(target, index, value, |_| true, threads, mode);
            }
            None => {
                lrpd_scatter(target, index, value, |_| true, threads);
            }
        })
        .0
    }

    fn check_cg(&self, got: &CgResult) -> Result<(), String> {
        // The residual converges to rounding noise (~1e-16), where a relative
        // tolerance means nothing: it is held to 1e-9 absolute instead.
        let reference = &self.cg_reference;
        if (got.zeta - reference.zeta).abs() <= 1e-9 * reference.zeta.abs()
            && (got.rnorm - reference.rnorm).abs() <= 1e-9
        {
            Ok(())
        } else {
            Err(format!(
                "cg on {} threads: zeta {} rnorm {} vs one-thread {} {}",
                got.threads, got.zeta, got.rnorm, self.cg_reference.zeta, self.cg_reference.rnorm
            ))
        }
    }

    /// One round: nine ops.  With a tracer, each is a span too.
    fn legs(&mut self, log: &mut OpLog, mut tracer: Option<&mut Tracer>) {
        for (slot, (leg, threads)) in [(SERIAL, 1), (PARALLEL, self.threads)]
            .into_iter()
            .enumerate()
        {
            let (ms, result) = spanned(&mut tracer, &format!("npb.run_cg.{leg}"), 0, || {
                time_ms(|| run_cg(self.class, threads, self.seed))
            });
            self.cg_inner_ms[slot].push(result.seconds * 1e3);
            log.timed_leg(CG, leg, ms, self.check_cg(&result));
        }
        for (leg, mode) in [
            (SERIAL, Mode::Serial),
            (PARALLEL, Mode::CompileTime),
            (INSPECTOR, Mode::InspectorExecutor),
        ] {
            self.range_out.fill(0.0);
            let ms = spanned(&mut tracer, &format!("inspector.range.{leg}"), 1, || {
                self.range(mode)
            });
            let check = (self.range_out == self.range_reference)
                .then_some(())
                .ok_or_else(|| format!("range {leg}: output differs from Serial mode"));
            log.timed_leg(RANGE, leg, ms, check);
        }
        for (leg, mode) in [
            (SERIAL, Some(Mode::Serial)),
            (PARALLEL, Some(Mode::CompileTime)),
            (INSPECTOR, Some(Mode::InspectorExecutor)),
            (LRPD, None),
        ] {
            self.scatter_out.fill(0);
            let ms = spanned(&mut tracer, &format!("inspector.scatter.{leg}"), 2, || {
                self.scatter(mode)
            });
            let check = (self.scatter_out == self.scatter_reference)
                .then_some(())
                .ok_or_else(|| format!("scatter {leg}: output differs from Serial mode"));
            log.timed_leg(SCATTER, leg, ms, check);
        }
    }
}

/// Runs `f` as op `program`'s span `name` when tracing, plainly otherwise.
fn spanned<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    program: usize,
    f: impl FnOnce() -> R,
) -> R {
    match tracer.as_deref_mut() {
        Some(t) => {
            t.begin_op(program);
            t.span(name, f)
        }
        None => f(),
    }
}

impl Workload for NativeKernels {
    fn round(&mut self, log: &mut OpLog) {
        self.legs(log, None);
    }

    fn traced_round(&mut self, log: &mut OpLog, tracer: &mut Tracer) {
        self.legs(log, Some(tracer));
    }

    fn proven_loops(&self) -> u64 {
        self.proven_loops
    }

    fn layers(&mut self, tracer: &Tracer, out: &mut Layers) {
        for (metric, span) in [
            ("inspector.range_serial_ms", "inspector.range.serial"),
            (
                "inspector.range_compile_time_ms",
                "inspector.range.parallel",
            ),
            ("inspector.range_inspector_ms", "inspector.range.inspector"),
            (
                "inspector.scatter_compile_time_ms",
                "inspector.scatter.parallel",
            ),
            (
                "inspector.scatter_inspector_ms",
                "inspector.scatter.inspector",
            ),
            ("inspector.scatter_lrpd_ms", "inspector.scatter.lrpd"),
        ] {
            out.set_from_spans(metric, tracer, span);
        }
        let value = |name: &str| out.0.get(name).map(|m| m.value);
        let ratios: Vec<f64> = ["range", "scatter"]
            .iter()
            .filter_map(|shape| {
                Some(
                    value(&format!("inspector.{shape}_inspector_ms"))?
                        / value(&format!("inspector.{shape}_compile_time_ms"))?,
                )
            })
            .collect();
        if let Some(g) = stats::geomean(&ratios) {
            out.set("inspector.overhead_ratio", g, ratios.len());
        }
        for (metric, samples) in [
            ("npb.cg_serial_ms", &self.cg_inner_ms[0]),
            ("npb.cg_parallel_ms", &self.cg_inner_ms[1]),
        ] {
            if let Some(m) = stats::floor(samples) {
                out.set(metric, m, samples.len());
            }
        }

        // The layers under CG, called directly: matrix generation, and the
        // row-sweep SpMV on the pool at 1 and `T` threads.
        let params = self.class.params();
        let mut makea_ms = Vec::new();
        let mut a = None;
        for _ in 0..3 {
            let (ms, matrix) = time_ms(|| makea(&params, self.seed));
            makea_ms.push(ms);
            a = Some(matrix);
        }
        out.set(
            "npb.makea_ms",
            stats::floor(&makea_ms).unwrap_or(0.0),
            makea_ms.len(),
        );
        let a = a.expect("three matrices were made");
        let x = vec![1.0f64; a.ncols];
        let mut y = vec![0.0f64; a.nrows];
        for (metric, threads) in [
            ("runtime.spmv_serial_ms", 1),
            ("runtime.spmv_parallel_ms", self.threads),
        ] {
            let samples: Vec<f64> = (0..50)
                .map(|_| time_ms(|| a.spmv(threads, &x, &mut y)).0)
                .collect();
            out.set(metric, stats::floor(&samples).unwrap_or(0.0), samples.len());
        }
        const REGIONS: usize = 500;
        let (ms, ()) = time_ms(|| {
            for _ in 0..REGIONS {
                ss_runtime::parallel_for(self.threads, self.threads, |r| {
                    std::hint::black_box(r);
                });
            }
        });
        out.set("runtime.pool_region_us", ms * 1e3 / REGIONS as f64, REGIONS);
    }
}
