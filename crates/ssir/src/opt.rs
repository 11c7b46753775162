//! The optimizing bytecode pass: peephole and superinstruction fusion over
//! the register-machine stream of [`crate::bytecode`].
//!
//! The base compiler ([`crate::bytecode::compile_bytecode`]) is a faithful
//! lowering: one instruction per slot-pass operation, subscripts copied
//! into consecutive registers, every comparison materialized before its
//! branch.  This pass — gated behind [`OptLevel::O1`], the default — runs
//! three rewrites to a fixed point over every straight-line block:
//!
//! * **constant folding** — a per-block constant lattice (reset at every
//!   jump target, and after structured loops) turns `Const`-fed `Copy`,
//!   `Bin`, `Neg` and `Not` instructions into pool loads.  Arithmetic folds
//!   go through [`ss_symbolic`]'s checked evaluator, whose overflow and
//!   division-by-zero *errors* simply veto the fold — the instruction stays
//!   and fails (or wraps) at runtime exactly like the unoptimized stream;
//! * **superinstruction fusion** — three shapes the interpreter otherwise
//!   pays one dispatch each for:
//!   [`Instr::LoadLoad`] (`a[b[i]]`, the paper's subscripted subscript, as
//!   one instruction), [`Instr::CmpBranch`] (compare feeding an adjacent
//!   conditional jump), and [`Instr::Load2`]/[`Instr::Store2`] (rank-2
//!   accesses reading two arbitrary registers, eliding the
//!   consecutive-register subscript copies);
//! * **dead-store elimination** — pure instructions (`Const`, `Copy`,
//!   `Neg`, `Not`, non-dividing `Bin`) whose destination is an expression
//!   temporary nobody reads are dropped.  Writes to *scalar* registers are
//!   never dropped: they are observable (defined-ness tracking, final-heap
//!   write-back).
//!
//! Every rewrite preserves semantics instruction for instruction —
//! evaluation order, error points, wrapping arithmetic, defined-flag
//! effects — so O0 and O1 streams produce bit-identical heaps (and
//! identical errors), which `ss-interp`'s `validate` and the cross-engine
//! fuzz harness assert on every run.  Deleting and fusing instructions
//! renumbers the stream, so all absolute jump targets are remapped through
//! an old-index → new-index table; a fusion never consumes an instruction
//! that is itself a jump target.  A final pass compacts the constant pool
//! to the surviving `Const` loads.

use crate::ast::BinOp;
use crate::bytecode::{BcExpr, BcFor, BytecodeProgram, HeaderFast, Instr, Reg};
use std::collections::{HashMap, HashSet};

/// How much optimization the pipeline's `opt` stage applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OptLevel {
    /// The base compiler's stream, untouched.
    O0,
    /// Constant folding, superinstruction fusion and dead-store
    /// elimination (the default).
    #[default]
    O1,
}

impl OptLevel {
    /// `"O0"` / `"O1"`.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Optimizes a bytecode program at `level`.  [`OptLevel::O0`] returns the
/// input unchanged; [`OptLevel::O1`] rewrites every block (the top-level
/// stream and, recursively, every structured loop's header blocks and
/// body) and compacts the constant pool.
pub fn optimize(bc: &BytecodeProgram, level: OptLevel) -> BytecodeProgram {
    if level == OptLevel::O0 {
        return bc.clone();
    }
    let mut o = Optimizer {
        consts: bc.consts.clone(),
        const_ids: bc
            .consts
            .iter()
            .enumerate()
            .map(|(k, &v)| (v, k as u32))
            .collect(),
        nscalars: bc.slots.scalar_count(),
        nregs: bc.nregs,
    };
    let main = o.opt_code(&bc.main, None);
    let mut out = BytecodeProgram {
        main,
        consts: o.consts,
        nregs: bc.nregs,
        slots: bc.slots.clone(),
    };
    compact_pool(&mut out);
    pack_registers(&mut out);
    out
}

struct Optimizer {
    consts: Vec<i64>,
    const_ids: HashMap<i64, u32>,
    nscalars: usize,
    nregs: usize,
}

/// Per-instruction liveness of the *temporary* registers (scalar registers
/// are always observable and never touched by DSE or fusion).  Computed by
/// a backward fixpoint over the block's instruction-level control flow, so
/// a temporary consumed on a jump path counts as live at the jump — no
/// reliance on the compiler's def-before-use convention.
struct Liveness {
    nscalars: u32,
    words: usize,
    /// `live_in[pc]`; index `len` is the block exit (holding the protected
    /// result register of expression blocks).
    live_in: Vec<u64>,
}

impl Liveness {
    fn compute(code: &[Instr], nscalars: usize, nregs: usize, protected: Option<Reg>) -> Liveness {
        let ntemps = nregs.saturating_sub(nscalars).max(1);
        let words = ntemps.div_ceil(64);
        let n = code.len();
        let mut lv = Liveness {
            nscalars: nscalars as u32,
            words,
            live_in: vec![0u64; (n + 1) * words],
        };
        if let Some(r) = protected {
            if let Some((w, bit)) = lv.temp_bit(r) {
                lv.live_in[n * words + w] |= bit;
            }
        }
        let mut reads: Vec<Reg> = Vec::new();
        loop {
            let mut changed = false;
            for pc in (0..n).rev() {
                let mut row = lv.out_row(code, pc);
                // Kill the write, add the reads.
                if let Some(dst) = instr_write(&code[pc]) {
                    if let Some((w, bit)) = lv.temp_bit(dst) {
                        row[w] &= !bit;
                    }
                }
                if matches!(code[pc], Instr::For(_)) {
                    // A structured loop's inner blocks recycle the whole
                    // temporary file: it clobbers every temp and reads none
                    // from the enclosing block.
                    row.iter_mut().for_each(|w| *w = 0);
                }
                reads.clear();
                instr_reads(&code[pc], &mut reads);
                for r in &reads {
                    if let Some((w, bit)) = lv.temp_bit(*r) {
                        row[w] |= bit;
                    }
                }
                let slot = &mut lv.live_in[pc * words..(pc + 1) * words];
                if slot != row.as_slice() {
                    slot.copy_from_slice(&row);
                    changed = true;
                }
            }
            if !changed {
                return lv;
            }
        }
    }

    fn temp_bit(&self, r: Reg) -> Option<(usize, u64)> {
        let t = r.0.checked_sub(self.nscalars)? as usize;
        Some((t / 64, 1u64 << (t % 64)))
    }

    /// `live_out[pc]` = union of `live_in` over the successors.
    fn out_row(&self, code: &[Instr], pc: usize) -> Vec<u64> {
        let mut row = vec![0u64; self.words];
        let mut add = |succ: usize| {
            let s = &self.live_in[succ * self.words..(succ + 1) * self.words];
            row.iter_mut().zip(s).for_each(|(a, b)| *a |= b);
        };
        match &code[pc] {
            Instr::Jump { target } => add(*target as usize),
            Instr::Jz { target, .. }
            | Instr::Jnz { target, .. }
            | Instr::CmpBranch { target, .. } => {
                add(*target as usize);
                add(pc + 1);
            }
            _ => add(pc + 1),
        }
        row
    }

    /// True when the temporary `r` is dead after instruction `pc` (on every
    /// outgoing path).  Scalar registers are never dead.
    fn dead_after(&self, code: &[Instr], pc: usize, r: Reg) -> bool {
        match self.temp_bit(r) {
            Some((w, bit)) => self.out_row(code, pc)[w] & bit == 0,
            None => false,
        }
    }
}

impl Optimizer {
    fn pool(&mut self, v: i64) -> u32 {
        if let Some(&id) = self.const_ids.get(&v) {
            return id;
        }
        let id = self.consts.len() as u32;
        self.consts.push(v);
        self.const_ids.insert(v, id);
        id
    }

    fn is_temp(&self, r: Reg) -> bool {
        r.index() >= self.nscalars
    }

    /// Optimizes one flat block.  `protected` is the block's result
    /// register (for expression blocks): it counts as live at block exit.
    fn opt_code(&mut self, code: &[Instr], protected: Option<Reg>) -> Vec<Instr> {
        // Structured loops first, so the passes below see them as opaque.
        let mut code: Vec<Instr> = code
            .iter()
            .map(|i| match i {
                Instr::For(f) => Instr::For(Box::new(self.opt_for(f))),
                other => other.clone(),
            })
            .collect();
        loop {
            let mut changed = self.fold_pass(&mut code);
            let (fused, ch) = self.fuse_pass(code, protected);
            code = fused;
            changed |= ch;
            let (swept, ch) = self.dse_pass(code, protected);
            code = swept;
            changed |= ch;
            if !changed {
                return code;
            }
        }
    }

    fn opt_for(&mut self, f: &BcFor) -> BcFor {
        let init = self.opt_expr(&f.init);
        let bound = self.opt_expr(&f.bound);
        let step = self.opt_expr(&f.step);
        let init_fast = self.header_fast(&init);
        let mut bound_fast = self.header_fast(&bound);
        let mut step_fast = self.header_fast(&step);
        let body = self.opt_code(&f.body, None);
        // Cross-iteration invariant hoisting: between two evaluations of
        // the bound (or step) block only the body, the sibling header block
        // and the index-variable update run.  When none of those can feed
        // the block — no clobbered register flows in, no loaded array is
        // stored to — one evaluation per loop entry is exact (same value,
        // same error, at the same first-iteration program point), so the
        // executors may cache it.  This is what hoists the CSR-traversal
        // bound `rowptr[i + 1]` out of the inner product loop.
        let mut clobbered: HashSet<u32> = HashSet::new();
        clobbered.insert(f.var.0);
        collect_reg_writes(&body, &mut clobbered);
        collect_reg_writes(&bound.code, &mut clobbered);
        collect_reg_writes(&step.code, &mut clobbered);
        let mut stored: HashSet<u32> = HashSet::new();
        collect_array_stores(&body, &mut stored);
        if bound_fast == HeaderFast::Eval && self.invariant_block(&bound, &clobbered, &stored) {
            bound_fast = HeaderFast::EvalOnce;
        }
        if step_fast == HeaderFast::Eval && self.invariant_block(&step, &clobbered, &stored) {
            step_fast = HeaderFast::EvalOnce;
        }
        BcFor {
            id: f.id,
            var: f.var,
            init,
            cond_op: f.cond_op,
            bound,
            step,
            init_fast,
            bound_fast,
            step_fast,
            body,
            local_arrays: f.local_arrays.clone(),
            locals_dominated: f.locals_dominated,
            skewed: f.skewed,
        }
    }

    /// True when re-evaluating the expression block anywhere in the loop is
    /// guaranteed to reproduce the first evaluation bit for bit: the block
    /// is pure (only register-file temp writes and array *reads* — which is
    /// what the expression compiler emits, but checked rather than
    /// trusted), none of its inputs (scalars it reads, temporaries live at
    /// block entry) is in `clobbered`, and no array it loads is in
    /// `stored`.
    fn invariant_block(&self, e: &BcExpr, clobbered: &HashSet<u32>, stored: &HashSet<u32>) -> bool {
        let mut reads: Vec<Reg> = Vec::new();
        for i in &e.code {
            match i {
                Instr::Store { .. }
                | Instr::Store2 { .. }
                | Instr::DeclArray { .. }
                | Instr::For(_)
                | Instr::WhileEnter { .. }
                | Instr::WhileIter { .. }
                | Instr::WhileExit { .. } => return false,
                _ => {}
            }
            if instr_write(i).is_some_and(|d| !self.is_temp(d)) {
                return false;
            }
            instr_reads(i, &mut reads);
            match i {
                Instr::Load { array, .. } | Instr::Load2 { array, .. }
                    if stored.contains(&array.0) =>
                {
                    return false;
                }
                Instr::LoadLoad { outer, inner, .. }
                    if stored.contains(&outer.0) || stored.contains(&inner.0) =>
                {
                    return false;
                }
                _ => {}
            }
        }
        // Scalar reads are always inputs (the block never writes scalars).
        if reads
            .iter()
            .any(|r| !self.is_temp(*r) && clobbered.contains(&r.0))
        {
            return false;
        }
        // Temporaries live at block entry (read before any block-local
        // definition on some path) are inputs too.  The compiler never
        // emits that shape, but the analysis must not rely on it.
        let live = Liveness::compute(&e.code, self.nscalars, self.nregs, Some(e.result));
        for (w, bits) in live.live_in[0..live.words].iter().enumerate() {
            let mut bits = *bits;
            while bits != 0 {
                let t = (w as u32) * 64 + bits.trailing_zeros();
                if clobbered.contains(&(self.nscalars as u32 + t)) {
                    return false;
                }
                bits &= bits - 1;
            }
        }
        true
    }

    /// Derives the header fast path of an optimized expression block: an
    /// empty block is a plain register read, a single constant load is the
    /// constant itself.  Both are side-effect- and error-free, so the
    /// executor may skip the block — the code stays alongside, and running
    /// it instead is always still correct.
    fn header_fast(&self, e: &BcExpr) -> HeaderFast {
        match e.code.as_slice() {
            [] => HeaderFast::Reg(e.result),
            [Instr::Const { dst, pool }] if *dst == e.result => {
                HeaderFast::Const(self.consts[*pool as usize])
            }
            _ => HeaderFast::Eval,
        }
    }

    fn opt_expr(&mut self, e: &BcExpr) -> BcExpr {
        BcExpr {
            code: self.opt_code(&e.code, Some(e.result)),
            result: e.result,
        }
    }

    // -----------------------------------------------------------------------
    // Constant folding.
    // -----------------------------------------------------------------------

    fn fold_pass(&mut self, code: &mut [Instr]) -> bool {
        let targets = jump_targets(code);
        let mut known: HashMap<u32, i64> = HashMap::new();
        let mut changed = false;
        for pc in 0..code.len() {
            if targets[pc] {
                known.clear();
            }
            match code[pc].clone() {
                Instr::Const { dst, pool } => {
                    known.insert(dst.0, self.consts[pool as usize]);
                }
                Instr::Copy { dst, src } => match known.get(&src.0).copied() {
                    Some(v) => {
                        let pool = self.pool(v);
                        if code[pc] != (Instr::Const { dst, pool }) {
                            code[pc] = Instr::Const { dst, pool };
                            changed = true;
                        }
                        known.insert(dst.0, v);
                    }
                    None => {
                        known.remove(&dst.0);
                    }
                },
                Instr::Bin { op, dst, a, b } => {
                    match (known.get(&a.0).copied(), known.get(&b.0).copied()) {
                        (Some(x), Some(y)) => match fold_binop(op, x, y) {
                            Some(v) => {
                                let pool = self.pool(v);
                                code[pc] = Instr::Const { dst, pool };
                                known.insert(dst.0, v);
                                changed = true;
                            }
                            None => {
                                known.remove(&dst.0);
                            }
                        },
                        _ => {
                            known.remove(&dst.0);
                        }
                    }
                }
                Instr::Neg { dst, src } => match known.get(&src.0).copied() {
                    // i64::MIN negates to itself under wrapping; folding it
                    // is still exact, so no guard is needed.
                    Some(v) => {
                        let pool = self.pool(v.wrapping_neg());
                        code[pc] = Instr::Const { dst, pool };
                        known.insert(dst.0, v.wrapping_neg());
                        changed = true;
                    }
                    None => {
                        known.remove(&dst.0);
                    }
                },
                Instr::Not { dst, src } => match known.get(&src.0).copied() {
                    Some(v) => {
                        let folded = (v == 0) as i64;
                        let pool = self.pool(folded);
                        code[pc] = Instr::Const { dst, pool };
                        known.insert(dst.0, folded);
                        changed = true;
                    }
                    None => {
                        known.remove(&dst.0);
                    }
                },
                // A structured loop writes its index variable and whatever
                // its body touches: forget everything.
                Instr::For(_) => known.clear(),
                other => {
                    if let Some(dst) = instr_write(&other) {
                        known.remove(&dst.0);
                    }
                }
            }
        }
        changed
    }

    // -----------------------------------------------------------------------
    // Superinstruction fusion.
    // -----------------------------------------------------------------------

    fn fuse_pass(&mut self, code: Vec<Instr>, protected: Option<Reg>) -> (Vec<Instr>, bool) {
        let targets = jump_targets(&code);
        let live = Liveness::compute(&code, self.nscalars, self.nregs, protected);
        // A temporary written at `def` and consumed at `consumer` may be
        // elided iff nothing can read it after the consumer.
        let consumed =
            |consumer: usize, t: Reg| self.is_temp(t) && live.dead_after(&code, consumer, t);
        let mut out = Vec::with_capacity(code.len());
        let mut map = vec![0u32; code.len() + 1];
        let mut i = 0usize;
        while i < code.len() {
            let pos = out.len() as u32;
            // a[b[i]]: inner rank-1 load into a temp consumed only by the
            // adjacent outer rank-1 load.
            if i + 1 < code.len() && !targets[i + 1] {
                if let (
                    Instr::Load {
                        dst: t,
                        array: inner,
                        idx: r,
                        rank: 1,
                    },
                    Instr::Load {
                        dst,
                        array: outer,
                        idx,
                        rank: 1,
                    },
                ) = (&code[i], &code[i + 1])
                {
                    if idx == t && consumed(i + 1, *t) {
                        out.push(Instr::LoadLoad {
                            dst: *dst,
                            outer: *outer,
                            inner: *inner,
                            idx: *r,
                        });
                        map[i] = pos;
                        map[i + 1] = pos;
                        i += 2;
                        continue;
                    }
                }
                // Relational compare feeding the adjacent conditional jump.
                if let Instr::Bin { op, dst: t, a, b } = &code[i] {
                    if is_relational(*op) && consumed(i + 1, *t) {
                        let fused = match &code[i + 1] {
                            Instr::Jz { cond, target } if cond == t => Some((*target, false)),
                            Instr::Jnz { cond, target } if cond == t => Some((*target, true)),
                            _ => None,
                        };
                        if let Some((target, jump_if)) = fused {
                            out.push(Instr::CmpBranch {
                                op: *op,
                                a: *a,
                                b: *b,
                                target,
                                jump_if,
                            });
                            map[i] = pos;
                            map[i + 1] = pos;
                            i += 2;
                            continue;
                        }
                    }
                }
            }
            // Rank-2 access whose two subscript copies exist only to make
            // the registers consecutive.  The alias checks exclude the
            // ordering hazards the fusion would otherwise introduce: a copy
            // source aliasing the other copy's destination (the fused form
            // reads both sources at access time, after both copies would
            // have run), or the store's value register aliasing an elided
            // destination.
            if i + 2 < code.len() && !targets[i + 1] && !targets[i + 2] {
                if let (Instr::Copy { dst: t0, src: s0 }, Instr::Copy { dst: t1, src: s1 }) =
                    (&code[i], &code[i + 1])
                {
                    if t1.0 == t0.0 + 1
                        && s0 != t1
                        && s1 != t0
                        && consumed(i + 2, *t0)
                        && consumed(i + 2, *t1)
                    {
                        let fused = match &code[i + 2] {
                            Instr::Load {
                                dst,
                                array,
                                idx,
                                rank: 2,
                            } if idx == t0 => Some(Instr::Load2 {
                                dst: *dst,
                                array: *array,
                                i0: *s0,
                                i1: *s1,
                            }),
                            Instr::Store {
                                array,
                                idx,
                                rank: 2,
                                src,
                            } if idx == t0 && src != t0 && src != t1 => Some(Instr::Store2 {
                                array: *array,
                                i0: *s0,
                                i1: *s1,
                                src: *src,
                            }),
                            _ => None,
                        };
                        if let Some(instr) = fused {
                            out.push(instr);
                            map[i] = pos;
                            map[i + 1] = pos;
                            map[i + 2] = pos;
                            i += 3;
                            continue;
                        }
                    }
                }
            }
            map[i] = pos;
            out.push(code[i].clone());
            i += 1;
        }
        map[code.len()] = out.len() as u32;
        let changed = out.len() != code.len();
        if changed {
            retarget(&mut out, &map);
        }
        (out, changed)
    }

    // -----------------------------------------------------------------------
    // Dead-store elimination.
    // -----------------------------------------------------------------------

    fn dse_pass(&mut self, code: Vec<Instr>, protected: Option<Reg>) -> (Vec<Instr>, bool) {
        let live = Liveness::compute(&code, self.nscalars, self.nregs, protected);
        let removable = |pc: usize, i: &Instr| -> bool {
            let pure = match i {
                Instr::Const { .. }
                | Instr::Copy { .. }
                | Instr::Neg { .. }
                | Instr::Not { .. } => true,
                // Division and remainder can fail at runtime; every other
                // operator is total.
                Instr::Bin { op, .. } => !matches!(op, BinOp::Div | BinOp::Mod),
                _ => false,
            };
            pure && instr_write(i)
                .is_some_and(|dst| self.is_temp(dst) && live.dead_after(&code, pc, dst))
        };
        if !code.iter().enumerate().any(|(pc, i)| removable(pc, i)) {
            return (code, false);
        }
        let mut out = Vec::with_capacity(code.len());
        let mut map = vec![0u32; code.len() + 1];
        for (k, instr) in code.iter().enumerate() {
            map[k] = out.len() as u32;
            if !removable(k, instr) {
                out.push(instr.clone());
            }
        }
        map[code.len()] = out.len() as u32;
        retarget(&mut out, &map);
        (out, true)
    }
}

/// Folds one non-short-circuit binary operation, or `None` when the fold
/// would change runtime behavior (overflow wraps at runtime, division by
/// zero errors at runtime).  Arithmetic goes through `ss_symbolic`'s
/// checked evaluator: any evaluation error vetoes the fold.
fn fold_binop(op: BinOp, x: i64, y: i64) -> Option<i64> {
    use ss_symbolic::{Expr, Valuation};
    let v = Valuation::new();
    let (a, b) = (Expr::int(x), Expr::int(y));
    match op {
        BinOp::Add => v.eval(&Expr::add(a, b)).ok(),
        BinOp::Sub => v.eval(&Expr::sub(a, b)).ok(),
        BinOp::Mul => v.eval(&Expr::mul(a, b)).ok(),
        // i64::MIN / -1 overflows: leave it to the runtime's checked path.
        BinOp::Div if y != 0 && !(x == i64::MIN && y == -1) => v.eval(&Expr::div(a, b)).ok(),
        BinOp::Mod if y != 0 && !(x == i64::MIN && y == -1) => v.eval(&Expr::modulo(a, b)).ok(),
        BinOp::Div | BinOp::Mod => None,
        BinOp::Lt => Some((x < y) as i64),
        BinOp::Le => Some((x <= y) as i64),
        BinOp::Gt => Some((x > y) as i64),
        BinOp::Ge => Some((x >= y) as i64),
        BinOp::Eq => Some((x == y) as i64),
        BinOp::Ne => Some((x != y) as i64),
        BinOp::And | BinOp::Or => None,
    }
}

fn is_relational(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
    )
}

/// Which instruction indices are jump targets (index `len` = block end).
fn jump_targets(code: &[Instr]) -> Vec<bool> {
    let mut t = vec![false; code.len() + 1];
    for i in code {
        match i {
            Instr::Jz { target, .. }
            | Instr::Jnz { target, .. }
            | Instr::Jump { target }
            | Instr::CmpBranch { target, .. } => t[*target as usize] = true,
            _ => {}
        }
    }
    t
}

/// Rewrites every absolute jump target through the old-index → new-index
/// map.  A target landing on a removed instruction retargets to the next
/// surviving one, which is exact: removed instructions are dead on every
/// path, and fused instructions map both halves to the fusion.
fn retarget(code: &mut [Instr], map: &[u32]) {
    for i in code {
        match i {
            Instr::Jz { target, .. }
            | Instr::Jnz { target, .. }
            | Instr::Jump { target }
            | Instr::CmpBranch { target, .. } => *target = map[*target as usize],
            _ => {}
        }
    }
}

/// The registers an instruction reads.  Structured loops read no
/// *temporaries* from the enclosing block (their liveness treats them as
/// clobbering the whole temporary file), and scalar reads are irrelevant
/// to the temp-only analyses, but scalars are reported anyway — the
/// liveness bitset simply ignores them.
fn instr_reads(i: &Instr, out: &mut Vec<Reg>) {
    match i {
        Instr::Const { .. }
        | Instr::Jump { .. }
        | Instr::For(_)
        | Instr::WhileEnter { .. }
        | Instr::WhileIter { .. }
        | Instr::WhileExit { .. } => {}
        Instr::Copy { src, .. } | Instr::Neg { src, .. } | Instr::Not { src, .. } => out.push(*src),
        Instr::Bin { a, b, .. } => {
            out.push(*a);
            out.push(*b);
        }
        Instr::Accum { dst, src, .. } => {
            out.push(*dst);
            out.push(*src);
        }
        Instr::Load { idx, rank, .. } => {
            for k in 0..*rank {
                out.push(Reg(idx.0 + k as u32));
            }
        }
        Instr::Store { idx, rank, src, .. } => {
            for k in 0..*rank {
                out.push(Reg(idx.0 + k as u32));
            }
            out.push(*src);
        }
        Instr::DeclArray { dims, rank, .. } => {
            for k in 0..*rank {
                out.push(Reg(dims.0 + k as u32));
            }
        }
        Instr::Jz { cond, .. } | Instr::Jnz { cond, .. } => out.push(*cond),
        Instr::LoadLoad { idx, .. } => out.push(*idx),
        Instr::CmpBranch { a, b, .. } => {
            out.push(*a);
            out.push(*b);
        }
        Instr::Load2 { i0, i1, .. } => {
            out.push(*i0);
            out.push(*i1);
        }
        Instr::Store2 { i0, i1, src, .. } => {
            out.push(*i0);
            out.push(*i1);
            out.push(*src);
        }
    }
}

/// The register an instruction writes, if any.
fn instr_write(i: &Instr) -> Option<Reg> {
    match i {
        Instr::Const { dst, .. }
        | Instr::Copy { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Accum { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::LoadLoad { dst, .. }
        | Instr::Load2 { dst, .. } => Some(*dst),
        _ => None,
    }
}

/// Every register (scalar or temporary) written anywhere in `code`,
/// recursing through structured loops (index variables and header-block
/// writes included).
fn collect_reg_writes(code: &[Instr], out: &mut HashSet<u32>) {
    for i in code {
        if let Some(d) = instr_write(i) {
            out.insert(d.0);
        }
        if let Instr::For(f) = i {
            out.insert(f.var.0);
            collect_reg_writes(&f.init.code, out);
            collect_reg_writes(&f.bound.code, out);
            collect_reg_writes(&f.step.code, out);
            collect_reg_writes(&f.body, out);
        }
    }
}

/// Every array slot stored to or (re)declared anywhere in `code`,
/// recursing through structured loops.
fn collect_array_stores(code: &[Instr], out: &mut HashSet<u32>) {
    for i in code {
        match i {
            Instr::Store { array, .. }
            | Instr::Store2 { array, .. }
            | Instr::DeclArray { array, .. } => {
                out.insert(array.0);
            }
            Instr::For(f) => {
                collect_array_stores(&f.init.code, out);
                collect_array_stores(&f.bound.code, out);
                collect_array_stores(&f.step.code, out);
                collect_array_stores(&f.body, out);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Linear-scan packing of expression temporaries.
// ---------------------------------------------------------------------------

/// Renumbers each block's expression temporaries with a linear-scan
/// allocator over their (conservative, interval-shaped) live ranges, so
/// short-lived temps share slots and the register frame shrinks.  Scalar
/// registers are observable and never move; each block's temporaries are an
/// independent namespace (structured loops clobber the whole temp file), so
/// blocks pack independently and `nregs` becomes the maximum over all of
/// them.  The pass only renumbers — instruction count, order, evaluation
/// order and error points are untouched — and is idempotent: re-running it
/// on packed code maps every temp to itself.
fn pack_registers(bc: &mut BytecodeProgram) {
    let nscalars = bc.slots.scalar_count();
    pack_code(&mut bc.main, None, nscalars);
    let mut hi = nscalars as u32;
    max_reg(&bc.main, &mut hi);
    bc.nregs = hi as usize;
}

fn pack_code(code: &mut [Instr], protected: Option<&mut Reg>, nscalars: usize) {
    for i in code.iter_mut() {
        if let Instr::For(f) = i {
            pack_code(&mut f.init.code, Some(&mut f.init.result), nscalars);
            pack_code(&mut f.bound.code, Some(&mut f.bound.result), nscalars);
            pack_code(&mut f.step.code, Some(&mut f.step.result), nscalars);
            pack_code(&mut f.body, None, nscalars);
        }
    }
    pack_block(code, protected, nscalars);
}

/// Packs one flat block.  Bails (leaving the block unchanged — correct by
/// construction, just unpacked) on shapes the interval model cannot
/// renumber safely: a temporary live at block entry, or a consecutive
/// register run containing a scalar.
fn pack_block(code: &mut [Instr], protected: Option<&mut Reg>, nscalars: usize) {
    let ns = nscalars as u32;
    let n = code.len();
    // Occurrence intervals per temporary register: [first, last] positions
    // over the linear stream.
    let mut first: HashMap<u32, usize> = HashMap::new();
    let mut last: HashMap<u32, usize> = HashMap::new();
    fn occur(
        ns: u32,
        r: Reg,
        pc: usize,
        first: &mut HashMap<u32, usize>,
        last: &mut HashMap<u32, usize>,
    ) {
        if r.0 >= ns {
            first.entry(r.0).or_insert(pc);
            last.insert(r.0, pc);
        }
    }
    // Consecutive-register runs (rank >= 2 subscript blocks) whose members
    // must stay contiguous and in order.
    let mut runs: Vec<(u32, u32)> = Vec::new();
    let mut reads: Vec<Reg> = Vec::new();
    for (pc, i) in code.iter().enumerate() {
        reads.clear();
        instr_reads(i, &mut reads);
        for r in &reads {
            occur(ns, *r, pc, &mut first, &mut last);
        }
        if let Some(d) = instr_write(i) {
            occur(ns, d, pc, &mut first, &mut last);
        }
        match i {
            Instr::Load { idx, rank, .. } | Instr::Store { idx, rank, .. } if *rank >= 2 => {
                if idx.0 < ns {
                    return; // a scalar inside a run: cannot renumber
                }
                runs.push((idx.0, idx.0 + *rank as u32));
            }
            Instr::DeclArray { dims, rank, .. } if *rank >= 2 => {
                if dims.0 < ns {
                    return;
                }
                runs.push((dims.0, dims.0 + *rank as u32));
            }
            // A header fast path naming a temporary would be a reference
            // into this block's namespace from outside the rewrite below;
            // the compiler only ever puts scalars there, but bail rather
            // than trust it.
            Instr::For(f) => {
                for fast in [f.init_fast, f.bound_fast, f.step_fast] {
                    if matches!(fast, HeaderFast::Reg(r) if r.0 >= ns) {
                        return;
                    }
                }
            }
            _ => {}
        }
    }
    if first.is_empty() {
        return;
    }
    // A temporary live at block entry reads a value from before the block;
    // renumbering would change which value that is.  The compiler never
    // emits the shape, but verify rather than assume.
    {
        let hi = first.keys().copied().max().unwrap_or(ns) as usize + 1;
        let live = Liveness::compute(code, nscalars, hi, None);
        if live.live_in[0..live.words].iter().any(|w| *w != 0) {
            return;
        }
    }
    if let Some(p) = protected.as_ref() {
        if p.0 >= ns {
            last.insert(p.0, n);
            if !first.contains_key(&p.0) {
                return; // a protected temp the block never writes
            }
        }
    }
    // A temporary live across a backward jump is live over the whole jump
    // span, whichever iteration the positions came from.
    let back: Vec<(usize, usize)> = code
        .iter()
        .enumerate()
        .filter_map(|(pc, i)| match i {
            Instr::Jz { target, .. }
            | Instr::Jnz { target, .. }
            | Instr::Jump { target }
            | Instr::CmpBranch { target, .. }
                if (*target as usize) <= pc =>
            {
                Some((*target as usize, pc))
            }
            _ => None,
        })
        .collect();
    // Units: merged overlapping runs, plus singletons for every other temp.
    runs.sort_unstable();
    let mut units: Vec<(u32, u32)> = Vec::new(); // [lo, hi) in old numbering
    for (lo, hi) in runs {
        match units.last_mut() {
            Some((_, uhi)) if lo < *uhi => *uhi = (*uhi).max(hi),
            _ => units.push((lo, hi)),
        }
    }
    let merged = units.clone();
    let in_run = |r: u32| merged.iter().any(|(lo, hi)| (*lo..*hi).contains(&r));
    let mut regs: Vec<u32> = first.keys().copied().collect();
    regs.sort_unstable();
    for r in regs {
        if !in_run(r) {
            units.push((r, r + 1));
        }
    }
    // Interval per unit, extended to fixpoint over backward-jump spans.
    struct Unit {
        lo: u32,
        width: u32,
        start: usize,
        end: usize,
    }
    let mut list: Vec<Unit> = units
        .into_iter()
        .map(|(lo, hi)| {
            let members = lo..hi;
            let start = members
                .clone()
                .filter_map(|r| first.get(&r))
                .copied()
                .min()
                .unwrap_or(0);
            let end = members
                .filter_map(|r| last.get(&r))
                .copied()
                .max()
                .unwrap_or(n);
            Unit {
                lo,
                width: hi - lo,
                start,
                end,
            }
        })
        .collect();
    loop {
        let mut changed = false;
        for u in &mut list {
            for (t, j) in &back {
                if u.start <= *j && *t <= u.end {
                    let (s, e) = (u.start.min(*t), u.end.max(*j));
                    if (s, e) != (u.start, u.end) {
                        u.start = s;
                        u.end = e;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Linear scan: allocate each unit the lowest free contiguous window.
    list.sort_by_key(|u| (u.start, u.lo));
    let mut active: Vec<(usize, u32, u32)> = Vec::new(); // (end, slot, width)
    let mut map: HashMap<u32, u32> = HashMap::new();
    for u in &list {
        active.retain(|(end, _, _)| *end >= u.start);
        let mut slot = 0u32;
        'place: loop {
            for (_, s, w) in &active {
                if slot < s + w && *s < slot + u.width {
                    slot = s + w;
                    continue 'place;
                }
            }
            break;
        }
        active.push((u.end, slot, u.width));
        for k in 0..u.width {
            map.insert(u.lo + k, ns + slot + k);
        }
    }
    // Rewrite.  Structured loops are skipped: their blocks are separate
    // namespaces packed by their own recursion.
    let remap = |r: &mut Reg| {
        if r.0 >= ns {
            *r = Reg(map[&r.0]);
        }
    };
    for i in code.iter_mut() {
        remap_instr_regs(i, &remap);
    }
    if let Some(p) = protected {
        if p.0 >= ns {
            *p = Reg(map[&p.0]);
        }
    }
}

/// Applies `f` to every register operand of one instruction (structured
/// loops excluded — their registers belong to inner namespaces).
fn remap_instr_regs(i: &mut Instr, f: &impl Fn(&mut Reg)) {
    match i {
        Instr::Const { dst, .. } => f(dst),
        Instr::Copy { dst, src } | Instr::Neg { dst, src } | Instr::Not { dst, src } => {
            f(dst);
            f(src);
        }
        Instr::Bin { dst, a, b, .. } => {
            f(dst);
            f(a);
            f(b);
        }
        Instr::Accum { dst, src, .. } => {
            f(dst);
            f(src);
        }
        Instr::Load { dst, idx, .. } => {
            f(dst);
            f(idx);
        }
        Instr::Store { idx, src, .. } => {
            f(idx);
            f(src);
        }
        Instr::DeclArray { dims, .. } => f(dims),
        Instr::Jz { cond, .. } | Instr::Jnz { cond, .. } => f(cond),
        Instr::Jump { .. }
        | Instr::For(_)
        | Instr::WhileEnter { .. }
        | Instr::WhileIter { .. }
        | Instr::WhileExit { .. } => {}
        Instr::LoadLoad { dst, idx, .. } => {
            f(dst);
            f(idx);
        }
        Instr::CmpBranch { a, b, .. } => {
            f(a);
            f(b);
        }
        Instr::Load2 { dst, i0, i1, .. } => {
            f(dst);
            f(i0);
            f(i1);
        }
        Instr::Store2 { i0, i1, src, .. } => {
            f(i0);
            f(i1);
            f(src);
        }
    }
}

/// Grows `hi` to one past the highest register index used anywhere
/// (instruction operands, header results, index variables), recursively.
fn max_reg(code: &[Instr], hi: &mut u32) {
    let mut reads: Vec<Reg> = Vec::new();
    for i in code {
        reads.clear();
        instr_reads(i, &mut reads);
        if let Some(d) = instr_write(i) {
            reads.push(d);
        }
        for r in &reads {
            *hi = (*hi).max(r.0 + 1);
        }
        if let Instr::For(f) = i {
            *hi = (*hi).max(f.var.0 + 1);
            for e in [&f.init, &f.bound, &f.step] {
                *hi = (*hi).max(e.result.0 + 1);
                max_reg(&e.code, hi);
            }
            max_reg(&f.body, hi);
        }
    }
}

// ---------------------------------------------------------------------------
// Constant-pool compaction.
// ---------------------------------------------------------------------------

/// Rebuilds the pool around the `Const` loads that survived optimization,
/// so the disassembly lists no orphaned constants.
fn compact_pool(bc: &mut BytecodeProgram) {
    let mut used: Vec<u32> = Vec::new();
    collect_pools(&bc.main, &mut used);
    used.sort_unstable();
    used.dedup();
    let mut remap: HashMap<u32, u32> = HashMap::new();
    let mut consts = Vec::with_capacity(used.len());
    for old in used {
        remap.insert(old, consts.len() as u32);
        consts.push(bc.consts[old as usize]);
    }
    remap_pools(&mut bc.main, &remap);
    bc.consts = consts;
}

fn collect_pools(code: &[Instr], out: &mut Vec<u32>) {
    for i in code {
        match i {
            Instr::Const { pool, .. } => out.push(*pool),
            Instr::For(f) => {
                collect_pools(&f.init.code, out);
                collect_pools(&f.bound.code, out);
                collect_pools(&f.step.code, out);
                collect_pools(&f.body, out);
            }
            _ => {}
        }
    }
}

fn remap_pools(code: &mut [Instr], remap: &HashMap<u32, u32>) {
    for i in code {
        match i {
            Instr::Const { pool, .. } => *pool = remap[pool],
            Instr::For(f) => {
                remap_pools(&mut f.init.code, remap);
                remap_pools(&mut f.bound.code, remap);
                remap_pools(&mut f.step.code, remap);
                remap_pools(&mut f.body, remap);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::compile_bytecode;
    use crate::parser::parse_program;
    use crate::slots::compile_program;

    fn o1(src: &str) -> BytecodeProgram {
        let bc = compile_bytecode(&compile_program(&parse_program("t", src).unwrap()));
        optimize(&bc, OptLevel::O1)
    }

    fn count<F: Fn(&Instr) -> bool>(code: &[Instr], f: F) -> usize {
        fn walk<F: Fn(&Instr) -> bool>(code: &[Instr], f: &F, n: &mut usize) {
            for i in code {
                if f(i) {
                    *n += 1;
                }
                if let Instr::For(fr) = i {
                    walk(&fr.init.code, f, n);
                    walk(&fr.bound.code, f, n);
                    walk(&fr.step.code, f, n);
                    walk(&fr.body, f, n);
                }
            }
        }
        let mut n = 0;
        walk(code, &f, &mut n);
        n
    }

    #[test]
    fn o0_is_the_identity() {
        let bc = compile_bytecode(&compile_program(
            &parse_program("t", "x = 1 + 2; if (x < y) { z = a[b[0]]; }").unwrap(),
        ));
        let same = optimize(&bc, OptLevel::O0);
        assert_eq!(same.main, bc.main);
        assert_eq!(same.consts, bc.consts);
    }

    #[test]
    fn subscripted_subscript_loads_fuse() {
        let p = o1("x = a[b[i]];");
        assert_eq!(count(&p.main, |i| matches!(i, Instr::LoadLoad { .. })), 1);
        assert_eq!(count(&p.main, |i| matches!(i, Instr::Load { .. })), 0);
        assert!(p.disassemble().contains("ldld     %x <- a[b[%i]]"));
    }

    #[test]
    fn compares_fuse_into_their_branches() {
        let p = o1("if (x < y) { z = 1; } else { z = 2; }");
        assert_eq!(count(&p.main, |i| matches!(i, Instr::CmpBranch { .. })), 1);
        assert_eq!(
            count(&p.main, |i| matches!(i, Instr::Bin { op: BinOp::Lt, .. })),
            0
        );
        // The fused branch falls into the then-branch and jumps (on false)
        // to the else-branch; every target stays in range.
        for i in &p.main {
            if let Instr::CmpBranch {
                target, jump_if, ..
            } = i
            {
                assert!(!*jump_if);
                assert!((*target as usize) <= p.main.len());
            }
        }
    }

    #[test]
    fn rank2_accesses_elide_their_subscript_copies() {
        let p = o1("m[i][j] = 7; x = m[i][j];");
        assert_eq!(count(&p.main, |i| matches!(i, Instr::Store2 { .. })), 1);
        assert_eq!(count(&p.main, |i| matches!(i, Instr::Load2 { .. })), 1);
        assert_eq!(count(&p.main, |i| matches!(i, Instr::Copy { .. })), 0);
    }

    #[test]
    fn constants_fold_and_the_pool_compacts() {
        let p = o1("x = 2 + 3; y = x;");
        // x = 5 directly; y = x stays a copy (x is a runtime register).
        assert!(matches!(p.main[0], Instr::Const { .. }));
        assert_eq!(p.consts, vec![5]);
        // Within one straight line the lattice also knows x == 5.
        assert!(matches!(p.main[1], Instr::Const { .. }));
    }

    #[test]
    fn division_by_zero_is_never_folded() {
        let p = o1("x = 1 / 0; y = 7 % 0;");
        assert_eq!(
            count(&p.main, |i| matches!(
                i,
                Instr::Bin {
                    op: BinOp::Div | BinOp::Mod,
                    ..
                }
            )),
            2
        );
    }

    #[test]
    fn overflow_is_never_folded() {
        let src = format!("x = {} + 1; y = {} * 2;", i64::MAX, i64::MAX);
        let p = o1(&src);
        assert_eq!(count(&p.main, |i| matches!(i, Instr::Bin { .. })), 2);
    }

    #[test]
    fn scalar_writes_are_never_deleted() {
        // Nothing reads x, but its write must survive (defined-ness and
        // final-heap contents are observable).
        let p = o1("x = 5;");
        assert_eq!(p.main.len(), 1);
        assert!(matches!(p.main[0], Instr::Const { dst: Reg(0), .. }));
    }

    #[test]
    fn loop_header_blocks_and_bodies_are_optimized() {
        let p = o1("for (i = 0; i < n; i++) { out[i] = a[b[i]]; if (i < 3) { x = 1 + 1; } }");
        assert_eq!(count(&p.main, |i| matches!(i, Instr::LoadLoad { .. })), 1);
        assert_eq!(count(&p.main, |i| matches!(i, Instr::CmpBranch { .. })), 1);
        // `1 + 1` folded somewhere inside the loop body.
        assert!(p.consts.contains(&2));
    }

    #[test]
    fn while_loops_keep_their_guards_and_backward_jumps() {
        let p = o1("w = 0; while (w < 3) { w = w + 1; }");
        assert_eq!(count(&p.main, |i| matches!(i, Instr::WhileEnter { .. })), 1);
        assert_eq!(count(&p.main, |i| matches!(i, Instr::WhileIter { .. })), 1);
        assert_eq!(count(&p.main, |i| matches!(i, Instr::WhileExit { .. })), 1);
        // The loop's compare fused with its exit test; the backward jump
        // still lands on the condition head (right after WhileEnter).
        let enter_at = p
            .main
            .iter()
            .position(|i| matches!(i, Instr::WhileEnter { .. }))
            .unwrap();
        let back = p
            .main
            .iter()
            .filter_map(|i| match i {
                Instr::Jump { target } => Some(*target),
                _ => None,
            })
            .min()
            .unwrap();
        assert_eq!(back as usize, enter_at + 1);
    }

    #[test]
    fn opt_level_defaults_and_prints() {
        assert_eq!(OptLevel::default(), OptLevel::O1);
        assert_eq!(OptLevel::O0.to_string(), "O0");
        assert_eq!(OptLevel::O1.label(), "O1");
    }
}
