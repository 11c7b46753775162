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
//!   use `i64`'s checked operations, whose overflow and division-by-zero
//!   `None` simply vetoes the fold — the instruction stays and fails (or
//!   wraps) at runtime exactly like the unoptimized stream;
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
//!
//! The pass never renumbers registers: it keeps the base compiler's
//! temporary numbering and register count (there is no register packer),
//! so no temporary is reused for a second subexpression of a statement.  It
//! learns operands through the walker in [`crate::bytecode`], and its
//! [`Liveness`] is the tier's one answer to "is this temporary dead after
//! `pc`" — the threaded lowering asks it too.

use crate::ast::BinOp;
use crate::bytecode::{
    jump_targets, reg_writes, walk, walk_mut, BcExpr, BcFor, BytecodeProgram, HeaderFast, Instr,
    Reg,
};
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
    out
}

struct Optimizer {
    consts: Vec<i64>,
    const_ids: HashMap<i64, u32>,
    nscalars: usize,
    nregs: usize,
}

/// Per-instruction liveness of the *temporary* registers of one block
/// (scalar registers are always observable and never dead).  Computed by a
/// backward fixpoint over the block's instruction-level control flow, so a
/// temporary consumed on a jump path counts as live at the jump — no
/// reliance on the compiler's def-before-use convention.  The optimizer's
/// fusion and dead-store elimination and the threaded lowering's constant
/// fusion all ask it.
pub struct Liveness {
    nscalars: u32,
    words: usize,
    /// `live_in[pc]`; index `len` is the block exit (holding the protected
    /// result register of expression blocks).
    live_in: Vec<u64>,
}

impl Liveness {
    /// Liveness of `code`, a block of a stream with `nscalars` scalar
    /// registers and `nregs` registers in all.  `protected` is the block's
    /// result register (for header blocks): it counts as live at block exit.
    pub fn compute(
        code: &[Instr],
        nscalars: usize,
        nregs: usize,
        protected: Option<Reg>,
    ) -> Liveness {
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
        loop {
            let mut changed = false;
            for pc in (0..n).rev() {
                let mut row = lv.out_row(code, pc);
                // Kill the write, add the reads.
                if let Some((w, bit)) = code[pc].write().and_then(|d| lv.temp_bit(d)) {
                    row[w] &= !bit;
                }
                if matches!(code[pc], Instr::For(_)) {
                    // A structured loop's inner blocks recycle the whole
                    // temporary file: it clobbers every temp and reads none
                    // from the enclosing block.
                    row.iter_mut().for_each(|w| *w = 0);
                }
                code[pc].reads(|r| {
                    if let Some((w, bit)) = lv.temp_bit(r) {
                        row[w] |= bit;
                    }
                });
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
        if let Some(target) = code[pc].target() {
            add(target as usize);
        }
        if !matches!(code[pc], Instr::Jump { .. }) {
            add(pc + 1);
        }
        row
    }

    /// True when the temporary `r` is dead after instruction `pc` of the
    /// block it was computed for (on every outgoing path).  Scalar
    /// registers are never dead.
    pub fn dead_after(&self, code: &[Instr], pc: usize, r: Reg) -> bool {
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
        let init_fast = init.shape_fast(&self.consts);
        let mut bound_fast = bound.shape_fast(&self.consts);
        let mut step_fast = step.shape_fast(&self.consts);
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
        for block in [&body, &bound.code, &step.code] {
            reg_writes(block, &mut clobbered);
        }
        // Every array stored to or (re)declared anywhere in the body.
        let mut stored: HashSet<u32> = HashSet::new();
        walk(&body, &mut |i| {
            if let Instr::Store { array, .. }
            | Instr::Store2 { array, .. }
            | Instr::DeclArray { array, .. } = i
            {
                stored.insert(array.0);
            }
        });
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
            if i.write().is_some_and(|d| !self.is_temp(d)) {
                return false;
            }
            i.reads(|r| reads.push(r));
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
                    if let Some(dst) = other.write() {
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
                    if op.is_comparison() && consumed(i + 1, *t) {
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
            pure && i
                .write()
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
/// would change runtime behavior: overflow wraps at runtime, and division
/// or remainder by zero (or of `i64::MIN` by `-1`) errors at runtime.  The
/// checked `i64` operations return `None` in exactly those cases.
fn fold_binop(op: BinOp, x: i64, y: i64) -> Option<i64> {
    match op {
        BinOp::Add => x.checked_add(y),
        BinOp::Sub => x.checked_sub(y),
        BinOp::Mul => x.checked_mul(y),
        BinOp::Div => x.checked_div(y),
        BinOp::Mod => x.checked_rem(y),
        BinOp::Lt => Some((x < y) as i64),
        BinOp::Le => Some((x <= y) as i64),
        BinOp::Gt => Some((x > y) as i64),
        BinOp::Ge => Some((x >= y) as i64),
        BinOp::Eq => Some((x == y) as i64),
        BinOp::Ne => Some((x != y) as i64),
        BinOp::And | BinOp::Or => None,
    }
}

/// Rewrites every absolute jump target through the old-index → new-index
/// map.  A target landing on a removed instruction retargets to the next
/// surviving one, which is exact: removed instructions are dead on every
/// path, and fused instructions map both halves to the fusion.
fn retarget(code: &mut [Instr], map: &[u32]) {
    for target in code.iter_mut().filter_map(Instr::target_mut) {
        *target = map[*target as usize];
    }
}

/// Rebuilds the pool around the `Const` loads that survived optimization,
/// so the disassembly lists no orphaned constants.
fn compact_pool(bc: &mut BytecodeProgram) {
    let mut used: Vec<u32> = Vec::new();
    walk(&bc.main, &mut |i| {
        if let Instr::Const { pool, .. } = i {
            used.push(*pool);
        }
    });
    used.sort_unstable();
    used.dedup();
    let mut remap: HashMap<u32, u32> = HashMap::new();
    let mut consts = Vec::with_capacity(used.len());
    for old in used {
        remap.insert(old, consts.len() as u32);
        consts.push(bc.consts[old as usize]);
    }
    walk_mut(&mut bc.main, &mut |i| {
        if let Instr::Const { pool, .. } = i {
            *pool = remap[pool];
        }
    });
    bc.consts = consts;
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
        let mut n = 0;
        walk(code, &mut |i| n += f(i) as usize);
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
