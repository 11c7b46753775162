//! Expression-level bytecode: from the name-resolved AST to a flat
//! register-machine instruction stream.
//!
//! [`compile_bytecode`] walks the AST once, reading every name through the
//! program's [`SlotMap`] (the `slots` stage, [`crate::slots`]), so no
//! executor hashes a name or walks an expression tree at run time:
//!
//! * expressions become straight-line [`Instr`] sequences over **numbered
//!   virtual registers**.  Registers `0..scalar_count` permanently alias the
//!   scalar slots (so a scalar read is free: the operand *is* the
//!   register); registers above that are per-statement expression
//!   temporaries;
//! * integer literals live in a deduplicated **constant pool** loaded by
//!   [`Instr::Const`];
//! * conditionals, short-circuit `&&`/`||` and `while` loops lower to
//!   **absolute jumps** ([`Instr::Jz`], [`Instr::Jnz`], [`Instr::Jump`])
//!   over a linear program counter.  Flattened `while` loops keep their
//!   iteration-cap/statistics semantics through the
//!   [`Instr::WhileEnter`]/[`Instr::WhileIter`]/[`Instr::WhileExit`] guard
//!   instructions;
//! * array traffic goes through dedicated instructions that take their
//!   subscripts from a run of consecutive registers ([`Instr::Load`],
//!   [`Instr::Store`], [`Instr::DeclArray`]);
//! * compound assignments (`x += e`, `a[i] *= e`) use a dedicated
//!   accumulate instruction ([`Instr::Accum`]) — one fused
//!   read-modify-write, which is also the shape of every recognized
//!   reduction's update;
//! * counted `for` loops stay structured ([`Instr::For`]) because executors
//!   attach per-loop behavior to them (iteration caps, statistics,
//!   parallel dispatch).  Their header expressions (init/bound/step) are
//!   themselves flat [`BcExpr`] blocks, and each [`BcFor`] carries the
//!   dispatch facts read off its AST: the arrays its body declares,
//!   whether those are privatizable, and whether its work is skewed.
//!
//! Compilation happens **once per program**, right after name resolution,
//! in the `ss_parallelizer` pipeline; no executor recompiles per run or per
//! loop entry.
//!
//! This module is also the one place that knows an instruction's operands:
//! [`Instr::reads`], [`Instr::write`], [`Instr::target`], a loop's
//! [`BcFor::blocks`], the recursive [`walk`], [`jump_targets`],
//! [`reg_writes`] and the header-shape rule [`BcExpr::shape_fast`].  The
//! optimizer and the threaded lowering walk the stream through them
//! rather than matching on every variant themselves.
//!
//! [`BytecodeProgram::disassemble`] renders the whole stream as a readable
//! listing (scalar registers shown by name), which the golden snapshot
//! tests diff so instruction-selection regressions are visible in review.

use crate::ast::{for_each_stmt, private_arrays, AExpr, AssignOp, BinOp, LoopId, Stmt, UnOp};
use crate::slots::{ArraySlot, CompiledProgram, SlotMap};
use std::collections::{HashMap, HashSet};

/// A virtual register.  Registers `0..scalar_count` alias the scalar slots
/// of the program's [`SlotMap`]; higher registers are expression
/// temporaries with no cross-statement lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl Reg {
    /// The register as a `usize` index into the register file.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One instruction of the register machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = consts[pool]`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Index into the constant pool.
        pool: u32,
    },
    /// `dst = src`.
    Copy {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = a op b` (non-short-circuit operators only; `&&`/`||` compile
    /// to jumps).
    Bin {
        /// The operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `dst = dst op src` — the fused accumulate behind every compound
    /// assignment, including reduction updates (`sum += term`).
    Accum {
        /// Compound operator (`Assign` is never emitted here).
        op: AssignOp,
        /// Accumulator register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `dst = -src` (wrapping).
    Neg {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = (src == 0)`.
    Not {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = array[r(idx), r(idx+1), …, r(idx+rank-1)]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// The array.
        array: ArraySlot,
        /// First subscript register (subscripts are consecutive).
        idx: Reg,
        /// Number of subscripts.
        rank: u8,
    },
    /// `array[r(idx), …, r(idx+rank-1)] = src`.
    Store {
        /// The array.
        array: ArraySlot,
        /// First subscript register.
        idx: Reg,
        /// Number of subscripts.
        rank: u8,
        /// Value register.
        src: Reg,
    },
    /// Allocates fresh zero-filled storage with extents
    /// `r(dims), …, r(dims+rank-1)` (negative extents clamp to 0).
    DeclArray {
        /// The declared array.
        array: ArraySlot,
        /// First extent register.
        dims: Reg,
        /// Number of extents.
        rank: u8,
    },
    /// Jump to `target` when `cond` is zero.
    Jz {
        /// Condition register.
        cond: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Jump to `target` when `cond` is non-zero.
    Jnz {
        /// Condition register.
        cond: Reg,
        /// Absolute instruction index.
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Absolute instruction index.
        target: u32,
    },
    /// A counted loop (structured: executors hook dispatch, caps and stats
    /// here).
    For(Box<BcFor>),
    /// Enters a flattened `while` loop: pushes a guard frame (iteration
    /// counter, wall-clock start).
    WhileEnter {
        /// Loop id.
        id: LoopId,
    },
    /// One `while` iteration is about to run: errors if the innermost
    /// guard's count has reached the executor's cap, else increments it.
    WhileIter {
        /// Loop id.
        id: LoopId,
    },
    /// Exits a flattened `while` loop: pops the guard frame and records
    /// loop statistics.
    WhileExit {
        /// Loop id.
        id: LoopId,
    },
    /// `dst = outer[inner[idx]]` — the fused subscripted-subscript load.
    /// Emitted only by the [`crate::opt`] O1 pass (never by the base
    /// compiler); evaluation order and error points match the two loads it
    /// replaces: the inner read first, then the outer.
    LoadLoad {
        /// Destination register.
        dst: Reg,
        /// The outer array (`a` in `a[b[i]]`).
        outer: ArraySlot,
        /// The inner (index) array (`b` in `a[b[i]]`).
        inner: ArraySlot,
        /// Subscript register of the inner load.
        idx: Reg,
    },
    /// Fused compare-and-branch (O1): jump to `target` when
    /// `(a op b) == jump_if`.  `op` is always a relational operator, so the
    /// fused form cannot fail where the `Bin` + `Jz`/`Jnz` pair could not.
    CmpBranch {
        /// Relational operator (`<`, `<=`, `>`, `>=`, `==`, `!=`).
        op: BinOp,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
        /// Absolute instruction index.
        target: u32,
        /// Jump when the comparison is true (`Jnz` shape) or false (`Jz`).
        jump_if: bool,
    },
    /// `dst = array[r(i0), r(i1)]` — rank-2 load whose subscripts come from
    /// two *arbitrary* registers (O1: elides the consecutive-register
    /// subscript copies the base compiler emits).
    Load2 {
        /// Destination register.
        dst: Reg,
        /// The array.
        array: ArraySlot,
        /// First subscript register.
        i0: Reg,
        /// Second subscript register.
        i1: Reg,
    },
    /// `array[r(i0), r(i1)] = src` — the rank-2 store counterpart of
    /// [`Instr::Load2`].
    Store2 {
        /// The array.
        array: ArraySlot,
        /// First subscript register.
        i0: Reg,
        /// Second subscript register.
        i1: Reg,
        /// Value register.
        src: Reg,
    },
}

/// A flat expression block: executing `code` leaves the value in `result`.
#[derive(Debug, Clone, PartialEq)]
pub struct BcExpr {
    /// The instructions.
    pub code: Vec<Instr>,
    /// Register holding the value afterwards.
    pub result: Reg,
}

/// How an executor may obtain a loop-header value (`init`/`bound`/`step`)
/// without running its expression block.  The base compiler always emits
/// [`HeaderFast::Eval`]; the O1 optimizer upgrades blocks it can prove
/// trivial — an empty block whose result is a plain register read, or a
/// single constant load.  Both shapes are side-effect- and error-free, so
/// skipping the block execution is unobservable; the block's code is kept
/// alongside, and executing it instead is always still correct.
///
/// [`HeaderFast::EvalOnce`] is the cross-iteration loop-invariant upgrade:
/// the block must still be executed (it may read arrays and can fault), but
/// the optimizer has proven that nothing the loop body (or the sibling
/// header blocks) writes feeds back into it, so one evaluation per loop
/// *entry* yields the same value — and the same error, at the same program
/// point, since the first evaluation happens exactly where `Eval` would
/// perform it — as re-evaluating every iteration.  This is what turns the
/// CSR-traversal bound `rowptr[i + 1]` into a hoisted load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeaderFast {
    /// Execute the expression block every time (the O0 behavior).
    Eval,
    /// Proven loop-invariant: execute the block once per loop entry and
    /// reuse the value for every subsequent iteration.
    EvalOnce,
    /// The block is empty: the value is a read of this register.
    Reg(Reg),
    /// The block is one constant load: the value is this constant.
    Const(i64),
}

/// A compiled counted loop: flat header expressions, flat body, and the
/// dispatch facts the lowering reads off the loop's AST.
#[derive(Debug, Clone, PartialEq)]
pub struct BcFor {
    /// Loop id (verdicts are keyed by it).
    pub id: LoopId,
    /// Register of the index variable (always a scalar register).
    pub var: Reg,
    /// Initial-value block.
    pub init: BcExpr,
    /// Comparison operator of the exit test.
    pub cond_op: BinOp,
    /// Bound block (re-executed every iteration, like the tree walker).
    pub bound: BcExpr,
    /// Step block.
    pub step: BcExpr,
    /// Fast path for the init value (O1-derived; `Eval` in O0 streams).
    pub init_fast: HeaderFast,
    /// Fast path for the per-iteration bound (O1-derived).
    pub bound_fast: HeaderFast,
    /// Fast path for the per-iteration step (O1-derived).
    pub step_fast: HeaderFast,
    /// Loop body.
    pub body: Vec<Instr>,
    /// Arrays declared anywhere inside the body (transitively, in
    /// pre-order): dispatched workers give these per-iteration private
    /// storage instead of sharing the heap allocation.
    pub local_arrays: Vec<ArraySlot>,
    /// True when every array in `local_arrays` is one of the body's
    /// [`private_arrays`] — the same function the dependence test
    /// privatizes them with.  When false, a worker could observe
    /// pre-declaration storage the serial execution would not;
    /// dispatchers must run such loops serially (the analysis will not have
    /// proven them parallel anyway unless the array is never written).
    pub locals_dominated: bool,
    /// True when a nested loop's init or bound reads an array (the CSR row
    /// shape) or this loop's own index (a triangular nest): per-iteration
    /// work varies, so `Auto` scheduling picks chunk stealing.
    pub skewed: bool,
}

/// A whole program as bytecode: the top-level stream, the constant pool,
/// the register-file size and the (cloned) name table.
#[derive(Debug, Clone)]
pub struct BytecodeProgram {
    /// Top-level instruction stream.
    pub main: Vec<Instr>,
    /// The constant pool (deduplicated).
    pub consts: Vec<i64>,
    /// Total registers any block needs (`scalar_count()` scalars plus the
    /// deepest temporary run).
    pub nregs: usize,
    /// The interned name table the program was lowered through.
    pub slots: SlotMap,
}

// ---------------------------------------------------------------------------
// Operands: the one walker.
// ---------------------------------------------------------------------------

impl Instr {
    /// Calls `f` on every register the instruction reads, in operand order
    /// (a subscript or extent run reports each of its registers).  A
    /// structured loop reads nothing here: its header blocks and body are
    /// blocks of their own (see [`BcFor::blocks`]).
    pub fn reads(&self, mut f: impl FnMut(Reg)) {
        let run = |first: Reg, rank: u8| (0..rank as u32).map(move |k| Reg(first.0 + k));
        match self {
            Instr::Const { .. }
            | Instr::Jump { .. }
            | Instr::For(_)
            | Instr::WhileEnter { .. }
            | Instr::WhileIter { .. }
            | Instr::WhileExit { .. } => {}
            Instr::Copy { src, .. } | Instr::Neg { src, .. } | Instr::Not { src, .. } => f(*src),
            Instr::Bin { a, b, .. } | Instr::CmpBranch { a, b, .. } => {
                f(*a);
                f(*b);
            }
            Instr::Accum { dst, src, .. } => {
                f(*dst);
                f(*src);
            }
            Instr::Load { idx, rank, .. } => run(*idx, *rank).for_each(f),
            Instr::Store { idx, rank, src, .. } => {
                run(*idx, *rank).for_each(&mut f);
                f(*src);
            }
            Instr::DeclArray { dims, rank, .. } => run(*dims, *rank).for_each(f),
            Instr::Jz { cond, .. } | Instr::Jnz { cond, .. } => f(*cond),
            Instr::LoadLoad { idx, .. } => f(*idx),
            Instr::Load2 { i0, i1, .. } => {
                f(*i0);
                f(*i1);
            }
            Instr::Store2 { i0, i1, src, .. } => {
                f(*i0);
                f(*i1);
                f(*src);
            }
        }
    }

    /// The register the instruction writes, if any.  A structured loop's
    /// writes live in its blocks (see [`reg_writes`]).
    pub fn write(&self) -> Option<Reg> {
        match self {
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

    /// The absolute jump target of a branch, if the instruction is one.
    pub fn target(&self) -> Option<u32> {
        match self {
            Instr::Jz { target, .. }
            | Instr::Jnz { target, .. }
            | Instr::Jump { target }
            | Instr::CmpBranch { target, .. } => Some(*target),
            _ => None,
        }
    }

    /// [`Instr::target`], for rewriting it.
    pub fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Instr::Jz { target, .. }
            | Instr::Jnz { target, .. }
            | Instr::Jump { target }
            | Instr::CmpBranch { target, .. } => Some(target),
            _ => None,
        }
    }
}

impl BcFor {
    /// The loop's four blocks: init, bound, step and body.
    pub fn blocks(&self) -> [&[Instr]; 4] {
        [
            &self.init.code,
            &self.bound.code,
            &self.step.code,
            &self.body,
        ]
    }

    /// [`BcFor::blocks`], for rewriting them.
    pub fn blocks_mut(&mut self) -> [&mut Vec<Instr>; 4] {
        [
            &mut self.init.code,
            &mut self.bound.code,
            &mut self.step.code,
            &mut self.body,
        ]
    }
}

impl BcExpr {
    /// The header fast path the block's shape alone licenses: an empty
    /// block is a read of its result register, a single constant load into
    /// the result is that constant, anything else is [`HeaderFast::Eval`].
    /// Both trivial shapes are side-effect- and error-free, so skipping the
    /// block is unobservable.
    pub fn shape_fast(&self, consts: &[i64]) -> HeaderFast {
        match self.code.as_slice() {
            [] => HeaderFast::Reg(self.result),
            [Instr::Const { dst, pool }] if *dst == self.result => {
                HeaderFast::Const(consts[*pool as usize])
            }
            _ => HeaderFast::Eval,
        }
    }
}

/// Calls `f` on every instruction of `code`, descending into each
/// structured loop's blocks right after the loop itself.
pub fn walk<'a>(code: &'a [Instr], f: &mut impl FnMut(&'a Instr)) {
    for i in code {
        f(i);
        if let Instr::For(l) = i {
            l.blocks().into_iter().for_each(|b| walk(b, f));
        }
    }
}

/// [`walk`], for rewriting the instructions in place.
pub fn walk_mut(code: &mut [Instr], f: &mut impl FnMut(&mut Instr)) {
    for i in code {
        f(i);
        if let Instr::For(l) = i {
            l.blocks_mut().into_iter().for_each(|b| walk_mut(b, f));
        }
    }
}

/// Which instruction indices of one block are jump targets (index `len` is
/// the block end).
pub fn jump_targets(code: &[Instr]) -> Vec<bool> {
    let mut t = vec![false; code.len() + 1];
    for target in code.iter().filter_map(Instr::target) {
        t[target as usize] = true;
    }
    t
}

/// Adds every register written anywhere in `code` to `out`, through
/// structured loops (their index variables and header blocks included).
pub fn reg_writes(code: &[Instr], out: &mut HashSet<u32>) {
    walk(code, &mut |i| {
        if let Some(d) = i.write() {
            out.insert(d.0);
        }
        if let Instr::For(f) = i {
            out.insert(f.var.0);
        }
    });
}

/// Lowers a name-resolved program to bytecode: the AST is walked once,
/// every name read through the program's [`SlotMap`].
pub fn compile_bytecode(compiled: &CompiledProgram<'_>) -> BytecodeProgram {
    let slots = &compiled.slots;
    let nscalars = slots.scalar_count() as u32;
    let mut cx = Cx {
        slots,
        consts: Vec::new(),
        const_ids: HashMap::new(),
        nscalars,
        next_temp: nscalars,
        max_regs: nscalars,
    };
    let main = compile_block(&compiled.program.body, &mut cx);
    BytecodeProgram {
        main,
        consts: cx.consts,
        nregs: cx.max_regs as usize,
        slots: slots.clone(),
    }
}

struct Cx<'s> {
    slots: &'s SlotMap,
    consts: Vec<i64>,
    const_ids: HashMap<i64, u32>,
    nscalars: u32,
    next_temp: u32,
    max_regs: u32,
}

impl Cx<'_> {
    fn pool(&mut self, v: i64) -> u32 {
        if let Some(&id) = self.const_ids.get(&v) {
            return id;
        }
        let id = self.consts.len() as u32;
        self.consts.push(v);
        self.const_ids.insert(v, id);
        id
    }

    fn temp(&mut self) -> Reg {
        let r = self.next_temp;
        self.next_temp += 1;
        self.max_regs = self.max_regs.max(self.next_temp);
        Reg(r)
    }

    /// A run of `n` consecutive temporaries (for subscript/extent vectors).
    fn temp_block(&mut self, n: usize) -> Reg {
        let r = self.next_temp;
        self.next_temp += n as u32;
        self.max_regs = self.max_regs.max(self.next_temp);
        Reg(r)
    }

    /// Expression temporaries have no cross-statement lifetime.
    fn reset_temps(&mut self) {
        self.next_temp = self.nscalars;
    }

    /// The register aliasing a scalar's slot.
    fn scalar(&self, name: &str) -> Reg {
        Reg(self
            .slots
            .scalar_slot(name)
            .expect("every scalar is resolved") as u32)
    }

    fn array(&self, name: &str) -> ArraySlot {
        self.slots
            .array_slot(name)
            .expect("every array is resolved")
    }
}

/// Lowers a block into its own instruction stream (jump targets are
/// indices into it).
fn compile_block(stmts: &[Stmt], cx: &mut Cx) -> Vec<Instr> {
    let mut code = Vec::new();
    for s in stmts {
        compile_stmt(s, cx, &mut code);
    }
    code
}

fn compile_stmt(s: &Stmt, cx: &mut Cx, code: &mut Vec<Instr>) {
    cx.reset_temps();
    match s {
        Stmt::Decl { name, dims, init } if dims.is_empty() => {
            let dst = cx.scalar(name);
            compile_expr_to(init.as_ref().unwrap_or(&AExpr::IntLit(0)), dst, cx, code);
        }
        Stmt::Decl { name, dims, .. } => {
            let (dims_reg, rank) = compile_index_block(dims, cx, code);
            code.push(Instr::DeclArray {
                array: cx.array(name),
                dims: dims_reg,
                rank,
            });
        }
        Stmt::Assign { target, op, value } if target.is_scalar() => {
            let dst = cx.scalar(&target.name);
            match op {
                AssignOp::Assign => compile_expr_to(value, dst, cx, code),
                _ => {
                    let src = compile_expr(value, cx, code);
                    code.push(Instr::Accum { op: *op, dst, src });
                }
            }
        }
        Stmt::Assign { target, op, value } => {
            // Tree-walker order: value, then subscripts, then (for compound
            // ops) the element read.
            let src = compile_expr(value, cx, code);
            let (idx, rank) = compile_index_block(&target.indices, cx, code);
            let array = cx.array(&target.name);
            match op {
                AssignOp::Assign => code.push(Instr::Store {
                    array,
                    idx,
                    rank,
                    src,
                }),
                _ => {
                    let old = cx.temp();
                    code.push(Instr::Load {
                        dst: old,
                        array,
                        idx,
                        rank,
                    });
                    code.push(Instr::Accum {
                        op: *op,
                        dst: old,
                        src,
                    });
                    code.push(Instr::Store {
                        array,
                        idx,
                        rank,
                        src: old,
                    });
                }
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let rc = compile_expr(cond, cx, code);
            let jz_at = code.len();
            code.push(Instr::Jz {
                cond: rc,
                target: u32::MAX,
            });
            then_branch.iter().for_each(|t| compile_stmt(t, cx, code));
            if else_branch.is_empty() {
                patch_here(code, jz_at);
            } else {
                let jump_at = code.len();
                code.push(Instr::Jump { target: u32::MAX });
                patch_here(code, jz_at);
                else_branch.iter().for_each(|e| compile_stmt(e, cx, code));
                patch_here(code, jump_at);
            }
        }
        Stmt::For {
            id,
            var,
            init,
            cond_op,
            bound,
            step,
            body,
            ..
        } => {
            let (local_arrays, locals_dominated) = local_arrays(body, cx);
            code.push(Instr::For(Box::new(BcFor {
                id: *id,
                var: cx.scalar(var),
                init: compile_expr_block(init, cx),
                cond_op: *cond_op,
                bound: compile_expr_block(bound, cx),
                step: compile_expr_block(step, cx),
                init_fast: HeaderFast::Eval,
                bound_fast: HeaderFast::Eval,
                step_fast: HeaderFast::Eval,
                body: compile_block(body, cx),
                local_arrays,
                locals_dominated,
                skewed: body_is_skewed(var, body),
            })));
        }
        Stmt::While { id, cond, body } => {
            // WhileEnter
            // head: <cond> rc; Jz rc, exit
            //       WhileIter; <body>; Jump head
            // exit: WhileExit
            code.push(Instr::WhileEnter { id: *id });
            let head = code.len() as u32;
            let rc = compile_expr(cond, cx, code);
            let jz_at = code.len();
            code.push(Instr::Jz {
                cond: rc,
                target: u32::MAX,
            });
            code.push(Instr::WhileIter { id: *id });
            body.iter().for_each(|b| compile_stmt(b, cx, code));
            code.push(Instr::Jump { target: head });
            patch_here(code, jz_at);
            code.push(Instr::WhileExit { id: *id });
        }
    }
}

/// The arrays `body` declares (transitively, in pre-order, each once),
/// and whether every one of them is one of the body's [`private_arrays`].
fn local_arrays(body: &[Stmt], cx: &Cx) -> (Vec<ArraySlot>, bool) {
    let mut names: Vec<&str> = Vec::new();
    for_each_stmt(body, &mut |s| match s {
        Stmt::Decl { name, dims, .. } if !dims.is_empty() && !names.contains(&name.as_str()) => {
            names.push(name)
        }
        _ => {}
    });
    let private = private_arrays(body);
    let dominated = (names.iter()).all(|n| private.iter().any(|p| p == n));
    (names.iter().map(|n| cx.array(n)).collect(), dominated)
}

/// Skew heuristic for the dispatchers: per-iteration work of the loop
/// over `var` varies when a nested loop's init or bound reads an array
/// (`for (k = rowstr[j]; k < rowstr[j+1]; …)`: work proportional to data,
/// not code) or mentions `var` itself (`for (t = 0; t < i; t++)`: a
/// triangular nest, where a static split hands the last worker most of the
/// work).
fn body_is_skewed(var: &str, body: &[Stmt]) -> bool {
    let varies = |e: &AExpr| {
        let mut found = false;
        e.for_each(&mut |x| match x {
            AExpr::Index(_, _) => found = true,
            AExpr::Var(name) if name == var => found = true,
            _ => {}
        });
        found
    };
    let mut skewed = false;
    for_each_stmt(body, &mut |s| {
        if let Stmt::For { init, bound, .. } = s {
            if varies(init) || varies(bound) {
                skewed = true;
            }
        }
    });
    skewed
}

fn compile_expr_block(e: &AExpr, cx: &mut Cx) -> BcExpr {
    cx.reset_temps();
    let mut code = Vec::new();
    let result = compile_expr(e, cx, &mut code);
    BcExpr { code, result }
}

/// Compiles the subscript (or extent) expressions of an array access into a
/// run of consecutive registers; rank-1 accesses skip the copy.
fn compile_index_block(indices: &[AExpr], cx: &mut Cx, code: &mut Vec<Instr>) -> (Reg, u8) {
    let rank = indices.len() as u8;
    if let [only] = indices {
        return (compile_expr(only, cx, code), rank);
    }
    let base = cx.temp_block(indices.len());
    for (k, e) in indices.iter().enumerate() {
        compile_expr_to(e, Reg(base.0 + k as u32), cx, code);
    }
    (base, rank)
}

/// Compiles `e`, returning the register holding its value.  Scalar reads
/// return the scalar's own register without emitting anything.
fn compile_expr(e: &AExpr, cx: &mut Cx, code: &mut Vec<Instr>) -> Reg {
    if let AExpr::Var(name) = e {
        return cx.scalar(name);
    }
    let dst = cx.temp();
    compile_expr_to(e, dst, cx, code);
    dst
}

/// Compiles `e` so its value lands in `dst`.  `dst` is written only by the
/// final instruction of the sequence, so an evaluation error leaves it
/// untouched — the same guarantee the tree walker gives assignment targets.
fn compile_expr_to(e: &AExpr, dst: Reg, cx: &mut Cx, code: &mut Vec<Instr>) {
    match e {
        AExpr::IntLit(v) => {
            let pool = cx.pool(*v);
            code.push(Instr::Const { dst, pool });
        }
        AExpr::Var(name) => {
            // Emitted even when src == dst: a self-assignment (`x = x;`)
            // must still execute a write, because the engines key their
            // defined-slot tracking (and so heap write-back) off it.
            code.push(Instr::Copy {
                dst,
                src: cx.scalar(name),
            });
        }
        AExpr::Index(array, indices) => {
            let (idx, rank) = compile_index_block(indices, cx, code);
            code.push(Instr::Load {
                dst,
                array: cx.array(array),
                idx,
                rank,
            });
        }
        AExpr::Binary(op, a, b) => match op {
            BinOp::And => {
                // ra == 0 → false; else rb == 0 → false; else true.
                let ra = compile_expr(a, cx, code);
                let mut false_jumps = vec![code.len()];
                code.push(Instr::Jz {
                    cond: ra,
                    target: u32::MAX,
                });
                let rb = compile_expr(b, cx, code);
                false_jumps.push(code.len());
                code.push(Instr::Jz {
                    cond: rb,
                    target: u32::MAX,
                });
                let one = cx.pool(1);
                let zero = cx.pool(0);
                code.push(Instr::Const { dst, pool: one });
                let jump_end = code.len();
                code.push(Instr::Jump { target: u32::MAX });
                let false_at = code.len() as u32;
                code.push(Instr::Const { dst, pool: zero });
                let end = code.len() as u32;
                for at in false_jumps {
                    patch_jump(code, at, false_at);
                }
                patch_jump(code, jump_end, end);
            }
            BinOp::Or => {
                let ra = compile_expr(a, cx, code);
                let mut true_jumps = vec![code.len()];
                code.push(Instr::Jnz {
                    cond: ra,
                    target: u32::MAX,
                });
                let rb = compile_expr(b, cx, code);
                true_jumps.push(code.len());
                code.push(Instr::Jnz {
                    cond: rb,
                    target: u32::MAX,
                });
                let one = cx.pool(1);
                let zero = cx.pool(0);
                code.push(Instr::Const { dst, pool: zero });
                let jump_end = code.len();
                code.push(Instr::Jump { target: u32::MAX });
                let true_at = code.len() as u32;
                code.push(Instr::Const { dst, pool: one });
                let end = code.len() as u32;
                for at in true_jumps {
                    patch_jump(code, at, true_at);
                }
                patch_jump(code, jump_end, end);
            }
            _ => {
                let ra = compile_expr(a, cx, code);
                let rb = compile_expr(b, cx, code);
                code.push(Instr::Bin {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
            }
        },
        AExpr::Unary(op, a) => {
            let src = compile_expr(a, cx, code);
            code.push(match op {
                UnOp::Neg => Instr::Neg { dst, src },
                UnOp::Not => Instr::Not { dst, src },
            });
        }
    }
}

fn patch_jump(code: &mut [Instr], at: usize, to: u32) {
    *code[at].target_mut().expect("patching a jump") = to;
}

/// Points the jump at `at` to the end of `code` so far.
fn patch_here(code: &mut [Instr], at: usize) {
    patch_jump(code, at, code.len() as u32);
}

// ---------------------------------------------------------------------------
// Disassembly.
// ---------------------------------------------------------------------------

impl BytecodeProgram {
    /// Total instruction count, nested loop bodies and header expression
    /// blocks included.
    pub fn instr_count(&self) -> usize {
        let mut n = 0;
        walk(&self.main, &mut |_| n += 1);
        n
    }

    /// Approximate in-memory footprint: instructions (nested included),
    /// the constant pool, and the interned slot names.  An estimate for
    /// byte-bounded artifact caches, not an exact measurement.
    pub fn approx_bytes(&self) -> usize {
        self.instr_count() * std::mem::size_of::<Instr>()
            + self.consts.len() * std::mem::size_of::<i64>()
            + self
                .slots
                .scalar_names()
                .iter()
                .map(|n| n.len() + std::mem::size_of::<String>())
                .sum::<usize>()
    }

    /// Renders the whole program as a readable listing: one instruction per
    /// line, scalar registers shown by name, nested loop blocks indented.
    /// The golden snapshot tests diff this output.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "; {} const(s), {} register(s) ({} scalar)\n",
            self.consts.len(),
            self.nregs,
            self.slots.scalar_count()
        ));
        for (i, c) in self.consts.iter().enumerate() {
            out.push_str(&format!("; const[{i}] = {c}\n"));
        }
        disasm_block(&self.main, self, 0, &mut out);
        out
    }

    fn reg_name(&self, r: Reg) -> String {
        if r.index() < self.slots.scalar_count() {
            format!("%{}", self.slots.scalar_names()[r.index()])
        } else {
            format!("t{}", r.index() - self.slots.scalar_count())
        }
    }

    fn fast_note(&self, fast: HeaderFast) -> String {
        match fast {
            HeaderFast::Eval => String::new(),
            HeaderFast::EvalOnce => " [fast: eval-once]".to_string(),
            HeaderFast::Reg(r) => format!(" [fast: {}]", self.reg_name(r)),
            HeaderFast::Const(v) => format!(" [fast: const {v}]"),
        }
    }

    fn regs_run(&self, first: Reg, rank: u8) -> String {
        (0..rank)
            .map(|k| self.reg_name(Reg(first.0 + k as u32)))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

fn disasm_block(code: &[Instr], p: &BytecodeProgram, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    for (pc, i) in code.iter().enumerate() {
        match i {
            Instr::For(f) => {
                out.push_str(&format!(
                    "{pad}{pc:04}  for      L{} {} {} {} (step …){}{}{}\n",
                    f.id.0,
                    p.reg_name(f.var),
                    f.cond_op.as_str(),
                    p.reg_name(f.bound.result),
                    if f.skewed { " [skewed]" } else { "" },
                    if f.locals_dominated && !f.local_arrays.is_empty() {
                        " [locals dominated]"
                    } else {
                        ""
                    },
                    if f.local_arrays.is_empty() {
                        String::new()
                    } else {
                        format!(
                            " [locals: {}]",
                            f.local_arrays
                                .iter()
                                .map(|a| p.slots.array_name(*a))
                                .collect::<Vec<_>>()
                                .join(",")
                        )
                    },
                ));
                out.push_str(&format!(
                    "{pad}      .init -> {}{}\n",
                    p.reg_name(f.init.result),
                    p.fast_note(f.init_fast)
                ));
                disasm_block(&f.init.code, p, depth + 2, out);
                out.push_str(&format!(
                    "{pad}      .bound -> {}{}\n",
                    p.reg_name(f.bound.result),
                    p.fast_note(f.bound_fast)
                ));
                disasm_block(&f.bound.code, p, depth + 2, out);
                out.push_str(&format!(
                    "{pad}      .step -> {}{}\n",
                    p.reg_name(f.step.result),
                    p.fast_note(f.step_fast)
                ));
                disasm_block(&f.step.code, p, depth + 2, out);
                out.push_str(&format!("{pad}      .body\n"));
                disasm_block(&f.body, p, depth + 2, out);
            }
            other => {
                out.push_str(&format!("{pad}{pc:04}  {}\n", disasm_instr(other, p)));
            }
        }
    }
}

fn assign_symbol(op: AssignOp) -> &'static str {
    match op {
        AssignOp::Assign => "=",
        AssignOp::AddAssign => "+=",
        AssignOp::SubAssign => "-=",
        AssignOp::MulAssign => "*=",
    }
}

fn disasm_instr(i: &Instr, p: &BytecodeProgram) -> String {
    match i {
        Instr::Const { dst, pool } => format!(
            "const    {} <- {} (const[{}])",
            p.reg_name(*dst),
            p.consts[*pool as usize],
            pool
        ),
        Instr::Copy { dst, src } => {
            format!("copy     {} <- {}", p.reg_name(*dst), p.reg_name(*src))
        }
        Instr::Bin { op, dst, a, b } => format!(
            "bin      {} <- {} {} {}",
            p.reg_name(*dst),
            p.reg_name(*a),
            op.as_str(),
            p.reg_name(*b)
        ),
        Instr::Accum { op, dst, src } => format!(
            "accum    {} {} {}",
            p.reg_name(*dst),
            assign_symbol(*op),
            p.reg_name(*src)
        ),
        Instr::Neg { dst, src } => format!("neg      {} <- {}", p.reg_name(*dst), p.reg_name(*src)),
        Instr::Not { dst, src } => format!("not      {} <- {}", p.reg_name(*dst), p.reg_name(*src)),
        Instr::Load {
            dst,
            array,
            idx,
            rank,
        } => format!(
            "load     {} <- {}[{}]",
            p.reg_name(*dst),
            p.slots.array_name(*array),
            p.regs_run(*idx, *rank)
        ),
        Instr::Store {
            array,
            idx,
            rank,
            src,
        } => format!(
            "store    {}[{}] <- {}",
            p.slots.array_name(*array),
            p.regs_run(*idx, *rank),
            p.reg_name(*src)
        ),
        Instr::DeclArray { array, dims, rank } => format!(
            "decl     {}[{}]",
            p.slots.array_name(*array),
            p.regs_run(*dims, *rank)
        ),
        Instr::Jz { cond, target } => format!("jz       {} -> {:04}", p.reg_name(*cond), target),
        Instr::Jnz { cond, target } => format!("jnz      {} -> {:04}", p.reg_name(*cond), target),
        Instr::Jump { target } => format!("jump     -> {target:04}"),
        Instr::WhileEnter { id } => format!("w.enter  L{}", id.0),
        Instr::WhileIter { id } => format!("w.iter   L{}", id.0),
        Instr::WhileExit { id } => format!("w.exit   L{}", id.0),
        Instr::LoadLoad {
            dst,
            outer,
            inner,
            idx,
        } => format!(
            "ldld     {} <- {}[{}[{}]]",
            p.reg_name(*dst),
            p.slots.array_name(*outer),
            p.slots.array_name(*inner),
            p.reg_name(*idx)
        ),
        Instr::CmpBranch {
            op,
            a,
            b,
            target,
            jump_if,
        } => format!(
            "cmpbr    {} {} {} -> {:04} (on {})",
            p.reg_name(*a),
            op.as_str(),
            p.reg_name(*b),
            target,
            if *jump_if { "true" } else { "false" }
        ),
        Instr::Load2 { dst, array, i0, i1 } => format!(
            "load2    {} <- {}[{}, {}]",
            p.reg_name(*dst),
            p.slots.array_name(*array),
            p.reg_name(*i0),
            p.reg_name(*i1)
        ),
        Instr::Store2 { array, i0, i1, src } => format!(
            "store2   {}[{}, {}] <- {}",
            p.slots.array_name(*array),
            p.reg_name(*i0),
            p.reg_name(*i1),
            p.reg_name(*src)
        ),
        Instr::For(_) => unreachable!("structured loops are rendered by the block printer"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::slots::compile_program;

    fn bc(src: &str) -> BytecodeProgram {
        compile_bytecode(&compile_program(&parse_program("t", src).unwrap()))
    }

    #[test]
    fn scalar_registers_alias_slots_and_constants_pool() {
        let p = bc("x = 5; y = x + 5; z = y;");
        // One 5 in the pool despite two uses.
        assert_eq!(p.consts, vec![5]);
        // x = 5 → const into x's scalar register.
        assert_eq!(
            p.main[0],
            Instr::Const {
                dst: Reg(0),
                pool: 0
            }
        );
        // y = x + 5 → const temp, then bin writing y's register directly.
        assert!(matches!(
            p.main[2],
            Instr::Bin {
                op: BinOp::Add,
                dst: Reg(1),
                a: Reg(0),
                ..
            }
        ));
        // z = y → plain register copy.
        assert_eq!(
            p.main[3],
            Instr::Copy {
                dst: Reg(2),
                src: Reg(1)
            }
        );
        assert_eq!(p.slots.scalar_count(), 3);
        assert!(p.nregs >= 4);
    }

    #[test]
    fn compound_assignments_use_accum() {
        let p = bc("x += 3; h[2] *= 2;");
        assert!(matches!(
            p.main[1],
            Instr::Accum {
                op: AssignOp::AddAssign,
                dst: Reg(0),
                ..
            }
        ));
        // Array compound: value, index, load, accum, store.
        let tail = &p.main[2..];
        assert!(matches!(tail[2], Instr::Load { .. }));
        assert!(matches!(
            tail[3],
            Instr::Accum {
                op: AssignOp::MulAssign,
                ..
            }
        ));
        assert!(matches!(tail[4], Instr::Store { .. }));
    }

    #[test]
    fn conditionals_and_short_circuit_lower_to_absolute_jumps() {
        let p = bc("if (x > 0 && y > 0) { z = 1; } else { z = 2; } w = 3;");
        let jumps: Vec<u32> = p
            .main
            .iter()
            .filter_map(|i| match i {
                Instr::Jz { target, .. } | Instr::Jnz { target, .. } | Instr::Jump { target } => {
                    Some(*target)
                }
                _ => None,
            })
            .collect();
        assert!(!jumps.is_empty());
        for t in jumps {
            assert!(
                (t as usize) <= p.main.len(),
                "target {t} out of range ({} instrs)",
                p.main.len()
            );
        }
        // No Bin instruction carries && — it compiled to control flow.
        assert!(!p.main.iter().any(|i| matches!(
            i,
            Instr::Bin {
                op: BinOp::And | BinOp::Or,
                ..
            }
        )));
    }

    #[test]
    fn while_loops_flatten_with_guard_instructions() {
        let p = bc("w = 0; while (w < 3) { w = w + 1; }");
        let kinds: Vec<&Instr> = p.main.iter().collect();
        assert!(kinds.iter().any(|i| matches!(i, Instr::WhileEnter { .. })));
        assert!(kinds.iter().any(|i| matches!(i, Instr::WhileIter { .. })));
        assert!(kinds.iter().any(|i| matches!(i, Instr::WhileExit { .. })));
        // The backward jump goes to the condition head (after WhileEnter).
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
    fn for_loops_stay_structured_and_carry_facts() {
        let p = bc(r#"
            for (i = 0; i < n; i++) {
                int scratch[4];
                scratch[0] = i;
                out[i] = scratch[0];
            }
            for (j = 0; j < n; j++) {
                for (k = r[j]; k < r[j+1]; k++) { v[k] = j; }
            }
        "#);
        let fors: Vec<&BcFor> = p
            .main
            .iter()
            .filter_map(|i| match i {
                Instr::For(f) => Some(f.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(fors.len(), 2);
        assert_eq!(fors[0].local_arrays.len(), 1);
        assert!(fors[0].locals_dominated);
        assert!(!fors[0].skewed);
        assert!(fors[1].skewed);
        assert!(fors[1].local_arrays.is_empty());
        // The nested loop lives inside the second for's body.
        assert!(fors[1].body.iter().any(|i| matches!(i, Instr::For(_))));
    }

    /// The lowered loop with id `id`, nested ones included.
    fn find_for(p: &BytecodeProgram, id: u32) -> Option<&BcFor> {
        let mut found = None;
        walk(&p.main, &mut |i| match i {
            Instr::For(f) if f.id == LoopId(id) => found = Some(f.as_ref()),
            _ => {}
        });
        found
    }

    #[test]
    fn loops_record_local_arrays_and_skew() {
        let p = bc(r#"
            for (i = 0; i < n; i++) {
                int scratch[8];
                for (t = 0; t < 8; t++) { scratch[t] = i + t; }
                out[i] = scratch[0];
            }
            for (j = 0; j < n; j++) {
                for (k = r[j]; k < r[j+1]; k++) { v[k] = j; }
            }
            for (a = 0; a < n; a++) {
                for (b = 0; b < a; b++) { tri[a * n + b] = 1; }
            }
            for (c = 0; c < n; c++) {
                for (d = 0; d < n; d++) {
                    for (e = d; e < n; e++) { cube[c * n + d] = e; }
                }
            }
        "#);
        let scratch = p.slots.array_slot("scratch").unwrap();
        let outer = find_for(&p, 0).unwrap();
        assert_eq!(outer.local_arrays, vec![scratch]);
        assert!(outer.locals_dominated);
        assert!(!outer.skewed);
        let inner = find_for(&p, 1).unwrap();
        assert!(inner.local_arrays.is_empty());
        let csr = find_for(&p, 2).unwrap();
        assert!(csr.skewed, "index-array bounds in a nested loop mean skew");
        let triangular = find_for(&p, 4).unwrap();
        assert!(triangular.skewed, "a bound on the loop's own index is skew");
        // Every `c` iteration does the same work: the triangle is over `d`.
        assert!(!find_for(&p, 6).unwrap().skewed);
        assert!(find_for(&p, 7).unwrap().skewed);
        assert!(find_for(&p, 9).is_none());
    }

    #[test]
    fn undominated_local_declarations_are_flagged() {
        // Array touched before its declaration: a worker must not privatize.
        let p = bc(r#"
            for (i = 0; i < n; i++) {
                out[i] = g[0];
                int g[4];
                g[0] = i;
            }
        "#);
        assert!(!find_for(&p, 0).unwrap().locals_dominated);
        // Declaration only inside a branch: not unconditional.
        let p = bc(r#"
            for (i = 0; i < n; i++) {
                if (i > 0) { int g[4]; g[0] = i; }
                out[i] = i;
            }
        "#);
        let f = find_for(&p, 0).unwrap();
        assert_eq!(f.local_arrays, vec![p.slots.array_slot("g").unwrap()]);
        assert!(!f.locals_dominated);
    }

    #[test]
    fn conditionals_lower_to_branches_with_correct_targets() {
        // jz, then-store, jump, else-store, tail-store
        let p = bc("if (x > 0) { y = 1; } else { y = 2; } z = 3;");
        let at = |k: usize| p.main.iter().position(|i| i.target().is_some()).unwrap() + k;
        let jz = at(0);
        assert!(
            matches!(p.main[jz], Instr::Jz { .. }),
            "{}",
            p.disassemble()
        );
        // The false edge lands on the else block, right after the jump
        // that closes the then block; that jump lands on the tail.
        let jump = jz + 2;
        assert_eq!(
            p.main[jump],
            Instr::Jump {
                target: jump as u32 + 2
            }
        );
        assert_eq!(p.main[jz].target(), Some(jump as u32 + 1));
        // An `if` without `else` branches past the then-block.
        let p = bc("if (x) { y = 1; } z = 2;");
        assert_eq!(p.main[0].target(), Some(2));
        // Inside a `while`, targets are absolute in the enclosing stream.
        let p = bc("w = 0; while (w < 3) { if (w) { v = 1; } w = w + 1; }");
        let jzs: Vec<u32> = (p.main.iter())
            .filter_map(|i| match i {
                Instr::Jz { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        let inner_jz = p.main.iter().rposition(|i| matches!(i, Instr::Jz { .. }));
        assert_eq!(jzs[1], inner_jz.unwrap() as u32 + 2, "{}", p.disassemble());
    }

    #[test]
    fn compound_stores_keep_their_operator() {
        let p = bc("h[k[i]] += 1; s -= 2;");
        let ops: Vec<AssignOp> = (p.main.iter())
            .filter_map(|i| match i {
                Instr::Accum { op, .. } => Some(*op),
                _ => None,
            })
            .collect();
        assert_eq!(ops, [AssignOp::AddAssign, AssignOp::SubAssign]);
    }

    #[test]
    fn multi_rank_accesses_use_consecutive_registers() {
        let p = bc("m[i + 1][j * 2] = 7;");
        let (idx, rank) = p
            .main
            .iter()
            .find_map(|i| match i {
                Instr::Store { idx, rank, .. } => Some((*idx, *rank)),
                _ => None,
            })
            .unwrap();
        assert_eq!(rank, 2);
        // Both subscript registers are temporaries above the scalar file.
        assert!(idx.index() >= p.slots.scalar_count());
        assert!(p.nregs >= idx.index() + 2);
    }

    #[test]
    fn disassembly_names_scalars_and_lists_constants() {
        let p = bc("x = 5; for (i = 0; i < 3; i++) { out[i] = x; }");
        let d = p.disassemble();
        assert!(d.contains("%x"), "{d}");
        assert!(d.contains("const[0]"), "{d}");
        assert!(d.contains("for      L0 %i <"), "{d}");
        assert!(d.contains("store    out[%i]"), "{d}");
    }
}
