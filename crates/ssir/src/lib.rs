//! # ss-ir — mini-C frontend and loop-nest IR
//!
//! A small C-like language, rich enough to express every subscripted-subscript
//! pattern of the paper's figures (Figs. 2–9) together with the code that
//! fills the index arrays:
//!
//! * [`lexer`] / [`parser`] — source text → [`ast::Program`];
//! * [`ast`] — the syntax tree, and the one place that knows a statement's
//!   shape: [`Stmt::exprs`] (what a statement evaluates, in evaluation
//!   order), [`ast::for_each_stmt`], [`ast::assigned_scalars`],
//!   [`ast::written_arrays`] and [`ast::private_arrays`] (the iteration-
//!   private arrays that both the dependence test and the dispatchers'
//!   worker-private storage rely on);
//! * [`printer`] — back to C source, optionally with `#pragma omp parallel
//!   for` annotations added by the parallelizer;
//! * [`loops`] — normalized loop descriptions and the loop tree;
//! * [`convert`] — lowering of AST arithmetic to [`ss_symbolic::Expr`];
//! * [`slots`] — name interning and compilation to flat, slot-addressed op
//!   sequences (what the `ss-interp` compiled engines execute);
//! * [`bytecode`] — a second lowering from slot-resolved ops to a flat
//!   register-machine instruction stream (what the `ss-interp` bytecode
//!   engines, the default, execute), and the one operand walker every
//!   pass over that stream uses;
//! * [`opt`] — the optimizing bytecode pass behind `--opt-level`: constant
//!   folding, superinstruction fusion (fused subscripted-subscript loads,
//!   compare-and-branch, copy-free rank-2 accesses) and dead-store
//!   elimination, all semantics-preserving (O0 ≡ O1 bit-identical heaps).
//!   It keeps the base compiler's temporary numbering (there is no
//!   register packer), and its `Liveness` answers "is this temporary dead
//!   after `pc`" for the whole tier.
//!
//! ```
//! use ss_ir::parser::parse_program;
//! use ss_ir::loops::LoopTree;
//!
//! let program = parse_program("fig3", r#"
//!     for (j = 0; j < lastrow - firstrow + 1; j++) {
//!         for (k = rowstr[j]; k < rowstr[j+1]; k++) {
//!             colidx[k] = colidx[k] - firstcol;
//!         }
//!     }
//! "#).unwrap();
//! let tree = LoopTree::build(&program);
//! assert_eq!(tree.loops.len(), 2);
//! ```

pub mod ast;
pub mod bytecode;
pub mod convert;
pub mod errors;
pub mod lexer;
pub mod loops;
pub mod opt;
pub mod parser;
pub mod printer;
pub mod slots;
pub mod token;

pub use ast::{AExpr, AssignOp, BinOp, LValue, LoopId, Program, Stmt, UnOp};
pub use bytecode::{compile_bytecode, BcExpr, BcFor, BytecodeProgram, HeaderFast, Instr, Reg};
pub use errors::{IrError, Result};
pub use loops::{LoopInfo, LoopTree};
pub use opt::{optimize, OptLevel};
pub use parser::{parse_expr, parse_program};
pub use printer::{print_expr, print_program, print_program_with, PrintOptions};
pub use slots::{
    compile_program, ArraySlot, CExpr, CompiledBody, CompiledFor, CompiledProgram, Op, ScalarSlot,
    SlotMap,
};
