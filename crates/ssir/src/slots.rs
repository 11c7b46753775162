//! Slot resolution and body compilation: from name-keyed ASTs to dense,
//! slot-addressed op sequences.
//!
//! The tree-walking interpreter pays a hash lookup for every scalar read and
//! write of every iteration.  This pass eliminates that cost at *compile*
//! time, which is exactly the paper's economy applied to the executor: all
//! name resolution happens once, before the first iteration runs.
//!
//! * [`SlotMap`] interns every scalar and array name of a program into a
//!   dense slot number (scalars and arrays live in separate namespaces,
//!   mirroring the interpreter heap's two maps);
//! * [`CExpr`] is the slot-resolved expression form;
//! * [`CompiledBody`] is a flat op sequence: straight-line statements and
//!   conditionals are lowered to [`Op::BranchIfZero`] / [`Op::Jump`] over a
//!   linear program counter, while loops stay structured ([`Op::For`],
//!   [`Op::While`]) because executors attach per-loop behavior to them
//!   (iteration caps, statistics, parallel dispatch);
//! * [`CompiledFor`] records the loop-nest facts dispatchers need without
//!   re-walking the AST: the arrays declared inside the body (per-invocation
//!   private storage) and whether inner loop bounds go through an index
//!   array (the skew heuristic for dynamic scheduling).
//!
//! Compilation happens **once per program**, in the `ss_parallelizer`
//! pipeline (`Artifacts::compile`); engines and input synthesis run the
//! pipeline's output and never compile on their own.

use crate::ast::{
    for_each_stmt, private_arrays, AExpr, AssignOp, BinOp, LoopId, Program, Stmt, UnOp,
};
use std::collections::HashMap;

/// Dense index of a scalar variable within a [`SlotMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScalarSlot(pub u32);

/// Dense index of an array within a [`SlotMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArraySlot(pub u32);

impl ScalarSlot {
    /// The slot as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ArraySlot {
    /// The slot as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interned name table: every scalar and array of a program numbered in
/// deterministic (program pre-order) discovery order.
#[derive(Debug, Clone, Default)]
pub struct SlotMap {
    scalar_names: Vec<String>,
    array_names: Vec<String>,
    scalar_ids: HashMap<String, u32>,
    array_ids: HashMap<String, u32>,
}

impl SlotMap {
    fn intern_scalar(&mut self, name: &str) -> ScalarSlot {
        if let Some(&id) = self.scalar_ids.get(name) {
            return ScalarSlot(id);
        }
        let id = self.scalar_names.len() as u32;
        self.scalar_names.push(name.to_string());
        self.scalar_ids.insert(name.to_string(), id);
        ScalarSlot(id)
    }

    fn intern_array(&mut self, name: &str) -> ArraySlot {
        if let Some(&id) = self.array_ids.get(name) {
            return ArraySlot(id);
        }
        let id = self.array_names.len() as u32;
        self.array_names.push(name.to_string());
        self.array_ids.insert(name.to_string(), id);
        ArraySlot(id)
    }

    /// The slot of a scalar name, if the program mentions it.
    pub fn scalar_slot(&self, name: &str) -> Option<ScalarSlot> {
        self.scalar_ids.get(name).map(|&id| ScalarSlot(id))
    }

    /// The slot of an array name, if the program mentions it.
    pub fn array_slot(&self, name: &str) -> Option<ArraySlot> {
        self.array_ids.get(name).map(|&id| ArraySlot(id))
    }

    /// The name behind an array slot.
    pub fn array_name(&self, slot: ArraySlot) -> &str {
        &self.array_names[slot.index()]
    }

    /// Number of scalar slots (the dense frame size).
    pub fn scalar_count(&self) -> usize {
        self.scalar_names.len()
    }

    /// All scalar names in slot order.
    pub fn scalar_names(&self) -> &[String] {
        &self.scalar_names
    }

    /// All array names in slot order.
    pub fn array_names(&self) -> &[String] {
        &self.array_names
    }
}

/// A slot-resolved expression.  Shape mirrors [`AExpr`] — executors still
/// walk a small tree per expression, but every variable access is a direct
/// vector index instead of a string hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CExpr {
    /// Integer literal.
    Int(i64),
    /// Scalar read.
    Scalar(ScalarSlot),
    /// Array element read.
    Load {
        /// The array.
        array: ArraySlot,
        /// One index expression per dimension.
        indices: Box<[CExpr]>,
    },
    /// Binary operation (same C semantics as the AST walker).
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    /// Unary operation.
    Unary(UnOp, Box<CExpr>),
}

/// One op of a [`CompiledBody`].  Straight-line code and conditionals are
/// flat (a linear program counter plus branch targets); loops stay
/// structured so executors can hook dispatch, caps and stats onto them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `scalar op= value` (plain `=` included).
    SetScalar {
        /// Target slot.
        slot: ScalarSlot,
        /// Plain or compound assignment.
        op: AssignOp,
        /// Right-hand side.
        value: CExpr,
    },
    /// `array[indices] op= value`.  Executors must evaluate `value` first,
    /// then `indices`, then (for compound ops) read the element — the AST
    /// walker's order, so both engines fail identically on bad programs.
    StoreElem {
        /// Target array.
        array: ArraySlot,
        /// One index expression per dimension.
        indices: Box<[CExpr]>,
        /// Plain or compound assignment.
        op: AssignOp,
        /// Right-hand side.
        value: CExpr,
    },
    /// Array declaration: allocates fresh zero-filled storage with the given
    /// extents every time the op executes (per-invocation semantics for
    /// loop-local declarations).
    DeclArray {
        /// Declared array slot.
        array: ArraySlot,
        /// Extent expressions.
        dims: Box<[CExpr]>,
    },
    /// Jump to `target` (an index into the enclosing op sequence) when
    /// `cond` evaluates to zero.
    BranchIfZero {
        /// The condition.
        cond: CExpr,
        /// Op index to jump to when the condition is false.
        target: usize,
    },
    /// Unconditional jump to `target`.
    Jump {
        /// Op index to jump to.
        target: usize,
    },
    /// A counted `for` loop (structured; body is its own flat sequence).
    For(Box<CompiledFor>),
    /// A `while` loop.
    While {
        /// Loop id.
        id: LoopId,
        /// Loop condition.
        cond: CExpr,
        /// Loop body.
        body: CompiledBody,
    },
}

/// A compiled counted loop, with the facts dispatchers need precomputed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledFor {
    /// Loop id (the analysis keys verdicts by it).
    pub id: LoopId,
    /// Slot of the index variable.
    pub var: ScalarSlot,
    /// Initial value expression.
    pub init: CExpr,
    /// Comparison operator of the exit test.
    pub cond_op: BinOp,
    /// Loop bound expression.
    pub bound: CExpr,
    /// Step expression.
    pub step: CExpr,
    /// Loop body.
    pub body: CompiledBody,
    /// Arrays declared anywhere inside the body (transitively): dispatched
    /// workers give these per-iteration private storage instead of sharing
    /// the heap allocation.
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

/// A flat, slot-addressed op sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompiledBody {
    /// The ops, executed from index 0 with branch/jump targets inside the
    /// same sequence.
    pub ops: Vec<Op>,
}

/// A whole compiled program: the top-level op sequence plus the name table
/// shared by every nested body.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Top-level ops.
    pub body: CompiledBody,
    /// The interned name table.
    pub slots: SlotMap,
}

impl CompiledProgram {
    /// Finds a compiled loop by id (pre-order search over nested bodies).
    pub fn find_loop(&self, id: LoopId) -> Option<&CompiledFor> {
        fn search(body: &CompiledBody, id: LoopId) -> Option<&CompiledFor> {
            for op in &body.ops {
                match op {
                    Op::For(f) => {
                        if f.id == id {
                            return Some(f);
                        }
                        if let Some(found) = search(&f.body, id) {
                            return Some(found);
                        }
                    }
                    Op::While { body, .. } => {
                        if let Some(found) = search(body, id) {
                            return Some(found);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        search(&self.body, id)
    }
}

/// Compiles a program: interns every name and lowers every statement.
pub fn compile_program(program: &Program) -> CompiledProgram {
    let mut slots = SlotMap::default();
    let body = compile_block(&program.body, &mut slots);
    CompiledProgram { body, slots }
}

fn compile_block(stmts: &[Stmt], slots: &mut SlotMap) -> CompiledBody {
    let mut ops = Vec::new();
    for s in stmts {
        compile_stmt(s, slots, &mut ops);
    }
    CompiledBody { ops }
}

fn compile_stmt(s: &Stmt, slots: &mut SlotMap, ops: &mut Vec<Op>) {
    match s {
        Stmt::Decl { name, dims, init } => {
            if dims.is_empty() {
                let value = match init {
                    Some(e) => compile_expr(e, slots),
                    None => CExpr::Int(0),
                };
                let slot = slots.intern_scalar(name);
                ops.push(Op::SetScalar {
                    slot,
                    op: AssignOp::Assign,
                    value,
                });
            } else {
                let dims: Box<[CExpr]> = dims.iter().map(|d| compile_expr(d, slots)).collect();
                let array = slots.intern_array(name);
                ops.push(Op::DeclArray { array, dims });
            }
        }
        Stmt::Assign { target, op, value } => {
            let value = compile_expr(value, slots);
            if target.is_scalar() {
                let slot = slots.intern_scalar(&target.name);
                ops.push(Op::SetScalar {
                    slot,
                    op: *op,
                    value,
                });
            } else {
                let indices: Box<[CExpr]> = target
                    .indices
                    .iter()
                    .map(|i| compile_expr(i, slots))
                    .collect();
                let array = slots.intern_array(&target.name);
                ops.push(Op::StoreElem {
                    array,
                    indices,
                    op: *op,
                    value,
                });
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let cond = compile_expr(cond, slots);
            let branch_at = ops.len();
            ops.push(Op::BranchIfZero {
                cond,
                target: usize::MAX,
            });
            for t in then_branch {
                compile_stmt(t, slots, ops);
            }
            if else_branch.is_empty() {
                let end = ops.len();
                patch(ops, branch_at, end);
            } else {
                let jump_at = ops.len();
                ops.push(Op::Jump { target: usize::MAX });
                let else_start = ops.len();
                patch(ops, branch_at, else_start);
                for e in else_branch {
                    compile_stmt(e, slots, ops);
                }
                let end = ops.len();
                patch(ops, jump_at, end);
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
            let skewed = body_is_skewed(var, body);
            let init = compile_expr(init, slots);
            let var = slots.intern_scalar(var);
            let bound = compile_expr(bound, slots);
            let step = compile_expr(step, slots);
            let compiled_body = compile_block(body, slots);
            let mut local_arrays = Vec::new();
            collect_local_arrays(&compiled_body, &mut local_arrays);
            let private = private_arrays(body);
            let locals_dominated =
                (local_arrays.iter()).all(|&a| private.iter().any(|p| p == slots.array_name(a)));
            ops.push(Op::For(Box::new(CompiledFor {
                id: *id,
                var,
                init,
                cond_op: *cond_op,
                bound,
                step,
                body: compiled_body,
                locals_dominated,
                local_arrays,
                skewed,
            })));
        }
        Stmt::While { id, cond, body } => {
            let cond = compile_expr(cond, slots);
            let body = compile_block(body, slots);
            ops.push(Op::While {
                id: *id,
                cond,
                body,
            });
        }
    }
}

fn patch(ops: &mut [Op], at: usize, to: usize) {
    match &mut ops[at] {
        Op::BranchIfZero { target, .. } | Op::Jump { target } => *target = to,
        _ => unreachable!("patching a non-branch op"),
    }
}

fn compile_expr(e: &AExpr, slots: &mut SlotMap) -> CExpr {
    match e {
        AExpr::IntLit(v) => CExpr::Int(*v),
        AExpr::Var(name) => CExpr::Scalar(slots.intern_scalar(name)),
        AExpr::Index(array, idxs) => {
            let indices: Box<[CExpr]> = idxs.iter().map(|i| compile_expr(i, slots)).collect();
            CExpr::Load {
                array: slots.intern_array(array),
                indices,
            }
        }
        AExpr::Binary(op, a, b) => CExpr::Binary(
            *op,
            Box::new(compile_expr(a, slots)),
            Box::new(compile_expr(b, slots)),
        ),
        AExpr::Unary(op, a) => CExpr::Unary(*op, Box::new(compile_expr(a, slots))),
    }
}

fn collect_local_arrays(body: &CompiledBody, out: &mut Vec<ArraySlot>) {
    for op in &body.ops {
        match op {
            Op::DeclArray { array, .. } if !out.contains(array) => {
                out.push(*array);
            }
            Op::For(f) => collect_local_arrays(&f.body, out),
            Op::While { body, .. } => collect_local_arrays(body, out),
            _ => {}
        }
    }
}

/// Skew heuristic shared with the dispatchers: per-iteration work of the
/// loop over `var` varies when a nested loop's init or bound reads an array
/// (`for (k = rowstr[j]; k < rowstr[j+1]; …)`: work proportional to data,
/// not code) or mentions `var` itself (`for (t = 0; t < i; t++)`: a
/// triangular nest, where a static split hands the last worker most of the
/// work).
pub fn body_is_skewed(var: &str, body: &[Stmt]) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn interning_is_deterministic_and_deduplicated() {
        let p = parse_program(
            "t",
            r#"
            x = a[i] + a[j];
            y = x * 2;
            b[x] = y;
        "#,
        )
        .unwrap();
        let c = compile_program(&p);
        assert_eq!(c.slots.scalar_count(), 4); // i, j, x, y
        assert_eq!(c.slots.array_names().len(), 2); // a, b
        assert_eq!(c.slots.scalar_slot("x"), Some(ScalarSlot(2)));
        assert_eq!(c.slots.array_slot("a"), Some(ArraySlot(0)));
        assert_eq!(c.slots.scalar_names()[2], "x");
        assert_eq!(c.slots.array_name(ArraySlot(1)), "b");
        assert_eq!(c.slots.scalar_slot("zzz"), None);
    }

    #[test]
    fn conditionals_lower_to_branches_with_correct_targets() {
        let p = parse_program(
            "t",
            r#"
            if (x > 0) {
                y = 1;
            } else {
                y = 2;
            }
            z = 3;
        "#,
        )
        .unwrap();
        let c = compile_program(&p);
        let ops = &c.body.ops;
        // branch, then-store, jump, else-store, tail-store
        assert_eq!(ops.len(), 5);
        match &ops[0] {
            Op::BranchIfZero { target, .. } => assert_eq!(*target, 3),
            other => panic!("expected branch, got {other:?}"),
        }
        match &ops[2] {
            Op::Jump { target } => assert_eq!(*target, 4),
            other => panic!("expected jump, got {other:?}"),
        }
        // if without else branches past the then-block
        let p = parse_program("t", "if (x) { y = 1; } z = 2;").unwrap();
        let c = compile_program(&p);
        match &c.body.ops[0] {
            Op::BranchIfZero { target, .. } => assert_eq!(*target, 2),
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn loops_record_local_arrays_and_skew() {
        let p = parse_program(
            "t",
            r#"
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
        "#,
        )
        .unwrap();
        let c = compile_program(&p);
        let scratch = c.slots.array_slot("scratch").unwrap();
        let outer = c.find_loop(LoopId(0)).unwrap();
        assert_eq!(outer.local_arrays, vec![scratch]);
        assert!(outer.locals_dominated);
        assert!(!outer.skewed);
        let inner = c.find_loop(LoopId(1)).unwrap();
        assert!(inner.local_arrays.is_empty());
        let csr = c.find_loop(LoopId(2)).unwrap();
        assert!(csr.skewed, "index-array bounds in a nested loop mean skew");
        let triangular = c.find_loop(LoopId(4)).unwrap();
        assert!(triangular.skewed, "a bound on the loop's own index is skew");
        // Every `c` iteration does the same work: the triangle is over `d`.
        assert!(!c.find_loop(LoopId(6)).unwrap().skewed);
        assert!(c.find_loop(LoopId(7)).unwrap().skewed);
        assert!(c.find_loop(LoopId(9)).is_none());
    }

    #[test]
    fn undominated_local_declarations_are_flagged() {
        // Array touched before its declaration: a worker must not privatize.
        let p = parse_program(
            "t",
            r#"
            for (i = 0; i < n; i++) {
                out[i] = g[0];
                int g[4];
                g[0] = i;
            }
        "#,
        )
        .unwrap();
        let f = compile_program(&p);
        assert!(!f.find_loop(LoopId(0)).unwrap().locals_dominated);
        // Declaration only inside a branch: not unconditional.
        let p = parse_program(
            "t",
            r#"
            for (i = 0; i < n; i++) {
                if (i > 0) { int g[4]; g[0] = i; }
                out[i] = i;
            }
        "#,
        )
        .unwrap();
        assert!(
            !compile_program(&p)
                .find_loop(LoopId(0))
                .unwrap()
                .locals_dominated
        );
    }

    #[test]
    fn compound_stores_keep_their_operator() {
        let p = parse_program("t", "h[k[i]] += 1; s -= 2;").unwrap();
        let c = compile_program(&p);
        assert!(matches!(
            &c.body.ops[0],
            Op::StoreElem {
                op: AssignOp::AddAssign,
                ..
            }
        ));
        assert!(matches!(
            &c.body.ops[1],
            Op::SetScalar {
                op: AssignOp::SubAssign,
                ..
            }
        ));
    }
}
