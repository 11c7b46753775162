//! Name resolution: every scalar and array name of a program numbered
//! once, at compile time, before the first iteration runs — the paper's
//! economy applied to the executor.
//!
//! [`compile_program`] walks the AST in pre-order and interns each name
//! into a [`SlotMap`] on first sight (scalars and arrays live in separate
//! namespaces, mirroring the interpreter heap's two maps).  The discovery
//! order is the contract: it fixes every scalar register of the bytecode
//! ([`crate::bytecode`], which lowers the AST through this map) and the
//! scalar order of the wavefront cache key.
//!
//! Resolution happens **once per program**, in the `ss_parallelizer`
//! pipeline (`Artifacts::compile`, its `slots` stage); engines and input
//! synthesis run the pipeline's output and never resolve on their own.

use crate::ast::{AExpr, Program, Stmt};
use std::collections::HashMap;

/// Dense index of an array within a [`SlotMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArraySlot(pub u32);

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

/// Interns `name` into one namespace of a [`SlotMap`].
fn intern(names: &mut Vec<String>, ids: &mut HashMap<String, u32>, name: &str) {
    if !ids.contains_key(name) {
        ids.insert(name.to_string(), names.len() as u32);
        names.push(name.to_string());
    }
}

impl SlotMap {
    fn intern_scalar(&mut self, name: &str) {
        intern(&mut self.scalar_names, &mut self.scalar_ids, name);
    }

    fn intern_array(&mut self, name: &str) {
        intern(&mut self.array_names, &mut self.array_ids, name);
    }

    /// The slot of a scalar name — also its bytecode register — if the
    /// program mentions it.
    pub fn scalar_slot(&self, name: &str) -> Option<usize> {
        self.scalar_ids.get(name).map(|&id| id as usize)
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

/// A program with every name resolved: the AST it came from and the name
/// table [`crate::bytecode::compile_bytecode`] lowers it through.
#[derive(Debug, Clone)]
pub struct CompiledProgram<'p> {
    /// The resolved program.
    pub program: &'p Program,
    /// The interned name table.
    pub slots: SlotMap,
}

/// Resolves every name of `program`, in pre-order discovery order.
pub fn compile_program(program: &Program) -> CompiledProgram<'_> {
    let mut slots = SlotMap::default();
    discover_block(&program.body, &mut slots);
    CompiledProgram { program, slots }
}

fn discover_block(stmts: &[Stmt], slots: &mut SlotMap) {
    for s in stmts {
        discover_stmt(s, slots);
    }
}

/// Interns a statement's names in the order its lowering evaluates them:
/// a right-hand side before its target, subscripts before their array.
fn discover_stmt(s: &Stmt, slots: &mut SlotMap) {
    match s {
        Stmt::Decl { name, dims, init } => {
            if dims.is_empty() {
                init.iter().for_each(|e| discover_expr(e, slots));
                slots.intern_scalar(name);
            } else {
                dims.iter().for_each(|d| discover_expr(d, slots));
                slots.intern_array(name);
            }
        }
        Stmt::Assign { target, value, .. } => {
            discover_expr(value, slots);
            if target.is_scalar() {
                slots.intern_scalar(&target.name);
            } else {
                target.indices.iter().for_each(|i| discover_expr(i, slots));
                slots.intern_array(&target.name);
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            discover_expr(cond, slots);
            discover_block(then_branch, slots);
            discover_block(else_branch, slots);
        }
        Stmt::For {
            var,
            init,
            bound,
            step,
            body,
            ..
        } => {
            discover_expr(init, slots);
            slots.intern_scalar(var);
            discover_expr(bound, slots);
            discover_expr(step, slots);
            discover_block(body, slots);
        }
        Stmt::While { cond, body, .. } => {
            discover_expr(cond, slots);
            discover_block(body, slots);
        }
    }
}

fn discover_expr(e: &AExpr, slots: &mut SlotMap) {
    match e {
        AExpr::IntLit(_) => {}
        AExpr::Var(name) => slots.intern_scalar(name),
        AExpr::Index(array, idxs) => {
            idxs.iter().for_each(|i| discover_expr(i, slots));
            slots.intern_array(array);
        }
        AExpr::Binary(_, a, b) => {
            discover_expr(a, slots);
            discover_expr(b, slots);
        }
        AExpr::Unary(_, a) => discover_expr(a, slots),
    }
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
        assert_eq!(c.slots.scalar_slot("x"), Some(2));
        assert_eq!(c.slots.array_slot("a"), Some(ArraySlot(0)));
        assert_eq!(c.slots.scalar_names()[2], "x");
        assert_eq!(c.slots.array_name(ArraySlot(1)), "b");
        assert_eq!(c.slots.scalar_slot("zzz"), None);
    }

    #[test]
    fn names_are_discovered_in_evaluation_order() {
        // Right-hand side before the target, subscripts before their
        // array, a `for` header's init before its index variable.
        let p = parse_program(
            "t",
            r#"
            out[k] = a[b[i]];
            int m[n];
            for (j = lo; j < hi; j += s) { w = j; }
        "#,
        )
        .unwrap();
        let c = compile_program(&p);
        assert_eq!(
            c.slots.scalar_names(),
            ["i", "k", "n", "lo", "j", "hi", "s", "w"]
        );
        assert_eq!(c.slots.array_names(), ["b", "a", "out", "m"]);
    }
}
