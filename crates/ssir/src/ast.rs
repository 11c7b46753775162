//! Abstract syntax tree of the mini-C loop language.
//!
//! Programs are flat statement sequences (the paper's figures are bare loop
//! nests, not whole translation units).  Every loop carries a unique
//! [`LoopId`] assigned by the parser; analysis results are keyed by those
//! ids.

use std::collections::HashSet;
use std::fmt;

/// Unique identifier of a loop within a [`Program`], in program (pre-)order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncating)
    Div,
    /// `%`
    Mod,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// True for comparison operators.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// C-style source text for the operator.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AExpr {
    /// Integer literal.
    IntLit(i64),
    /// Scalar variable reference.
    Var(String),
    /// Array element reference `a[i]` or `a[i][j]` (one index per dimension).
    Index(String, Vec<AExpr>),
    /// Binary operation.
    Binary(BinOp, Box<AExpr>, Box<AExpr>),
    /// Unary operation.
    Unary(UnOp, Box<AExpr>),
}

// `AExpr::add` etc. are AST constructors mirroring the source operators,
// not operator implementations.
#[allow(clippy::should_implement_trait)]
impl AExpr {
    /// Integer literal constructor.
    pub fn int(v: i64) -> AExpr {
        AExpr::IntLit(v)
    }

    /// Variable reference constructor.
    pub fn var(name: impl Into<String>) -> AExpr {
        AExpr::Var(name.into())
    }

    /// 1-D array reference constructor.
    pub fn index(array: impl Into<String>, idx: AExpr) -> AExpr {
        AExpr::Index(array.into(), vec![idx])
    }

    /// 2-D array reference constructor.
    pub fn index2(array: impl Into<String>, i: AExpr, j: AExpr) -> AExpr {
        AExpr::Index(array.into(), vec![i, j])
    }

    /// Binary-operation constructor.
    pub fn bin(op: BinOp, a: AExpr, b: AExpr) -> AExpr {
        AExpr::Binary(op, Box::new(a), Box::new(b))
    }

    /// `a + b`
    pub fn add(a: AExpr, b: AExpr) -> AExpr {
        AExpr::bin(BinOp::Add, a, b)
    }

    /// `a - b`
    pub fn sub(a: AExpr, b: AExpr) -> AExpr {
        AExpr::bin(BinOp::Sub, a, b)
    }

    /// `a * b`
    pub fn mul(a: AExpr, b: AExpr) -> AExpr {
        AExpr::bin(BinOp::Mul, a, b)
    }

    /// Visits every sub-expression in pre-order.
    pub fn for_each<'a>(&'a self, f: &mut impl FnMut(&'a AExpr)) {
        f(self);
        match self {
            AExpr::IntLit(_) | AExpr::Var(_) => {}
            AExpr::Index(_, idxs) => {
                for i in idxs {
                    i.for_each(f);
                }
            }
            AExpr::Binary(_, a, b) => {
                a.for_each(f);
                b.for_each(f);
            }
            AExpr::Unary(_, a) => a.for_each(f),
        }
    }

    /// All scalar variable names mentioned (excluding array names).
    pub fn variables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each(&mut |e| {
            if let AExpr::Var(v) = e {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
        });
        out
    }

    /// All array names mentioned.
    pub fn arrays(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each(&mut |e| {
            if let AExpr::Index(a, _) = e {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
        });
        out
    }

    /// True if any array element reference appears inside the index
    /// expression of another array reference — the defining feature of a
    /// *subscripted subscript*.
    pub fn has_subscripted_subscript(&self) -> bool {
        let mut found = false;
        self.for_each(&mut |e| {
            if let AExpr::Index(_, idxs) = e {
                found |= idxs.iter().any(AExpr::mentions_array);
            }
        });
        found
    }

    /// True if the scalar `name` is read anywhere in the expression.
    pub fn mentions_var(&self, name: &str) -> bool {
        let mut found = false;
        self.for_each(&mut |e| found |= matches!(e, AExpr::Var(v) if v == name));
        found
    }

    /// True if any array element reference appears in the expression.
    fn mentions_array(&self) -> bool {
        let mut found = false;
        self.for_each(&mut |e| found |= matches!(e, AExpr::Index(_, _)));
        found
    }
}

/// The target of an assignment: a scalar or an array element.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LValue {
    /// Variable or array name.
    pub name: String,
    /// Index expressions; empty for scalars.
    pub indices: Vec<AExpr>,
}

impl LValue {
    /// A scalar target.
    pub fn scalar(name: impl Into<String>) -> LValue {
        LValue {
            name: name.into(),
            indices: vec![],
        }
    }

    /// A 1-D array element target.
    pub fn element(name: impl Into<String>, idx: AExpr) -> LValue {
        LValue {
            name: name.into(),
            indices: vec![idx],
        }
    }

    /// True if the target is a scalar variable.
    pub fn is_scalar(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Assignment operators (compound assignments keep their operator so that the
/// analysis sees `x += e` as `x = x + e`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    AddAssign,
    /// `-=`
    SubAssign,
    /// `*=`
    MulAssign,
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Declaration of an integer scalar (`int x;` / `int x = e;`) or array
    /// (`int a[n];`). Array declarations carry their symbolic extents.
    Decl {
        /// Declared name.
        name: String,
        /// Declared extents; empty for scalars.
        dims: Vec<AExpr>,
        /// Optional scalar initializer.
        init: Option<AExpr>,
    },
    /// Assignment `lhs op rhs`.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Plain or compound assignment operator.
        op: AssignOp,
        /// Right-hand side.
        value: AExpr,
    },
    /// Conditional.
    If {
        /// Branch condition.
        cond: AExpr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_branch: Vec<Stmt>,
    },
    /// Counted `for` loop of the canonical C shape
    /// `for (var = init; var </<= bound; var += step)`.
    For {
        /// Unique loop id.
        id: LoopId,
        /// Loop index variable.
        var: String,
        /// Initial value.
        init: AExpr,
        /// The comparison operator of the exit test (`Lt` or `Le`).
        cond_op: BinOp,
        /// Loop bound (right-hand side of the exit test).
        bound: AExpr,
        /// Step added each iteration (usually literal 1).
        step: AExpr,
        /// Loop body.
        body: Vec<Stmt>,
        /// `#pragma` annotations attached to the loop (e.g. the manual
        /// OpenMP parallelization in Figure 9, used as the oracle in the
        /// study).
        pragmas: Vec<String>,
    },
    /// General `while` loop (analyzed conservatively).
    While {
        /// Unique loop id.
        id: LoopId,
        /// Loop condition.
        cond: AExpr,
        /// Loop body.
        body: Vec<Stmt>,
    },
}

impl Stmt {
    /// Returns the loop id if the statement is a loop.
    pub fn loop_id(&self) -> Option<LoopId> {
        match self {
            Stmt::For { id, .. } | Stmt::While { id, .. } => Some(*id),
            _ => None,
        }
    }

    /// The expressions the statement itself evaluates, in evaluation order:
    /// a declaration's extents, then its initializer; an assignment's
    /// value, then its target's subscripts; an `if`'s or `while`'s
    /// condition; a `for`'s init, bound and step.  Nested blocks are not
    /// included.
    pub fn exprs(&self) -> Vec<&AExpr> {
        match self {
            Stmt::Decl { dims, init, .. } => dims.iter().chain(init).collect(),
            Stmt::Assign { target, value, .. } => {
                std::iter::once(value).chain(&target.indices).collect()
            }
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => vec![cond],
            Stmt::For {
                init, bound, step, ..
            } => vec![init, bound, step],
        }
    }

    /// True if a subscripted subscript appears anywhere in the statement:
    /// in a read, in an array target's subscript (`a[b[i]] = …`, and the
    /// read of the same element a compound `a[b[i]] += …` makes), in a
    /// condition, a loop header, a declared extent or an initializer, here
    /// or in a nested statement.
    fn has_subscripted_subscript(&self) -> bool {
        let target_indices = match self {
            Stmt::Assign { target, .. } => target.indices.as_slice(),
            _ => &[],
        };
        self.exprs()
            .into_iter()
            .any(AExpr::has_subscripted_subscript)
            || target_indices.iter().any(AExpr::mentions_array)
            || self.body_has_subscripted_subscript()
    }

    /// True if a subscripted subscript appears in the statement's blocks:
    /// for a loop its body, nested loop headers included, but not its own
    /// header, which is evaluated outside the loop's iterations.
    pub fn body_has_subscripted_subscript(&self) -> bool {
        self.child_blocks()
            .into_iter()
            .flatten()
            .any(Stmt::has_subscripted_subscript)
    }

    /// Returns the body statements of a loop or conditional branch(es).
    pub fn child_blocks(&self) -> Vec<&[Stmt]> {
        match self {
            Stmt::Decl { .. } | Stmt::Assign { .. } => vec![],
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => vec![then_branch.as_slice(), else_branch.as_slice()],
            Stmt::For { body, .. } | Stmt::While { body, .. } => vec![body.as_slice()],
        }
    }
}

/// A whole analyzable program: a named, flat statement sequence.
///
/// Scalars and arrays do not have to be declared; any name used only on the
/// right-hand side (or only as an array) is treated as a symbolic input, just
/// as in the paper's figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Program (kernel) name, used in reports.
    pub name: String,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Program {
    /// Creates a program from a statement list.
    pub fn new(name: impl Into<String>, body: Vec<Stmt>) -> Program {
        Program {
            name: name.into(),
            body,
        }
    }

    /// All loop ids in program order.
    pub fn loop_ids(&self) -> Vec<LoopId> {
        let mut out = Vec::new();
        for_each_stmt(&self.body, &mut |s| out.extend(s.loop_id()));
        out
    }

    /// Finds a loop statement by id.
    pub fn find_loop(&self, id: LoopId) -> Option<&Stmt> {
        let mut found: Option<&Stmt> = None;
        fn walk<'a>(stmts: &'a [Stmt], id: LoopId, found: &mut Option<&'a Stmt>) {
            for s in stmts {
                if found.is_some() {
                    return;
                }
                if s.loop_id() == Some(id) {
                    *found = Some(s);
                    return;
                }
                for block in s.child_blocks() {
                    walk(block, id, found);
                }
            }
        }
        walk(&self.body, id, &mut found);
        found
    }

    /// Scalars the program reads before ever assigning them — its symbolic
    /// inputs (`nelt`, `nrows`, …).  The walk follows evaluation order (loop
    /// init expressions before the index-variable write, guard conditions
    /// before branches, right-hand sides before their targets), so a scalar
    /// like `count` that every path initializes before use is *not*
    /// reported.  Writes on one branch do not dominate reads on the other,
    /// but counting them as definite keeps `if (c) { x = a; } else { x = b; }`
    /// out of the input set; the interpreter's defaulting heap makes the
    /// over-approximation harmless.  Loop index variables are never inputs.
    pub fn free_scalars(&self) -> Vec<String> {
        #[derive(Default)]
        struct Walk {
            written: Vec<String>,
            inputs: Vec<String>,
        }
        impl Walk {
            fn read(&mut self, e: &AExpr) {
                for v in e.variables() {
                    if !self.written.contains(&v) && !self.inputs.contains(&v) {
                        self.inputs.push(v);
                    }
                }
            }
            fn write(&mut self, name: &str) {
                if !self.written.iter().any(|s| s == name) {
                    self.written.push(name.to_string());
                }
            }
            fn stmts(&mut self, stmts: &[Stmt]) {
                for s in stmts {
                    match s {
                        Stmt::Decl { name, dims, init } => {
                            dims.iter().chain(init).for_each(|e| self.read(e));
                            if dims.is_empty() {
                                self.write(name);
                            }
                        }
                        Stmt::Assign { target, op, value } => {
                            self.read(value);
                            target.indices.iter().for_each(|e| self.read(e));
                            if target.is_scalar() {
                                if *op != AssignOp::Assign {
                                    self.read(&AExpr::var(&target.name));
                                }
                                self.write(&target.name);
                            }
                        }
                        Stmt::If {
                            cond,
                            then_branch,
                            else_branch,
                        } => {
                            self.read(cond);
                            self.stmts(then_branch);
                            self.stmts(else_branch);
                        }
                        Stmt::For {
                            var,
                            init,
                            bound,
                            step,
                            body,
                            ..
                        } => {
                            self.read(init);
                            self.write(var);
                            self.read(bound);
                            self.read(step);
                            self.stmts(body);
                        }
                        Stmt::While { cond, body, .. } => {
                            self.read(cond);
                            self.stmts(body);
                        }
                    }
                }
            }
        }
        let mut walk = Walk::default();
        walk.stmts(&self.body);
        walk.inputs
    }
}

/// Visits every statement of `stmts` and of their nested blocks, in
/// pre-order.
pub fn for_each_stmt<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in stmts {
        f(s);
        for block in s.child_blocks() {
            for_each_stmt(block, f);
        }
    }
}

/// Pushes `name` unless `out` already holds it.
fn push_new(out: &mut Vec<String>, name: &str) {
    if !out.iter().any(|n| n == name) {
        out.push(name.to_string());
    }
}

/// The scalars `stmts` assign, nested blocks included: scalar assignment
/// targets, scalar declarations (initialized or not) and `for` index
/// variables, in pre-order, each once.  Reduction slots are numbered in
/// this order.
pub fn assigned_scalars(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    for_each_stmt(stmts, &mut |s| match s {
        Stmt::Assign { target, .. } if target.is_scalar() => push_new(&mut out, &target.name),
        Stmt::Decl { name, dims, .. } if dims.is_empty() => push_new(&mut out, name),
        Stmt::For { var, .. } => push_new(&mut out, var),
        _ => {}
    });
    out
}

/// The arrays `stmts` assign an element of, nested blocks included, in
/// pre-order, each once.
pub fn written_arrays(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    for_each_stmt(stmts, &mut |s| match s {
        Stmt::Assign { target, .. } if !target.is_scalar() => push_new(&mut out, &target.name),
        _ => {}
    });
    out
}

/// The arrays of a loop body that are private to each iteration: those
/// whose first mention in evaluation order (subscripted reads, array
/// targets and declarations, extents and initializers before the
/// declaration they belong to) is an unconditional top-level declaration
/// of `body`.  Every iteration allocates them afresh before any access, so
/// no value flows between iterations.  An array touched before its
/// declaration, or declared only inside a branch or a nested loop, is not
/// private: that access would see the previous iteration's storage.
pub fn private_arrays(body: &[Stmt]) -> Vec<String> {
    let mut mentioned: HashSet<&str> = HashSet::new();
    let mut private = Vec::new();
    for top in body {
        for_each_stmt(std::slice::from_ref(top), &mut |s| {
            for e in s.exprs() {
                e.for_each(&mut |x| {
                    if let AExpr::Index(a, _) = x {
                        mentioned.insert(a);
                    }
                });
            }
            let array = match s {
                Stmt::Decl { name, dims, .. } if !dims.is_empty() => name,
                Stmt::Assign { target, .. } if !target.is_scalar() => &target.name,
                _ => return,
            };
            let declared_here = std::ptr::eq(s, top) && matches!(s, Stmt::Decl { .. });
            if mentioned.insert(array) && declared_here {
                private.push(array.clone());
            }
        });
    }
    private
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_program() -> Program {
        // for (miel = 0; miel < nelt; miel++) {
        //   iel = mt_to_id[miel];
        //   id_to_mt[iel] = miel;
        // }
        Program::new(
            "fig2",
            vec![Stmt::For {
                id: LoopId(0),
                var: "miel".into(),
                init: AExpr::int(0),
                cond_op: BinOp::Lt,
                bound: AExpr::var("nelt"),
                step: AExpr::int(1),
                body: vec![
                    Stmt::Assign {
                        target: LValue::scalar("iel"),
                        op: AssignOp::Assign,
                        value: AExpr::index("mt_to_id", AExpr::var("miel")),
                    },
                    Stmt::Assign {
                        target: LValue::element("id_to_mt", AExpr::var("iel")),
                        op: AssignOp::Assign,
                        value: AExpr::var("miel"),
                    },
                ],
                pragmas: vec![],
            }],
        )
    }

    #[test]
    fn expression_queries() {
        let e = AExpr::index("imatch", AExpr::index("jmatch", AExpr::var("i")));
        assert!(e.has_subscripted_subscript());
        assert_eq!(e.arrays(), vec!["imatch".to_string(), "jmatch".to_string()]);
        assert_eq!(e.variables(), vec!["i".to_string()]);
        let plain = AExpr::index("a", AExpr::add(AExpr::var("i"), AExpr::int(1)));
        assert!(!plain.has_subscripted_subscript());
    }

    #[test]
    fn program_walks_and_queries() {
        let p = fig2_program();
        assert_eq!(p.loop_ids(), vec![LoopId(0)]);
        assert!(p.find_loop(LoopId(0)).is_some());
        assert!(p.find_loop(LoopId(7)).is_none());
        assert_eq!(written_arrays(&p.body), vec!["id_to_mt".to_string()]);
        assert_eq!(assigned_scalars(&p.body), vec!["miel", "iel"]);
        let mut count = 0;
        for_each_stmt(&p.body, &mut |_| count += 1);
        assert_eq!(count, 3); // for + two assigns
    }

    /// The body of the program's first statement, a loop.
    fn loop_body(p: &Program) -> &[Stmt] {
        let (Stmt::For { body, .. } | Stmt::While { body, .. }) = &p.body[0] else {
            panic!("the first statement is not a loop")
        };
        body
    }

    #[test]
    fn statements_list_what_they_evaluate_in_evaluation_order() {
        let p = crate::parser::parse_program(
            "t",
            "int t[n][m]; int s = a[0]; b[i + 1] += c[j]; if (x < y) { z = 1; } \
             for (k = lo; k < hi; k++) { } while (w > 0) { w = w - 1; }",
        )
        .unwrap();
        let printed: Vec<Vec<String>> = (p.body.iter())
            .map(|s| s.exprs().into_iter().map(crate::print_expr).collect())
            .collect();
        assert_eq!(
            printed,
            vec![
                vec!["n", "m"],
                vec!["a[0]"],
                vec!["c[j]", "i + 1"],
                vec!["x < y"],
                vec!["lo", "hi", "1"],
                vec!["w > 0"],
            ]
        );
    }

    #[test]
    fn assigned_scalars_are_pre_order_and_deduplicated() {
        let p = crate::parser::parse_program(
            "t",
            r#"
            for (i = 0; i < n; i++) {
                count = 0;
                if (c[i] > 0) { count++; } else { other = 1; }
                for (j = 0; j < m; j++) { inner = j; int u; }
                while (w > 0) { w = w - 1; h[w] = 1; }
                g[i] = count;
            }
        "#,
        )
        .unwrap();
        let body = loop_body(&p);
        // `i` is assigned by the header, not the body; `int u;` counts even
        // without an initializer.
        assert_eq!(
            assigned_scalars(body),
            vec!["count", "other", "j", "inner", "u", "w"]
        );
        assert_eq!(assigned_scalars(&p.body)[0], "i");
        assert_eq!(written_arrays(body), vec!["h", "g"]);
    }

    #[test]
    fn private_arrays_are_first_mentioned_by_a_top_level_declaration() {
        let private = |src: &str| {
            let p = crate::parser::parse_program("t", src).unwrap();
            private_arrays(loop_body(&p))
        };
        assert_eq!(
            private(
                "for (i = 0; i < n; i++) { int s[8]; s[0] = i; int t[4]; o[i] = s[0] + t[1]; }"
            ),
            vec!["s", "t"]
        );
        // Read, written or sized before the declaration: the earlier
        // iteration's storage is visible.
        assert!(private("for (i = 0; i < n; i++) { o[i] = s[0]; int s[8]; }").is_empty());
        assert!(private("for (i = 0; i < n; i++) { s[0] = i; int s[8]; }").is_empty());
        assert!(private("for (i = 0; i < n; i++) { int s[s[0]]; }").is_empty());
        assert!(private("for (i = 0; i < n; i++) { if (s[0] > 0) { } int s[8]; }").is_empty());
        assert!(
            private("for (i = 0; i < n; i++) { for (k = 0; k < s[0]; k++) { } int s[8]; }")
                .is_empty()
        );
        // Declared only in a branch or a nested loop.
        assert!(private("for (i = 0; i < n; i++) { if (i > 0) { int s[8]; } }").is_empty());
        assert!(private("for (i = 0; i < n; i++) { while (i < 0) { int s[8]; } }").is_empty());
        // Scalars are never private arrays.
        assert!(private("for (i = 0; i < n; i++) { int s; s = i; }").is_empty());
    }

    /// `body_has_subscripted_subscript` of every loop, in program order.
    fn loop_flags(src: &str) -> Vec<bool> {
        let p = crate::parser::parse_program("t", src).unwrap();
        p.loop_ids()
            .into_iter()
            .map(|id| p.find_loop(id).unwrap().body_has_subscripted_subscript())
            .collect()
    }

    #[test]
    fn marks_subscripted_subscripts() {
        let fig5 = "for (i = 0; i < m; i++) { if (jmatch[i] >= 0) { imatch[jmatch[i]] = i; } }";
        assert_eq!(loop_flags(fig5), vec![true]);
        let fig2 =
            "for (miel = 0; miel < nelt; miel++) { iel = mt_to_id[miel]; id_to_mt[iel] = miel; }";
        assert_eq!(loop_flags(fig2), vec![false]);
        // A read on the right-hand side counts as well as a target.
        assert_eq!(
            loop_flags("for (i = 0; i < n; i++) { y[i] = x[c[i]]; }"),
            vec![true]
        );
        // Rank-2 subscripts: only an array reference *inside* one counts.
        assert_eq!(
            loop_flags("for (i = 0; i < n; i++) { s[i] = m[i][j]; }"),
            vec![false]
        );
        assert_eq!(
            loop_flags("for (i = 0; i < n; i++) { m[i][c[i]] = 1; }"),
            vec![true]
        );
    }

    #[test]
    fn subscripted_subscripts_count_in_every_position_but_the_loops_own_header() {
        // The loop's own header is evaluated outside its iterations.
        assert_eq!(
            loop_flags("for (k = r[p[0]]; k < r[p[1]]; k++) { x[k] = k; }"),
            vec![false]
        );
        assert_eq!(loop_flags("while (a[b[0]] > 0) { x[0] = 0; }"), vec![false]);
        // A nested loop's header is inside the outer loop's body.
        assert_eq!(
            loop_flags("for (b = 0; b < nb; b++) { for (k = r[p[b]]; k < n; k++) { x[k] = b; } }"),
            vec![true, false]
        );
        // An `if` condition, with plain branches.
        assert_eq!(
            loop_flags(
                "for (i = 0; i < n; i++) { if (a[b[i]] > 0) { x[i] = 1; } else { x[i] = 2; } }"
            ),
            vec![true]
        );
        // A `while` loop's body, and a nested `while`'s condition.
        assert_eq!(
            loop_flags("while (i < n) { x[c[i]] = 1; i++; }"),
            vec![true]
        );
        assert_eq!(
            loop_flags("for (i = 0; i < n; i++) { while (a[b[i]] > 0) { a[i] -= 1; } }"),
            vec![true, false]
        );
        // A declaration's extent and a scalar initializer.
        assert_eq!(
            loop_flags("for (i = 0; i < n; i++) { int t[c[d[i]]]; }"),
            vec![true]
        );
        assert_eq!(
            loop_flags("for (i = 0; i < n; i++) { int t = c[d[i]]; }"),
            vec![true]
        );
        // A compound array target.
        assert_eq!(
            loop_flags("for (i = 0; i < n; i++) { a[b[i]] += 1; }"),
            vec![true]
        );
    }

    #[test]
    fn free_scalars_of_the_figure9_kernel() {
        let p = crate::parser::parse_program(
            "fig9",
            r#"
            index = 0;
            for (i = 0; i < ROWLEN; i++) {
                count = 0;
                for (j = 0; j < COLUMNLEN; j++) {
                    if (a[i][j] != 0) {
                        count++;
                        value[index] = a[i][j];
                        index++;
                    }
                }
                rowsize[i] = count;
            }
            rowptr[0] = 0;
            for (i = 1; i < ROWLEN + 1; i++) {
                rowptr[i] = rowptr[i-1] + rowsize[i-1];
            }
        "#,
        )
        .unwrap();
        assert_eq!(
            p.free_scalars(),
            vec!["ROWLEN".to_string(), "COLUMNLEN".to_string()]
        );
        let p =
            crate::parser::parse_program("t", "for (k = 0; k < n; k++) { colidx[k] -= firstcol; }")
                .unwrap();
        assert_eq!(
            p.free_scalars(),
            vec!["n".to_string(), "firstcol".to_string()]
        );
        // A compound scalar update reads its target first.
        let p = crate::parser::parse_program("t", "s += 1; int e = s;").unwrap();
        assert_eq!(p.free_scalars(), vec!["s".to_string()]);
    }

    #[test]
    fn binop_classification() {
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::Le.is_comparison());
        assert_eq!(BinOp::Mod.as_str(), "%");
        assert_eq!(BinOp::Ne.as_str(), "!=");
    }

    #[test]
    fn lvalue_helpers() {
        assert!(LValue::scalar("x").is_scalar());
        assert!(!LValue::element("a", AExpr::var("i")).is_scalar());
    }

    #[test]
    fn loop_id_display() {
        assert_eq!(format!("{}", LoopId(3)), "L3");
    }
}
