//! The program generator behind `engine_fuzz` and `analysis_corpus`:
//! random SS-IR programs — nested loops, conditionals, subscripted
//! subscripts, compound assignments, reduction shapes, loop-local array
//! declarations, `while` loops, carried indirect read/write loops,
//! deliberately unsafe accesses — as a model ([`GProgram`]) that renders
//! to mini-C source and that the fuzzer's shrinker edits.
//!
//! [`seeds`] is the corpus both tests walk: `engine_fuzz` runs its first
//! `ENGINE_FUZZ_CASES` programs through the differential matrix, and
//! `analysis_corpus` pins the analysis verdicts of its first 1,024.

// Each test crate that declares this module uses a different part of it.
#![allow(dead_code)]

use proptest::TestRng;

/// The generator seeds of the corpus's first `cases` programs, in case
/// order.
pub fn seeds(cases: u32) -> impl Iterator<Item = u64> {
    let mut rng = TestRng::from_name("all_engines_agree_on_generated_programs");
    (0..cases).map(move |_| rng.next_u64())
}

// ---------------------------------------------------------------------------
// Program model.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct Arr {
    name: String,
    dims: Vec<i64>,
}

#[derive(Clone, Debug)]
pub enum GExpr {
    Const(i64),
    Var(String),
    Read(String, Vec<GExpr>),
    Bin(&'static str, Box<GExpr>, Box<GExpr>),
    Un(&'static str, Box<GExpr>),
}

impl GExpr {
    fn render(&self, out: &mut String) {
        match self {
            GExpr::Const(v) => {
                if *v < 0 {
                    out.push_str(&format!("(0 - {})", -v));
                } else {
                    out.push_str(&v.to_string());
                }
            }
            GExpr::Var(n) => out.push_str(n),
            GExpr::Read(a, idx) => {
                out.push_str(a);
                for e in idx {
                    out.push('[');
                    e.render(out);
                    out.push(']');
                }
            }
            GExpr::Bin(op, a, b) => {
                out.push('(');
                a.render(out);
                out.push_str(&format!(" {op} "));
                b.render(out);
                out.push(')');
            }
            GExpr::Un(op, a) => {
                out.push_str(&format!("{op}("));
                a.render(out);
                out.push(')');
            }
        }
    }
}

#[derive(Clone, Debug)]
pub enum GStmt {
    /// `name op= expr;`
    Scalar(String, &'static str, GExpr),
    /// `arr[idx…] op= expr;`
    Store(String, Vec<GExpr>, &'static str, GExpr),
    /// `if (cond) { … } else { … }` (else possibly empty).
    If(GExpr, Vec<GStmt>, Vec<GStmt>),
    /// `for (var = 0; var < trip; var++) { [int local[dim];] … }`
    For {
        var: String,
        trip: i64,
        local: Option<(String, i64)>,
        body: Vec<GStmt>,
    },
    /// `var = 0; while (var < trip) { … var = var + 1; }`
    While {
        var: String,
        trip: i64,
        body: Vec<GStmt>,
    },
    /// A carried indirect read/write loop with the loop that fills its
    /// index arrays: `wp`/`wq` get `(var * mul + add) % dim`, then
    /// `arr[wp[var]] = arr[wq[var]] + term` — serial-proven, but its
    /// footprint is a function of entry state, so engines with the
    /// level-set strategy inspect and schedule it.  With `input`, the
    /// index arrays are the initial heap's `ip`/`iq` instead, which no
    /// program writes: the matrix legs, sharing one cloned heap, find
    /// the schedule by generation.
    Carried {
        var: String,
        trip: i64,
        arr: String,
        dim: i64,
        p: (i64, i64),
        q: (i64, i64),
        term: GExpr,
        input: bool,
    },
}

fn render_block(stmts: &[GStmt], indent: usize, out: &mut String) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            GStmt::Scalar(name, op, e) => {
                out.push_str(&format!("{pad}{name} {op} "));
                e.render(out);
                out.push_str(";\n");
            }
            GStmt::Store(arr, idx, op, e) => {
                out.push_str(&format!("{pad}{arr}"));
                for i in idx {
                    out.push('[');
                    i.render(out);
                    out.push(']');
                }
                out.push_str(&format!(" {op} "));
                e.render(out);
                out.push_str(";\n");
            }
            GStmt::If(c, t, f) => {
                out.push_str(&format!("{pad}if ("));
                c.render(out);
                out.push_str(") {\n");
                render_block(t, indent + 1, out);
                if f.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    render_block(f, indent + 1, out);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            GStmt::For {
                var,
                trip,
                local,
                body,
            } => {
                out.push_str(&format!(
                    "{pad}for ({var} = 0; {var} < {trip}; {var}++) {{\n"
                ));
                if let Some((name, dim)) = local {
                    out.push_str(&format!("{pad}    int {name}[{dim}];\n"));
                }
                render_block(body, indent + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::While { var, trip, body } => {
                out.push_str(&format!("{pad}{var} = 0;\n"));
                out.push_str(&format!("{pad}while ({var} < {trip}) {{\n"));
                render_block(body, indent + 1, out);
                out.push_str(&format!("{pad}    {var} = {var} + 1;\n"));
                out.push_str(&format!("{pad}}}\n"));
            }
            GStmt::Carried {
                var,
                trip,
                arr,
                dim,
                p,
                q,
                term,
                input,
            } => {
                let (wp, wq) = if *input {
                    ("ip", "iq")
                } else {
                    out.push_str(&format!(
                        "{pad}for ({var} = 0; {var} < {trip}; {var}++) {{\n\
                         {pad}    wp[{var}] = ({var} * {} + {}) % {dim};\n\
                         {pad}    wq[{var}] = ({var} * {} + {}) % {dim};\n\
                         {pad}}}\n",
                        p.0, p.1, q.0, q.1
                    ));
                    ("wp", "wq")
                };
                out.push_str(&format!(
                    "{pad}for ({var} = 0; {var} < {trip}; {var}++) {{\n\
                     {pad}    {arr}[{wp}[{var}]] = {arr}[{wq}[{var}]] + "
                ));
                term.render(out);
                out.push_str(&format!(";\n{pad}}}\n"));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Generation.
// ---------------------------------------------------------------------------

const SCALARS: [&str; 5] = ["x", "y", "z", "s", "t"];
/// Read-only scalars nobody initializes: undefined-value reads must agree
/// across engines too.
const UNDEFINED: [&str; 2] = ["u0", "u1"];

struct Gen {
    rng: TestRng,
    /// A second stream for the [`GStmt::Carried`] shape, so inserting one
    /// leaves the rest of the program what `rng` alone would generate.
    shape_rng: TestRng,
    arrays: Vec<Arr>,
    loop_vars: Vec<String>,
    next_loop_var: usize,
    next_local: usize,
    stmt_budget: usize,
}

impl Gen {
    fn chance(&mut self, percent: usize) -> bool {
        self.rng.below(100) < percent
    }

    fn small_const(&mut self) -> i64 {
        self.rng.below(9) as i64 - 2
    }

    /// An expression guaranteed non-negative given non-negative scope vars
    /// (loop counters, the prelude-filled `idx` contents): safe to reduce
    /// `% dim` into a valid subscript.
    fn nonneg_atom(&mut self) -> GExpr {
        if !self.loop_vars.is_empty() && self.chance(70) {
            let v = self.loop_vars[self.rng.below(self.loop_vars.len())].clone();
            if self.chance(40) {
                GExpr::Bin(
                    "+",
                    Box::new(GExpr::Var(v)),
                    Box::new(GExpr::Const(self.rng.below(4) as i64)),
                )
            } else {
                GExpr::Var(v)
            }
        } else {
            GExpr::Const(self.rng.below(8) as i64)
        }
    }

    /// A subscript expression for extent `dim`: mostly in-bounds shapes
    /// (`v % dim`, `idx[v % 16] % dim` — the subscripted-subscript
    /// pattern), occasionally an arbitrary value expression so
    /// out-of-bounds error agreement is exercised too.
    fn index_expr(&mut self, dim: i64, depth: usize) -> GExpr {
        if self.chance(8) {
            return self.value_expr(depth.min(1));
        }
        let base = if self.chance(35) {
            let inner = self.nonneg_atom();
            GExpr::Read(
                "idx".into(),
                vec![GExpr::Bin("%", Box::new(inner), Box::new(GExpr::Const(16)))],
            )
        } else {
            self.nonneg_atom()
        };
        GExpr::Bin("%", Box::new(base), Box::new(GExpr::Const(dim)))
    }

    fn array_read(&mut self, depth: usize) -> GExpr {
        let arr = self.arrays[self.rng.below(self.arrays.len())].clone();
        let idx = arr
            .dims
            .iter()
            .map(|&d| self.index_expr(d, depth))
            .collect();
        GExpr::Read(arr.name, idx)
    }

    fn value_expr(&mut self, depth: usize) -> GExpr {
        if depth == 0 || self.chance(30) {
            return match self.rng.below(10) {
                0..=3 => GExpr::Const(self.small_const()),
                4..=6 => {
                    let v = if !self.loop_vars.is_empty() && self.chance(50) {
                        self.loop_vars[self.rng.below(self.loop_vars.len())].clone()
                    } else if self.chance(12) {
                        UNDEFINED[self.rng.below(UNDEFINED.len())].to_string()
                    } else {
                        SCALARS[self.rng.below(SCALARS.len())].to_string()
                    };
                    GExpr::Var(v)
                }
                _ => self.array_read(0),
            };
        }
        match self.rng.below(12) {
            0..=6 => {
                let ops = ["+", "-", "*", "<", "<=", "==", "!=", "&&", "||"];
                let op = ops[self.rng.below(ops.len())];
                GExpr::Bin(
                    op,
                    Box::new(self.value_expr(depth - 1)),
                    Box::new(self.value_expr(depth - 1)),
                )
            }
            7 | 8 => {
                // Division and remainder: usually by a non-zero constant,
                // sometimes by an arbitrary expression (division-by-zero
                // agreement).
                let op = if self.chance(50) { "/" } else { "%" };
                let rhs = if self.chance(80) {
                    GExpr::Const([1, 2, 3, 5, 7][self.rng.below(5)])
                } else {
                    self.value_expr(depth - 1)
                };
                GExpr::Bin(op, Box::new(self.value_expr(depth - 1)), Box::new(rhs))
            }
            9 => GExpr::Un(
                if self.chance(50) { "-" } else { "!" },
                Box::new(self.value_expr(depth - 1)),
            ),
            _ => self.array_read(depth - 1),
        }
    }

    fn assign_op(&mut self) -> &'static str {
        match self.rng.below(10) {
            0..=5 => "=",
            6 | 7 => "+=",
            8 => "-=",
            _ => "*=",
        }
    }

    fn stmt(&mut self, nest: usize) -> GStmt {
        if self.stmt_budget > 0 {
            self.stmt_budget -= 1;
        }
        let roll = self.rng.below(100);
        match roll {
            // Scalar assignment (rarely to a live loop counter, which
            // exercises runaway-loop caps and step semantics).
            0..=24 => {
                let name = if !self.loop_vars.is_empty() && self.chance(4) {
                    self.loop_vars[self.rng.below(self.loop_vars.len())].clone()
                } else if self.chance(8) {
                    // Occasionally target a never-initialized scalar: the
                    // defined-flag/heap-write-back semantics (is the name
                    // present in the final heap at all?) must agree across
                    // engines, including self-assignment shapes like
                    // `u0 = u0;`.
                    UNDEFINED[self.rng.below(UNDEFINED.len())].to_string()
                } else {
                    SCALARS[self.rng.below(SCALARS.len())].to_string()
                };
                let e = if self.chance(6) {
                    GExpr::Var(name.clone())
                } else {
                    self.value_expr(2)
                };
                GStmt::Scalar(name, self.assign_op(), e)
            }
            // Array store.
            25..=54 => {
                let arr = self.arrays[self.rng.below(self.arrays.len())].clone();
                let idx = arr.dims.iter().map(|&d| self.index_expr(d, 1)).collect();
                let e = self.value_expr(2);
                GStmt::Store(arr.name, idx, self.assign_op(), e)
            }
            // Conditional.
            55..=69 => {
                let c = self.value_expr(2);
                let t = self.block(nest + 1);
                let f = if self.chance(40) {
                    self.block(nest + 1)
                } else {
                    Vec::new()
                };
                GStmt::If(c, t, f)
            }
            // Counted loop, possibly with a loop-local array.
            70..=92 if nest < 3 => {
                let var = format!("i{}", self.next_loop_var);
                self.next_loop_var += 1;
                // Include the 0- and 1-trip edge cases.
                let trip = match self.rng.below(10) {
                    0 => 0,
                    1 => 1,
                    n => 2 + (n as i64 * 3) % 15,
                };
                let local = if nest == 0 && self.chance(30) {
                    let name = format!("g{}", self.next_local);
                    self.next_local += 1;
                    let dim = 2 + self.rng.below(5) as i64;
                    Some((name, dim))
                } else {
                    None
                };
                self.loop_vars.push(var.clone());
                if let Some((name, dim)) = &local {
                    self.arrays.push(Arr {
                        name: name.clone(),
                        dims: vec![*dim],
                    });
                }
                let mut body = self.block(nest + 1);
                // Reduction shapes, sometimes: s += term, and (rarer) the
                // product accumulator t *= term — when nothing else in the
                // body touches t the loop dispatches as a `*` reduction.
                if self.chance(35) {
                    let term = self.value_expr(1);
                    body.push(GStmt::Scalar("s".into(), "+=", term));
                }
                if self.chance(20) {
                    let term = self.value_expr(1);
                    body.push(GStmt::Scalar("t".into(), "*=", term));
                }
                if local.is_some() {
                    self.arrays.pop();
                }
                self.loop_vars.pop();
                GStmt::For {
                    var,
                    trip,
                    local,
                    body,
                }
            }
            // While loop (bounded by construction; the body may still stall
            // the counter by rewriting it, which the iteration cap catches).
            _ if nest < 3 => {
                let var = format!("w{}", self.next_loop_var);
                self.next_loop_var += 1;
                let trip = 1 + self.rng.below(5) as i64;
                self.loop_vars.push(var.clone());
                let body = self.block(nest + 1);
                self.loop_vars.pop();
                GStmt::While { var, trip, body }
            }
            _ => {
                let e = self.value_expr(1);
                GStmt::Scalar(SCALARS[self.rng.below(SCALARS.len())].to_string(), "=", e)
            }
        }
    }

    fn carried(&mut self) -> GStmt {
        let rng = &mut self.shape_rng;
        let var = format!("i{}", self.next_loop_var);
        self.next_loop_var += 1;
        let (arr, dim) = [("a", 16), ("b", 16), ("out", 32)][rng.below(3)];
        let mut map = || (1 + rng.below(7) as i64, rng.below(8) as i64);
        let (p, q) = (map(), map());
        let term = if rng.below(2) == 0 {
            GExpr::Var(var.clone())
        } else {
            GExpr::Const(rng.below(8) as i64)
        };
        GStmt::Carried {
            var,
            trip: 8 + rng.below(9) as i64,
            arr: arr.into(),
            dim,
            p,
            q,
            term,
            input: rng.below(2) == 0,
        }
    }

    fn block(&mut self, nest: usize) -> Vec<GStmt> {
        let want = 1 + self.rng.below(3);
        let mut out = Vec::new();
        for _ in 0..want {
            if self.stmt_budget == 0 {
                break;
            }
            out.push(self.stmt(nest));
        }
        out
    }
}

#[derive(Clone, Debug)]
pub struct GProgram {
    pub seed: u64,
    /// Worker threads the program's parallel legs run at.
    pub threads: usize,
    pub body: Vec<GStmt>,
}

impl GProgram {
    pub fn generate(seed: u64) -> GProgram {
        let mut g = Gen {
            rng: TestRng::from_seed(seed),
            shape_rng: TestRng::from_seed(!seed),
            arrays: vec![
                Arr {
                    name: "a".into(),
                    dims: vec![16],
                },
                Arr {
                    name: "b".into(),
                    dims: vec![16],
                },
                Arr {
                    name: "idx".into(),
                    dims: vec![16],
                },
                Arr {
                    name: "out".into(),
                    dims: vec![32],
                },
                Arr {
                    name: "m".into(),
                    dims: vec![4, 8],
                },
            ],
            loop_vars: Vec::new(),
            next_loop_var: 0,
            next_local: 0,
            stmt_budget: 22,
        };
        let threads = 2 + g.rng.below(3);
        let mut body = Vec::new();
        while g.stmt_budget > 0 {
            // Top level only, so the loop reaches the spine's dispatcher.
            if g.shape_rng.below(100) < 12 {
                body.push(g.carried());
            }
            body.push(g.stmt(0));
        }
        GProgram {
            seed,
            threads,
            body,
        }
    }

    /// The prelude declares and fills every array but the `input`
    /// [`GStmt::Carried`] shape's `ip`/`iq` and initializes the named
    /// scalars; `u0`/`u1` stay deliberately undefined.
    pub fn source(&self) -> String {
        let mut out = String::new();
        let c1 = 1 + (self.seed % 7) as i64;
        let c2 = (self.seed / 7 % 5) as i64;
        out.push_str("int a[16]; int b[16]; int idx[16]; int out[32]; int m[4][8];\n");
        out.push_str("int wp[16]; int wq[16];\n");
        out.push_str(&format!(
            "for (p0 = 0; p0 < 16; p0++) {{\n    a[p0] = p0 * {c1} - 7;\n    b[p0] = p0 + {c2};\n    idx[p0] = (p0 * {c1} + {c2}) % 16;\n}}\n"
        ));
        out.push_str(
            "for (p1 = 0; p1 < 4; p1++) {\n    for (p2 = 0; p2 < 8; p2++) {\n        m[p1][p2] = p1 * 8 + p2;\n    }\n}\n",
        );
        out.push_str("x = 1; y = 2; z = 3; s = 4; t = 5;\n");
        render_block(&self.body, 0, &mut out);
        out
    }
}
