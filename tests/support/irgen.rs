//! Shared random work-function IR generator, used by the static-analysis
//! soundness proptest (`tests/static_analysis.rs`) and the engine
//! differential proptest (`tests/exec_equivalence.rs`).
//!
//! The generator produces random bodies (branches, constant and
//! data-dependent loops, peeks, int and float locals, float literals
//! including the IEEE special values, discarded pops, and FIR-style
//! accumulator chains) over the work-function IR.  Some branches test
//! an item the body pops or peeks and have arms that pop nothing and
//! push alike ([`gen_guard`]): no mid-end can fold their test, and the
//! body's rates stay exact, so they reach the engines as data-dependent
//! jumps.  Peek indices are
//! restricted to constants and loop variables so generated programs
//! never peek at a negative index at runtime, and no generated operator
//! can trap.

#![allow(dead_code)]

use streamit::exec::bytecode::Inst;
use streamit::graph::{BinOp, DataType, Expr, LValue, Stmt};

/// Deterministic splitmix64 over a case seed.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Scope passed down while generating: visible locals and (separately)
/// loop variables, which are the only variables guaranteed
/// non-negative and therefore usable as peek indices.
#[derive(Clone, Default)]
pub struct Scope {
    /// Every visible scalar local, int or float.
    pub vars: Vec<String>,
    /// The float ones among `vars` (accumulator candidates).
    pub float_vars: Vec<String>,
    pub loop_vars: Vec<String>,
    /// Variables of loops that have already ended: a later loop may take
    /// one of these names again, as hand-written `for i … for i …` does.
    pub ended_loops: Vec<String>,
    pub fresh: usize,
}

/// A float literal: mostly ordinary coefficients, one time in three a
/// value whose arithmetic is easy to get subtly wrong (signed zero, NaN,
/// the infinities, a subnormal).
///
/// The NaN is the one this hardware's own arithmetic generates (`0 × ∞`,
/// computed at run time), so it is the only NaN bit pattern a generated
/// program ever contains.  When two *different* NaNs meet in one
/// operation, which payload survives depends on the operand order of
/// the machine instruction, and Rust lets the compiler pick that order
/// separately at every `a + b` in every engine — no pair of engines can
/// promise bit identity there.  With a single pattern every NaN result
/// is still compared bit for bit.
pub fn gen_float_lit(g: &mut Gen) -> f64 {
    use std::hint::black_box;
    if g.below(3) != 0 {
        return (g.below(64) as f64 - 32.0) / 8.0;
    }
    match g.below(6) {
        0 => -0.0,
        1 => black_box(0.0f64) * black_box(f64::INFINITY),
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 5e-324,
        _ => 0.0,
    }
}

pub fn gen_expr(g: &mut Gen, sc: &Scope, depth: usize) -> Expr {
    let max = if depth == 0 { 5 } else { 8 };
    match g.below(max) {
        0 => Expr::IntLit(g.below(16) as i64 - 8),
        1 if !sc.vars.is_empty() => {
            Expr::Var(sc.vars[g.below(sc.vars.len() as u64) as usize].clone())
        }
        1 => Expr::IntLit(g.below(8) as i64),
        2 => Expr::Pop,
        3 => Expr::Peek(Box::new(gen_peek_index(g, sc))),
        4 => Expr::FloatLit(gen_float_lit(g)),
        _ => {
            let op = match g.below(7) {
                0 => BinOp::Add,
                1 => BinOp::Sub,
                2 => BinOp::Mul,
                3 => BinOp::Lt,
                4 => BinOp::Gt,
                5 => BinOp::And,
                _ => BinOp::Or,
            };
            Expr::Binary(
                op,
                Box::new(gen_expr(g, sc, depth - 1)),
                Box::new(gen_expr(g, sc, depth - 1)),
            )
        }
    }
}

/// Peek indices must be non-negative at runtime; generate only
/// constants and loop variables (always >= 0 here).
pub fn gen_peek_index(g: &mut Gen, sc: &Scope) -> Expr {
    if !sc.loop_vars.is_empty() && g.below(2) == 0 {
        Expr::Var(sc.loop_vars[g.below(sc.loop_vars.len() as u64) as usize].clone())
    } else {
        Expr::IntLit(g.below(12) as i64)
    }
}

pub fn gen_block(g: &mut Gen, sc: &mut Scope, depth: usize) -> Vec<Stmt> {
    let n = 1 + g.below(4) as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if g.below(5) == 0 {
            gen_chain(g, sc, &mut out);
        } else {
            out.push(gen_stmt(g, sc, depth));
        }
    }
    out
}

/// An accumulator chain — the shape an unrolled FIR loop takes:
/// `acc = acc + peek(k) * c` for two to five taps whose indices run
/// consecutively, with gaps, or downwards, with the literal on either
/// side of the multiply, sometimes with an `if` between two taps.  The
/// accumulator is a float local: a fresh one, or one already in scope.
pub fn gen_chain(g: &mut Gen, sc: &mut Scope, out: &mut Vec<Stmt>) {
    let acc = if !sc.float_vars.is_empty() && g.below(3) == 0 {
        sc.float_vars[g.below(sc.float_vars.len() as u64) as usize].clone()
    } else {
        let init = Expr::FloatLit(gen_float_lit(g));
        let name = declare(sc, DataType::Float);
        out.push(Stmt::Let {
            name: name.clone(),
            ty: DataType::Float,
            init,
        });
        name
    };
    let n = 2 + g.below(4) as i64;
    let k0 = g.below(6) as i64;
    let order = g.below(4);
    let literal_left = g.below(4) == 0;
    let split = (g.below(4) == 0).then(|| 1 + g.below(n as u64 - 1) as i64);
    for j in 0..n {
        let k = match order {
            0 | 1 => k0 + j,
            2 => k0 + 2 * j,
            _ => k0 + n - 1 - j,
        };
        let peek = Box::new(Expr::Peek(Box::new(Expr::IntLit(k))));
        let c = Box::new(Expr::FloatLit(gen_float_lit(g)));
        let tap = if literal_left {
            Expr::Binary(BinOp::Mul, c, peek)
        } else {
            Expr::Binary(BinOp::Mul, peek, c)
        };
        let step = Stmt::Assign {
            target: LValue::Var(acc.clone()),
            value: Expr::Binary(BinOp::Add, Box::new(Expr::Var(acc.clone())), Box::new(tap)),
        };
        if split == Some(j) {
            out.push(Stmt::If {
                cond: gen_expr(g, sc, 0),
                then_body: vec![step],
                else_body: Vec::new(),
            });
        } else {
            out.push(step);
        }
    }
}

/// Bring a fresh local of the given type into scope; returns its name.
fn declare(sc: &mut Scope, ty: DataType) -> String {
    sc.fresh += 1;
    let name = match ty {
        DataType::Int => format!("v{}", sc.fresh),
        DataType::Float => {
            let name = format!("f{}", sc.fresh);
            sc.float_vars.push(name.clone());
            name
        }
    };
    sc.vars.push(name.clone());
    name
}

/// `if (item < e) { a } else { b }` (or `>`), where `item` is a pop or
/// a peek and the arms both write one local, or both push one item,
/// from values that read no tape.
pub fn gen_guard(g: &mut Gen, sc: &Scope) -> Stmt {
    let item = if g.below(2) == 0 {
        Expr::Pop
    } else {
        Expr::Peek(Box::new(gen_peek_index(g, sc)))
    };
    let cmp = if g.below(2) == 0 {
        BinOp::Lt
    } else {
        BinOp::Gt
    };
    let cond = Expr::Binary(cmp, Box::new(item), Box::new(gen_expr(g, sc, 0)));
    let target = (!sc.vars.is_empty() && g.below(3) != 0)
        .then(|| sc.vars[g.below(sc.vars.len() as u64) as usize].clone());
    let arm = |g: &mut Gen| {
        let leaf = match g.below(3) {
            0 if !sc.vars.is_empty() => {
                Expr::Var(sc.vars[g.below(sc.vars.len() as u64) as usize].clone())
            }
            0 | 1 => Expr::IntLit(g.below(16) as i64 - 8),
            _ => Expr::FloatLit(gen_float_lit(g)),
        };
        let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][g.below(3) as usize];
        let value = Expr::Binary(
            op,
            Box::new(leaf),
            Box::new(Expr::FloatLit(gen_float_lit(g))),
        );
        vec![match &target {
            Some(v) => Stmt::Assign {
                target: LValue::Var(v.clone()),
                value,
            },
            None => Stmt::Push(value),
        }]
    };
    Stmt::If {
        cond,
        then_body: arm(g),
        else_body: arm(g),
    }
}

pub fn gen_stmt(g: &mut Gen, sc: &mut Scope, depth: usize) -> Stmt {
    let max = if depth == 0 { 6 } else { 8 };
    match g.below(max) {
        0 => Stmt::Push(gen_expr(g, sc, 1)),
        1 => Stmt::Expr(Expr::Pop),
        2 => {
            let ty = if g.below(3) == 0 {
                DataType::Float
            } else {
                DataType::Int
            };
            // The initializer is generated before the name is in scope.
            let init = gen_expr(g, sc, 1);
            let name = declare(sc, ty);
            Stmt::Let { name, ty, init }
        }
        3 if !sc.vars.is_empty() => Stmt::Assign {
            target: LValue::Var(sc.vars[g.below(sc.vars.len() as u64) as usize].clone()),
            value: gen_expr(g, sc, 1),
        },
        3 => Stmt::Push(Expr::IntLit(1)),
        4 | 5 => gen_guard(g, sc),
        6 => {
            let cond = gen_expr(g, sc, 1);
            // Lets inside an arm go out of scope at its end.
            let mut t_sc = sc.clone();
            let then_body = gen_block(g, &mut t_sc, depth - 1);
            let mut e_sc = sc.clone();
            e_sc.fresh = t_sc.fresh;
            let else_body = gen_block(g, &mut e_sc, depth - 1);
            sc.fresh = e_sc.fresh;
            Stmt::If {
                cond,
                then_body,
                else_body,
            }
        }
        _ => {
            sc.fresh += 1;
            let var = if !sc.ended_loops.is_empty() && g.below(3) == 0 {
                sc.ended_loops[g.below(sc.ended_loops.len() as u64) as usize].clone()
            } else {
                format!("i{}", sc.fresh)
            };
            // Mostly constant bounds; occasionally a data-dependent
            // bound so the widened fixpoint path is exercised too
            // (bounded by |.| % 5 to keep the concrete run finite).
            let to = if g.below(4) == 0 {
                Expr::Binary(
                    BinOp::Rem,
                    Box::new(Expr::Call(streamit::graph::Intrinsic::Abs, vec![Expr::Pop])),
                    Box::new(Expr::IntLit(5)),
                )
            } else {
                Expr::IntLit(g.below(5) as i64)
            };
            // The loop variable is readable as a peek index (it is
            // non-negative by construction) but deliberately kept out
            // of `vars` so `Assign` can never make it negative.
            let mut b_sc = sc.clone();
            b_sc.loop_vars.push(var.clone());
            let body = gen_block(g, &mut b_sc, depth - 1);
            sc.fresh = b_sc.fresh;
            sc.ended_loops.push(var.clone());
            Stmt::For {
                var,
                from: Expr::IntLit(0),
                to,
                body,
            }
        }
    }
}

/// The instructions `exec::bytecode`'s selection rules emit, in the
/// order [`selected`] reports them.  `DotPeekF` counts twice: a lone tap
/// (rule 3) and a run of taps (rule 5) are matched in different places.
pub const SELECTED: [&str; 7] = [
    "PeekIK",
    "PeekFK",
    "ArithFK",
    "ArithKF",
    "DotPeekF (n = 1)",
    "DotPeekF (n > 1)",
    "Skip",
];

/// One flag per entry of [`SELECTED`].
pub type Selected = [bool; SELECTED.len()];

/// Which of [`SELECTED`] occur in a lowered body — the differential
/// suites count these so a rule that silently stops matching (or a
/// generator that stops producing its shape) fails a non-vacuity guard.
pub fn selected(code: &[Inst]) -> Selected {
    let mut seen = Selected::default();
    for inst in code {
        let i = match inst {
            Inst::PeekIK { .. } => 0,
            Inst::PeekFK { .. } => 1,
            Inst::ArithFK { .. } => 2,
            Inst::ArithKF { .. } => 3,
            Inst::DotPeekF { n: 1, .. } => 4,
            Inst::DotPeekF { .. } => 5,
            Inst::Skip { .. } => 6,
            _ => continue,
        };
        seen[i] = true;
    }
    seen
}
