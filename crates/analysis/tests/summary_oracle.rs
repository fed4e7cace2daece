//! The counted-loop summary against the trip-by-trip walk, over bodies
//! written to break it.
//!
//! `tests/static_analysis.rs` compares the two on the bodies the engine
//! differentials generate, which are runnable programs: non-negative
//! peek indices, literal loop bounds, a loop variable nobody assigns.
//! Nothing here has to run, so this generator is free to do what the
//! summary must notice: assign loop variables, reuse their names for
//! locals and for inner loops, bound a loop by an expression, branch on
//! and store arithmetic over loop variables (`/ % min max abs` included),
//! carry integers from trip to trip, index the tape with anything.  The
//! requirement is the same: every field of the analysis and the fuel
//! left over are the walk's.

use streamit_analysis::absint::walk_body;
use streamit_graph::builder::FilterBuilder;
use streamit_graph::{BinOp, DataType, Expr, Intrinsic, LValue, Stmt, UnOp};

/// splitmix64.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// Scalars and loop variables share one small pool of names.
const NAMES: [&str; 8] = ["a", "b", "c", "f", "g", "t0", "t1", "t2"];

fn expr(g: &mut Gen, depth: usize) -> Expr {
    if depth == 0 || g.below(3) == 0 {
        return match g.below(7) {
            0 | 1 => Expr::IntLit(g.below(9) as i64 - 3),
            2..=4 => Expr::Var(g.pick(&NAMES).into()),
            5 => Expr::Pop,
            _ => Expr::FloatLit(1.5),
        };
    }
    let sub = |g: &mut Gen| Box::new(expr(g, depth - 1));
    match g.below(12) {
        0 => Expr::Peek(sub(g)),
        1 => Expr::Index("arr".into(), sub(g)),
        2 => Expr::Unary(g.pick(&[UnOp::Neg, UnOp::Not, UnOp::BitNot]), sub(g)),
        3 => Expr::Call(Intrinsic::Abs, vec![expr(g, depth - 1)]),
        4 => Expr::Call(
            g.pick(&[Intrinsic::Min, Intrinsic::Max]),
            vec![expr(g, depth - 1), expr(g, depth - 1)],
        ),
        5 => Expr::Call(Intrinsic::ToInt, vec![expr(g, depth - 1)]),
        _ => {
            use BinOp::*;
            let op = g.pick(&[
                Add, Sub, Mul, Div, Rem, Eq, Ne, Lt, Le, Gt, Ge, And, Or, BitAnd, Shl,
            ]);
            Expr::Binary(op, sub(g), sub(g))
        }
    }
}

fn block(g: &mut Gen, depth: usize) -> Vec<Stmt> {
    (0..1 + g.below(4)).map(|_| stmt(g, depth)).collect()
}

fn stmt(g: &mut Gen, depth: usize) -> Stmt {
    match g.below(if depth == 0 { 6 } else { 9 }) {
        0 => Stmt::Push(expr(g, 2)),
        1 => Stmt::Expr(Expr::Pop),
        2 => Stmt::Let {
            name: g.pick(&NAMES).into(),
            ty: g.pick(&[DataType::Int, DataType::Int, DataType::Int, DataType::Float]),
            init: expr(g, 2),
        },
        3 | 4 => Stmt::Assign {
            target: LValue::Var(g.pick(&NAMES).into()),
            value: expr(g, 2),
        },
        5 => Stmt::Assign {
            target: LValue::Index("arr".into(), expr(g, 1)),
            value: expr(g, 1),
        },
        6 => Stmt::If {
            cond: expr(g, 2),
            then_body: block(g, depth - 1),
            else_body: if g.below(2) == 0 {
                Vec::new()
            } else {
                block(g, depth - 1)
            },
        },
        _ => {
            let literal = |g: &mut Gen, from: &[i64]| Expr::IntLit(g.pick(from));
            Stmt::For {
                var: g.pick(&["t0", "t1", "t2", "a"]).into(),
                from: match g.below(4) {
                    0 => expr(g, 1),
                    _ => literal(g, &[-1, 0, 1, 2]),
                },
                to: match g.below(4) {
                    0 => expr(g, 1),
                    _ => literal(g, &[0, 1, 2, 3, 4, 5, 8, 13]),
                },
                body: block(g, depth - 1),
            }
        }
    }
}

#[test]
fn summary_equals_walk_on_adversarial_bodies() {
    const CASES: u64 = 8192;
    let mut summarized = 0;
    for seed in 0..CASES {
        let mut g = Gen(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1);
        let ty = g.pick(&[DataType::Int, DataType::Int, DataType::Float]);
        let mut work = block(&mut g, 3);
        if g.below(2) == 0 {
            work = vec![Stmt::For {
                var: "t2".into(),
                from: Expr::IntLit(0),
                to: Expr::IntLit(3 + g.below(9) as i64),
                body: work,
            }];
        }
        // Known integers on entry, so branches and bounds get decided.
        if g.below(3) != 0 {
            for name in ["a", "b", "c", "g"] {
                let init = Expr::IntLit(g.below(4) as i64);
                work.insert(
                    0,
                    Stmt::Let {
                        name: name.into(),
                        ty: DataType::Int,
                        init,
                    },
                );
            }
        }
        let mut f = FilterBuilder::new("p", ty).build();
        f.work = work;
        let fast = walk_body(&f, &f.work, true);
        let slow = walk_body(&f, &f.work, false);
        summarized += u64::from(fast.skipped > 0);
        assert!(
            fast.analysis == slow.analysis && fast.fuel == slow.fuel,
            "seed {seed}\nsummary {fast:?}\nwalk {slow:?}\n{:#?}",
            f.work
        );
    }
    assert!(
        summarized >= CASES / 8,
        "only {summarized} of {CASES} bodies had a loop summarized"
    );
}
