//! Static work estimation.
//!
//! The partitioners and the space-time scheduler need a per-firing cycle
//! estimate for every filter (the paper's "static estimate of the
//! computation to communication ratio" and the input to load balancing).
//! We walk the work-function IR with a per-operation cost table modelled
//! on a single-issue in-order core (Raw's tile processor): most ALU ops
//! are 1 cycle, multiplies 2, divides and math intrinsics tens of
//! cycles, tape and memory accesses a couple of cycles each.
//!
//! Loops with compile-time-constant bounds multiply their body cost by
//! the trip count; data-dependent `if`s cost the *maximum* of their arms
//! (a conservative single-issue estimate).  FLOPs are counted separately
//! for the MFLOPS metric of Figure `thruput`.

use streamit_graph::work::{eval_const, ConstEnv};
use streamit_graph::{BinOp, DataType, Expr, Filter, Intrinsic, Stmt, Value};

/// Estimated cost of one work-function invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkEstimate {
    /// Estimated cycles per firing.
    pub cycles: u64,
    /// Floating-point operations per firing.
    pub flops: u64,
}

/// Where an estimate saturates.  Loop bounds come from the program text,
/// so an absurd trip count must be a huge estimate, never an overflow —
/// here or in the partitioners and the simulator, which multiply by
/// repetition counts and sum over nodes in plain `u64`.  2^40 cycles is
/// far past anything that can run (the engines stop a firing after 5e7
/// steps) and leaves those sums 2^24 of headroom.
const CEILING: u64 = 1 << 40;

impl WorkEstimate {
    fn add(self, other: WorkEstimate) -> WorkEstimate {
        WorkEstimate {
            cycles: self.cycles.saturating_add(other.cycles).min(CEILING),
            flops: self.flops.saturating_add(other.flops).min(CEILING),
        }
    }

    fn scale(self, k: u64) -> WorkEstimate {
        WorkEstimate {
            cycles: self.cycles.saturating_mul(k).min(CEILING),
            flops: self.flops.saturating_mul(k).min(CEILING),
        }
    }

    fn max(self, other: WorkEstimate) -> WorkEstimate {
        WorkEstimate {
            cycles: self.cycles.max(other.cycles),
            flops: self.flops.max(other.flops),
        }
    }
}

/// Cycle cost of binary operators (single-issue in-order core).
fn binop_cost(op: BinOp) -> u64 {
    match op {
        BinOp::Add | BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div | BinOp::Rem => 12,
        BinOp::Eq
        | BinOp::Ne
        | BinOp::Lt
        | BinOp::Le
        | BinOp::Gt
        | BinOp::Ge
        | BinOp::And
        | BinOp::Or
        | BinOp::BitAnd
        | BinOp::BitOr
        | BinOp::BitXor
        | BinOp::Shl
        | BinOp::Shr => 1,
    }
}

/// Cycle cost of intrinsics (software math library on an integer core).
fn intrinsic_cost(f: Intrinsic) -> u64 {
    match f {
        Intrinsic::Sin | Intrinsic::Cos | Intrinsic::Tan | Intrinsic::Atan => 30,
        Intrinsic::Sqrt => 18,
        Intrinsic::Exp | Intrinsic::Log | Intrinsic::Pow => 35,
        Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => 1,
        Intrinsic::Floor | Intrinsic::Ceil | Intrinsic::Round => 2,
        Intrinsic::ToInt | Intrinsic::ToFloat => 1,
    }
}

/// Whether an intrinsic is a floating-point op for FLOP counting.
fn intrinsic_flops(f: Intrinsic) -> u64 {
    match f {
        Intrinsic::Sin | Intrinsic::Cos | Intrinsic::Tan | Intrinsic::Atan => 10,
        Intrinsic::Sqrt => 5,
        Intrinsic::Exp | Intrinsic::Log | Intrinsic::Pow => 12,
        Intrinsic::Abs | Intrinsic::Min | Intrinsic::Max => 1,
        Intrinsic::Floor | Intrinsic::Ceil | Intrinsic::Round => 1,
        Intrinsic::ToInt | Intrinsic::ToFloat => 0,
    }
}

/// A loop bound as an integer constant (parameters were substituted as
/// literals by elaboration), with the interpreter's arithmetic.
fn const_int(e: &Expr) -> Option<i64> {
    eval_const(e, &ConstEnv::EMPTY).map(Value::as_i64)
}

struct Estimator {
    /// Item type of the channels — float ops count as FLOPs.
    float_data: bool,
}

impl Estimator {
    fn expr(&self, e: &Expr) -> WorkEstimate {
        let mut w = WorkEstimate::default();
        match e {
            Expr::IntLit(_) | Expr::FloatLit(_) => w.cycles = 0,
            Expr::Var(_) => w.cycles = 1,
            Expr::Index(_, i) => {
                w = self.expr(i);
                w.cycles += 2; // address computation + load
            }
            Expr::Peek(i) => {
                w = self.expr(i);
                w.cycles += 2; // tape-buffer indexed load
            }
            Expr::Pop => w.cycles = 2,
            Expr::Unary(_, a) => {
                w = self.expr(a);
                w.cycles += 1;
            }
            Expr::Binary(op, a, b) => {
                w = self.expr(a).add(self.expr(b));
                w.cycles += binop_cost(*op);
                if self.float_data && !op.is_integral() {
                    w.flops += 1;
                }
            }
            Expr::Call(f, args) => {
                for a in args {
                    w = w.add(self.expr(a));
                }
                w.cycles += intrinsic_cost(*f);
                w.flops += intrinsic_flops(*f);
            }
        }
        w
    }

    fn block(&self, stmts: &[Stmt]) -> WorkEstimate {
        let mut w = WorkEstimate::default();
        for s in stmts {
            w = w.add(self.stmt(s));
        }
        w
    }

    fn stmt(&self, s: &Stmt) -> WorkEstimate {
        match s {
            Stmt::Let { init, .. } => {
                let mut w = self.expr(init);
                w.cycles += 1;
                w
            }
            Stmt::LetArray { len, .. } => WorkEstimate {
                // Zero-initialization of a stack array.
                cycles: (*len as u64).saturating_add(1).min(CEILING),
                flops: 0,
            },
            Stmt::Assign { target, value } => {
                let mut w = self.expr(value);
                if let streamit_graph::LValue::Index(_, i) = target {
                    w = w.add(self.expr(i));
                    w.cycles += 1;
                }
                w.cycles += 1;
                w
            }
            Stmt::Push(e) => {
                let mut w = self.expr(e);
                w.cycles += 2; // tape-buffer store + pointer bump
                w
            }
            Stmt::Expr(e) => self.expr(e),
            Stmt::For { from, to, body, .. } => {
                let body_w = self.block(body);
                let overhead = WorkEstimate {
                    cycles: 2,
                    flops: 0,
                }; // cmp + branch
                let per_iter = body_w.add(overhead);
                let trips = match (const_int(from), const_int(to)) {
                    (Some(a), Some(b)) if b > a => b.abs_diff(a),
                    // Data-dependent loop bounds: assume a nominal 8
                    // iterations (rare after elaboration).
                    _ => 8,
                };
                self.expr(from)
                    .add(self.expr(to))
                    .add(per_iter.scale(trips))
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond);
                let t = self.block(then_body);
                let e = self.block(else_body);
                c.add(t.max(e)).add(WorkEstimate {
                    cycles: 1,
                    flops: 0,
                })
            }
            Stmt::Send { args, .. } => {
                let mut w = WorkEstimate {
                    cycles: 10, // runtime messaging call
                    flops: 0,
                };
                for a in args {
                    w = w.add(self.expr(a));
                }
                w
            }
        }
    }
}

/// Estimate one firing of `filter`'s work function.
pub fn estimate_filter(filter: &Filter) -> WorkEstimate {
    let est = Estimator {
        float_data: filter.input == Some(DataType::Float) || filter.output == Some(DataType::Float),
    };
    // Fixed firing overhead (function dispatch, tape pointer setup).
    let base = WorkEstimate {
        cycles: 3,
        flops: 0,
    };
    base.add(est.block(&filter.work))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::DataType;

    #[test]
    fn identity_is_cheap() {
        let f = streamit_graph::Filter::identity("id", DataType::Float);
        let w = estimate_filter(&f);
        assert!(w.cycles < 12, "identity estimated at {} cycles", w.cycles);
    }

    #[test]
    fn loop_scales_with_trip_count() {
        let mk = |n: i64| {
            FilterBuilder::new("f", DataType::Float)
                .rates(n as usize, 1, 1)
                .work(|b| {
                    b.let_("s", DataType::Float, lit(0.0))
                        .for_("i", 0, n, |b| b.set("s", var("s") + peek(var("i"))))
                        .push(var("s"))
                        .pop_discard()
                })
                .build()
        };
        let w8 = estimate_filter(&mk(8));
        let w64 = estimate_filter(&mk(64));
        assert!(
            w64.cycles > 6 * w8.cycles,
            "{} vs {}",
            w64.cycles,
            w8.cycles
        );
    }

    #[test]
    fn absurd_trip_counts_saturate() {
        // Nested loops over all of `i64`: trip counts and their product
        // are far outside `u64`.
        let f = FilterBuilder::new("f", DataType::Float)
            .rates(1, 1, 1)
            .work(|b| {
                b.let_("s", DataType::Float, lit(0.0))
                    .for_("i", i64::MIN, i64::MAX, |b| {
                        b.for_("j", -1, i64::MAX, |b| b.set("s", var("s") * lit(2.0)))
                    })
                    .push(var("s") + pop())
            })
            .build();
        let w = estimate_filter(&f);
        assert_eq!((w.cycles, w.flops), (CEILING, CEILING));
    }

    #[test]
    fn float_mults_count_flops() {
        let f = FilterBuilder::new("f", DataType::Float)
            .rates(1, 1, 1)
            .push(pop() * lit(2.0) + lit(1.0))
            .build();
        let w = estimate_filter(&f);
        assert_eq!(w.flops, 2);
    }

    #[test]
    fn intrinsics_cost_more_than_alu() {
        let trig = FilterBuilder::new("t", DataType::Float)
            .rates(1, 1, 1)
            .push(sin(pop()))
            .build();
        let alu = FilterBuilder::new("a", DataType::Float)
            .rates(1, 1, 1)
            .push(pop() + lit(1.0))
            .build();
        assert!(estimate_filter(&trig).cycles > estimate_filter(&alu).cycles + 20);
    }

    #[test]
    fn if_takes_max_of_arms() {
        let f = FilterBuilder::new("f", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| {
                b.let_("v", DataType::Int, pop()).if_else(
                    var("v"),
                    |b| b.push(var("v") * lit(3i64) * lit(5i64) * lit(7i64)),
                    |b| b.push(var("v")),
                )
            })
            .build();
        let w = estimate_filter(&f);
        // Must include the expensive arm, not the cheap one.
        assert!(w.cycles >= 12, "{}", w.cycles);
    }
}
