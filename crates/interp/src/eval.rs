//! Concrete evaluation of the work-function IR.
//!
//! Evaluation is parameterized over an [`EvalCtx`], which supplies tape
//! operations and receives teleport-message sends.  The same evaluator is
//! reused for `work`, `prework` and message-handler bodies (handlers run
//! with a context whose tape operations fail, enforcing the appendix's
//! restriction dynamically as well as statically).

use crate::error::RuntimeError;
use std::collections::HashMap;
use streamit_graph::{Expr, LValue, Stmt, Value};

/// A variable slot: scalar or array.
#[derive(Debug, Clone, PartialEq)]
pub enum Slot {
    Scalar(Value),
    Array(Vec<Value>),
}

impl Slot {
    fn scalar(&self, node: &str, name: &str) -> Result<Value, RuntimeError> {
        match self {
            Slot::Scalar(v) => Ok(*v),
            Slot::Array(_) => Err(RuntimeError::UnknownVar {
                node: node.into(),
                name: format!("{name} (array used as scalar)"),
            }),
        }
    }
}

/// Tape access and message output for the evaluator.
pub trait EvalCtx {
    /// Name of the executing node, for diagnostics.
    fn node_name(&self) -> &str;
    /// `peek(i)`.
    fn peek(&mut self, i: u64) -> Result<Value, RuntimeError>;
    /// `pop()`.
    fn pop(&mut self) -> Result<Value, RuntimeError>;
    /// `push(v)`.
    fn push(&mut self, v: Value) -> Result<(), RuntimeError>;
    /// Record a teleport-message send.
    fn send(
        &mut self,
        portal: &str,
        handler: &str,
        args: Vec<Value>,
        latency: (i64, i64),
    ) -> Result<(), RuntimeError>;
}

/// Lexically scoped environment: a stack of local scopes over persistent
/// filter state.
pub struct Env<'a> {
    /// Persistent filter state (mutated in place).
    pub state: &'a mut HashMap<String, Slot>,
    /// Local scopes, innermost last.
    scopes: Vec<HashMap<String, Slot>>,
}

impl<'a> Env<'a> {
    /// Pre-bind locals (handler parameters).
    pub fn with_locals(
        state: &'a mut HashMap<String, Slot>,
        locals: HashMap<String, Slot>,
    ) -> Self {
        Env {
            state,
            scopes: vec![locals],
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, slot: Slot) {
        // The stack is created non-empty and push/pop are balanced, but
        // recover rather than panic if that invariant ever breaks.
        if self.scopes.is_empty() {
            self.scopes.push(HashMap::new());
        }
        let top = self.scopes.len() - 1;
        self.scopes[top].insert(name.to_string(), slot);
    }

    fn get(&self, name: &str) -> Option<&Slot> {
        for scope in self.scopes.iter().rev() {
            if let Some(s) = scope.get(name) {
                return Some(s);
            }
        }
        self.state.get(name)
    }

    fn get_mut(&mut self, name: &str) -> Option<&mut Slot> {
        for scope in self.scopes.iter_mut().rev() {
            if scope.contains_key(name) {
                return scope.get_mut(name);
            }
        }
        self.state.get_mut(name)
    }
}

fn eval_expr(e: &Expr, env: &mut Env<'_>, ctx: &mut dyn EvalCtx) -> Result<Value, RuntimeError> {
    match e {
        Expr::IntLit(i) => Ok(Value::Int(*i)),
        Expr::FloatLit(f) => Ok(Value::Float(*f)),
        Expr::Var(name) => match env.get(name) {
            Some(s) => s.scalar(ctx.node_name(), name),
            None => Err(RuntimeError::UnknownVar {
                node: ctx_name_owned(ctx),
                name: name.clone(),
            }),
        },
        Expr::Index(name, i) => {
            let iv = eval_expr(i, env, ctx)?.as_i64();
            match env.get(name) {
                Some(Slot::Array(a)) => {
                    if iv < 0 || iv as usize >= a.len() {
                        Err(RuntimeError::IndexOutOfBounds {
                            node: ctx_name_owned(ctx),
                            name: name.clone(),
                            index: iv,
                            len: a.len(),
                        })
                    } else {
                        Ok(a[iv as usize])
                    }
                }
                Some(Slot::Scalar(_)) | None => Err(RuntimeError::UnknownVar {
                    node: ctx_name_owned(ctx),
                    name: format!("{name}[]"),
                }),
            }
        }
        Expr::Peek(i) => {
            let iv = eval_expr(i, env, ctx)?.as_i64();
            if iv < 0 {
                return Err(RuntimeError::IndexOutOfBounds {
                    node: ctx_name_owned(ctx),
                    name: "peek".into(),
                    index: iv,
                    len: 0,
                });
            }
            ctx.peek(iv as u64)
        }
        Expr::Pop => ctx.pop(),
        Expr::Unary(op, a) => Ok(op.eval(eval_expr(a, env, ctx)?)),
        Expr::Binary(op, a, b) => {
            let (va, vb) = (eval_expr(a, env, ctx)?, eval_expr(b, env, ctx)?);
            // The one trap of the scalar table (`streamit_graph::work`).
            op.eval(va, vb).ok_or_else(|| RuntimeError::DivisionByZero {
                node: ctx_name_owned(ctx),
            })
        }
        Expr::Call(f, args) => {
            let mut vs = Vec::with_capacity(args.len());
            for a in args {
                vs.push(eval_expr(a, env, ctx)?);
            }
            debug_assert_eq!(vs.len(), f.arity(), "frontend checks intrinsic arity");
            Ok(f.eval(&vs))
        }
    }
}

fn ctx_name_owned(ctx: &dyn EvalCtx) -> String {
    ctx.node_name().to_string()
}

fn eval_stmts(
    stmts: &[Stmt],
    env: &mut Env<'_>,
    ctx: &mut dyn EvalCtx,
    steps: &mut u64,
) -> Result<(), RuntimeError> {
    for s in stmts {
        if *steps == 0 {
            return Err(RuntimeError::StepBudgetExhausted {
                node: ctx_name_owned(ctx),
            });
        }
        *steps -= 1;
        match s {
            Stmt::Let { name, ty, init } => {
                let v = eval_expr(init, env, ctx)?.coerce(*ty);
                env.declare(name, Slot::Scalar(v));
            }
            Stmt::LetArray { name, ty, len } => {
                env.declare(name, Slot::Array(vec![ty.zero(); *len]));
            }
            Stmt::Assign { target, value } => {
                let v = eval_expr(value, env, ctx)?;
                match target {
                    LValue::Var(name) => match env.get_mut(name) {
                        Some(Slot::Scalar(slot)) => {
                            // Preserve the variable's declared type.
                            *slot = v.coerce(slot.data_type());
                        }
                        _ => {
                            return Err(RuntimeError::UnknownVar {
                                node: ctx_name_owned(ctx),
                                name: name.clone(),
                            })
                        }
                    },
                    LValue::Index(name, iexpr) => {
                        let iv = eval_expr(iexpr, env, ctx)?.as_i64();
                        let node = ctx_name_owned(ctx);
                        match env.get_mut(name) {
                            Some(Slot::Array(a)) => {
                                if iv < 0 || iv as usize >= a.len() {
                                    return Err(RuntimeError::IndexOutOfBounds {
                                        node,
                                        name: name.clone(),
                                        index: iv,
                                        len: a.len(),
                                    });
                                }
                                let ty = a[iv as usize].data_type();
                                a[iv as usize] = v.coerce(ty);
                            }
                            _ => {
                                return Err(RuntimeError::UnknownVar {
                                    node,
                                    name: format!("{name}[]"),
                                })
                            }
                        }
                    }
                }
            }
            Stmt::Push(e) => {
                let v = eval_expr(e, env, ctx)?;
                ctx.push(v)?;
            }
            Stmt::Expr(e) => {
                eval_expr(e, env, ctx)?;
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let lo = eval_expr(from, env, ctx)?.as_i64();
                let hi = eval_expr(to, env, ctx)?.as_i64();
                env.push_scope();
                env.declare(var, Slot::Scalar(Value::Int(lo)));
                for i in lo..hi {
                    if let Some(Slot::Scalar(s)) = env.get_mut(var) {
                        *s = Value::Int(i);
                    }
                    let r = eval_stmts(body, env, ctx, steps);
                    if r.is_err() {
                        env.pop_scope();
                        return r;
                    }
                }
                env.pop_scope();
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = eval_expr(cond, env, ctx)?;
                env.push_scope();
                let r = if c.is_truthy() {
                    eval_stmts(then_body, env, ctx, steps)
                } else {
                    eval_stmts(else_body, env, ctx, steps)
                };
                env.pop_scope();
                r?;
            }
            Stmt::Send {
                portal,
                handler,
                args,
                latency_min,
                latency_max,
            } => {
                let mut vs = Vec::with_capacity(args.len());
                for a in args {
                    vs.push(eval_expr(a, env, ctx)?);
                }
                ctx.send(portal, handler, vs, (*latency_min, *latency_max))?;
            }
        }
    }
    Ok(())
}

/// Evaluate a statement block against persistent `state` and a tape
/// context.  This is the single entry point used for `work`, `prework`
/// and handler bodies.
pub fn eval_block(
    stmts: &[Stmt],
    state: &mut HashMap<String, Slot>,
    locals: HashMap<String, Slot>,
    ctx: &mut dyn EvalCtx,
) -> Result<(), RuntimeError> {
    eval_block_bounded(stmts, state, locals, ctx, u64::MAX)
}

/// Like [`eval_block`], but aborts with
/// [`RuntimeError::StepBudgetExhausted`] once `max_steps` statements have
/// executed.  This bounds a single work-function invocation so a runaway
/// loop inside one firing degrades to a typed error instead of hanging
/// the pipeline.
pub fn eval_block_bounded(
    stmts: &[Stmt],
    state: &mut HashMap<String, Slot>,
    locals: HashMap<String, Slot>,
    ctx: &mut dyn EvalCtx,
    max_steps: u64,
) -> Result<(), RuntimeError> {
    let mut env = Env::with_locals(state, locals);
    let mut steps = max_steps;
    eval_stmts(stmts, &mut env, ctx, &mut steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::DataType;

    /// Test context over vectors.
    struct VecCtx {
        input: Vec<Value>,
        head: usize,
        output: Vec<Value>,
        sent: Vec<(String, String)>,
    }

    impl VecCtx {
        fn new(input: Vec<Value>) -> Self {
            VecCtx {
                input,
                head: 0,
                output: Vec::new(),
                sent: Vec::new(),
            }
        }
    }

    impl EvalCtx for VecCtx {
        fn node_name(&self) -> &str {
            "test"
        }
        fn peek(&mut self, i: u64) -> Result<Value, RuntimeError> {
            self.input
                .get(self.head + i as usize)
                .copied()
                .ok_or(RuntimeError::TapeUnderflow {
                    node: "test".into(),
                    needed: i + 1,
                    had: (self.input.len() - self.head) as u64,
                    declared: None,
                })
        }
        fn pop(&mut self) -> Result<Value, RuntimeError> {
            let v = self.peek(0)?;
            self.head += 1;
            Ok(v)
        }
        fn push(&mut self, v: Value) -> Result<(), RuntimeError> {
            self.output.push(v);
            Ok(())
        }
        fn send(
            &mut self,
            portal: &str,
            handler: &str,
            _args: Vec<Value>,
            _latency: (i64, i64),
        ) -> Result<(), RuntimeError> {
            self.sent.push((portal.into(), handler.into()));
            Ok(())
        }
    }

    fn run(body: Vec<streamit_graph::Stmt>, input: Vec<Value>) -> VecCtx {
        let mut ctx = VecCtx::new(input);
        let mut state = HashMap::new();
        eval_block(&body, &mut state, HashMap::new(), &mut ctx).expect("eval ok");
        ctx
    }

    #[test]
    fn arithmetic_and_push() {
        let body = BlockBuilder::new()
            .push(pop() * lit(3i64) + lit(1i64))
            .build();
        let ctx = run(body, vec![Value::Int(5)]);
        assert_eq!(ctx.output, vec![Value::Int(16)]);
    }

    #[test]
    fn for_loop_accumulates() {
        let body = BlockBuilder::new()
            .let_("sum", DataType::Float, lit(0.0))
            .for_("i", 0, 4, |b| b.set("sum", var("sum") + peek(var("i"))))
            .push(var("sum"))
            .pop_discard()
            .build();
        let ctx = run(
            body,
            vec![1.0, 2.0, 3.0, 4.0]
                .into_iter()
                .map(Value::Float)
                .collect(),
        );
        assert_eq!(ctx.output, vec![Value::Float(10.0)]);
        assert_eq!(ctx.head, 1);
    }

    #[test]
    fn local_array_and_if() {
        let body = BlockBuilder::new()
            .let_array("a", DataType::Int, 2)
            .set_idx("a", 0, lit(7i64))
            .if_else(
                cmp(streamit_graph::BinOp::Gt, idx("a", 0), lit(3i64)),
                |b| b.push(idx("a", 0)),
                |b| b.push(lit(0i64)),
            )
            .build();
        let ctx = run(body, vec![]);
        assert_eq!(ctx.output, vec![Value::Int(7)]);
    }

    #[test]
    fn state_persists_between_blocks() {
        let body = BlockBuilder::new()
            .set("count", var("count") + lit(1i64))
            .build();
        let mut state = HashMap::new();
        state.insert("count".to_string(), Slot::Scalar(Value::Int(0)));
        let mut ctx = VecCtx::new(vec![]);
        for _ in 0..3 {
            eval_block(&body, &mut state, HashMap::new(), &mut ctx).unwrap();
        }
        assert_eq!(state["count"], Slot::Scalar(Value::Int(3)));
    }

    #[test]
    fn send_reaches_ctx() {
        let body = BlockBuilder::new()
            .send("p", "setf", vec![lit(1.0)], (0, 4))
            .build();
        let ctx = run(body, vec![]);
        assert_eq!(ctx.sent, vec![("p".to_string(), "setf".to_string())]);
    }

    #[test]
    fn division_by_zero_reported() {
        let body = BlockBuilder::new().push(lit(1i64) / lit(0i64)).build();
        let mut ctx = VecCtx::new(vec![]);
        let mut state = HashMap::new();
        let r = eval_block(&body, &mut state, HashMap::new(), &mut ctx);
        assert!(matches!(r, Err(RuntimeError::DivisionByZero { .. })));
    }

    #[test]
    fn step_budget_stops_runaway_loop() {
        // A long loop under a tiny budget reports StepBudgetExhausted.
        let body = BlockBuilder::new()
            .let_("sum", DataType::Int, lit(0i64))
            .for_("i", 0, 1_000_000, |b| b.set("sum", var("sum") + lit(1i64)))
            .build();
        let mut ctx = VecCtx::new(vec![]);
        let mut state = HashMap::new();
        let r = eval_block_bounded(&body, &mut state, HashMap::new(), &mut ctx, 100);
        assert!(matches!(r, Err(RuntimeError::StepBudgetExhausted { .. })));
    }

    #[test]
    fn loop_variable_shadowing_restores_outer() {
        // for i in 0..2 { for i in 0..3 { sum += 1 } sum += i*10 }
        let body = BlockBuilder::new()
            .let_("sum", DataType::Int, lit(0i64))
            .for_("i", 0, 2, |b| {
                b.for_("i", 0, 3, |b| b.set("sum", var("sum") + lit(1i64)))
                    .set("sum", var("sum") + var("i") * lit(10i64))
            })
            .push(var("sum"))
            .build();
        let ctx = run(body, vec![]);
        // inner loops: 6; outer i contributions: 0 + 10.
        assert_eq!(ctx.output, vec![Value::Int(16)]);
    }

    #[test]
    fn local_shadows_state() {
        let body = BlockBuilder::new()
            .let_("g", DataType::Int, lit(5i64))
            .push(var("g"))
            .build();
        let mut state = HashMap::new();
        state.insert("g".to_string(), Slot::Scalar(Value::Int(99)));
        let mut ctx = VecCtx::new(vec![]);
        eval_block(&body, &mut state, HashMap::new(), &mut ctx).unwrap();
        assert_eq!(ctx.output, vec![Value::Int(5)]);
        // State untouched.
        assert_eq!(state["g"], Slot::Scalar(Value::Int(99)));
    }

    #[test]
    fn assignment_preserves_declared_type() {
        let body = BlockBuilder::new()
            .let_("x", DataType::Int, lit(0i64))
            .set("x", lit(2.9))
            .push(var("x"))
            .build();
        let ctx = run(body, vec![]);
        assert_eq!(ctx.output, vec![Value::Int(2)]);
    }
}
