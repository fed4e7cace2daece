//! Ergonomic Rust builder API for constructing stream programs.
//!
//! This is the embedded-DSL counterpart of the textual frontend: the same
//! abstractions as the appendix's Java syntax (`add`, `setSplitter`,
//! `setJoiner`, `initPath`/`setDelay`), but as Rust builders.  The
//! benchmark suite in `streamit-apps` is written against this API.
//!
//! Expressions are built with the [`Ex`] wrapper, which overloads the
//! arithmetic operators:
//!
//! ```
//! use streamit_graph::builder::*;
//! use streamit_graph::DataType;
//!
//! // A 3-tap moving average: push((peek(0)+peek(1)+peek(2))/3); pop();
//! let avg = FilterBuilder::new("Avg3", DataType::Float)
//!     .rates(3, 1, 1)
//!     .push((peek(0) + peek(1) + peek(2)) / lit(3.0))
//!     .pop_discard()
//!     .build();
//! assert_eq!(avg.peek, 3);
//! assert!(!avg.is_stateful());
//! ```

use crate::filter::{Filter, Handler, PreWork, StateInit, StateVar};
use crate::stream::{FeedbackLoop, Joiner, Pipeline, SplitJoin, Splitter, StreamNode};
use crate::types::{DataType, Value};
use crate::work::{BinOp, Expr, Intrinsic, LValue, Stmt, UnOp};
use std::ops;

/// Expression wrapper enabling operator overloading.
#[derive(Debug, Clone, PartialEq)]
pub struct Ex(pub Expr);

impl Ex {
    /// Unwrap into the IR expression.
    pub fn into_expr(self) -> Expr {
        self.0
    }
}

/// Integer or float literal.
pub fn lit<T: Into<Value>>(v: T) -> Ex {
    match v.into() {
        Value::Int(i) => Ex(Expr::IntLit(i)),
        Value::Float(f) => Ex(Expr::FloatLit(f)),
    }
}

/// Integer literal (convenience for indices).
pub fn iconst(i: i64) -> Ex {
    Ex(Expr::IntLit(i))
}

/// Read a scalar variable.
pub fn var(name: impl Into<String>) -> Ex {
    Ex(Expr::Var(name.into()))
}

/// Read an array element.
pub fn idx(name: impl Into<String>, i: impl IntoEx) -> Ex {
    Ex(Expr::Index(name.into(), Box::new(i.into_ex().0)))
}

/// `peek(i)`.
pub fn peek(i: impl IntoEx) -> Ex {
    Ex(Expr::Peek(Box::new(i.into_ex().0)))
}

/// `pop()` as an expression.
pub fn pop() -> Ex {
    Ex(Expr::Pop)
}

/// Intrinsic call with one argument.
pub fn call1(f: Intrinsic, a: impl IntoEx) -> Ex {
    Ex(Expr::Call(f, vec![a.into_ex().0]))
}

/// Intrinsic call with two arguments.
pub fn call2(f: Intrinsic, a: impl IntoEx, b: impl IntoEx) -> Ex {
    Ex(Expr::Call(f, vec![a.into_ex().0, b.into_ex().0]))
}

/// `sin(x)`.
pub fn sin(x: impl IntoEx) -> Ex {
    call1(Intrinsic::Sin, x)
}

/// `cos(x)`.
pub fn cos(x: impl IntoEx) -> Ex {
    call1(Intrinsic::Cos, x)
}

/// `sqrt(x)`.
pub fn sqrt(x: impl IntoEx) -> Ex {
    call1(Intrinsic::Sqrt, x)
}

/// `abs(x)`.
pub fn abs(x: impl IntoEx) -> Ex {
    call1(Intrinsic::Abs, x)
}

/// `exp(x)`.
pub fn expf(x: impl IntoEx) -> Ex {
    call1(Intrinsic::Exp, x)
}

/// `min(a, b)`.
pub fn minf(a: impl IntoEx, b: impl IntoEx) -> Ex {
    call2(Intrinsic::Min, a, b)
}

/// `max(a, b)`.
pub fn maxf(a: impl IntoEx, b: impl IntoEx) -> Ex {
    call2(Intrinsic::Max, a, b)
}

/// Comparison helpers (result is int 0/1).
pub fn cmp(op: BinOp, a: impl IntoEx, b: impl IntoEx) -> Ex {
    Ex(Expr::Binary(
        op,
        Box::new(a.into_ex().0),
        Box::new(b.into_ex().0),
    ))
}

/// Conversion into [`Ex`], accepted anywhere an expression is expected.
pub trait IntoEx {
    fn into_ex(self) -> Ex;
}

impl IntoEx for Ex {
    fn into_ex(self) -> Ex {
        self
    }
}

impl IntoEx for i64 {
    fn into_ex(self) -> Ex {
        Ex(Expr::IntLit(self))
    }
}

impl IntoEx for i32 {
    fn into_ex(self) -> Ex {
        Ex(Expr::IntLit(self as i64))
    }
}

impl IntoEx for usize {
    fn into_ex(self) -> Ex {
        Ex(Expr::IntLit(self as i64))
    }
}

impl IntoEx for f64 {
    fn into_ex(self) -> Ex {
        Ex(Expr::FloatLit(self))
    }
}

impl IntoEx for &str {
    fn into_ex(self) -> Ex {
        Ex(Expr::Var(self.to_string()))
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<R: IntoEx> ops::$trait<R> for Ex {
            type Output = Ex;
            fn $method(self, rhs: R) -> Ex {
                Ex(Expr::Binary(
                    $op,
                    Box::new(self.0),
                    Box::new(rhs.into_ex().0),
                ))
            }
        }
    };
}

impl_binop!(Add, add, BinOp::Add);
impl_binop!(Sub, sub, BinOp::Sub);
impl_binop!(Mul, mul, BinOp::Mul);
impl_binop!(Div, div, BinOp::Div);
impl_binop!(Rem, rem, BinOp::Rem);
impl_binop!(BitAnd, bitand, BinOp::BitAnd);
impl_binop!(BitOr, bitor, BinOp::BitOr);
impl_binop!(BitXor, bitxor, BinOp::BitXor);
impl_binop!(Shl, shl, BinOp::Shl);
impl_binop!(Shr, shr, BinOp::Shr);

impl ops::Neg for Ex {
    type Output = Ex;
    fn neg(self) -> Ex {
        Ex(Expr::Unary(UnOp::Neg, Box::new(self.0)))
    }
}

/// Builder for filter bodies (blocks of statements).
#[derive(Debug, Clone, Default)]
pub struct BlockBuilder {
    stmts: Vec<Stmt>,
}

impl BlockBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a local scalar.
    pub fn let_(mut self, name: &str, ty: DataType, init: impl IntoEx) -> Self {
        self.stmts.push(Stmt::Let {
            name: name.into(),
            ty,
            init: init.into_ex().0,
        });
        self
    }

    /// Declare a local array (zero-initialized).
    pub fn let_array(mut self, name: &str, ty: DataType, len: usize) -> Self {
        self.stmts.push(Stmt::LetArray {
            name: name.into(),
            ty,
            len,
        });
        self
    }

    /// Assign to a scalar.
    pub fn set(mut self, name: &str, value: impl IntoEx) -> Self {
        self.stmts.push(Stmt::Assign {
            target: LValue::Var(name.into()),
            value: value.into_ex().0,
        });
        self
    }

    /// Assign to an array element.
    pub fn set_idx(mut self, name: &str, i: impl IntoEx, value: impl IntoEx) -> Self {
        self.stmts.push(Stmt::Assign {
            target: LValue::Index(name.into(), i.into_ex().0),
            value: value.into_ex().0,
        });
        self
    }

    /// `push(e)`.
    pub fn push(mut self, e: impl IntoEx) -> Self {
        self.stmts.push(Stmt::Push(e.into_ex().0));
        self
    }

    /// `pop()` discarding the value.
    pub fn pop_discard(mut self) -> Self {
        self.stmts.push(Stmt::Expr(Expr::Pop));
        self
    }

    /// `for (v = from; v < to; v++) { body }`.
    pub fn for_(
        mut self,
        v: &str,
        from: impl IntoEx,
        to: impl IntoEx,
        body: impl FnOnce(BlockBuilder) -> BlockBuilder,
    ) -> Self {
        let inner = body(BlockBuilder::new());
        self.stmts.push(Stmt::For {
            var: v.into(),
            from: from.into_ex().0,
            to: to.into_ex().0,
            body: inner.stmts,
        });
        self
    }

    /// `if (cond) { then }`.
    pub fn if_(
        mut self,
        cond: impl IntoEx,
        then: impl FnOnce(BlockBuilder) -> BlockBuilder,
    ) -> Self {
        let t = then(BlockBuilder::new());
        self.stmts.push(Stmt::If {
            cond: cond.into_ex().0,
            then_body: t.stmts,
            else_body: Vec::new(),
        });
        self
    }

    /// `if (cond) { then } else { els }`.
    pub fn if_else(
        mut self,
        cond: impl IntoEx,
        then: impl FnOnce(BlockBuilder) -> BlockBuilder,
        els: impl FnOnce(BlockBuilder) -> BlockBuilder,
    ) -> Self {
        // Each arm is finished into its own `Vec` before the next
        // starts: with rustc 1.95 `--release`, two `BlockBuilder::new()`
        // values taken apart field by field came out sharing a buffer.
        let then_body = then(BlockBuilder { stmts: Vec::new() }).build();
        let else_body = els(BlockBuilder { stmts: Vec::new() }).build();
        self.stmts.push(Stmt::If {
            cond: cond.into_ex().0,
            then_body,
            else_body,
        });
        self
    }

    /// Teleport-message send.
    pub fn send(mut self, portal: &str, handler: &str, args: Vec<Ex>, latency: (i64, i64)) -> Self {
        self.stmts.push(Stmt::Send {
            portal: portal.into(),
            handler: handler.into(),
            args: args.into_iter().map(|e| e.0).collect(),
            latency_min: latency.0,
            latency_max: latency.1,
        });
        self
    }

    /// Append a raw statement.
    pub fn stmt(mut self, s: Stmt) -> Self {
        self.stmts.push(s);
        self
    }

    /// Finish and return the statement block.
    pub fn build(self) -> Vec<Stmt> {
        self.stmts
    }
}

/// Builder for [`Filter`]s.
#[derive(Debug, Clone)]
pub struct FilterBuilder {
    filter: Filter,
}

impl FilterBuilder {
    /// A filter whose input and output are both of type `ty`.
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        FilterBuilder {
            filter: Filter {
                name: name.into(),
                input: Some(ty),
                output: Some(ty),
                peek: 0,
                pop: 0,
                push: 0,
                state: Vec::new(),
                work: Vec::new(),
                prework: None,
                handlers: Vec::new(),
                kernel: None,
            },
        }
    }

    /// A source filter (no input).
    pub fn source(name: impl Into<String>, out: DataType) -> Self {
        let mut b = Self::new(name, out);
        b.filter.input = None;
        b
    }

    /// A sink filter (no output).
    pub fn sink(name: impl Into<String>, input: DataType) -> Self {
        let mut b = Self::new(name, input);
        b.filter.output = None;
        b
    }

    /// Set distinct input/output types.
    pub fn types(mut self, input: Option<DataType>, output: Option<DataType>) -> Self {
        self.filter.input = input;
        self.filter.output = output;
        self
    }

    /// Declare rates: `(peek, pop, push)`.
    pub fn rates(mut self, peek: usize, pop: usize, push: usize) -> Self {
        self.filter.peek = peek;
        self.filter.pop = pop;
        self.filter.push = push;
        self
    }

    /// Add a scalar state variable.
    pub fn state(mut self, name: &str, ty: DataType, init: impl Into<Value>) -> Self {
        self.filter.state.push(StateVar {
            name: name.into(),
            ty,
            init: StateInit::Scalar(init.into()),
        });
        self
    }

    /// Add an array state variable with explicit contents.
    pub fn state_array(mut self, name: &str, ty: DataType, init: Vec<Value>) -> Self {
        self.filter.state.push(StateVar {
            name: name.into(),
            ty,
            init: StateInit::Array(init),
        });
        self
    }

    /// Add a float-array state variable from `f64`s.
    pub fn coeffs(self, name: &str, values: impl IntoIterator<Item = f64>) -> Self {
        let vals = values.into_iter().map(Value::Float).collect();
        self.state_array(name, DataType::Float, vals)
    }

    /// Provide the work body via a [`BlockBuilder`] closure.
    pub fn work(mut self, f: impl FnOnce(BlockBuilder) -> BlockBuilder) -> Self {
        self.filter.work = f(BlockBuilder::new()).build();
        self
    }

    /// Provide a prework body with its own rates.
    pub fn prework(
        mut self,
        peek: usize,
        pop: usize,
        push: usize,
        f: impl FnOnce(BlockBuilder) -> BlockBuilder,
    ) -> Self {
        self.filter.prework = Some(PreWork {
            peek,
            pop,
            push,
            body: f(BlockBuilder::new()).build(),
        });
        self
    }

    /// Add a message handler.
    pub fn handler(
        mut self,
        name: &str,
        params: Vec<(&str, DataType)>,
        f: impl FnOnce(BlockBuilder) -> BlockBuilder,
    ) -> Self {
        self.filter.handlers.push(Handler {
            name: name.into(),
            params: params
                .into_iter()
                .map(|(n, t)| (n.to_string(), t))
                .collect(),
            body: f(BlockBuilder::new()).build(),
        });
        self
    }

    /// Shorthand: `.push(e)` on the work body.
    pub fn push(self, e: impl IntoEx) -> Self {
        let mut b = self;
        b.filter.work.push(Stmt::Push(e.into_ex().0));
        b
    }

    /// Shorthand: a trailing discarded `pop()` on the work body.
    pub fn pop_discard(self) -> Self {
        let mut b = self;
        b.filter.work.push(Stmt::Expr(Expr::Pop));
        b
    }

    /// Attach a compiled-kernel hint (see [`crate::kernel::KernelSpec`]).
    pub fn kernel(mut self, spec: crate::kernel::KernelSpec) -> Self {
        self.filter.kernel = Some(spec);
        self
    }

    /// Finish building.
    pub fn build(self) -> Filter {
        self.filter
    }

    /// Finish building as a [`StreamNode`].
    pub fn build_node(self) -> StreamNode {
        StreamNode::Filter(self.filter)
    }
}

/// Build a pipeline from child nodes.
pub fn pipeline(name: impl Into<String>, children: Vec<StreamNode>) -> StreamNode {
    StreamNode::Pipeline(Pipeline {
        name: name.into(),
        children,
    })
}

/// Build a split-join.
pub fn splitjoin(
    name: impl Into<String>,
    splitter: Splitter,
    children: Vec<StreamNode>,
    joiner: Joiner,
) -> StreamNode {
    StreamNode::SplitJoin(SplitJoin {
        name: name.into(),
        splitter,
        children,
        joiner,
    })
}

/// Build a feedback loop.  `init_path(i)` supplies the `i`-th priming item
/// for `i` in `0..delay`.
pub fn feedback_loop(
    name: impl Into<String>,
    joiner: Joiner,
    body: StreamNode,
    splitter: Splitter,
    loopback: StreamNode,
    delay: usize,
    init_path: impl Fn(usize) -> Value,
) -> StreamNode {
    StreamNode::FeedbackLoop(FeedbackLoop {
        name: name.into(),
        joiner,
        body: Box::new(body),
        splitter,
        loopback: Box::new(loopback),
        delay,
        init_path: (0..delay).map(init_path).collect(),
    })
}

/// The identity filter as a node.
pub fn identity(name: impl Into<String>, ty: DataType) -> StreamNode {
    StreamNode::Filter(Filter::identity(name, ty))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_overloading_builds_ir() {
        let e = (peek(0) + peek(1)) * lit(0.5);
        match e.0 {
            Expr::Binary(BinOp::Mul, l, r) => {
                assert!(matches!(*l, Expr::Binary(BinOp::Add, _, _)));
                assert_eq!(*r, Expr::FloatLit(0.5));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Two distinct non-empty arms come out as written.  With rustc
    /// 1.95 `--release` the arms of an earlier `if_else` shared one
    /// buffer (`else [1, 2, 3]`, then a double free).
    #[test]
    fn if_else_keeps_its_arms_apart() {
        let block = BlockBuilder::new()
            .if_else(
                pop(),
                |t| t.push(lit(1i64)),
                |e| e.push(lit(2i64)).push(lit(3i64)),
            )
            .if_(pop(), |t| t.push(lit(4i64)))
            .for_("i", 0, 2, |b| b.push(lit(5i64)).push(lit(6i64)))
            .build();
        let pushes = |body: &[Stmt]| -> Vec<i64> {
            body.iter()
                .map(|s| match s {
                    Stmt::Push(Expr::IntLit(i)) => *i,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        let [Stmt::If {
            then_body,
            else_body,
            ..
        }, Stmt::If {
            then_body: then2,
            else_body: else2,
            ..
        }, Stmt::For { body, .. }] = block.as_slice()
        else {
            panic!("unexpected {block:?}");
        };
        assert_eq!(pushes(then_body), [1]);
        assert_eq!(pushes(else_body), [2, 3]);
        assert_eq!(pushes(then2), [4]);
        assert!(else2.is_empty());
        assert_eq!(pushes(body), [5, 6]);
    }

    #[test]
    fn filter_builder_moving_average() {
        let f = FilterBuilder::new("Avg", DataType::Float)
            .rates(3, 1, 1)
            .push((peek(0) + peek(1) + peek(2)) / lit(3.0))
            .pop_discard()
            .build();
        assert_eq!(f.check_rates(), Ok(true));
        assert!(f.is_peeking());
    }

    #[test]
    fn loop_body_builder() {
        let f = FilterBuilder::new("Fir4", DataType::Float)
            .rates(4, 1, 1)
            .coeffs("h", [0.25, 0.25, 0.25, 0.25])
            .work(|b| {
                b.let_("sum", DataType::Float, lit(0.0))
                    .for_("i", 0, 4, |b| {
                        b.set("sum", var("sum") + peek(var("i")) * idx("h", var("i")))
                    })
                    .push(var("sum"))
                    .pop_discard()
            })
            .build();
        assert_eq!(f.check_rates(), Ok(true));
        assert!(!f.is_stateful());
    }

    #[test]
    fn feedback_builder_sets_init_path() {
        let fl = feedback_loop(
            "fib",
            Joiner::round_robin(2),
            identity("body", DataType::Int),
            Splitter::round_robin(2),
            identity("loop", DataType::Int),
            2,
            |i| Value::Int(i as i64 + 1),
        );
        match fl {
            StreamNode::FeedbackLoop(l) => {
                assert_eq!(l.init_path, vec![Value::Int(1), Value::Int(2)]);
            }
            _ => unreachable!(),
        }
    }
}
