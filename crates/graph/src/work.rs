//! The *work-function IR*: a small imperative language in which filter
//! bodies (`work`, `prework`, message handlers) are expressed.
//!
//! The IR is deliberately close to the C-like subset the paper allows
//! inside `work` functions: scalar and array locals, static `for` loops,
//! `if`, arithmetic/logic expressions, tape operations (`peek`, `pop`,
//! `push`), intrinsic math calls, and teleport-message `send`s through
//! portals.
//!
//! Two consumers interpret this IR:
//!
//! * `streamit-interp` evaluates it concretely over FIFO tapes;
//! * `streamit-linear` evaluates it *abstractly* over an affine-value
//!   domain to perform the paper's linear-extraction analysis.
//!
//! # Scalar semantics
//!
//! What `a op b`, `op a` and `g(args)` *mean* is defined here and nowhere
//! else: the typed primitives ([`int_binop`], [`float_arith`],
//! [`float_cmp`], [`int_unop`], [`float_neg`], [`float_not`],
//! [`int_abs`]), [`BinOp::eval`] / [`UnOp::eval`] / [`Intrinsic::eval`]
//! over [`Value`]s, and the side-effect-free constant evaluator
//! [`eval_const`].  The reference interpreter, the constant folders
//! (elaborator, SCCP, optimizer, static estimators) and the bytecode VM
//! all call these, so "bit-identical under optimization" cannot drift.
//!
//! * Integer arithmetic wraps; shifts take the count modulo 64.
//! * `(Int, Int)` operands use the integer table; anything else promotes
//!   both sides with [`Value::as_f64`].  Float `+ - * / %` is IEEE and
//!   total; comparisons and the (non-short-circuit) `&&`/`||` yield `int`
//!   0/1, with NaN truthy; bitwise operators on a float go through
//!   `as i64`.
//! * `None` means exactly one thing: an integer `/` or `%` by zero, or
//!   `i64::MIN / -1` (`% -1`).  The interpreter reports it as
//!   `DivisionByZero`, the VM as its `division by zero` fault, and a
//!   folder leaves the expression alone so the run-time diagnostic
//!   survives.

use crate::types::{DataType, Value};

/// Binary operators.  Comparison/logic operators yield `int` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

impl BinOp {
    /// `true` for operators whose result is always `int` (comparisons,
    /// logic, bitwise).
    pub fn is_integral(self) -> bool {
        !matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// Symbol as written in the surface language.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }

    /// `a op b` on concrete values (the promotion rule of the module
    /// docs).  `None` only where [`int_binop`] is.
    #[inline]
    pub fn eval(self, a: Value, b: Value) -> Option<Value> {
        if let (Value::Int(x), Value::Int(y)) = (a, b) {
            return int_binop(self, x, y).map(Value::Int);
        }
        let (x, y) = (a.as_f64(), b.as_f64());
        if !self.is_integral() {
            return float_arith(self, x, y).map(Value::Float);
        }
        // Bitwise on floats goes through integers (rare; DES-style
        // kernels run on int channels anyway).
        float_cmp(self, x, y)
            .or_else(|| int_binop(self, x as i64, y as i64))
            .map(Value::Int)
    }
}

/// Integer `a op b`: wrapping `+ - *`, shift counts modulo 64,
/// comparisons and logic yielding 0/1.  `None` only for `/` and `%` by
/// zero or of `i64::MIN` by `-1`.
#[inline]
pub fn int_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b)?,
        BinOp::Rem => a.checked_rem(b)?,
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => ((a != 0) && (b != 0)) as i64,
        BinOp::Or => ((a != 0) || (b != 0)) as i64,
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
    })
}

/// Float `+ - * / %` (IEEE: never traps); `None` for any other operator.
#[inline]
pub fn float_arith(op: BinOp, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        _ => return None,
    })
}

/// Float comparison and logic, yielding 0/1 (NaN compares unequal to
/// everything and is truthy); `None` for any other operator.
#[inline]
pub fn float_cmp(op: BinOp, a: f64, b: f64) -> Option<i64> {
    Some(match op {
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::And => ((a != 0.0) && (b != 0.0)) as i64,
        BinOp::Or => ((a != 0.0) || (b != 0.0)) as i64,
        _ => return None,
    })
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!`): non-zero becomes 0, zero becomes 1.
    Not,
    /// Bitwise complement (`~`), integer only.
    BitNot,
}

impl UnOp {
    /// `op v` on a concrete value (total).  `~` on a float goes through
    /// `as i64`.
    #[inline]
    pub fn eval(self, v: Value) -> Value {
        match (self, v) {
            (UnOp::Neg, Value::Float(f)) => Value::Float(float_neg(f)),
            (UnOp::Not, Value::Float(f)) => Value::Int(float_not(f)),
            (op, v) => Value::Int(int_unop(op, v.as_i64())),
        }
    }
}

/// Integer `op a`: wrapping negation, logical not (0/1), complement.
#[inline]
pub fn int_unop(op: UnOp, a: i64) -> i64 {
    match op {
        UnOp::Neg => a.wrapping_neg(),
        UnOp::Not => (a == 0) as i64,
        UnOp::BitNot => !a,
    }
}

/// Float negation (flips the sign bit, NaN included).
#[inline]
pub fn float_neg(a: f64) -> f64 {
    -a
}

/// Logical not of a float: 1 for `±0.0`, else 0 (NaN is truthy).
#[inline]
pub fn float_not(a: f64) -> i64 {
    (a == 0.0) as i64
}

/// Integer `abs`, wrapping: `abs(i64::MIN)` is `i64::MIN`.
#[inline]
pub fn int_abs(a: i64) -> i64 {
    a.wrapping_abs()
}

/// Intrinsic (built-in) functions available inside work functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    Sin,
    Cos,
    Tan,
    Atan,
    Sqrt,
    Exp,
    Log,
    Abs,
    Floor,
    Ceil,
    Round,
    /// Two-argument power.
    Pow,
    /// Two-argument minimum.
    Min,
    /// Two-argument maximum.
    Max,
    /// Cast to `int` (truncation).
    ToInt,
    /// Cast to `float`.
    ToFloat,
}

impl Intrinsic {
    /// Number of arguments the intrinsic takes.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Pow | Intrinsic::Min | Intrinsic::Max => 2,
            _ => 1,
        }
    }

    /// Surface-language name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Tan => "tan",
            Intrinsic::Atan => "atan",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Abs => "abs",
            Intrinsic::Floor => "floor",
            Intrinsic::Ceil => "ceil",
            Intrinsic::Round => "round",
            Intrinsic::Pow => "pow",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::ToInt => "int",
            Intrinsic::ToFloat => "float",
        }
    }

    /// Look an intrinsic up by surface name.
    pub fn from_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "tan" => Intrinsic::Tan,
            "atan" => Intrinsic::Atan,
            "sqrt" => Intrinsic::Sqrt,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "abs" => Intrinsic::Abs,
            "floor" => Intrinsic::Floor,
            "ceil" => Intrinsic::Ceil,
            "round" => Intrinsic::Round,
            "pow" => Intrinsic::Pow,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "int" => Intrinsic::ToInt,
            "float" => Intrinsic::ToFloat,
            _ => return None,
        })
    }

    /// Evaluate the intrinsic on concrete values.  Total on `arity()`
    /// arguments (callers check the arity; the frontend rejects a
    /// mismatch).
    pub fn eval(self, args: &[Value]) -> Value {
        debug_assert_eq!(args.len(), self.arity());
        let f = |i: usize| args[i].as_f64();
        match self {
            Intrinsic::Sin => Value::Float(f(0).sin()),
            Intrinsic::Cos => Value::Float(f(0).cos()),
            Intrinsic::Tan => Value::Float(f(0).tan()),
            Intrinsic::Atan => Value::Float(f(0).atan()),
            Intrinsic::Sqrt => Value::Float(f(0).sqrt()),
            Intrinsic::Exp => Value::Float(f(0).exp()),
            Intrinsic::Log => Value::Float(f(0).ln()),
            Intrinsic::Abs => match args[0] {
                Value::Int(i) => Value::Int(int_abs(i)),
                Value::Float(x) => Value::Float(x.abs()),
            },
            Intrinsic::Floor => Value::Float(f(0).floor()),
            Intrinsic::Ceil => Value::Float(f(0).ceil()),
            Intrinsic::Round => Value::Float(f(0).round()),
            Intrinsic::Pow => Value::Float(f(0).powf(f(1))),
            Intrinsic::Min => match (args[0], args[1]) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a.min(b)),
                (a, b) => Value::Float(a.as_f64().min(b.as_f64())),
            },
            Intrinsic::Max => match (args[0], args[1]) {
                (Value::Int(a), Value::Int(b)) => Value::Int(a.max(b)),
                (a, b) => Value::Float(a.as_f64().max(b.as_f64())),
            },
            Intrinsic::ToInt => Value::Int(args[0].as_i64()),
            Intrinsic::ToFloat => Value::Float(args[0].as_f64()),
        }
    }
}

/// Expressions of the work-function IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Read of a scalar variable (local, parameter, or filter state).
    Var(String),
    /// Read of an array element `name[index]`.
    Index(String, Box<Expr>),
    /// `peek(i)`: read input item `i` positions from the tape head without
    /// consuming it (`peek(0)` is the next item `pop` would return).
    Peek(Box<Expr>),
    /// `pop()`: consume and return the next input item.
    Pop,
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Intrinsic call.
    Call(Intrinsic, Vec<Expr>),
}

impl From<Value> for Expr {
    fn from(v: Value) -> Expr {
        match v {
            Value::Int(i) => Expr::IntLit(i),
            Value::Float(f) => Expr::FloatLit(f),
        }
    }
}

impl Expr {
    /// The value of a literal, `None` for anything else.
    pub fn as_lit(&self) -> Option<Value> {
        match self {
            Expr::IntLit(i) => Some(Value::Int(*i)),
            Expr::FloatLit(f) => Some(Value::Float(*f)),
            _ => None,
        }
    }

    /// Fold a slice of expressions with a binary operator (left
    /// associative).  Empty input yields `IntLit(0)`.
    pub fn fold(op: BinOp, items: Vec<Expr>) -> Expr {
        let mut it = items.into_iter();
        match it.next() {
            None => Expr::IntLit(0),
            Some(first) => it.fold(first, |acc, e| Expr::Binary(op, Box::new(acc), Box::new(e))),
        }
    }

    /// Does this expression (transitively) contain a `pop` or `peek`?
    pub fn touches_tape(&self) -> bool {
        match self {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => false,
            Expr::Pop => true,
            Expr::Peek(_) => true,
            Expr::Index(_, i) => i.touches_tape(),
            Expr::Unary(_, e) => e.touches_tape(),
            Expr::Binary(_, a, b) => a.touches_tape() || b.touches_tape(),
            Expr::Call(_, args) => args.iter().any(Expr::touches_tape),
        }
    }

    /// Visit every sub-expression, including `self`, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) | Expr::Pop => {}
            Expr::Index(_, i) => i.visit(f),
            Expr::Peek(e) | Expr::Unary(_, e) => e.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
        }
    }
}

/// Environment for [`eval_const`]: known-constant scalars and immutable
/// constant arrays (state arrays never written by any body).
pub struct ConstEnv<'e> {
    pub vars: &'e dyn Fn(&str) -> Option<Value>,
    pub arrays: &'e dyn Fn(&str, i64) -> Option<Value>,
}

impl ConstEnv<'static> {
    /// No variable and no array is known: only literal arithmetic folds.
    pub const EMPTY: ConstEnv<'static> = ConstEnv {
        vars: &|_| None,
        arrays: &|_, _| None,
    };
}

/// Evaluate an expression to a constant under `env`, or `None` when it
/// depends on the tape, a non-constant variable, or would trap (see the
/// module docs; a call with the wrong number of arguments faults at run
/// time too).  Purely side-effect free by construction: any expression
/// containing `pop` is rejected (its subtree can never be constant).
pub fn eval_const(e: &Expr, env: &ConstEnv<'_>) -> Option<Value> {
    match e {
        Expr::IntLit(_) | Expr::FloatLit(_) => e.as_lit(),
        Expr::Var(name) => (env.vars)(name),
        Expr::Index(name, i) => {
            let iv = eval_const(i, env)?.as_i64();
            (env.arrays)(name, iv)
        }
        Expr::Peek(_) | Expr::Pop => None,
        Expr::Unary(op, a) => Some(op.eval(eval_const(a, env)?)),
        Expr::Binary(op, a, b) => op.eval(eval_const(a, env)?, eval_const(b, env)?),
        Expr::Call(g, args) => {
            if args.len() != g.arity() {
                return None;
            }
            let mut vs = Vec::with_capacity(args.len());
            for a in args {
                vs.push(eval_const(a, env)?);
            }
            Some(g.eval(&vs))
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Scalar variable (local or filter state).
    Var(String),
    /// Array element `name[index]`.
    Index(String, Expr),
}

impl LValue {
    /// Name of the variable being written.
    pub fn name(&self) -> &str {
        match self {
            LValue::Var(n) | LValue::Index(n, _) => n,
        }
    }
}

/// Statements of the work-function IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declare a scalar local and initialize it.
    Let {
        name: String,
        ty: DataType,
        init: Expr,
    },
    /// Declare a local array of the given length, zero-initialized.
    LetArray {
        name: String,
        ty: DataType,
        len: usize,
    },
    /// Assign to a scalar or array element.
    Assign { target: LValue, value: Expr },
    /// `push(e)`: append `e` to the output tape.
    Push(Expr),
    /// Counted loop `for (var = from; var < to; var++) body`.
    /// After frontend elaboration the bounds are compile-time constants
    /// for every filter that participates in static analyses.
    For {
        var: String,
        from: Expr,
        to: Expr,
        body: Vec<Stmt>,
    },
    /// Conditional.
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// Expression evaluated for effect (e.g. a bare `pop()`).
    Expr(Expr),
    /// Teleport-message send: invoke `handler` on every filter registered
    /// with `portal`, with information-wavefront latency in
    /// `[latency_min, latency_max]` (units of the *receiver's* work-function
    /// executions relative to the sender's current wavefront).
    Send {
        portal: String,
        handler: String,
        args: Vec<Expr>,
        latency_min: i64,
        latency_max: i64,
    },
}

impl Stmt {
    /// Visit every statement in this subtree, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::For { body, .. } => {
                for s in body {
                    s.visit(f);
                }
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body.iter().chain(else_body) {
                    s.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Visit every expression appearing in this subtree.
    pub fn visit_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.visit(&mut |s| match s {
            Stmt::Let { init, .. } => init.visit(f),
            Stmt::LetArray { .. } => {}
            Stmt::Assign { target, value } => {
                if let LValue::Index(_, i) = target {
                    i.visit(f);
                }
                value.visit(f);
            }
            Stmt::Push(e) | Stmt::Expr(e) => e.visit(f),
            Stmt::For { from, to, .. } => {
                from.visit(f);
                to.visit(f);
            }
            Stmt::If { cond, .. } => cond.visit(f),
            Stmt::Send { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
        });
    }
}

/// Walk a block of statements, calling `f` on each statement pre-order.
pub fn visit_block<'a>(block: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for s in block {
        s.visit(f);
    }
}

/// Count tape effects of a straight-line *static* block: returns
/// `(pops, peeks_max_index_plus_one, pushes)` if they are statically
/// determinable (constant loop bounds, tape ops not under `if`),
/// otherwise `None`.
///
/// This is used by the frontend to check declared filter rates against the
/// body, and by tests as an oracle.
pub fn static_rates(block: &[Stmt]) -> Option<(usize, usize, usize)> {
    /// Constant scalars known at this point, typed as declared.
    type Env = std::collections::HashMap<String, Value>;

    fn const_eval(e: &Expr, env: &Env) -> Option<Value> {
        eval_const(
            e,
            &ConstEnv {
                vars: &|n| env.get(n).copied(),
                arrays: &|_, _| None,
            },
        )
    }

    fn expr_effects(e: &Expr, pops: &mut usize, peek_hi: &mut usize, env: &Env) -> Option<()> {
        match e {
            Expr::Pop => {
                *pops += 1;
            }
            Expr::Peek(i) => {
                let idx = usize::try_from(const_eval(i, env)?.as_i64()).ok()?;
                // A peek at index i (relative to current head) requires
                // pops_so_far + i + 1 items available.
                let need = pops.checked_add(idx)?.checked_add(1)?;
                *peek_hi = (*peek_hi).max(need);
                expr_effects(i, pops, peek_hi, env)?;
            }
            Expr::Index(_, i) | Expr::Unary(_, i) => expr_effects(i, pops, peek_hi, env)?,
            Expr::Binary(_, a, b) => {
                expr_effects(a, pops, peek_hi, env)?;
                expr_effects(b, pops, peek_hi, env)?;
            }
            Expr::Call(_, args) => {
                for a in args {
                    expr_effects(a, pops, peek_hi, env)?;
                }
            }
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => {}
        }
        Some(())
    }

    /// Record what is now known about `name`: a constant coerced to the
    /// variable's type (as the assignment does), or nothing.
    fn bind(env: &mut Env, name: &str, v: Option<Value>, ty: Option<DataType>) {
        match (v, ty) {
            (Some(v), Some(ty)) => {
                env.insert(name.to_string(), v.coerce(ty));
            }
            _ => {
                env.remove(name);
            }
        }
    }

    fn go(
        block: &[Stmt],
        pops: &mut usize,
        peek_hi: &mut usize,
        pushes: &mut usize,
        env: &mut Env,
    ) -> Option<()> {
        for s in block {
            match s {
                Stmt::Let { name, ty, init } => {
                    expr_effects(init, pops, peek_hi, env)?;
                    // Track constant locals so peek indices like
                    // `peek(i*2+1)` inside unrollable loops stay static.
                    bind(env, name, const_eval(init, env), Some(*ty));
                }
                Stmt::LetArray { .. } => {}
                Stmt::Assign { target, value } => {
                    if let LValue::Index(_, i) = target {
                        expr_effects(i, pops, peek_hi, env)?;
                    }
                    expr_effects(value, pops, peek_hi, env)?;
                    if let LValue::Var(n) = target {
                        // Only a variable tracked so far has a known type.
                        let ty = env.get(n).map(|v| v.data_type());
                        bind(env, n, const_eval(value, env), ty);
                    }
                }
                Stmt::Push(e) => {
                    expr_effects(e, pops, peek_hi, env)?;
                    *pushes += 1;
                }
                Stmt::Expr(e) => expr_effects(e, pops, peek_hi, env)?,
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                } => {
                    let lo = const_eval(from, env)?.as_i64();
                    let hi = const_eval(to, env)?.as_i64();
                    if hi.saturating_sub(lo) > 1_000_000 {
                        return None; // refuse absurd unrolls
                    }
                    let saved = env.get(var).copied();
                    for i in lo..hi {
                        env.insert(var.clone(), Value::Int(i));
                        go(body, pops, peek_hi, pushes, env)?;
                    }
                    match saved {
                        Some(v) => {
                            env.insert(var.clone(), v);
                        }
                        None => {
                            env.remove(var);
                        }
                    }
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    expr_effects(cond, pops, peek_hi, env)?;
                    // Statically-resolvable condition: follow one arm.
                    if let Some(c) = const_eval(cond, env) {
                        let arm = if c.is_truthy() { then_body } else { else_body };
                        go(arm, pops, peek_hi, pushes, env)?;
                    } else {
                        // Both arms must have identical tape effects.
                        let (mut p1, mut k1, mut u1) = (*pops, *peek_hi, *pushes);
                        let mut env1 = env.clone();
                        go(then_body, &mut p1, &mut k1, &mut u1, &mut env1)?;
                        let (mut p2, mut k2, mut u2) = (*pops, *peek_hi, *pushes);
                        let mut env2 = env.clone();
                        go(else_body, &mut p2, &mut k2, &mut u2, &mut env2)?;
                        if p1 != p2 || u1 != u2 {
                            return None;
                        }
                        *pops = p1;
                        *peek_hi = k1.max(k2);
                        *pushes = u1;
                        // Conservatively drop constant knowledge.
                        env.retain(|k, v| env1.get(k) == Some(v) && env2.get(k) == Some(v));
                    }
                }
                Stmt::Send { args, .. } => {
                    for a in args {
                        expr_effects(a, pops, peek_hi, env)?;
                    }
                }
            }
        }
        Some(())
    }

    let (mut pops, mut peek_hi, mut pushes) = (0usize, 0usize, 0usize);
    let mut env = Env::new();
    go(block, &mut pops, &mut peek_hi, &mut pushes, &mut env)?;
    Some((pops, peek_hi.max(pops), pushes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peek_i(i: i64) -> Expr {
        Expr::Peek(Box::new(Expr::IntLit(i)))
    }

    #[test]
    fn static_rates_simple_map() {
        // push(pop() * 2)
        let body = vec![Stmt::Push(Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::Pop),
            Box::new(Expr::IntLit(2)),
        ))];
        assert_eq!(static_rates(&body), Some((1, 1, 1)));
    }

    #[test]
    fn static_rates_fir_shape() {
        // for i in 0..4 { push(peek(i)) } pop()
        let body = vec![
            Stmt::For {
                var: "i".into(),
                from: Expr::IntLit(0),
                to: Expr::IntLit(4),
                body: vec![Stmt::Push(Expr::Peek(Box::new(Expr::Var("i".into()))))],
            },
            Stmt::Expr(Expr::Pop),
        ];
        assert_eq!(static_rates(&body), Some((1, 4, 4)));
    }

    #[test]
    fn static_rates_if_mismatch_rejected() {
        let body = vec![Stmt::If {
            cond: Expr::Peek(Box::new(Expr::IntLit(0))),
            then_body: vec![Stmt::Push(Expr::IntLit(1))],
            else_body: vec![],
        }];
        assert_eq!(static_rates(&body), None);
    }

    #[test]
    fn static_rates_if_matching_arms_ok() {
        let body = vec![
            Stmt::If {
                cond: peek_i(0),
                then_body: vec![Stmt::Push(Expr::IntLit(1))],
                else_body: vec![Stmt::Push(Expr::IntLit(0))],
            },
            Stmt::Expr(Expr::Pop),
        ];
        assert_eq!(static_rates(&body), Some((1, 1, 1)));
    }

    #[test]
    fn static_rates_use_run_time_arithmetic() {
        let bin = |op, a, b| Expr::Binary(op, Box::new(a), Box::new(b));
        let let_ = |name: &str, ty, init| Stmt::Let {
            name: name.into(),
            ty,
            init,
        };
        let var = |n: &str| Expr::Var(n.into());
        let peek = |e| Stmt::Push(Expr::Peek(Box::new(e)));
        // 2^62 * 4 wraps to 0, as at run time: peek(0).
        let body = vec![
            let_("a", DataType::Int, Expr::IntLit(1 << 62)),
            peek(bin(BinOp::Mul, var("a"), Expr::IntLit(4))),
        ];
        assert_eq!(static_rates(&body), Some((0, 1, 1)));
        // A float local keeps its fraction: 1.5 * 2 is index 3.
        let body = vec![
            let_("x", DataType::Float, Expr::FloatLit(1.5)),
            peek(bin(BinOp::Mul, var("x"), Expr::IntLit(2))),
        ];
        assert_eq!(static_rates(&body), Some((0, 4, 1)));
        // A loop over (almost) all of `i64` is not analysable.
        let body = vec![Stmt::For {
            var: "i".into(),
            from: Expr::IntLit(-2),
            to: Expr::IntLit(i64::MAX),
            body: vec![],
        }];
        assert_eq!(static_rates(&body), None);
    }

    #[test]
    fn fold_builds_left_chain() {
        let e = Expr::fold(
            BinOp::Add,
            vec![Expr::IntLit(1), Expr::IntLit(2), Expr::IntLit(3)],
        );
        match e {
            Expr::Binary(BinOp::Add, l, r) => {
                assert_eq!(*r, Expr::IntLit(3));
                assert!(matches!(*l, Expr::Binary(BinOp::Add, _, _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn touches_tape_detection() {
        assert!(peek_i(3).touches_tape());
        assert!(Expr::Pop.touches_tape());
        assert!(!Expr::Var("x".into()).touches_tape());
    }

    #[test]
    fn intrinsic_eval_and_names() {
        assert_eq!(Intrinsic::from_name("sqrt"), Some(Intrinsic::Sqrt));
        assert_eq!(
            Intrinsic::Min.eval(&[Value::Int(3), Value::Int(5)]),
            Value::Int(3)
        );
        assert_eq!(
            Intrinsic::Pow.eval(&[Value::Float(2.0), Value::Float(3.0)]),
            Value::Float(8.0)
        );
        for i in [Intrinsic::Sin, Intrinsic::Pow, Intrinsic::Max] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
    }
}
