//! One differential table for the work language's arithmetic.
//!
//! `streamit::graph::work` defines what every `BinOp`, `UnOp` and
//! intrinsic means; this suite evaluates each of them over edge operands
//! five ways and requires the results to agree bit for bit, trap for
//! trap, and a sixth way that has to *contain* them:
//!
//! 1. the table itself (`BinOp::eval`, `UnOp::eval`, `Intrinsic::eval`);
//! 2. the reference interpreter on a one-`push` body of literals;
//! 3. `analysis::optimize_filter` on that body, then the interpreter;
//! 4. the elaborator on source text with the operands written as
//!    literals — once inside `work` (`fold_binary`), once as a composite
//!    argument (`const_eval`);
//! 5. the compiled VM, the operands arriving on the tape;
//! 6. `analysis::Interval`'s table, the abstract counterpart the rate
//!    gate computes with: over intervals around the integer operands the
//!    abstract result contains the concrete one, and on constants it *is*
//!    the concrete one.
//!
//! CI runs it in debug and in `--release`: folding happens when the
//! compiler runs, execution when the program does, and the table has to
//! hold in the build mode of each.

use std::collections::HashMap;
use std::hint::black_box;

use streamit::analysis::Interval;
use streamit::exec::{CompiledGraph, ExecError};
use streamit::graph::{BinOp, DataType, Expr, Filter, Intrinsic, Stmt, StreamNode, UnOp, Value};
use streamit::interp::{eval_block_bounded, EvalCtx, RuntimeError};
use streamit::Compiler;

const BINOPS: [BinOp; 18] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
    BinOp::BitAnd,
    BinOp::BitOr,
    BinOp::BitXor,
    BinOp::Shl,
    BinOp::Shr,
];

const UNOPS: [(UnOp, &str); 3] = [(UnOp::Neg, "-"), (UnOp::Not, "!"), (UnOp::BitNot, "~")];

const INTRINSICS: [Intrinsic; 16] = [
    Intrinsic::Sin,
    Intrinsic::Cos,
    Intrinsic::Tan,
    Intrinsic::Atan,
    Intrinsic::Sqrt,
    Intrinsic::Exp,
    Intrinsic::Log,
    Intrinsic::Abs,
    Intrinsic::Floor,
    Intrinsic::Ceil,
    Intrinsic::Round,
    Intrinsic::Pow,
    Intrinsic::Min,
    Intrinsic::Max,
    Intrinsic::ToInt,
    Intrinsic::ToFloat,
];

/// Edge operands.  The NaN is the one this hardware's arithmetic makes
/// (as in `support/irgen.rs`): with a single NaN pattern in play every
/// NaN result is still comparable bit for bit.
fn operands() -> Vec<Value> {
    let ints = [i64::MIN, -1, 0, 1, 63, 64, 65, i64::MAX];
    let floats = [
        -0.0,
        0.5,
        black_box(0.0f64) * black_box(f64::INFINITY),
        f64::INFINITY,
        f64::NEG_INFINITY,
        5e-324,
    ];
    let mut vs: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
    vs.extend(floats.iter().map(|&f| Value::Float(f)));
    vs
}

/// The operand as source text built from non-negative literals, so the
/// elaborator's own folding produces the value.
fn source_of(v: Value) -> String {
    match v {
        Value::Int(i64::MIN) => "(0 - 9223372036854775807 - 1)".into(),
        Value::Int(i) if i < 0 => format!("(0 - {})", -i),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_nan() => "(0.0 * (1.0 / 0.0))".into(),
        Value::Float(f) if f == f64::INFINITY => "(1.0 / 0.0)".into(),
        Value::Float(f) if f == f64::NEG_INFINITY => "((0 - 1.0) / 0.0)".into(),
        Value::Float(f) if f == 0.0 && f.is_sign_negative() => "(0.0 * (0 - 1))".into(),
        Value::Float(f) => format!("{f:?}"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Op {
    Bin(BinOp),
    Un(UnOp, &'static str),
    Call(Intrinsic),
}

impl Op {
    fn arity(self) -> usize {
        match self {
            Op::Bin(_) => 2,
            Op::Un(..) => 1,
            Op::Call(g) => g.arity(),
        }
    }

    /// Way 1: the table.  `None` is the trap.
    fn table(self, args: &[Value]) -> Option<Value> {
        match self {
            Op::Bin(op) => op.eval(args[0], args[1]),
            Op::Un(op, _) => Some(op.eval(args[0])),
            Op::Call(g) => Some(g.eval(args)),
        }
    }

    fn expr(self, mut args: Vec<Expr>) -> Expr {
        match self {
            Op::Bin(op) => {
                let b = args.pop().expect("two operands");
                Expr::Binary(op, Box::new(args.pop().expect("two operands")), Box::new(b))
            }
            Op::Un(op, _) => Expr::Unary(op, Box::new(args.pop().expect("one operand"))),
            Op::Call(g) => Expr::Call(g, args),
        }
    }

    fn source(self, args: &[Value]) -> String {
        let args: Vec<String> = args.iter().map(|&v| source_of(v)).collect();
        match self {
            Op::Bin(op) => format!("({}) {} ({})", args[0], op.symbol(), args[1]),
            Op::Un(_, sym) => format!("{sym}({})", args[0]),
            Op::Call(g) => format!("{}({})", g.name(), args.join(", ")),
        }
    }
}

/// Bit-exact comparison key: type and bits, `None` for the trap.
fn key(v: Option<Value>) -> Option<(DataType, u64)> {
    v.map(|v| match v {
        Value::Int(i) => (DataType::Int, i as u64),
        Value::Float(f) => (DataType::Float, f.to_bits()),
    })
}

#[derive(Default)]
struct Capture(Vec<Value>);

impl EvalCtx for Capture {
    fn node_name(&self) -> &str {
        "t"
    }
    fn peek(&mut self, _: u64) -> Result<Value, RuntimeError> {
        unreachable!("bodies here never read the tape")
    }
    fn pop(&mut self) -> Result<Value, RuntimeError> {
        unreachable!("bodies here never read the tape")
    }
    fn push(&mut self, v: Value) -> Result<(), RuntimeError> {
        self.0.push(v);
        Ok(())
    }
    fn send(&mut self, _: &str, _: &str, _: Vec<Value>, _: (i64, i64)) -> Result<(), RuntimeError> {
        unreachable!("bodies here never send")
    }
}

/// Ways 2–4a: the interpreter on a body whose one `push` carries the
/// value.  The only admissible failure is the table's trap.
fn interpret(body: &[Stmt]) -> Option<Value> {
    let mut ctx = Capture::default();
    match eval_block_bounded(body, &mut HashMap::new(), HashMap::new(), &mut ctx, 1_000) {
        Ok(()) => Some(ctx.0[0]),
        Err(RuntimeError::DivisionByZero { .. }) => None,
        Err(e) => panic!("unexpected interpreter error: {e}"),
    }
}

fn source_filter(work: Vec<Stmt>, ty: DataType) -> Filter {
    Filter {
        name: "F".into(),
        input: None,
        output: Some(ty),
        peek: 0,
        pop: 0,
        push: 1,
        state: vec![],
        work,
        prework: None,
        handlers: vec![],
        kernel: None,
    }
}

/// The one filter of an elaborated `Main { add F(..); }`.
fn only_filter(src: &str) -> Result<Filter, String> {
    match streamit::frontend::compile_stream(src, "Main").map_err(|e| e.to_string())? {
        StreamNode::Pipeline(p) => match p.children.as_slice() {
            [StreamNode::Filter(f)] => Ok(f.clone()),
            other => panic!("expected one filter, got {other:?}"),
        },
        other => panic!("expected a pipeline, got {other:?}"),
    }
}

/// Way 4a: the expression inside `work`, where `fold_binary` and the
/// intrinsic fold run; whatever they leave is the interpreter's.
fn elaborated_in_work(text: &str, ty: DataType) -> Option<Value> {
    let f = only_filter(&format!(
        "void->{ty} filter F() {{ work push 1 {{ push({text}); }} }} \
         void->{ty} pipeline Main() {{ add F(); }}"
    ))
    .unwrap_or_else(|e| panic!("`{text}` must elaborate: {e}"));
    interpret(&f.work)
}

/// Way 4b: the expression as a composite argument (`const_eval`); the
/// parameter arrives in the body as a literal of the parameter's type.
fn elaborated_as_argument(text: &str, ty: DataType) -> Option<Value> {
    let src = format!(
        "{ty}->{ty} filter F({ty} k) {{ work pop 1 push 1 {{ pop(); push(k); }} }} \
         {ty}->{ty} pipeline Main() {{ add F({text}); }}"
    );
    match only_filter(&src) {
        Ok(f) => f.work.iter().find_map(|s| match s {
            Stmt::Push(e) => Some(e.as_lit().expect("parameter substituted as a literal")),
            _ => None,
        }),
        Err(e) => {
            assert!(e.contains("division by zero in constant"), "`{text}`: {e}");
            None
        }
    }
}

/// Way 5: one compiled graph per operation and operand types; the
/// operands are popped off a float tape (an `int` operand through the
/// `int(..)` cast).  An `int` result leaves as two exact 32-bit halves.
struct Vm(HashMap<(Op, Vec<DataType>), CompiledGraph>);

impl Vm {
    fn run(&mut self, op: Op, args: &[Value], result: DataType) -> Option<Value> {
        let tys: Vec<DataType> = args.iter().map(|v| v.data_type()).collect();
        let cg = self.0.entry((op, tys.clone())).or_insert_with(|| {
            let names = ["a", "b"];
            let mut work: Vec<Stmt> = tys
                .iter()
                .zip(names)
                .map(|(&ty, name)| Stmt::Let {
                    name: name.into(),
                    ty,
                    init: match ty {
                        DataType::Int => Expr::Call(Intrinsic::ToInt, vec![Expr::Pop]),
                        DataType::Float => Expr::Pop,
                    },
                })
                .collect();
            let vars = names[..tys.len()].iter().map(|n| Expr::Var((*n).into()));
            let value = op.expr(vars.collect());
            let r = || Box::new(Expr::Var("r".into()));
            match result {
                DataType::Float => work.push(Stmt::Push(value)),
                DataType::Int => work.extend([
                    Stmt::Let {
                        name: "r".into(),
                        ty: DataType::Int,
                        init: value,
                    },
                    Stmt::Push(Expr::Binary(BinOp::Shr, r(), Box::new(Expr::IntLit(32)))),
                    Stmt::Push(Expr::Binary(
                        BinOp::BitAnd,
                        r(),
                        Box::new(Expr::IntLit(0xFFFF_FFFF)),
                    )),
                ]),
            }
            let mut f = source_filter(work, DataType::Float);
            f.input = Some(DataType::Float);
            (f.peek, f.pop) = (tys.len(), tys.len());
            f.push = if result == DataType::Int { 2 } else { 1 };
            Compiler::default()
                .compile_stream(StreamNode::Filter(f))
                .unwrap_or_else(|e| panic!("{op:?} {tys:?} must compile: {e:?}"))
                .compile_exec()
                .unwrap_or_else(|e| panic!("{op:?} {tys:?}: the compiled engine declined: {e}"))
        });
        let input: Vec<f64> = args.iter().map(|v| v.as_f64()).collect();
        let n = cg.outputs_per_iteration() as usize;
        match cg.run_collect(&input, n) {
            Ok(out) => Some(match result {
                DataType::Float => Value::Float(out[0]),
                DataType::Int => Value::Int(((out[0] as i64) << 32) | out[1] as i64),
            }),
            Err(ExecError::Fault { reason, .. }) => {
                assert_eq!(reason, "division by zero", "{op:?} {args:?}");
                None
            }
            Err(e) => panic!("{op:?} {args:?}: {e}"),
        }
    }
}

/// Evaluate `op(args)` the five ways and require one answer.
fn check(vm: &mut Vm, op: Op, args: &[Value]) {
    let want = op.table(args);
    // A trap only ever comes from an integer division.
    let ty = want.map_or(DataType::Int, Value::data_type);
    let lits = || args.iter().map(|&v| Expr::from(v)).collect();
    let body = vec![Stmt::Push(op.expr(lits()))];
    let (optimized, _) = streamit::analysis::optimize_filter(&source_filter(body.clone(), ty));
    let text = op.source(args);
    let got = [
        ("interpreter", interpret(&body)),
        ("optimizer + interpreter", interpret(&optimized.work)),
        ("elaborator, in work", elaborated_in_work(&text, ty)),
        ("elaborator, as argument", elaborated_as_argument(&text, ty)),
        ("compiled VM", vm.run(op, args, ty)),
    ];
    for (who, v) in got {
        assert_eq!(
            key(v),
            key(want),
            "{who} disagrees with the table on `{text}` ({op:?} {args:?}): {v:?} vs {want:?}"
        );
    }
}

fn check_all(ops: impl IntoIterator<Item = Op>) -> usize {
    let vals = operands();
    let mut vm = Vm(HashMap::new());
    let mut checked = 0;
    for op in ops {
        for &a in &vals {
            if op.arity() == 1 {
                check(&mut vm, op, &[a]);
                checked += 1;
                continue;
            }
            for &b in &vals {
                check(&mut vm, op, &[a, b]);
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn every_binop_means_the_same_everywhere() {
    assert_eq!(check_all(BINOPS.map(Op::Bin)), 18 * 14 * 14);
}

#[test]
fn every_unop_means_the_same_everywhere() {
    assert_eq!(check_all(UNOPS.map(|(op, sym)| Op::Un(op, sym))), 3 * 14);
}

#[test]
fn every_intrinsic_means_the_same_everywhere() {
    assert_eq!(check_all(INTRINSICS.map(Op::Call)), 13 * 14 + 3 * 14 * 14);
}

/// Defect (c): the oracle may not be the one that panics.  `abs`, unary
/// `-`, `/ -1` and `% -1` at `i64::MIN` have one answer in every build.
#[test]
fn i64_min_is_total_or_the_one_trap() {
    let min = Value::Int(i64::MIN);
    assert_eq!(Intrinsic::Abs.eval(&[min]), min);
    assert_eq!(UnOp::Neg.eval(min), min);
    assert_eq!(BinOp::Div.eval(min, Value::Int(-1)), None);
    assert_eq!(BinOp::Rem.eval(min, Value::Int(-1)), None);
    assert_eq!(BinOp::Mul.eval(min, Value::Int(-1)), Some(min));
}

// ---- way 6: the interval table ------------------------------------------

/// The integer edge operands, plus `2^32`: the square of a finite end
/// that leaves `i64` without either factor being near its ends.
fn int_operands() -> Vec<i64> {
    let mut ints: Vec<i64> = operands()
        .into_iter()
        .filter_map(|v| match v {
            Value::Int(i) => Some(i),
            Value::Float(_) => None,
        })
        .collect();
    ints.push(1 << 32);
    ints
}

/// Intervals that contain `x`: the singleton (a constant is exact, at
/// `i64::MIN` and `i64::MAX` too), `[x-1, x+1]`, and the hull of `x` and
/// the other operand — the last two where their ends are finite, an end
/// at `i64::MIN` / `i64::MAX` being the domain's "unbounded".
fn around(x: i64, other: i64) -> Vec<Interval> {
    let finite = |lo: i64, hi: i64| lo < hi && lo != i64::MIN && hi != i64::MAX;
    let mut out = vec![Interval::constant(x)];
    if let (Some(lo), Some(hi)) = (x.checked_sub(1), x.checked_add(1)) {
        if finite(lo, hi) {
            out.push(Interval::range(lo, hi));
        }
    }
    if finite(x.min(other), x.max(other)) {
        out.push(Interval::range(x, other));
    }
    out
}

/// `abstract_` over every choice of intervals around `args` (one or two
/// of them) contains `concrete`; over the singletons it is exactly
/// `concrete`, or ⊤ for the trap.  Returns the number of tuples checked.
fn contained(
    what: &str,
    args: &[i64],
    concrete: Option<i64>,
    abstract_: impl Fn(&[Interval]) -> Interval,
) -> usize {
    let first = around(args[0], args[args.len() - 1]);
    let tuples: Vec<Vec<Interval>> = match args {
        [_] => first.iter().map(|&a| vec![a]).collect(),
        [x, y] => first
            .iter()
            .flat_map(|&a| around(*y, *x).into_iter().map(move |b| vec![a, b]))
            .collect(),
        _ => unreachable!("operators take one or two operands"),
    };
    for ivs in &tuples {
        let got = abstract_(ivs);
        if let Some(r) = concrete {
            assert!(
                got.contains(r),
                "{what}{args:?} = {r}, but over {ivs:?} the interval table says {got}"
            );
        }
        if ivs.iter().all(Interval::is_constant) {
            let want = concrete.map_or(Interval::TOP, Interval::constant);
            assert_eq!(got, want, "{what}{args:?} on constants");
        }
    }
    tuples.len()
}

#[test]
fn interval_table_contains_the_concrete_one() {
    use streamit::graph::work::{int_abs, int_binop, int_unop};
    let ints = int_operands();
    let mut checked = 0;
    for &a in &ints {
        for (op, sym) in UNOPS {
            checked += contained(sym, &[a], Some(int_unop(op, a)), |v| {
                Interval::unop(op, v[0])
            });
        }
        let call = |g: Intrinsic| move |v: &[Interval]| Interval::intrinsic(g, v).expect("int");
        checked += contained("abs", &[a], Some(int_abs(a)), call(Intrinsic::Abs));
        checked += contained("int", &[a], Some(a), call(Intrinsic::ToInt));
        for &b in &ints {
            for op in BINOPS {
                checked += contained(op.symbol(), &[a, b], int_binop(op, a, b), |v| {
                    Interval::binop(op, v[0], v[1])
                });
            }
            checked += contained("min", &[a, b], Some(a.min(b)), call(Intrinsic::Min));
            checked += contained("max", &[a, b], Some(a.max(b)), call(Intrinsic::Max));
        }
    }
    // 9 operands; most pairs have all three intervals on each side.
    assert!(checked > 20 * 9 * 9 * 4, "{checked} interval tuples");
    // Every float-valued intrinsic is outside the table.
    assert_eq!(Interval::intrinsic(Intrinsic::Sqrt, &[Interval::TOP]), None);
}
