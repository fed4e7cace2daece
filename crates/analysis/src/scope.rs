//! Name scoping shared by the mid-end's passes: which names a body can
//! track by name alone ([`pinned_names`] cannot be), what type each
//! trackable scalar was declared with (`scalar_types`), and which state
//! never changes and so seeds constant propagation ([`state_seeds`],
//! `assigned_state_names`).
//!
//! The constants themselves are evaluated by
//! [`streamit_graph::work::eval_const`], the one definition of the work
//! language's arithmetic that the reference interpreter runs too; the test
//! here holds the two together.

use std::collections::{HashMap, HashSet};

use streamit_graph::{DataType, Filter, StateInit, Stmt, Value};

// ---- immutable state seeds ---------------------------------------------

/// Constant seeds drawn from filter state: scalars and arrays never
/// assigned by work, prework, or any handler keep their
/// elaboration-time value forever (both int and float, generalizing
/// `immutable_int_state`).
#[derive(Debug, Default)]
pub struct StateSeeds {
    pub scalars: HashMap<String, Value>,
    pub arrays: HashMap<String, Vec<Value>>,
}

/// Names assigned anywhere in any body of `f` (work, prework, handlers).
pub(crate) fn assigned_state_names(f: &Filter) -> HashSet<String> {
    let mut assigned = HashSet::new();
    let mut scan = |block: &[Stmt]| {
        streamit_graph::work::visit_block(block, &mut |s| {
            if let Stmt::Assign { target, .. } = s {
                assigned.insert(target.name().to_string());
            }
        });
    };
    scan(&f.work);
    if let Some(pw) = &f.prework {
        scan(&pw.body);
    }
    for h in &f.handlers {
        scan(&h.body);
    }
    assigned
}

/// Compute the constant seeds of `f`, excluding any name in `pinned`
/// (shadow-ambiguous names the analyses refuse to track).
pub fn state_seeds(f: &Filter, pinned: &HashSet<String>) -> StateSeeds {
    let assigned = assigned_state_names(f);
    let mut seeds = StateSeeds::default();
    for sv in &f.state {
        if assigned.contains(&sv.name) || pinned.contains(&sv.name) {
            continue;
        }
        // Coerced to the declared type, as the interpreter initialises
        // state: `float g = 1` holds 1.0, and `g / 2` is 0.5.
        match &sv.init {
            StateInit::Scalar(v) => {
                seeds.scalars.insert(sv.name.clone(), v.coerce(sv.ty));
            }
            StateInit::Array(vs) => {
                let vs = vs.iter().map(|v| v.coerce(sv.ty)).collect();
                seeds.arrays.insert(sv.name.clone(), vs);
            }
        }
    }
    seeds
}

/// Names whose binding is ambiguous under simple name-based tracking:
/// any name introduced more than once across state fields, `let`/array
/// declarations, and loop variables.  The analyses treat these as
/// untrackable (never constant, never dead).
pub fn pinned_names(f: &Filter, block: &[Stmt]) -> HashSet<String> {
    let mut count: HashMap<&str, usize> = HashMap::new();
    for sv in &f.state {
        *count.entry(sv.name.as_str()).or_insert(0) += 1;
    }
    streamit_graph::work::visit_block(block, &mut |s| match s {
        Stmt::Let { name, .. } | Stmt::LetArray { name, .. } => {
            *count.entry(name.as_str()).or_insert(0) += 1;
        }
        Stmt::For { var, .. } => {
            *count.entry(var.as_str()).or_insert(0) += 1;
        }
        _ => {}
    });
    count
        .into_iter()
        .filter(|&(_, c)| c > 1)
        .map(|(n, _)| n.to_string())
        .collect()
}

/// Declared types of every trackable scalar: state fields plus unique
/// `let` locals.  Assignment coerces to the slot's declared type, so the
/// analyses coerce recorded constants the same way.
pub(crate) fn scalar_types(
    f: &Filter,
    block: &[Stmt],
    pinned: &HashSet<String>,
) -> HashMap<String, DataType> {
    let mut tys = HashMap::new();
    for sv in &f.state {
        if matches!(sv.init, StateInit::Scalar(_)) && !pinned.contains(&sv.name) {
            tys.insert(sv.name.clone(), sv.ty);
        }
    }
    streamit_graph::work::visit_block(block, &mut |s| {
        if let Stmt::Let { name, ty, .. } = s {
            if !pinned.contains(name) {
                tys.insert(name.clone(), *ty);
            }
        }
    });
    tys
}

#[cfg(test)]
mod tests {
    use streamit_graph::{BinOp, Expr, Stmt, Value};

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn division_by_zero_is_never_folded() {
        assert_eq!(BinOp::Div.eval(Value::Int(1), Value::Int(0)), None);
        assert_eq!(BinOp::Rem.eval(Value::Int(1), Value::Int(0)), None);
        // Float division is total.
        assert!(BinOp::Div
            .eval(Value::Float(1.0), Value::Float(0.0))
            .is_some());
    }

    // Differential check: the reference interpreter must agree with the
    // shared scalar table on every operator over a value grid, bit for
    // bit (`tests/scalar_semantics.rs` adds the other evaluators).
    #[test]
    fn const_fold_mirrors_the_interpreter() {
        use streamit_interp::eval_block_bounded;
        let ops = [
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
        let ints = [i64::MIN, -3, -1, 0, 1, 2, 63, 64, 65, i64::MAX];
        let floats = [-2.5, -0.0, 0.0, 1.5, f64::NAN, f64::INFINITY];
        let mut vals: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        vals.extend(floats.iter().map(|&f| Value::Float(f)));

        #[derive(Default)]
        struct Capture {
            out: Vec<Value>,
        }
        impl streamit_interp::EvalCtx for Capture {
            fn node_name(&self) -> &str {
                "t"
            }
            fn peek(&mut self, _: u64) -> Result<Value, streamit_interp::RuntimeError> {
                unreachable!()
            }
            fn pop(&mut self) -> Result<Value, streamit_interp::RuntimeError> {
                unreachable!()
            }
            fn push(&mut self, v: Value) -> Result<(), streamit_interp::RuntimeError> {
                self.out.push(v);
                Ok(())
            }
            fn send(
                &mut self,
                _: &str,
                _: &str,
                _: Vec<Value>,
                _: (i64, i64),
            ) -> Result<(), streamit_interp::RuntimeError> {
                unreachable!()
            }
        }

        let lit = |v: Value| match v {
            Value::Int(i) => Expr::IntLit(i),
            Value::Float(f) => Expr::FloatLit(f),
        };
        // Type and bits: `NaN` equals itself, `0.0` is not `-0.0`.
        let bits = |v: Value| match v {
            Value::Int(i) => (false, i as u64),
            Value::Float(f) => (true, f.to_bits()),
        };
        let mut checked = 0usize;
        for &op in &ops {
            for &a in &vals {
                for &b in &vals {
                    let folded = op.eval(a, b);
                    // Interpreter result captured through a raw `push`.
                    let body = vec![Stmt::Push(bin(op, lit(a), lit(b)))];
                    let mut state = std::collections::HashMap::new();
                    let mut ctx = Capture::default();
                    let res = eval_block_bounded(
                        &body,
                        &mut state,
                        std::collections::HashMap::new(),
                        &mut ctx,
                        1_000,
                    );
                    match folded {
                        None => assert!(
                            res.is_err(),
                            "{op:?} {a:?} {b:?}: fold refused but interpreter succeeded"
                        ),
                        Some(v) => {
                            assert!(res.is_ok(), "{op:?} {a:?} {b:?}: interpreter failed");
                            let got = *ctx.out.first().expect("one push");
                            assert_eq!(
                                bits(got),
                                bits(v),
                                "{op:?} {a:?} {b:?}: fold disagrees with interpreter"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 3000, "grid too small: {checked}");
    }
}
