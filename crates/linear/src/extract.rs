//! Linear extraction: automatically detecting linear filters from the
//! code of their work functions.
//!
//! The analysis abstractly interprets the work-function IR over an
//! *affine-value domain*: every value is either `Affine{coeffs, c}` — a
//! known affine combination `Σ coeffs[i]·peek(i) + c` of the firing's
//! input window — or `Top` (unknown).  Pushes of affine values become
//! rows of the linear representation; any push of `Top`, any write to
//! filter state, or any control flow that depends on the input makes
//! the filter non-linear.
//!
//! Loops are unrolled (rates are static after elaboration, so bounds are
//! compile-time constants) and read-only state (coefficient tables)
//! evaluates to constants — exactly the ingredients needed for FIR
//! filters, expanders, compressors, FFT butterflies and DCT kernels to
//! be recognized from their C-like source.

use crate::rep::LinearRep;
use std::collections::HashMap;
use streamit_graph::{BinOp, Expr, Filter, Intrinsic, LValue, StateInit, Stmt, UnOp, Value};

/// An abstract value: affine in the input window, or unknown.
#[derive(Debug, Clone, PartialEq)]
enum Abs {
    /// `Σ coeffs[i]·x[i] + c`, with `x[i] = peek(i)` at firing start.
    Affine {
        coeffs: HashMap<usize, f64>,
        c: f64,
    },
    Top,
}

impl Abs {
    fn konst(c: f64) -> Abs {
        Abs::Affine {
            coeffs: HashMap::new(),
            c,
        }
    }

    fn input(i: usize) -> Abs {
        let mut coeffs = HashMap::new();
        coeffs.insert(i, 1.0);
        Abs::Affine { coeffs, c: 0.0 }
    }

    /// The constant value, if this is a known constant.
    fn as_const(&self) -> Option<f64> {
        match self {
            Abs::Affine { coeffs, c } if coeffs.is_empty() => Some(*c),
            _ => None,
        }
    }

    fn add(&self, other: &Abs, sign: f64) -> Abs {
        match (self, other) {
            (Abs::Affine { coeffs: ca, c: a }, Abs::Affine { coeffs: cb, c: b }) => {
                let mut coeffs = ca.clone();
                for (&i, &v) in cb {
                    *coeffs.entry(i).or_insert(0.0) += sign * v;
                }
                coeffs.retain(|_, v| *v != 0.0);
                Abs::Affine {
                    coeffs,
                    c: a + sign * b,
                }
            }
            _ => Abs::Top,
        }
    }

    fn scale(&self, k: f64) -> Abs {
        match self {
            Abs::Affine { coeffs, c } => Abs::Affine {
                coeffs: coeffs
                    .iter()
                    .map(|(&i, &v)| (i, v * k))
                    .filter(|&(_, v)| v != 0.0)
                    .collect(),
                c: c * k,
            },
            Abs::Top => Abs::Top,
        }
    }
}

/// Abstract variable slot.
#[derive(Debug, Clone)]
enum Slot {
    Scalar(Abs),
    Array(Vec<Abs>),
}

/// Why extraction failed (useful in reports and tests).
#[derive(Debug, Clone, PartialEq)]
pub enum NonLinear {
    /// A pushed value was not affine in the inputs.
    PushNotAffine,
    /// The filter writes its own state.
    StateWrite(String),
    /// Control flow depends on input data.
    DataDependentControl,
    /// `peek`/array index not a compile-time constant.
    DynamicIndex,
    /// Rates declared vs. observed mismatch (defensive; validation
    /// normally catches this first).
    RateMismatch,
    /// Uses a construct outside the analyzable subset (messages etc.).
    Unsupported(&'static str),
}

struct Extractor {
    env: Vec<HashMap<String, Slot>>,
    pops: usize,
    pushes: Vec<Abs>,
}

type R<T> = Result<T, NonLinear>;

impl Extractor {
    fn lookup(&self, name: &str) -> Option<&Slot> {
        for scope in self.env.iter().rev() {
            if let Some(s) = scope.get(name) {
                return Some(s);
            }
        }
        None
    }

    fn lookup_mut(&mut self, name: &str) -> Option<&mut Slot> {
        for scope in self.env.iter_mut().rev() {
            if scope.contains_key(name) {
                return scope.get_mut(name);
            }
        }
        None
    }

    fn declare(&mut self, name: &str, slot: Slot) {
        self.env
            .last_mut()
            .expect("scope stack non-empty")
            .insert(name.to_string(), slot);
    }

    fn expr(&mut self, e: &Expr) -> R<Abs> {
        Ok(match e {
            Expr::IntLit(i) => Abs::konst(*i as f64),
            Expr::FloatLit(f) => Abs::konst(*f),
            Expr::Var(n) => match self.lookup(n) {
                Some(Slot::Scalar(a)) => a.clone(),
                _ => Abs::Top,
            },
            Expr::Index(n, i) => {
                let iv = self.expr(i)?.as_const().ok_or(NonLinear::DynamicIndex)?;
                match self.lookup(n) {
                    Some(Slot::Array(a)) => {
                        let k = iv as usize;
                        if iv < 0.0 || k >= a.len() {
                            return Err(NonLinear::DynamicIndex);
                        }
                        a[k].clone()
                    }
                    _ => Abs::Top,
                }
            }
            Expr::Peek(i) => {
                let iv = self.expr(i)?.as_const().ok_or(NonLinear::DynamicIndex)?;
                if iv < 0.0 {
                    return Err(NonLinear::DynamicIndex);
                }
                Abs::input(self.pops + iv as usize)
            }
            Expr::Pop => {
                let v = Abs::input(self.pops);
                self.pops += 1;
                v
            }
            Expr::Unary(op, a) => {
                let v = self.expr(a)?;
                match op {
                    UnOp::Neg => v.scale(-1.0),
                    UnOp::Not | UnOp::BitNot => match v.as_const() {
                        Some(c) => Abs::konst(op.eval(Value::Float(c)).as_f64()),
                        None => Abs::Top,
                    },
                }
            }
            Expr::Binary(op, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                match op {
                    BinOp::Add => va.add(&vb, 1.0),
                    BinOp::Sub => va.add(&vb, -1.0),
                    BinOp::Mul => match (va.as_const(), vb.as_const()) {
                        (Some(ka), _) => vb.scale(ka),
                        (_, Some(kb)) => va.scale(kb),
                        _ => Abs::Top,
                    },
                    BinOp::Div => match vb.as_const() {
                        Some(k) if k != 0.0 => va.scale(1.0 / k),
                        _ => Abs::Top,
                    },
                    // Constant remainder, comparison, logic and bitwise
                    // arithmetic folds (constants are floats here).
                    _ => match (va.as_const(), vb.as_const()) {
                        // On ints `%` by zero traps, and the types are
                        // gone: leave it to the run.
                        (_, Some(y)) if *op == BinOp::Rem && y == 0.0 => Abs::Top,
                        (Some(x), Some(y)) => op
                            .eval(Value::Float(x), Value::Float(y))
                            .map_or(Abs::Top, |v| Abs::konst(v.as_f64())),
                        _ => Abs::Top,
                    },
                }
            }
            Expr::Call(f, args) => {
                let vals: Vec<Abs> = args.iter().map(|a| self.expr(a)).collect::<R<Vec<_>>>()?;
                // Casts preserve affinity; other intrinsics need
                // constant arguments.
                match f {
                    Intrinsic::ToFloat => vals[0].clone(),
                    Intrinsic::ToInt => match vals[0].as_const() {
                        Some(c) => Abs::konst((c as i64) as f64),
                        None => Abs::Top,
                    },
                    _ => {
                        let consts: Option<Vec<f64>> = vals.iter().map(|v| v.as_const()).collect();
                        match consts {
                            Some(cs) => {
                                let vs: Vec<Value> = cs.into_iter().map(Value::Float).collect();
                                Abs::konst(f.eval(&vs).as_f64())
                            }
                            None => Abs::Top,
                        }
                    }
                }
            }
        })
    }

    fn block(&mut self, stmts: &[Stmt], state_names: &[String]) -> R<()> {
        for s in stmts {
            self.stmt(s, state_names)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt, state_names: &[String]) -> R<()> {
        match s {
            Stmt::Let { name, init, .. } => {
                let v = self.expr(init)?;
                self.declare(name, Slot::Scalar(v));
            }
            Stmt::LetArray { name, len, .. } => {
                self.declare(name, Slot::Array(vec![Abs::konst(0.0); *len]));
            }
            Stmt::Assign { target, value } => {
                let v = self.expr(value)?;
                let name = target.name().to_string();
                if state_names.contains(&name) {
                    return Err(NonLinear::StateWrite(name));
                }
                match target {
                    LValue::Var(_) => match self.lookup_mut(&name) {
                        Some(Slot::Scalar(slot)) => *slot = v,
                        _ => return Err(NonLinear::Unsupported("assignment to unknown var")),
                    },
                    LValue::Index(_, iexpr) => {
                        let iv = self
                            .expr(&iexpr.clone())?
                            .as_const()
                            .ok_or(NonLinear::DynamicIndex)?;
                        match self.lookup_mut(&name) {
                            Some(Slot::Array(a)) => {
                                let k = iv as usize;
                                if iv < 0.0 || k >= a.len() {
                                    return Err(NonLinear::DynamicIndex);
                                }
                                a[k] = v;
                            }
                            _ => return Err(NonLinear::Unsupported("assignment to unknown array")),
                        }
                    }
                }
            }
            Stmt::Push(e) => {
                let v = self.expr(e)?;
                match v {
                    Abs::Affine { .. } => self.pushes.push(v),
                    Abs::Top => return Err(NonLinear::PushNotAffine),
                }
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let lo = self
                    .expr(from)?
                    .as_const()
                    .ok_or(NonLinear::DataDependentControl)? as i64;
                let hi = self
                    .expr(to)?
                    .as_const()
                    .ok_or(NonLinear::DataDependentControl)? as i64;
                if hi - lo > 1_000_000 {
                    return Err(NonLinear::Unsupported("loop too large to unroll"));
                }
                self.env.push(HashMap::new());
                self.declare(var, Slot::Scalar(Abs::konst(lo as f64)));
                for i in lo..hi {
                    if let Some(Slot::Scalar(s)) = self.lookup_mut(var) {
                        *s = Abs::konst(i as f64);
                    }
                    self.block(body, state_names)?;
                }
                self.env.pop();
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self
                    .expr(cond)?
                    .as_const()
                    .ok_or(NonLinear::DataDependentControl)?;
                self.env.push(HashMap::new());
                let r = if c != 0.0 {
                    self.block(then_body, state_names)
                } else {
                    self.block(else_body, state_names)
                };
                self.env.pop();
                r?;
            }
            Stmt::Send { .. } => return Err(NonLinear::Unsupported("teleport send")),
        }
        Ok(())
    }
}

/// Attempt to extract a linear representation from a filter.
///
/// Returns `Err` with the reason the filter is not (recognizably)
/// linear.
pub fn extract_linear(filter: &Filter) -> Result<LinearRep, NonLinear> {
    if filter.prework.is_some() {
        return Err(NonLinear::Unsupported("prework"));
    }
    // Read-only state becomes constants.
    let mut globals: HashMap<String, Slot> = HashMap::new();
    let mut state_names = Vec::new();
    for sv in &filter.state {
        state_names.push(sv.name.clone());
        let slot = match &sv.init {
            StateInit::Scalar(v) => Slot::Scalar(Abs::konst(v.as_f64())),
            StateInit::Array(vs) => {
                Slot::Array(vs.iter().map(|v| Abs::konst(v.as_f64())).collect())
            }
        };
        globals.insert(sv.name.clone(), slot);
    }
    let mut ex = Extractor {
        env: vec![globals, HashMap::new()],
        pops: 0,
        pushes: Vec::new(),
    };
    ex.block(&filter.work, &state_names)?;
    if ex.pops != filter.pop || ex.pushes.len() != filter.push {
        return Err(NonLinear::RateMismatch);
    }
    let peek = filter.peek.max(filter.pop);
    let mut rep = LinearRep::zero(peek, filter.pop.max(1), filter.push);
    // A source (pop == 0) pushing constants is technically affine but
    // useless to combine; treat pop 0 as non-linear.
    if filter.pop == 0 {
        return Err(NonLinear::Unsupported("source filter"));
    }
    for (j, v) in ex.pushes.iter().enumerate() {
        match v {
            Abs::Affine { coeffs, c } => {
                rep.constant[j] = *c;
                for (&i, &k) in coeffs {
                    if i >= peek {
                        return Err(NonLinear::DynamicIndex);
                    }
                    rep.matrix[j][i] = k;
                }
            }
            Abs::Top => return Err(NonLinear::PushNotAffine),
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    use streamit_graph::builder::*;
    use streamit_graph::{DataType, Value};

    // Silence unused-import lint when proptest expands.
    #[allow(unused_imports)]
    use proptest::prelude::ProptestConfig;

    #[test]
    fn extract_fir_loop() {
        let taps = [0.5, 0.3, 0.2];
        let f = FilterBuilder::new("fir", DataType::Float)
            .rates(3, 1, 1)
            .coeffs("h", taps)
            .work(|b| {
                b.let_("sum", DataType::Float, lit(0.0))
                    .for_("i", 0, 3, |b| {
                        b.set("sum", var("sum") + peek(var("i")) * idx("h", var("i")))
                    })
                    .push(var("sum"))
                    .pop_discard()
            })
            .build();
        let rep = extract_linear(&f).unwrap();
        assert_eq!((rep.peek, rep.pop, rep.push), (3, 1, 1));
        assert_eq!(rep.matrix[0], vec![0.5, 0.3, 0.2]);
        assert!(rep.is_purely_linear());
    }

    #[test]
    fn extract_expander_and_compressor() {
        // Expander: pop 1, push 2 (x, x/2)
        let expander = FilterBuilder::new("ex", DataType::Float)
            .rates(1, 1, 2)
            .work(|b| {
                b.let_("v", DataType::Float, pop())
                    .push(var("v"))
                    .push(var("v") / lit(2.0))
            })
            .build();
        let rep = extract_linear(&expander).unwrap();
        assert_eq!(rep.matrix, vec![vec![1.0], vec![0.5]]);
        // Compressor: pop 3, push 1 (mean)
        let comp = FilterBuilder::new("cp", DataType::Float)
            .rates(3, 3, 1)
            .work(|b| {
                b.push((peek(0) + peek(1) + peek(2)) / lit(3.0))
                    .pop_discard()
                    .pop_discard()
                    .pop_discard()
            })
            .build();
        let rep = extract_linear(&comp).unwrap();
        assert_eq!(rep.pop, 3);
        assert!((rep.matrix[0][0] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn extract_affine_constant_part() {
        let f = FilterBuilder::new("aff", DataType::Float)
            .rates(1, 1, 1)
            .push(pop() * lit(2.0) + lit(3.0))
            .build();
        let rep = extract_linear(&f).unwrap();
        assert_eq!(rep.matrix[0], vec![2.0]);
        assert_eq!(rep.constant, vec![3.0]);
        assert!(!rep.is_purely_linear());
    }

    #[test]
    fn pop_interleaved_with_peek_indices() {
        // push(pop() + peek(0)): after the pop, peek(0) is input 1.
        let f = FilterBuilder::new("f", DataType::Float)
            .rates(2, 2, 1)
            .work(|b| {
                b.let_("a", DataType::Float, pop())
                    .push(var("a") + peek(0))
                    .pop_discard()
            })
            .build();
        let rep = extract_linear(&f).unwrap();
        assert_eq!(rep.matrix[0], vec![1.0, 1.0]);
    }

    #[test]
    fn state_write_rejected() {
        let f = FilterBuilder::new("iir", DataType::Float)
            .rates(1, 1, 1)
            .state("y", DataType::Float, Value::Float(0.0))
            .work(|b| b.set("y", var("y") * lit(0.9) + pop()).push(var("y")))
            .build();
        assert!(matches!(extract_linear(&f), Err(NonLinear::StateWrite(_))));
    }

    #[test]
    fn data_dependent_branch_rejected() {
        let f = FilterBuilder::new("nl", DataType::Float)
            .rates(1, 1, 1)
            .work(|b| {
                b.let_("v", DataType::Float, pop()).if_else(
                    cmp(streamit_graph::BinOp::Gt, var("v"), lit(0.0)),
                    |b| b.push(var("v")),
                    |b| b.push(-var("v")),
                )
            })
            .build();
        assert_eq!(
            extract_linear(&f).unwrap_err(),
            NonLinear::DataDependentControl
        );
    }

    #[test]
    fn product_of_inputs_rejected() {
        let f = FilterBuilder::new("sq", DataType::Float)
            .rates(1, 1, 1)
            .work(|b| {
                b.let_("v", DataType::Float, pop())
                    .push(var("v") * var("v"))
            })
            .build();
        assert_eq!(extract_linear(&f).unwrap_err(), NonLinear::PushNotAffine);
    }

    #[test]
    fn extracted_rep_matches_interpreter() {
        // Butterfly-like 2-in 2-out linear filter.
        let f = FilterBuilder::new("bf", DataType::Float)
            .rates(2, 2, 2)
            .work(|b| {
                b.let_("a", DataType::Float, peek(0))
                    .let_("b2", DataType::Float, peek(1))
                    .push(var("a") + var("b2"))
                    .push(var("a") - var("b2"))
                    .pop_discard()
                    .pop_discard()
            })
            .build();
        let rep = extract_linear(&f).unwrap();
        let input: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect();
        let expect = rep.apply(&input);
        // Run the actual filter in the interpreter.
        let g = streamit_graph::FlatGraph::from_stream(&streamit_graph::StreamNode::Filter(f));
        let mut m = streamit_interp::Machine::new(&g);
        m.feed(input.iter().map(|&v| Value::Float(v)));
        m.run_until_output(expect.len(), 1000).unwrap();
        let out: Vec<f64> = m.take_output().iter().map(|v| v.as_f64()).collect();
        assert_eq!(out, expect);
    }

    proptest::proptest! {
        /// Round trip: materializing any linear representation and
        /// extracting it again recovers the exact matrix — extraction
        /// and code generation are mutually inverse.
        #[test]
        fn prop_extract_inverts_materialize(
            rows in 1usize..4,
            cols in 1usize..6,
            vals in proptest::collection::vec(-4.0f64..4.0, 24),
            consts in proptest::collection::vec(-2.0f64..2.0, 4),
            pop_extra in 0usize..3,
        ) {
            let pop = (cols.saturating_sub(pop_extra)).max(1);
            let matrix: Vec<Vec<f64>> = (0..rows)
                .map(|r| (0..cols).map(|c| vals[(r * cols + c) % vals.len()]).collect())
                .collect();
            let rep = crate::rep::LinearRep {
                peek: cols,
                pop,
                push: rows,
                matrix,
                constant: (0..rows).map(|r| consts[r % consts.len()]).collect(),
            };
            let filter = rep.materialize("roundtrip");
            let back = extract_linear(&filter).expect("materialized filters are linear");
            proptest::prop_assert_eq!(&back.matrix, &rep.matrix);
            proptest::prop_assert_eq!(&back.constant, &rep.constant);
            proptest::prop_assert_eq!((back.peek, back.pop, back.push),
                                      (rep.peek.max(rep.pop), rep.pop, rep.push));
        }
    }

    #[test]
    fn local_array_scratch_is_fine() {
        // Writing to a *local* array is allowed (common in DCT kernels).
        let f = FilterBuilder::new("scratch", DataType::Float)
            .rates(2, 2, 2)
            .work(|b| {
                b.let_array("t", DataType::Float, 2)
                    .set_idx("t", 0, peek(0) + peek(1))
                    .set_idx("t", 1, peek(0) - peek(1))
                    .push(idx("t", 0))
                    .push(idx("t", 1))
                    .pop_discard()
                    .pop_discard()
            })
            .build();
        let rep = extract_linear(&f).unwrap();
        assert_eq!(rep.matrix[0], vec![1.0, 1.0]);
        assert_eq!(rep.matrix[1], vec![1.0, -1.0]);
    }
}
