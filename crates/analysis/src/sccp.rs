//! Sparse conditional constant propagation over the work IR, plus the
//! interval-domain value-range instance of the same solver.
//!
//! Constants are evaluated by [`streamit_graph::work::eval_const`], the
//! one definition of the work language's arithmetic that the reference
//! interpreter runs too; this module keeps only the lattices.
//!
//! Constants are wrapped in [`CVal`], whose equality is *bitwise* on
//! floats — `NaN == NaN` — so lattice facts compare reflexively and the
//! solver terminates.

use std::collections::{HashMap, HashSet};

use streamit_graph::work::{eval_const, ConstEnv};
use streamit_graph::{
    BinOp, DataType, Expr, Filter, Intrinsic, LValue, StateInit, Stmt, UnOp, Value,
};

use crate::cfg::{Cfg, Node};
use crate::dataflow::{solve, Analysis, Direction, Solution};
use crate::interval::Interval;

/// A constant value with bitwise (reflexive) float equality.
#[derive(Debug, Clone, Copy)]
pub struct CVal(pub Value);

impl PartialEq for CVal {
    fn eq(&self, other: &Self) -> bool {
        match (self.0, other.0) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}
impl Eq for CVal {}

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

// ---- the SCCP analysis instance ----------------------------------------

/// Map from trackable scalar name to its known-constant value.  A
/// missing key means "not constant here".  Unreachable nodes carry no
/// fact at all (`None` in the solution) — that is the "sparse
/// conditional" part: facts only ever flow along feasible edges.
pub type ConstFact = HashMap<String, CVal>;

pub struct ConstProp {
    seeds: StateSeeds,
    tys: HashMap<String, DataType>,
    pinned: HashSet<String>,
}

impl ConstProp {
    pub fn new(f: &Filter, block: &[Stmt]) -> ConstProp {
        let pinned = pinned_names(f, block);
        ConstProp {
            seeds: state_seeds(f, &pinned),
            tys: scalar_types(f, block, &pinned),
            pinned,
        }
    }

    /// Evaluate `e` to a constant under `fact` (plus the state seeds).
    pub fn eval(&self, e: &Expr, fact: &ConstFact) -> Option<Value> {
        let vars = |name: &str| fact.get(name).map(|c| c.0);
        let arrays = |name: &str, idx: i64| {
            if self.pinned.contains(name) {
                return None;
            }
            let vs = self.seeds.arrays.get(name)?;
            usize::try_from(idx).ok().and_then(|i| vs.get(i)).copied()
        };
        eval_const(
            e,
            &ConstEnv {
                vars: &vars,
                arrays: &arrays,
            },
        )
    }

    fn record(&self, fact: &mut ConstFact, name: &str, v: Option<Value>) {
        if self.pinned.contains(name) {
            return;
        }
        match (v, self.tys.get(name)) {
            (Some(v), Some(ty)) => {
                fact.insert(name.to_string(), CVal(v.coerce(*ty)));
            }
            _ => {
                fact.remove(name);
            }
        }
    }
}

impl<'a> Analysis<'a> for ConstProp {
    type Fact = ConstFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> ConstFact {
        self.seeds
            .scalars
            .iter()
            .map(|(k, v)| (k.clone(), CVal(*v)))
            .collect()
    }

    fn join(&self, into: &mut ConstFact, from: &ConstFact, _visits: u32) -> bool {
        let before = into.len();
        into.retain(|k, v| from.get(k) == Some(v));
        into.len() != before
    }

    fn transfer(&self, node: &Node<'a>, fact: &ConstFact) -> ConstFact {
        let mut f = fact.clone();
        match node {
            Node::Stmt(Stmt::Let { name, ty, init }) => {
                let v = self.eval(init, fact).map(|v| v.coerce(*ty));
                if self.pinned.contains(name) {
                    // untrackable
                } else if let Some(v) = v {
                    f.insert(name.clone(), CVal(v));
                } else {
                    f.remove(name);
                }
            }
            Node::Stmt(Stmt::Assign { target, value }) => match target {
                LValue::Var(name) => {
                    let v = self.eval(value, fact);
                    self.record(&mut f, name, v);
                }
                LValue::Index(..) => {
                    // Arrays are only tracked when immutable; a written
                    // array never seeds, so nothing to invalidate.
                }
            },
            Node::Stmt(Stmt::LetArray { name, .. }) => {
                f.remove(name);
            }
            Node::LoopHead { var, from, to, .. } => {
                // The loop variable is only a known constant when the
                // trip count is exactly one; handled per-edge below.
                // Here it is conservatively unknown.
                let _ = (from, to);
                f.remove(*var);
            }
            _ => {}
        }
        f
    }

    fn edge(&self, node: &Node<'a>, k: usize, out: &ConstFact) -> Option<ConstFact> {
        match node {
            Node::Branch { cond, .. } => {
                if let Some(v) = self.eval(cond, out) {
                    let taken = if v.is_truthy() { 0 } else { 1 };
                    if k != taken {
                        return None;
                    }
                }
                Some(out.clone())
            }
            Node::LoopHead { var, from, to, .. } => {
                let lo = self.eval(from, out).map(Value::as_i64);
                let hi = self.eval(to, out).map(Value::as_i64);
                match (k, lo, hi) {
                    // Body edge of a zero-trip loop: dead.
                    (0, Some(lo), Some(hi)) if lo >= hi => None,
                    // Body edge of a single-trip loop: the loop variable
                    // is the constant `from`.
                    (0, Some(lo), Some(hi)) if lo + 1 == hi && !self.pinned.contains(*var) => {
                        let mut f = out.clone();
                        f.insert((*var).to_string(), CVal(Value::Int(lo)));
                        Some(f)
                    }
                    _ => Some(out.clone()),
                }
            }
            _ => Some(out.clone()),
        }
    }
}

/// Solve constant propagation over one body.
pub fn solve_consts<'a>(cp: &ConstProp, cfg: &Cfg<'a>) -> Solution<ConstFact> {
    solve(cfg, cp)
}

// ---- the value-range analysis instance ---------------------------------

/// Map from int-typed scalar name to its interval.  Missing key = ⊤.
pub type RangeFact = HashMap<String, Interval>;

/// Joins widen after this many visits to guarantee termination on the
/// infinite-height interval lattice.
const WIDEN_AFTER: u32 = 8;

pub struct Ranges {
    int_tys: HashSet<String>,
    seeds: HashMap<String, i64>,
    pinned: HashSet<String>,
}

impl Ranges {
    pub fn new(f: &Filter, block: &[Stmt]) -> Ranges {
        let pinned = pinned_names(f, block);
        let seeds = state_seeds(f, &pinned);
        let tys = scalar_types(f, block, &pinned);
        Ranges {
            int_tys: tys
                .iter()
                .filter(|&(_, ty)| *ty == DataType::Int)
                .map(|(n, _)| n.clone())
                .collect(),
            seeds: seeds
                .scalars
                .iter()
                .filter_map(|(n, v)| match v {
                    Value::Int(i) => Some((n.clone(), *i)),
                    Value::Float(_) => None,
                })
                .collect(),
            pinned,
        }
    }

    /// Interval of an integer-valued expression, `None` when the value
    /// may be a float or is entirely unknown.  Endpoints saturate into
    /// the `NEG_INF`/`POS_INF` sentinels, which read as "unbounded" —
    /// sound with respect to the interpreter's wrapping arithmetic
    /// because any sum/product that could wrap saturates to a sentinel
    /// first.
    pub fn eval(&self, e: &Expr, fact: &RangeFact) -> Option<Interval> {
        match e {
            Expr::IntLit(i) => Some(Interval::constant(*i)),
            Expr::FloatLit(_) => None,
            Expr::Var(name) => fact.get(name).copied().or_else(|| {
                if self.int_tys.contains(name) || self.seeds.contains_key(name) {
                    Some(
                        self.seeds
                            .get(name)
                            .map(|&v| Interval::constant(v))
                            .unwrap_or(Interval::TOP),
                    )
                } else {
                    None
                }
            }),
            Expr::Index(..) | Expr::Peek(_) | Expr::Pop => None,
            Expr::Unary(op, a) => match op {
                UnOp::Neg => Some(self.eval(a, fact)?.neg()),
                UnOp::Not => Some(Interval::range(0, 1)),
                UnOp::BitNot => None,
            },
            Expr::Binary(op, a, b) => {
                if matches!(
                    op,
                    BinOp::Eq
                        | BinOp::Ne
                        | BinOp::Lt
                        | BinOp::Le
                        | BinOp::Gt
                        | BinOp::Ge
                        | BinOp::And
                        | BinOp::Or
                ) {
                    // Comparisons and logic always produce 0/1, on ints
                    // and floats alike.
                    return Some(Interval::range(0, 1));
                }
                let ia = self.eval(a, fact)?;
                let ib = self.eval(b, fact)?;
                match op {
                    BinOp::Add => Some(ia.add(&ib)),
                    BinOp::Sub => Some(ia.sub(&ib)),
                    BinOp::Mul => Some(ia.mul(&ib)),
                    _ => Some(Interval::TOP),
                }
            }
            Expr::Call(g, args) => match g {
                Intrinsic::Max if args.len() == 2 => {
                    let ia = self.eval(&args[0], fact)?;
                    let ib = self.eval(&args[1], fact)?;
                    Some(ia.join(&ib).max_with(ia.lo.max(ib.lo)))
                }
                Intrinsic::Abs if args.len() == 1 => {
                    let ia = self.eval(&args[0], fact)?;
                    if ia.lo >= 0 {
                        Some(ia)
                    } else {
                        Some(Interval::TOP)
                    }
                }
                _ => None,
            },
        }
    }

    /// Decide a branch condition from intervals alone: `Some(true)` when
    /// the condition is provably non-zero, `Some(false)` when provably
    /// zero.
    pub fn decide(&self, cond: &Expr, fact: &RangeFact) -> Option<bool> {
        let iv = self.eval(cond, fact)?;
        if !iv.contains(0) {
            Some(true)
        } else if iv.as_constant() == Some(0) {
            Some(false)
        } else {
            None
        }
    }
}

impl<'a> Analysis<'a> for Ranges {
    type Fact = RangeFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> RangeFact {
        self.seeds
            .iter()
            .map(|(n, &v)| (n.clone(), Interval::constant(v)))
            .collect()
    }

    fn join(&self, into: &mut RangeFact, from: &RangeFact, visits: u32) -> bool {
        let mut changed = false;
        into.retain(|k, _| {
            let keep = from.contains_key(k);
            changed |= !keep;
            keep
        });
        for (k, iv) in into.iter_mut() {
            let other = from.get(k).expect("retained above");
            let joined = iv.join(other);
            let next = if visits > WIDEN_AFTER {
                joined.widen(iv)
            } else {
                joined
            };
            if next != *iv {
                *iv = next;
                changed = true;
            }
        }
        changed
    }

    fn transfer(&self, node: &Node<'a>, fact: &RangeFact) -> RangeFact {
        let mut f = fact.clone();
        match node {
            Node::Stmt(Stmt::Let { name, ty, init }) => {
                if *ty == DataType::Int && !self.pinned.contains(name) {
                    match self.eval(init, fact) {
                        Some(iv) => {
                            f.insert(name.clone(), iv);
                        }
                        None => {
                            f.remove(name);
                        }
                    }
                } else {
                    f.remove(name);
                }
            }
            Node::Stmt(Stmt::Assign {
                target: LValue::Var(name),
                value,
            }) => {
                if self.int_tys.contains(name) && !self.pinned.contains(name) {
                    match self.eval(value, fact) {
                        Some(iv) => {
                            f.insert(name.clone(), iv);
                        }
                        None => {
                            f.remove(name);
                        }
                    }
                } else {
                    f.remove(name);
                }
            }
            Node::Stmt(Stmt::LetArray { name, .. }) => {
                f.remove(name);
            }
            Node::LoopHead { var, from, to, .. } => {
                if self.pinned.contains(*var) {
                    return f;
                }
                let lo = self.eval(from, fact);
                let hi = self.eval(to, fact);
                let iv = match (lo, hi) {
                    (Some(lo), Some(hi)) => {
                        let upper = hi.hi.saturating_sub(1);
                        if upper >= lo.lo {
                            Interval::range(lo.lo, upper)
                        } else {
                            // Loop provably never runs; the variable is
                            // never observable, any fact is fine.
                            Interval::constant(lo.lo)
                        }
                    }
                    _ => Interval::TOP,
                };
                f.insert((*var).to_string(), iv);
            }
            _ => {}
        }
        f
    }
}

/// Solve the value-range analysis over one body.
pub fn solve_ranges<'a>(r: &Ranges, cfg: &Cfg<'a>) -> Solution<RangeFact> {
    solve(cfg, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Cfg, EXIT};
    use streamit_graph::builder::*;

    fn filter_with(work: Vec<Stmt>) -> Filter {
        let mut f = FilterBuilder::new("t", DataType::Int)
            .rates(0, 0, 0)
            .build();
        f.work = work;
        f
    }

    fn let_(name: &str, ty: DataType, e: Expr) -> Stmt {
        Stmt::Let {
            name: name.into(),
            ty,
            init: e,
        }
    }

    fn assign(name: &str, e: Expr) -> Stmt {
        Stmt::Assign {
            target: LValue::Var(name.into()),
            value: e,
        }
    }

    fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    #[test]
    fn constants_flow_through_straight_line_code() {
        let work = vec![
            let_("a", DataType::Int, Expr::IntLit(3)),
            let_(
                "b",
                DataType::Int,
                bin(BinOp::Mul, Expr::Var("a".into()), Expr::IntLit(7)),
            ),
        ];
        let f = filter_with(work.clone());
        let cp = ConstProp::new(&f, &f.work);
        let cfg = Cfg::build(&f.work);
        let sol = solve_consts(&cp, &cfg);
        assert!(sol.converged);
        let exit = sol.before[EXIT].as_ref().expect("reachable");
        assert_eq!(exit.get("b"), Some(&CVal(Value::Int(21))));
    }

    #[test]
    fn conflicting_branch_assignments_are_not_constant() {
        let work = vec![
            let_("a", DataType::Int, Expr::IntLit(0)),
            Stmt::If {
                cond: Expr::Pop,
                then_body: vec![assign("a", Expr::IntLit(1))],
                else_body: vec![assign("a", Expr::IntLit(2))],
            },
        ];
        let f = filter_with(work);
        let cp = ConstProp::new(&f, &f.work);
        let cfg = Cfg::build(&f.work);
        let sol = solve_consts(&cp, &cfg);
        let exit = sol.before[EXIT].as_ref().expect("reachable");
        assert_eq!(exit.get("a"), None);
    }

    #[test]
    fn dead_branch_does_not_pollute_constants() {
        // `if (0) a = 99;` — SCCP never propagates through the dead arm,
        // so `a` stays the constant 1 (plain joining would lose it).
        let work = vec![
            let_("a", DataType::Int, Expr::IntLit(1)),
            Stmt::If {
                cond: Expr::IntLit(0),
                then_body: vec![assign("a", Expr::IntLit(99))],
                else_body: vec![],
            },
        ];
        let f = filter_with(work);
        let cp = ConstProp::new(&f, &f.work);
        let cfg = Cfg::build(&f.work);
        let sol = solve_consts(&cp, &cfg);
        let exit = sol.before[EXIT].as_ref().expect("reachable");
        assert_eq!(exit.get("a"), Some(&CVal(Value::Int(1))));
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

    #[test]
    fn loop_variable_ranges_are_derived_from_bounds() {
        let work = vec![Stmt::For {
            var: "i".into(),
            from: Expr::IntLit(2),
            to: Expr::IntLit(10),
            body: vec![let_("x", DataType::Int, Expr::Var("i".into()))],
        }];
        let f = filter_with(work);
        let r = Ranges::new(&f, &f.work);
        let cfg = Cfg::build(&f.work);
        let sol = solve_ranges(&r, &cfg);
        assert!(sol.converged);
        // Find the Let node inside the body and check `i`'s interval.
        let let_node = cfg
            .nodes
            .iter()
            .position(|n| matches!(n, Node::Stmt(Stmt::Let { .. })))
            .expect("let node");
        let fact = sol.before[let_node].as_ref().expect("reachable");
        assert_eq!(fact.get("i"), Some(&Interval::range(2, 9)));
    }

    #[test]
    fn widening_terminates_an_unbounded_accumulator() {
        // `s = s + 1` in a loop has an infinite ascending chain; the
        // widened solution must still converge.
        let work = vec![
            let_("s", DataType::Int, Expr::IntLit(0)),
            Stmt::For {
                var: "i".into(),
                from: Expr::IntLit(0),
                to: Expr::Pop,
                body: vec![assign(
                    "s",
                    bin(BinOp::Add, Expr::Var("s".into()), Expr::IntLit(1)),
                )],
            },
        ];
        let f = filter_with(work);
        let r = Ranges::new(&f, &f.work);
        let cfg = Cfg::build(&f.work);
        let sol = solve_ranges(&r, &cfg);
        assert!(sol.converged);
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
                                CVal(got),
                                CVal(v),
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
