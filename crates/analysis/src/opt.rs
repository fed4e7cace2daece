//! Semantics-preserving optimizer over the work IR.
//!
//! Runs before bytecode lowering so both the compiled and parallel
//! engines execute the optimized IR.  Every transform preserves the
//! reference interpreter's semantics *exactly* — wrapping integer
//! arithmetic, NaN propagation, evaluation order, and every trap:
//!
//! * **Constant folding** uses [`streamit_graph::work::eval_const`], the
//!   evaluator the interpreter's own arithmetic is defined by (a fold
//!   that would hide a trap — integer division by zero — is refused).
//! * **Branch pruning** fires only when the condition folds to a literal,
//!   which no expression that can trap or touch the tape does.
//! * **Loop unrolling** requires literal bounds, a body that declares no
//!   locals and never writes the loop variable, and stays under a fuel
//!   budget sized so the bytecode register/code limits cannot overflow.
//!   Loops that reuse one variable name unroll as long as nothing but
//!   loops binds that name ([`loop_only_names`]).
//! * **Dead-store elimination** only deletes a store whose value
//!   expression is provably total (no `pop`/`peek`, no possible trap);
//!   an impure dead store is rewritten to a bare expression statement so
//!   its tape effects and traps survive.
//! * **Copy propagation** replaces `let x = y` by `y` only when both
//!   names are unique, never reassigned, and share a declared type (a
//!   `let` coerces, so a cross-type copy is a conversion, not a copy).
//!
//! Scope discipline: name-shadowing is conservatively excluded up front
//! ([`crate::scope::pinned_names`]), `if` arms are spliced only when they
//! declare no top-level locals, and a deleted dead `let` whose name is
//! re-assigned later keeps its declaration (with a zeroed initializer)
//! so lowering still sees the binding.

use std::collections::{HashMap, HashSet};

use streamit_graph::work::{eval_const, int_binop, ConstEnv};
use streamit_graph::{DataType, Expr, Filter, LValue, Stmt, Value};

use crate::liveness::{dead_stores, DeadStore};
use crate::scope::{pinned_names, scalar_types, state_seeds, StateSeeds};

/// Maximum trip count a single loop may be unrolled by.
const MAX_UNROLL_TRIPS: i64 = 256;
/// Maximum `trips x body-statements` product for one loop.
const MAX_UNROLL_BODY: usize = 1024;
/// Total statement fuel for unrolling across one body — sized so the
/// bytecode register budget (fresh register per expression) can't blow.
const MAX_UNROLL_TOTAL: usize = 4096;
/// Fold/prune/DSE rounds per body.
const MAX_ROUNDS: usize = 4;

/// Counters for everything the optimizer did (also used for fixpoint
/// detection, so float-literal `PartialEq` pitfalls never matter).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    pub rounds: u32,
    pub folds: u32,
    pub pruned_branches: u32,
    pub unrolled_loops: u32,
    pub removed_stores: u32,
    pub propagated_copies: u32,
    pub deleted_stmts: u32,
}

impl OptStats {
    fn work_done(&self) -> u32 {
        self.folds
            + self.pruned_branches
            + self.unrolled_loops
            + self.removed_stores
            + self.propagated_copies
            + self.deleted_stmts
    }

    /// Did the optimizer change anything at all?
    pub fn changed(&self) -> bool {
        self.work_done() > 0
    }
}

/// Optimize a filter's work (and prework) body.  Handlers, state,
/// declared rates, and kernel hints are untouched; the result is
/// behaviorally identical to the input under the reference interpreter.
pub fn optimize_filter(f: &Filter) -> (Filter, OptStats) {
    let mut out = f.clone();
    let mut stats = OptStats::default();
    out.work = optimize_body(f, std::mem::take(&mut out.work), &mut stats);
    if let Some(mut pw) = out.prework.take() {
        pw.body = optimize_body(f, std::mem::take(&mut pw.body), &mut stats);
        out.prework = Some(pw);
    }
    (out, stats)
}

fn optimize_body(f: &Filter, mut block: Vec<Stmt>, stats: &mut OptStats) -> Vec<Stmt> {
    for _ in 0..MAX_ROUNDS {
        let before = stats.work_done();
        block = one_round(f, block, stats);
        stats.rounds += 1;
        if stats.work_done() == before {
            break;
        }
    }
    block
}

fn one_round(f: &Filter, block: Vec<Stmt>, stats: &mut OptStats) -> Vec<Stmt> {
    let mut fold = Folder::new(f, &block, MAX_UNROLL_TOTAL, stats);
    let folded = fold.run(&block);
    drop(block);

    let folded = copy_prop(folded, &fold.pinned, &fold.tys, fold.stats);
    eliminate_dead_stores(f, folded, stats)
}

/// The truth of every `if` of `block`, a body of `f` as written, whose
/// condition constant propagation decides and literal arithmetic alone
/// does not, in source order (lint `L0607`).  Loops stay rolled, so each
/// `if` is met at most once and a loop counter is never a constant.
pub(crate) fn constant_conditions(f: &Filter, block: &[Stmt]) -> Vec<bool> {
    let mut stats = OptStats::default();
    let mut fold = Folder::new(f, block, 0, &mut stats);
    fold.run(block);
    fold.propagated
}

// ---- constant folding, branch pruning, unrolling ------------------------

/// Known-constant scalars at the current program point.
type ConstMap = HashMap<String, Value>;

fn bit_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

fn zero_lit(ty: DataType) -> Expr {
    ty.zero().into()
}

/// Is evaluating `e` provably free of traps, tape access, and message
/// sends — so it can be deleted (or re-evaluated under a pruned branch
/// shape) without observable effect?
pub(crate) fn pure_total(e: &Expr) -> bool {
    use streamit_graph::BinOp;
    match e {
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) => true,
        // An indexed read can trap out-of-bounds, a peek can trap out of
        // window, a pop consumes input.
        Expr::Index(..) | Expr::Peek(_) | Expr::Pop => false,
        Expr::Unary(_, a) => pure_total(a),
        Expr::Binary(op, a, b) => {
            if !pure_total(a) || !pure_total(b) {
                return false;
            }
            match op {
                BinOp::Div | BinOp::Rem => {
                    // Total only when the division is provably float
                    // (IEEE: no trap) or by an integer literal the
                    // scalar table divides even `i64::MIN` by (which
                    // rules out exactly 0 and -1).
                    matches!(**a, Expr::FloatLit(_))
                        || matches!(**b, Expr::FloatLit(_))
                        || matches!(**b, Expr::IntLit(n) if int_binop(*op, i64::MIN, n).is_some())
                }
                _ => true,
            }
        }
        Expr::Call(g, args) => args.len() == g.arity() && args.iter().all(pure_total),
    }
}

/// Names assigned (or used as a loop variable) anywhere in `block`.
fn assigned_names(block: &[Stmt]) -> HashSet<String> {
    let mut out = HashSet::new();
    streamit_graph::work::visit_block(block, &mut |s| match s {
        Stmt::Assign { target, .. } => {
            out.insert(target.name().to_string());
        }
        Stmt::For { var, .. } => {
            out.insert(var.clone());
        }
        _ => {}
    });
    out
}

fn count_stmts(block: &[Stmt]) -> usize {
    let mut n = 0;
    streamit_graph::work::visit_block(block, &mut |_| n += 1);
    n
}

/// Substitute every read of `var` by the literal `v` (no declarations of
/// `var` exist below — callers check).
fn subst_var_expr(e: &Expr, var: &str, v: Value) -> Expr {
    match e {
        Expr::Var(n) if n == var => v.into(),
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) | Expr::Pop => e.clone(),
        Expr::Index(n, i) => Expr::Index(n.clone(), Box::new(subst_var_expr(i, var, v))),
        Expr::Peek(i) => Expr::Peek(Box::new(subst_var_expr(i, var, v))),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(subst_var_expr(a, var, v))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(subst_var_expr(a, var, v)),
            Box::new(subst_var_expr(b, var, v)),
        ),
        Expr::Call(g, args) => {
            Expr::Call(*g, args.iter().map(|a| subst_var_expr(a, var, v)).collect())
        }
    }
}

fn subst_var_stmt(s: &Stmt, var: &str, v: Value) -> Stmt {
    let sub = |e: &Expr| subst_var_expr(e, var, v);
    match s {
        Stmt::Let { name, ty, init } => Stmt::Let {
            name: name.clone(),
            ty: *ty,
            init: sub(init),
        },
        Stmt::LetArray { .. } => s.clone(),
        Stmt::Assign { target, value } => Stmt::Assign {
            target: match target {
                LValue::Var(n) => LValue::Var(n.clone()),
                LValue::Index(n, i) => LValue::Index(n.clone(), sub(i)),
            },
            value: sub(value),
        },
        Stmt::Push(e) => Stmt::Push(sub(e)),
        Stmt::Expr(e) => Stmt::Expr(sub(e)),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => Stmt::If {
            cond: sub(cond),
            then_body: then_body
                .iter()
                .map(|t| subst_var_stmt(t, var, v))
                .collect(),
            else_body: else_body
                .iter()
                .map(|t| subst_var_stmt(t, var, v))
                .collect(),
        },
        Stmt::For {
            var: lv,
            from,
            to,
            body,
        } => Stmt::For {
            var: lv.clone(),
            from: sub(from),
            to: sub(to),
            body: body.iter().map(|t| subst_var_stmt(t, var, v)).collect(),
        },
        Stmt::Send {
            portal,
            handler,
            args,
            latency_min,
            latency_max,
        } => Stmt::Send {
            portal: portal.clone(),
            handler: handler.clone(),
            args: args.iter().map(&sub).collect(),
            latency_min: *latency_min,
            latency_max: *latency_max,
        },
    }
}

struct Folder<'c> {
    pinned: HashSet<String>,
    loop_only: HashSet<String>,
    seeds: StateSeeds,
    tys: HashMap<String, DataType>,
    stats: &'c mut OptStats,
    /// Statements unrolling may still write.
    fuel: usize,
    /// See [`constant_conditions`].
    propagated: Vec<bool>,
}

impl<'c> Folder<'c> {
    fn new(f: &Filter, block: &[Stmt], fuel: usize, stats: &'c mut OptStats) -> Folder<'c> {
        let pinned = pinned_names(f, block);
        Folder {
            loop_only: loop_only_names(f, block, &pinned),
            seeds: state_seeds(f, &pinned),
            tys: scalar_types(f, block, &pinned),
            pinned,
            stats,
            fuel,
            propagated: Vec::new(),
        }
    }

    /// Fold `block`, a whole body, from the state seeds.
    fn run(&mut self, block: &[Stmt]) -> Vec<Stmt> {
        let mut env: ConstMap = self.seeds.scalars.clone();
        self.block(block, &mut env)
    }

    fn eval(&self, e: &Expr, env: &ConstMap) -> Option<Value> {
        let vars = |name: &str| env.get(name).copied();
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

    /// Fold an expression bottom-up: replace every maximal constant
    /// subtree by its literal.
    fn fold_expr(&mut self, e: &Expr, env: &ConstMap) -> Expr {
        if let Some(v) = self.eval(e, env) {
            let already = matches!(e, Expr::IntLit(_) | Expr::FloatLit(_));
            if !already {
                self.stats.folds += 1;
            }
            return v.into();
        }
        match e {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) | Expr::Pop => e.clone(),
            Expr::Index(n, i) => Expr::Index(n.clone(), Box::new(self.fold_expr(i, env))),
            Expr::Peek(i) => Expr::Peek(Box::new(self.fold_expr(i, env))),
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(self.fold_expr(a, env))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(self.fold_expr(a, env)),
                Box::new(self.fold_expr(b, env)),
            ),
            Expr::Call(g, args) => {
                Expr::Call(*g, args.iter().map(|a| self.fold_expr(a, env)).collect())
            }
        }
    }

    fn record(&self, env: &mut ConstMap, name: &str, v: Option<Value>) {
        if self.pinned.contains(name) {
            return;
        }
        match (v, self.tys.get(name)) {
            (Some(v), Some(ty)) => {
                env.insert(name.to_string(), v.coerce(*ty));
            }
            _ => {
                env.remove(name);
            }
        }
    }

    fn block(&mut self, block: &[Stmt], env: &mut ConstMap) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(block.len());
        for s in block {
            self.stmt(s, env, &mut out);
        }
        out
    }

    fn stmt(&mut self, s: &Stmt, env: &mut ConstMap, out: &mut Vec<Stmt>) {
        match s {
            Stmt::Let { name, ty, init } => {
                let init = self.fold_expr(init, env);
                let v = self.eval(&init, env).map(|v| v.coerce(*ty));
                if self.pinned.contains(name) {
                    // untrackable
                } else if let Some(v) = v {
                    env.insert(name.clone(), v);
                } else {
                    env.remove(name);
                }
                out.push(Stmt::Let {
                    name: name.clone(),
                    ty: *ty,
                    init,
                });
            }
            Stmt::LetArray { name, ty, len } => {
                env.remove(name);
                out.push(Stmt::LetArray {
                    name: name.clone(),
                    ty: *ty,
                    len: *len,
                });
            }
            Stmt::Assign { target, value } => {
                let value = self.fold_expr(value, env);
                let target = match target {
                    LValue::Var(name) => {
                        let v = self.eval(&value, env);
                        self.record(env, name, v);
                        LValue::Var(name.clone())
                    }
                    LValue::Index(name, i) => LValue::Index(name.clone(), self.fold_expr(i, env)),
                };
                out.push(Stmt::Assign { target, value });
            }
            Stmt::Push(e) => {
                let e = self.fold_expr(e, env);
                out.push(Stmt::Push(e));
            }
            Stmt::Expr(e) => {
                let e = self.fold_expr(e, env);
                if pure_total(&e) {
                    self.stats.deleted_stmts += 1;
                } else {
                    out.push(Stmt::Expr(e));
                }
            }
            Stmt::Send {
                portal,
                handler,
                args,
                latency_min,
                latency_max,
            } => {
                let args = args.iter().map(|a| self.fold_expr(a, env)).collect();
                out.push(Stmt::Send {
                    portal: portal.clone(),
                    handler: handler.clone(),
                    args,
                    latency_min: *latency_min,
                    latency_max: *latency_max,
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.fold_if(cond, then_body, else_body, env, out);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                self.fold_for(var, from, to, body, env, out);
            }
        }
    }

    fn fold_if(
        &mut self,
        written: &Expr,
        then_body: &[Stmt],
        else_body: &[Stmt],
        env: &mut ConstMap,
        out: &mut Vec<Stmt>,
    ) {
        let cond = self.fold_expr(written, env);
        let taken = self.eval(&cond, env).map(Value::is_truthy);
        if let Some(truthy) = taken {
            self.stats.pruned_branches += 1;
            if eval_const(written, &ConstEnv::EMPTY).is_none() {
                self.propagated.push(truthy);
            }
            let arm = if truthy { then_body } else { else_body };
            let splices = !arm
                .iter()
                .any(|s| matches!(s, Stmt::Let { .. } | Stmt::LetArray { .. }));
            let arm = self.block(arm, env);
            if splices {
                out.extend(arm);
            } else {
                // Keep the scope wrapper; the dead arm is dropped and
                // the condition reduced to a trivial literal.
                let (t, e) = if truthy {
                    (arm, Vec::new())
                } else {
                    (Vec::new(), arm)
                };
                out.push(Stmt::If {
                    cond: Expr::IntLit(truthy as i64),
                    then_body: t,
                    else_body: e,
                });
            }
            return;
        }
        let mut env_then = env.clone();
        let mut env_else = env.clone();
        let then_body = self.block(then_body, &mut env_then);
        let else_body = self.block(else_body, &mut env_else);
        // Meet: keep only facts both arms agree on.
        env.clear();
        for (k, v) in env_then {
            if env_else.get(&k).copied().is_some_and(|w| bit_eq(v, w)) {
                env.insert(k, v);
            }
        }
        if then_body.is_empty() && else_body.is_empty() {
            // The branch decides nothing; only the condition's effects
            // remain (deleted next if pure).
            if pure_total(&cond) {
                self.stats.deleted_stmts += 1;
            } else {
                out.push(Stmt::Expr(cond));
            }
            return;
        }
        out.push(Stmt::If {
            cond,
            then_body,
            else_body,
        });
    }

    fn fold_for(
        &mut self,
        var: &str,
        from: &Expr,
        to: &Expr,
        body: &[Stmt],
        env: &mut ConstMap,
        out: &mut Vec<Stmt>,
    ) {
        // Bounds are evaluated once, before the first iteration.
        let from = self.fold_expr(from, env);
        let to = self.fold_expr(to, env);

        let bounds = match (&from, &to) {
            (Expr::IntLit(a), Expr::IntLit(b)) => Some((*a, *b)),
            _ => None,
        };
        if let Some((lo, hi)) = bounds {
            if hi <= lo {
                // Zero trips; literal bounds have no effects to keep.
                self.stats.deleted_stmts += 1;
                return;
            }
            let trips = hi.saturating_sub(lo);
            let stmts = count_stmts(body);
            let cost = stmts.saturating_mul(usize::try_from(trips).unwrap_or(usize::MAX));
            let unrollable = trips <= MAX_UNROLL_TRIPS
                && cost <= MAX_UNROLL_BODY
                && cost <= self.fuel
                && (!self.pinned.contains(var) || self.loop_only.contains(var))
                && !body_blocks_unroll(body, var);
            if unrollable {
                self.fuel -= cost;
                self.stats.unrolled_loops += 1;
                for i in lo..hi {
                    for s in body {
                        let s = subst_var_stmt(s, var, Value::Int(i));
                        self.stmt(&s, env, out);
                    }
                }
                return;
            }
        }

        // Not unrolled: facts about names the body writes don't survive
        // the loop (any iteration count, including zero).
        for n in assigned_names(body) {
            env.remove(&n);
        }
        let mut benv = env.clone();
        benv.remove(var);
        let body = self.block(body, &mut benv);
        // `benv` gains are per-iteration facts; discard them.
        if body.is_empty() {
            // Only the one-time bound evaluations remain observable.
            for e in [from, to] {
                if pure_total(&e) {
                    self.stats.deleted_stmts += 1;
                } else {
                    out.push(Stmt::Expr(e));
                }
            }
            return;
        }
        out.push(Stmt::For {
            var: var.to_string(),
            from,
            to,
            body,
        });
    }
}

/// Pinned names that only loops introduce: no state field, `let` or
/// array shares them.  A `for` binds its variable in a scope of its
/// own, so once [`body_blocks_unroll`] has ruled out a re-binding
/// inside the body, every use of the name there is this loop's counter
/// and literal substitution is exact — sibling loops reusing one name
/// (`for c {..} for c {..}`) each unroll.  A name a state field or a
/// local also carries stays excluded: substituting it could change
/// which binding an `x[i]` or a later read resolves to.
fn loop_only_names(f: &Filter, block: &[Stmt], pinned: &HashSet<String>) -> HashSet<String> {
    if pinned.is_empty() {
        return HashSet::new();
    }
    let mut out = pinned.clone();
    for sv in &f.state {
        out.remove(&sv.name);
    }
    streamit_graph::work::visit_block(block, &mut |s| {
        if let Stmt::Let { name, .. } | Stmt::LetArray { name, .. } = s {
            out.remove(name);
        }
    });
    out
}

/// `true` when the loop body prevents literal substitution of `var`:
/// it declares any local (splicing would merge scopes), re-declares or
/// assigns the loop variable, or nests a loop over the same name.
fn body_blocks_unroll(body: &[Stmt], var: &str) -> bool {
    let mut blocked = false;
    streamit_graph::work::visit_block(body, &mut |s| match s {
        Stmt::Let { .. } | Stmt::LetArray { .. } => blocked = true,
        Stmt::Assign { target, .. } if target.name() == var => blocked = true,
        Stmt::For { var: v, .. } if v == var => blocked = true,
        _ => {}
    });
    blocked
}

// ---- copy propagation ---------------------------------------------------

fn copy_prop(
    block: Vec<Stmt>,
    pinned: &HashSet<String>,
    tys: &HashMap<String, DataType>,
    stats: &mut OptStats,
) -> Vec<Stmt> {
    let assigned = assigned_names(&block);
    let mut subst: HashMap<String, String> = HashMap::new();
    cp_block(block, pinned, tys, &assigned, &mut subst, stats)
}

fn cp_expr(e: &Expr, subst: &HashMap<String, String>) -> Expr {
    match e {
        Expr::Var(n) => match subst.get(n) {
            Some(to) => Expr::Var(to.clone()),
            None => e.clone(),
        },
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Pop => e.clone(),
        Expr::Index(n, i) => Expr::Index(n.clone(), Box::new(cp_expr(i, subst))),
        Expr::Peek(i) => Expr::Peek(Box::new(cp_expr(i, subst))),
        Expr::Unary(op, a) => Expr::Unary(*op, Box::new(cp_expr(a, subst))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(cp_expr(a, subst)),
            Box::new(cp_expr(b, subst)),
        ),
        Expr::Call(g, args) => Expr::Call(*g, args.iter().map(|a| cp_expr(a, subst)).collect()),
    }
}

fn cp_block(
    block: Vec<Stmt>,
    pinned: &HashSet<String>,
    tys: &HashMap<String, DataType>,
    assigned: &HashSet<String>,
    subst: &mut HashMap<String, String>,
    stats: &mut OptStats,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(block.len());
    for s in block {
        match s {
            Stmt::Let { name, ty, init } => {
                let init = cp_expr(&init, subst);
                if let Expr::Var(y) = &init {
                    let same_ty = tys.get(&name).zip(tys.get(y)).is_some_and(|(a, b)| a == b);
                    if same_ty
                        && !pinned.contains(&name)
                        && !pinned.contains(y)
                        && !assigned.contains(&name)
                        && !assigned.contains(y)
                    {
                        stats.propagated_copies += 1;
                        subst.insert(name, y.clone());
                        continue;
                    }
                }
                out.push(Stmt::Let { name, ty, init });
            }
            Stmt::Assign { target, value } => {
                let target = match target {
                    LValue::Var(n) => LValue::Var(n),
                    LValue::Index(n, i) => LValue::Index(n, cp_expr(&i, subst)),
                };
                out.push(Stmt::Assign {
                    target,
                    value: cp_expr(&value, subst),
                });
            }
            Stmt::Push(e) => out.push(Stmt::Push(cp_expr(&e, subst))),
            Stmt::Expr(e) => out.push(Stmt::Expr(cp_expr(&e, subst))),
            Stmt::Send {
                portal,
                handler,
                args,
                latency_min,
                latency_max,
            } => out.push(Stmt::Send {
                portal,
                handler,
                args: args.iter().map(|a| cp_expr(a, subst)).collect(),
                latency_min,
                latency_max,
            }),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => out.push(Stmt::If {
                cond: cp_expr(&cond, subst),
                then_body: cp_block(then_body, pinned, tys, assigned, subst, stats),
                else_body: cp_block(else_body, pinned, tys, assigned, subst, stats),
            }),
            Stmt::For {
                var,
                from,
                to,
                body,
            } => out.push(Stmt::For {
                var,
                from: cp_expr(&from, subst),
                to: cp_expr(&to, subst),
                body: cp_block(body, pinned, tys, assigned, subst, stats),
            }),
            s @ Stmt::LetArray { .. } => out.push(s),
        }
    }
    out
}

// ---- dead-store elimination --------------------------------------------

fn eliminate_dead_stores(f: &Filter, block: Vec<Stmt>, stats: &mut OptStats) -> Vec<Stmt> {
    let dead = dead_stores(f, &block);
    if dead.is_empty() {
        return block;
    }
    let assigned = assigned_names(&block);
    let mut dead = dead.as_slice();
    let out = dse_block(&block, &mut dead, &assigned, stats);
    debug_assert!(dead.is_empty(), "dead stores come in source order");
    out
}

/// `dead` is what is left of the block's dead stores, in source order —
/// the order this walk meets statements in.
fn dse_block(
    block: &[Stmt],
    dead: &mut &[DeadStore<'_>],
    assigned: &HashSet<String>,
    stats: &mut OptStats,
) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(block.len());
    for s in block {
        let is_dead = dead.first().is_some_and(|d| std::ptr::eq(d.stmt, s));
        if is_dead {
            *dead = &dead[1..];
        }
        match s {
            Stmt::Let { name, ty, init } if is_dead => {
                if assigned.contains(name) {
                    // The binding is re-assigned later: keep the
                    // declaration, zero the (unread) initializer.
                    if pure_total(init) && !matches!(init, Expr::IntLit(_) | Expr::FloatLit(_)) {
                        stats.removed_stores += 1;
                        out.push(Stmt::Let {
                            name: name.clone(),
                            ty: *ty,
                            init: zero_lit(*ty),
                        });
                    } else {
                        out.push(s.clone());
                    }
                } else if pure_total(init) {
                    stats.removed_stores += 1;
                } else {
                    out.push(s.clone());
                }
            }
            Stmt::Assign { value, .. } if is_dead => {
                stats.removed_stores += 1;
                if !pure_total(value) {
                    // Keep the value's effects (pops, possible traps),
                    // drop the store.
                    out.push(Stmt::Expr(value.clone()));
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => out.push(Stmt::If {
                cond: cond.clone(),
                then_body: dse_block(then_body, dead, assigned, stats),
                else_body: dse_block(else_body, dead, assigned, stats),
            }),
            Stmt::For {
                var,
                from,
                to,
                body,
            } => out.push(Stmt::For {
                var: var.clone(),
                from: from.clone(),
                to: to.clone(),
                body: dse_block(body, dead, assigned, stats),
            }),
            other => out.push(other.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::FilterBuilder;
    use streamit_graph::{BinOp, StateVar};
    use streamit_interp::{eval_block_bounded, EvalCtx, RuntimeError, Slot};

    fn filter_with(state: Vec<StateVar>, work: Vec<Stmt>) -> Filter {
        let mut f = FilterBuilder::new("t", DataType::Float)
            .rates(0, 0, 0)
            .build();
        f.state = state;
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

    fn var(n: &str) -> Expr {
        Expr::Var(n.into())
    }

    /// Interpreter harness with a real input tape.
    struct Tape {
        input: Vec<Value>,
        pos: usize,
        out: Vec<Value>,
    }
    impl Tape {
        fn new(input: Vec<Value>) -> Tape {
            Tape {
                input,
                pos: 0,
                out: Vec::new(),
            }
        }
    }
    impl EvalCtx for Tape {
        fn node_name(&self) -> &str {
            "t"
        }
        fn peek(&mut self, i: u64) -> Result<Value, RuntimeError> {
            self.input
                .get(self.pos + i as usize)
                .copied()
                .ok_or(RuntimeError::TapeUnderflow {
                    node: "t".into(),
                    needed: i + 1,
                    had: 0,
                    declared: None,
                })
        }
        fn pop(&mut self) -> Result<Value, RuntimeError> {
            let v = self.peek(0)?;
            self.pos += 1;
            Ok(v)
        }
        fn push(&mut self, v: Value) -> Result<(), RuntimeError> {
            self.out.push(v);
            Ok(())
        }
        fn send(
            &mut self,
            _: &str,
            _: &str,
            _: Vec<Value>,
            _: (i64, i64),
        ) -> Result<(), RuntimeError> {
            Ok(())
        }
    }

    /// Run a filter body under the interpreter; returns pushed outputs.
    fn run(f: &Filter, body: &[Stmt], input: &[f64]) -> Vec<u64> {
        let mut state: std::collections::HashMap<String, Slot> = f
            .state
            .iter()
            .map(|sv| {
                let slot = match &sv.init {
                    streamit_graph::StateInit::Scalar(v) => Slot::Scalar(*v),
                    streamit_graph::StateInit::Array(vs) => Slot::Array(vs.clone()),
                };
                (sv.name.clone(), slot)
            })
            .collect();
        let mut ctx = Tape::new(input.iter().map(|&x| Value::Float(x)).collect());
        eval_block_bounded(
            body,
            &mut state,
            std::collections::HashMap::new(),
            &mut ctx,
            1_000_000,
        )
        .expect("body evaluates");
        ctx.out
            .iter()
            .map(|v| match v {
                Value::Float(f) => f.to_bits(),
                Value::Int(i) => *i as u64,
            })
            .collect()
    }

    /// The optimizer's core contract: identical interpreter behavior.
    fn assert_equivalent(f: &Filter, input: &[f64]) -> OptStats {
        let (opt, stats) = optimize_filter(f);
        let want = run(f, &f.work, input);
        let got = run(&opt, &opt.work, input);
        assert_eq!(want, got, "optimized body diverges");
        stats
    }

    #[test]
    fn folds_arithmetic_to_literals() {
        let f = filter_with(
            vec![],
            vec![Stmt::Push(bin(
                BinOp::Add,
                Expr::FloatLit(2.0),
                bin(BinOp::Mul, Expr::FloatLit(3.0), Expr::FloatLit(4.0)),
            ))],
        );
        let (opt, stats) = optimize_filter(&f);
        assert!(stats.folds > 0);
        assert!(matches!(opt.work[0], Stmt::Push(Expr::FloatLit(v)) if v == 14.0));
        assert_equivalent(&f, &[]);
    }

    #[test]
    fn immutable_state_feeds_folding() {
        // `n` is never assigned, so `n * 2` is the constant 10.
        let f = filter_with(
            vec![StateVar::scalar("n", DataType::Int, Value::Int(5))],
            vec![Stmt::Push(bin(BinOp::Mul, var("n"), Expr::IntLit(2)))],
        );
        let (opt, _) = optimize_filter(&f);
        assert!(matches!(opt.work[0], Stmt::Push(Expr::IntLit(10))));
    }

    #[test]
    fn state_seeds_take_the_declared_type() {
        // The interpreter coerces an initialiser to the declared type:
        // `float g = 1` holds 1.0, so `g / 2` is 0.5 and not the integer
        // quotient 0; `int n = 2.9` holds 2.  Arrays element-wise.
        let f = filter_with(
            vec![
                StateVar::scalar("g", DataType::Float, Value::Int(1)),
                StateVar::scalar("n", DataType::Int, Value::Float(2.9)),
                StateVar {
                    name: "a".into(),
                    ty: DataType::Float,
                    init: streamit_graph::StateInit::Array(vec![Value::Int(3)]),
                },
            ],
            vec![
                Stmt::Push(bin(
                    BinOp::Mul,
                    Expr::Pop,
                    bin(BinOp::Div, var("g"), Expr::IntLit(2)),
                )),
                Stmt::Push(bin(BinOp::Mul, var("n"), Expr::IntLit(2))),
                Stmt::Push(bin(
                    BinOp::Div,
                    Expr::Index("a".into(), Box::new(Expr::IntLit(0))),
                    Expr::IntLit(2),
                )),
            ],
        );
        let (opt, _) = optimize_filter(&f);
        assert_eq!(
            opt.work,
            vec![
                Stmt::Push(bin(BinOp::Mul, Expr::Pop, Expr::FloatLit(0.5))),
                Stmt::Push(Expr::IntLit(4)),
                Stmt::Push(Expr::FloatLit(1.5)),
            ]
        );
    }

    #[test]
    fn constant_branches_are_pruned() {
        let f = filter_with(
            vec![],
            vec![Stmt::If {
                cond: Expr::IntLit(1),
                then_body: vec![Stmt::Push(Expr::FloatLit(1.0))],
                else_body: vec![Stmt::Push(Expr::FloatLit(2.0))],
            }],
        );
        let (opt, stats) = optimize_filter(&f);
        assert_eq!(stats.pruned_branches, 1);
        assert_eq!(opt.work.len(), 1);
        assert!(matches!(opt.work[0], Stmt::Push(Expr::FloatLit(v)) if v == 1.0));
        assert_equivalent(&f, &[]);
    }

    #[test]
    fn fir_style_loop_unrolls_and_folds_taps() {
        // for t in 0..4 { acc = acc + peek(t) * w[t] } — unrolls, and the
        // tap reads fold to literals from the immutable weight array.
        let w: Vec<Value> = (0..4).map(|i| Value::Float(0.5 + i as f64)).collect();
        let f = filter_with(
            vec![
                StateVar::array("w", DataType::Float, w),
                StateVar::scalar("acc0", DataType::Float, Value::Float(0.0)),
            ],
            vec![
                let_("acc", DataType::Float, Expr::FloatLit(0.0)),
                Stmt::For {
                    var: "t".into(),
                    from: Expr::IntLit(0),
                    to: Expr::IntLit(4),
                    body: vec![assign(
                        "acc",
                        bin(
                            BinOp::Add,
                            var("acc"),
                            bin(
                                BinOp::Mul,
                                Expr::Peek(Box::new(var("t"))),
                                Expr::Index("w".into(), Box::new(var("t"))),
                            ),
                        ),
                    )],
                },
                Stmt::Push(var("acc")),
            ],
        );
        let (opt, stats) = optimize_filter(&f);
        assert_eq!(stats.unrolled_loops, 1);
        assert!(
            !opt.work.iter().any(|s| matches!(s, Stmt::For { .. })),
            "loop fully unrolled"
        );
        // Every weight read became a literal.
        let mut has_index = false;
        streamit_graph::work::visit_block(&opt.work, &mut |s| {
            s.visit_exprs(&mut |e| {
                e.visit(&mut |e| {
                    if matches!(e, Expr::Index(..)) {
                        has_index = true;
                    }
                });
            });
        });
        assert!(!has_index, "weight reads folded to literals");
        assert_equivalent(&f, &[1.0, -2.0, 3.5, 0.25]);
    }

    fn for_(var: &str, to: i64, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var: var.into(),
            from: Expr::IntLit(0),
            to: Expr::IntLit(to),
            body,
        }
    }

    #[test]
    fn loops_reusing_one_variable_name_all_unroll() {
        // beamformer's `Steer`: `for c { s = s + peek(c) } push(s);
        // for c { pop() }`, plus a nest over the same name.  Every
        // binding of `c` is a loop's own, so each loop unrolls.
        let f = filter_with(
            vec![],
            vec![
                let_("s", DataType::Float, Expr::FloatLit(0.0)),
                for_(
                    "c",
                    3,
                    vec![assign(
                        "s",
                        bin(BinOp::Add, var("s"), Expr::Peek(Box::new(var("c")))),
                    )],
                ),
                Stmt::Push(var("s")),
                for_("c", 2, vec![for_("c", 2, vec![Stmt::Push(var("c"))])]),
                for_("c", 3, vec![Stmt::Expr(Expr::Pop)]),
            ],
        );
        let (opt, stats) = optimize_filter(&f);
        assert_eq!(stats.unrolled_loops, 4);
        let mut loops = 0;
        streamit_graph::work::visit_block(&opt.work, &mut |s| {
            loops += matches!(s, Stmt::For { .. }) as u32;
        });
        assert_eq!(loops, 0, "{:?}", opt.work);
        assert_equivalent(&f, &[1.0, -2.0, 3.5]);
    }

    #[test]
    fn loop_variable_sharing_a_name_with_a_local_or_state_stays_rolled() {
        // Inside the loop `n[0]` names the counter, not the state array,
        // and faults; substituting the counter away must not turn that
        // into a read of the array.
        let shadowed_state = filter_with(
            vec![StateVar::array(
                "n",
                DataType::Float,
                vec![Value::Float(1.0)],
            )],
            vec![for_(
                "n",
                2,
                vec![Stmt::Push(Expr::Index(
                    "n".into(),
                    Box::new(Expr::IntLit(0)),
                ))],
            )],
        );
        let shadowed_local = filter_with(
            vec![],
            vec![
                let_("n", DataType::Float, Expr::FloatLit(7.0)),
                for_("n", 2, vec![Stmt::Push(var("n"))]),
                Stmt::Push(var("n")),
            ],
        );
        for f in [&shadowed_state, &shadowed_local] {
            let (opt, stats) = optimize_filter(f);
            assert_eq!(stats.unrolled_loops, 0);
            assert!(opt.work.iter().any(|s| matches!(s, Stmt::For { .. })));
        }
        assert_equivalent(&shadowed_local, &[]);
    }

    #[test]
    fn dead_store_with_pure_value_is_deleted() {
        let f = filter_with(
            vec![],
            vec![
                let_("x", DataType::Float, Expr::FloatLit(1.5)),
                Stmt::Push(Expr::FloatLit(0.0)),
            ],
        );
        let (opt, stats) = optimize_filter(&f);
        assert!(stats.removed_stores >= 1);
        assert_eq!(opt.work.len(), 1);
        assert_equivalent(&f, &[]);
    }

    #[test]
    fn dead_store_with_pop_keeps_the_pop() {
        // `x = pop()` with x never read: the store dies but the pop must
        // survive (it advances the tape for the next pop).
        let f = filter_with(
            vec![StateVar::scalar("x", DataType::Float, Value::Float(0.0))],
            vec![
                assign("x", Expr::Pop),
                assign("x", Expr::Pop),
                Stmt::Push(var("x")),
            ],
        );
        let (opt, _) = optimize_filter(&f);
        assert!(matches!(opt.work[0], Stmt::Expr(Expr::Pop)));
        assert_equivalent(&f, &[10.0, 20.0]);
    }

    #[test]
    fn division_by_minus_one_is_not_total() {
        // `i64::MIN / -1` is the table's one trap besides a zero
        // divisor, so a dead `x / -1` may not be deleted; `abs` wraps
        // and is total.
        let x = || var("x");
        assert!(!pure_total(&bin(BinOp::Div, x(), Expr::IntLit(-1))));
        assert!(!pure_total(&bin(BinOp::Rem, x(), Expr::IntLit(-1))));
        assert!(pure_total(&bin(BinOp::Div, x(), Expr::IntLit(-2))));
        assert!(pure_total(&Expr::Call(
            streamit_graph::Intrinsic::Abs,
            vec![x()]
        )));
    }

    #[test]
    fn dead_let_reassigned_later_keeps_its_declaration() {
        let f = filter_with(
            vec![],
            vec![
                let_(
                    "x",
                    DataType::Float,
                    bin(BinOp::Add, Expr::FloatLit(1.0), Expr::FloatLit(2.0)),
                ),
                assign("x", Expr::Pop),
                Stmt::Push(var("x")),
            ],
        );
        let (opt, _) = optimize_filter(&f);
        assert!(
            matches!(&opt.work[0], Stmt::Let { name, .. } if name == "x"),
            "declaration survives"
        );
        assert_equivalent(&f, &[7.0]);
    }

    #[test]
    fn copy_is_propagated() {
        let f = filter_with(
            vec![],
            vec![
                let_("a", DataType::Float, Expr::Pop),
                let_("b", DataType::Float, var("a")),
                Stmt::Push(bin(BinOp::Add, var("b"), var("b"))),
            ],
        );
        let (opt, stats) = optimize_filter(&f);
        assert_eq!(stats.propagated_copies, 1);
        assert_eq!(opt.work.len(), 2, "copy let deleted");
        assert_equivalent(&f, &[3.25]);
    }

    #[test]
    fn cross_type_copy_is_not_propagated() {
        // `let int b = a` where a is float: the let coerces — removing it
        // would change the pushed value.
        let f = filter_with(
            vec![],
            vec![
                let_("a", DataType::Float, Expr::Pop),
                let_("b", DataType::Int, var("a")),
                Stmt::Push(var("b")),
            ],
        );
        let stats = assert_equivalent(&f, &[2.75]);
        assert_eq!(stats.propagated_copies, 0);
    }

    #[test]
    fn division_by_zero_is_not_folded_or_deleted() {
        // `let x = 1 / 0` then x unread: the trap must survive; the body
        // still errors under the interpreter after optimization.
        let f = filter_with(
            vec![],
            vec![
                let_(
                    "x",
                    DataType::Int,
                    bin(BinOp::Div, Expr::IntLit(1), Expr::IntLit(0)),
                ),
                Stmt::Push(Expr::FloatLit(0.0)),
            ],
        );
        let (opt, _) = optimize_filter(&f);
        let mut state = std::collections::HashMap::new();
        let mut ctx = Tape::new(vec![]);
        let res = eval_block_bounded(
            &opt.work,
            &mut state,
            std::collections::HashMap::new(),
            &mut ctx,
            1_000,
        );
        assert!(res.is_err(), "the division trap survives optimization");
    }

    #[test]
    fn folded_bound_unrolls_and_its_branches_prune() {
        // for i in 0..(2 + 0) { if (i < 10) push(1.0) else push(2.0) } —
        // the bound folds to a literal, so the loop unrolls, `i` becomes a
        // literal in each copy and the condition folds.
        let f = filter_with(
            vec![],
            vec![Stmt::For {
                var: "i".into(),
                from: Expr::IntLit(0),
                to: bin(BinOp::Add, Expr::IntLit(2), Expr::IntLit(0)),
                body: vec![Stmt::If {
                    cond: bin(BinOp::Lt, var("i"), Expr::IntLit(10)),
                    then_body: vec![Stmt::Push(Expr::FloatLit(1.0))],
                    else_body: vec![Stmt::Push(Expr::FloatLit(2.0))],
                }],
            }],
        );
        let (opt, stats) = optimize_filter(&f);
        assert!(stats.pruned_branches >= 1);
        let mut pushes_two = false;
        streamit_graph::work::visit_block(&opt.work, &mut |s| {
            if matches!(s, Stmt::Push(Expr::FloatLit(v)) if *v == 2.0) {
                pushes_two = true;
            }
        });
        assert!(!pushes_two, "dead arm eliminated");
        assert_equivalent(&f, &[]);
    }

    #[test]
    fn zero_trip_loop_is_deleted() {
        let f = filter_with(
            vec![],
            vec![
                Stmt::For {
                    var: "i".into(),
                    from: Expr::IntLit(3),
                    to: Expr::IntLit(3),
                    body: vec![Stmt::Push(Expr::FloatLit(9.0))],
                },
                Stmt::Push(Expr::FloatLit(1.0)),
            ],
        );
        let (opt, _) = optimize_filter(&f);
        assert_eq!(opt.work.len(), 1);
        assert_equivalent(&f, &[]);
    }

    #[test]
    fn non_constant_code_is_untouched() {
        let f = filter_with(
            vec![StateVar::scalar("s", DataType::Float, Value::Float(0.0))],
            vec![
                assign("s", bin(BinOp::Add, var("s"), Expr::Pop)),
                Stmt::Push(var("s")),
            ],
        );
        let (opt, stats) = optimize_filter(&f);
        assert_eq!(opt.work, f.work);
        assert!(!stats.changed());
    }

    /// `pure_total` calls an integer `/` or `%` by a literal total
    /// exactly when the scalar table divides every dividend by it.
    #[test]
    fn pure_total_division_agrees_with_the_scalar_table() {
        let dividends = [i64::MIN, -1, 0, 1, i64::MAX];
        for n in [0, -1, 1, -2, 2, i64::MIN, i64::MAX] {
            for op in [BinOp::Div, BinOp::Rem] {
                let e = Expr::Binary(
                    op,
                    Box::new(Expr::Var("x".into())),
                    Box::new(Expr::IntLit(n)),
                );
                let total = dividends.iter().all(|&x| int_binop(op, x, n).is_some());
                assert_eq!(pure_total(&e), total, "x {op:?} {n}");
            }
        }
    }
}
