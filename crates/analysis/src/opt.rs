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
//!
//! Every walk rewrites the body in place: statements move, and only an
//! unrolled loop's body is copied, once per trip.  A round runs only
//! the walks that can still change the body (DESIGN.md "Optimizing
//! mid-end"), so no round is spent confirming a fixpoint.

use std::collections::{HashMap, HashSet};

use streamit_graph::work::{eval_const, int_binop, ConstEnv};
use streamit_graph::{DataType, Expr, Filter, LValue, Stmt, Value};

use crate::liveness::dead_stores_pinned;
use crate::scope::{pinned_names, scalar_types, state_seeds, StateSeeds};

/// Maximum trip count a single loop may be unrolled by.
const MAX_UNROLL_TRIPS: i64 = 256;
/// Maximum `trips x body-statements` product for one loop.
const MAX_UNROLL_BODY: usize = 1024;
/// Total statement fuel for unrolling across one body — sized so the
/// bytecode register budget (fresh register per expression) can't blow.
/// Each round that folds gets it afresh.
const MAX_UNROLL_TOTAL: usize = 4096;
/// Rounds per body: each runs the walks the last one left work for.
const MAX_ROUNDS: usize = 4;

/// Counters for everything the optimizer did.  Each counts a change to
/// the body, never a rewrite to what was already there.
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
    optimize_body(f, &mut out.work, &mut stats);
    if let Some(pw) = out.prework.as_mut() {
        optimize_body(f, &mut pw.body, &mut stats);
    }
    (out, stats)
}

/// The walks a round runs: folding (with pruning and unrolling), copy
/// propagation, dead-store elimination.  A round that folds also
/// propagates and eliminates, and one that propagates also eliminates,
/// as a round always did; a walk left out would change nothing.
#[derive(Clone, Copy)]
struct Walks {
    fold: bool,
    copy: bool,
    dse: bool,
}

/// Rounds of fold → copy-propagate → eliminate dead stores until one
/// changes nothing or no walk is left with work, at most `MAX_ROUNDS`.
fn optimize_body(f: &Filter, block: &mut Vec<Stmt>, stats: &mut OptStats) {
    let mut pinned = pinned_names(f, block);
    let mut walks = Walks {
        fold: true,
        copy: true,
        dse: true,
    };
    for _ in 0..MAX_ROUNDS {
        let before = stats.work_done();
        let tys = scalar_types(f, block, &pinned);
        let (mut env_shrunk, mut moved) = (false, None);
        if walks.fold {
            let mut fold = Folder::new(f, block, &pinned, tys.clone(), MAX_UNROLL_TOTAL, stats);
            fold.run(block);
            env_shrunk = fold.env_shrunk;
            // Only folding unrolls, prunes or deletes a declaration:
            // copy propagation and dead-store elimination delete only
            // unpinned `let`s.
            if stats.work_done() != before {
                moved = Some(pinned_names(f, block)).filter(|p| *p != pinned);
            }
        }
        if walks.fold || walks.copy {
            copy_prop(block, &pinned, &tys, stats);
        }
        let pinned_moved = moved.is_some();
        pinned = moved.unwrap_or(pinned);
        let chain = eliminate_dead_stores(f, block, &pinned, stats);
        stats.rounds += 1;
        if stats.work_done() == before {
            break;
        }
        // Folding again changes something only where the body now holds
        // a site a fold acts on, or where what it knows differs: the
        // names it may track, or a rolled loop that no longer assigns a
        // name.
        walks = Walks {
            fold: env_shrunk
                || pinned_moved
                || fold_site(block, &pinned, &loop_only_names(f, block, &pinned)),
            copy: copy_site(f, block, &pinned),
            dse: chain,
        };
        if !(walks.fold || walks.copy || walks.dse) {
            break;
        }
    }
}

/// The truth of every `if` of `block`, a body of `f` as written, whose
/// condition constant propagation decides and literal arithmetic alone
/// does not, in source order (lint `L0607`).  Loops stay rolled, so each
/// `if` is met at most once and a loop counter is never a constant.
pub(crate) fn constant_conditions(f: &Filter, block: &[Stmt]) -> Vec<bool> {
    let mut stats = OptStats::default();
    let pinned = pinned_names(f, block);
    let tys = scalar_types(f, block, &pinned);
    let mut fold = Folder::new(f, block, &pinned, tys, 0, &mut stats);
    fold.run(&mut block.to_vec());
    fold.propagated
}

// ---- what another round could change ------------------------------------

/// Is there a site in `block`, as the last round left it, where a fold
/// would change the body whatever it knows: a pure expression
/// statement, a literal `if` not yet reduced to its kept arm, an `if` or
/// a loop with nothing left in it, or a loop with literal bounds that
/// would unroll on fresh fuel?
fn fold_site(block: &[Stmt], pinned: &HashSet<String>, loop_only: &HashSet<String>) -> bool {
    block.iter().any(|s| match s {
        Stmt::Expr(e) => pure_total(e),
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => match cond.as_lit().map(Value::is_truthy) {
            Some(truthy) => {
                let (arm, dead) = match truthy {
                    true => (then_body, else_body),
                    false => (else_body, then_body),
                };
                let kept = matches!(cond, Expr::IntLit(c) if *c == truthy as i64)
                    && dead.is_empty()
                    && arm.iter().any(declares);
                !kept || fold_site(arm, pinned, loop_only)
            }
            None => {
                (then_body.is_empty() && else_body.is_empty())
                    || fold_site(then_body, pinned, loop_only)
                    || fold_site(else_body, pinned, loop_only)
            }
        },
        Stmt::For {
            var,
            from,
            to,
            body,
        } => {
            let unrolls = match (from, to) {
                (Expr::IntLit(lo), Expr::IntLit(hi)) => {
                    hi <= lo || unroll_cost(var, *lo, *hi, body, pinned, loop_only).is_some()
                }
                _ => false,
            };
            body.is_empty() || unrolls || fold_site(body, pinned, loop_only)
        }
        _ => false,
    })
}

/// Is there a `let x = y` in `block` that copy propagation would take
/// now?  (Dead-store elimination can delete the last assignment that
/// kept one.)
fn copy_site(f: &Filter, block: &[Stmt], pinned: &HashSet<String>) -> bool {
    let mut copies = Vec::new();
    streamit_graph::work::visit_block(block, &mut |s| {
        if let Stmt::Let {
            name,
            init: Expr::Var(y),
            ..
        } = s
        {
            copies.push((name, y));
        }
    });
    if copies.is_empty() {
        return false;
    }
    let (tys, assigned) = (scalar_types(f, block, pinned), assigned_names(block));
    copies
        .into_iter()
        .any(|(x, y)| propagates(x, y, pinned, &tys, &assigned))
}

/// May `let x = y` be propagated?  Both names unique and never
/// reassigned, and of one declared type.
fn propagates(
    x: &str,
    y: &str,
    pinned: &HashSet<String>,
    tys: &HashMap<String, DataType>,
    assigned: &HashSet<String>,
) -> bool {
    tys.get(x).zip(tys.get(y)).is_some_and(|(a, b)| a == b)
        && ![x, y]
            .iter()
            .any(|n| pinned.contains(*n) || assigned.contains(*n))
}

fn declares(s: &Stmt) -> bool {
    matches!(s, Stmt::Let { .. } | Stmt::LetArray { .. })
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

/// Does `e` read any variable or array?
fn reads(e: &Expr) -> bool {
    let mut any = false;
    e.visit(&mut |e| any |= matches!(e, Expr::Var(_) | Expr::Index(..)));
    any
}

/// Call `f` on every expression node of `e`, children first.
fn each_expr_mut(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    match e {
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) | Expr::Pop => {}
        Expr::Index(_, a) | Expr::Peek(a) | Expr::Unary(_, a) => each_expr_mut(a, f),
        Expr::Binary(_, a, b) => {
            each_expr_mut(a, f);
            each_expr_mut(b, f);
        }
        Expr::Call(_, args) => args.iter_mut().for_each(|a| each_expr_mut(a, f)),
    }
    f(e);
}

/// Call `f` on every expression node of `s`'s own expressions (not of
/// the statements nested in it), children first.
fn own_exprs_mut(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match s {
        Stmt::Let { init: e, .. } | Stmt::Push(e) | Stmt::Expr(e) | Stmt::If { cond: e, .. } => {
            each_expr_mut(e, f)
        }
        Stmt::LetArray { .. } => {}
        Stmt::Assign { target, value } => {
            if let LValue::Index(_, i) = target {
                each_expr_mut(i, f);
            }
            each_expr_mut(value, f);
        }
        Stmt::For { from, to, .. } => {
            each_expr_mut(from, f);
            each_expr_mut(to, f);
        }
        Stmt::Send { args, .. } => args.iter_mut().for_each(|a| each_expr_mut(a, f)),
    }
}

/// The statements nested in `s`: an `if`'s arms or a loop's body.
fn nested_mut(s: &mut Stmt) -> impl Iterator<Item = &mut Vec<Stmt>> {
    let (a, b) = match s {
        Stmt::If {
            then_body,
            else_body,
            ..
        } => (Some(then_body), Some(else_body)),
        Stmt::For { body, .. } => (Some(body), None),
        _ => (None, None),
    };
    a.into_iter().chain(b)
}

/// Substitute every read of `var` in `s` by the literal `v` (no
/// declarations of `var` exist below — callers check).
fn subst_var(s: &mut Stmt, var: &str, v: Value) {
    own_exprs_mut(s, &mut |e| {
        if matches!(e, Expr::Var(n) if n == var) {
            *e = v.into();
        }
    });
    for b in nested_mut(s) {
        b.iter_mut().for_each(|s| subst_var(s, var, v));
    }
}

/// What unrolling the loop `for var in lo..hi { body }` costs in
/// statements, or `None` when it may not unroll on any fuel.
fn unroll_cost(
    var: &str,
    lo: i64,
    hi: i64,
    body: &[Stmt],
    pinned: &HashSet<String>,
    loop_only: &HashSet<String>,
) -> Option<usize> {
    let trips = hi.saturating_sub(lo);
    let cost = count_stmts(body).saturating_mul(usize::try_from(trips).unwrap_or(usize::MAX));
    let unrollable = trips <= MAX_UNROLL_TRIPS
        && cost <= MAX_UNROLL_BODY.min(MAX_UNROLL_TOTAL)
        && (!pinned.contains(var) || loop_only.contains(var))
        && !body_blocks_unroll(body, var);
    unrollable.then_some(cost)
}

struct Folder<'c, 'p> {
    pinned: &'p HashSet<String>,
    loop_only: HashSet<String>,
    seeds: StateSeeds,
    tys: HashMap<String, DataType>,
    stats: &'c mut OptStats,
    /// Statements unrolling may still write.
    fuel: usize,
    /// A loop left rolled no longer assigns a name its body assigned
    /// before folding, so the next fold knows more after it.
    env_shrunk: bool,
    /// See [`constant_conditions`].
    propagated: Vec<bool>,
}

impl<'c, 'p> Folder<'c, 'p> {
    fn new(
        f: &Filter,
        block: &[Stmt],
        pinned: &'p HashSet<String>,
        tys: HashMap<String, DataType>,
        fuel: usize,
        stats: &'c mut OptStats,
    ) -> Folder<'c, 'p> {
        Folder {
            loop_only: loop_only_names(f, block, pinned),
            seeds: state_seeds(f, pinned),
            tys,
            pinned,
            stats,
            fuel,
            env_shrunk: false,
            propagated: Vec::new(),
        }
    }

    /// Fold `block`, a whole body, from the state seeds.
    fn run(&mut self, block: &mut Vec<Stmt>) {
        let mut env: ConstMap = self.seeds.scalars.clone();
        self.block(block, &mut env);
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

    /// Fold an expression bottom-up, replacing every maximal constant
    /// subtree by its literal.  A node is constant exactly when its
    /// children have folded to literals and its own operation applies,
    /// so each node is evaluated once, at one level.
    fn fold_expr(&mut self, e: &mut Expr, env: &ConstMap) {
        each_expr_mut(e, &mut |e| {
            let ready = match e {
                Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Peek(_) | Expr::Pop => false,
                Expr::Var(_) => true,
                Expr::Index(_, a) | Expr::Unary(_, a) => a.as_lit().is_some(),
                Expr::Binary(_, a, b) => a.as_lit().is_some() && b.as_lit().is_some(),
                Expr::Call(_, args) => args.iter().all(|a| a.as_lit().is_some()),
            };
            if let Some(v) = ready.then(|| self.eval(e, env)).flatten() {
                self.stats.folds += 1;
                *e = v.into();
            }
        });
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

    /// Fold `block` in place: its statements move through, and only
    /// what a fold rewrites is rebuilt.
    fn block(&mut self, block: &mut Vec<Stmt>, env: &mut ConstMap) {
        let old = std::mem::replace(block, Vec::with_capacity(block.len()));
        for s in old {
            self.stmt(s, env, block);
        }
    }

    fn stmt(&mut self, mut s: Stmt, env: &mut ConstMap, out: &mut Vec<Stmt>) {
        match &mut s {
            Stmt::Let { name, ty, init } => {
                self.fold_expr(init, env);
                let v = init.as_lit().map(|v| v.coerce(*ty));
                if self.pinned.contains(name.as_str()) {
                    // untrackable
                } else if let Some(v) = v {
                    env.insert(name.clone(), v);
                } else {
                    env.remove(name.as_str());
                }
            }
            Stmt::LetArray { name, .. } => {
                env.remove(name.as_str());
            }
            Stmt::Assign { target, value } => {
                self.fold_expr(value, env);
                match target {
                    LValue::Var(name) => self.record(env, name, value.as_lit()),
                    LValue::Index(_, i) => self.fold_expr(i, env),
                }
            }
            Stmt::Push(e) => self.fold_expr(e, env),
            Stmt::Expr(e) => {
                self.fold_expr(e, env);
                if pure_total(e) {
                    self.stats.deleted_stmts += 1;
                    return;
                }
            }
            Stmt::Send { args, .. } => args.iter_mut().for_each(|a| self.fold_expr(a, env)),
            Stmt::If { .. } | Stmt::For { .. } => {}
        }
        match s {
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => self.fold_if(cond, then_body, else_body, env, out),
            Stmt::For {
                var,
                from,
                to,
                body,
            } => self.fold_for(var, from, to, body, env, out),
            s => out.push(s),
        }
    }

    fn fold_if(
        &mut self,
        mut cond: Expr,
        mut then_body: Vec<Stmt>,
        mut else_body: Vec<Stmt>,
        env: &mut ConstMap,
        out: &mut Vec<Stmt>,
    ) {
        let literal_only = eval_const(&cond, &ConstEnv::EMPTY).is_some();
        self.fold_expr(&mut cond, env);
        if let Some(truthy) = cond.as_lit().map(Value::is_truthy) {
            if !literal_only {
                self.propagated.push(truthy);
            }
            let (mut arm, dead) = match truthy {
                true => (then_body, else_body),
                false => (else_body, then_body),
            };
            let splices = !arm.iter().any(declares);
            let kept = !splices
                && dead.is_empty()
                && matches!(cond, Expr::IntLit(c) if c == truthy as i64);
            if !kept {
                self.stats.pruned_branches += 1;
            }
            self.block(&mut arm, env);
            if splices {
                out.extend(arm);
            } else {
                // Keep the scope wrapper; the dead arm is dropped and
                // the condition reduced to a trivial literal.
                let (t, e) = match truthy {
                    true => (arm, Vec::new()),
                    false => (Vec::new(), arm),
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
        self.block(&mut then_body, &mut env_then);
        self.block(&mut else_body, &mut env_else);
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
        var: String,
        mut from: Expr,
        mut to: Expr,
        mut body: Vec<Stmt>,
        env: &mut ConstMap,
        out: &mut Vec<Stmt>,
    ) {
        // Bounds are evaluated once, before the first iteration.
        self.fold_expr(&mut from, env);
        self.fold_expr(&mut to, env);

        if let (Expr::IntLit(lo), Expr::IntLit(hi)) = (&from, &to) {
            let (lo, hi) = (*lo, *hi);
            if hi <= lo {
                // Zero trips; literal bounds have no effects to keep.
                self.stats.deleted_stmts += 1;
                return;
            }
            let cost = unroll_cost(&var, lo, hi, &body, self.pinned, &self.loop_only);
            if let Some(cost) = cost.filter(|&c| c <= self.fuel) {
                self.fuel -= cost;
                self.stats.unrolled_loops += 1;
                for i in lo..hi {
                    for s in &body {
                        let mut s = s.clone();
                        subst_var(&mut s, &var, Value::Int(i));
                        self.stmt(s, env, out);
                    }
                }
                return;
            }
        }

        // Not unrolled: facts about names the body writes don't survive
        // the loop (any iteration count, including zero).
        let written = assigned_names(&body);
        for n in &written {
            env.remove(n);
        }
        let mut benv = env.clone();
        benv.remove(&var);
        let before = self.stats.work_done();
        self.block(&mut body, &mut benv);
        // `benv` gains are per-iteration facts; discard them.
        if self.stats.work_done() != before && !self.env_shrunk {
            let still = assigned_names(&body);
            self.env_shrunk = written.iter().any(|n| !still.contains(n));
        }
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
            var,
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
    block: &mut Vec<Stmt>,
    pinned: &HashSet<String>,
    tys: &HashMap<String, DataType>,
    stats: &mut OptStats,
) {
    let assigned = assigned_names(block);
    let mut subst: HashMap<String, String> = HashMap::new();
    cp_block(block, pinned, tys, &assigned, &mut subst, stats);
}

/// Propagate copies through `block` in place, in source order: each
/// statement's own expressions are renamed (only once some copy has
/// been taken), then the statements nested in it.
fn cp_block(
    block: &mut Vec<Stmt>,
    pinned: &HashSet<String>,
    tys: &HashMap<String, DataType>,
    assigned: &HashSet<String>,
    subst: &mut HashMap<String, String>,
    stats: &mut OptStats,
) {
    block.retain_mut(|s| {
        if !subst.is_empty() {
            own_exprs_mut(s, &mut |e| {
                if let Expr::Var(n) = e {
                    if let Some(to) = subst.get(n.as_str()) {
                        n.clone_from(to);
                    }
                }
            });
        }
        if let Stmt::Let {
            name,
            init: Expr::Var(y),
            ..
        } = s
        {
            if propagates(name, y, pinned, tys, assigned) {
                stats.propagated_copies += 1;
                subst.insert(std::mem::take(name), std::mem::take(y));
                return false;
            }
        }
        for b in nested_mut(s) {
            cp_block(b, pinned, tys, assigned, subst, stats);
        }
        true
    });
}

// ---- dead-store elimination --------------------------------------------

/// Delete (or defuse) the dead stores of `block` in place.  Returns
/// whether the next liveness walk may find more: a deleted store's
/// value read a name, which may have been read by nothing else, or an
/// assignment went, which may have been what kept a dead `let`.
fn eliminate_dead_stores(
    f: &Filter,
    block: &mut Vec<Stmt>,
    pinned: &HashSet<String>,
    stats: &mut OptStats,
) -> bool {
    let dead: HashSet<*const Stmt> = dead_stores_pinned(f, block, pinned)
        .iter()
        .map(|d| d.stmt as *const Stmt)
        .collect();
    if dead.is_empty() {
        return false;
    }
    let assigned = assigned_names(block);
    let mut chain = false;
    dse_block(block, &dead, &assigned, stats, &mut chain);
    chain
}

/// `dead` holds the addresses of the dead stores (liveness walked this
/// same body, untouched since): each block marks its own before it
/// moves any statement.  A block's statements move when it drops one;
/// the statements nested in them do not.
fn dse_block(
    block: &mut Vec<Stmt>,
    dead: &HashSet<*const Stmt>,
    assigned: &HashSet<String>,
    stats: &mut OptStats,
    chain: &mut bool,
) {
    let mut marks: Vec<bool> = block.iter().map(|s| dead.contains(&(s as *const Stmt))).collect();
    marks.reverse();
    block.retain_mut(|s| {
        for b in nested_mut(s) {
            dse_block(b, dead, assigned, stats, chain);
        }
        let is_dead = marks.pop().unwrap_or(false);
        match s {
            Stmt::Let { name, ty, init } if is_dead && pure_total(init) => {
                if !assigned.contains(name.as_str()) {
                    stats.removed_stores += 1;
                    *chain |= reads(init);
                    return false;
                }
                if !matches!(init, Expr::IntLit(_) | Expr::FloatLit(_)) {
                    // The binding is re-assigned later: keep the
                    // declaration, zero the (unread) initializer.
                    stats.removed_stores += 1;
                    *chain |= reads(init);
                    *init = zero_lit(*ty);
                }
                true
            }
            Stmt::Assign { value, .. } if is_dead => {
                // The name may be assigned nowhere else now, and a dead
                // `let` of it kept for its binding go.
                stats.removed_stores += 1;
                *chain = true;
                if pure_total(value) {
                    return false;
                }
                // Keep the value's effects (pops, possible traps), drop
                // the store.
                *s = Stmt::Expr(std::mem::replace(value, Expr::Pop));
                true
            }
            _ => true,
        }
    });
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
