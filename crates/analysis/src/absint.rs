//! Interval-domain abstract interpretation of work-function bodies.
//!
//! The interpreter executes a block of [`Stmt`]s over [`Interval`] values,
//! tracking three tape quantities:
//!
//! * `pops`   — items consumed so far;
//! * `pushes` — items produced so far;
//! * `need`   — the running maximum of items the body requires to be
//!   available on the input tape (each `pop` requires `pops_after` items;
//!   each `peek(i)` requires `pops_before + i + 1`).
//!
//! Control flow is handled structurally: `if` with a condition that folds
//! to a constant follows one arm; an unresolvable condition analyzes both
//! arms and joins with the interval hull.  An arm (or a loop body) is
//! reported dead when no visit of its statement enters it — a property of
//! the block, not of a visit, so it is reported once however many trips
//! skip it.  `for` loops with constant bounds are unrolled exactly
//! (under a fuel budget, so nested loops cannot blow up compilation) —
//! trip by trip, or in closed form when one pass over the loop
//! variable's whole range shows every trip does the same thing
//! ([`Analyzer::summarize_trips`]); anything else runs to a widened
//! fixpoint, which loses exactness but never soundness.
//!
//! Float values are not tracked: a float literal, a scalar or array
//! declared `float` (local or state), a read of a `float` input tape and
//! every float-valued intrinsic evaluate to ⊤ *and* carry a may-be-float
//! mark through arithmetic, because the integer identities the interval
//! operators rely on (`x * 0 == 0`, `|x| >= 0`) fail for NaN and ±inf,
//! and NaN is truthy.  [`analyze_body`] takes the tape and state types
//! from the filter; [`analyze_block`] sees a bare block, so there tape
//! reads and names the block does not declare are integers — which keeps
//! idioms like `peek(pop() % N)` bounded.
//!
//! Soundness invariant (property-tested from `tests/static_analysis.rs`):
//! for every concrete execution of the block, the observed pop count,
//! push count and maximum tape requirement lie inside the corresponding
//! computed intervals.
//!
//! The `exact` flag means the result intervals are *path-tight*: no
//! widening or unbounded loop was involved, so every interval endpoint is
//! realised by some syntactic path through the body.  Since the StreamIt
//! language requires declared rates to hold on every path (the paper's
//! static-rate restriction), `exact` results permit definite rate-
//! conformance verdicts even when the intervals are not singletons.

use crate::interval::{Interval, Truth};
use std::collections::HashMap;
use streamit_graph::{
    BinOp, DataType, Expr, Filter, Intrinsic, LValue, StateInit, Stmt, UnOp, Value,
};

/// Total statements the analyzer may execute while unrolling loops.
const UNROLL_FUEL: u64 = 2_000_000;
/// Per-loop trip-count ceiling for exact unrolling.
const UNROLL_LIMIT: i64 = 65_536;
/// Safety cap on fixpoint rounds (the widened lattice converges long
/// before this; the cap guards against surprises).
const FIXPOINT_CAP: usize = 64;

/// Result of abstractly interpreting one body.
#[derive(Debug, Clone, PartialEq)]
pub struct BodyAnalysis {
    /// Interval of possible pop counts per invocation.
    pub pops: Interval,
    /// Interval of possible push counts per invocation.
    pub pushes: Interval,
    /// Interval of the maximum number of input items the body requires
    /// (pop total and peek reach combined).
    pub need: Interval,
    /// `true` when no widening occurred: every endpoint is realised by
    /// some syntactic path.
    pub exact: bool,
    /// Hull of peek-index intervals that are not provably non-negative.
    pub neg_peek: Option<Interval>,
    /// Descriptions of statically unreachable statements found en route.
    pub dead_code: Vec<String>,
}

/// What the walk knows about one name (scalar or array).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    Int(Interval),
    /// Declared `float`: never tracked, whatever is assigned to it.  For
    /// an array, every element.
    Float,
    /// The variable of a loop being summarized, bound to every value it
    /// takes at once; reads are counted (`Analyzer::ranged_reads`).
    Ranged(Interval),
}

impl Slot {
    fn declared(ty: DataType, v: Interval) -> Slot {
        match ty {
            DataType::Int => Slot::Int(v),
            DataType::Float => Slot::Float,
        }
    }

    /// A name that is float on either path is float (the environment
    /// is flat, so two scopes may reuse a name with different types).
    fn merge(self, other: Slot, f: impl FnOnce(&Interval, &Interval) -> Interval) -> Slot {
        match (self, other) {
            (Slot::Int(a) | Slot::Ranged(a), Slot::Int(b) | Slot::Ranged(b)) => {
                Slot::Int(f(&a, &b))
            }
            _ => Slot::Float,
        }
    }
}

/// What the walk has seen of a block control flow can skip: an `if` arm
/// or a `for` body.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reach {
    /// Some visit ran it (or may have).
    Entered,
    /// Every visit so far passed it by; the first one's reason.
    Skipped(Skip),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Skip {
    ThenOfFalse,
    ElseOfTrue,
    EmptyRange(i64, i64),
}

impl std::fmt::Display for Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skip::ThenOfFalse => {
                f.write_str("`then` arm of an `if` whose condition is statically false")
            }
            Skip::ElseOfTrue => {
                f.write_str("`else` arm of an `if` whose condition is statically true")
            }
            Skip::EmptyRange(lo, hi) => {
                write!(f, "`for` loop over the empty range {lo}..{hi} never runs")
            }
        }
    }
}

/// Abstract machine state threaded through the walk.
#[derive(Debug, Clone, PartialEq)]
struct AbsState {
    /// Known variables; absent means an unknown integer (⊤).
    env: HashMap<String, Slot>,
    pops: Interval,
    pushes: Interval,
    need: Interval,
    exact: bool,
    neg_peek: Option<Interval>,
}

impl AbsState {
    fn initial(seed: &HashMap<String, i64>) -> AbsState {
        AbsState {
            env: seed
                .iter()
                .map(|(k, &v)| (k.clone(), Slot::Int(Interval::constant(v))))
                .collect(),
            pops: Interval::constant(0),
            pushes: Interval::constant(0),
            need: Interval::constant(0),
            exact: true,
            neg_peek: None,
        }
    }
}

fn join_opt(a: &Option<Interval>, b: &Option<Interval>) -> Option<Interval> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.join(y)),
        (Some(x), None) | (None, Some(x)) => Some(*x),
        (None, None) => None,
    }
}

/// Join of two control-flow branches: interval hull on every component,
/// dropping variables known in only one branch.
fn join(a: &AbsState, b: &AbsState) -> AbsState {
    let mut env = HashMap::new();
    for (k, va) in &a.env {
        if let Some(vb) = b.env.get(k) {
            env.insert(k.clone(), va.merge(*vb, Interval::join));
        }
    }
    AbsState {
        env,
        pops: a.pops.join(&b.pops),
        pushes: a.pushes.join(&b.pushes),
        need: a.need.join(&b.need),
        exact: a.exact && b.exact,
        neg_peek: join_opt(&a.neg_peek, &b.neg_peek),
    }
}

/// Widen `next` against the previous round `prev` (pointwise).
fn widen(next: &AbsState, prev: &AbsState) -> AbsState {
    let mut env = HashMap::new();
    for (k, vn) in &next.env {
        let w = match prev.env.get(k) {
            Some(vp) => vn.merge(*vp, Interval::widen),
            None => *vn,
        };
        env.insert(k.clone(), w);
    }
    AbsState {
        env,
        pops: next.pops.widen(&prev.pops),
        pushes: next.pushes.widen(&prev.pushes),
        need: next.need.widen(&prev.need),
        exact: false,
        neg_peek: next.neg_peek,
    }
}

/// What [`Analyzer::reach`] knows a skippable block by: the address of
/// its first statement (the walked body is borrowed throughout).  An empty
/// block holds no code to report and has no key.
fn block_key(block: &[Stmt]) -> Option<*const Stmt> {
    block.first().map(std::ptr::from_ref)
}

fn body_size(block: &[Stmt]) -> u64 {
    let mut n = 0u64;
    for s in block {
        s.visit(&mut |_| n += 1);
    }
    n.max(1)
}

struct Analyzer {
    /// Reads of the input tape may be floats.
    float_tape: bool,
    fuel: u64,
    /// Skippable blocks met so far, by [`block_key`].
    reach: HashMap<*const Stmt, Reach>,
    /// Times a visit skipped a non-empty block.
    skips: u64,
    /// Counted loops may be summarized; `false` only in the test oracle.
    summarize: bool,
    /// Trips of this walk (not of a whole-range pass) summarized away.
    skipped: u64,
    /// Whole-range passes in progress.
    ranging: u32,
    /// Reads of [`Slot::Ranged`] variables so far.
    ranged_reads: u64,
    /// Something ran that can make one trip of an enclosing loop differ
    /// from the next: an undecided branch, a widened loop, or an integer
    /// that took a non-constant value computed from a ranged variable.
    irregular: bool,
}

/// Abstractly interpret a bare `block` (integer tape, no declared
/// state).  `seed` pre-binds variables with known constant values.
pub fn analyze_block(block: &[Stmt], seed: &HashMap<String, i64>) -> BodyAnalysis {
    run(block, AbsState::initial(seed), false, true).analysis
}

/// Abstractly interpret one body of `f` with the types `f` declares: a
/// `float` input tape and `float` state read as may-be-float ⊤, and
/// integer scalar state no body of `f` assigns keeps its
/// elaboration-time value, which makes loop bounds and peek indices
/// drawn from filter parameters exact.
pub fn analyze_body(f: &Filter, block: &[Stmt]) -> BodyAnalysis {
    walk_body(f, block, true).analysis
}

/// What the tests compare between the summary and the walk.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct Walked {
    pub analysis: BodyAnalysis,
    /// Unrolling fuel left over.
    pub fuel: u64,
    /// Loop trips finished in closed form instead of executed.
    pub skipped: u64,
}

/// [`analyze_body`], observed.  With `summarize` off every counted loop
/// is walked trip by trip: the oracle the summary is tested against,
/// fuel included.  Production code calls [`analyze_body`].
#[doc(hidden)]
pub fn walk_body(f: &Filter, block: &[Stmt], summarize: bool) -> Walked {
    let assigned = crate::scope::assigned_state_names(f);
    let mut st = AbsState::initial(&HashMap::new());
    for sv in &f.state {
        let slot = match (sv.ty, &sv.init) {
            (DataType::Float, _) => Slot::Float,
            (DataType::Int, StateInit::Scalar(Value::Int(v))) if !assigned.contains(&sv.name) => {
                Slot::Int(Interval::constant(*v))
            }
            _ => continue,
        };
        st.env.insert(sv.name.clone(), slot);
    }
    run(block, st, f.input == Some(DataType::Float), summarize)
}

fn run(block: &[Stmt], mut st: AbsState, float_tape: bool, summarize: bool) -> Walked {
    let mut a = Analyzer {
        float_tape,
        fuel: UNROLL_FUEL,
        reach: HashMap::new(),
        skips: 0,
        summarize,
        skipped: 0,
        ranging: 0,
        ranged_reads: 0,
        irregular: false,
    };
    a.exec_block(block, &mut st);
    let analysis = BodyAnalysis {
        pops: st.pops,
        pushes: st.pushes,
        need: st.need,
        exact: st.exact,
        neg_peek: st.neg_peek,
        dead_code: a.dead_code(block),
    };
    Walked {
        analysis,
        fuel: a.fuel,
        skipped: a.skipped,
    }
}

impl Analyzer {
    fn exec_block(&mut self, block: &[Stmt], st: &mut AbsState) {
        for s in block {
            self.exec_stmt(s, st);
        }
    }

    /// This visit runs `block` (or may).
    fn mark_entered(&mut self, block: &[Stmt]) {
        if let Some(key) = block_key(block) {
            self.reach.insert(key, Reach::Entered);
        }
    }

    fn enter(&mut self, arm: &[Stmt], st: &mut AbsState) {
        self.mark_entered(arm);
        self.exec_block(arm, st);
    }

    /// This visit passes `block` by.
    fn skip(&mut self, block: &[Stmt], why: Skip) {
        if let Some(key) = block_key(block) {
            self.skips += 1;
            self.reach.entry(key).or_insert(Reach::Skipped(why));
        }
    }

    /// The blocks of `block` no visit entered, in source order.
    fn dead_code(&self, block: &[Stmt]) -> Vec<String> {
        let mut out = Vec::new();
        if self.skips == 0 {
            return out;
        }
        let mut report = |b: &[Stmt]| {
            if let Some(Reach::Skipped(why)) = block_key(b).and_then(|k| self.reach.get(&k)) {
                out.push(why.to_string());
            }
        };
        streamit_graph::work::visit_block(block, &mut |s| match s {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                report(then_body);
                report(else_body);
            }
            Stmt::For { body, .. } => report(body),
            _ => {}
        });
        out
    }

    fn exec_stmt(&mut self, s: &Stmt, st: &mut AbsState) {
        self.fuel = self.fuel.saturating_sub(1);
        match s {
            Stmt::Let { name, ty, init } => {
                let v = match ty {
                    DataType::Int => self.eval_stored(init, st),
                    DataType::Float => self.eval(init, st),
                };
                st.env.insert(name.clone(), Slot::declared(*ty, v));
            }
            Stmt::LetArray { name, ty, .. } => {
                // Array contents are not tracked beyond their type.
                st.env
                    .insert(name.clone(), Slot::declared(*ty, Interval::TOP));
            }
            Stmt::Assign { target, value } => match target {
                LValue::Index(_, i) => {
                    self.eval(i, st);
                    self.eval(value, st);
                }
                LValue::Var(n) if st.env.get(n) == Some(&Slot::Float) => {
                    self.eval(value, st);
                }
                LValue::Var(n) => {
                    let v = Slot::Int(self.eval_stored(value, st));
                    match st.env.get_mut(n) {
                        Some(slot) => *slot = v,
                        None => drop(st.env.insert(n.clone(), v)),
                    }
                }
            },
            Stmt::Push(e) => {
                self.eval(e, st);
                st.pushes = st.pushes.add(&Interval::constant(1));
            }
            Stmt::Expr(e) => {
                self.eval(e, st);
            }
            Stmt::Send { args, .. } => {
                for a in args {
                    self.eval(a, st);
                }
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval(cond, st);
                match c.truth() {
                    Truth::True => {
                        self.skip(else_body, Skip::ElseOfTrue);
                        self.enter(then_body, st);
                    }
                    Truth::False => {
                        self.skip(then_body, Skip::ThenOfFalse);
                        self.enter(else_body, st);
                    }
                    Truth::Unknown => {
                        self.irregular = true;
                        let mut s1 = st.clone();
                        self.enter(then_body, &mut s1);
                        let mut s2 = st.clone();
                        self.enter(else_body, &mut s2);
                        *st = join(&s1, &s2);
                    }
                }
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                // Bounds are evaluated once, before the first iteration,
                // matching the interpreter.
                let fv = self.eval(from, st);
                let tv = self.eval(to, st);
                let saved = st.env.get(var).copied();
                self.exec_for(var, fv, tv, body, st);
                match saved {
                    Some(v) => {
                        st.env.insert(var.clone(), v);
                    }
                    None => {
                        st.env.remove(var);
                    }
                }
            }
        }
    }

    fn exec_for(
        &mut self,
        var: &str,
        fv: Interval,
        tv: Interval,
        body: &[Stmt],
        st: &mut AbsState,
    ) {
        if let (Some(lo), Some(hi)) = (fv.as_constant(), tv.as_constant()) {
            let trips = (hi as i128) - (lo as i128);
            if trips <= 0 {
                self.skip(body, Skip::EmptyRange(lo, hi));
                return;
            }
            let cost = (trips as u64).saturating_mul(body_size(body));
            if trips <= UNROLL_LIMIT as i128 && cost <= self.fuel {
                self.fuel -= cost;
                self.mark_entered(body);
                let before = (st.pops, st.pushes);
                let at = |i| Slot::Int(Interval::constant(i));
                self.exec_trip(var, at(lo), body, st);
                let summarized = self.summarize
                    && trips >= 3
                    && self.summarize_trips(var, lo, hi, body, st, before);
                for i in if summarized { hi } else { lo + 1 }..hi {
                    self.exec_trip(var, at(i), body, st);
                }
                return;
            }
        }
        self.exec_for_fixpoint(var, fv, tv, body, st);
    }

    fn exec_trip(&mut self, var: &str, v: Slot, body: &[Stmt], st: &mut AbsState) {
        // No key allocation per iteration.
        match st.env.get_mut(var) {
            Some(slot) => *slot = v,
            None => drop(st.env.insert(var.to_string(), v)),
        }
        self.exec_block(body, st);
    }

    /// Counted-loop summary: finish the loop `var in lo..hi` (three or
    /// more trips) in closed form.  `st` is the state after the first
    /// trip and `before` the pop and push counters before it, so one
    /// trip moved them by Δ.  A scratch copy of `st` then runs the body
    /// once with `var` bound to its whole range `[lo, hi-1]` and the
    /// counters where the last trip will start.  If that pass
    ///
    /// * decides every branch and finds every nested bound constant,
    /// * skips no arm or loop body that holds code and records no
    ///   possibly-negative peek index,
    /// * stores no non-constant integer computed from `var`,
    /// * moves the counters by Δ and leaves the environment as it found it,
    ///
    /// then every later trip, whose state lies inside the pass's at every
    /// statement, executes the same statements with the same integers:
    /// the trips between the first and the last are skipped by adding
    /// their Δ and charging the fuel the pass used once per trip (it had
    /// no less fuel than any of them will, and the check below leaves
    /// each at least that much).  The last trip then runs for real.  The
    /// pass's `need.hi` bounds what any trip can require; the summary
    /// stands only if the first and last trips *attain* that bound, so
    /// `need` is the walk's and `exact` keeps its meaning.  On `false`,
    /// `st`, fuel and the blocks reached are as they were: walk on from
    /// trip two.
    fn summarize_trips(
        &mut self,
        var: &str,
        lo: i64,
        hi: i64,
        body: &[Stmt],
        st: &mut AbsState,
        (pops0, pushes0): (Interval, Interval),
    ) -> bool {
        let skipped = hi - lo - 2;
        // Counter lower ends are finite: they start at 0 and only grow.
        let step = |now: Interval, was: Interval| now.lo.saturating_sub(was.lo);
        let (d_pops, d_pushes) = (step(st.pops, pops0), step(st.pushes, pushes0));
        let plus = |c: Interval, d: i64, n: i64| c.add(&Interval::constant(d.saturating_mul(n)));

        let mut s = st.clone();
        s.pops = plus(st.pops, d_pops, skipped);
        s.pushes = plus(st.pushes, d_pushes, skipped);
        s.neg_peek = None;
        let (pops, pushes) = (s.pops, s.pushes);
        let (fuel, skips) = (self.fuel, self.skips);
        let reach = self.reach.clone();
        let irregular = std::mem::replace(&mut self.irregular, false);
        self.ranging += 1;
        let range = Slot::Ranged(Interval::range(lo, hi - 1));
        self.exec_trip(var, range, body, &mut s);
        self.ranging -= 1;
        let per_trip = fuel - self.fuel;
        let bound = s.need.hi;
        // The next trip rebinds `var`; whatever the body left there is
        // not carried.
        if let (Some(slot), Some(v)) = (s.env.get_mut(var), st.env.get(var)) {
            *slot = *v;
        }
        let uniform = !self.irregular
            && self.skips == skips
            && s.neg_peek.is_none()
            && s.pops == plus(pops, d_pops, 1)
            && s.pushes == plus(pushes, d_pushes, 1)
            && s.env == st.env
            && per_trip
                .checked_mul(skipped as u64)
                .is_some_and(|all| all <= fuel);
        // The pass ran on a copy: what it met is not part of this walk.
        self.irregular = irregular;
        self.reach.clone_from(&reach);
        self.fuel = fuel;
        if !uniform {
            return false;
        }

        self.fuel -= per_trip * skipped as u64;
        s.pops = pops;
        s.pushes = pushes;
        s.need = st.need;
        s.neg_peek = st.neg_peek;
        self.exec_trip(var, Slot::Int(Interval::constant(hi - 1)), body, &mut s);
        // Inside an enclosing whole-range pass only `need.hi` is read.
        let attained = if self.ranging > 0 {
            s.need.hi == bound
        } else {
            s.need == Interval::constant(bound)
        };
        if attained {
            *st = s;
            if self.ranging == 0 {
                self.skipped += skipped as u64;
            }
        } else {
            self.fuel = fuel;
            self.reach = reach;
        }
        attained
    }

    /// Non-constant (or too-large) bounds: iterate the loop transfer
    /// function to a widened fixpoint.  The loop variable is bound to the
    /// hull of every iteration's value.
    fn exec_for_fixpoint(
        &mut self,
        var: &str,
        fv: Interval,
        tv: Interval,
        body: &[Stmt],
        st: &mut AbsState,
    ) {
        st.exact = false;
        self.irregular = true;
        self.mark_entered(body);
        let var_hi = if tv.hi == Interval::POS_INF {
            Interval::POS_INF
        } else {
            tv.hi.saturating_sub(1).max(fv.lo)
        };
        let var_range = Interval::range(fv.lo, var_hi);
        let mut cur = st.clone();
        for round in 0..FIXPOINT_CAP {
            let mut it = cur.clone();
            it.env.insert(var.to_string(), Slot::Int(var_range));
            self.exec_block(body, &mut it);
            let mut next = join(&cur, &it);
            if round >= 2 {
                next = widen(&next, &cur);
            }
            next.exact = false;
            if next == cur {
                *st = cur;
                return;
            }
            cur = next;
        }
        // Shouldn't happen post-widening; surrender precision, not
        // soundness.
        cur.env.clear();
        cur.pops.hi = Interval::POS_INF;
        cur.pushes.hi = Interval::POS_INF;
        cur.need.hi = Interval::POS_INF;
        *st = cur;
    }

    fn eval(&mut self, e: &Expr, st: &mut AbsState) -> Interval {
        self.eval_f(e, st).0
    }

    /// The value of `e`, about to be stored in an integer variable.  One
    /// computed from a ranged loop variable must come out constant: only
    /// then is it the same on every trip.
    fn eval_stored(&mut self, e: &Expr, st: &mut AbsState) -> Interval {
        let reads = self.ranged_reads;
        let v = self.eval(e, st);
        self.irregular |= self.ranged_reads != reads && !v.is_constant();
        v
    }

    /// The value of a tape or array index: the item read is ⊤ whatever
    /// the index, so reads of ranged variables in it do not count.
    fn eval_index(&mut self, e: &Expr, st: &mut AbsState) -> Interval {
        let reads = self.ranged_reads;
        let v = self.eval(e, st);
        self.ranged_reads = reads;
        v
    }

    /// The interval of `e`, and whether its value may be a float — in
    /// which case the interval is ⊤ (see the module docs).
    fn eval_f(&mut self, e: &Expr, st: &mut AbsState) -> (Interval, bool) {
        const FLOAT: (Interval, bool) = (Interval::TOP, true);
        match e {
            Expr::IntLit(i) => (Interval::constant(*i), false),
            Expr::FloatLit(_) => FLOAT,
            Expr::Var(n) => match st.env.get(n) {
                Some(Slot::Int(v)) => (*v, false),
                Some(Slot::Ranged(v)) => {
                    self.ranged_reads += 1;
                    (*v, false)
                }
                Some(Slot::Float) => FLOAT,
                None => (Interval::TOP, false),
            },
            Expr::Index(n, i) => {
                self.eval_index(i, st);
                (Interval::TOP, st.env.get(n) == Some(&Slot::Float))
            }
            Expr::Pop => {
                st.pops = st.pops.add(&Interval::constant(1));
                st.need = st.need.max(&st.pops);
                (Interval::TOP, self.float_tape)
            }
            Expr::Peek(i) => {
                let vi = self.eval_index(i, st);
                if vi.lo < 0 {
                    st.neg_peek = join_opt(&st.neg_peek, &Some(vi));
                }
                // peek(i) after p pops requires p + i + 1 items; clamp the
                // index at 0 because a negative index faults rather than
                // reaching backwards.
                let req = st.pops.add(&vi.max_with(0)).add(&Interval::constant(1));
                st.need = st.need.max(&req);
                (Interval::TOP, self.float_tape)
            }
            // The operators themselves are `Interval`'s table; what is
            // decided here is only whether the result may be a float.
            Expr::Unary(op, a) => {
                let (v, float) = self.eval_f(a, st);
                match op {
                    UnOp::Neg if float => FLOAT,
                    // `!` and `~` yield an int; a float operand is ⊤.
                    _ => (Interval::unop(*op, v), false),
                }
            }
            Expr::Binary(op, a, b) => {
                let (va, fa) = self.eval_f(a, st);
                let (vb, fb) = self.eval_f(b, st);
                let arith = matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
                );
                if arith && (fa || fb) {
                    FLOAT
                } else {
                    // Comparisons and logic yield an int; a float operand
                    // is ⊤, so they come out unknown.
                    (Interval::binop(*op, va, vb), false)
                }
            }
            Expr::Call(g, args) => {
                let mut float_arg = false;
                let vs: Vec<Interval> = args
                    .iter()
                    .map(|a| {
                        let (v, float) = self.eval_f(a, st);
                        float_arg |= float;
                        v
                    })
                    .collect();
                // `abs`, `min` and `max` of a float are floats; `int(..)`
                // casts back (its operand is then ⊤); the rest return one.
                match Interval::intrinsic(*g, &vs) {
                    Some(v) if *g == Intrinsic::ToInt || !float_arg => (v, false),
                    _ => FLOAT,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::DataType;

    fn analyze(work: impl FnOnce(BlockBuilder) -> BlockBuilder) -> BodyAnalysis {
        let block = work(BlockBuilder::new()).build();
        analyze_block(&block, &HashMap::new())
    }

    #[test]
    fn straight_line_counts_are_exact() {
        let r = analyze(|b| b.push(pop() * lit(2i64)).push(peek(1)).pop_discard());
        assert_eq!(r.pops, Interval::constant(2));
        assert_eq!(r.pushes, Interval::constant(2));
        // peek(1) after one pop requires 1 + 1 + 1 = 3 items.
        assert_eq!(r.need, Interval::constant(3));
        assert!(r.exact);
        assert!(r.neg_peek.is_none());
    }

    #[test]
    fn constant_loop_unrolls_exactly() {
        // for i in 0..4 { push(peek(i)) } pop()
        let r = analyze(|b| b.for_("i", 0, 4, |b| b.push(peek(var("i")))).pop_discard());
        assert_eq!(r.pops, Interval::constant(1));
        assert_eq!(r.pushes, Interval::constant(4));
        assert_eq!(r.need, Interval::constant(4));
        assert!(r.exact);
    }

    #[test]
    fn rem_by_positive_constant_bounds_index() {
        // push(peek(pop() % 4)): the index stays in (-4, 4), so the
        // requirement is finite even though the dividend is tape data.
        let r = analyze(|b| b.push(peek(pop() % lit(4i64))));
        assert_eq!(r.need, Interval::range(2, 5));
        assert!(r.neg_peek.is_some(), "negative dividends still flagged");
        let r = analyze(|b| {
            b.let_("i", DataType::Int, pop())
                .push(peek((var("i") * var("i")) % lit(4i64)))
        });
        // i*i is TOP here, but a non-negative-looking dividend cannot be
        // assumed; the modulus still clamps the magnitude.
        assert_eq!(r.need.hi, 5);
    }

    #[test]
    fn float_values_never_decide_a_branch() {
        // `0 * inf` is NaN, and NaN is truthy: a float local holding 0,
        // or a float literal times 0, must not fold the condition.
        let r = analyze(|b| {
            b.let_("f", DataType::Float, lit(0i64))
                .if_(var("f") * lit(f64::NEG_INFINITY), |t| t.pop_discard())
                .set("f", lit(0i64))
                .if_(var("f") * lit(2i64), |t| t.pop_discard())
                .if_(lit(f64::INFINITY) * lit(0i64), |t| t.pop_discard())
        });
        assert_eq!(r.pops, Interval::range(0, 3));
        assert!(r.dead_code.is_empty(), "{:?}", r.dead_code);
        // Casting back to int re-enters the tracked domain.
        let r = analyze(|b| {
            b.let_("f", DataType::Float, lit(1.5)).push(peek(
                call1(streamit_graph::Intrinsic::ToInt, var("f")) % lit(4i64),
            ))
        });
        assert_eq!(r.need.hi, 4);
    }

    #[test]
    fn branch_with_unequal_pushes_yields_interval() {
        let r = analyze(|b| b.if_else(pop(), |t| t.push(lit(1i64)), |e| e));
        assert_eq!(r.pops, Interval::constant(1));
        assert_eq!(r.pushes, Interval::range(0, 1));
        assert!(r.exact, "joins of static branches stay path-exact");
    }

    #[test]
    fn data_dependent_loop_widens() {
        // for i in 0..pop() { push(1) }  — trip count unknowable.
        let block = vec![streamit_graph::Stmt::For {
            var: "i".into(),
            from: streamit_graph::Expr::IntLit(0),
            to: streamit_graph::Expr::Pop,
            body: vec![streamit_graph::Stmt::Push(streamit_graph::Expr::IntLit(1))],
        }];
        let r = analyze_block(&block, &HashMap::new());
        assert_eq!(r.pops, Interval::constant(1));
        assert_eq!(r.pushes.lo, 0);
        assert_eq!(r.pushes.hi, Interval::POS_INF);
        assert!(!r.exact);
    }

    #[test]
    fn negative_peek_index_flagged() {
        let r = analyze(|b| b.push(peek(iconst(-1))).pop_discard());
        let np = r.neg_peek.expect("negative index must be recorded");
        assert_eq!(np, Interval::constant(-1));
    }

    #[test]
    fn dead_arm_and_empty_loop_detected() {
        let r = analyze(|b| {
            b.if_else(lit(1i64), |t| t.push(pop()), |e| e.push(lit(0i64)))
                .for_("i", 3, 3, |b| b.pop_discard())
        });
        assert_eq!(r.dead_code.len(), 2);
        assert_eq!(r.pops, Interval::constant(1));
        assert_eq!(r.pushes, Interval::constant(1));
    }

    #[test]
    fn seeded_state_constant_bounds_loop() {
        let seed: HashMap<String, i64> = [("N".to_string(), 3i64)].into_iter().collect();
        let block = BlockBuilder::new()
            .for_("i", 0, var("N"), |b| b.push(peek(var("i"))))
            .pop_discard()
            .build();
        let r = analyze_block(&block, &seed);
        assert_eq!(r.pushes, Interval::constant(3));
        assert_eq!(r.need, Interval::constant(3));
        assert!(r.exact);
    }

    #[test]
    fn nested_let_tracking() {
        let r = analyze(|b| {
            b.let_("n", DataType::Int, lit(2i64))
                .for_("i", 0, var("n") * lit(2i64), |b| b.pop_discard())
        });
        assert_eq!(r.pops, Interval::constant(4));
        assert!(r.exact);
    }

    #[test]
    fn fixpoint_converges_for_accumulating_var() {
        // x grows every iteration of a data-dependent loop; widening must
        // terminate and x-derived counts go unbounded.
        let block = BlockBuilder::new()
            .let_("x", DataType::Int, lit(0i64))
            .for_("i", 0, peek(0), |b| {
                b.set("x", var("x") + lit(1i64)).push(var("x"))
            })
            .build();
        let r = analyze_block(&block, &HashMap::new());
        assert_eq!(r.pushes.lo, 0);
        assert_eq!(r.pushes.hi, Interval::POS_INF);
        assert!(!r.exact);
        // The peek in the bound still counts toward `need`.
        assert_eq!(r.need.lo, 1);
    }
}
