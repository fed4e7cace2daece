//! Elaboration: partial evaluation of parameterized stream declarations
//! into the `streamit-graph` IR.
//!
//! Elaboration performs, in one pass:
//!
//! * **constant binding** — stream parameters become compile-time
//!   constants, substituted into work bodies as literals;
//! * **graph evaluation** — `for`/`if`/`int k = ...;` inside composite
//!   bodies run now, so a single `FFT(N)` declaration unfolds into the
//!   full butterfly network;
//! * **init execution** — filter `init` blocks run at elaboration time
//!   (via the `streamit-interp` evaluator with tape access forbidden) to
//!   fill coefficient tables;
//! * **rate resolution** — every peek/pop/push rate and splitter/joiner
//!   weight is evaluated to a constant, enforcing the paper's static-rate
//!   restriction.

use crate::ast::*;
use crate::lexer::SourcePos;
use std::collections::{HashMap, HashSet};
use std::fmt;
use streamit_graph::{
    DataType, Expr, FeedbackLoop, Filter, Handler, Intrinsic, Joiner, LValue, Pipeline, PreWork,
    SplitJoin, Splitter, StateInit, StateVar, Stmt, StreamNode, Value,
};
use streamit_interp::{eval_block_bounded, EvalCtx, RuntimeError, Slot};

/// An elaboration failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ElabError {
    pub pos: SourcePos,
    pub message: String,
}

impl fmt::Display for ElabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.pos, self.message)
    }
}

impl std::error::Error for ElabError {}

/// A portal registration produced by a `register` statement: the portal
/// name and the hierarchical path of the registered child instance
/// (matching `FlatGraph` node-name prefixes).
#[derive(Debug, Clone, PartialEq)]
pub struct PortalRegistration {
    pub portal: String,
    pub path: String,
}

/// A `max_latency a b n;` directive: paths of the two child instances
/// and the invocation bound (the appendix's `MAX_LATENCY(a, b, n)`).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyDirective {
    pub a_path: String,
    pub b_path: String,
    pub n: i64,
}

/// The result of elaboration.
#[derive(Debug, Clone, PartialEq)]
pub struct ElabOutput {
    /// The elaborated stream graph.
    pub stream: StreamNode,
    /// Portal registrations collected across the program.
    pub portals: Vec<PortalRegistration>,
    /// `max_latency` directives collected across the program.
    pub latencies: Vec<LatencyDirective>,
    /// Source position of each instantiated filter's `work` declaration,
    /// keyed by hierarchical instance path (matching `FlatGraph` node
    /// names).  Lets later passes report findings against source.
    pub work_spans: HashMap<String, SourcePos>,
}

impl ElabOutput {
    /// Resolve a portal's receivers in a flat graph: every filter node
    /// under a registered path that declares at least one handler.
    pub fn portal_receivers(
        &self,
        graph: &streamit_graph::FlatGraph,
        portal: &str,
    ) -> Vec<streamit_graph::NodeId> {
        let mut out = Vec::new();
        for reg in self.portals.iter().filter(|r| r.portal == portal) {
            for n in &graph.nodes {
                let under = n.name == reg.path || n.name.starts_with(&format!("{}/", reg.path));
                if under {
                    if let Some(f) = n.as_filter() {
                        if !f.handlers.is_empty() {
                            out.push(n.id);
                        }
                    }
                }
            }
        }
        out
    }
}

/// Elaborate `main_name()` with no arguments.
pub fn elaborate(program: &Program, main_name: &str) -> Result<ElabOutput, ElabError> {
    elaborate_with_args(program, main_name, &[])
}

/// Elaborate `main_name(args...)`.
pub fn elaborate_with_args(
    program: &Program,
    main_name: &str,
    args: &[Value],
) -> Result<ElabOutput, ElabError> {
    let mut el = Elaborator {
        program,
        portals: Vec::new(),
        latencies: Vec::new(),
        work_spans: HashMap::new(),
        depth: 0,
        gsteps: 0,
    };
    let decl = program.find(main_name).ok_or_else(|| ElabError {
        pos: SourcePos::default(),
        message: format!("no stream named `{main_name}`"),
    })?;
    let stream = el.instantiate(decl, args, main_name, "")?;
    Ok(ElabOutput {
        stream,
        portals: el.portals,
        latencies: el.latencies,
        work_spans: el.work_spans,
    })
}

// Each level costs several stack frames in the elaborator; 48 is far
// beyond any real program's nesting yet trips well before a 2 MiB test
// thread's stack does (debug frames are large).
const MAX_DEPTH: u32 = 48;
/// Cap on a single state array's element count; larger requests are a
/// diagnostic, not an allocation.
const MAX_ARRAY_ELEMS: u64 = 1 << 20;
/// Statement budget for a filter's elaboration-time `init` block.
const MAX_INIT_STEPS: u64 = 10_000_000;
/// Budget on graph-construction statements executed during elaboration
/// (loop unrolling, adds); bounds adversarial `for` nests.
const MAX_GRAPH_STEPS: u64 = 200_000;

struct Elaborator<'p> {
    program: &'p Program,
    portals: Vec<PortalRegistration>,
    latencies: Vec<LatencyDirective>,
    work_spans: HashMap<String, SourcePos>,
    depth: u32,
    gsteps: u64,
}

/// Compile-time constant environment.
type ConstEnv = HashMap<String, Value>;

fn err(pos: SourcePos, message: impl Into<String>) -> ElabError {
    ElabError {
        pos,
        message: message.into(),
    }
}

impl<'p> Elaborator<'p> {
    /// Instantiate a declaration with argument values, giving the result
    /// instance name `inst` under hierarchical `prefix`.
    fn instantiate(
        &mut self,
        decl: &Decl,
        args: &[Value],
        inst: &str,
        prefix: &str,
    ) -> Result<StreamNode, ElabError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(err(
                SourcePos::default(),
                format!(
                    "stream nesting deeper than {MAX_DEPTH} while instantiating `{}` \
                     (unbounded recursion?)",
                    decl.name()
                ),
            ));
        }
        let params = decl.params();
        let pos = match decl {
            Decl::Filter(f) => f.pos,
            Decl::Composite(c) => c.pos,
        };
        if params.len() != args.len() {
            return Err(err(
                pos,
                format!(
                    "`{}` takes {} argument(s), got {}",
                    decl.name(),
                    params.len(),
                    args.len()
                ),
            ));
        }
        let mut env: ConstEnv = ConstEnv::new();
        env.insert("pi".into(), Value::Float(std::f64::consts::PI));
        for (p, a) in params.iter().zip(args) {
            let ty = p
                .ty
                .to_data_type()
                .ok_or_else(|| err(pos, format!("parameter `{}` cannot have type void", p.name)))?;
            env.insert(p.name.clone(), a.coerce(ty));
        }
        let result = match decl {
            Decl::Filter(f) => {
                let path = if prefix.is_empty() {
                    inst.to_string()
                } else {
                    format!("{prefix}/{inst}")
                };
                self.work_spans.insert(path, f.work.pos);
                self.elab_filter(f, &env, inst)
            }
            Decl::Composite(c) => self.elab_composite(c, &env, inst, prefix),
        };
        self.depth -= 1;
        result
    }

    // ---- filters ----------------------------------------------------

    fn elab_filter(
        &mut self,
        f: &FilterDecl,
        env: &ConstEnv,
        inst: &str,
    ) -> Result<StreamNode, ElabError> {
        // State fields, zero-initialized.
        let mut state_types: HashMap<String, DataType> = HashMap::new();
        let mut state: HashMap<String, Slot> = HashMap::new();
        let mut field_order = Vec::new();
        for fd in &f.fields {
            let ty = fd
                .ty
                .to_data_type()
                .ok_or_else(|| err(fd.pos, format!("field `{}` cannot have type void", fd.name)))?;
            let slot = match &fd.size {
                None => Slot::Scalar(ty.zero()),
                Some(sz) => {
                    let n = const_eval(sz, env, fd.pos)?.as_i64();
                    if n < 0 {
                        return Err(err(
                            fd.pos,
                            format!("array `{}` has negative size", fd.name),
                        ));
                    }
                    if n as u64 > MAX_ARRAY_ELEMS {
                        return Err(err(
                            fd.pos,
                            format!(
                                "array `{}` has {} elements, exceeding the \
                                 {MAX_ARRAY_ELEMS}-element limit",
                                fd.name, n
                            ),
                        ));
                    }
                    Slot::Array(vec![ty.zero(); n as usize])
                }
            };
            state_types.insert(fd.name.clone(), ty);
            state.insert(fd.name.clone(), slot);
            field_order.push(fd.name.clone());
        }

        // Run init at elaboration time, bounded so a divergent init loop
        // becomes a diagnostic rather than hanging compilation.
        if let Some(init) = &f.init {
            let lowered = self.lower_block(init, env, &mut HashSet::new())?;
            let mut ctx = NoTapeCtx { name: &f.name };
            eval_block_bounded(
                &lowered,
                &mut state,
                HashMap::new(),
                &mut ctx,
                MAX_INIT_STEPS,
            )
            .map_err(|e| err(f.pos, format!("while executing init of `{}`: {e}", f.name)))?;
        }

        // Snapshot state into StateVars.
        let mut state_vars = Vec::with_capacity(field_order.len());
        for name in &field_order {
            let Some(&ty) = state_types.get(name) else {
                continue;
            };
            let Some(slot) = state.remove(name) else {
                continue;
            };
            let init = match slot {
                Slot::Scalar(v) => StateInit::Scalar(v),
                Slot::Array(vs) => StateInit::Array(vs),
            };
            state_vars.push(StateVar {
                name: name.clone(),
                ty,
                init,
            });
        }
        let state_vars = state_vars;

        // Rates.
        let rate = |e: &Option<AExpr>, pos| -> Result<usize, ElabError> {
            match e {
                None => Ok(0),
                Some(e) => {
                    let v = const_eval(e, env, pos)?.as_i64();
                    if v < 0 {
                        Err(err(pos, "negative rate"))
                    } else {
                        Ok(v as usize)
                    }
                }
            }
        };
        let pop = rate(&f.work.pop, f.work.pos)?;
        let push = rate(&f.work.push, f.work.pos)?;
        let peek = rate(&f.work.peek, f.work.pos)?.max(pop);

        let work = self.lower_block(&f.work.body, env, &mut HashSet::new())?;

        let prework = match &f.prework {
            None => None,
            Some(pw) => {
                let p_pop = rate(&pw.pop, pw.pos)?;
                let p_push = rate(&pw.push, pw.pos)?;
                let p_peek = rate(&pw.peek, pw.pos)?.max(p_pop);
                Some(PreWork {
                    peek: p_peek,
                    pop: p_pop,
                    push: p_push,
                    body: self.lower_block(&pw.body, env, &mut HashSet::new())?,
                })
            }
        };

        let mut handlers = Vec::new();
        for h in &f.handlers {
            let mut shadow: HashSet<String> = h.params.iter().map(|p| p.name.clone()).collect();
            let params = h
                .params
                .iter()
                .map(|p| {
                    p.ty.to_data_type()
                        .map(|t| (p.name.clone(), t))
                        .ok_or_else(|| {
                            err(h.pos, format!("handler parameter `{}` is void", p.name))
                        })
                })
                .collect::<Result<Vec<_>, _>>()?;
            handlers.push(Handler {
                name: h.name.clone(),
                params,
                body: self.lower_block(&h.body, env, &mut shadow)?,
            });
        }

        Ok(StreamNode::Filter(Filter {
            name: inst.to_string(),
            input: f.sig.input.to_data_type(),
            output: f.sig.output.to_data_type(),
            peek,
            pop,
            push,
            state: state_vars,
            work,
            prework,
            handlers,
            kernel: None,
        }))
    }

    // ---- composites ----------------------------------------------------

    fn elab_composite(
        &mut self,
        c: &CompositeDecl,
        env: &ConstEnv,
        inst: &str,
        prefix: &str,
    ) -> Result<StreamNode, ElabError> {
        let my_path = if prefix.is_empty() {
            inst.to_string()
        } else {
            format!("{prefix}/{inst}")
        };
        let mut b = CompositeBody {
            children: Vec::new(),
            aliases: HashMap::new(),
            used_names: HashSet::new(),
            name_seq: HashMap::new(),
            splitter: None,
            joiner: None,
            body: None,
            loopback: None,
            enqueued: Vec::new(),
            delay: None,
        };
        let mut env = env.clone();
        self.run_gstmts(&c.body, &mut env, &mut b, &my_path, c.kind)?;

        match c.kind {
            CompositeKind::Pipeline => {
                if b.children.is_empty() {
                    return Err(err(
                        c.pos,
                        format!("pipeline `{}` adds no children", c.name),
                    ));
                }
                Ok(StreamNode::Pipeline(Pipeline {
                    name: inst.to_string(),
                    children: b.children,
                }))
            }
            CompositeKind::SplitJoin => {
                let n = b.children.len();
                if n == 0 {
                    return Err(err(
                        c.pos,
                        format!("splitjoin `{}` adds no children", c.name),
                    ));
                }
                let splitter = match b.splitter {
                    Some(s) => s,
                    None => return Err(err(c.pos, "splitjoin missing `split` statement")),
                };
                let joiner = match b.joiner {
                    Some(j) => j,
                    None => return Err(err(c.pos, "splitjoin missing `join` statement")),
                };
                // Uniform round-robins adapt to the child count.
                let splitter = match splitter {
                    SplitterVal::Uniform => Splitter::RoundRobin(vec![1; n]),
                    SplitterVal::Concrete(s) => s,
                };
                let joiner = match joiner {
                    JoinerVal::Uniform => Joiner::RoundRobin(vec![1; n]),
                    JoinerVal::Concrete(j) => j,
                };
                Ok(StreamNode::SplitJoin(SplitJoin {
                    name: inst.to_string(),
                    splitter,
                    children: b.children,
                    joiner,
                }))
            }
            CompositeKind::FeedbackLoop => {
                let body = b
                    .body
                    .ok_or_else(|| err(c.pos, "feedbackloop missing `body` statement"))?;
                let loopback = b
                    .loopback
                    .ok_or_else(|| err(c.pos, "feedbackloop missing `loop` statement"))?;
                let joiner = match b.joiner {
                    Some(JoinerVal::Concrete(j)) => j,
                    Some(JoinerVal::Uniform) => Joiner::round_robin(2),
                    None => return Err(err(c.pos, "feedbackloop missing `join` statement")),
                };
                let splitter = match b.splitter {
                    Some(SplitterVal::Concrete(s)) => s,
                    Some(SplitterVal::Uniform) => Splitter::round_robin(2),
                    None => return Err(err(c.pos, "feedbackloop missing `split` statement")),
                };
                let delay = b.delay.unwrap_or(b.enqueued.len());
                if delay != b.enqueued.len() {
                    return Err(err(
                        c.pos,
                        format!(
                            "feedbackloop declares delay {} but enqueues {} item(s)",
                            delay,
                            b.enqueued.len()
                        ),
                    ));
                }
                Ok(StreamNode::FeedbackLoop(FeedbackLoop {
                    name: inst.to_string(),
                    joiner,
                    body: Box::new(body),
                    splitter,
                    loopback: Box::new(loopback),
                    delay,
                    init_path: b.enqueued,
                }))
            }
        }
    }

    fn run_gstmts(
        &mut self,
        stmts: &[GStmt],
        env: &mut ConstEnv,
        b: &mut CompositeBody,
        my_path: &str,
        kind: CompositeKind,
    ) -> Result<(), ElabError> {
        for g in stmts {
            self.run_gstmt(g, env, b, my_path, kind)?;
        }
        Ok(())
    }

    fn run_gstmt(
        &mut self,
        g: &GStmt,
        env: &mut ConstEnv,
        b: &mut CompositeBody,
        my_path: &str,
        kind: CompositeKind,
    ) -> Result<(), ElabError> {
        self.gsteps += 1;
        if self.gsteps > MAX_GRAPH_STEPS {
            return Err(err(
                g.pos,
                format!(
                    "graph elaboration exceeds the {MAX_GRAPH_STEPS}-statement \
                     budget (runaway loop in stream construction?)"
                ),
            ));
        }
        match &g.kind {
            GStmtKind::Add { stream, alias } => {
                let child = self.elab_call(stream, env, alias.as_deref(), my_path, b)?;
                if let Some(a) = alias {
                    b.aliases.insert(a.clone(), child.name().to_string());
                }
                b.children.push(child);
            }
            GStmtKind::Body(call) => {
                let child = self.elab_call(call, env, Some("body"), my_path, b)?;
                b.body = Some(child);
            }
            GStmtKind::Loop(call) => {
                let child = self.elab_call(call, env, Some("loop"), my_path, b)?;
                b.loopback = Some(child);
            }
            GStmtKind::Split(spec) => {
                b.splitter = Some(match spec {
                    SplitterSpec::Duplicate => SplitterVal::Concrete(Splitter::Duplicate),
                    SplitterSpec::Null => SplitterVal::Concrete(Splitter::Null),
                    SplitterSpec::RoundRobin(ws) if ws.is_empty() => SplitterVal::Uniform,
                    SplitterSpec::RoundRobin(ws) => {
                        SplitterVal::Concrete(Splitter::RoundRobin(eval_weights(ws, env, g.pos)?))
                    }
                });
            }
            GStmtKind::Join(spec) => {
                b.joiner = Some(match spec {
                    JoinerSpec::Combine => JoinerVal::Concrete(Joiner::Combine),
                    JoinerSpec::Null => JoinerVal::Concrete(Joiner::Null),
                    JoinerSpec::RoundRobin(ws) if ws.is_empty() => JoinerVal::Uniform,
                    JoinerSpec::RoundRobin(ws) => {
                        JoinerVal::Concrete(Joiner::RoundRobin(eval_weights(ws, env, g.pos)?))
                    }
                });
            }
            GStmtKind::Enqueue(e) => {
                b.enqueued.push(const_eval(e, env, g.pos)?);
            }
            GStmtKind::Delay(e) => {
                let d = const_eval(e, env, g.pos)?.as_i64();
                if d < 0 {
                    return Err(err(g.pos, "negative delay"));
                }
                b.delay = Some(d as usize);
            }
            GStmtKind::Register { portal, alias } => {
                let inst = b.aliases.get(alias).ok_or_else(|| {
                    err(
                        g.pos,
                        format!("`register` refers to unknown child alias `{alias}`"),
                    )
                })?;
                self.portals.push(PortalRegistration {
                    portal: portal.clone(),
                    path: format!("{my_path}/{inst}"),
                });
            }
            GStmtKind::MaxLatency { a: la, b: lb, n } => {
                let a_inst = b.aliases.get(la).ok_or_else(|| {
                    err(
                        g.pos,
                        format!("`max_latency` refers to unknown child alias `{la}`"),
                    )
                })?;
                let b_inst = b.aliases.get(lb).ok_or_else(|| {
                    err(
                        g.pos,
                        format!("`max_latency` refers to unknown child alias `{lb}`"),
                    )
                })?;
                let bound = const_eval(n, env, g.pos)?.as_i64();
                self.latencies.push(LatencyDirective {
                    a_path: format!("{my_path}/{a_inst}"),
                    b_path: format!("{my_path}/{b_inst}"),
                    n: bound,
                });
            }
            GStmtKind::For {
                var,
                from,
                to,
                body,
            } => {
                let lo = const_eval(from, env, g.pos)?.as_i64();
                let hi = const_eval(to, env, g.pos)?.as_i64();
                let saved = env.get(var).cloned();
                for i in lo..hi {
                    env.insert(var.clone(), Value::Int(i));
                    self.run_gstmts(body, env, b, my_path, kind)?;
                }
                match saved {
                    Some(v) => env.insert(var.clone(), v),
                    None => env.remove(var),
                };
            }
            GStmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = const_eval(cond, env, g.pos)?;
                let arm = if c.is_truthy() { then_body } else { else_body };
                self.run_gstmts(arm, env, b, my_path, kind)?;
            }
            GStmtKind::LetConst { name, value } => {
                let v = const_eval(value, env, g.pos)?;
                env.insert(name.clone(), v);
            }
        }
        Ok(())
    }

    fn elab_call(
        &mut self,
        call: &StreamCall,
        env: &ConstEnv,
        alias: Option<&str>,
        my_path: &str,
        b: &mut CompositeBody,
    ) -> Result<StreamNode, ElabError> {
        let decl = self
            .program
            .find(&call.name)
            .ok_or_else(|| err(call.pos, format!("no stream named `{}`", call.name)))?;
        let mut args = Vec::with_capacity(call.args.len());
        for a in &call.args {
            args.push(const_eval(a, env, call.pos)?);
        }
        // Choose a unique instance name within this composite.
        let base = alias.unwrap_or(&call.name).to_string();
        let inst = if b.used_names.contains(&base) {
            let k = b.name_seq.entry(base.clone()).or_insert(1);
            loop {
                let cand = format!("{base}_{k}");
                *k += 1;
                if !b.used_names.contains(&cand) {
                    break cand;
                }
            }
        } else {
            base
        };
        b.used_names.insert(inst.clone());
        self.instantiate(decl, &args, &inst, my_path)
    }

    // ---- lowering of imperative bodies ---------------------------------

    fn lower_block(
        &self,
        stmts: &[AStmt],
        env: &ConstEnv,
        shadow: &mut HashSet<String>,
    ) -> Result<Vec<Stmt>, ElabError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            out.push(self.lower_stmt(s, env, shadow)?);
        }
        Ok(out)
    }

    fn lower_stmt(
        &self,
        s: &AStmt,
        env: &ConstEnv,
        shadow: &mut HashSet<String>,
    ) -> Result<Stmt, ElabError> {
        let pos = s.pos;
        Ok(match &s.kind {
            AStmtKind::Decl {
                name,
                ty,
                size,
                init,
            } => {
                let dty = ty
                    .to_data_type()
                    .ok_or_else(|| err(pos, format!("local `{name}` cannot be void")))?;
                shadow.insert(name.clone());
                match size {
                    Some(sz) => {
                        if init.is_some() {
                            return Err(err(pos, "array locals cannot have initializers"));
                        }
                        let n = const_eval(sz, env, pos)?.as_i64();
                        if n < 0 {
                            return Err(err(pos, format!("array `{name}` has negative size")));
                        }
                        if n as u64 > MAX_ARRAY_ELEMS {
                            return Err(err(
                                pos,
                                format!(
                                    "array `{name}` has {n} elements, exceeding \
                                     the {MAX_ARRAY_ELEMS}-element limit"
                                ),
                            ));
                        }
                        Stmt::LetArray {
                            name: name.clone(),
                            ty: dty,
                            len: n as usize,
                        }
                    }
                    None => {
                        let init = match init {
                            Some(e) => self.lower_expr(e, env, shadow, pos)?,
                            None => match dty {
                                DataType::Int => Expr::IntLit(0),
                                DataType::Float => Expr::FloatLit(0.0),
                            },
                        };
                        Stmt::Let {
                            name: name.clone(),
                            ty: dty,
                            init,
                        }
                    }
                }
            }
            AStmtKind::Assign { target, op, value } => {
                let value = self.lower_expr(value, env, shadow, pos)?;
                let (lv, read_back) = match target {
                    ALValue::Var(n) => (LValue::Var(n.clone()), Expr::Var(n.clone())),
                    ALValue::Index(n, i) => {
                        let i = self.lower_expr(i, env, shadow, pos)?;
                        (
                            LValue::Index(n.clone(), i.clone()),
                            Expr::Index(n.clone(), Box::new(i)),
                        )
                    }
                };
                let value = match op {
                    None => value,
                    Some(op) => Expr::Binary(*op, Box::new(read_back), Box::new(value)),
                };
                Stmt::Assign { target: lv, value }
            }
            AStmtKind::Push(e) => Stmt::Push(self.lower_expr(e, env, shadow, pos)?),
            AStmtKind::Expr(e) => Stmt::Expr(self.lower_expr(e, env, shadow, pos)?),
            AStmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                // Canonical counted loop: i = a; i < b (or <=); i++/i+=1.
                let (var, from) = match &init.kind {
                    AStmtKind::Decl {
                        name,
                        init: Some(e),
                        size: None,
                        ..
                    } => (name.clone(), e.clone()),
                    AStmtKind::Assign {
                        target: ALValue::Var(n),
                        op: None,
                        value,
                    } => (n.clone(), value.clone()),
                    _ => {
                        return Err(err(
                            pos,
                            "for-loop initializer must be `int i = <expr>` or `i = <expr>`",
                        ))
                    }
                };
                let to = match cond {
                    AExpr::Binary(streamit_graph::BinOp::Lt, l, r) if matches!(&**l, AExpr::Var(n) if *n == var) => {
                        (**r).clone()
                    }
                    AExpr::Binary(streamit_graph::BinOp::Le, l, r) if matches!(&**l, AExpr::Var(n) if *n == var) => {
                        AExpr::Binary(
                            streamit_graph::BinOp::Add,
                            Box::new((**r).clone()),
                            Box::new(AExpr::Int(1)),
                        )
                    }
                    _ => {
                        return Err(err(
                            pos,
                            format!(
                                "for-loop condition must be `{var} < <expr>` or `{var} <= <expr>`"
                            ),
                        ))
                    }
                };
                match &update.kind {
                    AStmtKind::Assign {
                        target: ALValue::Var(n),
                        op: Some(streamit_graph::BinOp::Add),
                        value: AExpr::Int(1),
                    } if *n == var => {}
                    _ => {
                        return Err(err(
                            pos,
                            format!("for-loop update must be `{var}++` (unit stride)"),
                        ))
                    }
                }
                let from = self.lower_expr(&from, env, shadow, pos)?;
                let to = self.lower_expr(&to, env, shadow, pos)?;
                let shadowed_before = shadow.contains(&var);
                shadow.insert(var.clone());
                let body = self.lower_block(body, env, shadow)?;
                if !shadowed_before {
                    shadow.remove(&var);
                }
                Stmt::For {
                    var,
                    from,
                    to,
                    body,
                }
            }
            AStmtKind::If {
                cond,
                then_body,
                else_body,
            } => Stmt::If {
                cond: self.lower_expr(cond, env, shadow, pos)?,
                then_body: self.lower_block(then_body, env, shadow)?,
                else_body: self.lower_block(else_body, env, shadow)?,
            },
            AStmtKind::Send {
                portal,
                handler,
                args,
                lo,
                hi,
            } => {
                let latency_min = const_eval_lowered(lo, env, pos)?;
                let latency_max = const_eval_lowered(hi, env, pos)?;
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a, env, shadow, pos))
                    .collect::<Result<Vec<_>, _>>()?;
                Stmt::Send {
                    portal: portal.clone(),
                    handler: handler.clone(),
                    args,
                    latency_min,
                    latency_max,
                }
            }
        })
    }

    fn lower_expr(
        &self,
        e: &AExpr,
        env: &ConstEnv,
        shadow: &HashSet<String>,
        pos: SourcePos,
    ) -> Result<Expr, ElabError> {
        Ok(match e {
            AExpr::Int(i) => Expr::IntLit(*i),
            AExpr::Float(f) => Expr::FloatLit(*f),
            AExpr::Var(n) => {
                if !shadow.contains(n) {
                    if let Some(v) = env.get(n) {
                        return Ok((*v).into());
                    }
                }
                Expr::Var(n.clone())
            }
            AExpr::Index(n, i) => {
                Expr::Index(n.clone(), Box::new(self.lower_expr(i, env, shadow, pos)?))
            }
            AExpr::Peek(i) => Expr::Peek(Box::new(self.lower_expr(i, env, shadow, pos)?)),
            AExpr::Pop => Expr::Pop,
            AExpr::Unary(op, a) => {
                Expr::Unary(*op, Box::new(self.lower_expr(a, env, shadow, pos)?))
            }
            AExpr::Binary(op, a, b) => {
                let l = self.lower_expr(a, env, shadow, pos)?;
                let r = self.lower_expr(b, env, shadow, pos)?;
                fold_binary(*op, l, r)
            }
            AExpr::Call(name, args) => {
                let f = Intrinsic::from_name(name)
                    .ok_or_else(|| err(pos, format!("unknown function `{name}`")))?;
                if args.len() != f.arity() {
                    return Err(err(
                        pos,
                        format!(
                            "`{name}` takes {} argument(s), got {}",
                            f.arity(),
                            args.len()
                        ),
                    ));
                }
                let args = args
                    .iter()
                    .map(|a| self.lower_expr(a, env, shadow, pos))
                    .collect::<Result<Vec<_>, _>>()?;
                // Fold constant intrinsic calls (e.g. sin of a literal).
                match args.iter().map(Expr::as_lit).collect::<Option<Vec<_>>>() {
                    Some(vals) => f.eval(&vals).into(),
                    None => Expr::Call(f, args),
                }
            }
        })
    }
}

/// Fold literal-only binary operations at elaboration time: every
/// int-int operator but comparisons and logic, and `+ - * /` once a float
/// literal is involved.  The value is the run-time one (`BinOp::eval`);
/// a trapping division stays in the body for the run to report.
fn fold_binary(op: streamit_graph::BinOp, l: Expr, r: Expr) -> Expr {
    use streamit_graph::BinOp as B;
    let folds = match (&l, &r) {
        (Expr::IntLit(_), Expr::IntLit(_)) => {
            !op.is_integral() || matches!(op, B::BitAnd | B::BitOr | B::BitXor | B::Shl | B::Shr)
        }
        _ => matches!(op, B::Add | B::Sub | B::Mul | B::Div),
    };
    if folds {
        if let (Some(a), Some(b)) = (l.as_lit(), r.as_lit()) {
            if let Some(v) = op.eval(a, b) {
                return v.into();
            }
        }
    }
    Expr::Binary(op, Box::new(l), Box::new(r))
}

/// Evaluate an AST expression to a compile-time constant.
fn const_eval(e: &AExpr, env: &ConstEnv, pos: SourcePos) -> Result<Value, ElabError> {
    Ok(match e {
        AExpr::Int(i) => Value::Int(*i),
        AExpr::Float(f) => Value::Float(*f),
        AExpr::Var(n) => *env
            .get(n)
            .ok_or_else(|| err(pos, format!("`{n}` is not a compile-time constant")))?,
        AExpr::Unary(op, a) => op.eval(const_eval(a, env, pos)?),
        AExpr::Binary(op, a, b) => {
            let (va, vb) = (const_eval(a, env, pos)?, const_eval(b, env, pos)?);
            op.eval(va, vb)
                .ok_or_else(|| err(pos, "division by zero in constant"))?
        }
        AExpr::Call(name, args) => {
            let f = Intrinsic::from_name(name)
                .ok_or_else(|| err(pos, format!("unknown function `{name}`")))?;
            if args.len() != f.arity() {
                return Err(err(pos, format!("`{name}` arity mismatch")));
            }
            let vals = args
                .iter()
                .map(|a| const_eval(a, env, pos))
                .collect::<Result<Vec<_>, _>>()?;
            f.eval(&vals)
        }
        AExpr::Peek(_) | AExpr::Pop | AExpr::Index(..) => {
            return Err(err(pos, "expression is not a compile-time constant"))
        }
    })
}

fn const_eval_lowered(e: &AExpr, env: &ConstEnv, pos: SourcePos) -> Result<i64, ElabError> {
    Ok(const_eval(e, env, pos)?.as_i64())
}

fn eval_weights(ws: &[AExpr], env: &ConstEnv, pos: SourcePos) -> Result<Vec<u64>, ElabError> {
    ws.iter()
        .map(|w| {
            let v = const_eval(w, env, pos)?.as_i64();
            if v < 0 {
                Err(err(pos, "negative splitter/joiner weight"))
            } else {
                Ok(v as u64)
            }
        })
        .collect()
}

/// Accumulator for a composite body during graph-statement execution.
struct CompositeBody {
    children: Vec<StreamNode>,
    aliases: HashMap<String, String>,
    used_names: HashSet<String>,
    /// Next numeric suffix to try per base name, so uniquifying the
    /// n-th `add F()` is amortized O(1) instead of probing `F_1..F_n`
    /// every time (quadratic on large unrolled loops).
    name_seq: HashMap<String, usize>,
    splitter: Option<SplitterVal>,
    joiner: Option<JoinerVal>,
    body: Option<StreamNode>,
    loopback: Option<StreamNode>,
    enqueued: Vec<Value>,
    delay: Option<usize>,
}

enum SplitterVal {
    Uniform,
    Concrete(Splitter),
}

enum JoinerVal {
    Uniform,
    Concrete(Joiner),
}

/// Elaboration-time evaluation context: `init` blocks may not touch
/// tapes or send messages.
struct NoTapeCtx<'a> {
    name: &'a str,
}

impl EvalCtx for NoTapeCtx<'_> {
    fn node_name(&self) -> &str {
        self.name
    }
    fn peek(&mut self, _i: u64) -> Result<Value, RuntimeError> {
        Err(RuntimeError::BadMessage {
            portal: String::new(),
            handler: format!("{}: init must not peek", self.name),
        })
    }
    fn pop(&mut self) -> Result<Value, RuntimeError> {
        Err(RuntimeError::BadMessage {
            portal: String::new(),
            handler: format!("{}: init must not pop", self.name),
        })
    }
    fn push(&mut self, _v: Value) -> Result<(), RuntimeError> {
        Err(RuntimeError::BadMessage {
            portal: String::new(),
            handler: format!("{}: init must not push", self.name),
        })
    }
    fn send(
        &mut self,
        portal: &str,
        handler: &str,
        _args: Vec<Value>,
        _latency: (i64, i64),
    ) -> Result<(), RuntimeError> {
        Err(RuntimeError::BadMessage {
            portal: portal.to_string(),
            handler: handler.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn elab(src: &str, main: &str) -> StreamNode {
        let p = parse_program(src).unwrap();
        elaborate(&p, main).unwrap().stream
    }

    #[test]
    fn elaborate_fir_fills_coefficients() {
        let src = r#"
            float->float filter Fir(int N) {
                float[N] h;
                init { for (int i = 0; i < N; i++) h[i] = 1.0 / N; }
                work peek N pop 1 push 1 {
                    float sum = 0.0;
                    for (int i = 0; i < N; i++) sum += peek(i) * h[i];
                    push(sum);
                    pop();
                }
            }
            float->float pipeline Main() { add Fir(4); }
        "#;
        let s = elab(src, "Main");
        match &s {
            StreamNode::Pipeline(p) => match &p.children[0] {
                StreamNode::Filter(f) => {
                    assert_eq!(f.peek, 4);
                    match &f.state[0].init {
                        StateInit::Array(vs) => {
                            assert_eq!(vs.len(), 4);
                            assert_eq!(vs[0], Value::Float(0.25));
                        }
                        _ => panic!("expected array state"),
                    }
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn graph_for_unrolls_children() {
        let src = r#"
            float->float filter Id() { work pop 1 push 1 { push(pop()); } }
            float->float pipeline Main(int K) {
                for (int i = 0; i < K; i++) add Id();
            }
        "#;
        let p = parse_program(src).unwrap();
        let s = elaborate_with_args(&p, "Main", &[Value::Int(5)])
            .unwrap()
            .stream;
        assert_eq!(s.filter_count(), 5);
    }

    #[test]
    fn instance_names_are_unique() {
        let src = r#"
            float->float filter Id() { work pop 1 push 1 { push(pop()); } }
            float->float pipeline Main() { add Id(); add Id(); add Id(); }
        "#;
        let s = elab(src, "Main");
        let mut names = Vec::new();
        s.visit_filters(&mut |f| names.push(f.name.clone()));
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn params_substituted_into_work() {
        let src = r#"
            float->float filter Gain(float g) {
                work pop 1 push 1 { push(pop() * g); }
            }
            float->float pipeline Main() { add Gain(2.5); }
        "#;
        let s = elab(src, "Main");
        match &s {
            StreamNode::Pipeline(p) => match &p.children[0] {
                StreamNode::Filter(f) => {
                    // g must have been replaced by the literal 2.5
                    let mut found = false;
                    for st in &f.work {
                        st.visit_exprs(&mut |e| {
                            if matches!(e, Expr::FloatLit(x) if *x == 2.5) {
                                found = true;
                            }
                        });
                    }
                    assert!(found, "parameter not substituted: {:?}", f.work);
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn splitjoin_uniform_roundrobin_adapts() {
        let src = r#"
            float->float filter Id() { work pop 1 push 1 { push(pop()); } }
            float->float splitjoin Main(int B) {
                split roundrobin;
                for (int i = 0; i < B; i++) add Id();
                join roundrobin;
            }
        "#;
        let p = parse_program(src).unwrap();
        let s = elaborate_with_args(&p, "Main", &[Value::Int(3)])
            .unwrap()
            .stream;
        match s {
            StreamNode::SplitJoin(sj) => {
                assert_eq!(sj.splitter, Splitter::RoundRobin(vec![1, 1, 1]));
                assert_eq!(sj.joiner, Joiner::RoundRobin(vec![1, 1, 1]));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn feedbackloop_enqueue_and_delay() {
        let src = r#"
            int->int filter Add2() {
                work peek 2 pop 1 push 1 { push(peek(0) + peek(1)); pop(); }
            }
            int->int filter Id() { work pop 1 push 1 { push(pop()); } }
            int->int feedbackloop Main() {
                join roundrobin(0, 1);
                body Add2();
                split duplicate;
                loop Id();
                enqueue 0;
                enqueue 1;
            }
        "#;
        let s = elab(src, "Main");
        match s {
            StreamNode::FeedbackLoop(l) => {
                assert_eq!(l.delay, 2);
                assert_eq!(l.init_path, vec![Value::Int(0), Value::Int(1)]);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn register_records_portal_path() {
        let src = r#"
            float->float filter Rf() {
                float f;
                work pop 1 push 1 { push(pop() * f); }
                handler setf(float v) { f = v; }
            }
            float->float pipeline Main() {
                add Rf() as rf;
                register hop rf;
            }
        "#;
        let p = parse_program(src).unwrap();
        let out = elaborate(&p, "Main").unwrap();
        assert_eq!(out.portals.len(), 1);
        assert_eq!(out.portals[0].portal, "hop");
        assert_eq!(out.portals[0].path, "Main/rf");
        let g = streamit_graph::FlatGraph::from_stream(&out.stream);
        let receivers = out.portal_receivers(&g, "hop");
        assert_eq!(receivers.len(), 1);
    }

    #[test]
    fn max_latency_directive_recorded() {
        let src = r#"
            float->float filter F() { work pop 1 push 1 { push(pop()); } }
            float->float pipeline Main() {
                add F() as a;
                add F() as b;
                max_latency a b 10;
            }
        "#;
        let p = parse_program(src).unwrap();
        let out = elaborate(&p, "Main").unwrap();
        assert_eq!(out.latencies.len(), 1);
        let l = &out.latencies[0];
        assert_eq!(l.a_path, "Main/a");
        assert_eq!(l.b_path, "Main/b");
        assert_eq!(l.n, 10);
    }

    #[test]
    fn max_latency_unknown_alias_rejected() {
        let src = r#"
            float->float filter F() { work pop 1 push 1 { push(pop()); } }
            float->float pipeline Main() {
                add F() as a;
                max_latency a nope 3;
            }
        "#;
        let p = parse_program(src).unwrap();
        let e = elaborate(&p, "Main").unwrap_err();
        assert!(e.message.contains("nope"));
    }

    #[test]
    fn unknown_stream_reported() {
        let src = "float->float pipeline Main() { add Nope(); }";
        let p = parse_program(src).unwrap();
        let e = elaborate(&p, "Main").unwrap_err();
        assert!(e.message.contains("Nope"));
    }

    #[test]
    fn non_constant_rate_rejected() {
        let src = r#"
            float->float filter F() {
                work pop 1 push unknown { push(pop()); }
            }
            float->float pipeline Main() { add F(); }
        "#;
        let p = parse_program(src).unwrap();
        assert!(elaborate(&p, "Main").is_err());
    }

    #[test]
    fn pi_is_predefined() {
        let src = r#"
            void->float filter Osc(int N) {
                float[N] w;
                init { for (int i = 0; i < N; i++) w[i] = sin(2.0 * pi * i / N); }
                int t;
                work push 1 { push(w[t]); t = (t + 1) % N; }
            }
            void->float pipeline Main() { add Osc(8); }
        "#;
        let s = elab(src, "Main");
        match &s {
            StreamNode::Pipeline(p) => match &p.children[0] {
                StreamNode::Filter(f) => {
                    let w = f.state.iter().find(|s| s.name == "w").unwrap();
                    match &w.init {
                        StateInit::Array(vs) => {
                            assert!((vs[2].as_f64() - 1.0).abs() < 1e-9);
                        }
                        _ => panic!(),
                    }
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }
}
