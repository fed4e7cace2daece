//! The [`Machine`]: a manually-steppable executor for flat stream graphs.

use crate::error::RuntimeError;
use crate::eval::{eval_block_bounded, EvalCtx, Slot};
use std::collections::{HashMap, VecDeque};
use streamit_graph::{
    EdgeId, Filter, FlatGraph, FlatNodeKind, Joiner, NodeId, Splitter, StateInit, Value,
};

/// Resource bounds on execution.  Every limit degrades gracefully: when a
/// bound is hit the machine returns a typed [`RuntimeError`] instead of
/// spinning, overflowing memory, or panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecLimits {
    /// Maximum items buffered on any one channel before
    /// [`RuntimeError::CapacityExceeded`] is reported.
    pub max_channel_items: usize,
    /// Maximum statements executed by a single work-function invocation
    /// before [`RuntimeError::StepBudgetExhausted`] is reported.
    pub max_steps_per_firing: u64,
    /// Maximum firings performed by [`Machine::run_steady_states`] before
    /// [`RuntimeError::BudgetExhausted`] is reported
    /// ([`Machine::run_until_output`] takes its budget as an argument).
    pub max_firings: u64,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_channel_items: 1 << 20,
            max_steps_per_firing: 50_000_000,
            max_firings: 50_000_000,
        }
    }
}

/// A teleport message captured during a firing.
#[derive(Debug, Clone, PartialEq)]
pub struct SentMessage {
    /// The node whose work function sent the message.
    pub from: NodeId,
    pub portal: String,
    pub handler: String,
    pub args: Vec<Value>,
    /// `(min, max)` information-wavefront latency as written in the
    /// program.
    pub latency: (i64, i64),
}

/// The result of a single firing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FireOutcome {
    /// Messages sent during the firing (in program order).
    pub messages: Vec<SentMessage>,
}

/// Executable state of a flat stream graph.
///
/// Channels are FIFO tapes; the machine tracks, per tape, the cumulative
/// number of items pushed (`n(t)` in the paper) and popped (`p(t)`),
/// which the SDEP layer uses to enforce delivery constraints.
///
/// A graph's *entry* filter (a filter with `pop > 0` but no incoming
/// edge) reads from the machine's external input tape
/// ([`Machine::feed`]); dually, a filter with `push > 0` but no outgoing
/// edge writes to the machine's captured output ([`Machine::take_output`]).
pub struct Machine<'g> {
    graph: &'g FlatGraph,
    channels: Vec<VecDeque<Value>>,
    pushed: Vec<u64>,
    popped: Vec<u64>,
    states: Vec<HashMap<String, Slot>>,
    fired: Vec<u64>,
    total_firings: u64,
    input: VecDeque<Value>,
    input_consumed: u64,
    output: Vec<Value>,
    portals: HashMap<String, Vec<NodeId>>,
    pending: Vec<VecDeque<(String, Vec<Value>)>>,
    /// When `true` (default), messages are delivered to every portal
    /// receiver immediately before that receiver's next firing
    /// ("best-effort" semantics).  The SDEP scheduler sets this to `false`
    /// and calls [`Machine::deliver`] at the constraint-derived moment.
    pub auto_deliver: bool,
    limits: ExecLimits,
}

impl<'g> Machine<'g> {
    /// Build a machine for a flat graph, loading feedback-loop initial
    /// items onto their channels and initializing filter state.
    pub fn new(graph: &'g FlatGraph) -> Machine<'g> {
        let channels = graph
            .edges
            .iter()
            .map(|e| e.initial.iter().copied().collect::<VecDeque<_>>())
            .collect::<Vec<_>>();
        let pushed = graph.edges.iter().map(|e| e.initial.len() as u64).collect();
        let states = graph
            .nodes
            .iter()
            .map(|n| match &n.kind {
                FlatNodeKind::Filter(f) => init_state(f),
                _ => HashMap::new(),
            })
            .collect();
        Machine {
            graph,
            channels,
            pushed,
            popped: vec![0; graph.edges.len()],
            states,
            fired: vec![0; graph.nodes.len()],
            total_firings: 0,
            input: VecDeque::new(),
            input_consumed: 0,
            output: Vec::new(),
            portals: HashMap::new(),
            pending: vec![VecDeque::new(); graph.nodes.len()],
            auto_deliver: true,
            limits: ExecLimits::default(),
        }
    }

    /// The graph being executed.
    pub fn graph(&self) -> &'g FlatGraph {
        self.graph
    }

    /// Override the default resource bounds.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.limits = limits;
    }

    /// Current resource bounds.
    pub fn limits(&self) -> ExecLimits {
        self.limits
    }

    /// Append items to the external input tape.
    pub fn feed(&mut self, items: impl IntoIterator<Item = Value>) {
        self.input.extend(items);
    }

    /// Take captured external output produced so far.
    pub fn take_output(&mut self) -> Vec<Value> {
        std::mem::take(&mut self.output)
    }

    /// Peek at the captured external output without consuming it.
    pub fn output(&self) -> &[Value] {
        &self.output
    }

    /// Register `receiver` on `portal` (the appendix's
    /// `Portal.register`).
    pub fn register_portal(&mut self, portal: &str, receiver: NodeId) {
        self.portals
            .entry(portal.to_string())
            .or_default()
            .push(receiver);
    }

    /// Receivers registered on a portal.
    pub fn portal_receivers(&self, portal: &str) -> &[NodeId] {
        self.portals.get(portal).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of times `node` has fired.
    pub fn fired(&self, node: NodeId) -> u64 {
        self.fired[node.0]
    }

    /// Total firings across all nodes.
    pub fn total_firings(&self) -> u64 {
        self.total_firings
    }

    /// Cumulative items pushed onto `edge` — the paper's `n(t)`.
    pub fn pushed_count(&self, edge: EdgeId) -> u64 {
        self.pushed[edge.0]
    }

    /// Cumulative items popped from `edge` — the paper's `p(t)`.
    pub fn popped_count(&self, edge: EdgeId) -> u64 {
        self.popped[edge.0]
    }

    /// Items currently buffered on `edge`.
    pub fn channel_len(&self, edge: EdgeId) -> usize {
        self.channels[edge.0].len()
    }

    /// Total live items across all channels (the paper's buffer-size
    /// measure `Σ n(t) − p(t)`).
    pub fn live_items(&self) -> u64 {
        self.channels.iter().map(|c| c.len() as u64).sum()
    }

    /// Mutable access to a filter's state (used by tests and by message
    /// delivery in higher layers).
    pub fn state_mut(&mut self, node: NodeId) -> &mut HashMap<String, Slot> {
        &mut self.states[node.0]
    }

    /// Read-only access to a filter's state.
    pub fn state(&self, node: NodeId) -> &HashMap<String, Slot> {
        &self.states[node.0]
    }

    /// Items available on a node's input port `p`.
    fn avail(&self, node: NodeId, p: usize) -> u64 {
        match self.graph.in_edge_for_port(node, p) {
            Some(e) => self.channels[e.0].len() as u64,
            None => self.input.len() as u64,
        }
    }

    /// Effective (peek, pop, push) rates of a filter for its *next*
    /// firing — prework rates on the first firing when present.
    fn filter_rates(&self, node: NodeId, f: &Filter) -> (u64, u64, u64) {
        if self.fired[node.0] == 0 {
            if let Some(pw) = &f.prework {
                return (pw.peek.max(pw.pop) as u64, pw.pop as u64, pw.push as u64);
            }
        }
        (f.peek.max(f.pop) as u64, f.pop as u64, f.push as u64)
    }

    /// Can `node` fire right now (enough items on every input)?
    pub fn can_fire(&self, node: NodeId) -> bool {
        let n = self.graph.node(node);
        match &n.kind {
            FlatNodeKind::Filter(f) => {
                let (peek, _, _) = self.filter_rates(node, f);
                if f.input.is_none() {
                    true
                } else {
                    self.avail(node, 0) >= peek
                }
            }
            FlatNodeKind::Splitter(s) => self.avail(node, 0) >= s.pop_rate(),
            FlatNodeKind::Joiner(j) => {
                (0..self.graph.in_arity(node)).all(|i| self.avail(node, i) >= j.pop_rate(i))
            }
        }
    }

    /// Would `node` (currently blocked) become fireable if the external
    /// input tape held more items?  Every shortage must be on a port that
    /// reads the external tape (no edge); shortages on internal channels
    /// are structural and no amount of input unblocks them directly.
    fn blocked_only_on_input(&self, node: NodeId) -> bool {
        if self.can_fire(node) {
            return false;
        }
        let n = self.graph.node(node);
        match &n.kind {
            FlatNodeKind::Filter(f) => f.input.is_some() && n.inputs.is_empty(),
            FlatNodeKind::Splitter(s) => {
                s.pop_rate() > 0 && self.graph.in_edge_for_port(node, 0).is_none()
            }
            FlatNodeKind::Joiner(j) => (0..self.graph.in_arity(node)).all(|p| {
                self.avail(node, p) >= j.pop_rate(p)
                    || self.graph.in_edge_for_port(node, p).is_none()
            }),
        }
    }

    /// Is the machine *starved* rather than deadlocked?  True when no node
    /// can fire but some blocked node would fire given more external
    /// input — the stall is a data shortage, not a structural deadlock.
    pub fn starved(&self) -> bool {
        let mut any_blocked_on_input = false;
        for n in &self.graph.nodes {
            if self.can_fire(n.id) {
                return false;
            }
            any_blocked_on_input |= self.blocked_only_on_input(n.id);
        }
        any_blocked_on_input
    }

    /// Deliver a message handler invocation immediately: run the handler
    /// body against the node's state.
    pub fn deliver(
        &mut self,
        node: NodeId,
        handler: &str,
        args: &[Value],
    ) -> Result<(), RuntimeError> {
        // Borrow the handler body from the graph (which outlives `self`)
        // so delivery never clones statement trees.
        let g: &'g FlatGraph = self.graph;
        let n = g.node(node);
        let f = match &n.kind {
            FlatNodeKind::Filter(f) => f,
            _ => {
                return Err(RuntimeError::BadMessage {
                    portal: String::new(),
                    handler: handler.to_string(),
                })
            }
        };
        let h = f.handler(handler).ok_or_else(|| RuntimeError::BadMessage {
            portal: String::new(),
            handler: handler.to_string(),
        })?;
        let mut locals = HashMap::new();
        for ((pname, pty), v) in h.params.iter().zip(args) {
            locals.insert(pname.clone(), Slot::Scalar(v.coerce(*pty)));
        }
        let mut state = std::mem::take(&mut self.states[node.0]);
        // Handlers must not touch the tapes (validated statically); give
        // them a context that rejects tape access at runtime too.
        let mut ctx = HandlerCtx {
            name: &n.name,
            sent: Vec::new(),
        };
        let r = eval_block_bounded(
            &h.body,
            &mut state,
            locals,
            &mut ctx,
            self.limits.max_steps_per_firing,
        );
        self.states[node.0] = state;
        r?;
        // A handler may itself send messages; best-effort queue them.
        for m in ctx.sent {
            self.enqueue_message(&m.0, &m.1, &m.2)?;
        }
        Ok(())
    }

    fn enqueue_message(
        &mut self,
        portal: &str,
        handler: &str,
        args: &[Value],
    ) -> Result<(), RuntimeError> {
        // `portals` and `pending` are disjoint fields, so the receiver
        // list can be iterated in place (no Vec clone per message).
        let receivers = self
            .portals
            .get(portal)
            .ok_or_else(|| RuntimeError::BadMessage {
                portal: portal.to_string(),
                handler: handler.to_string(),
            })?;
        for &r in receivers {
            self.pending[r.0].push_back((handler.to_string(), args.to_vec()));
        }
        Ok(())
    }

    /// Fire `node` once.  Panics in debug builds if `can_fire` is false;
    /// in release the underflow is reported as an error.
    pub fn fire(&mut self, node: NodeId) -> Result<FireOutcome, RuntimeError> {
        // Best-effort message delivery: before the receiver's next firing.
        if self.auto_deliver {
            while let Some((h, args)) = self.pending[node.0].pop_front() {
                self.deliver(node, &h, &args)?;
            }
        }
        // `graph` outlives `self`, so node kinds can be borrowed for the
        // whole firing without cloning work bodies.
        let g: &'g FlatGraph = self.graph;
        let outcome = match &g.node(node).kind {
            FlatNodeKind::Filter(f) => self.fire_filter(node, f)?,
            FlatNodeKind::Splitter(s) => {
                self.fire_splitter(node, s)?;
                FireOutcome::default()
            }
            FlatNodeKind::Joiner(j) => {
                self.fire_joiner(node, j)?;
                FireOutcome::default()
            }
        };
        self.fired[node.0] += 1;
        self.total_firings += 1;
        // Auto-deliver messages the firing produced.
        if self.auto_deliver {
            for m in &outcome.messages {
                self.enqueue_message(&m.portal, &m.handler, &m.args)?;
            }
        }
        Ok(outcome)
    }

    fn take_from_port(&mut self, node: NodeId, port: usize) -> Result<Value, RuntimeError> {
        match self.graph.in_edge_for_port(node, port) {
            Some(e) => match self.channels[e.0].pop_front() {
                Some(v) => {
                    self.popped[e.0] += 1;
                    Ok(v)
                }
                None => Err(RuntimeError::TapeUnderflow {
                    node: self.graph.node(node).name.clone(),
                    needed: 1,
                    had: 0,
                    declared: None,
                }),
            },
            None => match self.input.pop_front() {
                Some(v) => {
                    self.input_consumed += 1;
                    Ok(v)
                }
                None => Err(RuntimeError::TapeUnderflow {
                    node: self.graph.node(node).name.clone(),
                    needed: 1,
                    had: 0,
                    declared: None,
                }),
            },
        }
    }

    fn push_to_port(&mut self, node: NodeId, port: usize, v: Value) -> Result<(), RuntimeError> {
        match self.graph.out_edge_for_port(node, port) {
            Some(e) => {
                if self.channels[e.0].len() >= self.limits.max_channel_items {
                    return Err(RuntimeError::CapacityExceeded {
                        node: self.graph.node(node).name.clone(),
                        capacity: self.limits.max_channel_items,
                    });
                }
                let ty = self.graph.edge(e).ty;
                self.channels[e.0].push_back(v.coerce(ty));
                self.pushed[e.0] += 1;
            }
            None => self.output.push(v),
        }
        Ok(())
    }

    fn fire_splitter(&mut self, node: NodeId, s: &Splitter) -> Result<(), RuntimeError> {
        let n_out = self.graph.out_arity(node);
        match s {
            Splitter::Duplicate => {
                let v = self.take_from_port(node, 0)?;
                for p in 0..n_out {
                    self.push_to_port(node, p, v)?;
                }
            }
            Splitter::RoundRobin(w) => {
                for (p, &wi) in w.iter().enumerate() {
                    for _ in 0..wi {
                        let v = self.take_from_port(node, 0)?;
                        self.push_to_port(node, p, v)?;
                    }
                }
            }
            Splitter::Null => {}
        }
        Ok(())
    }

    fn fire_joiner(&mut self, node: NodeId, j: &Joiner) -> Result<(), RuntimeError> {
        let n_in = self.graph.in_arity(node);
        match j {
            Joiner::RoundRobin(w) => {
                for (p, &wi) in w.iter().enumerate() {
                    for _ in 0..wi {
                        let v = self.take_from_port(node, p)?;
                        self.push_to_port(node, 0, v)?;
                    }
                }
            }
            Joiner::Combine => {
                // Element-wise combination (sum) of one item per input.
                let mut acc: Option<Value> = None;
                for p in 0..n_in {
                    let v = self.take_from_port(node, p)?;
                    acc = Some(match acc {
                        None => v,
                        Some(Value::Int(a)) => Value::Int(a + v.as_i64()),
                        Some(Value::Float(a)) => Value::Float(a + v.as_f64()),
                    });
                }
                if let Some(v) = acc {
                    self.push_to_port(node, 0, v)?;
                }
            }
            Joiner::Null => {}
        }
        Ok(())
    }

    fn fire_filter(&mut self, node: NodeId, f: &Filter) -> Result<FireOutcome, RuntimeError> {
        let first = self.fired[node.0] == 0;
        let body: &[streamit_graph::Stmt] = match (&f.prework, first) {
            (Some(pw), true) => &pw.body,
            _ => &f.work,
        };
        let (peek_window, pop, push) = self.filter_rates(node, f);
        let n = self.graph.node(node);
        let in_edge = n.inputs.first().copied();
        let out_edge = n.outputs.first().copied();

        let max_steps = self.limits.max_steps_per_firing;
        let mut state = std::mem::take(&mut self.states[node.0]);
        let mut ctx = FilterCtx {
            machine: self,
            node,
            in_edge,
            out_edge,
            pops: 0,
            pushes: 0,
            messages: Vec::new(),
        };
        let result = eval_block_bounded(body, &mut state, HashMap::new(), &mut ctx, max_steps);
        let (pops, pushes, messages) = (ctx.pops, ctx.pushes, ctx.messages);
        self.states[node.0] = state;
        result?;

        if pops != pop || pushes != push {
            return Err(RuntimeError::RateViolation {
                node: self.graph.node(node).name.clone(),
                declared: (pop as usize, push as usize),
                actual: (pops, pushes),
                peek: peek_window,
            });
        }
        // Discard the popped prefix from the input tape in one bulk
        // drain: pops were performed via a read cursor to keep peeks
        // stable.
        if let Some(e) = in_edge {
            self.channels[e.0].drain(..pops as usize);
            self.popped[e.0] += pops;
        } else {
            self.input.drain(..pops as usize);
            self.input_consumed += pops;
        }
        Ok(FireOutcome { messages })
    }

    /// Execute a pre-computed firing sequence, verifying firability.
    pub fn run_schedule(&mut self, schedule: &[(NodeId, u64)]) -> Result<(), RuntimeError> {
        for &(node, count) in schedule {
            for _ in 0..count {
                if !self.can_fire(node) {
                    return Err(RuntimeError::Deadlock {
                        detail: format!(
                            "scheduled node {} cannot fire",
                            self.graph.node(node).name
                        ),
                    });
                }
                self.fire(node)?;
            }
        }
        Ok(())
    }

    /// Execute `k` steady-state iterations: every node fires `k` times
    /// its repetition count (plus the initialization margin that peeking
    /// filters require).  Requires enough external input to be fed in
    /// advance.  Returns the number of firings performed.
    pub fn run_steady_states(&mut self, k: u64) -> Result<u64, RuntimeError> {
        let reps =
            streamit_graph::repetition_vector(self.graph).map_err(|e| RuntimeError::Deadlock {
                detail: format!("no steady state: {e}"),
            })?;
        let order = self.graph.topo_order();
        let start_fired: Vec<u64> = order.iter().map(|&n| self.fired(n)).collect();
        let start_total = self.total_firings;
        // Targets: k steady states beyond the current position; allow one
        // extra iteration of slack so upstream filters can prime the
        // sliding windows of peeking consumers.
        let target: Vec<u64> = order
            .iter()
            .zip(&start_fired)
            .map(|(&n, &f)| f + reps[n.0] * k)
            .collect();
        // Priming margin: chains of peeking filters need upstream
        // overproduction before their first windows fill (compare the
        // verifier's initialization analysis) — one extra round per
        // window's worth of surplus.
        let flows = streamit_graph::steady_flows(self.graph, &reps);
        let mut init_rounds: u64 = 1;
        for e in &self.graph.edges {
            let extra = self.graph.peek_extra(e.dst);
            if extra > 0 && flows[e.id.0] > 0 {
                init_rounds += extra.div_ceil(flows[e.id.0]);
            }
        }
        let slack: Vec<u64> = order.iter().map(|&n| reps[n.0] * init_rounds).collect();
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for (i, &node) in order.iter().enumerate() {
                while self.fired(node) < target[i] + slack[i] && self.can_fire(node) {
                    if self.fired(node) >= target[i] {
                        // Only overshoot (the peek-priming margin) when a
                        // downstream node is short of its target *and*
                        // blocked — i.e. genuinely starving for data.
                        let needed = order.iter().enumerate().any(|(j, &m)| {
                            self.fired(m) < target[j]
                                && !self.can_fire(m)
                                && self.graph.is_downstream(node, m)
                        });
                        if !needed {
                            break;
                        }
                    }
                    self.fire(node)?;
                    progressed = true;
                }
                if self.fired(node) < target[i] {
                    all_done = false;
                }
            }
            if all_done {
                return Ok(self.total_firings - start_total);
            }
            if !progressed {
                if self.starved() {
                    return Err(RuntimeError::Starved {
                        detail: "steady state cannot complete: external input \
                                 exhausted"
                            .into(),
                    });
                }
                return Err(RuntimeError::Deadlock {
                    detail: "steady state cannot complete (under-primed loop \
                             or blocked node)"
                        .into(),
                });
            }
            if self.total_firings - start_total > self.limits.max_firings {
                return Err(RuntimeError::BudgetExhausted {
                    fired: self.total_firings - start_total,
                });
            }
        }
    }

    /// Drive the graph until the external output holds at least `n`
    /// items (or all sinks have consumed available input), using a ready
    /// queue seeded from edge updates: firing a node can only change the
    /// firability of the node itself and its immediate successors, so
    /// only those are re-examined — not the whole graph per round.
    /// Returns the number of firings performed.
    ///
    /// Fails with [`RuntimeError::Starved`] if the external input tape
    /// runs dry mid-run, with [`RuntimeError::Deadlock`] if the queue
    /// drains for a structural reason, or with
    /// [`RuntimeError::BudgetExhausted`] after `max_firings`.
    pub fn run_until_output(&mut self, n: usize, max_firings: u64) -> Result<u64, RuntimeError> {
        let start = self.total_firings;
        // Per-dequeue burst keeps sources from running away while still
        // amortizing the queue bookkeeping.
        const PER_BURST: u64 = 64;
        // Invariant: every fireable node is queued.  All nodes start
        // queued (external feeding happened before this call); afterwards
        // a node's firability only changes when it or a predecessor
        // fires, and both paths re-enqueue it below.
        let mut queued = vec![true; self.graph.nodes.len()];
        let mut ready: VecDeque<NodeId> = self.graph.topo_order().into();
        while self.output.len() < n {
            let Some(id) = ready.pop_front() else {
                if self.starved() {
                    return Err(RuntimeError::Starved {
                        detail: format!(
                            "input tape exhausted; output has {} of {} items",
                            self.output.len(),
                            n
                        ),
                    });
                }
                return Err(RuntimeError::Deadlock {
                    detail: format!(
                        "no node can fire; output has {} of {} items",
                        self.output.len(),
                        n
                    ),
                });
            };
            queued[id.0] = false;
            let mut fired_any = false;
            let mut k = 0;
            while k < PER_BURST && self.output.len() < n && self.can_fire(id) {
                self.fire(id)?;
                fired_any = true;
                k += 1;
                if self.total_firings - start > max_firings {
                    return Err(RuntimeError::BudgetExhausted {
                        fired: self.total_firings - start,
                    });
                }
            }
            if fired_any {
                // Data moved: successors may have become fireable, and the
                // node itself may still be (burst cap, or prework rates).
                for &e in &self.graph.node(id).outputs {
                    let dst = self.graph.edge(e).dst;
                    if !queued[dst.0] {
                        queued[dst.0] = true;
                        ready.push_back(dst);
                    }
                }
                if !queued[id.0] {
                    queued[id.0] = true;
                    ready.push_back(id);
                }
            }
        }
        Ok(self.total_firings - start)
    }
}

fn init_state(f: &Filter) -> HashMap<String, Slot> {
    f.state
        .iter()
        .map(|sv| {
            let slot = match &sv.init {
                StateInit::Scalar(v) => Slot::Scalar(v.coerce(sv.ty)),
                StateInit::Array(vs) => Slot::Array(vs.iter().map(|v| v.coerce(sv.ty)).collect()),
            };
            (sv.name.clone(), slot)
        })
        .collect()
}

/// Evaluation context for a filter firing: reads through a cursor so that
/// `peek(i)` stays relative to the firing's initial tape head.
struct FilterCtx<'m, 'g> {
    machine: &'m mut Machine<'g>,
    node: NodeId,
    in_edge: Option<EdgeId>,
    out_edge: Option<EdgeId>,
    pops: u64,
    pushes: u64,
    messages: Vec<SentMessage>,
}

impl EvalCtx for FilterCtx<'_, '_> {
    fn node_name(&self) -> &str {
        &self.machine.graph.node(self.node).name
    }

    fn peek(&mut self, i: u64) -> Result<Value, RuntimeError> {
        let at = (self.pops + i) as usize;
        let got = match self.in_edge {
            Some(e) => self.machine.channels[e.0].get(at).copied(),
            None => self.machine.input.get(at).copied(),
        };
        got.ok_or_else(|| RuntimeError::TapeUnderflow {
            node: self.node_name().to_string(),
            needed: at as u64 + 1,
            had: match self.in_edge {
                Some(e) => self.machine.channels[e.0].len() as u64,
                None => self.machine.input.len() as u64,
            },
            declared: self.machine.graph.node(self.node).as_filter().map(|f| {
                let (peek, pop, _) = self.machine.filter_rates(self.node, f);
                (peek, pop)
            }),
        })
    }

    fn pop(&mut self) -> Result<Value, RuntimeError> {
        let v = self.peek(0)?;
        self.pops += 1;
        Ok(v)
    }

    fn push(&mut self, v: Value) -> Result<(), RuntimeError> {
        match self.out_edge {
            Some(e) => {
                if self.machine.channels[e.0].len() >= self.machine.limits.max_channel_items {
                    return Err(RuntimeError::CapacityExceeded {
                        node: self.node_name().to_string(),
                        capacity: self.machine.limits.max_channel_items,
                    });
                }
                let ty = self.machine.graph.edge(e).ty;
                self.machine.channels[e.0].push_back(v.coerce(ty));
                self.machine.pushed[e.0] += 1;
            }
            None => self.machine.output.push(v),
        }
        self.pushes += 1;
        Ok(())
    }

    fn send(
        &mut self,
        portal: &str,
        handler: &str,
        args: Vec<Value>,
        latency: (i64, i64),
    ) -> Result<(), RuntimeError> {
        self.messages.push(SentMessage {
            from: self.node,
            portal: portal.to_string(),
            handler: handler.to_string(),
            args,
            latency,
        });
        Ok(())
    }
}

/// Context for message handlers: tape access is forbidden.
struct HandlerCtx<'a> {
    name: &'a str,
    sent: Vec<(String, String, Vec<Value>)>,
}

impl EvalCtx for HandlerCtx<'_> {
    fn node_name(&self) -> &str {
        self.name
    }
    fn peek(&mut self, _i: u64) -> Result<Value, RuntimeError> {
        Err(RuntimeError::BadMessage {
            portal: String::new(),
            handler: format!("{}: handler peeked", self.name),
        })
    }
    fn pop(&mut self) -> Result<Value, RuntimeError> {
        Err(RuntimeError::BadMessage {
            portal: String::new(),
            handler: format!("{}: handler popped", self.name),
        })
    }
    fn push(&mut self, _v: Value) -> Result<(), RuntimeError> {
        Err(RuntimeError::BadMessage {
            portal: String::new(),
            handler: format!("{}: handler pushed", self.name),
        })
    }
    fn send(
        &mut self,
        portal: &str,
        handler: &str,
        args: Vec<Value>,
        _latency: (i64, i64),
    ) -> Result<(), RuntimeError> {
        self.sent
            .push((portal.to_string(), handler.to_string(), args));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::DataType;

    fn double() -> streamit_graph::StreamNode {
        FilterBuilder::new("double", DataType::Int)
            .rates(1, 1, 1)
            .push(pop() * lit(2i64))
            .build_node()
    }

    #[test]
    fn pipeline_executes_end_to_end() {
        let p = pipeline("p", vec![double(), double()]);
        let g = FlatGraph::from_stream(&p);
        let mut m = Machine::new(&g);
        m.feed((1..=4).map(Value::Int));
        m.run_until_output(4, 1000).unwrap();
        assert_eq!(
            m.take_output(),
            vec![4, 8, 12, 16]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn splitjoin_round_robin_routes() {
        let sj = splitjoin(
            "sj",
            Splitter::round_robin(2),
            vec![
                identity("a", DataType::Int),
                FilterBuilder::new("neg", DataType::Int)
                    .rates(1, 1, 1)
                    .push(-pop())
                    .build_node(),
            ],
            Joiner::round_robin(2),
        );
        let g = FlatGraph::from_stream(&sj);
        let mut m = Machine::new(&g);
        m.feed((1..=6).map(Value::Int));
        m.run_until_output(6, 1000).unwrap();
        assert_eq!(
            m.take_output(),
            vec![1, -2, 3, -4, 5, -6]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplicate_and_combine() {
        // duplicate -> [id, id] -> combine should double every value.
        let sj = splitjoin(
            "sj",
            Splitter::Duplicate,
            vec![identity("a", DataType::Int), identity("b", DataType::Int)],
            Joiner::Combine,
        );
        let g = FlatGraph::from_stream(&sj);
        let mut m = Machine::new(&g);
        m.feed((1..=3).map(Value::Int));
        m.run_until_output(3, 1000).unwrap();
        assert_eq!(
            m.take_output(),
            vec![2, 4, 6]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn feedback_loop_fibonacci() {
        // Classic StreamIt Fibonacci: the loop body is a sliding-window
        // adder; the duplicate splitter emits each sum both externally
        // and back around the loop, which is primed with 0, 1.
        let body = FilterBuilder::new("adder", DataType::Int)
            .rates(2, 1, 1)
            .push(peek(0) + peek(1))
            .pop_discard()
            .build_node();
        let fl = feedback_loop(
            "fib",
            Joiner::RoundRobin(vec![0, 1]),
            body,
            Splitter::Duplicate,
            identity("lb", DataType::Int),
            2,
            |i| Value::Int(i as i64), // 0, 1
        );
        let g = FlatGraph::from_stream(&fl);
        let mut m = Machine::new(&g);
        m.run_until_output(6, 1000).unwrap();
        let out: Vec<i64> = m.take_output().iter().map(|v| v.as_i64()).collect();
        assert_eq!(out, vec![1, 2, 3, 5, 8, 13]);
    }

    #[test]
    fn peeking_moving_average() {
        let avg = FilterBuilder::new("avg", DataType::Float)
            .rates(3, 1, 1)
            .push((peek(0) + peek(1) + peek(2)) / lit(3.0))
            .pop_discard()
            .build_node();
        let g = FlatGraph::from_stream(&avg);
        let mut m = Machine::new(&g);
        m.feed([3.0, 6.0, 9.0, 12.0].map(Value::Float));
        m.run_until_output(2, 1000).unwrap();
        assert_eq!(m.take_output(), vec![Value::Float(6.0), Value::Float(9.0)]);
    }

    #[test]
    fn prework_runs_once_with_own_rates() {
        // A delay filter: prework pushes a zero without consuming.
        let delay = FilterBuilder::new("delay", DataType::Int)
            .rates(1, 1, 1)
            .prework(0, 0, 1, |b| b.push(lit(0i64)))
            .push(pop())
            .build_node();
        let g = FlatGraph::from_stream(&delay);
        let mut m = Machine::new(&g);
        m.feed((1..=3).map(Value::Int));
        m.run_until_output(4, 1000).unwrap();
        assert_eq!(
            m.take_output(),
            vec![0, 1, 2, 3]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn stateful_counter_filter() {
        let counter = FilterBuilder::new("count", DataType::Int)
            .rates(1, 1, 1)
            .state("n", DataType::Int, Value::Int(0))
            .work(|b| {
                b.set("n", var("n") + lit(1i64))
                    .pop_discard()
                    .push(var("n"))
            })
            .build_node();
        let g = FlatGraph::from_stream(&counter);
        let mut m = Machine::new(&g);
        m.feed([0, 0, 0].map(Value::Int));
        m.run_until_output(3, 100).unwrap();
        assert_eq!(
            m.take_output(),
            vec![1, 2, 3]
                .into_iter()
                .map(Value::Int)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn message_delivery_best_effort() {
        // sender sends gain updates; receiver multiplies by state gain.
        let sender = FilterBuilder::new("send", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| {
                b.send("gainPortal", "setGain", vec![lit(3i64)], (0, 1))
                    .push(pop())
            })
            .build_node();
        let receiver = FilterBuilder::new("recv", DataType::Int)
            .rates(1, 1, 1)
            .state("g", DataType::Int, Value::Int(1))
            .work(|b| b.push(pop() * var("g")))
            .handler("setGain", vec![("v", DataType::Int)], |b| {
                b.set("g", var("v"))
            })
            .build_node();
        let p = pipeline("p", vec![sender, receiver]);
        let g = FlatGraph::from_stream(&p);
        let recv_id = g
            .nodes
            .iter()
            .find(|n| n.name.ends_with("recv"))
            .unwrap()
            .id;
        let mut m = Machine::new(&g);
        m.register_portal("gainPortal", recv_id);
        m.feed([1, 1].map(Value::Int));
        m.run_until_output(2, 100).unwrap();
        // First receiver firing already sees gain 3 (best-effort delivery
        // happens before the next firing of the receiver).
        assert_eq!(
            m.take_output(),
            vec![3, 3].into_iter().map(Value::Int).collect::<Vec<_>>()
        );
    }

    #[test]
    fn handler_may_send_chained_messages() {
        // Per the appendix: "a message handler can send another message".
        // A relay's handler forwards to a second portal.
        let sender = FilterBuilder::new("send", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| b.send("first", "fwd", vec![lit(7i64)], (0, 1)).push(pop()))
            .build_node();
        let relay = FilterBuilder::new("relay", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| b.push(pop()))
            .handler("fwd", vec![("v", DataType::Int)], |b| {
                b.send("second", "setv", vec![var("v")], (0, 1))
            })
            .build_node();
        let target = FilterBuilder::new("target", DataType::Int)
            .rates(1, 1, 1)
            .state("x", DataType::Int, Value::Int(0))
            .work(|b| b.push(pop() + var("x")))
            .handler("setv", vec![("v", DataType::Int)], |b| b.set("x", var("v")))
            .build_node();
        let p = pipeline("p", vec![sender, relay, target]);
        let g = FlatGraph::from_stream(&p);
        let find = |sfx: &str| g.nodes.iter().find(|n| n.name.ends_with(sfx)).unwrap().id;
        let mut m = Machine::new(&g);
        m.register_portal("first", find("relay"));
        m.register_portal("second", find("target"));
        m.feed([0, 0, 0].map(Value::Int));
        m.run_until_output(3, 1000).unwrap();
        let out: Vec<i64> = m.take_output().iter().map(|v| v.as_i64()).collect();
        assert!(out.contains(&7), "chained message must land: {out:?}");
    }

    #[test]
    fn rate_violation_caught() {
        let bad = FilterBuilder::new("bad", DataType::Int)
            .rates(1, 1, 2) // declares push=2, body pushes 1
            .push(pop())
            .build_node();
        let g = FlatGraph::from_stream(&bad);
        let mut m = Machine::new(&g);
        m.feed([1].map(Value::Int));
        let err = m.run_until_output(2, 100).unwrap_err();
        assert!(matches!(err, RuntimeError::RateViolation { .. }));
    }

    #[test]
    fn starvation_reported_when_input_runs_dry() {
        // Regression: a run that stalls mid-way because the external tape
        // is empty must report `Starved`, not `Deadlock` (and must not
        // loop forever).
        let p = pipeline("p", vec![double()]);
        let g = FlatGraph::from_stream(&p);
        let mut m = Machine::new(&g);
        m.feed([1].map(Value::Int));
        let err = m.run_until_output(5, 100).unwrap_err();
        assert!(matches!(err, RuntimeError::Starved { .. }), "{err:?}");
    }

    #[test]
    fn starvation_distinguished_from_structural_deadlock() {
        // A filter that peeks beyond what its pop rate replenishes on a
        // *fed* machine with too little input: starved.  The same graph
        // with items still on the tape but a node past its window is a
        // different story — here we only pin the starved side.
        let avg = FilterBuilder::new("avg", DataType::Int)
            .rates(4, 1, 1)
            .push(peek(3))
            .pop_discard()
            .build_node();
        let g = FlatGraph::from_stream(&avg);
        let mut m = Machine::new(&g);
        m.feed([1, 2].map(Value::Int)); // needs 4 to fire
        let err = m.run_until_output(1, 100).unwrap_err();
        assert!(matches!(err, RuntimeError::Starved { .. }), "{err:?}");
    }

    #[test]
    fn channel_capacity_cap_reported() {
        // A 1->8 up-sampler feeding a slow consumer overflows a tiny
        // channel cap instead of buffering without bound.
        let src = FilterBuilder::new("burst", DataType::Int)
            .rates(1, 1, 8)
            .work(|b| {
                b.let_("v", DataType::Int, pop())
                    .for_("i", 0, 8, |b| b.push(var("v")))
            })
            .build_node();
        let sink = FilterBuilder::new("slow", DataType::Int)
            .rates(8, 8, 1)
            .work(|b| {
                let mut b = b.push(peek(0));
                for _ in 0..8 {
                    b = b.pop_discard();
                }
                b
            })
            .build_node();
        let p = pipeline("p", vec![src, sink]);
        let g = FlatGraph::from_stream(&p);
        let mut m = Machine::new(&g);
        m.set_limits(ExecLimits {
            max_channel_items: 4,
            ..ExecLimits::default()
        });
        m.feed((0..100).map(Value::Int));
        let err = m.run_until_output(100, 10_000).unwrap_err();
        assert!(
            matches!(err, RuntimeError::CapacityExceeded { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn run_steady_states_counts_firings() {
        // Up-sampler (1->2) then down-sampler (3->1): reps = [3, 2].
        let up = FilterBuilder::new("up", DataType::Int)
            .rates(1, 1, 2)
            .work(|b| {
                b.let_("v", DataType::Int, pop())
                    .push(var("v"))
                    .push(var("v"))
            })
            .build_node();
        let down = FilterBuilder::new("down", DataType::Int)
            .rates(3, 3, 1)
            .work(|b| b.push(peek(0)).pop_discard().pop_discard().pop_discard())
            .build_node();
        let p = pipeline("p", vec![up, down]);
        let g = FlatGraph::from_stream(&p);
        let reps = streamit_graph::repetition_vector(&g).unwrap();
        assert_eq!(reps, vec![3, 2]);
        let mut m = Machine::new(&g);
        m.feed((0..30).map(Value::Int));
        m.run_steady_states(4).unwrap();
        let by = |suffix: &str| {
            g.nodes
                .iter()
                .find(|n| n.name.ends_with(suffix))
                .map(|n| m.fired(n.id))
                .unwrap()
        };
        assert_eq!(by("up"), 12);
        assert_eq!(by("down"), 8);
        assert_eq!(m.output().len(), 8);
    }

    #[test]
    fn run_steady_states_primes_peeking_filters() {
        let avg = FilterBuilder::new("avg", DataType::Float)
            .rates(5, 1, 1)
            .push((peek(0) + peek(4)) * lit(0.5))
            .pop_discard()
            .build_node();
        let p = pipeline("p", vec![identity("pre", DataType::Float), avg]);
        let g = FlatGraph::from_stream(&p);
        let mut m = Machine::new(&g);
        m.feed((0..32).map(|i| Value::Float(i as f64)));
        m.run_steady_states(8).unwrap();
        // Eight steady states = eight outputs (plus whatever priming
        // produced beyond them).
        assert!(m.output().len() >= 8);
        assert_eq!(m.output()[0], Value::Float(2.0));
    }

    #[test]
    fn run_steady_states_starves_without_input() {
        let p = pipeline("p", vec![double()]);
        let g = FlatGraph::from_stream(&p);
        let mut m = Machine::new(&g);
        m.feed([1].map(Value::Int));
        let err = m.run_steady_states(5).unwrap_err();
        assert!(matches!(err, RuntimeError::Starved { .. }), "{err:?}");
    }

    #[test]
    fn counters_track_paper_quantities() {
        let p = pipeline("p", vec![double(), double()]);
        let g = FlatGraph::from_stream(&p);
        let mut m = Machine::new(&g);
        m.feed((1..=4).map(Value::Int));
        m.run_until_output(4, 100).unwrap();
        let e = g.edges[0].id;
        assert_eq!(m.pushed_count(e), 4);
        assert_eq!(m.popped_count(e), 4);
        assert_eq!(m.channel_len(e), 0);
        assert_eq!(m.live_items(), 0);
    }
}
