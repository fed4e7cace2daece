//! Static compilation of a flat graph into a firing plan.
//!
//! The planner runs once per graph and produces a [`Plan`]: lowered
//! bytecode for every filter, a tape slot for every channel, a replayable
//! initialization op sequence (prework firings plus any priming the
//! steady round needs), and the steady-round ops split into a serial
//! *pre* stage, independent *branch* stages (one per split-join branch,
//! eligible for data-parallel execution), and a serial *post* stage.
//!
//! Everything schedule-shaped is resolved here — at run time the engine
//! only walks flat op arrays.  A count simulation over the ops proves
//! the round is steady (occupancy returns to its post-init snapshot),
//! sizes every tape to its maximum simulated occupancy, and derives how
//! many external input items `k` iterations require.

use std::collections::HashSet;

use streamit_graph::{
    repetition_vector, DataType, EdgeId, Filter, FlatGraph, FlatNode, FlatNodeKind, Joiner, NodeId,
    Splitter,
};

use crate::bytecode::{initial_items_typed, FilterCode, Rates};
use crate::driver::Schedule;
use crate::lowering::LoweringCache;
use crate::ExecError;

/// Address of a tape or frame: which shard owns it, and the index inside
/// that shard.  Shard 0 is the serial shard; shard `b + 1` holds branch
/// `b`'s tapes and frames so a worker thread can borrow them disjointly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    pub shard: u16,
    pub slot: u16,
}

/// Shard-0 slot 0 is always the external input tape.
pub const EXT_IN: Loc = Loc { shard: 0, slot: 0 };
/// Shard-0 slot 1 is always the external output tape.
pub const EXT_OUT: Loc = Loc { shard: 0, slot: 1 };

/// One bulk move inside a [`Op::Moves`] firing: `n` items from the front
/// of `src` to the tail of `dst`, in spec order within each firing.
#[derive(Debug, Clone)]
pub struct MoveSpec {
    pub src: Loc,
    pub dst: Loc,
    pub n: u32,
}

/// One schedule entry: fire a node `times` times.
#[derive(Debug, Clone)]
pub enum Op {
    /// Run a filter's bytecode against its input/output tapes.
    Work {
        code: u32,
        frame: Loc,
        input: Option<Loc>,
        output: Option<Loc>,
        prework: bool,
        times: u32,
    },
    /// Duplicate splitter: one item in, a copy to every output, per firing.
    Dup {
        input: Loc,
        outputs: Box<[Loc]>,
        times: u32,
    },
    /// Round-robin splitter/joiner: weighted bulk moves, per firing.
    Moves { moves: Box<[MoveSpec]>, times: u32 },
    /// Combine joiner: element-wise sum of one item per input, per firing.
    Combine {
        inputs: Box<[Loc]>,
        output: Loc,
        times: u32,
    },
}

impl Op {
    pub fn times(&self) -> u32 {
        match self {
            Op::Work { times, .. }
            | Op::Dup { times, .. }
            | Op::Moves { times, .. }
            | Op::Combine { times, .. } => *times,
        }
    }
}

/// Static description of one tape slot.  `cap` is the maximum occupancy
/// the count simulation observed; the external slots keep `cap == 0`
/// because the engine sizes them from the actual run parameters.
#[derive(Debug, Clone)]
pub struct TapeSpec {
    pub ty: DataType,
    pub cap: u64,
    pub initial: Vec<streamit_graph::Value>,
}

/// External-stream accounting derived by the count simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Input items consumed by the initialization ops.
    pub init_in: u64,
    /// Input items that must be present before initialization (peeks may
    /// require more than are consumed).
    pub init_in_required: u64,
    /// Input items consumed per steady round.
    pub round_in: u64,
    /// Input items that must be present at a round's start, beyond those
    /// already consumed (again, peek windows can exceed pops; never less
    /// than `round_in`).
    pub round_in_required: u64,
    /// Output items produced by initialization.
    pub init_out: u64,
    /// Output items produced per steady round.
    pub round_out: u64,
}

impl Stats {
    /// External input items that must be supplied to run initialization
    /// plus `k` steady iterations (peek windows can require more than is
    /// consumed).  Saturates, so an absurd `k` reads as "more input than
    /// can exist" instead of wrapping past the starvation check.
    pub fn required_input(&self, k: u64) -> u64 {
        match k.checked_sub(1) {
            None => self.init_in_required,
            Some(full_rounds) => self.init_in_required.max(
                full_rounds
                    .saturating_mul(self.round_in)
                    .saturating_add(self.init_in)
                    .saturating_add(self.round_in_required),
            ),
        }
    }

    /// Steady iterations needed before `n` output items exist.
    pub fn iterations_for(&self, n: u64) -> Result<u64, ExecError> {
        if n <= self.init_out {
            Ok(0)
        } else if self.round_out == 0 {
            Err(ExecError::NoSteadyOutput)
        } else {
            Ok((n - self.init_out).div_ceil(self.round_out))
        }
    }
}

/// Options controlling work-IR lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// `0` lowers work functions verbatim; `1` (the default) runs the
    /// analysis mid-end optimizer (constant folding, branch pruning,
    /// dead-store elimination, copy propagation, loop unrolling) on
    /// each filter before bytecode lowering.
    pub opt_level: u8,
}

impl Default for LowerOptions {
    fn default() -> LowerOptions {
        LowerOptions { opt_level: 1 }
    }
}

/// The steady state at a longer stride: `k` unit rounds run as one
/// round over the same op lists with every `times` multiplied by `k`,
/// proved by the count simulation from the unit plan's post-init
/// snapshot.
#[derive(Debug, Clone)]
pub struct Batch {
    pub k: u32,
    /// Input items that must be staged before a scaled round (its
    /// `round_req`; never less than `k` × `round_in`).
    pub round_in_required: u64,
    /// Tape capacities that hold initialization, unit rounds and scaled
    /// rounds alike, indexed like [`Plan::tapes`].
    pub caps: Vec<Vec<u64>>,
}

/// A fully compiled graph: everything the engine needs, with no
/// remaining references to the source graph.
#[derive(Debug, Clone)]
pub struct Plan {
    pub codes: Vec<FilterCode>,
    /// Tape specs per shard (`tapes[0][0]`/`[0][1]` are EXT_IN/EXT_OUT).
    pub tapes: Vec<Vec<TapeSpec>>,
    /// Frame code indices per shard: `frames[s][i]` is the `codes` index
    /// whose state lives in shard `s`, frame slot `i`.
    pub frames: Vec<Vec<u32>>,
    pub init_ops: Vec<Op>,
    pub pre_ops: Vec<Op>,
    /// One op list per split-join branch; branches are data-independent
    /// and may run on separate threads.
    pub branch_ops: Vec<Vec<Op>>,
    pub post_ops: Vec<Op>,
    /// The longest stride the count simulation proved for these op
    /// lists, if any; everything else here describes the unit round.
    pub batch: Option<Batch>,
    pub input_ty: DataType,
    pub stats: Stats,
    /// Typed lowering notes (e.g. `L0701` dropped-kernel-hint warnings),
    /// formatted like analysis findings.
    pub notes: Vec<String>,
}

impl Plan {
    /// The driver's view of this plan: all shards from base 0, the
    /// external streams at [`EXT_IN`] / [`EXT_OUT`].
    pub fn schedule(&self) -> Schedule<'_> {
        Schedule {
            codes: &self.codes,
            tapes: &self.tapes,
            frames: &self.frames,
            input_ty: self.input_ty,
            stats: self.stats,
            ext_in: Some(EXT_IN),
            ext_out: Some(EXT_OUT),
            init: &self.init_ops,
            pre: &self.pre_ops,
            branches: &self.branch_ops,
            post: &self.post_ops,
            batch: self.batch.as_ref(),
        }
    }
}

/// Input-port demand of one firing: which tape it reads, how many items
/// must be present (`window`), how many it consumes (`pop`).
pub struct PortUse {
    pub edge: Option<EdgeId>,
    pub window: u64,
    pub pop: u64,
}

/// Output-port supply of one firing.
pub struct OutUse {
    pub edge: Option<EdgeId>,
    pub push: u64,
}

/// The I/O profile of one firing of `node` (`first` selects prework
/// rates for filters that declare one).  Zero-rate ports are omitted.
pub fn firing_io(g: &FlatGraph, node: NodeId, first: bool) -> (Vec<PortUse>, Vec<OutUse>) {
    let n = g.node(node);
    match &n.kind {
        FlatNodeKind::Filter(f) => {
            let (window, pop, push) = match (&f.prework, first) {
                (Some(pw), true) => (pw.peek.max(pw.pop) as u64, pw.pop as u64, pw.push as u64),
                _ => (f.peek.max(f.pop) as u64, f.pop as u64, f.push as u64),
            };
            let mut ins = Vec::new();
            if f.input.is_some() && window > 0 {
                ins.push(PortUse {
                    edge: n.inputs.first().copied(),
                    window,
                    pop,
                });
            }
            let mut outs = Vec::new();
            if f.output.is_some() && push > 0 {
                outs.push(OutUse {
                    edge: n.outputs.first().copied(),
                    push,
                });
            }
            (ins, outs)
        }
        FlatNodeKind::Splitter(s) => {
            let pop = s.pop_rate();
            let mut ins = Vec::new();
            if pop > 0 {
                ins.push(PortUse {
                    edge: g.in_edge_for_port(node, 0),
                    window: pop,
                    pop,
                });
            }
            let outs = (0..g.out_arity(node))
                .filter_map(|p| {
                    let push = match s {
                        Splitter::Duplicate => 1,
                        Splitter::RoundRobin(w) => w.get(p).copied().unwrap_or(0),
                        Splitter::Null => 0,
                    };
                    (push > 0).then(|| OutUse {
                        edge: g.out_edge_for_port(node, p),
                        push,
                    })
                })
                .collect();
            (ins, outs)
        }
        FlatNodeKind::Joiner(j) => {
            let n_in = g.in_arity(node);
            let ins = (0..n_in)
                .filter_map(|p| {
                    let pop = match j {
                        Joiner::RoundRobin(w) => w.get(p).copied().unwrap_or(0),
                        Joiner::Combine => 1,
                        Joiner::Null => 0,
                    };
                    (pop > 0).then(|| PortUse {
                        edge: g.in_edge_for_port(node, p),
                        window: pop,
                        pop,
                    })
                })
                .collect();
            let push = match j {
                Joiner::RoundRobin(w) => w.iter().sum(),
                Joiner::Combine => {
                    if n_in == 0 {
                        0
                    } else {
                        1
                    }
                }
                Joiner::Null => 0,
            };
            let mut outs = Vec::new();
            if push > 0 {
                outs.push(OutUse {
                    edge: g.out_edge_for_port(node, 0),
                    push,
                });
            }
            (ins, outs)
        }
    }
}

// ---------------------------------------------------------------------------
// Initialization-phase derivation
// ---------------------------------------------------------------------------

const MAX_INIT_FIRINGS: usize = 1 << 16;
/// Producer firings priming may ask for (each with whatever upstream
/// firings its window demands) before the graph is declared unprimable.
const MAX_PRIME_FIRINGS: usize = 10_000;
/// Batch factors the planner tries, longest first.  `fir-vm` read 630 k
/// items/s with 1 as the only factor and 954 k / 1.13 M / 1.26 M /
/// 1.33 M / 1.39 M / 1.43 M with 2 / 4 / 8 / 16 / 32 / 64 (PR 19, 2-vCPU
/// host, no byte budget): each doubling past 16 buys 3–4 % and doubles
/// both the tapes and the iterations a run must have left to take a
/// scaled round at all (`sort-dispatch`'s 32-iteration runs fall back
/// to 1.67 M at 64).
const BATCH_FACTORS: [u32; 4] = [16, 8, 4, 2];
/// Bytes of tape a plan may hold at its batch capacities, bounded from
/// above as `k` × the unit capacities.  `sort-dispatch` read 1.66 M
/// items/s at 1 and 2.47 M / 2.57 M / 2.59 M at 8 / 16 / 32 on 148 /
/// 296 / 592 KiB of tapes: the last 4 % would cost twice the memory, so
/// a quarter MiB, which picks 8 for `bitonic_sort(32)` and 16 for
/// `fmradio(10, 64)` (10 KiB).
pub const BATCH_TAPE_BYTES: u64 = 256 << 10;

/// Abstract (item-count only) simulator used to derive the init firing
/// sequence: one firing per prework filter plus whatever upstream
/// priming those firings and the first steady round demand.
struct InitSim<'g> {
    g: &'g FlatGraph,
    occ: Vec<u64>,
    fired: Vec<u64>,
    seq: Vec<NodeId>,
}

impl InitSim<'_> {
    /// First internal input edge whose occupancy is below the node's
    /// next-firing window (external input is assumed plentiful — the
    /// count simulation later derives how much is actually needed).
    fn shortage(&self, node: NodeId) -> Option<EdgeId> {
        let first = self.fired[node.0] == 0;
        let (ins, _) = firing_io(self.g, node, first);
        ins.iter()
            .find_map(|p| p.edge.filter(|e| self.occ[e.0] < p.window))
    }

    fn fire(&mut self, node: NodeId) -> Result<(), String> {
        let first = self.fired[node.0] == 0;
        let (ins, outs) = firing_io(self.g, node, first);
        for p in &ins {
            if let Some(e) = p.edge {
                self.occ[e.0] = self.occ[e.0]
                    .checked_sub(p.pop)
                    .ok_or("init simulation underflow")?;
            }
        }
        for o in &outs {
            if let Some(e) = o.edge {
                self.occ[e.0] += o.push;
            }
        }
        self.fired[node.0] += 1;
        self.seq.push(node);
        if self.seq.len() > MAX_INIT_FIRINGS {
            return Err("initialization schedule too large".into());
        }
        Ok(())
    }

    /// Fire `node` once, recursively firing producers until its input
    /// windows are satisfied.  A demand cycle means a feedback loop whose
    /// initial items cannot prime block execution.
    fn demand_fire(&mut self, node: NodeId, visiting: &mut HashSet<usize>) -> Result<(), String> {
        if !visiting.insert(node.0) {
            return Err("feedback loop cannot be primed for block execution".into());
        }
        while let Some(e) = self.shortage(node) {
            let src = self.g.edge(e).src;
            self.demand_fire(src, visiting)?;
        }
        self.fire(node)?;
        visiting.remove(&node.0);
        Ok(())
    }

    /// Would one steady round (each node fired `reps` times, in
    /// topo-block order, at post-init rates) run without starving an
    /// internal edge?  On failure returns the first starved edge and how
    /// many more items it needs before the round starts (an edge has one
    /// consumer, checked once per round, so an item added now is an item
    /// more at that check).
    fn validate_round(&self, topo: &[NodeId], reps: &[u64]) -> Result<(), (EdgeId, u64)> {
        let mut occ = self.occ.clone();
        for &node in topo {
            let times = reps[node.0];
            if times == 0 {
                continue;
            }
            let (ins, outs) = firing_io(self.g, node, false);
            for p in &ins {
                if let Some(e) = p.edge {
                    // The binding check is the last firing: earlier
                    // firings leave strictly more slack.
                    let need = (times - 1) * p.pop + p.window;
                    if occ[e.0] < need {
                        return Err((e, need - occ[e.0]));
                    }
                }
            }
            for o in &outs {
                if let Some(e) = o.edge {
                    occ[e.0] += times * o.push;
                }
            }
            for p in &ins {
                if let Some(e) = p.edge {
                    occ[e.0] -= times * p.pop;
                }
            }
        }
        Ok(())
    }
}

/// The init simulation after every prework filter's one firing, in topo
/// order (each with whatever upstream firings its window demands).
fn prework_fired<'g>(g: &'g FlatGraph, topo: &[NodeId]) -> Result<InitSim<'g>, String> {
    let mut sim = InitSim {
        g,
        occ: g.edges.iter().map(|e| e.initial.len() as u64).collect(),
        fired: vec![0; g.nodes.len()],
        seq: Vec::new(),
    };
    for &node in topo {
        let has_prework = matches!(&g.node(node).kind,
            FlatNodeKind::Filter(f) if f.prework.is_some());
        if has_prework {
            sim.demand_fire(node, &mut HashSet::new())?;
        }
    }
    Ok(sim)
}

/// Derive the init firing sequence: prework firings in topo order, then
/// priming until one steady round validates.  Priming goes by deficit:
/// the first starved edge's producer fires until the edge's shortfall is
/// in, and only then is the round validated again — once per starved
/// edge rather than once per firing.
pub fn build_init(g: &FlatGraph, topo: &[NodeId], reps: &[u64]) -> Result<Vec<NodeId>, String> {
    let mut sim = prework_fired(g, topo)?;
    let mut budget = MAX_PRIME_FIRINGS;
    loop {
        let (e, short) = match sim.validate_round(topo, reps) {
            Ok(()) => return Ok(sim.seq),
            Err(starved) => starved,
        };
        let src = g.edge(e).src;
        let target = sim.occ[e.0] + short;
        while sim.occ[e.0] < target {
            if budget == 0 {
                return Err("could not prime a steady round".into());
            }
            budget -= 1;
            sim.demand_fire(src, &mut HashSet::new())?;
        }
    }
}

/// [`build_init`] as it was before priming went by deficit: one producer
/// firing per validation.  The oracle its firing counts are held to.
#[cfg(test)]
fn build_init_one_firing_per_round(
    g: &FlatGraph,
    topo: &[NodeId],
    reps: &[u64],
) -> Result<Vec<NodeId>, String> {
    let mut sim = prework_fired(g, topo)?;
    for _ in 0..MAX_PRIME_FIRINGS {
        match sim.validate_round(topo, reps) {
            Ok(()) => return Ok(sim.seq),
            Err((e, _)) => {
                let src = g.edge(e).src;
                sim.demand_fire(src, &mut HashSet::new())?;
            }
        }
    }
    Err("could not prime a steady round".into())
}

// ---------------------------------------------------------------------------
// Parallel-region discovery
// ---------------------------------------------------------------------------

/// Find the first split-join whose every branch is a non-empty chain of
/// single-in/single-out filters converging on one joiner.  Such branches
/// are data-independent and can run on worker threads.
fn find_region(g: &FlatGraph, topo: &[NodeId]) -> Option<Vec<Vec<NodeId>>> {
    if g.edges.iter().any(|e| e.is_back_edge) {
        return None;
    }
    'nodes: for &nid in topo {
        let n = g.node(nid);
        if !matches!(n.kind, FlatNodeKind::Splitter(_)) || n.outputs.len() < 2 {
            continue;
        }
        let mut chains = Vec::new();
        let mut join = None;
        for &e in &n.outputs {
            let mut chain = Vec::new();
            let mut cur = g.edge(e).dst;
            loop {
                let cn = g.node(cur);
                match &cn.kind {
                    FlatNodeKind::Filter(_) if cn.inputs.len() == 1 && cn.outputs.len() == 1 => {
                        chain.push(cur);
                        cur = g.edge(cn.outputs[0]).dst;
                    }
                    FlatNodeKind::Joiner(_) => break,
                    _ => continue 'nodes,
                }
            }
            if chain.is_empty() || join.is_some_and(|j| j != cur) {
                continue 'nodes;
            }
            join = Some(cur);
            chains.push(chain);
        }
        if chains.len() >= 2 {
            return Some(chains);
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Assembly: slots, ops, count simulation
// ---------------------------------------------------------------------------

/// Working tables shared by op emission.  The external-stream locations
/// are fields (not constants) so a caller with a different shard scheme
/// — the multicore runtime places the external tapes inside the owning
/// stage's shard — can reuse the same op emission.
pub struct Layout {
    pub edge_loc: Vec<Loc>,
    pub frame_loc: Vec<Option<Loc>>,
    pub code_of: Vec<Option<u32>>,
    pub ext_in: Loc,
    pub ext_out: Loc,
}

impl Layout {
    pub fn in_loc(&self, e: Option<EdgeId>) -> Loc {
        e.map_or(self.ext_in, |e| self.edge_loc[e.0])
    }
    pub fn out_loc(&self, e: Option<EdgeId>) -> Loc {
        e.map_or(self.ext_out, |e| self.edge_loc[e.0])
    }
}

/// Emit the op for firing `node` `times` times (`prework` selects the
/// prework body for filters).  Nodes that move nothing emit no op.
pub fn node_op(g: &FlatGraph, lay: &Layout, node: NodeId, times: u32, prework: bool) -> Option<Op> {
    let n = g.node(node);
    match &n.kind {
        FlatNodeKind::Filter(f) => {
            let code = lay.code_of[node.0]?;
            let frame = lay.frame_loc[node.0]?;
            let input = f
                .input
                .as_ref()
                .map(|_| lay.in_loc(n.inputs.first().copied()));
            let output = f
                .output
                .as_ref()
                .map(|_| lay.out_loc(n.outputs.first().copied()));
            Some(Op::Work {
                code,
                frame,
                input,
                output,
                prework,
                times,
            })
        }
        FlatNodeKind::Splitter(Splitter::Duplicate) => {
            let input = lay.in_loc(g.in_edge_for_port(node, 0));
            let outputs = (0..g.out_arity(node))
                .map(|p| lay.out_loc(g.out_edge_for_port(node, p)))
                .collect();
            Some(Op::Dup {
                input,
                outputs,
                times,
            })
        }
        FlatNodeKind::Splitter(Splitter::RoundRobin(w)) => {
            let src = lay.in_loc(g.in_edge_for_port(node, 0));
            let moves: Box<[MoveSpec]> = w
                .iter()
                .enumerate()
                .filter(|&(_, &wi)| wi > 0)
                .map(|(p, &wi)| MoveSpec {
                    src,
                    dst: lay.out_loc(g.out_edge_for_port(node, p)),
                    n: wi as u32,
                })
                .collect();
            (!moves.is_empty()).then_some(Op::Moves { moves, times })
        }
        FlatNodeKind::Splitter(Splitter::Null) => None,
        FlatNodeKind::Joiner(Joiner::RoundRobin(w)) => {
            let dst = lay.out_loc(g.out_edge_for_port(node, 0));
            let moves: Box<[MoveSpec]> = w
                .iter()
                .enumerate()
                .filter(|&(_, &wi)| wi > 0)
                .map(|(p, &wi)| MoveSpec {
                    src: lay.in_loc(g.in_edge_for_port(node, p)),
                    dst,
                    n: wi as u32,
                })
                .collect();
            (!moves.is_empty()).then_some(Op::Moves { moves, times })
        }
        FlatNodeKind::Joiner(Joiner::Combine) => {
            let n_in = g.in_arity(node);
            if n_in == 0 {
                return None;
            }
            let inputs = (0..n_in)
                .map(|p| lay.in_loc(g.in_edge_for_port(node, p)))
                .collect();
            let output = lay.out_loc(g.out_edge_for_port(node, 0));
            Some(Op::Combine {
                inputs,
                output,
                times,
            })
        }
        FlatNodeKind::Joiner(Joiner::Null) => None,
    }
}

/// Replay the init firing sequence as ops, splitting each prework
/// filter's first firing onto its prework body.
pub fn init_ops_from_seq(g: &FlatGraph, lay: &Layout, seq: &[NodeId]) -> Vec<Op> {
    let mut fired = vec![0u64; g.nodes.len()];
    let mut ops = Vec::new();
    let mut i = 0;
    while i < seq.len() {
        let node = seq[i];
        let mut c = 1usize;
        while i + c < seq.len() && seq[i + c] == node {
            c += 1;
        }
        let has_prework = matches!(&g.node(node).kind,
            FlatNodeKind::Filter(f) if f.prework.is_some());
        if has_prework && fired[node.0] == 0 {
            ops.extend(node_op(g, lay, node, 1, true));
            if c > 1 {
                ops.extend(node_op(g, lay, node, (c - 1) as u32, false));
            }
        } else {
            ops.extend(node_op(g, lay, node, c as u32, false));
        }
        fired[node.0] += c as u64;
        i += c;
    }
    ops
}

/// Count simulation: proves the plan sound and sizes the tapes.
#[derive(Clone)]
pub struct CountSim {
    pub occ: Vec<Vec<u64>>,
    pub maxo: Vec<Vec<u64>>,
    pub ext_used: u64,
    pub ext_req: u64,
    pub ext_out: u64,
    /// Round-local requirement base (`ext_used` at round start).
    pub round_base: u64,
    pub round_req: u64,
    /// Where the external streams live (compared by `Loc` equality, so
    /// callers with a different shard scheme supply their own).
    pub ext_in_loc: Loc,
    pub ext_out_loc: Loc,
}

impl CountSim {
    /// A simulator whose per-slot occupancy starts at each tape's
    /// initial item count.
    pub fn new(tapes: &[Vec<TapeSpec>], ext_in_loc: Loc, ext_out_loc: Loc) -> CountSim {
        let occ: Vec<Vec<u64>> = tapes
            .iter()
            .map(|ts| ts.iter().map(|t| t.initial.len() as u64).collect())
            .collect();
        CountSim {
            maxo: occ.clone(),
            occ,
            ext_used: 0,
            ext_req: 0,
            ext_out: 0,
            round_base: 0,
            round_req: 0,
            ext_in_loc,
            ext_out_loc,
        }
    }

    fn apply(&mut self, op: &Op, codes: &[FilterCode], scale: u64) -> Result<(), String> {
        let times = op.times() as u64 * scale;
        // (loc, pop-per-firing, window slack beyond pop) / (loc, push-per-firing),
        // with same-slot inputs pre-aggregated.
        let mut ins: Vec<(Loc, u64, u64)> = Vec::new();
        let mut outs: Vec<(Loc, u64)> = Vec::new();
        let mut add_in =
            |l: Loc, pop: u64, extra: u64| match ins.iter_mut().find(|(il, _, _)| *il == l) {
                Some(slot) => {
                    slot.1 += pop;
                    slot.2 = slot.2.max(extra);
                }
                None => ins.push((l, pop, extra)),
            };
        match op {
            Op::Work {
                code,
                input,
                output,
                prework,
                ..
            } => {
                let fc = &codes[*code as usize];
                let Rates { pop, window, push } = if *prework {
                    fc.prework
                        .as_ref()
                        .map(|p| p.rates)
                        .ok_or("prework op without prework body")?
                } else {
                    fc.work.rates
                };
                if let Some(l) = input {
                    if window > 0 {
                        add_in(*l, pop, window.saturating_sub(pop));
                    }
                }
                if let Some(l) = output {
                    if push > 0 {
                        outs.push((*l, push));
                    }
                }
            }
            Op::Dup { input, outputs, .. } => {
                add_in(*input, 1, 0);
                for &l in outputs.iter() {
                    outs.push((l, 1));
                }
            }
            Op::Moves { moves, .. } => {
                for m in moves.iter() {
                    add_in(m.src, m.n as u64, 0);
                    outs.push((m.dst, m.n as u64));
                }
            }
            Op::Combine { inputs, output, .. } => {
                for &l in inputs.iter() {
                    add_in(l, 1, 0);
                }
                outs.push((*output, 1));
            }
        }
        for &(l, pop, extra) in &ins {
            let need = times * pop + extra;
            if l == self.ext_in_loc {
                self.ext_req = self.ext_req.max(self.ext_used + need);
                self.round_req = self.round_req.max(self.ext_used - self.round_base + need);
                self.ext_used += times * pop;
            } else if self.occ[l.shard as usize][l.slot as usize] < need {
                return Err(format!(
                    "steady round starves a tape (need {need}, have {})",
                    self.occ[l.shard as usize][l.slot as usize]
                ));
            }
        }
        for &(l, push) in &outs {
            if l == self.ext_out_loc {
                self.ext_out += times * push;
            } else {
                let o = &mut self.occ[l.shard as usize][l.slot as usize];
                *o += times * push;
                let m = &mut self.maxo[l.shard as usize][l.slot as usize];
                *m = (*m).max(*o);
            }
        }
        for &(l, pop, _) in &ins {
            if l != self.ext_in_loc {
                self.occ[l.shard as usize][l.slot as usize] -= times * pop;
            }
        }
        Ok(())
    }

    /// Apply `ops` in order, each fired `scale` × its `times` (1 for
    /// the unit round; a batch factor when proving a scaled one).
    pub fn run(&mut self, ops: &[Op], codes: &[FilterCode], scale: u64) -> Result<(), String> {
        for op in ops {
            self.apply(op, codes, scale)?;
        }
        Ok(())
    }
}

/// Assemble the plan for a given (possibly empty) branch partition, then
/// prove it with the count simulation.
#[allow(clippy::too_many_arguments)]
fn assemble(
    g: &FlatGraph,
    topo: &[NodeId],
    reps: &[u64],
    init_seq: &[NodeId],
    codes: Vec<FilterCode>,
    code_of: Vec<Option<u32>>,
    input_ty: DataType,
    branches: &[Vec<NodeId>],
) -> Result<Plan, String> {
    let n_shards = 1 + branches.len();

    // Which branch (if any) owns each node; branch b owns its chain
    // nodes, their entry edges, internal edges, and exit edges.
    let mut branch_of_node = vec![None; g.nodes.len()];
    let mut branch_of_edge = vec![None; g.edges.len()];
    for (b, chain) in branches.iter().enumerate() {
        for &node in chain {
            branch_of_node[node.0] = Some(b);
            let n = g.node(node);
            for &e in n.inputs.iter().chain(n.outputs.iter()) {
                branch_of_edge[e.0] = Some(b);
            }
        }
    }

    // Tape slots: shard 0 reserves 0/1 for the external streams.
    let mut tapes: Vec<Vec<TapeSpec>> = vec![Vec::new(); n_shards];
    tapes[0].push(TapeSpec {
        ty: input_ty,
        cap: 0,
        initial: Vec::new(),
    });
    tapes[0].push(TapeSpec {
        ty: DataType::Float,
        cap: 0,
        initial: Vec::new(),
    });
    let mut edge_loc = vec![EXT_IN; g.edges.len()];
    for e in &g.edges {
        let shard = branch_of_edge[e.id.0].map_or(0, |b| b + 1);
        let slot = tapes[shard].len();
        if shard >= u16::MAX as usize || slot >= u16::MAX as usize {
            return Err("too many tapes".into());
        }
        edge_loc[e.id.0] = Loc {
            shard: shard as u16,
            slot: slot as u16,
        };
        tapes[shard].push(TapeSpec {
            ty: e.ty,
            cap: 0,
            initial: e.initial.clone(),
        });
    }

    // Frame slots (filter state), placed with their branch.
    let mut frames: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
    let mut frame_loc = vec![None; g.nodes.len()];
    for n in &g.nodes {
        if let Some(code) = code_of[n.id.0] {
            let shard = branch_of_node[n.id.0].map_or(0, |b| b + 1);
            let slot = frames[shard].len();
            frame_loc[n.id.0] = Some(Loc {
                shard: shard as u16,
                slot: slot as u16,
            });
            frames[shard].push(code);
        }
    }

    let lay = Layout {
        edge_loc,
        frame_loc,
        code_of,
        ext_in: EXT_IN,
        ext_out: EXT_OUT,
    };

    // Stage partition: nodes at/past the joiner run post, branch chains
    // run in their branch stage, everything else runs pre.
    let mut stage_post = vec![false; g.nodes.len()];
    if let Some(first_chain) = branches.first() {
        let last = first_chain[first_chain.len() - 1];
        let join = g.edge(g.node(last).outputs[0]).dst;
        let mut work = vec![join];
        while let Some(node) = work.pop() {
            if std::mem::replace(&mut stage_post[node.0], true) {
                continue;
            }
            for &e in &g.node(node).outputs {
                work.push(g.edge(e).dst);
            }
        }
    }

    let round_times = |node: NodeId| -> Result<u32, String> {
        u32::try_from(reps[node.0]).map_err(|_| "steady-state multiplicity too large".to_string())
    };
    let mut pre_ops = Vec::new();
    let mut post_ops = Vec::new();
    for &node in topo {
        if reps[node.0] == 0 || branch_of_node[node.0].is_some() {
            continue;
        }
        let ops = if stage_post[node.0] {
            &mut post_ops
        } else {
            &mut pre_ops
        };
        ops.extend(node_op(g, &lay, node, round_times(node)?, false));
    }
    let mut branch_ops = Vec::new();
    for chain in branches {
        let mut ops = Vec::new();
        for &node in chain {
            if reps[node.0] == 0 {
                continue;
            }
            ops.extend(node_op(g, &lay, node, round_times(node)?, false));
        }
        branch_ops.push(ops);
    }
    let init_ops = init_ops_from_seq(g, &lay, init_seq);

    // Count simulation: init once, then two identical steady rounds.
    let mut sim = CountSim::new(&tapes, EXT_IN, EXT_OUT);
    sim.run(&init_ops, &codes, 1)?;
    let init_in = sim.ext_used;
    let init_in_required = sim.ext_req;
    let init_out = sim.ext_out;
    let snapshot = sim.occ.clone();

    let round = |sim: &mut CountSim, scale: u64| -> Result<(u64, u64, u64), String> {
        let (used0, out0) = (sim.ext_used, sim.ext_out);
        sim.round_base = sim.ext_used;
        sim.round_req = 0;
        sim.run(&pre_ops, &codes, scale)?;
        for ops in &branch_ops {
            sim.run(ops, &codes, scale)?;
        }
        sim.run(&post_ops, &codes, scale)?;
        Ok((sim.ext_used - used0, sim.ext_out - out0, sim.round_req))
    };
    let (round_in, round_out, round_req) = round(&mut sim, 1)?;
    if sim.occ != snapshot {
        return Err("round is not steady (occupancy drifts)".into());
    }
    let (in2, out2, req2) = round(&mut sim, 1)?;
    if sim.occ != snapshot || in2 != round_in || out2 != round_out || req2 != round_req {
        return Err("round is not reproducible".into());
    }

    for (s, ts) in tapes.iter_mut().enumerate() {
        for (i, t) in ts.iter_mut().enumerate() {
            if s == 0 && i < 2 {
                continue;
            }
            t.cap = sim.maxo[s][i];
        }
    }

    // Execution scaling: the longest stride whose tapes fit the budget
    // and whose round — the same ops at `k` × `times`, simulated from
    // the same snapshot — is exactly `k` unit rounds of steady state.
    // An acyclic graph proves the first factor it can afford; a
    // feedback loop gets what its enqueued items pay for, often none.
    let unit_bytes = 8 * tapes.iter().flatten().map(|t| t.cap).sum::<u64>();
    let steady = pre_ops.iter().chain(branch_ops.iter().flatten());
    let max_times = steady.chain(&post_ops).map(Op::times).max().unwrap_or(0);
    let batch = BATCH_FACTORS.into_iter().find_map(|k| {
        if unit_bytes.saturating_mul(k.into()) > BATCH_TAPE_BYTES {
            return None;
        }
        max_times.checked_mul(k)?;
        let mut scaled = sim.clone();
        let (used, out, req) = round(&mut scaled, k.into()).ok()?;
        let k_rounds = used == round_in * k as u64 && out == round_out * k as u64;
        (scaled.occ == snapshot && k_rounds).then_some(Batch {
            k,
            round_in_required: req,
            caps: scaled.maxo,
        })
    });

    Ok(Plan {
        codes,
        tapes,
        frames,
        init_ops,
        pre_ops,
        branch_ops,
        post_ops,
        batch,
        input_ty,
        notes: Vec::new(),
        stats: Stats {
            init_in,
            init_in_required,
            round_in,
            round_in_required: round_req,
            init_out,
            round_out,
        },
    })
}

/// Census: at most one external-input and one external-output site.
/// With several, the interleaving of reads/writes on the shared
/// external stream is schedule-dependent, and block execution would
/// diverge from the reference machine.
pub fn check_io_sites(g: &FlatGraph) -> Result<(), String> {
    let mut ext_in_sites = 0usize;
    let mut ext_out_sites = 0usize;
    for n in &g.nodes {
        let has_prework = matches!(&n.kind, FlatNodeKind::Filter(f) if f.prework.is_some());
        let (mut reads_ext, mut writes_ext) = (false, false);
        for first in [true, false] {
            if first && !has_prework {
                continue;
            }
            let (ins, outs) = firing_io(g, n.id, first);
            reads_ext |= ins.iter().any(|p| p.edge.is_none());
            writes_ext |= outs.iter().any(|o| o.edge.is_none());
        }
        ext_in_sites += usize::from(reads_ext);
        ext_out_sites += usize::from(writes_ext);
    }
    if ext_in_sites > 1 {
        return Err("multiple nodes read the external input".into());
    }
    if ext_out_sites > 1 {
        return Err("multiple nodes write the external output".into());
    }
    Ok(())
}

/// Result of [`lower_graph`]: the lowered filter codes, the `codes`
/// index per flat-graph node, and any human-readable lowering notes
/// (`warning[L0701]` dropped-hint diagnostics).
pub struct LoweredFilters {
    pub codes: Vec<FilterCode>,
    pub code_of: Vec<Option<u32>>,
    pub notes: Vec<String>,
}

/// The element types of the tapes filter node `n` (whose filter is `f`)
/// reads and writes: its edges' types, or on the external streams
/// `input_ty` in and `Float` out (the output capture applies
/// `Value::as_f64`); `None` for a port the filter does not declare.
pub fn tape_types(
    g: &FlatGraph,
    n: &FlatNode,
    f: &Filter,
    input_ty: DataType,
) -> (Option<DataType>, Option<DataType>) {
    let in_ty = n
        .inputs
        .first()
        .map(|&e| g.edge(e).ty)
        .or(f.input.map(|_| input_ty));
    let out_ty = n
        .outputs
        .first()
        .map(|&e| g.edge(e).ty)
        .or(f.output.map(|_| DataType::Float));
    (in_ty, out_ty)
}

/// Gate and lower every filter through `cache` (see [`LoweringCache`]),
/// or say why the compiled engines cannot run the graph.  Returns the
/// lowered codes and the `codes` index per node.
pub fn lower_graph(
    g: &FlatGraph,
    input_ty: DataType,
    opts: LowerOptions,
    cache: &LoweringCache,
) -> Result<LoweredFilters, String> {
    let mut codes = Vec::new();
    let mut code_of = vec![None; g.nodes.len()];
    let mut notes = Vec::new();
    for n in &g.nodes {
        let FlatNodeKind::Filter(f) = &n.kind else {
            continue;
        };
        let idx = codes.len();
        if idx > u32::MAX as usize {
            return Err("too many filters".into());
        }
        let (in_ty, out_ty) = tape_types(g, n, f, input_ty);
        let (code, note) = cache.lower(f, &n.name, in_ty, out_ty, opts)?;
        notes.extend(note);
        codes.push(code);
        code_of[n.id.0] = Some(idx as u32);
    }
    for e in &g.edges {
        initial_items_typed(&e.initial, e.ty).map_err(|err| format!("edge {}: {err}", e.id.0))?;
    }
    Ok(LoweredFilters {
        codes,
        code_of,
        notes,
    })
}

/// Compile a flat graph into a firing plan, lowering its filters through
/// `cache`, or explain (as an `Unsupported` reason) why the compiled
/// engine cannot run it.
pub fn build_plan(
    g: &FlatGraph,
    input_ty: DataType,
    opts: LowerOptions,
    cache: &LoweringCache,
) -> Result<Plan, String> {
    let reps = repetition_vector(g).map_err(|e| format!("no steady-state schedule: {e:?}"))?;
    let topo = g.topo_order();
    check_io_sites(g)?;
    let LoweredFilters {
        codes,
        code_of,
        notes,
    } = lower_graph(g, input_ty, opts, cache)?;
    let init_seq = build_init(g, &topo, &reps)?;

    if let Some(chains) = find_region(g, &topo) {
        match assemble(
            g,
            &topo,
            &reps,
            &init_seq,
            codes.clone(),
            code_of.clone(),
            input_ty,
            &chains,
        ) {
            Ok(mut plan) => {
                plan.notes = notes;
                return Ok(plan);
            }
            Err(_) => { /* fall back to the serial partition below */ }
        }
    }
    let mut plan = assemble(g, &topo, &reps, &init_seq, codes, code_of, input_ty, &[])?;
    plan.notes = notes;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::{StreamNode, Value};
    use streamit_linear::LinearMode;

    /// Firings per node of an initialization sequence.
    fn firings(g: &FlatGraph, seq: &[NodeId]) -> Vec<u64> {
        let mut n = vec![0; g.nodes.len()];
        for node in seq {
            n[node.0] += 1;
        }
        n
    }

    /// Deficit priming fires every node of `stream`'s graph as often as
    /// one firing per validation does, and declines what that declines.
    /// Returns the priming firings (beyond prework), 0 for a graph with
    /// no steady state or one both decline.
    fn primes_like_one_firing_per_round(what: &str, stream: &StreamNode) -> usize {
        let g = FlatGraph::from_stream(stream);
        let Ok(reps) = repetition_vector(&g) else {
            return 0;
        };
        // A loop whose enqueued items cannot feed its joiner one round
        // can only be declined, after the whole priming budget: skip it.
        let starved_loop = g.edges.iter().filter(|e| e.is_back_edge).any(|e| {
            let (ins, _) = firing_io(&g, e.dst, false);
            ins.iter()
                .any(|p| p.edge == Some(e.id) && (e.initial.len() as u64) < reps[e.dst.0] * p.pop)
        });
        if starved_loop {
            return 0;
        }
        let topo = g.topo_order();
        match (
            build_init(&g, &topo, &reps),
            build_init_one_firing_per_round(&g, &topo, &reps),
        ) {
            (Ok(deficit), Ok(single)) => {
                assert_eq!(firings(&g, &deficit), firings(&g, &single), "{what}");
                let prework = prework_fired(&g, &topo).expect("primes").seq.len();
                deficit.len() - prework
            }
            (Err(_), Err(_)) => 0,
            (deficit, single) => panic!("{what}: by deficit {deficit:?}, one by one {single:?}"),
        }
    }

    #[test]
    fn apps_and_example_programs_prime_like_one_firing_per_round() {
        let mut primed = 0;
        for app in streamit_apps::corpus() {
            let stream = app.graph();
            primed += primes_like_one_firing_per_round(app.name, &stream);
            for mode in [LinearMode::Replacement, LinearMode::Frequency] {
                let (optimized, _) = streamit_linear::optimize_stream(&stream, mode);
                primed += primes_like_one_firing_per_round(app.name, &optimized);
            }
        }
        for (name, source) in [
            ("combine", include_str!("../../../examples/str/combine.str")),
            (
                "fibonacci",
                include_str!("../../../examples/str/fibonacci.str"),
            ),
            (
                "filterbank",
                include_str!("../../../examples/str/filterbank.str"),
            ),
            ("fmradio", include_str!("../../../examples/str/fmradio.str")),
        ] {
            let out = streamit_frontend::compile(source, "Main").expect("example compiles");
            primed += primes_like_one_firing_per_round(name, &out.stream);
        }
        assert!(
            primed > 1000,
            "only {primed} priming firings: the check is vacuous"
        );
    }

    /// Splitmix64 over a seed.
    struct Gen(u64);

    impl Gen {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A filter with the given rates, a peek window up to three items
    /// wider, and one filter in three with a prework of its own rates.
    /// Bodies stay empty: initialization reads rates only.
    fn filter(g: &mut Gen, pop: usize, push: usize) -> StreamNode {
        let peek = pop + g.below(4) as usize;
        let mut f = FilterBuilder::new("f", streamit_graph::DataType::Float).rates(peek, pop, push);
        if g.below(3) == 0 {
            // Never fewer pushes than pops: a prework that loses items
            // inside a feedback loop leaves it unprimable.
            let pw_pop = g.below(4) as usize;
            let pw_peek = pw_pop + g.below(3) as usize;
            f = f.prework(pw_peek, pw_pop, pw_pop + g.below(3) as usize, |b| b);
        }
        f.build_node()
    }

    /// A random graph that moves as many items out as in per firing of
    /// its outer node (so it composes into a consistent graph anywhere):
    /// rate-preserving filters, round-robin split-joins with matching
    /// weights, and feedback loops primed with zero to eight items.
    fn balanced(g: &mut Gen, depth: u32) -> StreamNode {
        match if depth == 0 { 0 } else { g.below(4) } {
            0 => {
                let rate = 1 + g.below(2) as usize;
                filter(g, rate, rate)
            }
            1 => {
                let n = 2 + g.below(3) as usize;
                pipeline("p", (0..n).map(|_| balanced(g, depth - 1)).collect())
            }
            2 => {
                let n = 2 + g.below(3) as usize;
                let w: Vec<u64> = (0..n).map(|_| 1 + g.below(2)).collect();
                let splitter = if g.below(3) == 0 {
                    Splitter::Duplicate
                } else {
                    Splitter::RoundRobin(w.clone())
                };
                let joiner = match splitter {
                    Splitter::Duplicate => Joiner::Combine,
                    _ => Joiner::RoundRobin(w),
                };
                let branches = (0..n).map(|_| balanced(g, depth - 1)).collect();
                splitjoin("sj", splitter, branches, joiner)
            }
            _ => {
                let (a, b) = (1 + g.below(2), 1 + g.below(2));
                let delay = g.below(65) as usize;
                feedback_loop(
                    "fb",
                    Joiner::RoundRobin(vec![a, b]),
                    balanced(g, 0),
                    Splitter::RoundRobin(vec![a, b]),
                    balanced(g, 0),
                    delay,
                    |i| Value::Float(i as f64),
                )
            }
        }
    }

    #[test]
    fn generated_graphs_prime_like_one_firing_per_round() {
        let mut primed = 0;
        for seed in 0..600 {
            let g = &mut Gen(seed);
            // Rate-changing filters between balanced parts make the
            // repetition vector, and so the priming, non-uniform.
            let parts = (0..1 + g.below(4))
                .map(|i| match i % 2 {
                    0 => balanced(g, 3),
                    _ => {
                        let (pop, push) = (1 + g.below(2) as usize, 1 + g.below(2) as usize);
                        filter(g, pop, push)
                    }
                })
                .collect();
            primed +=
                primes_like_one_firing_per_round(&format!("seed {seed}"), &pipeline("Main", parts));
        }
        assert!(
            primed > 2000,
            "only {primed} priming firings: the check is vacuous"
        );
    }
}
