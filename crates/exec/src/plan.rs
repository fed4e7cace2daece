//! Static compilation of a flat graph into a firing plan.
//!
//! The planner runs once per graph and produces a [`Plan`]: lowered
//! bytecode for every filter, a tape slot for every channel, a replayable
//! initialization op sequence (prework firings plus any priming the
//! steady round needs), and the steady round as one op per node that
//! moves items, in topological order, each tagged with its node.
//!
//! Everything schedule-shaped is resolved here — at run time the engine
//! only walks flat op arrays.  A count simulation over the ops proves
//! the round is steady (occupancy returns to its post-init snapshot),
//! sizes every tape to its maximum simulated occupancy, and derives how
//! many external input items `k` iterations require.  It is the only
//! planner: the multicore runtime cuts this plan's steady round into
//! pipeline stages and relocates its tapes ([`Op::relocated`]) rather
//! than planning again.

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
/// that shard.  A [`Plan`] has one shard; the multicore runtime gives
/// each pipeline stage a shard of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveSpec {
    pub src: Loc,
    pub dst: Loc,
    pub n: u32,
}

/// One schedule entry: fire a node `times` times.
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// What one firing moves: `(tape, pop, window slack beyond the pop)`
    /// per input port and `(tape, push)` per output port.  Ports at rate
    /// zero are not named by the op at all.
    #[allow(clippy::type_complexity)]
    pub fn io(
        &self,
        codes: &[FilterCode],
    ) -> Result<(Vec<(Loc, u64, u64)>, Vec<(Loc, u64)>), String> {
        Ok(match self {
            Op::Work {
                code,
                input,
                output,
                prework,
                ..
            } => {
                let fc = &codes[*code as usize];
                let Rates { pop, window, push } = if *prework {
                    let body = fc.prework.as_ref();
                    body.map(|p| p.rates)
                        .ok_or("prework op without prework body")?
                } else {
                    fc.work.rates
                };
                let ins = input.map(|l| (l, pop, window.saturating_sub(pop)));
                (
                    ins.into_iter().collect(),
                    output.map(|l| (l, push)).into_iter().collect(),
                )
            }
            Op::Dup { input, outputs, .. } => (
                vec![(*input, 1, 0)],
                outputs.iter().map(|&l| (l, 1)).collect(),
            ),
            Op::Moves { moves, .. } => moves
                .iter()
                .map(|m| ((m.src, m.n.into(), 0), (m.dst, m.n.into())))
                .unzip(),
            Op::Combine { inputs, output, .. } => (
                inputs.iter().map(|&l| (l, 1, 0)).collect(),
                vec![(*output, 1)],
            ),
        })
    }

    /// This op with every tape address passed through `tape` and its
    /// frame's through `frame`.
    pub fn relocated(&self, tape: impl Fn(Loc) -> Loc, frame: impl Fn(Loc) -> Loc) -> Op {
        let times = self.times();
        match self {
            Op::Work {
                code,
                frame: f,
                input,
                output,
                prework,
                ..
            } => Op::Work {
                code: *code,
                frame: frame(*f),
                input: input.map(&tape),
                output: output.map(&tape),
                prework: *prework,
                times,
            },
            Op::Dup { input, outputs, .. } => Op::Dup {
                input: tape(*input),
                outputs: outputs.iter().map(|&l| tape(l)).collect(),
                times,
            },
            Op::Moves { moves, .. } => Op::Moves {
                moves: moves
                    .iter()
                    .map(|m| MoveSpec {
                        src: tape(m.src),
                        dst: tape(m.dst),
                        n: m.n,
                    })
                    .collect(),
                times,
            },
            Op::Combine { inputs, output, .. } => Op::Combine {
                inputs: inputs.iter().map(|&l| tape(l)).collect(),
                output: tape(*output),
                times,
            },
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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
    /// Tape specs per shard.  There is one shard: [`EXT_IN`],
    /// [`EXT_OUT`], then one tape per edge.
    pub tapes: Vec<Vec<TapeSpec>>,
    /// Frame code indices per shard: `frames[s][i]` is the `codes` index
    /// whose state lives in shard `s`, frame slot `i`.
    pub frames: Vec<Vec<u32>>,
    pub init_ops: Vec<Op>,
    /// The steady round: one op per node that moves items, in
    /// topological order.  (The name is from when split-join branches
    /// had op lists of their own; `streambench`'s plan counts read it.)
    pub pre_ops: Vec<Op>,
    /// The node each of `pre_ops` fires.
    pub steady_nodes: Vec<NodeId>,
    /// Always empty.  Kept only because `streambench`'s plan counts
    /// read it.
    pub branch_ops: Vec<Vec<Op>>,
    /// Always empty, for the same reason as `branch_ops`.
    pub post_ops: Vec<Op>,
    /// The longest stride the count simulation proved for these op
    /// lists, if any; everything else here describes the unit round.
    pub batch: Option<Batch>,
    pub input_ty: DataType,
    /// The options every filter was lowered with.
    pub opts: LowerOptions,
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
            steady: &self.pre_ops,
            batch: self.batch.as_ref(),
        }
    }
}

/// Input-port demand of one firing: which tape it reads, how many items
/// must be present (`window`), how many it consumes (`pop`).
struct PortUse {
    edge: Option<EdgeId>,
    window: u64,
    pop: u64,
}

/// Output-port supply of one firing.
struct OutUse {
    edge: Option<EdgeId>,
    push: u64,
}

/// The I/O profile of one firing of `node` (`first` selects prework
/// rates for filters that declare one).  Zero-rate ports are omitted.
fn firing_io(g: &FlatGraph, node: NodeId, first: bool) -> (Vec<PortUse>, Vec<OutUse>) {
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
/// above per tape as its unit capacity or `k` × its peak in a unit
/// round, whichever is more.  `sort-dispatch` read 1.66 M items/s at 1
/// and 2.47 M / 2.57 M / 2.59 M at 8 / 16 / 32 on 148 / 296 / 592 KiB
/// of tapes: the last 4 % would cost twice the memory, so a quarter
/// MiB, which picks 8 for `bitonic_sort(32)` and 16 for
/// `fmradio(10, 64)` (10 KiB).
pub const BATCH_TAPE_BYTES: u64 = 256 << 10;

/// Abstract (item-count only) simulator used to derive the init firing
/// counts: one firing per prework filter plus whatever upstream priming
/// those firings and the first steady round demand.
struct InitSim<'g> {
    g: &'g FlatGraph,
    occ: Vec<u64>,
    fired: Vec<u64>,
    /// Firings so far, all nodes together.
    total: usize,
    /// Every firing in order, for the tests' interleaved emission.
    #[cfg(test)]
    seq: Vec<NodeId>,
}

impl<'g> InitSim<'g> {
    /// Nothing fired yet: every edge holds its initial items.
    fn new(g: &'g FlatGraph) -> InitSim<'g> {
        InitSim {
            g,
            occ: g.edges.iter().map(|e| e.initial.len() as u64).collect(),
            fired: vec![0; g.nodes.len()],
            total: 0,
            #[cfg(test)]
            seq: Vec::new(),
        }
    }

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
        self.total += 1;
        #[cfg(test)]
        self.seq.push(node);
        if self.total > MAX_INIT_FIRINGS {
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
    let mut sim = InitSim::new(g);
    for &node in topo {
        let has_prework = matches!(&g.node(node).kind,
            FlatNodeKind::Filter(f) if f.prework.is_some());
        if has_prework {
            sim.demand_fire(node, &mut HashSet::new())?;
        }
    }
    Ok(sim)
}

/// Derive the init firing counts: prework firings in topo order, then
/// priming until one steady round validates.  Priming goes by deficit:
/// the first starved edge's producer fires until the edge's shortfall is
/// in, and only then is the round validated again — once per starved
/// edge rather than once per firing.  Returns the primed simulation,
/// whose `fired` are the counts.
fn build_init<'g>(g: &'g FlatGraph, topo: &[NodeId], reps: &[u64]) -> Result<InitSim<'g>, String> {
    let mut sim = prework_fired(g, topo)?;
    let mut budget = MAX_PRIME_FIRINGS;
    loop {
        let (e, short) = match sim.validate_round(topo, reps) {
            Ok(()) => return Ok(sim),
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

/// One init op to be: `(node, times, prework)`.
type Burst = (NodeId, u32, bool);

/// `primed`'s init firings in maximal bursts: passes over `topo` from
/// fresh occupancy, each node firing as many of its remaining firings
/// as its windows allow (a prework filter's first on its prework body).
/// Each node keeps its count and each tape its one producer's order, so
/// tapes and frames end as the trace left them.  An acyclic graph takes
/// one pass; a pass firing nothing is an error, never a loop.
fn init_bursts(primed: &InitSim, topo: &[NodeId]) -> Result<Vec<Burst>, String> {
    let (g, want) = (primed.g, &primed.fired);
    let mut sim = InitSim::new(g);
    let mut bursts = Vec::new();
    while sim.total < primed.total {
        let before = sim.total;
        for &node in topo {
            let mut times = 0;
            while sim.fired[node.0] < want[node.0] && sim.shortage(node).is_none() {
                let prework = matches!(&g.node(node).kind,
                    FlatNodeKind::Filter(f) if f.prework.is_some() && sim.fired[node.0] == 0);
                match prework {
                    true => bursts.push((node, 1, true)),
                    false => times += 1,
                }
                sim.fire(node)?;
            }
            if times > 0 {
                bursts.push((node, times, false));
            }
        }
        if sim.total == before {
            return Err("initialization stalls before its counts".into());
        }
    }
    Ok(bursts)
}

// ---------------------------------------------------------------------------
// Assembly: slots, ops, count simulation
// ---------------------------------------------------------------------------

/// Working tables shared by op emission.
struct Layout {
    edge_loc: Vec<Loc>,
    frame_loc: Vec<Option<Loc>>,
    code_of: Vec<Option<u32>>,
}

impl Layout {
    fn in_loc(&self, e: Option<EdgeId>) -> Loc {
        e.map_or(EXT_IN, |e| self.edge_loc[e.0])
    }
    fn out_loc(&self, e: Option<EdgeId>) -> Loc {
        e.map_or(EXT_OUT, |e| self.edge_loc[e.0])
    }
}

/// Emit the op for firing `node` `times` times (`prework` selects the
/// prework body for filters).  Nodes that move nothing emit no op, and
/// a filter's op names no tape its rates leave at zero.
fn node_op(g: &FlatGraph, lay: &Layout, node: NodeId, times: u32, prework: bool) -> Option<Op> {
    let n = g.node(node);
    match &n.kind {
        FlatNodeKind::Filter(_) => {
            let (ins, outs) = firing_io(g, node, prework);
            Some(Op::Work {
                code: lay.code_of[node.0]?,
                frame: lay.frame_loc[node.0]?,
                input: ins.first().map(|p| lay.in_loc(p.edge)),
                output: outs.first().map(|o| lay.out_loc(o.edge)),
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

/// Count simulation: proves the plan sound and sizes the tapes.
#[derive(Clone)]
struct CountSim {
    occ: Vec<Vec<u64>>,
    maxo: Vec<Vec<u64>>,
    ext_used: u64,
    ext_req: u64,
    ext_out: u64,
    /// Round-local requirement base (`ext_used` at round start).
    round_base: u64,
    round_req: u64,
}

impl CountSim {
    /// A simulator whose per-slot occupancy starts at each tape's
    /// initial item count.
    fn new(tapes: &[Vec<TapeSpec>]) -> CountSim {
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
        }
    }

    fn apply(&mut self, op: &Op, codes: &[FilterCode], scale: u64) -> Result<(), String> {
        let times = op.times() as u64 * scale;
        // (loc, pop-per-firing, window slack beyond pop), with same-slot
        // inputs (a splitter's moves) pre-aggregated.
        let (ports, outs) = op.io(codes)?;
        let mut ins: Vec<(Loc, u64, u64)> = Vec::new();
        for (l, pop, extra) in ports {
            match ins.iter_mut().find(|(il, _, _)| *il == l) {
                Some(slot) => {
                    slot.1 += pop;
                    slot.2 = slot.2.max(extra);
                }
                None => ins.push((l, pop, extra)),
            }
        }
        for &(l, pop, extra) in &ins {
            let need = times * pop + extra;
            if l == EXT_IN {
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
            if l == EXT_OUT {
                self.ext_out += times * push;
            } else {
                let o = &mut self.occ[l.shard as usize][l.slot as usize];
                *o += times * push;
                let m = &mut self.maxo[l.shard as usize][l.slot as usize];
                *m = (*m).max(*o);
            }
        }
        for &(l, pop, _) in &ins {
            if l != EXT_IN {
                self.occ[l.shard as usize][l.slot as usize] -= times * pop;
            }
        }
        Ok(())
    }

    /// Apply `ops` in order, each fired `scale` × its `times` (1 for
    /// the unit round; a batch factor when proving a scaled one).
    fn run(&mut self, ops: &[Op], codes: &[FilterCode], scale: u64) -> Result<(), String> {
        for op in ops {
            self.apply(op, codes, scale)?;
        }
        Ok(())
    }
}

/// Census: at most one external-input and one external-output site.
/// With several, the interleaving of reads/writes on the shared
/// external stream is schedule-dependent, and block execution would
/// diverge from the reference machine.
fn check_io_sites(g: &FlatGraph) -> Result<(), String> {
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
struct LoweredFilters {
    codes: Vec<FilterCode>,
    code_of: Vec<Option<u32>>,
    notes: Vec<String>,
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
fn lower_graph(
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
        if idx >= u16::MAX as usize {
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
    plan_with(g, input_ty, opts, cache, init_bursts)
}

/// [`build_plan`], initialization emitted by `emit` from the primed
/// simulation.
fn plan_with(
    g: &FlatGraph,
    input_ty: DataType,
    opts: LowerOptions,
    cache: &LoweringCache,
    emit: fn(&InitSim, &[NodeId]) -> Result<Vec<Burst>, String>,
) -> Result<Plan, String> {
    let reps = repetition_vector(g).map_err(|e| format!("no steady-state schedule: {e:?}"))?;
    let topo = g.topo_order();
    check_io_sites(g)?;
    let LoweredFilters {
        codes,
        code_of,
        notes,
    } = lower_graph(g, input_ty, opts, cache)?;
    let init = emit(&build_init(g, &topo, &reps)?, &topo)?;

    // One shard: the external streams in slots 0 and 1, then one tape
    // per edge; a frame per filter (its state) in node order.
    if g.edges.len() >= (u16::MAX - 2) as usize {
        return Err("too many tapes".into());
    }
    let ext = |ty| TapeSpec {
        ty,
        cap: 0,
        initial: Vec::new(),
    };
    let mut tapes = vec![ext(input_ty), ext(DataType::Float)];
    let mut edge_loc = Vec::with_capacity(g.edges.len());
    for e in &g.edges {
        edge_loc.push(Loc {
            shard: 0,
            slot: tapes.len() as u16,
        });
        tapes.push(TapeSpec {
            ty: e.ty,
            cap: 0,
            initial: e.initial.clone(),
        });
    }
    let mut tapes = vec![tapes];
    let mut frames = Vec::new();
    let frame_loc = code_of
        .iter()
        .map(|code| {
            let slot = frames.len() as u16;
            frames.extend(*code);
            code.map(|_| Loc { shard: 0, slot })
        })
        .collect();
    let lay = Layout {
        edge_loc,
        frame_loc,
        code_of,
    };

    let mut steady_ops = Vec::new();
    let mut steady_nodes = Vec::new();
    for &node in &topo {
        if reps[node.0] == 0 {
            continue;
        }
        let times = u32::try_from(reps[node.0])
            .map_err(|_| "steady-state multiplicity too large".to_string())?;
        if let Some(op) = node_op(g, &lay, node, times, false) {
            steady_ops.push(op);
            steady_nodes.push(node);
        }
    }
    let init_ops: Vec<Op> = init
        .into_iter()
        .filter_map(|(node, times, prework)| node_op(g, &lay, node, times, prework))
        .collect();

    // Count simulation: init once, then two identical steady rounds.
    let mut sim = CountSim::new(&tapes);
    sim.run(&init_ops, &codes, 1)?;
    let init_in = sim.ext_used;
    let init_in_required = sim.ext_req;
    let init_out = sim.ext_out;
    let snapshot = sim.occ.clone();

    let round = |sim: &mut CountSim, scale: u64| -> Result<(u64, u64, u64), String> {
        let (used0, out0) = (sim.ext_used, sim.ext_out);
        sim.round_base = sim.ext_used;
        sim.round_req = 0;
        sim.run(&steady_ops, &codes, scale)?;
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
    for (t, &cap) in tapes[0].iter_mut().zip(&sim.maxo[0]).skip(2) {
        t.cap = cap;
    }

    // Execution scaling: the longest stride whose tapes fit the budget
    // and whose round — the same ops at `k` × `times`, simulated from
    // the same snapshot — is exactly `k` unit rounds of steady state.
    // An acyclic graph proves the first factor it can afford; a
    // feedback loop gets what its enqueued items pay for, often none.
    // Initialization's peaks are the same at any stride, so the budget
    // scales only the peaks of a unit round on its own.
    let mut own = sim.clone();
    own.maxo = snapshot.clone();
    round(&mut own, 1)?;
    let caps = sim.maxo.iter().flatten().zip(own.maxo.iter().flatten());
    let bytes = |k: u64| 8 * caps.clone().map(|(&c, &r)| c.max(k * r)).sum::<u64>();
    let max_times = steady_ops.iter().map(Op::times).max().unwrap_or(0);
    let batch = BATCH_FACTORS.into_iter().find_map(|k| {
        if bytes(k.into()) > BATCH_TAPE_BYTES {
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
        frames: vec![frames],
        init_ops,
        pre_ops: steady_ops,
        steady_nodes,
        branch_ops: Vec::new(),
        post_ops: Vec::new(),
        batch,
        input_ty,
        opts,
        notes,
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

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::{StreamNode, Value};
    use streamit_linear::LinearMode;

    /// [`build_init`] as it was before priming went by deficit: one
    /// producer firing per validation.  The oracle its firing counts are
    /// held to.
    fn build_init_one_firing_per_round<'g>(
        g: &'g FlatGraph,
        topo: &[NodeId],
        reps: &[u64],
    ) -> Result<InitSim<'g>, String> {
        let mut sim = prework_fired(g, topo)?;
        for _ in 0..MAX_PRIME_FIRINGS {
            match sim.validate_round(topo, reps) {
                Ok(()) => return Ok(sim),
                Err((e, _)) => {
                    let src = g.edge(e).src;
                    sim.demand_fire(src, &mut HashSet::new())?;
                }
            }
        }
        Err("could not prime a steady round".into())
    }

    /// The emission [`init_bursts`] replaced: the demand trace as it
    /// ran, adjacent repeats merged, each prework filter's first firing
    /// split onto its prework body.
    fn interleaved(primed: &InitSim, _topo: &[NodeId]) -> Result<Vec<Burst>, String> {
        let mut bursts: Vec<Burst> = Vec::new();
        let mut fired = vec![0u64; primed.g.nodes.len()];
        for &node in &primed.seq {
            let prework = fired[node.0] == 0
                && matches!(&primed.g.node(node).kind,
                    FlatNodeKind::Filter(f) if f.prework.is_some());
            fired[node.0] += 1;
            match bursts.last_mut() {
                Some((n, times, false)) if *n == node && !prework => *times += 1,
                _ => bursts.push((node, 1, prework)),
            }
        }
        Ok(bursts)
    }

    /// The graph, its repetition vector and its topological order, or
    /// `None` when it has no steady state or is a loop whose enqueued
    /// items cannot feed its joiner one round (which can only be
    /// declined, after the whole priming budget).
    fn primable(stream: &StreamNode) -> Option<(FlatGraph, Vec<u64>, Vec<NodeId>)> {
        let g = FlatGraph::from_stream(stream);
        let reps = repetition_vector(&g).ok()?;
        let starved_loop = g.edges.iter().filter(|e| e.is_back_edge).any(|e| {
            let (ins, _) = firing_io(&g, e.dst, false);
            ins.iter()
                .any(|p| p.edge == Some(e.id) && (e.initial.len() as u64) < reps[e.dst.0] * p.pop)
        });
        let topo = g.topo_order();
        (!starved_loop).then_some((g, reps, topo))
    }

    /// Deficit priming fires every node of `stream`'s graph as often as
    /// one firing per validation does, and declines what that declines.
    /// Returns the priming firings (beyond prework), 0 for a graph with
    /// no steady state or one both decline.
    fn primes_like_one_firing_per_round(what: &str, stream: &StreamNode) -> usize {
        let Some((g, reps, topo)) = primable(stream) else {
            return 0;
        };
        match (
            build_init(&g, &topo, &reps),
            build_init_one_firing_per_round(&g, &topo, &reps),
        ) {
            (Ok(deficit), Ok(single)) => {
                assert_eq!(deficit.fired, single.fired, "{what}");
                deficit.total - prework_fired(&g, &topo).expect("primes").total
            }
            (Err(_), Err(_)) => 0,
            (deficit, single) => panic!(
                "{what}: by deficit {:?}, one by one {:?}",
                deficit.map(|s| s.fired),
                single.map(|s| s.fired)
            ),
        }
    }

    /// The apps in every linear mode and the example programs.
    fn apps_and_example_programs() -> Vec<(String, StreamNode)> {
        let mut streams = Vec::new();
        for app in streamit_apps::corpus() {
            let stream = app.graph();
            for mode in [LinearMode::Replacement, LinearMode::Frequency] {
                let (optimized, _) = streamit_linear::optimize_stream(&stream, mode);
                streams.push((format!("{} {mode:?}", app.name), optimized));
            }
            streams.push((app.name.to_string(), stream));
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
            streams.push((name.to_string(), out.stream));
        }
        // Sixteen 64-tap peeking stages: initialization fills every
        // window, so bursts hold far more than a round does.
        let fir = |i| {
            FilterBuilder::new(format!("fir{i}"), DataType::Float)
                .rates(64, 1, 1)
                .work(|b| {
                    b.push(peek(iconst(63)) * lit(0.5) + peek(iconst(0)))
                        .pop_discard()
                })
                .build_node()
        };
        streams.push((
            "deep fir".into(),
            pipeline("deep", (0..16).map(fir).collect()),
        ));
        streams
    }

    #[test]
    fn apps_and_example_programs_prime_like_one_firing_per_round() {
        let mut primed = 0;
        for (what, stream) in apps_and_example_programs() {
            primed += primes_like_one_firing_per_round(&what, &stream);
        }
        assert!(
            primed > 1000,
            "only {primed} priming firings: the check is vacuous"
        );
    }

    /// A tape's item type and items, by bits.
    fn bits(t: &crate::tape::Tape) -> (bool, Vec<u64>) {
        match t {
            crate::tape::Tape::I(r) => (true, r.to_vec().into_iter().map(|v| v as u64).collect()),
            crate::tape::Tape::F(r) => (false, r.to_vec().into_iter().map(f64::to_bits).collect()),
        }
    }

    /// Every shard's tapes and frames (registers and arenas) after
    /// `plan`'s initialization, on `input`.
    #[allow(clippy::type_complexity)]
    fn after_init(plan: &Plan, input: &[f64]) -> Vec<(Vec<(bool, Vec<u64>)>, Vec<[Vec<u64>; 4]>)> {
        let s = plan.schedule();
        let shards = crate::driver::preload(&s, input, 0).expect("input covers init");
        let mut d = crate::driver::Driver::new(shards, 0, "init", None, None);
        assert_eq!(d.drive(&s, 0).expect("init runs"), (0, crate::Stop::Budget));
        let f64s = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        let i64s = |v: &[i64]| v.iter().map(|&x| x as u64).collect();
        let shards = d.into_parts().0.into_iter().map(|shard| {
            let frames = shard
                .frames
                .iter()
                .map(|fr| [i64s(&fr.i), f64s(&fr.f), i64s(&fr.ai), f64s(&fr.af)]);
            (shard.tapes.iter().map(bits).collect(), frames.collect())
        });
        shards.collect()
    }

    /// `stream` initialized in bursts: every node fires its init count,
    /// a graph without feedback in at most one op per node (two for a
    /// prework filter) in topological order, and — where the compiled
    /// engine runs it — with the same `Stats` and batch factor as the
    /// interleaved trace and every tape and frame bit-identical after a
    /// `drive(0)`.  Returns the init firings run both ways (0 for a
    /// graph initialization or the compiled engine declines).
    fn initializes_in_bursts_like_the_trace(what: &str, stream: &StreamNode) -> u64 {
        let Some((g, reps, topo)) = primable(stream) else {
            return 0;
        };
        let Ok(primed) = build_init(&g, &topo, &reps) else {
            return 0;
        };
        let bursts = init_bursts(&primed, &topo).expect(what);
        let mut fired = vec![0; g.nodes.len()];
        for &(node, times, _) in &bursts {
            fired[node.0] += u64::from(times);
        }
        let single = build_init_one_firing_per_round(&g, &topo, &reps).expect(what);
        assert_eq!(fired, single.fired, "{what}");
        if !g.edges.iter().any(|e| e.is_back_edge) {
            let mut at = vec![0; g.nodes.len()];
            for (i, node) in topo.iter().enumerate() {
                at[node.0] = i;
            }
            let order: Vec<_> = bursts.iter().map(|&(n, _, pw)| (at[n.0], !pw)).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "{what}: {bursts:?}");
        }

        let ty = stream.input_type().unwrap_or(DataType::Float);
        let (opts, cache) = (LowerOptions::default(), LoweringCache::default());
        let (new, old) = match (
            plan_with(&g, ty, opts, &cache, init_bursts),
            plan_with(&g, ty, opts, &cache, interleaved),
        ) {
            (Ok(new), Ok(old)) => (new, old),
            (Err(new), Err(old)) => {
                assert_eq!(new, old, "{what}");
                return 0;
            }
            (new, old) => panic!("{what}: bursts {:?}, trace {:?}", new.err(), old.err()),
        };
        assert_eq!(new.stats, old.stats, "{what}");
        let k = |p: &Plan| p.batch.as_ref().map(|b| b.k);
        assert_eq!(k(&new), k(&old), "{what}");
        assert!(new.init_ops.len() <= old.init_ops.len(), "{what}");
        let n = new.stats.required_input(0) as usize;
        let input: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        assert!(
            after_init(&new, &input) == after_init(&old, &input),
            "{what}"
        );
        primed.total as u64
    }

    #[test]
    fn apps_and_example_programs_initialize_in_bursts_like_the_trace() {
        let (mut fired, mut fibonacci) = (0, 0);
        for (what, stream) in apps_and_example_programs() {
            let n = initializes_in_bursts_like_the_trace(&what, &stream);
            fired += n;
            fibonacci += if what == "fibonacci" { n } else { 0 };
        }
        assert!(fibonacci > 0, "the feedback loop was not compared");
        assert!(fired > 3000, "only {fired} init firings compared");
    }

    use proptest::rng::Rng as Gen;

    /// A body that moves exactly its rates: every push a peeked item (or
    /// one, with no window) halved plus the state `s`, then the pops,
    /// then `s` counts the firing — so a firing out of order shows.
    fn body(b: BlockBuilder, window: usize, pop: usize, push: usize) -> BlockBuilder {
        let mut b = b;
        for j in 0..push {
            let item = match window {
                0 => lit(1.0),
                _ => peek(iconst((j % window) as i64)),
            };
            b = b.push(item * lit(0.5) + var("s"));
        }
        for _ in 0..pop {
            b = b.pop_discard();
        }
        b.set("s", var("s") + lit(1.0))
    }

    /// A filter with the given rates, a peek window up to three items
    /// wider, and one filter in three with a prework of its own rates.
    fn filter(g: &mut Gen, pop: usize, push: usize) -> StreamNode {
        let peek = pop + g.below(4) as usize;
        let mut f = FilterBuilder::new("f", streamit_graph::DataType::Float)
            .rates(peek, pop, push)
            .state("s", DataType::Float, Value::Float(0.0))
            .work(|b| body(b, peek, pop, push));
        if g.below(3) == 0 {
            // Never fewer pushes than pops: a prework that loses items
            // inside a feedback loop leaves it unprimable.
            let pw_pop = g.below(4) as usize;
            let pw_peek = pw_pop + g.below(3) as usize;
            let pw_push = pw_pop + g.below(3) as usize;
            f = f.prework(pw_peek, pw_pop, pw_push, |b| {
                body(b, pw_peek, pw_pop, pw_push)
            });
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

    /// Every port an op names moves items: a pop, a peek window or a
    /// push.  The multicore runtime homes each tape with the stage that
    /// moves items on it, so a port named at rate zero would address a
    /// tape another stage owns.
    fn ports_all_move_items(what: &str, plan: &Plan) {
        for op in plan.init_ops.iter().chain(&plan.pre_ops) {
            let (ins, outs) = op.io(&plan.codes).expect("bodies exist");
            assert!(
                ins.iter().all(|&(_, pop, slack)| pop + slack > 0),
                "{what}: {op:?}"
            );
            assert!(outs.iter().all(|&(_, push)| push > 0), "{what}: {op:?}");
        }
    }

    #[test]
    fn no_op_names_a_tape_its_rates_leave_at_zero() {
        let cache = LoweringCache::default();
        let plan = |s: &StreamNode| {
            let g = FlatGraph::from_stream(s);
            let ty = s.input_type().unwrap_or(DataType::Float);
            build_plan(&g, ty, LowerOptions::default(), &cache)
        };
        let mut planned = 0;
        for app in streamit_apps::corpus() {
            if let Ok(p) = plan(&app.graph()) {
                ports_all_move_items(app.name, &p);
                planned += 1;
            }
        }
        assert!(planned >= 13, "only {planned} apps planned");
        // A filter that declares an input it never reads, at the head
        // of a pipeline: its op reads nothing, not the external input.
        let counter = FilterBuilder::new("gen", DataType::Int)
            .rates(0, 0, 1)
            .state("i", DataType::Int, Value::Int(0))
            .work(|b| b.push(var("i")).set("i", var("i") + lit(1i64)))
            .build_node();
        let twice = FilterBuilder::new("x2", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| b.push(pop() * lit(2i64)))
            .build_node();
        let p = plan(&pipeline("p", vec![counter, twice])).expect("plans");
        ports_all_move_items("declared, unread input", &p);
        assert!(matches!(p.pre_ops[0], Op::Work { input: None, .. }));
    }

    /// Generated graph number `seed`: balanced parts with rate-changing
    /// filters between them, which make the repetition vector, and so
    /// the priming, non-uniform.
    fn generated(seed: u32) -> StreamNode {
        let g = &mut Gen::from_name(&format!("seed {seed}"));
        let parts = (0..1 + g.below(4))
            .map(|i| match i % 2 {
                0 => balanced(g, 3),
                _ => {
                    let (pop, push) = (1 + g.below(2) as usize, 1 + g.below(2) as usize);
                    filter(g, pop, push)
                }
            })
            .collect();
        pipeline("Main", parts)
    }

    #[test]
    fn generated_graphs_prime_like_one_firing_per_round() {
        let mut primed = 0;
        for seed in 0..600 {
            primed += primes_like_one_firing_per_round(&format!("seed {seed}"), &generated(seed));
        }
        assert!(
            primed > 2000,
            "only {primed} priming firings: the check is vacuous"
        );
    }

    #[test]
    fn generated_graphs_initialize_in_bursts_like_the_trace() {
        let mut fired = 0;
        for seed in 0..600 {
            fired +=
                initializes_in_bursts_like_the_trace(&format!("seed {seed}"), &generated(seed));
        }
        assert!(fired > 5000, "only {fired} init firings compared");
    }
}
