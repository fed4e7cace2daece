//! Flattening: lowering the hierarchical stream graph to a flat graph of
//! filters, splitters and joiners connected by typed channels.
//!
//! The flat graph is the representation consumed by the steady-state
//! scheduler, the SDEP analysis, the parallelization passes and the Raw
//! machine simulator.  Each channel corresponds to one of the paper's
//! "tapes".

use crate::filter::Filter;
use crate::stream::{Joiner, Splitter, StreamNode};
use crate::types::{DataType, Value};

/// Index of a node in a [`FlatGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of an edge (channel/tape) in a [`FlatGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// What a flat node is.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatNodeKind {
    Filter(Filter),
    Splitter(Splitter),
    Joiner(Joiner),
}

/// A node of the flat graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatNode {
    pub id: NodeId,
    /// Hierarchical instance path, e.g. `"Radio/Equalizer/band2/FIR"`.
    pub name: String,
    pub kind: FlatNodeKind,
    /// Incoming edges in port order.
    pub inputs: Vec<EdgeId>,
    /// Outgoing edges in port order.
    pub outputs: Vec<EdgeId>,
}

impl FlatNode {
    /// Items consumed per firing from input port `port`.
    pub fn pop_rate(&self, port: usize) -> u64 {
        match &self.kind {
            FlatNodeKind::Filter(f) => {
                debug_assert_eq!(port, 0);
                f.pop as u64
            }
            FlatNodeKind::Splitter(s) => {
                debug_assert_eq!(port, 0);
                s.pop_rate()
            }
            FlatNodeKind::Joiner(j) => j.pop_rate(port),
        }
    }

    /// Items required on input port `port` before the node can fire
    /// (equals the pop rate except for peeking filters).
    pub fn peek_rate(&self, port: usize) -> u64 {
        match &self.kind {
            FlatNodeKind::Filter(f) => {
                debug_assert_eq!(port, 0);
                f.peek.max(f.pop) as u64
            }
            _ => self.pop_rate(port),
        }
    }

    /// Items produced per firing on output port `port`.
    pub fn push_rate(&self, port: usize) -> u64 {
        match &self.kind {
            FlatNodeKind::Filter(f) => {
                debug_assert_eq!(port, 0);
                f.push as u64
            }
            FlatNodeKind::Splitter(s) => s.push_rate(port),
            FlatNodeKind::Joiner(j) => {
                debug_assert_eq!(port, 0);
                j.push_rate(self.inputs.len())
            }
        }
    }

    /// Borrow the contained filter, if this node is one.
    pub fn as_filter(&self) -> Option<&Filter> {
        match &self.kind {
            FlatNodeKind::Filter(f) => Some(f),
            _ => None,
        }
    }

    /// `true` if this node is a splitter or joiner.
    pub fn is_sync(&self) -> bool {
        !matches!(self.kind, FlatNodeKind::Filter(_))
    }
}

/// A channel ("tape") between two flat nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub id: EdgeId,
    pub src: NodeId,
    pub dst: NodeId,
    /// Item type carried by the channel.
    pub ty: DataType,
    /// Items pre-loaded on the channel before execution starts
    /// (feedback-loop `initPath` values).
    pub initial: Vec<Value>,
    /// `true` for the loopback→joiner edge of a feedback loop.  Back edges
    /// are excluded when topologically ordering the graph.
    pub is_back_edge: bool,
    /// `true` for edges internal to a feedback loop that must sort *after*
    /// the loop's external connections in port order (the paper fixes the
    /// external stream to port 0 of the feedback joiner and splitter).
    pub loop_internal: bool,
}

/// The flat stream graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlatGraph {
    pub nodes: Vec<FlatNode>,
    pub edges: Vec<Edge>,
}

impl FlatGraph {
    /// Flatten a hierarchical stream into a flat graph.
    pub fn from_stream(stream: &StreamNode) -> FlatGraph {
        let mut g = FlatGraph::default();
        g.flatten(stream, "");
        g
    }

    fn add_node(&mut self, name: String, kind: FlatNodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(FlatNode {
            id,
            name,
            kind,
            inputs: Vec::new(),
            outputs: Vec::new(),
        });
        id
    }

    /// Connect `src` to `dst` with a fresh channel of type `ty`.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, ty: DataType) -> EdgeId {
        self.add_edge_full(src, dst, ty, Vec::new(), false, false)
    }

    fn add_edge_full(
        &mut self,
        src: NodeId,
        dst: NodeId,
        ty: DataType,
        initial: Vec<Value>,
        is_back_edge: bool,
        loop_internal: bool,
    ) -> EdgeId {
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            id,
            src,
            dst,
            ty,
            initial,
            is_back_edge,
            loop_internal,
        });
        // External connections of a feedback loop are made *after* the
        // loop's internal edges, yet must occupy port 0.  Insert
        // non-loop-internal edges before any loop-internal ones.
        let insert = |list: &mut Vec<EdgeId>, edges: &[Edge]| {
            if loop_internal {
                list.push(id);
            } else {
                let pos = list
                    .iter()
                    .position(|&e| edges[e.0].loop_internal)
                    .unwrap_or(list.len());
                list.insert(pos, id);
            }
        };
        insert(&mut self.nodes[src.0].outputs, &self.edges);
        insert(&mut self.nodes[dst.0].inputs, &self.edges);
        id
    }

    /// Flatten `stream` under hierarchical `prefix`; returns the entry and
    /// exit node of the flattened fragment (either may be `None` for
    /// source/sink fragments).
    fn flatten(&mut self, stream: &StreamNode, prefix: &str) -> (Option<NodeId>, Option<NodeId>) {
        let path = if prefix.is_empty() {
            stream.name().to_string()
        } else {
            format!("{prefix}/{}", stream.name())
        };
        match stream {
            StreamNode::Filter(f) => {
                let id = self.add_node(path, FlatNodeKind::Filter(f.clone()));
                (Some(id), Some(id))
            }
            StreamNode::Pipeline(p) => {
                let mut entry = None;
                let mut prev_exit: Option<NodeId> = None;
                let mut prev_ty: Option<DataType> = None;
                for child in &p.children {
                    let (cin, cout) = self.flatten(child, &path);
                    if entry.is_none() {
                        entry = cin;
                    }
                    if let (Some(pe), Some(ci)) = (prev_exit, cin) {
                        let ty = child.input_type().or(prev_ty).unwrap_or(DataType::Float);
                        self.add_edge(pe, ci, ty);
                    }
                    if cout.is_some() {
                        prev_exit = cout;
                        prev_ty = child.output_type();
                    }
                }
                (entry, prev_exit)
            }
            StreamNode::SplitJoin(sj) => {
                let in_ty = stream.input_type().unwrap_or(DataType::Float);
                let out_ty = stream.output_type().unwrap_or(DataType::Float);
                let split_id = if matches!(sj.splitter, Splitter::Null) {
                    None
                } else {
                    Some(self.add_node(
                        format!("{path}/split"),
                        FlatNodeKind::Splitter(Splitter::Null),
                    ))
                };
                let join_id = if matches!(sj.joiner, Joiner::Null) {
                    None
                } else {
                    Some(self.add_node(format!("{path}/join"), FlatNodeKind::Joiner(Joiner::Null)))
                };
                // Children without an entry (source branches) get no edge
                // from the splitter; the splitter node's weight vector is
                // filtered to keep weights aligned with its actual ports.
                let mut split_weights = Vec::new();
                let mut join_weights = Vec::new();
                for (i, child) in sj.children.iter().enumerate() {
                    let (cin, cout) = self.flatten(child, &path);
                    if let (Some(s), Some(ci)) = (split_id, cin) {
                        self.add_edge(s, ci, child.input_type().unwrap_or(in_ty));
                        split_weights.push(sj.splitter.push_rate(i));
                    }
                    if let (Some(co), Some(j)) = (cout, join_id) {
                        self.add_edge(co, j, child.output_type().unwrap_or(out_ty));
                        join_weights.push(sj.joiner.pop_rate(i));
                    }
                }
                if let Some(s) = split_id {
                    self.nodes[s.0].kind = FlatNodeKind::Splitter(match &sj.splitter {
                        Splitter::Duplicate => Splitter::Duplicate,
                        Splitter::RoundRobin(_) => Splitter::RoundRobin(split_weights),
                        Splitter::Null => unreachable!("null splitter has no node"),
                    });
                }
                if let Some(j) = join_id {
                    self.nodes[j.0].kind = FlatNodeKind::Joiner(match &sj.joiner {
                        Joiner::Combine => Joiner::Combine,
                        Joiner::RoundRobin(_) => Joiner::RoundRobin(join_weights),
                        Joiner::Null => unreachable!("null joiner has no node"),
                    });
                }
                (split_id, join_id)
            }
            StreamNode::FeedbackLoop(fl) => {
                let body_ty = fl.body.input_type().unwrap_or(DataType::Float);
                let join_id = self.add_node(
                    format!("{path}/loopjoin"),
                    FlatNodeKind::Joiner(fl.joiner.clone()),
                );
                let (bin, bout) = self.flatten(&fl.body, &path);
                let split_id = self.add_node(
                    format!("{path}/loopsplit"),
                    FlatNodeKind::Splitter(fl.splitter.clone()),
                );
                let (lin, lout) = self.flatten(&fl.loopback, &path);
                if let Some(bi) = bin {
                    self.add_edge(join_id, bi, body_ty);
                }
                if let Some(bo) = bout {
                    self.add_edge(bo, split_id, fl.body.output_type().unwrap_or(body_ty));
                }
                if let Some(li) = lin {
                    self.add_edge_full(
                        split_id,
                        li,
                        fl.loopback.input_type().unwrap_or(body_ty),
                        Vec::new(),
                        false,
                        true,
                    );
                }
                if let Some(lo) = lout {
                    debug_assert_eq!(fl.init_path.len(), fl.delay);
                    self.add_edge_full(
                        lo,
                        join_id,
                        fl.loopback.output_type().unwrap_or(body_ty),
                        fl.init_path.clone(),
                        true,
                        true,
                    );
                }
                // The loop-internal edges above sort after any external
                // connection our caller adds later, so the external stream
                // occupies port 0 of both the feedback joiner and splitter
                // as the paper requires.
                (Some(join_id), Some(split_id))
            }
        }
    }

    /// Edge lookup.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &FlatNode {
        &self.nodes[id.0]
    }

    /// Number of input ports a node logically has.  A feedback joiner
    /// always has 2 (external, loop) even when the external side is the
    /// program's input tape rather than an edge — the loop is the whole
    /// program — and a round-robin weight vector can extend the arity
    /// further.  These four functions are the port conventions every
    /// engine resolves tapes through.
    pub fn in_arity(&self, node: NodeId) -> usize {
        let n = self.node(node);
        match &n.kind {
            FlatNodeKind::Joiner(j) => {
                let is_feedback = n.inputs.iter().any(|&e| self.edge(e).loop_internal);
                let base = if is_feedback { 2 } else { n.inputs.len() };
                match j {
                    Joiner::RoundRobin(w) => w.len().max(base),
                    _ => base,
                }
            }
            FlatNodeKind::Splitter(_) => n.inputs.len(),
            FlatNodeKind::Filter(_) => 1,
        }
    }

    /// Number of output ports a node logically has (dual of
    /// [`FlatGraph::in_arity`]).
    pub fn out_arity(&self, node: NodeId) -> usize {
        let n = self.node(node);
        match &n.kind {
            FlatNodeKind::Splitter(s) => {
                let is_feedback = n.outputs.iter().any(|&e| self.edge(e).loop_internal);
                let base = if is_feedback { 2 } else { n.outputs.len() };
                match s {
                    Splitter::RoundRobin(w) => w.len().max(base),
                    _ => base,
                }
            }
            FlatNodeKind::Joiner(_) => n.outputs.len(),
            FlatNodeKind::Filter(_) => 1,
        }
    }

    /// Resolve an input port to its edge.  Missing leading ports are the
    /// node's *external* connections (port 0 of a feedback joiner, or a
    /// program-entry filter): `None` is the program's input tape.
    pub fn in_edge_for_port(&self, node: NodeId, port: usize) -> Option<EdgeId> {
        let n = self.node(node);
        let missing = self.in_arity(node).saturating_sub(n.inputs.len());
        if port < missing {
            None
        } else {
            n.inputs.get(port - missing).copied()
        }
    }

    /// Resolve an output port to its edge; `None` is the program's
    /// external output.
    pub fn out_edge_for_port(&self, node: NodeId, port: usize) -> Option<EdgeId> {
        let n = self.node(node);
        let missing = self.out_arity(node).saturating_sub(n.outputs.len());
        if port < missing {
            None
        } else {
            n.outputs.get(port - missing).copied()
        }
    }

    /// All filter nodes.
    pub fn filters(&self) -> impl Iterator<Item = &FlatNode> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, FlatNodeKind::Filter(_)))
    }

    /// Nodes with no incoming edges (sources).
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// Nodes with no outgoing edges (sinks).
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.outputs.is_empty())
            .map(|n| n.id)
            .collect()
    }

    /// Topological order of the nodes, ignoring feedback back edges.
    ///
    /// Panics if the graph contains a cycle not broken by a back edge —
    /// such graphs cannot be produced by flattening.
    pub fn topo_order(&self) -> Vec<NodeId> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if !e.is_back_edge {
                indeg[e.dst.0] += 1;
            }
        }
        let mut stack: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).map(NodeId).collect();
        // Reverse so that lower ids (construction order ≈ upstream first)
        // pop first, giving a stable, intuition-matching order.
        stack.reverse();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = stack.pop() {
            order.push(id);
            for &eid in &self.nodes[id.0].outputs {
                let e = &self.edges[eid.0];
                if e.is_back_edge {
                    continue;
                }
                indeg[e.dst.0] -= 1;
                if indeg[e.dst.0] == 0 {
                    stack.push(e.dst);
                }
            }
        }
        assert_eq!(
            order.len(),
            n,
            "cycle without back edge in flat graph (flattening bug)"
        );
        order
    }

    /// Predecessor nodes of `id` (through forward and back edges).
    pub fn preds(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes[id.0]
            .inputs
            .iter()
            .map(|&e| self.edges[e.0].src)
            .collect()
    }

    /// Successor nodes of `id`.
    pub fn succs(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes[id.0]
            .outputs
            .iter()
            .map(|&e| self.edges[e.0].dst)
            .collect()
    }

    /// `true` if there is a directed path from `a` to `b` following the
    /// direction of data flow (the paper's "downstream" relation),
    /// excluding back edges.
    pub fn is_downstream(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![a];
        seen[a.0] = true;
        while let Some(n) = stack.pop() {
            for &eid in &self.nodes[n.0].outputs {
                let e = &self.edges[eid.0];
                if e.is_back_edge {
                    continue;
                }
                if e.dst == b {
                    return true;
                }
                if !seen[e.dst.0] {
                    seen[e.dst.0] = true;
                    stack.push(e.dst);
                }
            }
        }
        false
    }

    /// Length (in nodes) of the shortest and longest source→sink path,
    /// counting only filter nodes, ignoring back edges.
    pub fn path_extents(&self) -> (usize, usize) {
        let order = self.topo_order();
        let mut shortest = vec![usize::MAX; self.nodes.len()];
        let mut longest = vec![0usize; self.nodes.len()];
        for &id in &order {
            let node = &self.nodes[id.0];
            let own = usize::from(!node.is_sync());
            let (s0, l0) = if node.inputs.iter().all(|&e| self.edges[e.0].is_back_edge) {
                (own, own)
            } else {
                let mut smin = usize::MAX;
                let mut lmax = 0;
                for &eid in &node.inputs {
                    let e = &self.edges[eid.0];
                    if e.is_back_edge {
                        continue;
                    }
                    smin = smin.min(shortest[e.src.0]);
                    lmax = lmax.max(longest[e.src.0]);
                }
                (smin.saturating_add(own), lmax + own)
            };
            shortest[id.0] = s0;
            longest[id.0] = l0;
        }
        let mut smin = usize::MAX;
        let mut lmax = 0;
        for id in self.sinks() {
            smin = smin.min(shortest[id.0]);
            lmax = lmax.max(longest[id.0]);
        }
        if smin == usize::MAX {
            smin = 0;
        }
        (smin, lmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{Pipeline, SplitJoin};
    use crate::DataType;

    fn id(n: &str) -> StreamNode {
        Filter::identity(n, DataType::Int).into()
    }

    fn pipe(name: &str, children: Vec<StreamNode>) -> StreamNode {
        StreamNode::Pipeline(Pipeline {
            name: name.into(),
            children,
        })
    }

    #[test]
    fn flatten_pipeline() {
        let g = FlatGraph::from_stream(&pipe("p", vec![id("a"), id("b"), id("c")]));
        assert_eq!(g.nodes.len(), 3);
        assert_eq!(g.edges.len(), 2);
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.topo_order().len(), 3);
    }

    #[test]
    fn flatten_splitjoin() {
        let sj = StreamNode::SplitJoin(SplitJoin {
            name: "sj".into(),
            splitter: Splitter::round_robin(2),
            children: vec![id("a"), id("b")],
            joiner: Joiner::round_robin(2),
        });
        let g = FlatGraph::from_stream(&sj);
        // splitter + 2 filters + joiner
        assert_eq!(g.nodes.len(), 4);
        assert_eq!(g.edges.len(), 4);
        let (s, l) = g.path_extents();
        assert_eq!((s, l), (1, 1));
    }

    #[test]
    fn downstream_relation() {
        let g = FlatGraph::from_stream(&pipe("p", vec![id("a"), id("b"), id("c")]));
        let order = g.topo_order();
        assert!(g.is_downstream(order[0], order[2]));
        assert!(!g.is_downstream(order[2], order[0]));
        assert!(!g.is_downstream(order[1], order[1]));
    }

    #[test]
    fn path_extents_uneven_splitjoin() {
        let sj = StreamNode::SplitJoin(SplitJoin {
            name: "sj".into(),
            splitter: Splitter::round_robin(2),
            children: vec![id("a"), pipe("q", vec![id("b"), id("c"), id("d")])],
            joiner: Joiner::round_robin(2),
        });
        let g = FlatGraph::from_stream(&sj);
        let (s, l) = g.path_extents();
        assert_eq!((s, l), (1, 3));
    }
}
