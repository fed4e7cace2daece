//! Graph transformation pass: fission of stateless pipeline regions.
//!
//! A maximal chain of stateless, non-peeking, single-in/single-out
//! filters is a pure function on input batches: fired as a block it
//! consumes `P` items, produces `Q` items, and leaves every internal
//! channel empty (non-feedback channels start empty, and the chain's
//! local repetition vector balances every internal flow).  Such a
//! region can therefore be replicated `W` ways behind a weighted
//! round-robin splitter (`[P; W]`) and in front of a round-robin joiner
//! (`[Q; W]`): batch `i` goes to replica `i mod W`, each replica maps
//! its batches independently, and the joiner reassembles the exact
//! original output order.  By Kahn-network determinism the transformed
//! graph is bit-identical to the original — the differential suite
//! checks this on every app graph and on generated programs.
//!
//! Treating the *chain* as the fission unit is the "fuse, then fiss"
//! strategy of the paper's coarse-grained data parallelism: the fused
//! region amortizes the scatter/gather synchronization over the whole
//! chain's work.  Which regions are worth splitting, and how many ways,
//! is decided by [`streamit_sched::coarse_fission_degrees`] — the same
//! heuristic the scheduler's cost model applies to the work graph, so
//! the runtime executes the decisions `sched::partition` scores.

use streamit_graph::{DataType, FlatGraph, FlatNode, FlatNodeKind, Joiner, NodeId, Splitter};
use streamit_sched::{coarse_fission_degrees, FissionCandidate, WorkGraph};

/// One region the transform replicated, for reports and diagnostics.
#[derive(Debug, Clone)]
pub struct FissedRegion {
    /// Names of the original chain members, upstream to downstream.
    pub members: Vec<String>,
    /// Replication degree.
    pub ways: usize,
    /// Items the region consumes per local block firing.
    pub batch_in: u64,
    /// Items the region produces per local block firing.
    pub batch_out: u64,
}

/// Caps the splitter/joiner round-robin weights: a region whose block
/// batch is enormous would force equally enormous tapes, at which point
/// the scatter/gather copies dominate any parallel gain.
const MAX_BATCH: u64 = 1 << 16;

/// Is this node a fission candidate?  Stateless (no mutated state, no
/// handlers), no prework (a one-shot prologue is state), non-peeking
/// (replicas would each need the shared sliding window), and a plain
/// single-in/single-out pipeline stage.  A filter a pass made — fused,
/// or an earlier fission's replica — is never fissed.
fn fissable(g: &FlatGraph, id: NodeId) -> bool {
    let n = g.node(id);
    let FlatNodeKind::Filter(f) = &n.kind else {
        return false;
    };
    n.inputs.len() == 1
        && n.outputs.len() == 1
        && f.input.is_some()
        && f.output.is_some()
        && f.pop > 0
        && f.push > 0
        && !f.is_stateful()
        && !f.is_peeking()
        && f.prework.is_none()
        && !f.made_by_pass()
}

/// Maximal fissable chains, in topological order.  A chain starts at a
/// fissable node whose producer is not part of the same chain and
/// follows single-output successors while they remain fissable.
fn find_chains(g: &FlatGraph, topo: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut chains = Vec::new();
    for &start in topo {
        if !fissable(g, start) {
            continue;
        }
        let prev = g.edge(g.node(start).inputs[0]).src;
        if fissable(g, prev) {
            continue; // interior of a chain that started earlier
        }
        let mut chain = vec![start];
        loop {
            let last = chain[chain.len() - 1];
            let next = g.edge(g.node(last).outputs[0]).dst;
            if fissable(g, next) {
                chain.push(next);
            } else {
                break;
            }
        }
        chains.push(chain);
    }
    chains
}

/// The chain's local repetition vector and block rates: minimal firing
/// counts `t_i` balancing every internal flow (`t_i * push_i ==
/// t_{i+1} * pop_{i+1}`), plus the block's external batch `(P, Q)`.
fn chain_block(g: &FlatGraph, chain: &[NodeId]) -> Option<(Vec<u64>, u64, u64)> {
    let gcd = |mut a: u64, mut b: u64| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let rates = |id: NodeId| match &g.node(id).kind {
        FlatNodeKind::Filter(f) => (f.pop as u64, f.push as u64),
        _ => (0, 0),
    };
    let mut ts = vec![1u64];
    for w in chain.windows(2) {
        let (_, push) = rates(w[0]);
        let (pop, _) = rates(w[1]);
        let produced = ts[ts.len() - 1].checked_mul(push)?;
        let g1 = gcd(produced, pop);
        let scale = pop / g1;
        if scale > 1 {
            for t in &mut ts {
                *t = t.checked_mul(scale)?;
            }
        }
        ts.push(produced.checked_mul(scale)? / pop);
    }
    let common = ts.iter().fold(0, |a, &t| gcd(a, t)).max(1);
    for t in &mut ts {
        *t /= common;
    }
    let (first_pop, _) = rates(chain[0]);
    let (_, last_push) = rates(chain[chain.len() - 1]);
    let p = ts[0].checked_mul(first_pop)?;
    let q = ts[ts.len() - 1].checked_mul(last_push)?;
    (p <= MAX_BATCH && q <= MAX_BATCH).then_some((ts, p, q))
}

fn push_node(g: &mut FlatGraph, name: String, kind: FlatNodeKind) -> NodeId {
    let id = NodeId(g.nodes.len());
    g.nodes.push(FlatNode {
        id,
        name,
        kind,
        inputs: Vec::new(),
        outputs: Vec::new(),
    });
    id
}

/// A region elected for fission: chain members, degree, per-member
/// firings within the block, and the block's batch rates (P in, Q out).
type Region = (Vec<NodeId>, usize, Vec<u64>, u64, u64);

/// Apply coarse-grained fission to `g` for a `threads`-way machine.
/// Returns the transformed graph plus a report of what was replicated,
/// or `None` when no region qualifies.  Requires an acyclic graph —
/// the caller rejects feedback loops before transforming.
pub fn fiss_graph(g: &FlatGraph, threads: usize) -> Option<(FlatGraph, Vec<FissedRegion>)> {
    if threads < 2 {
        return None;
    }
    let topo = g.topo_order();
    let chains = find_chains(g, &topo);
    if chains.is_empty() {
        return None;
    }

    // Score every chain with the scheduler's own heuristic (its edges
    // are the graph's, in order, with their steady-state flows).
    let wg = WorkGraph::from_flat(g).ok()?;
    let mut regions: Vec<Region> = Vec::new();
    let mut candidates = Vec::new();
    let mut blocks = Vec::new();
    for chain in &chains {
        let Some((ts, p, q)) = chain_block(g, chain) else {
            continue;
        };
        let work: u64 = chain.iter().map(|n| wg.nodes[n.0].work).sum();
        let in_items = wg.edges[g.node(chain[0]).inputs[0].0].items;
        candidates.push(FissionCandidate {
            work,
            peeking: false,
            in_items,
        });
        blocks.push((chain.clone(), ts, p, q));
    }
    let degrees = coarse_fission_degrees(wg.total_work(), &candidates, threads);
    for ((chain, ts, p, q), ways) in blocks.into_iter().zip(degrees) {
        if ways >= 2 {
            regions.push((chain, ways, ts, p, q));
        }
    }
    if regions.is_empty() {
        return None;
    }

    // Membership tables: which region owns each node, and each node's
    // position inside its chain.
    let mut region_of = vec![None::<usize>; g.nodes.len()];
    for (r, (chain, ..)) in regions.iter().enumerate() {
        for (pos, &id) in chain.iter().enumerate() {
            region_of[id.0] = Some((r << 16) | pos);
        }
    }
    let region_idx = |id: NodeId| region_of[id.0].map(|v| v >> 16);
    let chain_pos = |id: NodeId| region_of[id.0].map(|v| v & 0xffff);

    // Rebuild the graph.  Nodes first (plain copies plus, per region, a
    // splitter, `ways` chain replicas, and a joiner); then edges in the
    // original id order so every untouched node keeps its exact port
    // order.  Region plumbing is emitted when its entry/exit edge comes
    // up, preserving the neighbours' port positions too.
    let mut ng = FlatGraph {
        nodes: Vec::new(),
        edges: Vec::new(),
    };
    let mut node_map = vec![NodeId(usize::MAX); g.nodes.len()];
    for n in &g.nodes {
        if region_of[n.id.0].is_none() {
            node_map[n.id.0] = push_node(&mut ng, n.name.clone(), n.kind.clone());
        }
    }
    // Per region: splitter id, joiner id, and replica node ids
    // (`replicas[r][j][pos]`).
    let mut split_of = Vec::new();
    let mut join_of = Vec::new();
    let mut replicas: Vec<Vec<Vec<NodeId>>> = Vec::new();
    let mut report = Vec::new();
    for (chain, ways, _ts, p, q) in &regions {
        let base = &g.node(chain[0]).name;
        let split = push_node(
            &mut ng,
            format!("{base}[fiss.split]"),
            FlatNodeKind::Splitter(Splitter::RoundRobin(vec![*p; *ways])),
        );
        let join = push_node(
            &mut ng,
            format!("{base}[fiss.join]"),
            FlatNodeKind::Joiner(Joiner::RoundRobin(vec![*q; *ways])),
        );
        let mut reps = Vec::new();
        for j in 1..=*ways {
            let mut clones = Vec::new();
            for &member in chain {
                let n = g.node(member);
                let FlatNodeKind::Filter(f) = &n.kind else {
                    unreachable!("chain members are filters");
                };
                let mut f = f.clone();
                let name = format!("{}[{j}of{ways}]", n.name);
                f.name = name.clone();
                clones.push(push_node(&mut ng, name, FlatNodeKind::Filter(f)));
            }
            reps.push(clones);
        }
        split_of.push(split);
        join_of.push(join);
        replicas.push(reps);
        report.push(FissedRegion {
            members: chain.iter().map(|&n| g.node(n).name.clone()).collect(),
            ways: *ways,
            batch_in: *p,
            batch_out: *q,
        });
    }

    // Type of the internal chain edge leaving a member node.
    let edge_ty = |a: NodeId| -> DataType { g.edge(g.node(a).outputs[0]).ty };
    for e in &g.edges {
        let src_r = region_idx(e.src);
        let dst_r = region_idx(e.dst);
        match (src_r, dst_r) {
            (None, None) => {
                ng.add_edge(node_map[e.src.0], node_map[e.dst.0], e.ty);
            }
            (None, Some(r)) => {
                // Region entry: neighbour -> splitter, then the whole
                // region's internal plumbing in port order.
                let (chain, ..) = &regions[r];
                ng.add_edge(node_map[e.src.0], split_of[r], e.ty);
                for rep in &replicas[r] {
                    ng.add_edge(split_of[r], rep[0], e.ty);
                }
                for rep in &replicas[r] {
                    for pos in 0..chain.len() - 1 {
                        ng.add_edge(rep[pos], rep[pos + 1], edge_ty(chain[pos]));
                    }
                }
                let exit_ty = g.edge(g.node(chain[chain.len() - 1]).outputs[0]).ty;
                for rep in &replicas[r] {
                    ng.add_edge(rep[chain.len() - 1], join_of[r], exit_ty);
                }
            }
            (Some(r), None) => {
                // Region exit: joiner -> neighbour, at the neighbour's
                // original input-port position.
                ng.add_edge(join_of[r], node_map[e.dst.0], e.ty);
            }
            (Some(a), Some(b)) if a == b => {
                // Internal chain edge: already emitted per replica.
                debug_assert_eq!(
                    chain_pos(e.dst).unwrap_or(0),
                    chain_pos(e.src).unwrap_or(0) + 1
                );
            }
            (Some(a), Some(b)) => {
                // Two adjacent regions: exit of `a` feeds entry of `b`.
                // Maximal chains make this unreachable (adjacent
                // fissable nodes share a chain), but route it anyway.
                let _ = (a, b);
                ng.add_edge(join_of[a], split_of[b], e.ty);
            }
        }
    }
    Some((ng, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::Value;

    fn source(name: &str) -> streamit_graph::StreamNode {
        FilterBuilder::source(name, DataType::Int)
            .rates(0, 0, 1)
            .state("i", DataType::Int, Value::Int(0))
            .work(|b| b.push(var("i")).set("i", var("i") + lit(1i64)))
            .build_node()
    }

    /// A stateless filter heavy enough that the coarse heuristic always
    /// elects to fiss it (a long unrolled expression chain).
    fn heavy(name: &str) -> streamit_graph::StreamNode {
        FilterBuilder::new(name, DataType::Int)
            .rates(1, 1, 1)
            .work(|b| {
                let mut e = pop();
                for k in 1..60i64 {
                    e = e * lit(2i64) + lit(k);
                }
                b.push(e)
            })
            .build_node()
    }

    fn sink(name: &str) -> streamit_graph::StreamNode {
        FilterBuilder::sink(name, DataType::Int)
            .rates(1, 1, 0)
            .state("acc", DataType::Int, Value::Int(0))
            .work(|b| b.set("acc", var("acc") + pop()))
            .build_node()
    }

    #[test]
    fn heavy_stateless_chain_is_fissed() {
        let s = pipeline(
            "p",
            vec![source("src"), heavy("h1"), heavy("h2"), sink("snk")],
        );
        let g = FlatGraph::from_stream(&s);
        let (ng, report) = fiss_graph(&g, 4).expect("the chain is fissed");
        assert_eq!(report.len(), 1, "one region expected: {report:?}");
        assert_eq!(report[0].members, vec!["p/h1", "p/h2"]);
        assert!(report[0].ways >= 2);
        // The rewritten graph has a splitter, `ways` replicas of both
        // filters, and a joiner in place of the chain.
        let names: Vec<&str> = ng.nodes.iter().map(|n| n.name.as_str()).collect();
        assert!(
            names.iter().any(|n| n.ends_with("[fiss.split]")),
            "{names:?}"
        );
        assert!(
            names.iter().any(|n| n.ends_with("[fiss.join]")),
            "{names:?}"
        );
        let clones = names.iter().filter(|n| n.contains("of")).count();
        assert_eq!(clones, 2 * report[0].ways);
        // Still a valid SDF graph with a steady schedule.
        streamit_graph::repetition_vector(&ng).expect("transformed graph stays schedulable");
    }

    #[test]
    fn stateful_and_peeking_filters_are_left_alone() {
        let peeky = FilterBuilder::new("peeky", DataType::Int)
            .rates(3, 1, 1)
            .work(|b| b.push(peek(lit(0i64)) + peek(lit(2i64))).pop_discard())
            .build_node();
        let s = pipeline("p", vec![source("src"), peeky, sink("snk")]);
        let g = FlatGraph::from_stream(&s);
        assert!(fiss_graph(&g, 8).is_none());
    }

    #[test]
    fn single_thread_budget_disables_fission() {
        let s = pipeline("p", vec![source("src"), heavy("h"), sink("snk")]);
        let g = FlatGraph::from_stream(&s);
        assert!(fiss_graph(&g, 1).is_none());
    }

    #[test]
    fn chain_block_balances_mismatched_rates() {
        // 1->3 followed by 2->1: block fires them 2 and 3 times.
        let up = FilterBuilder::new("up", DataType::Int)
            .rates(1, 1, 3)
            .work(|b| {
                let b = b.push(pop());
                b.push(lit(0i64)).push(lit(0i64))
            })
            .build_node();
        let down = FilterBuilder::new("down", DataType::Int)
            .rates(2, 2, 1)
            .work(|b| b.push(pop() + pop()))
            .build_node();
        let s = pipeline("p", vec![source("src"), up, down, sink("snk")]);
        let g = FlatGraph::from_stream(&s);
        let topo = g.topo_order();
        let chains = find_chains(&g, &topo);
        assert_eq!(chains.len(), 1);
        let (ts, p, q) = chain_block(&g, &chains[0]).expect("block exists");
        assert_eq!(ts, vec![2, 3]);
        assert_eq!((p, q), (2, 3));
    }
}
