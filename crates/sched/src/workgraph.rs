//! The coarse-grained work graph: the representation the partitioners
//! transform and the machine simulator executes.
//!
//! Each node carries its total work per *steady state* (firing count ×
//! per-firing estimate); each edge carries the number of items crossing
//! it per steady state.  Fusion contracts a set of nodes into one
//! (summing work, preserving external edges); fission replicates a
//! stateless node `k` ways behind a scatter/gather pair of
//! synchronization nodes, duplicating the sliding window of peeking
//! filters.

use crate::estimate::{estimate_filter, WorkEstimate};
use streamit_graph::fuse::member_list;
use streamit_graph::{repetition_vector, steady_flows, FlatGraph, FlatNodeKind, SteadyError};

/// A node of the work graph.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkNode {
    /// Display name (joined names after fusion).
    pub name: String,
    /// Cycles of computation per steady state.
    pub work: u64,
    /// Floating-point ops per steady state.
    pub flops: u64,
    /// Carries mutable state (cannot be fissed).
    pub stateful: bool,
    /// Peeks beyond its pop window.  Peeking nodes can be fissed (with
    /// window duplication) but fusing one poisons the fused node:
    /// `stateful` becomes true, per the paper.
    pub peeking: bool,
    /// Splitter/joiner synchronization node (zero work, not mapped to a
    /// compute tile by itself).
    pub sync: bool,
    /// File/device endpoint (not mapped to a compute core; lives at the
    /// DRAM ports in the machine model).
    pub io: bool,
    /// Number of original filters represented (for reporting).
    pub members: u32,
    /// Sliding-window surplus items per steady state
    /// (`(peek - pop) × reps`); the extra input every replica must
    /// receive when this node is fissed.
    pub peek_extra_items: u64,
}

/// An edge of the work graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkEdge {
    pub src: usize,
    pub dst: usize,
    /// Items (words) crossing per steady state.
    pub items: u64,
    /// `true` for genuine feedback (a back edge of a feedback loop in
    /// the source program).  Fusion can create incidental cycles through
    /// retained sync nodes; only `back` edges represent real
    /// loop-carried dependences for the recurrence bound.
    pub back: bool,
}

/// The work graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkGraph {
    pub nodes: Vec<WorkNode>,
    pub edges: Vec<WorkEdge>,
}

impl WorkGraph {
    /// Build the work graph of a flat stream graph.
    ///
    /// Fails only if the graph's rates are inconsistent (no steady
    /// state), which `streamit-sdep`'s verifier reports more usefully.
    pub fn from_flat(g: &FlatGraph) -> Result<WorkGraph, SteadyError> {
        let reps = repetition_vector(g)?;
        let flows = steady_flows(g, &reps);

        let nodes = g
            .nodes
            .iter()
            .map(|n| match &n.kind {
                FlatNodeKind::Filter(f) => {
                    let WorkEstimate { cycles, flops } = estimate_filter(f);
                    let io = f.is_source() || f.is_sink();
                    WorkNode {
                        name: n.name.clone(),
                        work: cycles * reps[n.id.0],
                        flops: flops * reps[n.id.0],
                        stateful: f.is_stateful(),
                        peeking: f.is_peeking(),
                        sync: false,
                        io,
                        members: 1,
                        peek_extra_items: (f.peek.max(f.pop) - f.pop) as u64 * reps[n.id.0],
                    }
                }
                FlatNodeKind::Splitter(_) | FlatNodeKind::Joiner(_) => WorkNode {
                    name: n.name.clone(),
                    work: 0,
                    flops: 0,
                    stateful: false,
                    peeking: false,
                    sync: true,
                    io: false,
                    members: 0,
                    peek_extra_items: 0,
                },
            })
            .collect();
        let edges = g
            .edges
            .iter()
            .map(|e| WorkEdge {
                src: e.src.0,
                dst: e.dst.0,
                items: flows[e.id.0],
                back: e.is_back_edge,
            })
            .collect();
        Ok(WorkGraph { nodes, edges })
    }

    /// Total computation per steady state.
    pub fn total_work(&self) -> u64 {
        self.nodes.iter().map(|n| n.work).sum()
    }

    /// Total items crossing edges per steady state.
    pub fn total_comm(&self) -> u64 {
        self.edges.iter().map(|e| e.items).sum()
    }

    /// Indices of non-sync, non-io nodes (the mappable computation).
    pub fn compute_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].sync && !self.nodes[i].io)
            .collect()
    }

    /// Out-neighbors of `i`.
    pub fn succs(&self, i: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|e| e.src == i)
            .map(|e| e.dst)
            .collect()
    }

    /// In-neighbors of `i`.
    pub fn preds(&self, i: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|e| e.dst == i)
            .map(|e| e.src)
            .collect()
    }

    /// Topological order (the work graph is a DAG: feedback back edges
    /// are contracted away or kept — we simply ignore cycles by Kahn with
    /// arbitrary tie-break on stuck nodes).
    pub fn topo_order(&self) -> Vec<usize> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.dst] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        ready.reverse();
        let mut seen = vec![false; n];
        let mut order = Vec::with_capacity(n);
        while order.len() < n {
            let next = match ready.pop() {
                Some(x) => x,
                None => {
                    // Cycle (feedback loop): break it at the unvisited
                    // node with smallest index.
                    match (0..n).find(|&i| !seen[i]) {
                        Some(x) => x,
                        None => break,
                    }
                }
            };
            if seen[next] {
                continue;
            }
            seen[next] = true;
            order.push(next);
            for e in self.edges.iter().filter(|e| e.src == next) {
                if indeg[e.dst] > 0 {
                    indeg[e.dst] -= 1;
                }
                if indeg[e.dst] == 0 && !seen[e.dst] {
                    ready.push(e.dst);
                }
            }
        }
        order
    }

    /// Fuse the given set of node indices into a single node.  Work and
    /// FLOPs sum; internal edges disappear; external edges re-target the
    /// fused node.  Fusing a peeking filter introduces shared state, so
    /// the result is stateful if any member is stateful *or* (the set has
    /// more than one member and any member peeks), per the paper.
    ///
    /// Returns the new graph and the index of the fused node.
    pub fn fuse(&self, set: &[usize]) -> (WorkGraph, usize) {
        assert!(!set.is_empty());
        let in_set = |i: usize| set.contains(&i);
        let multi = set.len() > 1;
        let mut work = 0u64;
        let mut flops = 0u64;
        let mut stateful = false;
        let mut peeking = false;
        let mut io = false;
        let mut members = 0u32;
        let mut peek_extra_items = 0u64;
        for &i in set {
            let n = &self.nodes[i];
            work += n.work;
            flops += n.flops;
            stateful |= n.stateful || (multi && n.peeking);
            peeking |= n.peeking;
            io |= n.io;
            members += n.members;
            peek_extra_items += n.peek_extra_items;
        }
        let fused = WorkNode {
            name: member_list(set.iter().map(|&i| self.nodes[i].name.as_str())),
            work,
            flops,
            stateful,
            peeking,
            sync: false,
            io,
            members,
            peek_extra_items,
        };

        // Build the new node list: fused node first is placed at the
        // position of the smallest member to keep ordering stable.
        let anchor = set.iter().min().copied().unwrap_or(0);
        let mut map = vec![usize::MAX; self.nodes.len()];
        let mut nodes = Vec::with_capacity(self.nodes.len() - set.len() + 1);
        for (i, n) in self.nodes.iter().enumerate() {
            if i == anchor {
                map[i] = nodes.len();
                nodes.push(fused.clone());
            } else if in_set(i) {
                // mapped to the anchor later
            } else {
                map[i] = nodes.len();
                nodes.push(n.clone());
            }
        }
        for &i in set {
            map[i] = map[anchor];
        }
        // Re-target edges; drop internal ones; merge parallel edges.
        let mut edges: Vec<WorkEdge> = Vec::with_capacity(self.edges.len());
        for e in &self.edges {
            let (s, d) = (map[e.src], map[e.dst]);
            if s == d && in_set(e.src) && in_set(e.dst) {
                continue; // internal
            }
            if let Some(existing) = edges.iter_mut().find(|x| x.src == s && x.dst == d) {
                existing.items += e.items;
                existing.back |= e.back;
            } else {
                edges.push(WorkEdge {
                    src: s,
                    dst: d,
                    items: e.items,
                    back: e.back,
                });
            }
        }
        (WorkGraph { nodes, edges }, map[anchor])
    }

    /// Fiss node `i` into `k` replicas behind a scatter/gather pair.
    ///
    /// Preconditions: the node is stateless and not sync/io.
    /// Non-peeking replicas each receive `items/k` input words; *peeking*
    /// replicas receive the **whole input stream** (the StreamIt
    /// implementation duplicates the input so every replica can form its
    /// sliding windows, then decimates) — this input duplication is the
    /// added communication cost of fissing peeking filters that the
    /// paper calls out.
    pub fn fiss(&self, i: usize, k: usize) -> WorkGraph {
        assert!(k >= 2);
        let n = &self.nodes[i];
        assert!(!n.stateful, "cannot fiss a stateful node");
        assert!(!n.sync && !n.io);
        let mut nodes = self.nodes.clone();
        let mut edges = self.edges.clone();

        // Scatter and gather sync nodes.
        let scatter = nodes.len();
        nodes.push(WorkNode {
            name: format!("{}/scatter", n.name),
            work: 0,
            flops: 0,
            stateful: false,
            peeking: false,
            sync: true,
            io: false,
            members: 0,
            peek_extra_items: 0,
        });
        let gather = nodes.len();
        nodes.push(WorkNode {
            name: format!("{}/gather", n.name),
            work: 0,
            flops: 0,
            stateful: false,
            peeking: false,
            sync: true,
            io: false,
            members: 0,
            peek_extra_items: 0,
        });

        let in_items: u64 = self
            .edges
            .iter()
            .filter(|e| e.dst == i)
            .map(|e| e.items)
            .sum();
        let out_items: u64 = self
            .edges
            .iter()
            .filter(|e| e.src == i)
            .map(|e| e.items)
            .sum();

        // Re-target original edges to the scatter/gather nodes.
        for e in &mut edges {
            if e.dst == i {
                e.dst = scatter;
            }
            if e.src == i {
                e.src = gather;
            }
        }

        // Replicas: replica 0 replaces node i; the rest are appended.
        let per_in = if n.peeking {
            in_items + n.peek_extra_items / k as u64
        } else {
            in_items / k as u64
        };
        let per_out = out_items / k as u64;
        let mk_replica = |idx: usize| WorkNode {
            name: format!("{}[{}of{}]", n.name, idx + 1, k),
            work: n.work / k as u64,
            flops: n.flops / k as u64,
            stateful: false,
            peeking: n.peeking,
            sync: false,
            io: false,
            members: n.members,
            peek_extra_items: n.peek_extra_items,
        };
        nodes[i] = mk_replica(0);
        edges.push(WorkEdge {
            src: scatter,
            dst: i,
            items: per_in,
            back: false,
        });
        edges.push(WorkEdge {
            src: i,
            dst: gather,
            items: per_out,
            back: false,
        });
        for r in 1..k {
            let id = nodes.len();
            nodes.push(mk_replica(r));
            edges.push(WorkEdge {
                src: scatter,
                dst: id,
                items: per_in,
                back: false,
            });
            edges.push(WorkEdge {
                src: id,
                dst: gather,
                items: per_out,
                back: false,
            });
        }
        WorkGraph { nodes, edges }
    }

    /// Contract away sync nodes that sit between exactly one producer
    /// and one consumer (degenerate splitters/joiners left by fusion),
    /// re-linking their edges.  Keeps the graph small for the simulator.
    pub fn simplify(&self) -> WorkGraph {
        let mut g = self.clone();
        loop {
            let target = (0..g.nodes.len()).find(|&i| {
                g.nodes[i].sync
                    && g.edges.iter().filter(|e| e.dst == i).count() == 1
                    && g.edges.iter().filter(|e| e.src == i).count() == 1
            });
            let Some(i) = target else { break };
            // The find above guarantees exactly one of each; bail rather
            // than panic if the graph mutates out from under us.
            let Some(pred_e) = g.edges.iter().position(|e| e.dst == i) else {
                break;
            };
            let Some(succ_e) = g.edges.iter().position(|e| e.src == i) else {
                break;
            };
            let src = g.edges[pred_e].src;
            let dst = g.edges[succ_e].dst;
            let items = g.edges[pred_e].items.max(g.edges[succ_e].items);
            if src == dst {
                break; // avoid creating self loops
            }
            // Remove node i and its edges; add the bridging edge.
            let mut nodes = Vec::with_capacity(g.nodes.len() - 1);
            let mut map = vec![usize::MAX; g.nodes.len()];
            for (j, n) in g.nodes.iter().enumerate() {
                if j != i {
                    map[j] = nodes.len();
                    nodes.push(n.clone());
                }
            }
            let back = g.edges[pred_e].back || g.edges[succ_e].back;
            let mut edges: Vec<WorkEdge> = Vec::with_capacity(g.edges.len() - 1);
            for (j, e) in g.edges.iter().enumerate() {
                if j == pred_e || j == succ_e {
                    continue;
                }
                edges.push(WorkEdge {
                    src: map[e.src],
                    dst: map[e.dst],
                    items: e.items,
                    back: e.back,
                });
            }
            let (s, d) = (map[src], map[dst]);
            if let Some(existing) = edges.iter_mut().find(|x| x.src == s && x.dst == d) {
                existing.items += items;
                existing.back |= back;
            } else {
                edges.push(WorkEdge {
                    src: s,
                    dst: d,
                    items,
                    back,
                });
            }
            g = WorkGraph { nodes, edges };
        }
        g
    }

    /// The maximum single-node work — the critical-path lower bound for
    /// pipelined execution.
    pub fn bottleneck(&self) -> u64 {
        self.nodes.iter().map(|n| n.work).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::{DataType, FlatGraph};

    fn work_filter(name: &str, loops: i64) -> streamit_graph::StreamNode {
        FilterBuilder::new(name, DataType::Float)
            .rates(1, 1, 1)
            .work(move |b| {
                b.let_("s", DataType::Float, pop())
                    .for_("i", 0, loops, |b| {
                        b.set("s", var("s") * lit(1.01) + lit(0.5))
                    })
                    .push(var("s"))
            })
            .build_node()
    }

    fn simple_wg() -> WorkGraph {
        let p = pipeline(
            "p",
            vec![
                work_filter("a", 10),
                work_filter("b", 20),
                work_filter("c", 10),
            ],
        );
        let g = FlatGraph::from_stream(&p);
        WorkGraph::from_flat(&g).unwrap()
    }

    #[test]
    fn from_flat_carries_work_and_items() {
        let wg = simple_wg();
        assert_eq!(wg.nodes.len(), 3);
        assert_eq!(wg.edges.len(), 2);
        assert!(wg.nodes[1].work > wg.nodes[0].work);
        assert_eq!(wg.edges[0].items, 1);
    }

    #[test]
    fn fuse_sums_work_and_drops_internal_edges() {
        let wg = simple_wg();
        let total = wg.total_work();
        let (fused, id) = wg.fuse(&[0, 1]);
        assert_eq!(fused.nodes.len(), 2);
        assert_eq!(fused.edges.len(), 1);
        assert_eq!(fused.total_work(), total);
        assert_eq!(fused.nodes[id].members, 2);
    }

    #[test]
    fn fuse_peeking_makes_stateful() {
        let peeker = FilterBuilder::new("pk", DataType::Float)
            .rates(3, 1, 1)
            .push(peek(2))
            .pop_discard()
            .build_node();
        let p = pipeline("p", vec![work_filter("a", 5), peeker]);
        let g = FlatGraph::from_stream(&p);
        let wg = WorkGraph::from_flat(&g).unwrap();
        assert!(!wg.nodes[1].stateful);
        let (fused, id) = wg.fuse(&[0, 1]);
        assert!(
            fused.nodes[id].stateful,
            "fused peeking region must be stateful"
        );
    }

    #[test]
    fn fiss_splits_work_and_adds_sync() {
        let wg = simple_wg();
        let fissed = wg.fiss(1, 4);
        // 3 original + 3 extra replicas + scatter + gather
        assert_eq!(fissed.nodes.len(), 8);
        let replicas: Vec<_> = fissed
            .nodes
            .iter()
            .filter(|n| n.name.contains("of4"))
            .collect();
        assert_eq!(replicas.len(), 4);
        let orig_work = wg.nodes[1].work;
        for r in &replicas {
            assert_eq!(r.work, orig_work / 4);
        }
        assert_eq!(
            fissed.nodes.iter().filter(|n| n.sync).count(),
            2,
            "scatter + gather"
        );
    }

    #[test]
    fn fiss_peeking_duplicates_input() {
        let peeker = FilterBuilder::new("pk", DataType::Float)
            .rates(5, 1, 1)
            .push(peek(4))
            .pop_discard()
            .build_node();
        let p = pipeline("p", vec![work_filter("a", 5), peeker, work_filter("c", 5)]);
        let g = FlatGraph::from_stream(&p);
        let wg = WorkGraph::from_flat(&g).unwrap();
        let idx = wg.nodes.iter().position(|n| n.peeking).unwrap();
        let fissed = wg.fiss(idx, 2);
        let scatter = fissed
            .nodes
            .iter()
            .position(|n| n.name.ends_with("/scatter"))
            .unwrap();
        for e in fissed.edges.iter().filter(|e| e.src == scatter) {
            // Full input stream (1 item/steady) duplicated to each
            // replica, plus the amortized window share (4 extra / 2).
            assert_eq!(e.items, 3);
        }
    }

    #[test]
    fn simplify_contracts_pass_through_sync() {
        let wg = simple_wg();
        let fissed = wg.fiss(1, 2);
        // scatter has 1 in, 2 out: stays.  Create a degenerate case by
        // fusing the two replicas back together.
        let reps: Vec<usize> = fissed
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name.contains("of2"))
            .map(|(i, _)| i)
            .collect();
        let (refused, _) = fissed.fuse(&reps);
        let simplified = refused.simplify();
        assert!(
            simplified.nodes.iter().filter(|n| n.sync).count() < 2,
            "degenerate scatter/gather contracted: {:?}",
            simplified.nodes.iter().map(|n| &n.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn topo_order_visits_everything_despite_cycles() {
        let mut wg = simple_wg();
        // add a feedback edge c -> a
        wg.edges.push(WorkEdge {
            src: 2,
            dst: 0,
            items: 1,
            back: true,
        });
        let order = wg.topo_order();
        assert_eq!(order.len(), 3);
    }
}
