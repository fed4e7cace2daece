//! The machine simulation proper.

use crate::layout::{place_tiles, Coord, Placement};
use std::collections::HashMap;
use streamit_sched::{ExecModel, MappedProgram};

/// Machine parameters (defaults model a 16-tile Raw-like chip at
/// 450 MHz with single-word register-mapped network links — the
/// configuration whose peak is the paper's 7200 MFLOPS).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    pub rows: usize,
    pub cols: usize,
    /// Clock in MHz (450 MHz × 16 tiles × 1 FLOP/cycle = 7200 MFLOPS).
    pub clock_mhz: f64,
    /// Cycles for a word to cross one link.
    pub hop_latency: u64,
    /// Cycles per word of link bandwidth (1 = one word per cycle).
    pub word_cycles: u64,
    /// Core cycles consumed per word sent (register-mapped network).
    pub send_occupancy: u64,
    /// Core cycles consumed per word received.
    pub recv_occupancy: u64,
    /// Fixed per-node dispatch overhead per steady state (firing loop,
    /// pointer setup).
    pub node_overhead: u64,
    /// Bandwidth of each DRAM port in word-cycles (like a link).
    pub port_word_cycles: u64,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            rows: 4,
            cols: 4,
            clock_mhz: 450.0,
            hop_latency: 1,
            word_cycles: 1,
            send_occupancy: 1,
            recv_occupancy: 1,
            node_overhead: 8,
            port_word_cycles: 1,
        }
    }
}

impl MachineConfig {
    /// The default chip resized to exactly `tiles` tiles, laid out on
    /// the factor pair nearest to a square (1 × `tiles` for a prime).
    pub fn with_tiles(tiles: usize) -> MachineConfig {
        let rows = (1..=tiles)
            .take_while(|r| r * r <= tiles)
            .filter(|r| tiles.is_multiple_of(*r))
            .last()
            .unwrap_or(1);
        MachineConfig {
            rows,
            cols: tiles / rows,
            ..MachineConfig::default()
        }
    }

    /// Tiles on the chip.
    pub fn n_tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Peak MFLOPS of the whole chip.
    pub fn peak_mflops(&self) -> f64 {
        self.clock_mhz * self.n_tiles() as f64
    }
}

/// Result of simulating one steady state.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Cycles per steady-state iteration (the throughput measure).
    pub cycles_per_steady: u64,
    /// Fraction of issue slots doing useful filter work.
    pub utilization: f64,
    /// Achieved MFLOPS at the configured clock.
    pub mflops: f64,
    /// Useful-work cycles per tile.
    pub tile_busy: Vec<u64>,
    /// Heaviest link load in word-cycles per steady state.
    pub max_link_load: u64,
    /// What bounded throughput: "compute", "network" or "path".
    pub bottleneck: &'static str,
}

impl SimResult {
    /// Throughput speedup of this result over a baseline.
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        baseline.cycles_per_steady as f64 / self.cycles_per_steady as f64
    }
}

/// Charge per-node core occupancies (work + dispatch + send/recv per
/// word) and return per-tile totals plus per-node durations.
fn core_costs(mp: &MappedProgram, cfg: &MachineConfig) -> (Vec<u64>, Vec<u64>) {
    let wg = &mp.wg;
    let mut duration = vec![0u64; wg.nodes.len()];
    for (i, n) in wg.nodes.iter().enumerate() {
        if mp.assignment[i].is_none() {
            continue;
        }
        // Splitters/joiners compile onto the switch processors on a
        // Raw-like machine: they cost no compute-core cycles (their
        // traffic still loads the links).
        if n.sync {
            continue;
        }
        let mut d = n.work + cfg.node_overhead;
        for e in wg.edges.iter().filter(|e| e.src == i) {
            d += e.items * cfg.send_occupancy;
        }
        for e in wg.edges.iter().filter(|e| e.dst == i) {
            d += e.items * cfg.recv_occupancy;
        }
        duration[i] = d;
    }
    let mut tile_total = vec![0u64; mp.n_tiles];
    for (i, t) in mp.assignment.iter().enumerate() {
        if let Some(t) = t {
            tile_total[*t] += duration[i];
        }
    }
    (tile_total, duration)
}

/// Per-link loads (word-cycles per steady state), including DRAM port
/// links for edges with an unmapped (I/O) endpoint.
fn link_loads(
    mp: &MappedProgram,
    placement: &Placement,
    cfg: &MachineConfig,
) -> HashMap<(Coord, Coord), u64> {
    let mut loads: HashMap<(Coord, Coord), u64> = HashMap::new();
    let mut add_route = |from: Coord, to: Coord, items: u64| {
        // Ad-hoc single-pair placement for routing between coords.
        let mut cur = from;
        while cur.col != to.col {
            let next = Coord {
                row: cur.row,
                col: if to.col > cur.col {
                    cur.col + 1
                } else {
                    cur.col - 1
                },
            };
            *loads.entry((cur, next)).or_insert(0) += items * cfg.word_cycles;
            cur = next;
        }
        while cur.row != to.row {
            let next = Coord {
                col: cur.col,
                row: if to.row > cur.row {
                    cur.row + 1
                } else {
                    cur.row - 1
                },
            };
            *loads.entry((cur, next)).or_insert(0) += items * cfg.word_cycles;
            cur = next;
        }
    };
    for e in &mp.wg.edges {
        match (mp.assignment[e.src], mp.assignment[e.dst]) {
            (Some(a), Some(b)) if a != b => {
                add_route(placement.coords[a], placement.coords[b], e.items);
            }
            (None, Some(b)) => {
                let port = placement.nearest_port(b);
                add_route(port, placement.coords[b], e.items * cfg.port_word_cycles);
            }
            (Some(a), None) => {
                let port = placement.nearest_port(a);
                add_route(placement.coords[a], port, e.items * cfg.port_word_cycles);
            }
            _ => {}
        }
    }
    loads
}

/// Simulate one steady state of a mapped program.
pub fn simulate(mp: &MappedProgram, cfg: &MachineConfig) -> SimResult {
    assert!(cfg.n_tiles() >= mp.n_tiles, "machine smaller than mapping");
    let placement = place_tiles(mp, cfg.rows, cfg.cols);
    let (tile_total, duration) = core_costs(mp, cfg);
    let loads = link_loads(mp, &placement, cfg);
    let max_link = loads.values().copied().max().unwrap_or(0);

    let cycles = match mp.model {
        ExecModel::Pipelined => {
            // Iterations overlap fully: throughput is bounded by the
            // busiest tile, the busiest link, and — crucially for
            // feedback loops — the *recurrence bound*: work on a cycle
            // of the graph cannot overlap across iterations (the recMII
            // of classical software pipelining).
            tile_total
                .iter()
                .copied()
                .max()
                .unwrap_or(0)
                .max(max_link)
                .max(recurrence_bound(mp, cfg, &duration))
        }
        ExecModel::Barrier => barrier_makespan(mp, &placement, cfg, &duration).max(max_link),
    }
    .max(1);

    let useful: u64 = mp
        .wg
        .nodes
        .iter()
        .enumerate()
        .filter(|(i, _)| mp.assignment[*i].is_some())
        .map(|(_, n)| n.work)
        .sum();
    let flops: u64 = mp.wg.nodes.iter().map(|n| n.flops).sum();
    let bottleneck = match mp.model {
        ExecModel::Pipelined if max_link >= tile_total.iter().copied().max().unwrap_or(0) => {
            "network"
        }
        ExecModel::Pipelined => "compute",
        ExecModel::Barrier => "path",
    };
    SimResult {
        cycles_per_steady: cycles,
        utilization: useful as f64 / (mp.n_tiles as f64 * cycles as f64),
        mflops: flops as f64 / cycles as f64 * cfg.clock_mhz,
        tile_busy: mp.wg.nodes.iter().enumerate().fold(
            vec![0u64; mp.n_tiles],
            |mut acc, (i, n)| {
                if let Some(t) = mp.assignment[i] {
                    acc[t] += n.work;
                }
                acc
            },
        ),
        max_link_load: max_link,
        bottleneck,
    }
}

/// Recurrence bound: for every strongly connected component of the work
/// graph (feedback loops), one iteration's work around the cycle must
/// complete before the next can use it, so throughput is bounded by the
/// total duration of the component (plus a hop per internal edge).
fn recurrence_bound(mp: &MappedProgram, cfg: &MachineConfig, duration: &[u64]) -> u64 {
    let n = mp.wg.nodes.len();
    // Tarjan's SCC, iterative.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut comp = vec![usize::MAX; n];
    let mut n_comp = 0usize;
    let succs: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            mp.wg
                .edges
                .iter()
                .filter(|e| e.src == i)
                .map(|e| e.dst)
                .collect()
        })
        .collect();
    #[allow(clippy::too_many_arguments)]
    fn strongconnect(
        v: usize,
        succs: &[Vec<usize>],
        index: &mut [usize],
        low: &mut [usize],
        on_stack: &mut [bool],
        stack: &mut Vec<usize>,
        next_index: &mut usize,
        comp: &mut [usize],
        n_comp: &mut usize,
    ) {
        // Explicit work stack to avoid deep recursion on long pipelines.
        let mut call: Vec<(usize, usize)> = vec![(v, 0)];
        while let Some(&mut (u, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[u] = *next_index;
                low[u] = *next_index;
                *next_index += 1;
                stack.push(u);
                on_stack[u] = true;
            }
            if *ci < succs[u].len() {
                let w = succs[u][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[u] = low[u].min(index[w]);
                }
            } else {
                if low[u] == index[u] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = *n_comp;
                        if w == u {
                            break;
                        }
                    }
                    *n_comp += 1;
                }
                let finished = u;
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[finished]);
                }
            }
        }
    }
    for v in 0..n {
        if index[v] == usize::MAX {
            strongconnect(
                v,
                &succs,
                &mut index,
                &mut low,
                &mut on_stack,
                &mut stack,
                &mut next_index,
                &mut comp,
                &mut n_comp,
            );
        }
    }
    // Sum durations per multi-node component, plus hop latency per
    // internal edge — but only for components carrying *genuine*
    // feedback (a `back` edge): fusion can create incidental cycles
    // through retained sync nodes, which impose no loop-carried
    // dependence.
    let mut comp_size = vec![0usize; n_comp];
    for v in 0..n {
        comp_size[comp[v]] += 1;
    }
    let mut has_back = vec![false; n_comp];
    for e in &mp.wg.edges {
        if comp[e.src] == comp[e.dst] && e.back {
            has_back[comp[e.src]] = true;
        }
    }
    let mut bound = vec![0u64; n_comp];
    for v in 0..n {
        let c = comp[v];
        if comp_size[c] > 1 && has_back[c] {
            bound[c] += duration[v];
        }
    }
    for e in &mp.wg.edges {
        let c = comp[e.src];
        if c == comp[e.dst] && comp_size[c] > 1 && has_back[c] {
            bound[c] += cfg.hop_latency;
        }
    }
    bound.into_iter().max().unwrap_or(0)
}

/// List-scheduled makespan of one barrier-separated iteration.
///
/// Transfers pay route latency plus wormhole serialization; sustained
/// link contention is bounded separately by the aggregate per-link load
/// (`simulate` takes the max), so parallel branches are not falsely
/// serialized by reservation order.
fn barrier_makespan(
    mp: &MappedProgram,
    placement: &Placement,
    cfg: &MachineConfig,
    duration: &[u64],
) -> u64 {
    let wg = &mp.wg;
    let n = wg.nodes.len();
    let mut finish = vec![0u64; n];
    let mut tile_free = vec![0u64; mp.n_tiles];
    let mut in_deg = vec![0usize; n];
    for e in &wg.edges {
        // Back edges carry the *previous* iteration's data (primed by
        // initPath), so they do not gate a firing within one iteration.
        if !e.back {
            in_deg[e.dst] += 1;
        }
    }
    // Earliest-ready list scheduling: among nodes whose predecessors have
    // finished, dispatch the one that can start soonest on its tile.
    // (A naive topological commit order serializes tiles badly: a tile
    // must not run a deep node before an independent shallow one.)
    let mut ready: Vec<usize> = (0..n).filter(|&i| in_deg[i] == 0).collect();
    let mut data_ready = vec![0u64; n];
    let mut scheduled = vec![false; n];
    let mut done = 0usize;
    while done < n {
        if ready.is_empty() {
            // An incidental cycle (created by fusion through a retained
            // sync node — not a real data dependence): force the stuck
            // node with the fewest unmet inputs.
            if let Some(stuck) = (0..n).filter(|&i| !scheduled[i]).min_by_key(|&i| in_deg[i]) {
                ready.push(stuck);
            } else {
                break;
            }
        }
        // Pick the ready node with the earliest feasible start.
        let Some((pos, &i)) = ready.iter().enumerate().min_by_key(|(_, &i)| {
            let start = match mp.assignment[i] {
                Some(t) => data_ready[i].max(tile_free[t]),
                None => data_ready[i],
            };
            (start, i)
        }) else {
            break;
        };
        ready.swap_remove(pos);
        debug_assert!(!scheduled[i]);
        scheduled[i] = true;
        done += 1;
        let t = mp.assignment[i];
        finish[i] = match t {
            Some(t) => {
                let start = data_ready[i].max(tile_free[t]);
                tile_free[t] = start + duration[i];
                tile_free[t]
            }
            // I/O endpoints have no core; they complete with their data.
            None => data_ready[i],
        };
        // Release successors.
        for e in wg.edges.iter().filter(|e| e.src == i) {
            let arrive = match (t, mp.assignment[e.dst]) {
                (Some(a), Some(b)) if a != b => {
                    transfer(finish[i], placement.hops(a, b), e.items, cfg)
                }
                (None, Some(b)) => {
                    let port = placement.nearest_port(b);
                    let hops = (port.row.abs_diff(placement.coords[b].row)
                        + port.col.abs_diff(placement.coords[b].col))
                        as u64;
                    transfer(finish[i], hops, e.items, cfg)
                }
                // Same tile or into an I/O sink: local buffer.
                _ => finish[i],
            };
            data_ready[e.dst] = data_ready[e.dst].max(arrive);
            if !e.back {
                in_deg[e.dst] = in_deg[e.dst].saturating_sub(1);
                if in_deg[e.dst] == 0 && !scheduled[e.dst] {
                    ready.push(e.dst);
                }
            }
        }
    }
    finish.into_iter().max().unwrap_or(0)
}

/// Arrival time of a wormhole block transfer: per-hop latency plus one
/// serialization of the block.
fn transfer(depart: u64, hops: u64, items: u64, cfg: &MachineConfig) -> u64 {
    depart + hops * cfg.hop_latency + items * cfg.word_cycles
}

/// Single-core baseline: the sequential StreamIt compilation — the
/// whole program fused onto one tile, channels scalar-replaced into
/// locals (no per-word buffer traffic), leaving the work itself plus
/// per-node dispatch.
pub fn simulate_single_core(wg: &streamit_sched::WorkGraph, cfg: &MachineConfig) -> SimResult {
    let work: u64 = wg.nodes.iter().filter(|n| !n.io).map(|n| n.work).sum();
    let flops: u64 = wg.nodes.iter().filter(|n| !n.io).map(|n| n.flops).sum();
    // One fused program: a single steady-state loop's dispatch overhead.
    // File endpoints stream through the DRAM ports in every
    // configuration and are excluded here exactly as `simulate`
    // excludes them from tile loads.
    let cycles = (work + cfg.node_overhead).max(1);
    SimResult {
        cycles_per_steady: cycles,
        utilization: work as f64 / cycles as f64,
        mflops: flops as f64 / cycles as f64 * cfg.clock_mhz,
        tile_busy: vec![work],
        max_link_load: 0,
        bottleneck: "compute",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_sched::workgraph::{WorkEdge, WorkGraph, WorkNode};
    use streamit_sched::{
        combined_partition, data_parallel_partition, software_pipeline, task_parallel_partition,
        Strategy,
    };

    fn node(name: &str, work: u64, stateful: bool) -> WorkNode {
        WorkNode {
            name: name.into(),
            work,
            flops: work / 2,
            stateful,
            peeking: false,
            sync: false,
            io: false,
            members: 1,
            peek_extra_items: 0,
        }
    }

    /// A balanced stateless pipeline of `n` nodes, `w` work each.
    fn chain(n: usize, w: u64) -> WorkGraph {
        WorkGraph {
            nodes: (0..n).map(|i| node(&format!("f{i}"), w, false)).collect(),
            edges: (1..n)
                .map(|i| WorkEdge {
                    src: i - 1,
                    dst: i,
                    items: 8,
                    back: false,
                })
                .collect(),
        }
    }

    #[test]
    fn single_core_counts_everything() {
        let wg = chain(4, 1000);
        let r = simulate_single_core(&wg, &MachineConfig::default());
        assert!(r.cycles_per_steady >= 4000);
        assert!(r.utilization > 0.9);
    }

    #[test]
    fn data_parallel_speedup_near_linear_for_coarse_work() {
        let cfg = MachineConfig::default();
        let wg = chain(4, 40_000);
        let base = simulate_single_core(&wg, &cfg);
        let mp = data_parallel_partition(&wg, 16);
        let r = simulate(&mp, &cfg);
        let speedup = r.speedup_over(&base);
        assert!(
            speedup > 10.0 && speedup <= 16.5,
            "speedup {speedup} out of expected band"
        );
    }

    #[test]
    fn task_parallel_limited_by_pipeline_depth() {
        let cfg = MachineConfig::default();
        let wg = chain(8, 10_000);
        let base = simulate_single_core(&wg, &cfg);
        let mp = task_parallel_partition(&wg, 16);
        let r = simulate(&mp, &cfg);
        // A pure pipeline has no task parallelism: barely any speedup.
        let speedup = r.speedup_over(&base);
        assert!(speedup < 1.5, "task speedup {speedup} should be tiny");
    }

    #[test]
    fn software_pipeline_overlaps_iterations() {
        let cfg = MachineConfig::default();
        let wg = chain(16, 10_000);
        let base = simulate_single_core(&wg, &cfg);
        let swp = simulate(&software_pipeline(&wg, 16), &cfg);
        let task = simulate(&task_parallel_partition(&wg, 16), &cfg);
        assert!(
            swp.speedup_over(&base) > 8.0,
            "swp speedup {}",
            swp.speedup_over(&base)
        );
        assert!(swp.cycles_per_steady * 4 < task.cycles_per_steady);
    }

    #[test]
    fn stateful_bottleneck_caps_data_parallelism() {
        let cfg = MachineConfig::default();
        let mut wg = chain(3, 5_000);
        wg.nodes[1] = node("state", 50_000, true);
        let base = simulate_single_core(&wg, &cfg);
        let mp = data_parallel_partition(&wg, 16);
        let r = simulate(&mp, &cfg);
        let speedup = r.speedup_over(&base);
        assert!(speedup < 2.0, "stateful speedup {speedup} must be capped");
    }

    #[test]
    fn combined_overlaps_multiple_stateful_stages() {
        // Two stateful stages: data parallelism alone serializes them
        // within each barrier iteration; adding software pipelining runs
        // them concurrently on different tiles (the paper's Vocoder
        // effect).
        let cfg = MachineConfig::default();
        let mut wg = chain(4, 2_000);
        wg.nodes[1] = node("state1", 25_000, true);
        wg.nodes[2] = node("state2", 25_000, true);
        let base = simulate_single_core(&wg, &cfg);
        let data = simulate(&data_parallel_partition(&wg, 16), &cfg);
        let comb = simulate(&combined_partition(&wg, 16), &cfg);
        let s_data = data.speedup_over(&base);
        let s_comb = comb.speedup_over(&base);
        assert!(
            s_comb > 1.5 * s_data,
            "combined {s_comb} should beat data-parallel {s_data} clearly"
        );
    }

    #[test]
    fn a_chip_of_n_tiles_has_n_tiles_on_the_squarest_grid() {
        for n in 1..=16 {
            let cfg = MachineConfig::with_tiles(n);
            assert_eq!(cfg.n_tiles(), n);
            assert!(cfg.rows <= cfg.cols, "{n}: {} × {}", cfg.rows, cfg.cols);
            // No factor pair of `n` is closer to square.
            let squarer = (cfg.rows + 1..=cfg.cols).any(|r| n.is_multiple_of(r) && r <= n / r);
            assert!(!squarer, "{n}: {} × {}", cfg.rows, cfg.cols);
        }
        let grid = |n| {
            let c = MachineConfig::with_tiles(n);
            (c.rows, c.cols)
        };
        assert_eq!(
            [grid(2), grid(3), grid(12), grid(16)],
            [(1, 2), (1, 3), (3, 4), (4, 4)]
        );
        assert_eq!(MachineConfig::with_tiles(16), MachineConfig::default());
    }

    #[test]
    fn contention_shows_up_for_chatty_graphs() {
        // Slow links (4 cycles/word) with bulk transfers: the network,
        // not the cores, must bound throughput.
        let cfg = MachineConfig {
            word_cycles: 4,
            ..MachineConfig::default()
        };
        let mut wg = chain(16, 10);
        for e in &mut wg.edges {
            e.items = 4096;
        }
        let mp = software_pipeline(&wg, 16);
        let r = simulate(&mp, &cfg);
        assert_eq!(r.bottleneck, "network");
        assert!(r.max_link_load >= 4 * 4096);
    }

    #[test]
    fn utilization_and_mflops_bounded() {
        let cfg = MachineConfig::default();
        let wg = chain(16, 20_000);
        let r = simulate(&software_pipeline(&wg, 16), &cfg);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
        assert!(r.mflops > 0.0 && r.mflops <= cfg.peak_mflops());
    }

    #[test]
    fn recurrence_bound_caps_pipelining_of_feedback() {
        // A 3-node loop marked with a genuine back edge: pipelined
        // throughput cannot beat the cycle's total duration.
        let cfg = MachineConfig::default();
        let mut wg = chain(3, 5_000);
        wg.edges.push(WorkEdge {
            src: 2,
            dst: 0,
            items: 1,
            back: true,
        });
        let mp = software_pipeline(&wg, 16);
        let r = simulate(&mp, &cfg);
        assert!(
            r.cycles_per_steady >= 15_000,
            "loop must serialize: {}",
            r.cycles_per_steady
        );
        // The identical graph with the cycle *not* marked as feedback
        // (an incidental fusion cycle) pipelines freely.
        let mut wg2 = wg.clone();
        wg2.edges.last_mut().unwrap().back = false;
        let mp2 = software_pipeline(&wg2, 16);
        let r2 = simulate(&mp2, &cfg);
        assert!(r2.cycles_per_steady < 8_000, "{}", r2.cycles_per_steady);
    }

    #[test]
    fn barrier_pays_dependence_stalls() {
        // Same graph, same tile spreading: honoring intra-iteration
        // dependences serializes the chain; pipelining overlaps it.
        let cfg = MachineConfig::default();
        let wg = chain(4, 10_000);
        let mut mp = software_pipeline(&wg, 16);
        let piped = simulate(&mp, &cfg);
        mp.model = ExecModel::Barrier;
        mp.strategy = Strategy::Task;
        let barrier = simulate(&mp, &cfg);
        assert!(
            barrier.cycles_per_steady > 3 * piped.cycles_per_steady,
            "barrier {} vs piped {}",
            barrier.cycles_per_steady,
            piped.cycles_per_steady
        );
    }
}
