//! Staged compilation: partition a (possibly fissed) flat graph into
//! software-pipeline stages and prove the staged schedule.
//!
//! The planner reuses the compiled engine's machinery wholesale —
//! bytecode lowering, init-sequence derivation, op emission, and the
//! count simulation — but lays tapes out per *stage* instead of per
//! split-join branch.  Stages are a contiguous partition of the
//! topological order (chosen by [`streamit_sched::pipeline_stage_partition`]
//! over the scheduler's work estimates), so every edge flows forward:
//! stage `s` only ever sends to stages `> s`, the stage DAG is acyclic,
//! and bounded channels with one round of headroom cannot deadlock.
//!
//! Each edge gets a *consumer tape* in the shard of the stage that pops
//! it.  A stage-crossing edge additionally gets a *staging tape* in the
//! producer's shard: the producer's ops push there, and at the end of
//! each iteration the staging tape drains into the edge's SPSC channel
//! in one published batch.  The consumer copies a full round's flow
//! from the channel into its consumer tape before running its ops, so
//! within a stage the ops see exactly the occupancies the serial count
//! simulation proved.  Initialization runs serially (no channels, all
//! shards in one slice) against the consumer layout.

use streamit_exec::bytecode::FilterCode;
use streamit_exec::driver::Schedule;
use streamit_exec::plan::{
    build_init, check_io_sites, firing_io, init_ops_from_seq, lower_graph, node_op, CountSim,
    Layout, Loc, LowerOptions, LoweredFilters, Op, Stats, TapeSpec,
};
use streamit_exec::LoweringCache;
use streamit_graph::{repetition_vector, steady_flows, DataType, FlatGraph, FlatNodeKind, NodeId};
use streamit_sched::{pipeline_stage_partition, WorkGraph};

/// Sentinel for "this external stream has no site in the graph".
/// Never equal to a real tape location (slot indices stop well short of
/// `u16::MAX`), so the count simulation and op emission simply never
/// match it.
pub const NO_EXT: Loc = Loc {
    shard: u16::MAX,
    slot: u16::MAX,
};

/// One stage-crossing edge: where the producer stages items, where the
/// consumer lands them, and how many cross per steady iteration.
#[derive(Debug, Clone)]
pub struct Link {
    pub src_stage: usize,
    pub dst_stage: usize,
    /// Staging tape in the producer's shard (drained into the channel
    /// once per iteration).
    pub staging: Loc,
    /// Consumer tape in the consumer's shard (filled from the channel
    /// once per iteration).
    pub dst: Loc,
    /// Items crossing per steady iteration.
    pub flow: u64,
    pub ty: DataType,
}

/// A staged firing plan: everything the parallel runtime needs.
#[derive(Debug, Clone)]
pub struct StagedPlan {
    pub codes: Vec<FilterCode>,
    pub input_ty: DataType,
    pub stats: Stats,
    /// Tape specs per stage shard (consumer tapes, staging tapes, and
    /// the external slots in their owning stages).
    pub tapes: Vec<Vec<TapeSpec>>,
    /// Frame code indices per stage shard.
    pub frames: Vec<Vec<u32>>,
    /// Serial initialization ops (consumer layout, run with base 0 over
    /// all shards before the workers start).
    pub init_ops: Vec<Op>,
    /// Steady-round ops per stage (stage layout: crossing out-edges
    /// write staging tapes).
    pub stage_ops: Vec<Vec<Op>>,
    pub links: Vec<Link>,
    /// External input tape location ([`NO_EXT`] when no node reads it).
    pub ext_in: Loc,
    /// External output tape location ([`NO_EXT`] when no node writes it).
    pub ext_out: Loc,
    /// Typed lowering notes (e.g. `L0701` dropped-kernel-hint warnings).
    pub notes: Vec<String>,
    /// Per flat-graph node id: the stage that runs it.
    pub stage_of_node: Vec<usize>,
}

impl StagedPlan {
    pub fn stages(&self) -> usize {
        self.stage_ops.len()
    }

    /// The driver's view of the serial phase: all shards from base 0,
    /// the initialization ops, and no steady ops (steady rounds run per
    /// stage, see [`StagedPlan::stage_schedule`]).
    pub fn schedule(&self) -> Schedule<'_> {
        Schedule {
            codes: &self.codes,
            tapes: &self.tapes,
            frames: &self.frames,
            input_ty: self.input_ty,
            stats: self.stats,
            ext_in: (self.ext_in != NO_EXT).then_some(self.ext_in),
            ext_out: (self.ext_out != NO_EXT).then_some(self.ext_out),
            init: &self.init_ops,
            pre: &[],
            branches: &[],
            post: &[],
            batch: None,
        }
    }

    /// The driver's view of stage `s`: its steady round, run ungated
    /// over its own shard (base `s`) between the worker's channel drain
    /// and publish.
    pub fn stage_schedule(&self, s: usize) -> Schedule<'_> {
        Schedule {
            init: &[],
            pre: &self.stage_ops[s],
            ..self.schedule()
        }
    }
}

/// The unique node reading the external input and the unique node
/// writing the external output, if any ([`check_io_sites`] has already
/// bounded each count at one).
fn ext_sites(g: &FlatGraph) -> (Option<NodeId>, Option<NodeId>) {
    let mut reader = None;
    let mut writer = None;
    for n in &g.nodes {
        let has_prework = matches!(&n.kind, FlatNodeKind::Filter(f) if f.prework.is_some());
        for first in [true, false] {
            if first && !has_prework {
                continue;
            }
            let (ins, outs) = firing_io(g, n.id, first);
            if ins.iter().any(|p| p.edge.is_none()) {
                reader = Some(n.id);
            }
            if outs.iter().any(|o| o.edge.is_none()) {
                writer = Some(n.id);
            }
        }
    }
    (reader, writer)
}

/// Build the staged plan, lowering filters through `cache`, or explain
/// why the graph cannot be staged.
pub fn build_staged_plan(
    g: &FlatGraph,
    input_ty: DataType,
    threads: usize,
    opts: LowerOptions,
    cache: &LoweringCache,
) -> Result<StagedPlan, String> {
    if g.edges.iter().any(|e| e.is_back_edge) {
        return Err("feedback loops require the single-core engines".into());
    }
    let reps = repetition_vector(g).map_err(|e| format!("no steady-state schedule: {e:?}"))?;
    let topo = g.topo_order();
    check_io_sites(g)?;
    let LoweredFilters {
        codes,
        code_of,
        notes,
    } = lower_graph(g, input_ty, opts, cache)?;
    let init_seq = build_init(g, &topo, &reps)?;
    let flows = steady_flows(g, &reps);

    // Contiguous stage partition of the topo order, balanced by the
    // scheduler's work estimates (sync nodes weigh ~nothing, so they
    // attach to whichever neighbour balances best).
    let wg = WorkGraph::from_flat(g).map_err(|e| format!("no steady-state schedule: {e:?}"))?;
    let loads: Vec<u64> = topo.iter().map(|&n| wg.nodes[n.0].work.max(1)).collect();
    let stage_of_topo = pipeline_stage_partition(&loads, threads.max(1));
    let n_stages = stage_of_topo.iter().max().map_or(1, |&m| m + 1);
    let mut stage_of = vec![0usize; g.nodes.len()];
    for (t, &node) in topo.iter().enumerate() {
        stage_of[node.0] = stage_of_topo[t];
    }
    if n_stages >= u16::MAX as usize {
        return Err("too many stages".into());
    }

    // Tape slots.  Per stage: external slots first (if owned), then
    // consumer tapes of in-coming edges, then staging tapes of crossing
    // out-going edges.
    let (reader, writer) = ext_sites(g);
    let mut tapes: Vec<Vec<TapeSpec>> = vec![Vec::new(); n_stages];
    let alloc =
        |tapes: &mut Vec<Vec<TapeSpec>>, stage: usize, spec: TapeSpec| -> Result<Loc, String> {
            let slot = tapes[stage].len();
            if slot >= (u16::MAX - 1) as usize {
                return Err("too many tapes".into());
            }
            tapes[stage].push(spec);
            Ok(Loc {
                shard: stage as u16,
                slot: slot as u16,
            })
        };
    let ext_in = match reader {
        Some(n) => alloc(
            &mut tapes,
            stage_of[n.0],
            TapeSpec {
                ty: input_ty,
                cap: 0,
                initial: Vec::new(),
            },
        )?,
        None => NO_EXT,
    };
    let ext_out = match writer {
        Some(n) => alloc(
            &mut tapes,
            stage_of[n.0],
            TapeSpec {
                ty: DataType::Float,
                cap: 0,
                initial: Vec::new(),
            },
        )?,
        None => NO_EXT,
    };
    // Per-stage fallback external slots: op emission wires a filter's
    // *declared* external port to the layout's ext loc even when its
    // rate is zero (so no items ever move), and a worker can only
    // address tapes in its own shard — every stage therefore needs an
    // addressable ext location, real or dummy.
    let mut ext_in_of = vec![NO_EXT; n_stages];
    let mut ext_out_of = vec![NO_EXT; n_stages];
    for s in 0..n_stages {
        ext_in_of[s] = if reader.is_some_and(|n| stage_of[n.0] == s) {
            ext_in
        } else {
            alloc(
                &mut tapes,
                s,
                TapeSpec {
                    ty: input_ty,
                    cap: 0,
                    initial: Vec::new(),
                },
            )?
        };
        ext_out_of[s] = if writer.is_some_and(|n| stage_of[n.0] == s) {
            ext_out
        } else {
            alloc(
                &mut tapes,
                s,
                TapeSpec {
                    ty: DataType::Float,
                    cap: 0,
                    initial: Vec::new(),
                },
            )?
        };
    }
    let mut consumer_loc = vec![NO_EXT; g.edges.len()];
    let mut staging_loc = vec![NO_EXT; g.edges.len()];
    for e in &g.edges {
        let (s_src, s_dst) = (stage_of[e.src.0], stage_of[e.dst.0]);
        if s_src > s_dst {
            return Err("edge flows against the stage order".into());
        }
        consumer_loc[e.id.0] = alloc(
            &mut tapes,
            s_dst,
            TapeSpec {
                ty: e.ty,
                cap: 0,
                initial: e.initial.clone(),
            },
        )?;
        if s_src < s_dst {
            staging_loc[e.id.0] = alloc(
                &mut tapes,
                s_src,
                TapeSpec {
                    ty: e.ty,
                    cap: flows[e.id.0],
                    initial: Vec::new(),
                },
            )?;
        }
    }

    // Frames live with their stage.
    let mut frames: Vec<Vec<u32>> = vec![Vec::new(); n_stages];
    let mut frame_loc = vec![None; g.nodes.len()];
    for n in &g.nodes {
        if let Some(code) = code_of[n.id.0] {
            let stage = stage_of[n.id.0];
            let slot = frames[stage].len();
            if slot >= u16::MAX as usize {
                return Err("too many frames".into());
            }
            frame_loc[n.id.0] = Some(Loc {
                shard: stage as u16,
                slot: slot as u16,
            });
            frames[stage].push(code);
        }
    }

    // Consumer layout: every edge at its consumer tape.  Used for the
    // serial init phase and for the proving simulation.
    let consumer_lay = Layout {
        edge_loc: consumer_loc.clone(),
        frame_loc: frame_loc.clone(),
        code_of: code_of.clone(),
        ext_in: if ext_in == NO_EXT {
            ext_in_of[0]
        } else {
            ext_in
        },
        ext_out: if ext_out == NO_EXT {
            ext_out_of[0]
        } else {
            ext_out
        },
    };
    let init_ops = init_ops_from_seq(g, &consumer_lay, &init_seq);
    let round_times = |node: NodeId| -> Result<u32, String> {
        u32::try_from(reps[node.0]).map_err(|_| "steady-state multiplicity too large".to_string())
    };
    // Simulation ops: the round in consumer layout, grouped by stage.
    // Stages are contiguous in topo order, so the concatenation is
    // exactly the serial engine's round — a valid execution order whose
    // occupancies bound the staged runtime's (producers run before
    // consumers in both).
    let mut sim_ops: Vec<Vec<Op>> = vec![Vec::new(); n_stages];
    for (t, &node) in topo.iter().enumerate() {
        if reps[node.0] == 0 {
            continue;
        }
        sim_ops[stage_of_topo[t]].extend(node_op(
            g,
            &consumer_lay,
            node,
            round_times(node)?,
            false,
        ));
    }
    // Stage layout: same, except a stage's crossing out-edges write its
    // staging tapes.
    let mut stage_ops: Vec<Vec<Op>> = vec![Vec::new(); n_stages];
    for s in 0..n_stages {
        let mut edge_loc = consumer_loc.clone();
        for e in &g.edges {
            if stage_of[e.src.0] == s && staging_loc[e.id.0] != NO_EXT {
                edge_loc[e.id.0] = staging_loc[e.id.0];
            }
        }
        let lay = Layout {
            edge_loc,
            frame_loc: frame_loc.clone(),
            code_of: code_of.clone(),
            ext_in: ext_in_of[s],
            ext_out: ext_out_of[s],
        };
        for (t, &node) in topo.iter().enumerate() {
            if stage_of_topo[t] != s || reps[node.0] == 0 {
                continue;
            }
            stage_ops[s].extend(node_op(g, &lay, node, round_times(node)?, false));
        }
    }

    // Count simulation: init once, then two identical steady rounds
    // (steadiness + reproducibility), sizing every consumer tape.
    let mut sim = CountSim::new(&tapes, consumer_lay.ext_in, consumer_lay.ext_out);
    sim.run(&init_ops, &codes, 1)?;
    let init_in = sim.ext_used;
    let init_in_required = sim.ext_req;
    let init_out = sim.ext_out;
    let snapshot = sim.occ.clone();
    let round = |sim: &mut CountSim| -> Result<(u64, u64, u64), String> {
        let (used0, out0) = (sim.ext_used, sim.ext_out);
        sim.round_base = sim.ext_used;
        sim.round_req = 0;
        for ops in &sim_ops {
            sim.run(ops, &codes, 1)?;
        }
        Ok((sim.ext_used - used0, sim.ext_out - out0, sim.round_req))
    };
    let (round_in, round_out, round_req) = round(&mut sim)?;
    if sim.occ != snapshot {
        return Err("round is not steady (occupancy drifts)".into());
    }
    let (in2, out2, req2) = round(&mut sim)?;
    if sim.occ != snapshot || in2 != round_in || out2 != round_out || req2 != round_req {
        return Err("round is not reproducible".into());
    }
    for e in &g.edges {
        let l = consumer_loc[e.id.0];
        tapes[l.shard as usize][l.slot as usize].cap = sim.maxo[l.shard as usize][l.slot as usize];
    }

    // Links for every crossing edge that actually carries items.
    let mut links = Vec::new();
    for e in &g.edges {
        if staging_loc[e.id.0] == NO_EXT || flows[e.id.0] == 0 {
            continue;
        }
        links.push(Link {
            src_stage: stage_of[e.src.0],
            dst_stage: stage_of[e.dst.0],
            staging: staging_loc[e.id.0],
            dst: consumer_loc[e.id.0],
            flow: flows[e.id.0],
            ty: e.ty,
        });
    }

    Ok(StagedPlan {
        codes,
        input_ty,
        stats: Stats {
            init_in,
            init_in_required,
            round_in,
            round_in_required: round_req,
            init_out,
            round_out,
        },
        tapes,
        frames,
        init_ops,
        stage_ops,
        links,
        ext_in,
        ext_out,
        notes,
        stage_of_node: stage_of,
    })
}
