//! # streamit-rt
//!
//! The multicore streaming runtime: the paper's three forms of
//! parallelism, executed on real threads instead of only scored by the
//! scheduler's cost model.
//!
//! Compilation ([`ParallelGraph::compile`]) proceeds in three layers:
//!
//! 1. **Graph transformation** (`transform`): maximal stateless
//!    non-peeking filter chains are treated as fused regions and fissed
//!    `W` ways behind weighted round-robin splitters/joiners — the
//!    paper's coarse-grained *data* parallelism, with degrees chosen by
//!    the same [`streamit_sched::coarse_fission_degrees`] heuristic the
//!    scheduler's cost model uses.
//! 2. **Cutting the compiled plan**: the transformed graph is planned by
//!    the compiled engine's one planner ([`streamit_exec::plan`]), and
//!    that plan's steady round — one op per node, in topological order
//!    — is cut into contiguous software-pipeline stages
//!    ([`streamit_sched::pipeline_stage_partition`] over the static work
//!    estimates, the cut's only cost input).  One relocation map moves
//!    every tape to the stage that pops it, with a staging tape where an
//!    earlier stage pushes it, and every frame to its op's stage.  The
//!    stages concatenated in order are the serial round, so the plan's
//!    count-simulation proof and capacities, batch included, cover them:
//!    nothing is planned or proved twice.
//! 3. **Pipelined execution** (`run`, `spsc`): one worker thread per
//!    stage over lock-free bounded SPSC channels with one batch publish
//!    per round — software pipelining with backpressure instead of
//!    barriers.  A round runs the plan's batch stride while a batch of
//!    iterations remains.  A run starts with the stages taking turns on
//!    the calling thread and gets its workers once it has outlasted what
//!    starting them costs; a run of one stage is the compiled engine's.
//!
//! The runtime accepts exactly the compiled engine's subset minus
//! feedback loops (a back edge would make a stage wait on a later
//! stage); everything else — including stateful pipelines, which still
//! get pipeline parallelism even though they cannot be fissed — runs
//! and stays *bit-identical* to the reference interpreter, because
//! fission preserves Kahn-network semantics and the stages run the
//! serial plan's ops.  Graphs outside the subset are declined with
//! [`ExecError::Unsupported`] and callers fall back to the serial
//! engines.

pub mod run;
pub mod spsc;
pub mod transform;

use streamit_exec::driver::{preload, read_output, Driver, Schedule};
use streamit_exec::engine::Shard;
pub use streamit_exec::plan::LowerOptions;
use streamit_exec::plan::{Batch, Loc, Op, Plan, TapeSpec, EXT_IN, EXT_OUT};
use streamit_exec::CompiledGraph;
pub use streamit_exec::{ExecError, FaultKind, FaultPlan, LoweringCache, StageSnapshot};
use streamit_graph::{DataType, FlatGraph};
use streamit_sched::{pipeline_stage_partition, WorkGraph};

pub use run::RunConfig;
pub use transform::FissedRegion;

/// One stage-crossing tape: where the producer stages items, where the
/// consumer lands them, and how many cross per steady iteration.
#[derive(Debug, Clone)]
pub(crate) struct Link {
    pub src_stage: usize,
    pub dst_stage: usize,
    /// Staging tape in the producer's shard (drained into the channel
    /// once per round).
    pub staging: Loc,
    /// The tape in the consumer's shard (filled from the channel once
    /// per round).
    pub dst: Loc,
    pub flow: u64,
    pub ty: DataType,
}

/// Where a cut puts one tape of the compiled plan.
#[derive(Debug, Clone, Copy)]
struct Placed {
    /// In the shard of the stage that pops it; of the stage that pushes
    /// it when none does (the external output); else of stage 0.
    at: Loc,
    /// A tape in the pushing stage's shard, when that is an earlier stage.
    staging: Option<Loc>,
}

/// A cut's one relocation map, indexed like the plan's tapes and frames.
#[derive(Debug, Clone)]
struct Relocation {
    tapes: Vec<Vec<Placed>>,
    frames: Vec<Vec<Loc>>,
}

impl Relocation {
    fn at(&self, l: Loc) -> Loc {
        self.tapes[l.shard as usize][l.slot as usize].at
    }

    /// Where stage `s`'s ops find tape `l`: its staging tape when `l`
    /// lives in a later stage.
    fn tape(&self, l: Loc, s: usize) -> Loc {
        let p = self.tapes[l.shard as usize][l.slot as usize];
        match p.staging {
            Some(staging) if p.at.shard as usize != s => staging,
            _ => p.at,
        }
    }

    fn frame(&self, l: Loc) -> Loc {
        self.frames[l.shard as usize][l.slot as usize]
    }
}

/// A compiled plan cut into pipeline stages: shard `s` holds stage
/// `s`'s tapes and frames.
#[derive(Debug, Clone)]
struct Stages {
    tapes: Vec<Vec<TapeSpec>>,
    frames: Vec<Vec<u32>>,
    /// The plan's initialization, run serially over all shards before
    /// they are dealt out.
    init_ops: Vec<Op>,
    /// The plan's steady round, stage by stage.
    ops: Vec<Vec<Op>>,
    links: Vec<Link>,
    batch: Option<Batch>,
    ext_in: Loc,
    ext_out: Loc,
}

/// Which stages move items on one tape of the plan, and how many an
/// iteration pushes.
#[derive(Debug, Clone, Copy, Default)]
struct TapeUse {
    pops: Option<usize>,
    pushes: Option<usize>,
    flow: u64,
}

/// Cut `plan`'s steady round into `n_stages` stages, op `i` going to
/// stage `op_stage[i]` (non-decreasing), and relocate everything the
/// ops name through one map, which comes back beside the stages.
fn cut(plan: &Plan, op_stage: &[usize], n_stages: usize) -> Result<(Stages, Relocation), String> {
    // The stages concatenated must be the plan's round, in its order.
    if op_stage.windows(2).any(|w| w[0] > w[1]) {
        return Err("the stages are not contiguous in the steady round".into());
    }
    // Per tape, who moves items on it; per frame, the stage of its op.
    let mut uses: Vec<Vec<TapeUse>> = (plan.tapes.iter())
        .map(|t| vec![TapeUse::default(); t.len()])
        .collect();
    let mut frame_stage: Vec<Vec<usize>> = plan.frames.iter().map(|f| vec![0; f.len()]).collect();
    for (op, &s) in plan.pre_ops.iter().zip(op_stage) {
        let (ins, outs) = op.io(&plan.codes)?;
        for (l, ..) in ins {
            uses[l.shard as usize][l.slot as usize].pops = Some(s);
        }
        for (l, push) in outs {
            let u = &mut uses[l.shard as usize][l.slot as usize];
            u.pushes = Some(s);
            u.flow += push * u64::from(op.times());
        }
        if let Op::Work { frame, .. } = op {
            frame_stage[frame.shard as usize][frame.slot as usize] = s;
        }
    }

    let mut tapes = vec![Vec::new(); n_stages];
    let mut caps = vec![Vec::new(); n_stages];
    let mut place = |s: usize, spec: TapeSpec, cap: u64| -> Result<Loc, String> {
        let slot = tapes[s].len();
        if slot >= u16::MAX as usize {
            return Err("too many tapes".to_string());
        }
        tapes[s].push(spec);
        caps[s].push(cap);
        Ok(Loc {
            shard: s as u16,
            slot: slot as u16,
        })
    };
    let k = plan.batch.as_ref().map_or(1, |b| u64::from(b.k));
    let mut links = Vec::new();
    let mut placed = Vec::new();
    for (shard, specs) in plan.tapes.iter().enumerate() {
        let mut row = Vec::with_capacity(specs.len());
        for (slot, spec) in specs.iter().enumerate() {
            let TapeUse { pops, pushes, flow } = uses[shard][slot];
            let home = pops.or(pushes).unwrap_or(0);
            let batch_cap = plan.batch.as_ref().map(|b| b.caps[shard][slot]);
            let at = place(home, spec.clone(), batch_cap.unwrap_or(spec.cap))?;
            let staging = match pushes {
                Some(p) if p > home => return Err("a tape flows against the stage order".into()),
                Some(p) if p < home => {
                    let ty = spec.ty;
                    let one_round = TapeSpec {
                        ty,
                        cap: flow,
                        initial: Vec::new(),
                    };
                    let staging = place(p, one_round, flow * k)?;
                    links.push(Link {
                        src_stage: p,
                        dst_stage: home,
                        staging,
                        dst: at,
                        flow,
                        ty,
                    });
                    Some(staging)
                }
                _ => None,
            };
            row.push(Placed { at, staging });
        }
        placed.push(row);
    }
    let mut frames = vec![Vec::new(); n_stages];
    let frame_at = plan.frames.iter().zip(&frame_stage).map(|(codes, stage)| {
        let row = codes.iter().zip(stage).map(|(&code, &s)| {
            frames[s].push(code);
            let slot = (frames[s].len() - 1) as u16;
            Loc {
                shard: s as u16,
                slot,
            }
        });
        row.collect()
    });
    let reloc = Relocation {
        tapes: placed,
        frames: frame_at.collect(),
    };

    let mut ops = vec![Vec::new(); n_stages];
    for (op, &s) in plan.pre_ops.iter().zip(op_stage) {
        ops[s].push(op.relocated(|l| reloc.tape(l, s), |f| reloc.frame(f)));
    }
    let init = plan.init_ops.iter();
    let init_ops = init.map(|op| op.relocated(|l| reloc.at(l), |f| reloc.frame(f)));
    let stages = Stages {
        tapes,
        frames,
        init_ops: init_ops.collect(),
        ops,
        links,
        batch: plan.batch.as_ref().map(|b| Batch {
            k: b.k,
            round_in_required: b.round_in_required,
            caps,
        }),
        ext_in: reloc.at(EXT_IN),
        ext_out: reloc.at(EXT_OUT),
    };
    Ok((stages, reloc))
}

/// Plan `g` with the compiled engine's planner and cut the plan into
/// the stages of a `threads`-way software pipeline.
fn plan_stages(
    g: &FlatGraph,
    ty: DataType,
    threads: usize,
    opts: LowerOptions,
    cache: &LoweringCache,
) -> Result<(CompiledGraph, Stages), ExecError> {
    let graph = CompiledGraph::compile_cached(g, Some(ty), opts, cache)?;
    let unsupported = |reason: String| ExecError::Unsupported { reason };
    // Contiguous stage partition of the topo order, balanced by the
    // scheduler's work estimates (sync nodes weigh ~nothing, so they
    // attach to whichever neighbour balances best).
    let wg = WorkGraph::from_flat(g)
        .map_err(|e| unsupported(format!("no steady-state schedule: {e:?}")))?;
    let topo = g.topo_order();
    let loads: Vec<u64> = topo.iter().map(|&n| wg.nodes[n.0].work.max(1)).collect();
    let stage_of_topo = pipeline_stage_partition(&loads, threads.max(1));
    let n_stages = stage_of_topo.iter().max().map_or(1, |&m| m + 1);
    if n_stages >= u16::MAX as usize {
        return Err(unsupported("too many stages".into()));
    }
    let mut stage_of = vec![0; g.nodes.len()];
    for (&node, &s) in topo.iter().zip(&stage_of_topo) {
        stage_of[node.0] = s;
    }
    let nodes = &graph.plan().steady_nodes;
    let op_stage: Vec<usize> = nodes.iter().map(|n| stage_of[n.0]).collect();
    let (stages, _) = cut(graph.plan(), &op_stage, n_stages).map_err(unsupported)?;
    Ok((graph, stages))
}

/// A graph compiled for the multicore runtime.  Immutable and
/// shareable: every run materializes its own shards and channels.
#[derive(Debug, Clone)]
pub struct ParallelGraph {
    /// The compiled engine's plan of the graph this runs (after
    /// fission, if fission took).
    graph: CompiledGraph,
    stages: Stages,
    threads: usize,
    regions: Vec<FissedRegion>,
}

impl ParallelGraph {
    /// Compile a flat graph for `threads` worker threads (`0` =
    /// auto-detect the host's available parallelism).  `input_ty` is
    /// the external input element type (defaults to `Float`, like the
    /// serial engines).
    pub fn compile(
        g: &FlatGraph,
        input_ty: Option<DataType>,
        threads: usize,
    ) -> Result<ParallelGraph, ExecError> {
        ParallelGraph::compile_with(g, input_ty, threads, LowerOptions::default())
    }

    /// [`ParallelGraph::compile`] with explicit lowering options
    /// (opt level 0 disables the analysis mid-end optimizer).
    pub fn compile_with(
        g: &FlatGraph,
        input_ty: Option<DataType>,
        threads: usize,
        opts: LowerOptions,
    ) -> Result<ParallelGraph, ExecError> {
        ParallelGraph::compile_cached(g, input_ty, threads, opts, &LoweringCache::default())
    }

    /// [`ParallelGraph::compile_with`] lowering through `cache`, which
    /// the fissed attempt and the untransformed retry share: a replica
    /// is its original's body, so fission adds no lowering, and a body
    /// the cache already holds (from the compiled engine, say) is not
    /// lowered again.
    pub fn compile_cached(
        g: &FlatGraph,
        input_ty: Option<DataType>,
        threads: usize,
        opts: LowerOptions,
        cache: &LoweringCache,
    ) -> Result<ParallelGraph, ExecError> {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        let ty = input_ty.unwrap_or(DataType::Float);
        if g.edges.iter().any(|e| e.is_back_edge) {
            return Err(ExecError::Unsupported {
                reason: "feedback loops require the single-core engines".into(),
            });
        }
        let (fissed, regions) = transform::fiss_graph(g, threads);
        let (graph, stages, regions) = match plan_stages(&fissed, ty, threads, opts, cache) {
            Ok((graph, stages)) => (graph, stages, regions),
            // The transform can push a graph over a planner limit (tape
            // counts, init priming); retry untransformed before giving
            // up so fission is never the reason a graph is declined.
            Err(first) => match plan_stages(g, ty, threads, opts, cache) {
                Ok((graph, stages)) => (graph, stages, Vec::new()),
                Err(_) => return Err(first),
            },
        };
        Ok(ParallelGraph {
            graph,
            stages,
            threads,
            regions,
        })
    }

    /// Typed lowering notes (e.g. `L0701` dropped-kernel-hint warnings)
    /// produced while compiling this graph.
    pub fn notes(&self) -> &[String] {
        self.graph.notes()
    }

    /// Worker threads the plan was built for (stage count may be lower).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pipeline stages (= worker threads actually spawned).
    pub fn stages(&self) -> usize {
        self.stages.ops.len()
    }

    /// Which regions the fission transform replicated, and how wide.
    pub fn fission_report(&self) -> &[FissedRegion] {
        &self.regions
    }

    /// The compiled plan the stages are cut from (for inspection and
    /// tests).
    pub fn plan(&self) -> &Plan {
        self.graph.plan()
    }

    /// How many filters in the plan run a native linear/frequency
    /// kernel instead of their bytecode.
    pub fn kernel_filters(&self) -> usize {
        self.graph.kernel_filters()
    }

    /// External input items needed to run `k` steady iterations.
    pub fn required_input(&self, k: u64) -> u64 {
        self.graph.required_input(k)
    }

    /// External output items produced by the initialization phase.
    pub fn init_outputs(&self) -> u64 {
        self.graph.init_outputs()
    }

    /// External output items produced per steady iteration.
    pub fn outputs_per_iteration(&self) -> u64 {
        self.graph.outputs_per_iteration()
    }

    /// [`ParallelGraph::run`] with the default (bare) [`RunConfig`].
    pub fn run_steady(&self, input: &[f64], k: u64) -> Result<Vec<f64>, ExecError> {
        self.run(input, k, &RunConfig::default())
    }

    /// Run enough steady iterations to produce at least `n` output
    /// items, returning exactly the first `n` (the deterministic prefix
    /// shared with the serial engines).
    pub fn run_collect(&self, input: &[f64], n: usize) -> Result<Vec<f64>, ExecError> {
        let k = self.plan().stats.iterations_for(n as u64)?;
        let mut out = self.run_steady(input, k)?;
        out.truncate(n);
        Ok(out)
    }

    /// The driver's view of the whole run: every shard from base 0 and
    /// the initialization ops; the steady ops run per stage
    /// ([`ParallelGraph::stage_schedule`]).
    fn schedule(&self) -> Schedule<'_> {
        let st = &self.stages;
        Schedule {
            tapes: &st.tapes,
            frames: &st.frames,
            ext_in: Some(st.ext_in),
            ext_out: Some(st.ext_out),
            init: &st.init_ops,
            steady: &[],
            batch: st.batch.as_ref(),
            ..self.plan().schedule()
        }
    }

    /// The driver's view of stage `s`: its steady ops, run ungated over
    /// its own shard (base `s`) between the stage's drain and publish.
    pub(crate) fn stage_schedule(&self, s: usize) -> Schedule<'_> {
        Schedule {
            ext_in: None,
            ext_out: None,
            init: &[],
            steady: &self.stages.ops[s],
            ..self.schedule()
        }
    }

    pub(crate) fn links(&self) -> &[Link] {
        &self.stages.links
    }

    /// The runtime's one configured run: initialization plus `k` steady
    /// iterations under `cfg`'s watchdog and fault plan.
    ///
    /// A bare run (the default [`RunConfig`]) of one stage is the
    /// compiled engine's run ([`CompiledGraph::run`]).  A bare run of
    /// several starts on the calling thread, its stages taking turns
    /// (`run::run_inline`), and starts workers only if it is still going
    /// after `run::INLINE_BUDGET`: a run shorter than that is over before
    /// two workers could have been started and joined, and a longer one
    /// loses at most that much overlap.  Supervised and fault-injected
    /// runs are about the workers and get them from the first iteration.
    /// Every round's size is `driver::round_size`'s: the plan's batch
    /// stride while a batch of iterations remains and no injected fault
    /// falls strictly inside it.
    pub fn run(&self, input: &[f64], k: u64, cfg: &RunConfig) -> Result<Vec<f64>, ExecError> {
        self.run_budgeted(input, k, cfg, run::INLINE_BUDGET)
    }

    /// [`ParallelGraph::run`] with the inline budget as a parameter, so
    /// that tests can put the hand-over to the workers where they want.
    fn run_budgeted(
        &self,
        input: &[f64],
        k: u64,
        cfg: &RunConfig,
        inline_budget: std::time::Duration,
    ) -> Result<Vec<f64>, ExecError> {
        let bare = (cfg.watchdog, cfg.fault) == (None, None);
        if bare && self.stages() == 1 {
            return self.graph.run_steady(input, k);
        }
        let mut shards = self.initialized(input, k)?;
        let mut done = 0u64;
        if bare {
            (shards, done) = run::run_inline(self, shards, k, inline_budget)?;
        }
        if done < k {
            shards = run::run_pipelined(self, shards, k - done, cfg)?;
        }
        read_output(&shards, self.schedule().ext_out)
    }

    /// The shards of a `k`-iteration run over `input`, initialized.
    fn initialized(&self, input: &[f64], k: u64) -> Result<Vec<Shard>, ExecError> {
        let sched = self.schedule();
        let mut init = Driver::new(preload(&sched, input, k)?, 0, "initialization", None, None);
        init.drive(&sched, 0)?;
        Ok(init.into_parts().0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use streamit_graph::builder::*;
    use streamit_graph::Value;

    fn counter_source(name: &str) -> streamit_graph::StreamNode {
        FilterBuilder::source(name, DataType::Int)
            .rates(0, 0, 1)
            .state("i", DataType::Int, Value::Int(0))
            .work(|b| b.push(var("i")).set("i", var("i") + lit(1i64)))
            .build_node()
    }

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

    fn compare_engines(s: &streamit_graph::StreamNode, threads: usize, k: u64) {
        let g = FlatGraph::from_stream(s);
        let cg = CompiledGraph::compile(&g, None).expect("serial engine accepts");
        let pg = ParallelGraph::compile(&g, None, threads).expect("parallel engine accepts");
        // The transformed graph may have a different steady-state size;
        // compare equal-length output prefixes instead of iterations.
        let n = (cg.init_outputs() + k * cg.outputs_per_iteration()) as usize;
        let need =
            cg.required_input(k)
                .max(pg.required_input(if pg.outputs_per_iteration() == 0 {
                    0
                } else {
                    (n as u64).div_ceil(pg.outputs_per_iteration())
                }));
        let input: Vec<f64> = (0..need).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
        let serial = cg.run_collect(&input, n).expect("serial runs");
        let par = pg.run_collect(&input, n).expect("parallel runs");
        let sb: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let pb: Vec<u64> = par.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, pb, "engines disagree at {threads} threads");
        // Wherever the run leaves the calling thread for the workers, the
        // items are the same: never, after one round, before the first.
        let kp = pg
            .plan()
            .stats
            .iterations_for(n as u64)
            .expect("iterations");
        let bare = RunConfig::default();
        let supervised = RunConfig {
            watchdog: Some(Duration::from_secs(60)),
            ..bare
        };
        for (what, cfg, budget) in [
            ("inline throughout", &bare, Duration::MAX),
            ("workers after one inline round", &bare, Duration::ZERO),
            ("workers from the start", &supervised, Duration::MAX),
        ] {
            let mut out = pg.run_budgeted(&input, kp, cfg, budget).expect(what);
            out.truncate(n);
            let ob: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(sb, ob, "{what} disagrees at {threads} threads");
        }
    }

    #[test]
    fn pipeline_is_bit_identical_across_thread_counts() {
        let s = pipeline(
            "p",
            vec![
                counter_source("src"),
                heavy("h1"),
                heavy("h2"),
                FilterBuilder::new("x2", DataType::Int)
                    .rates(1, 1, 1)
                    .work(|b| b.push(pop() * lit(2i64)))
                    .build_node(),
            ],
        );
        for threads in [1, 2, 4] {
            compare_engines(&s, threads, 8);
        }
    }

    #[test]
    fn stateful_pipeline_still_gets_pipeline_parallelism() {
        // A stateful accumulator cannot be fissed but can be staged.
        let acc = FilterBuilder::new("acc", DataType::Int)
            .rates(1, 1, 1)
            .state("a", DataType::Int, Value::Int(0))
            .work(|b| b.set("a", var("a") + pop()).push(var("a")))
            .build_node();
        let s = pipeline("p", vec![counter_source("src"), heavy("h"), acc]);
        for threads in [1, 2, 4] {
            compare_engines(&s, threads, 6);
        }
        let g = FlatGraph::from_stream(&s);
        let pg = ParallelGraph::compile(&g, None, 4).expect("accepts");
        assert!(pg.stages() >= 1);
    }

    #[test]
    fn splitjoin_graphs_run_pipelined() {
        let branch = |name: &str, k: i64| {
            FilterBuilder::new(name, DataType::Int)
                .rates(1, 1, 1)
                .work(move |b| b.push(pop() * lit(k)))
                .build_node()
        };
        let s = pipeline(
            "p",
            vec![
                counter_source("src"),
                splitjoin(
                    "sj",
                    streamit_graph::Splitter::Duplicate,
                    vec![branch("a", 3), branch("b", 5)],
                    streamit_graph::Joiner::round_robin(2),
                ),
            ],
        );
        for threads in [1, 2, 4] {
            compare_engines(&s, threads, 8);
        }
    }

    #[test]
    fn a_declared_input_read_at_rate_zero_runs_on_every_engine() {
        // The head filter declares an input and reads none of it: its op
        // names no tape, so no stage needs one to address.
        let gen = FilterBuilder::new("gen", DataType::Int)
            .rates(0, 0, 1)
            .state("i", DataType::Int, Value::Int(0))
            .work(|b| b.push(var("i")).set("i", var("i") + lit(1i64)))
            .build_node();
        let s = pipeline("p", vec![gen, heavy("h")]);
        for threads in [1, 2, 4] {
            compare_engines(&s, threads, 40);
        }
        let pg = ParallelGraph::compile(&FlatGraph::from_stream(&s), None, 2).expect("accepts");
        assert_eq!(pg.stages(), 2);
    }

    /// The apps the runtime accepts, compiled for `threads` workers.
    fn apps(threads: usize) -> Vec<(&'static str, ParallelGraph)> {
        let compile = |app: &streamit_apps::CorpusApp| {
            let s = app.graph();
            let pg = ParallelGraph::compile(&FlatGraph::from_stream(&s), s.input_type(), threads);
            pg.ok().map(|pg| (app.name, pg))
        };
        let apps: Vec<_> = streamit_apps::corpus().iter().filter_map(compile).collect();
        assert!(apps.len() >= 13, "only {} apps compile", apps.len());
        apps
    }

    #[test]
    fn stages_concatenated_are_the_compiled_round() {
        use std::collections::HashMap;
        for threads in [1, 2, 4] {
            for (name, pg) in apps(threads) {
                let (plan, stages) = (pg.plan(), &pg.stages);
                let op_stage: Vec<usize> = (stages.ops.iter().enumerate())
                    .flat_map(|(s, ops)| vec![s; ops.len()])
                    .collect();
                let (again, reloc) = cut(plan, &op_stage, pg.stages()).expect("cuts");
                assert_eq!(again.ops, stages.ops, "{name}");
                // Map every stage's tapes and frames back to the plan's:
                // one plan tape per stage tape, one frame per frame.
                let mut tape_of = HashMap::new();
                let mut frame_of = HashMap::new();
                for (shard, row) in reloc.tapes.iter().enumerate() {
                    for (slot, p) in row.iter().enumerate() {
                        let old = Loc {
                            shard: shard as u16,
                            slot: slot as u16,
                        };
                        for new in std::iter::once(p.at).chain(p.staging) {
                            assert_eq!(tape_of.insert(new, old), None, "{name}: {new:?}");
                        }
                    }
                }
                for (shard, row) in reloc.frames.iter().enumerate() {
                    for (slot, &new) in row.iter().enumerate() {
                        let old = Loc {
                            shard: shard as u16,
                            slot: slot as u16,
                        };
                        assert_eq!(frame_of.insert(new, old), None, "{name}: {new:?}");
                    }
                }
                let back = |op: &Op| op.relocated(|l| tape_of[&l], |f| frame_of[&f]);
                let mut round = Vec::new();
                for (s, ops) in stages.ops.iter().enumerate() {
                    for op in ops {
                        let own = |l: Loc| {
                            assert_eq!(l.shard as usize, s, "{name}@{threads}: {op:?}");
                            l
                        };
                        op.relocated(own, own);
                        round.push(back(op));
                    }
                }
                assert_eq!(round, plan.pre_ops, "{name} at {threads} threads");
                let init: Vec<Op> = stages.init_ops.iter().map(back).collect();
                assert_eq!(init, plan.init_ops, "{name} at {threads} threads");
                for l in &stages.links {
                    assert!(l.src_stage < l.dst_stage, "{name}: {l:?}");
                    assert_eq!(l.staging.shard as usize, l.src_stage, "{name}: {l:?}");
                    assert_eq!(l.dst.shard as usize, l.dst_stage, "{name}: {l:?}");
                }
            }
        }
    }

    #[test]
    fn batched_stage_rounds_match_the_compiled_engine() {
        let bare = RunConfig::default();
        let supervised = RunConfig {
            watchdog: Some(Duration::from_secs(60)),
            ..bare
        };
        let bits = |out: Vec<f64>| out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        for threads in [1, 2, 4] {
            let mut scaled = 0;
            for (name, pg) in apps(threads) {
                let b = pg.plan().batch.as_ref().map_or(1, |b| u64::from(b.k));
                scaled += usize::from(b > 1);
                for k in [b - 1, b, b + 1, 2 * b + 3] {
                    let n = pg.required_input(k);
                    let input: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64 - 50.0).collect();
                    let want = bits(pg.graph.run_steady(&input, k).expect("serial runs"));
                    for (what, cfg, budget) in [
                        ("inline throughout", &bare, Duration::MAX),
                        ("workers after one inline round", &bare, Duration::ZERO),
                        ("workers from the start", &supervised, Duration::MAX),
                    ] {
                        let got = pg.run_budgeted(&input, k, cfg, budget).expect(what);
                        assert!(
                            want == bits(got),
                            "{name} at {threads} threads, {k} iterations: {what} disagrees"
                        );
                    }
                }
            }
            assert!(
                scaled >= 12,
                "{scaled} apps take a scaled round at {threads} threads"
            );
        }
    }

    #[test]
    fn feedback_loops_are_declined() {
        let lp = feedback_loop(
            "loop",
            streamit_graph::Joiner::RoundRobin(vec![0, 1]),
            FilterBuilder::new("adder", DataType::Int)
                .rates(2, 1, 1)
                .work(|b| b.push(peek(lit(0i64)) + peek(lit(1i64))).pop_discard())
                .build_node(),
            streamit_graph::Splitter::Duplicate,
            identity("lb", DataType::Int),
            2,
            |i| Value::Int(i as i64),
        );
        let g = FlatGraph::from_stream(&lp);
        match ParallelGraph::compile(&g, Some(DataType::Int), 2) {
            Err(ExecError::Unsupported { reason }) => {
                assert!(reason.contains("feedback"), "reason: {reason}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn starvation_is_reported() {
        let f = FilterBuilder::new("id", DataType::Float)
            .rates(1, 1, 1)
            .work(|b| b.push(pop()))
            .build_node();
        let g = FlatGraph::from_stream(&f);
        let pg = ParallelGraph::compile(&g, None, 2).expect("accepts");
        match pg.run_steady(&[1.0], 3) {
            Err(ExecError::Starved { needed: 3, have: 1 }) => {}
            other => panic!("expected Starved, got {other:?}"),
        }
    }

    // ---- supervision -----------------------------------------------

    pub(crate) fn staged_pipeline() -> streamit_graph::StreamNode {
        // Two heavy stages so the planner cuts at least two pipeline
        // stages at 2 threads.
        pipeline("p", vec![counter_source("src"), heavy("h1"), heavy("h2")])
    }

    #[test]
    fn injected_worker_panic_is_caught_and_attributed() {
        let g = FlatGraph::from_stream(&staged_pipeline());
        let pg = ParallelGraph::compile(&g, None, 2).expect("accepts");
        let cfg = RunConfig {
            watchdog: None,
            fault: Some("panic@0:1".parse().expect("parses")),
        };
        match pg.run(&[], 6, &cfg) {
            Err(ExecError::WorkerPanic { stage, payload }) => {
                assert_eq!(stage, "stage 0");
                assert!(
                    payload.contains("injected fault: worker panic at stage 0 iteration 1"),
                    "payload: {payload}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn injected_stall_trips_the_watchdog_with_a_snapshot() {
        let g = FlatGraph::from_stream(&staged_pipeline());
        let pg = ParallelGraph::compile(&g, None, 2).expect("accepts");
        let stages = pg.stages();
        let cfg = RunConfig {
            watchdog: Some(std::time::Duration::from_millis(100)),
            fault: Some("stall@0:1".parse().expect("parses")),
        };
        match pg.run(&[], 64, &cfg) {
            Err(ExecError::Stalled {
                deadline_ms,
                stages: snap,
            }) => {
                assert_eq!(deadline_ms, 100);
                assert_eq!(snap.len(), stages);
                assert!(
                    snap[0].state.contains("stalled (injected fault)"),
                    "snapshot: {snap:?}"
                );
                assert_eq!(snap[0].iterations, 1, "stage 0 completed one iteration");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn injected_delay_keeps_output_bit_identical() {
        let g = FlatGraph::from_stream(&staged_pipeline());
        let pg = ParallelGraph::compile(&g, None, 2).expect("accepts");
        let clean = pg.run_steady(&[], 6).expect("runs");
        let mut fault: FaultPlan = "delay@0:2".parse().expect("parses");
        fault.delay_ms = 20;
        let cfg = RunConfig {
            watchdog: Some(std::time::Duration::from_millis(5000)),
            fault: Some(fault),
        };
        let delayed = pg.run(&[], 6, &cfg).expect("runs");
        let cb: Vec<u64> = clean.iter().map(|v| v.to_bits()).collect();
        let db: Vec<u64> = delayed.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cb, db, "a slow producer must not corrupt the stream");
    }

    #[test]
    fn watchdog_is_zero_interference_on_the_happy_path() {
        let g = FlatGraph::from_stream(&staged_pipeline());
        let pg = ParallelGraph::compile(&g, None, 2).expect("accepts");
        let clean = pg.run_steady(&[], 8).expect("runs");
        let cfg = RunConfig {
            watchdog: Some(std::time::Duration::from_millis(5000)),
            fault: None,
        };
        let watched = pg.run(&[], 8, &cfg).expect("runs");
        let cb: Vec<u64> = clean.iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u64> = watched.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cb, wb);
    }

    #[test]
    fn single_stage_plans_are_supervisable() {
        // A one-stage plan is one worker and no links: supervised like
        // any other (an injected stall needs a watchdog to be detected
        // at all).
        let f = FilterBuilder::new("id", DataType::Float)
            .rates(1, 1, 1)
            .work(|b| b.push(pop()))
            .build_node();
        let g = FlatGraph::from_stream(&f);
        let pg = ParallelGraph::compile(&g, None, 1).expect("accepts");
        assert_eq!(pg.stages(), 1);
        let cfg = RunConfig {
            watchdog: Some(std::time::Duration::from_millis(100)),
            fault: Some("stall@0:0".parse().expect("parses")),
        };
        match pg.run(&[1.0, 2.0, 3.0], 3, &cfg) {
            Err(ExecError::Stalled { .. }) => {}
            other => panic!("expected Stalled, got {other:?}"),
        }
    }
}
