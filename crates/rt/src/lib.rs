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
//! 2. **Staged planning** (`plan`): the transformed graph is cut into
//!    contiguous software-pipeline stages
//!    ([`streamit_sched::pipeline_stage_partition`] over the work
//!    estimates), reusing the compiled engine's bytecode lowering, op
//!    emission, and count simulation to prove the staged schedule and
//!    size every tape.
//! 3. **Pipelined execution** (`run`, `spsc`): one worker thread per
//!    stage over lock-free bounded SPSC channels with one batch publish
//!    per steady iteration — software pipelining with backpressure
//!    instead of barriers.  A run starts with the stages taking turns on
//!    the calling thread and gets its workers once it has outlasted what
//!    starting them costs.
//!
//! The runtime accepts exactly the compiled engine's subset minus
//! feedback loops (a back edge would make a stage wait on a later
//! stage); everything else — including stateful pipelines, which still
//! get pipeline parallelism even though they cannot be fissed — runs
//! and stays *bit-identical* to the reference interpreter, because
//! fission preserves Kahn-network semantics and the staged schedule is
//! proved by the same count simulation as the serial plan.  Graphs
//! outside the subset are declined with [`ExecError::Unsupported`] and
//! callers fall back to the serial engines.

pub mod plan;
pub mod run;
pub mod spsc;
pub mod transform;

use streamit_exec::driver::{build_shards, preload, read_output, Driver};
use streamit_exec::engine::Shard;
use streamit_exec::plan::Loc;
pub use streamit_exec::plan::LowerOptions;
use streamit_exec::tape::Tape;
pub use streamit_exec::{ExecError, FaultKind, FaultPlan, StageSnapshot};
use streamit_graph::{DataType, FlatGraph};
pub use streamit_sched::{CostModel, ProfileReport};

pub use plan::StagedPlan;
pub use run::RunConfig;
pub use transform::FissedRegion;

/// One adaptive re-partition, for reports and tests: when it happened,
/// what triggered it, and how the stage map changed.
#[derive(Debug, Clone)]
pub struct ReplanEvent {
    /// Steady iterations completed when the re-plan was applied.
    pub at_iteration: u64,
    /// Measured stage-imbalance ratio (busiest stage over the mean)
    /// that tripped the threshold.
    pub imbalance: f64,
    pub stages_before: usize,
    pub stages_after: usize,
    /// Graph nodes whose stage assignment changed.
    pub moved_nodes: usize,
}

/// What the adaptive re-planner measured and did during a run.
#[derive(Debug, Clone, Default)]
pub struct ReplanReport {
    /// Measured segments executed (each segment ends at a steady
    /// iteration boundary, where re-planning is safe).
    pub segments: u64,
    /// Per-filter costs merged over the measured segments.
    pub profile: ProfileReport,
    /// Re-partitions actually applied (empty when the pipeline stayed
    /// balanced, or when re-planning never improved the partition).
    pub events: Vec<ReplanEvent>,
}

/// A graph compiled for the multicore runtime.  Immutable and
/// shareable: every run materializes its own shards and channels.
#[derive(Debug, Clone)]
pub struct ParallelGraph {
    plan: StagedPlan,
    threads: usize,
    regions: Vec<FissedRegion>,
    // The transformed (fissed) graph the plan was built from, kept so
    // the adaptive re-planner can re-cut the stage partition with
    // measured costs.  Re-planning never re-fisses: filter state can
    // only migrate between plans that share node and edge ids.
    fissed: FlatGraph,
    input_ty: DataType,
    opts: LowerOptions,
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
        ParallelGraph::compile_costed(g, input_ty, threads, opts, &CostModel::Static)
    }

    /// [`ParallelGraph::compile_with`] with an explicit cost model:
    /// [`CostModel::Measured`] feeds profiled per-filter costs into
    /// both the fission-degree heuristic and the pipeline-stage
    /// partition, falling back to static estimates for any filter the
    /// profile does not cover.
    pub fn compile_costed(
        g: &FlatGraph,
        input_ty: Option<DataType>,
        threads: usize,
        opts: LowerOptions,
        cost: &CostModel,
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
        let (fissed, regions) = transform::fiss_graph_costed(g, threads, cost);
        match plan::build_staged_plan_costed(&fissed, ty, threads, opts, cost) {
            Ok(plan) => Ok(ParallelGraph {
                plan,
                threads,
                regions,
                fissed,
                input_ty: ty,
                opts,
            }),
            // The transform can push a graph over a planner limit (tape
            // counts, init priming); retry untransformed before giving
            // up so fission is never the reason a graph is declined.
            Err(first) => match plan::build_staged_plan_costed(g, ty, threads, opts, cost) {
                Ok(plan) => Ok(ParallelGraph {
                    plan,
                    threads,
                    regions: Vec::new(),
                    fissed: g.clone(),
                    input_ty: ty,
                    opts,
                }),
                Err(_) => Err(ExecError::Unsupported { reason: first }),
            },
        }
    }

    /// Typed lowering notes (e.g. `L0701` dropped-kernel-hint warnings)
    /// produced while compiling this graph.
    pub fn notes(&self) -> &[String] {
        &self.plan.notes
    }

    /// Worker threads the plan was built for (stage count may be lower).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pipeline stages (= worker threads actually spawned).
    pub fn stages(&self) -> usize {
        self.plan.stages()
    }

    /// Which regions the fission transform replicated, and how wide.
    pub fn fission_report(&self) -> &[FissedRegion] {
        &self.regions
    }

    /// The staged plan (for inspection and tests).
    pub fn plan(&self) -> &StagedPlan {
        &self.plan
    }

    /// How many filters in the staged plan run a native
    /// linear/frequency kernel instead of their bytecode.
    pub fn kernel_filters(&self) -> usize {
        self.plan
            .codes
            .iter()
            .filter(|c| c.kernel.is_some())
            .count()
    }

    /// External input items needed to run `k` steady iterations.
    pub fn required_input(&self, k: u64) -> u64 {
        self.plan.stats.required_input(k)
    }

    /// External output items produced by the initialization phase.
    pub fn init_outputs(&self) -> u64 {
        self.plan.stats.init_out
    }

    /// External output items produced per steady iteration.
    pub fn outputs_per_iteration(&self) -> u64 {
        self.plan.stats.round_out
    }

    /// [`ParallelGraph::run`] with the default (bare) [`RunConfig`].
    pub fn run_steady(&self, input: &[f64], k: u64) -> Result<Vec<f64>, ExecError> {
        Ok(self.run(input, k, &RunConfig::default())?.0)
    }

    /// Run enough steady iterations to produce at least `n` output
    /// items, returning exactly the first `n` (the deterministic prefix
    /// shared with the serial engines).
    pub fn run_collect(&self, input: &[f64], n: usize) -> Result<Vec<f64>, ExecError> {
        let k = self.plan.stats.iterations_for(n as u64)?;
        let mut out = self.run_steady(input, k)?;
        out.truncate(n);
        Ok(out)
    }

    /// The runtime's one configured run: initialization (serially, over
    /// all shards) plus `k` steady iterations on one worker thread per
    /// stage, under `cfg`'s watchdog, fault plan and re-plan threshold.
    /// A one-stage plan is the same path with one worker and no links.
    ///
    /// With a threshold (and no fault plan: fault iterations count from
    /// a segment's start) the run executes in measured segments.  When a
    /// segment's stage-imbalance ratio exceeds the threshold, the run
    /// stops at that steady iteration boundary (every channel empty,
    /// every consumer tape at the steady snapshot), re-cuts the stage
    /// partition of the *same* fissed graph with the measured costs,
    /// migrates tapes and filter state, and resumes.  Output is
    /// bit-identical throughout: only which thread runs which filter
    /// changes.
    ///
    /// A bare run (the default [`RunConfig`]) starts on the calling
    /// thread, its stages taking turns (`run::run_inline`), and starts
    /// workers only if it is still going after `run::INLINE_BUDGET`: a
    /// run shorter than that is over before two workers could have been
    /// started and joined, and a longer one loses at most that much
    /// overlap.  A one-stage plan stays on the calling thread throughout.
    /// Supervised, fault-injected and re-planning runs are about the
    /// workers and get them from the first iteration.
    pub fn run(
        &self,
        input: &[f64],
        k: u64,
        cfg: &RunConfig,
    ) -> Result<(Vec<f64>, ReplanReport), ExecError> {
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
    ) -> Result<(Vec<f64>, ReplanReport), ExecError> {
        /// Steady iterations per measured segment: long enough to
        /// amortize the per-segment thread spawn, short enough to react.
        const SEG: u64 = 8;
        /// Re-partitions per run: the measured costs converge after one
        /// or two cuts; anything more is thrash.
        const MAX_REPLANS: usize = 3;
        let threshold = cfg
            .replan_threshold
            .filter(|_| cfg.fault.is_none())
            .map(|t| t.max(1.0));
        let sched = self.plan.schedule();
        let mut init = Driver::new(preload(&sched, input, k)?, 0, "initialization", None, None);
        init.drive(&sched, 0)?;
        let (mut shards, _) = init.into_parts();
        let mut recut: Option<StagedPlan> = None;
        let mut report = ReplanReport::default();
        let mut done = 0u64;
        if cfg.watchdog.is_none() && cfg.fault.is_none() && threshold.is_none() {
            let budget = if self.plan.stages() > 1 {
                inline_budget
            } else {
                std::time::Duration::MAX
            };
            (shards, done) = run::run_inline(&self.plan, shards, k, budget)?;
        }
        let mut replans = 0usize;
        let mut calm = 0u32;
        while done < k {
            let cur = recut.as_ref().unwrap_or(&self.plan);
            // Measure until converged (two consecutive balanced
            // segments), out of re-plans, or down to one stage; then run
            // the remainder in one unmeasured stretch.
            let measuring =
                threshold.filter(|_| cur.stages() > 1 && replans < MAX_REPLANS && calm < 2);
            let k_seg = measuring.map_or(k - done, |_| SEG.min(k - done));
            let (s, prof) = run::run_pipelined(cur, shards, k_seg, cfg, measuring.is_some())?;
            shards = s;
            done += k_seg;
            let Some(threshold) = measuring else {
                break;
            };
            report.segments += 1;
            report.profile.merge(&prof);
            let imb = imbalance(&stage_busy_ns(cur, &prof));
            if imb <= threshold {
                calm += 1;
                continue;
            }
            calm = 0;
            if done >= k {
                break;
            }
            replans += 1;
            // Re-cut the SAME fissed graph with measured costs.  Node
            // and edge ids (and lowered codes) are identical across
            // cuts, which is what makes state migration well-defined;
            // re-fissing here is deliberately off the table.
            let cost = CostModel::Measured(report.profile.clone());
            let next = match plan::build_staged_plan_costed(
                &self.fissed,
                self.input_ty,
                self.threads,
                self.opts,
                &cost,
            ) {
                Ok(p) => p,
                Err(_) => continue,
            };
            if next.stage_of_node == cur.stage_of_node {
                // The measured costs agree with the current cut; the
                // imbalance is inherent (e.g. one indivisible hot
                // filter), so stop burning measurement overhead on it.
                replans = MAX_REPLANS;
                continue;
            }
            let moved = cur
                .stage_of_node
                .iter()
                .zip(&next.stage_of_node)
                .filter(|(a, b)| a != b)
                .count();
            shards = migrate_shards(cur, &next, shards)?;
            report.events.push(ReplanEvent {
                at_iteration: done,
                imbalance: imb,
                stages_before: cur.stages(),
                stages_after: next.stages(),
                moved_nodes: moved,
            });
            recut = Some(next);
        }
        let ext_out = recut.as_ref().unwrap_or(&self.plan).schedule().ext_out;
        read_output(&shards, ext_out).map(|out| (out, report))
    }
}

/// Busy nanoseconds per stage implied by one measured segment: the sum
/// over each stage's filters of mean ns/firing × observed firings.
fn stage_busy_ns(sp: &StagedPlan, prof: &ProfileReport) -> Vec<f64> {
    let mut ns = vec![0.0f64; sp.stages()];
    for (s, frames) in sp.frames.iter().enumerate() {
        for &c in frames {
            if let Some(p) = prof.get(&sp.codes[c as usize].name) {
                if let Some(per) = p.ns_per_firing() {
                    ns[s] += per * p.firings as f64;
                }
            }
        }
    }
    ns
}

/// Busiest stage over the mean; `1.0` is perfectly balanced.  A stage
/// that measured no work at all still counts toward the mean — idle
/// stages are exactly the imbalance we are looking for.
fn imbalance(busy: &[f64]) -> f64 {
    let max = busy.iter().copied().fold(0.0f64, f64::max);
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

/// Move live run state from one partition's shards to another's.  Both
/// plans were built from the same flat graph, so edge ids, node ids,
/// and tape capacities agree; only the (shard, slot) homes differ.
/// Called at a steady iteration boundary, where channels are empty and
/// staging tapes drained — so consumer tapes, the external tapes, and
/// filter frames are the whole live state.
fn migrate_shards(
    old_plan: &StagedPlan,
    new_plan: &StagedPlan,
    mut old: Vec<Shard>,
) -> Result<Vec<Shard>, ExecError> {
    let mut fresh = build_shards(&new_plan.schedule(), &[], 0, 1)?;
    let mut mv = |from: Loc, to: Loc| {
        if from != plan::NO_EXT && to != plan::NO_EXT {
            fresh[to.shard as usize].tapes[to.slot as usize] = std::mem::replace(
                &mut old[from.shard as usize].tapes[from.slot as usize],
                Tape::placeholder(),
            );
        }
    };
    for (&from, &to) in old_plan.edge_tape.iter().zip(&new_plan.edge_tape) {
        mv(from, to);
    }
    mv(old_plan.ext_in, new_plan.ext_in);
    mv(old_plan.ext_out, new_plan.ext_out);
    for (&from, &to) in old_plan.node_frame.iter().zip(&new_plan.node_frame) {
        if let (Some(f), Some(t)) = (from, to) {
            fresh[t.shard as usize].frames[t.slot as usize] =
                std::mem::take(&mut old[f.shard as usize].frames[f.slot as usize]);
        }
    }
    Ok(fresh)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use streamit_exec::CompiledGraph;
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
        let kp = pg.plan.stats.iterations_for(n as u64).expect("iterations");
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
            let (mut out, _) = pg.run_budgeted(&input, kp, cfg, budget).expect(what);
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

    // ---- profiling and adaptive re-planning ------------------------

    /// A filter whose static estimate is wildly wrong: the work loop's
    /// trip count is a state variable (statically assumed to be ~8
    /// trips) but actually runs 2000 trips per firing.  Stateful, so
    /// fission cannot hide it.
    fn skew_filter(name: &str) -> streamit_graph::StreamNode {
        FilterBuilder::new(name, DataType::Int)
            .rates(1, 1, 1)
            .state("n", DataType::Int, Value::Int(2000))
            .state("acc", DataType::Int, Value::Int(0))
            .work(|b| {
                b.for_("i", 0, var("n"), |b| b.set("acc", var("acc") + var("i")))
                    .push(pop() + var("acc") % lit(2i64))
            })
            .build_node()
    }

    /// Medium static cost, stateful (so the chain is not fissed and the
    /// static partition is predictable).
    fn medium(name: &str) -> streamit_graph::StreamNode {
        FilterBuilder::new(name, DataType::Int)
            .rates(1, 1, 1)
            .state("s", DataType::Int, Value::Int(0))
            .work(|b| {
                let mut e = pop() + var("s");
                for k in 1..40i64 {
                    e = e * lit(2i64) + lit(k);
                }
                b.set("s", var("s") + lit(1i64)).push(e)
            })
            .build_node()
    }

    /// One fully measured segment: a threshold no imbalance reaches
    /// measures every worker without ever re-cutting.
    fn measured_run(pg: &ParallelGraph, k: u64) -> (Vec<f64>, ProfileReport) {
        assert!(pg.stages() > 1 && k <= 8, "one measured segment");
        let cfg = RunConfig {
            replan_threshold: Some(f64::INFINITY),
            ..RunConfig::default()
        };
        let (out, rep) = pg.run(&[], k, &cfg).expect("runs");
        assert!(rep.events.is_empty());
        (out, rep.profile)
    }

    #[test]
    fn measured_run_is_bit_identical_and_profiles_every_filter() {
        let g = FlatGraph::from_stream(&staged_pipeline());
        let pg = ParallelGraph::compile(&g, None, 2).expect("accepts");
        let clean = pg.run_steady(&[], 8).expect("runs");
        let (measured, prof) = measured_run(&pg, 8);
        let cb: Vec<u64> = clean.iter().map(|v| v.to_bits()).collect();
        let mb: Vec<u64> = measured.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cb, mb, "measurement must not change the stream");
        assert!(!prof.filters.is_empty(), "profile is empty");
        for (name, p) in &prof.filters {
            assert!(p.firings > 0, "{name} profiled with zero firings");
            assert!(p.sampled_firings > 0, "{name} never sampled");
        }
    }

    #[test]
    fn skewed_cost_triggers_a_replan_with_bit_identical_output() {
        // Static loads (roughly): src 5, skew 20, m1 120, m2 120 — the
        // static 2-way cut is [src skew m1 | m2].  Measured, the skew
        // filter dominates everything, and the best cut isolates it:
        // [src skew | m1 m2].  The re-planner must discover this online
        // and re-partition without perturbing the stream.
        let s = pipeline(
            "p",
            vec![
                counter_source("src"),
                skew_filter("skew"),
                medium("m1"),
                medium("m2"),
            ],
        );
        let g = FlatGraph::from_stream(&s);
        let cg = CompiledGraph::compile(&g, None).expect("serial engine accepts");
        let pg = ParallelGraph::compile(&g, None, 2).expect("parallel engine accepts");
        assert!(pg.stages() > 1, "need a staged plan to re-partition");
        let k = 24u64;
        let n = (cg.init_outputs() + k * cg.outputs_per_iteration()) as usize;
        let serial = cg.run_collect(&[], n).expect("serial runs");
        let cfg = RunConfig {
            watchdog: None,
            fault: None,
            replan_threshold: Some(1.2),
        };
        let (out, rep) = pg.run(&[], k, &cfg).expect("replanned run");
        assert!(
            !rep.events.is_empty(),
            "expected at least one re-partition, report: {rep:?}"
        );
        let ev = &rep.events[0];
        assert!(ev.imbalance > 1.2, "event imbalance: {}", ev.imbalance);
        assert!(ev.moved_nodes > 0, "a re-plan must move at least one node");
        let sb: Vec<u64> = serial.iter().map(|v| v.to_bits()).collect();
        let ob: Vec<u64> = out.iter().take(n).map(|v| v.to_bits()).collect();
        assert_eq!(sb, ob, "re-planning perturbed the stream");
    }

    #[test]
    fn replan_threshold_on_a_balanced_pipeline_changes_nothing() {
        let g = FlatGraph::from_stream(&staged_pipeline());
        let pg = ParallelGraph::compile(&g, None, 2).expect("accepts");
        let clean = pg.run_steady(&[], 32).expect("runs");
        let cfg = RunConfig {
            watchdog: None,
            fault: None,
            // Effectively unreachable imbalance: never re-partition.
            replan_threshold: Some(1e9),
        };
        let (out, rep) = pg.run(&[], 32, &cfg).expect("runs");
        assert!(rep.events.is_empty(), "spurious re-plan: {rep:?}");
        assert!(rep.segments >= 1);
        let cb: Vec<u64> = clean.iter().map(|v| v.to_bits()).collect();
        let ob: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cb, ob);
    }

    #[test]
    fn measured_cost_model_compiles_and_stays_bit_identical() {
        // Profile a run, feed the measured costs back into compilation,
        // and check the profiled plan produces the same stream.
        let s = pipeline(
            "p",
            vec![
                counter_source("src"),
                skew_filter("skew"),
                medium("m1"),
                medium("m2"),
            ],
        );
        let g = FlatGraph::from_stream(&s);
        let pg = ParallelGraph::compile(&g, None, 2).expect("accepts");
        let (clean, prof) = measured_run(&pg, 8);
        let cost = CostModel::Measured(prof);
        let pg2 = ParallelGraph::compile_costed(&g, None, 2, LowerOptions::default(), &cost)
            .expect("profiled compile accepts");
        let out = pg2.run_steady(&[], 8).expect("runs");
        let cb: Vec<u64> = clean.iter().map(|v| v.to_bits()).collect();
        let ob: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(cb, ob, "profiled plan must produce the same stream");
    }

    // ---- supervision -----------------------------------------------

    fn staged_pipeline() -> streamit_graph::StreamNode {
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
            replan_threshold: None,
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
            replan_threshold: None,
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
            replan_threshold: None,
        };
        let (delayed, _) = pg.run(&[], 6, &cfg).expect("runs");
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
            replan_threshold: None,
        };
        let (watched, _) = pg.run(&[], 8, &cfg).expect("runs");
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
            replan_threshold: None,
        };
        match pg.run(&[1.0, 2.0, 3.0], 3, &cfg) {
            Err(ExecError::Stalled { .. }) => {}
            other => panic!("expected Stalled, got {other:?}"),
        }
    }
}
