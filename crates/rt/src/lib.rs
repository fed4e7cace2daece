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
//!    ([`streamit_sched::pipeline_stage_partition`] over the static work
//!    estimates, the planner's only cost input), reusing the compiled
//!    engine's bytecode lowering, op emission, and count simulation to
//!    prove the staged schedule and size every tape.
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

use streamit_exec::driver::{preload, read_output, Driver};
pub use streamit_exec::plan::LowerOptions;
pub use streamit_exec::{ExecError, FaultKind, FaultPlan, LoweringCache, StageSnapshot};
use streamit_graph::{DataType, FlatGraph};

pub use plan::StagedPlan;
pub use run::RunConfig;
pub use transform::FissedRegion;

/// A graph compiled for the multicore runtime.  Immutable and
/// shareable: every run materializes its own shards and channels.
#[derive(Debug, Clone)]
pub struct ParallelGraph {
    plan: StagedPlan,
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
        match plan::build_staged_plan(&fissed, ty, threads, opts, cache) {
            Ok(plan) => Ok(ParallelGraph {
                plan,
                threads,
                regions,
            }),
            // The transform can push a graph over a planner limit (tape
            // counts, init priming); retry untransformed before giving
            // up so fission is never the reason a graph is declined.
            Err(first) => match plan::build_staged_plan(g, ty, threads, opts, cache) {
                Ok(plan) => Ok(ParallelGraph {
                    plan,
                    threads,
                    regions: Vec::new(),
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
        self.run(input, k, &RunConfig::default())
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
    /// all shards) plus `k` steady iterations under `cfg`'s watchdog and
    /// fault plan.  A one-stage plan is the same path with one worker
    /// and no links.
    ///
    /// A bare run (the default [`RunConfig`]) starts on the calling
    /// thread, its stages taking turns (`run::run_inline`), and starts
    /// workers only if it is still going after `run::INLINE_BUDGET`: a
    /// run shorter than that is over before two workers could have been
    /// started and joined, and a longer one loses at most that much
    /// overlap.  A one-stage plan stays on the calling thread throughout.
    /// Supervised and fault-injected runs are about the workers and get
    /// them from the first iteration.
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
        let sched = self.plan.schedule();
        let mut init = Driver::new(preload(&sched, input, k)?, 0, "initialization", None, None);
        init.drive(&sched, 0)?;
        let (mut shards, _) = init.into_parts();
        let mut done = 0u64;
        if cfg.watchdog.is_none() && cfg.fault.is_none() {
            let budget = if self.plan.stages() > 1 {
                inline_budget
            } else {
                std::time::Duration::MAX
            };
            (shards, done) = run::run_inline(&self.plan, shards, k, budget)?;
        }
        if done < k {
            shards = run::run_pipelined(&self.plan, shards, k - done, cfg)?;
        }
        read_output(&shards, sched.ext_out)
    }
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
