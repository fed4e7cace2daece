//! # streamit-exec
//!
//! The compiled steady-state execution engine: an alternative to the
//! reference tree-walking interpreter (`streamit-interp`) that trades
//! generality for throughput while staying *bit-identical* on the
//! programs it accepts.
//!
//! Compilation ([`CompiledGraph::compile`]) lowers every work function
//! to flat register bytecode, replaces every `VecDeque<Value>` channel
//! with a monomorphic unboxed ring-buffer tape sized by a count
//! simulation of the schedule, and freezes the steady-state schedule
//! into flat op arrays (splitter/joiner firings become bulk slice
//! moves).  Running `k` steady iterations is then a loop over those
//! arrays with no per-item boxing, no hashing, and no allocation — one
//! loop, in [`driver`], which every entry point of this crate and the
//! multicore runtime's stage workers are clients of.
//!
//! Graphs outside the engine's statically provable subset (teleport
//! messaging, work functions the analysis cannot bound, multiple
//! external I/O sites, under-primed feedback loops) are rejected with
//! [`ExecError::Unsupported`]; callers fall back to the reference
//! interpreter, which remains the semantics oracle.
//!
//! The building blocks — bytecode lowering, ring tapes, the firing plan
//! and the driver — are public modules: the multicore runtime
//! (`streamit-rt`) cuts a [`plan::Plan`]'s steady round into pipeline
//! stages and drives each stage's ops on a worker thread.  This crate
//! itself stays single-threaded; all threading lives in `streamit-rt`.

pub mod bytecode;
pub mod driver;
pub mod engine;
pub mod kernel;
pub mod lowering;
pub mod plan;
pub mod profile;
pub mod session;
pub mod tape;

pub use driver::Stop;
pub use lowering::LoweringCache;
pub use profile::{FilterProfile, ProfileReport};
pub use session::{Session, SessionConfig};

use std::fmt;

use streamit_graph::{DataType, FlatGraph};

use crate::driver::Driver;
use crate::engine::OpProfiler;

/// Why a compiled run could not proceed (or produce).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The graph uses features the compiled engine does not support;
    /// callers should fall back to the reference interpreter.
    Unsupported { reason: String },
    /// A runtime fault during execution (rate violation, division by
    /// zero, array bounds, tape underflow) — the same classes of error
    /// the reference interpreter reports.
    Fault { node: String, reason: String },
    /// Not enough external input items for the requested iterations.
    Starved { needed: u64, have: u64 },
    /// More output was requested than the graph can ever produce (its
    /// steady state emits nothing).
    NoSteadyOutput,
    /// The run asks for an external ring (`what`) of `items` items,
    /// which overflows or which the allocator refuses: reported before a
    /// single firing instead of aborting the process.
    TooLarge { what: &'static str, items: u64 },
    /// A worker panicked during execution.  The panic was caught at the
    /// stage boundary; `stage` attributes it and `payload` carries the
    /// panic message when it was a string (the overwhelmingly common
    /// case: `panic!`, `assert!`, index/arithmetic failures).
    WorkerPanic { stage: String, payload: String },
    /// The supervisor observed no progress on any stage for a full
    /// watchdog deadline and aborted the run.  The snapshot records
    /// each stage's completed iterations and what it was doing when
    /// the stall was declared.
    Stalled {
        deadline_ms: u64,
        stages: Vec<StageSnapshot>,
    },
}

/// One stage's view at the moment a stall was declared: how many steady
/// iterations it completed and what it was last doing ("running",
/// "finished", or which link it was blocked draining/publishing).
#[derive(Debug, Clone, PartialEq)]
pub struct StageSnapshot {
    pub stage: usize,
    /// Steady iterations completed by the stage's worker.
    pub iterations: u64,
    /// Human-readable last-observed activity.
    pub state: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Unsupported { reason } => {
                write!(f, "graph not supported by compiled engine: {reason}")
            }
            ExecError::Fault { node, reason } => write!(f, "fault in `{node}`: {reason}"),
            ExecError::Starved { needed, have } => {
                write!(f, "insufficient input: need {needed} items, have {have}")
            }
            ExecError::NoSteadyOutput => write!(f, "graph produces no steady-state output"),
            ExecError::TooLarge { what, items } => {
                write!(
                    f,
                    "run too large: cannot allocate the {what} ({items} items)"
                )
            }
            ExecError::WorkerPanic { stage, payload } => {
                write!(f, "worker panicked in {stage}: {payload}")
            }
            ExecError::Stalled {
                deadline_ms,
                stages,
            } => {
                write!(f, "pipeline stalled: no progress for {deadline_ms} ms")?;
                for s in stages {
                    write!(
                        f,
                        "; stage {}: {} iterations, {}",
                        s.stage, s.iterations, s.state
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Extract the human-readable message from a caught panic payload.
/// `panic!("...")` yields `&str`, `panic!("{x}")` yields `String`;
/// anything else (a rare typed payload) gets a placeholder.
pub fn panic_payload(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// What kind of fault a [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the stage's worker at the chosen iteration.
    Panic,
    /// Make no progress from the chosen iteration on; what that looks
    /// like is each front end's call (see [`driver`]).
    Stall,
    /// Sleep before publishing the chosen iteration's batch (a slow
    /// producer; output must still be bit-identical).
    DelayPublish,
}

/// A deterministic fault-injection plan for the chaos harness: inject
/// one fault of `kind` at steady iteration `iteration` of stage
/// `stage`.  Threaded through the engines by the supervised run entry
/// points; `None` (the default everywhere) means no injection and
/// compiles to a branch on a `None` option per iteration.
///
/// Parsed from `KIND@STAGE:ITER` (e.g. `panic@0:1`, `stall@1:3`,
/// `delay@0:2`), the form the `--inject-fault` CLI flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub stage: u16,
    pub iteration: u64,
    pub kind: FaultKind,
    /// Sleep length for [`FaultKind::DelayPublish`], in milliseconds.
    pub delay_ms: u64,
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let (kind, rest) = s
            .split_once('@')
            .ok_or_else(|| format!("expected KIND@STAGE:ITER, got `{s}`"))?;
        let kind = match kind {
            "panic" => FaultKind::Panic,
            "stall" => FaultKind::Stall,
            "delay" => FaultKind::DelayPublish,
            other => {
                return Err(format!(
                    "unknown fault kind `{other}` (expected `panic`, `stall`, or `delay`)"
                ))
            }
        };
        let (stage, iter) = rest
            .split_once(':')
            .ok_or_else(|| format!("expected KIND@STAGE:ITER, got `{s}`"))?;
        let stage: u16 = stage
            .parse()
            .map_err(|_| format!("bad stage index `{stage}` in fault plan"))?;
        let iteration: u64 = iter
            .parse()
            .map_err(|_| format!("bad iteration `{iter}` in fault plan"))?;
        Ok(FaultPlan {
            stage,
            iteration,
            kind,
            delay_ms: 50,
        })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            FaultKind::Panic => "panic",
            FaultKind::Stall => "stall",
            FaultKind::DelayPublish => "delay",
        };
        write!(f, "{kind}@{}:{}", self.stage, self.iteration)
    }
}

/// A graph compiled for steady-state execution.  Immutable and
/// shareable: every run materializes its own tapes and frames.
#[derive(Debug, Clone)]
pub struct CompiledGraph {
    plan: plan::Plan,
}

impl CompiledGraph {
    /// Compile a flat graph.  `input_ty` is the element type of the
    /// external input stream (defaults to `Float`, matching how the
    /// reference machine is fed by `CompiledProgram::run`).
    pub fn compile(g: &FlatGraph, input_ty: Option<DataType>) -> Result<CompiledGraph, ExecError> {
        CompiledGraph::compile_with(g, input_ty, plan::LowerOptions::default())
    }

    /// [`CompiledGraph::compile`] with explicit lowering options
    /// (opt level 0 disables the analysis mid-end optimizer).
    pub fn compile_with(
        g: &FlatGraph,
        input_ty: Option<DataType>,
        opts: plan::LowerOptions,
    ) -> Result<CompiledGraph, ExecError> {
        CompiledGraph::compile_cached(g, input_ty, opts, &LoweringCache::default())
    }

    /// [`CompiledGraph::compile_with`] lowering through `cache`: a
    /// filter body the cache has already lowered, with the same tape
    /// types and options, is not gated, optimized or lowered again.
    pub fn compile_cached(
        g: &FlatGraph,
        input_ty: Option<DataType>,
        opts: plan::LowerOptions,
        cache: &LoweringCache,
    ) -> Result<CompiledGraph, ExecError> {
        let ty = input_ty.unwrap_or(DataType::Float);
        plan::build_plan(g, ty, opts, cache)
            .map(|plan| CompiledGraph { plan })
            .map_err(|reason| ExecError::Unsupported { reason })
    }

    /// Typed lowering notes (e.g. `L0701` dropped-kernel-hint warnings)
    /// produced while compiling this graph.
    pub fn notes(&self) -> &[String] {
        &self.plan.notes
    }

    /// External input items that must be provided to run `k` steady
    /// iterations (peek windows can require more than is consumed).
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

    /// External input items consumed per steady iteration.
    pub fn inputs_per_iteration(&self) -> u64 {
        self.plan.stats.round_in
    }

    /// The underlying firing plan (consumed by `streamit-rt`).
    pub fn plan(&self) -> &plan::Plan {
        &self.plan
    }

    /// Filter/splitter/joiner firings per steady iteration — the unit
    /// the budget machinery counts, so a per-instance firing budget can
    /// be converted to an iteration allowance.
    pub fn firings_per_iteration(&self) -> u64 {
        self.plan
            .pre_ops
            .iter()
            .map(|op| u64::from(op.times()))
            .sum()
    }

    /// Steady iterations one scaled round runs, or `None` when the
    /// planner proved no stride longer than the unit round (see
    /// [`plan::Batch`]).
    pub fn batch_factor(&self) -> Option<u32> {
        self.plan.batch.as_ref().map(|b| b.k)
    }

    /// Open an incremental [`Session`] over this graph (shared via
    /// `Arc`: many sessions per compiled graph, one set of shards
    /// each).  See [`session`] for the contract.
    pub fn open_session(
        self: &std::sync::Arc<Self>,
        cfg: &SessionConfig,
    ) -> Result<Session, ExecError> {
        Session::open(std::sync::Arc::clone(self), cfg)
    }

    /// How many filters in the plan run a native linear/frequency
    /// kernel instead of their bytecode (optimizer-hinted filters whose
    /// hint validated against the declared rates and tape types).
    pub fn kernel_filters(&self) -> usize {
        self.plan
            .codes
            .iter()
            .filter(|c| c.kernel.is_some())
            .count()
    }

    /// The engine's one configured run: initialization plus `k` steady
    /// iterations on one core.  Returns the external output stream (as
    /// `f64`, the reference engine's output convention) and the measured
    /// per-filter costs (empty without `sample_period`).
    ///
    /// `fault` is the chaos harness's hook (see [`driver`]): only plans
    /// for stage 0 fire, and a `stall` is never armed — a one-shot run
    /// has no peer to block on, so it runs to completion, which is what
    /// the degradation ladder needs from its serial rungs.
    /// `sample_period` attaches the sampling profiler (1 times every
    /// steady round, `n` one in `n`); only clock reads are added, so
    /// output stays bit-identical.  Hooks or none, the rounds are
    /// [`driver::round_size`]'s.
    pub fn run(
        &self,
        input: &[f64],
        k: u64,
        fault: Option<FaultPlan>,
        sample_period: Option<u32>,
    ) -> Result<(Vec<f64>, ProfileReport), ExecError> {
        let s = self.plan.schedule();
        let fault = fault.filter(|f| f.kind != FaultKind::Stall);
        let prof = sample_period.map(|p| OpProfiler::new(s.codes.len(), p));
        let shards = driver::preload(&s, input, k)?;
        let mut d = Driver::new(shards, 0, "serial engine", fault, prof);
        d.drive(&s, k)?;
        let (shards, prof) = d.into_parts();
        let profile = prof.map(|p| p.report(s.codes)).unwrap_or_default();
        Ok((driver::read_output(&shards, s.ext_out)?, profile))
    }

    /// [`CompiledGraph::run`] with no hooks.
    pub fn run_steady(&self, input: &[f64], k: u64) -> Result<Vec<f64>, ExecError> {
        Ok(self.run(input, k, None, None)?.0)
    }

    /// [`CompiledGraph::run`] with the profiler attached.
    pub fn run_steady_profiled(
        &self,
        input: &[f64],
        k: u64,
        sample_period: u32,
    ) -> Result<(Vec<f64>, ProfileReport), ExecError> {
        self.run(input, k, None, Some(sample_period))
    }

    /// Run enough steady iterations to produce at least `n` output
    /// items, returning exactly the first `n` (the deterministic prefix
    /// shared with the reference interpreter).
    pub fn run_collect(&self, input: &[f64], n: usize) -> Result<Vec<f64>, ExecError> {
        let k = self.plan.stats.iterations_for(n as u64)?;
        let mut out = self.run_steady(input, k)?;
        out.truncate(n);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::DataType;

    fn counter_source(name: &str) -> streamit_graph::StreamNode {
        FilterBuilder::source(name, DataType::Int)
            .rates(0, 0, 1)
            .state("i", DataType::Int, streamit_graph::Value::Int(0))
            .work(|b| b.push(var("i")).set("i", var("i") + lit(1i64)))
            .build_node()
    }

    fn doubler(name: &str) -> streamit_graph::StreamNode {
        FilterBuilder::new(name, DataType::Int)
            .rates(1, 1, 1)
            .work(|b| b.push(pop() * lit(2i64)))
            .build_node()
    }

    #[test]
    fn compiles_and_runs_a_pipeline() {
        let s = pipeline("p", vec![counter_source("src"), doubler("x2")]);
        let g = streamit_graph::FlatGraph::from_stream(&s);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        assert_eq!(c.required_input(10), 0);
        assert_eq!(c.outputs_per_iteration(), 1);
        let out = c.run_steady(&[], 5).expect("runs");
        assert_eq!(out, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn peek_window_raises_required_input() {
        // peek 3 / pop 1: one iteration consumes 1 item but must see 3.
        let f = FilterBuilder::new("avg", DataType::Float)
            .rates(3, 1, 1)
            .work(|b| {
                b.push((peek(lit(0i64)) + peek(lit(1i64)) + peek(lit(2i64))) / lit(3.0))
                    .pop_discard()
            })
            .build_node();
        let g = streamit_graph::FlatGraph::from_stream(&f);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        assert_eq!(c.required_input(1), 3);
        assert_eq!(c.required_input(4), 6);
        let out = c.run_steady(&[1.0, 2.0, 3.0, 4.0], 2).expect("runs");
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn split_join_branches_run_in_order() {
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
        let g = streamit_graph::FlatGraph::from_stream(&s);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        let out = c.run_steady(&[], 8).expect("runs");
        assert_eq!(&out[..4], &[0.0, 0.0, 3.0, 5.0]);
    }

    #[test]
    fn teleport_send_is_unsupported() {
        let f = FilterBuilder::new("sender", DataType::Int)
            .rates(1, 1, 1)
            .work(|b| {
                let b = b.push(pop());
                b.send("portal", "set", vec![lit(1i64)], (0, 0))
            })
            .build_node();
        let g = streamit_graph::FlatGraph::from_stream(&f);
        match CompiledGraph::compile(&g, Some(DataType::Int)) {
            Err(ExecError::Unsupported { reason }) => {
                assert!(reason.contains("teleport"), "reason: {reason}")
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn fault_plan_parses_and_displays() {
        let p: FaultPlan = "panic@2:5".parse().expect("parses");
        assert_eq!(p.kind, FaultKind::Panic);
        assert_eq!(p.stage, 2);
        assert_eq!(p.iteration, 5);
        assert_eq!(p.to_string(), "panic@2:5");
        let p: FaultPlan = "stall@0:3".parse().expect("parses");
        assert_eq!(p.kind, FaultKind::Stall);
        let p: FaultPlan = "delay@1:2".parse().expect("parses");
        assert_eq!(p.kind, FaultKind::DelayPublish);
        assert!("panic@x:1".parse::<FaultPlan>().is_err());
        assert!("panic@1".parse::<FaultPlan>().is_err());
        assert!("explode@1:1".parse::<FaultPlan>().is_err());
        assert!("panic".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn injected_panic_is_caught_and_attributed() {
        let s = pipeline("p", vec![counter_source("src"), doubler("x2")]);
        let g = streamit_graph::FlatGraph::from_stream(&s);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        let fault: FaultPlan = "panic@0:1".parse().expect("parses");
        match c.run(&[], 5, Some(fault), None) {
            Err(ExecError::WorkerPanic { stage, payload }) => {
                assert_eq!(stage, "serial engine");
                assert!(payload.contains("injected fault"), "payload: {payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }

    #[test]
    fn injected_delay_and_stall_leave_output_bit_identical() {
        let s = pipeline("p", vec![counter_source("src"), doubler("x2")]);
        let g = streamit_graph::FlatGraph::from_stream(&s);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        let clean = c.run_steady(&[], 4).expect("runs");
        let mut delay: FaultPlan = "delay@0:1".parse().expect("parses");
        delay.delay_ms = 1;
        let (delayed, _) = c.run(&[], 4, Some(delay), None).expect("runs");
        assert_eq!(clean, delayed);
        // A serial engine cannot stall (no peers); the plan is ignored.
        let stall: FaultPlan = "stall@0:1".parse().expect("parses");
        let (stalled, _) = c.run(&[], 4, Some(stall), None).expect("runs");
        assert_eq!(clean, stalled);
        // Faults aimed at other stages never fire here.
        let far: FaultPlan = "panic@3:1".parse().expect("parses");
        assert_eq!(c.run(&[], 4, Some(far), None).expect("runs").0, clean);
    }

    #[test]
    fn panic_payload_extracts_strings() {
        let payload = |f: fn()| match driver::contain("t", || {
            f();
            Ok(())
        }) {
            Err(ExecError::WorkerPanic { stage, payload }) => {
                assert_eq!(stage, "t");
                payload
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        };
        assert_eq!(payload(|| panic!("plain str")), "plain str");
        assert_eq!(payload(|| panic!("formatted {}", 7)), "formatted 7");
        assert_eq!(
            payload(|| std::panic::panic_any(42i32)),
            "non-string panic payload"
        );
    }

    #[test]
    fn profiled_run_is_bit_identical_and_covers_filters() {
        let s = pipeline("p", vec![counter_source("src"), doubler("x2")]);
        let g = streamit_graph::FlatGraph::from_stream(&s);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        let plain = c.run_steady(&[], 32).expect("runs");
        for period in [1u32, 8] {
            let (out, prof) = c.run_steady_profiled(&[], 32, period).expect("runs");
            assert_eq!(plain, out, "period {period}");
            // Both filters show up with every firing counted and at
            // least one sample each (first invocation always sampled).
            for name in ["p/src", "p/x2"] {
                let p = prof.get(name).unwrap_or_else(|| panic!("missing {name}"));
                assert_eq!(p.firings, 32, "{name} at period {period}");
                assert!(p.sampled_firings >= 1, "{name} at period {period}");
                assert!(p.ns_per_firing().is_some(), "{name} at period {period}");
            }
        }
        // 32 iterations are two sixteen-iteration rounds, and period 8
        // samples the first: sixteen timed firings of each filter.
        assert_eq!(c.batch_factor(), Some(16));
        let (_, prof) = c.run_steady_profiled(&[], 32, 8).expect("runs");
        assert_eq!(prof.get("p/src").expect("present").sampled_firings, 16);
    }

    #[test]
    fn absurd_iteration_counts_starve_instead_of_wrapping() {
        // peek 3 / pop 1: (k - 1) * round_in + window overflows u64.
        let f = FilterBuilder::new("avg", DataType::Float)
            .rates(3, 1, 1)
            .work(|b| {
                b.push((peek(lit(0i64)) + peek(lit(1i64)) + peek(lit(2i64))) / lit(3.0))
                    .pop_discard()
            })
            .build_node();
        let g = streamit_graph::FlatGraph::from_stream(&f);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        assert!(c.inputs_per_iteration() > 0);
        match c.run_steady(&[1.0, 2.0, 3.0], u64::MAX) {
            Err(ExecError::Starved {
                needed: u64::MAX,
                have: 3,
            }) => {}
            other => panic!("expected Starved, got {other:?}"),
        }
    }

    #[test]
    fn a_batch_is_sixteen_unit_rounds_with_one_peek_window() {
        // peek 3 / pop 1: sixteen iterations pop 16 and must see 18.
        let f = FilterBuilder::new("avg", DataType::Float)
            .rates(3, 1, 1)
            .work(|b| {
                b.push((peek(lit(0i64)) + peek(lit(1i64)) + peek(lit(2i64))) / lit(3.0))
                    .pop_discard()
            })
            .build_node();
        let g = streamit_graph::FlatGraph::from_stream(&f);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        assert_eq!(c.batch_factor(), Some(16));
        let batch = c.plan().batch.as_ref().expect("batches");
        assert_eq!(batch.round_in_required, 18);
        assert_eq!(c.required_input(16), 18);
        // The unit plan is what it was: one firing, a window of three.
        assert_eq!(c.firings_per_iteration(), 1);
        assert_eq!(c.plan().stats.round_in_required, 3);
    }

    #[test]
    fn shards_built_for_a_short_run_keep_the_driver_on_unit_rounds() {
        let s = pipeline("p", vec![counter_source("src"), doubler("x2")]);
        let g = streamit_graph::FlatGraph::from_stream(&s);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        let sched = c.plan().schedule();
        let link = |shards: &[engine::Shard]| shards[0].tapes[2].capacity();
        let short = driver::preload(&sched, &[], 15).expect("preloads");
        let long = driver::preload(&sched, &[], 16).expect("preloads");
        assert_eq!((link(&short), link(&long)), (1, 16));
        // Unit-sized tapes under a schedule that lends its batch: the
        // scaled round would overflow the one-item link, so it is not
        // taken, and forty iterations run one at a time.
        let unit = driver::Schedule {
            batch: None,
            ..sched
        };
        let shards = driver::build_shards(&unit, &[], 0, 64).expect("allocates");
        let mut d = Driver::new(shards, 0, "test", None, None);
        assert_eq!(d.drive(&sched, 40), Ok((40, Stop::Budget)));
        let out = driver::read_output(&d.into_parts().0, sched.ext_out).expect("reads");
        assert_eq!(out, c.run_steady(&[], 40).expect("runs"));
    }

    #[test]
    fn rings_no_host_can_hold_are_too_large_instead_of_aborting() {
        // A source needs no input, so nothing starves first: the output
        // ring of the whole run is the first thing asked for.
        let g = streamit_graph::FlatGraph::from_stream(&counter_source("src"));
        let c = std::sync::Arc::new(CompiledGraph::compile(&g, None).expect("supported"));
        for k in [1 << 50, u64::MAX] {
            match c.run_steady(&[], k) {
                Err(ExecError::TooLarge { what, items }) => {
                    assert_eq!((what, items), ("output ring", k));
                }
                other => panic!("expected TooLarge, got {other:?}"),
            }
        }
        let cfg = SessionConfig::with_buffers(1 << 50);
        assert!(matches!(
            c.open_session(&cfg),
            Err(ExecError::TooLarge { .. })
        ));
    }

    #[test]
    fn starved_run_is_reported() {
        let f = FilterBuilder::new("id", DataType::Float)
            .rates(1, 1, 1)
            .work(|b| b.push(pop()))
            .build_node();
        let g = streamit_graph::FlatGraph::from_stream(&f);
        let c = CompiledGraph::compile(&g, None).expect("supported");
        match c.run_steady(&[1.0], 3) {
            Err(ExecError::Starved { needed: 3, have: 1 }) => {}
            other => panic!("expected Starved, got {other:?}"),
        }
    }
}
