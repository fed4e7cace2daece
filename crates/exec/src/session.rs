//! Reentrant incremental execution: a [`Session`] owns the materialized
//! shards of one compiled graph and advances the steady-state schedule
//! one iteration at a time as input is pushed and output is drained.
//!
//! Where [`crate::CompiledGraph::run_steady`] is one-shot — preload all
//! input, run `k` iterations, dump the whole output stream — a session
//! replaces the external input/output slots with *bounded staging
//! rings* sized by the caller.  [`Session::push_input`] accepts only as
//! many items as the input ring has free (backpressure, never an
//! unbounded queue), [`Session::step`] runs iterations only while the
//! staged input covers the round's peek window *and* the output ring
//! has room for the round's emissions, and [`Session::pull_output`]
//! drains what has landed.  Both paths are the same
//! [`crate::driver::Driver`] over the same op arrays — a one-shot run
//! is a session whose rings happen to hold everything — so the output
//! stream is bit-identical to `run_steady` no matter how the input is
//! chunked.
//!
//! A panic inside a step (including one injected by a [`FaultPlan`])
//! comes back from the driver as an error and *poisons* the session:
//! the error is returned from that and every later call, the shards are
//! never touched again, and nothing leaks to other sessions — the
//! isolation contract `streamd` builds its multi-tenant supervision on.

use std::sync::Arc;

use crate::driver::{build_shards, Driver, Schedule, Stop};
use crate::plan::{EXT_IN, EXT_OUT};
use crate::tape::Tape;
use crate::{CompiledGraph, ExecError, FaultPlan};

/// Staging-buffer sizing (and optional chaos injection) for a session.
///
/// Capacities are *minimums requested by the caller*: construction
/// raises them to the smallest sizes that can make progress (the init
/// phase's required input window and emissions, and one steady round's
/// window and emissions), so a zero-filled config yields the tightest
/// feasible buffers.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionConfig {
    /// Requested capacity of the external-input staging ring, in items.
    pub in_capacity: u64,
    /// Requested capacity of the external-output staging ring, in items.
    pub out_capacity: u64,
    /// Deterministic fault injection (the chaos harness's hook, see
    /// [`crate::driver`]): only stage-0 plans fire in a session.  An
    /// injected `panic` poisons it; a `stall` freezes it while it still
    /// reports itself runnable.
    pub fault: Option<FaultPlan>,
}

impl SessionConfig {
    /// A config with both staging rings sized to hold `cap` items.
    pub fn with_buffers(cap: u64) -> SessionConfig {
        SessionConfig {
            in_capacity: cap,
            out_capacity: cap,
            fault: None,
        }
    }
}

/// An in-flight incremental run over one compiled graph: a
/// [`Driver`] over bounded staging rings, plus poisoning.  See the
/// module docs for the contract; obtain one via
/// [`CompiledGraph::open_session`].
#[derive(Debug)]
pub struct Session {
    graph: Arc<CompiledGraph>,
    driver: Driver,
    poisoned: Option<ExecError>,
}

/// The graph's schedule at the unit stride only: a session's shards are
/// built at the unit capacities (memory per instance is what a daemon
/// multiplies by its instance count), so it never lends the batch.
fn unit_schedule(graph: &CompiledGraph) -> Schedule<'_> {
    Schedule {
        batch: None,
        ..graph.plan().schedule()
    }
}

impl Session {
    /// Open a session over `graph` with staging rings per `cfg`.
    /// Graphs whose steady state emits nothing are rejected with
    /// [`ExecError::NoSteadyOutput`]: a stream served incrementally
    /// must produce a stream.
    pub fn open(graph: Arc<CompiledGraph>, cfg: &SessionConfig) -> Result<Session, ExecError> {
        let sched = unit_schedule(&graph);
        let stats = sched.stats;
        if stats.round_out == 0 {
            return Err(ExecError::NoSteadyOutput);
        }
        let in_cap = cfg
            .in_capacity
            .max(stats.init_in_required)
            .max(stats.round_in_required);
        let out_cap = cfg.out_capacity.max(stats.init_out).max(stats.round_out);
        let shards = build_shards(&sched, &[], in_cap, out_cap)?;
        let driver = Driver::new(shards, 0, "session", cfg.fault, None);
        Ok(Session {
            graph,
            driver,
            poisoned: None,
        })
    }

    /// The compiled graph this session runs.
    pub fn graph(&self) -> &Arc<CompiledGraph> {
        &self.graph
    }

    /// Stage input items, coercing to the graph's external element type
    /// exactly as the one-shot path preloads.  Returns how many items
    /// were accepted — fewer than `items.len()` when the staging ring
    /// fills, which is the backpressure signal.
    pub fn push_input(&mut self, items: &[f64]) -> usize {
        self.driver.tape_mut(EXT_IN).extend_from_f64(items)
    }

    /// Drain up to `max` produced items in stream order.
    pub fn pull_output(&mut self, max: usize) -> Vec<f64> {
        match self.driver.tape_mut(EXT_OUT) {
            Tape::F(ring) => {
                let n = (max as u64).min(ring.len());
                let mut out = vec![0.0; n as usize];
                ring.copy_out(n, &mut out);
                ring.advance(n);
                out
            }
            // The output slot is always built as a Float ring.
            Tape::I(_) => Vec::new(),
        }
    }

    /// Advance the schedule: run initialization once its required input
    /// window is staged, then up to `max_iters` steady iterations while
    /// input and output-space last.  Returns the number of steady
    /// iterations completed this call (0 is not an error — it means
    /// blocked; see [`Session::blocked`]).
    ///
    /// Any op fault or panic poisons the session: that error is
    /// returned now and from every later `step`.
    pub fn step(&mut self, max_iters: u64) -> Result<u64, ExecError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match self.driver.drive(&unit_schedule(&self.graph), max_iters) {
            Ok((ran, _)) => Ok(ran),
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Why the next phase cannot run right now ([`Stop::NeedInput`] or
    /// [`Stop::NeedOutputSpace`]), or `None` when a `step` would make
    /// progress.  A session that reports `None` yet steps zero
    /// iterations is stalled — the signal a supervisor acts on.
    pub fn blocked(&self) -> Option<Stop> {
        self.driver.gate(&unit_schedule(&self.graph))
    }

    /// Items currently staged on the input ring (pushed, not consumed).
    pub fn staged_input(&self) -> u64 {
        self.driver.tape(EXT_IN).len()
    }

    /// Free slots on the input staging ring.
    pub fn input_free(&self) -> u64 {
        self.driver.tape(EXT_IN).free()
    }

    /// Produced items waiting to be pulled.
    pub fn available_output(&self) -> u64 {
        self.driver.tape(EXT_OUT).len()
    }

    /// Steady iterations completed over the session's lifetime.
    pub fn iterations(&self) -> u64 {
        self.driver.iterations()
    }

    /// The error that poisoned this session, if any.
    pub fn poisoned(&self) -> Option<&ExecError> {
        self.poisoned.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;
    use streamit_graph::{DataType, FlatGraph, StreamNode};

    fn compile(s: &StreamNode) -> Arc<CompiledGraph> {
        let g = FlatGraph::from_stream(s);
        Arc::new(CompiledGraph::compile(&g, None).expect("supported"))
    }

    fn counter_source(name: &str) -> StreamNode {
        FilterBuilder::source(name, DataType::Int)
            .rates(0, 0, 1)
            .state("i", DataType::Int, streamit_graph::Value::Int(0))
            .work(|b| b.push(var("i")).set("i", var("i") + lit(1i64)))
            .build_node()
    }

    fn moving_avg() -> StreamNode {
        FilterBuilder::new("avg", DataType::Float)
            .rates(3, 1, 1)
            .work(|b| {
                b.push((peek(lit(0i64)) + peek(lit(1i64)) + peek(lit(2i64))) / lit(3.0))
                    .pop_discard()
            })
            .build_node()
    }

    #[test]
    fn incremental_matches_one_shot_bit_identically() {
        let c = compile(&moving_avg());
        let input: Vec<f64> = (0..64).map(|i| (i as f64) * 0.37 - 3.0).collect();
        let want = c.run_collect(&input, 32).expect("one-shot runs");

        let mut s = Session::open(Arc::clone(&c), &SessionConfig::with_buffers(8)).expect("opens");
        let mut fed = 0usize;
        let mut got = Vec::new();
        // Deliberately awkward chunk sizes on both sides.
        while got.len() < 32 {
            if fed < input.len() {
                fed += s.push_input(&input[fed..input.len().min(fed + 5)]);
            }
            s.step(3).expect("steps");
            got.extend(s.pull_output(7));
        }
        got.truncate(32);
        assert_eq!(
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn source_graph_is_paced_by_output_space() {
        let c = compile(&counter_source("src"));
        let mut s = Session::open(Arc::clone(&c), &SessionConfig::with_buffers(4)).expect("opens");
        // No input needed; output space is the only brake.
        let ran = s.step(100).expect("steps");
        assert_eq!(ran, s.available_output());
        assert!(ran <= 4 + 3, "bounded by ring capacity, ran {ran}");
        assert_eq!(s.blocked(), Some(Stop::NeedOutputSpace(1)));
        let first = s.pull_output(2);
        assert_eq!(first, vec![0.0, 1.0]);
        let ran2 = s.step(100).expect("steps");
        assert!(ran2 >= 2);
    }

    #[test]
    fn push_input_applies_backpressure() {
        let c = compile(&moving_avg());
        let mut s = Session::open(Arc::clone(&c), &SessionConfig::with_buffers(4)).expect("opens");
        let cap = s.input_free();
        let accepted = s.push_input(&vec![1.0; 100]);
        assert_eq!(accepted as u64, cap);
        assert_eq!(s.push_input(&[9.0]), 0, "full ring accepts nothing");
        s.step(100).expect("steps");
        assert!(s.input_free() > 0, "stepping frees staged input");
    }

    #[test]
    fn zero_config_clamps_to_feasible_buffers() {
        let c = compile(&moving_avg());
        let mut s = Session::open(Arc::clone(&c), &SessionConfig::default()).expect("opens");
        // Must be able to make progress even with 0-requested capacity.
        assert!(s.input_free() >= 3);
        let n = s.push_input(&[1.0, 2.0, 3.0, 4.0]);
        assert!(n >= 3);
        let ran = s.step(10).expect("steps");
        assert!(ran >= 1);
        assert_eq!(s.pull_output(1), vec![2.0]);
    }

    #[test]
    fn injected_panic_poisons_only_this_session() {
        let c = compile(&counter_source("src"));
        let fault: FaultPlan = "panic@0:2".parse().expect("parses");
        let cfg = SessionConfig {
            in_capacity: 4,
            out_capacity: 4,
            fault: Some(fault),
        };
        let mut bad = Session::open(Arc::clone(&c), &cfg).expect("opens");
        let mut good =
            Session::open(Arc::clone(&c), &SessionConfig::with_buffers(4)).expect("opens");
        match bad.step(10) {
            Err(ExecError::WorkerPanic { stage, payload }) => {
                assert_eq!(stage, "session");
                assert!(payload.contains("injected fault"), "payload: {payload}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // Poisoned: the same error again, no further progress.
        assert!(matches!(bad.step(1), Err(ExecError::WorkerPanic { .. })));
        assert!(bad.poisoned().is_some());
        // The sibling session over the same Arc'd graph is untouched.
        good.step(4).expect("sibling steps");
        assert_eq!(good.pull_output(4), vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn injected_stall_reports_runnable_but_never_advances() {
        let c = compile(&counter_source("src"));
        let cfg = SessionConfig {
            in_capacity: 4,
            out_capacity: 8,
            fault: "stall@0:2".parse().ok(),
        };
        let mut s = Session::open(Arc::clone(&c), &cfg).expect("opens");
        assert_eq!(s.step(10).expect("steps"), 2);
        // Looks runnable (input satisfied, space free) yet cannot move:
        // exactly the no-progress signature a watchdog evicts on.
        assert_eq!(s.blocked(), None);
        assert_eq!(s.step(10).expect("steps"), 0);
        assert_eq!(s.iterations(), 2);
    }

    #[test]
    fn no_steady_output_graph_is_rejected() {
        let sink = FilterBuilder::sink("sink", DataType::Float)
            .rates(1, 1, 0)
            .work(|b| b.pop_discard())
            .build_node();
        let g = FlatGraph::from_stream(&sink);
        let c = Arc::new(CompiledGraph::compile(&g, None).expect("supported"));
        match Session::open(c, &SessionConfig::default()) {
            Err(ExecError::NoSteadyOutput) => {}
            other => panic!("expected NoSteadyOutput, got {other:?}"),
        }
    }
}
