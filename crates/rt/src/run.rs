//! Software-pipelined execution of a cut plan, under supervision.
//!
//! One scoped worker thread per stage.  Worker `s`, round `i`:
//!
//! 1. **Drain**: for every in-link, wait until the channel holds a full
//!    round's flow, bulk-copy it into the consumer tape, retire it.
//! 2. **Fire**: one ungated round of the stage's
//!    [`Driver`] over its own shard (hooks and op walk live there).
//! 3. **Publish**: for every out-link, wait until the channel has a
//!    full round of free space, bulk-copy the staging tape into it,
//!    publish, drain the staging tape.
//!
//! Stage `s` can only start round `i` after stage `s-1` published
//! round `i`, but stage `s-1` immediately proceeds to round `i+1` —
//! the pipeline overlap — and is throttled only by channel capacity
//! (several rounds of headroom), i.e. backpressure instead of barriers.
//! Because stages partition a topological order, links only point
//! forward and every channel holds at least one full round, so the wait
//! graph is acyclic and the pipeline cannot deadlock.
//!
//! # Batched rounds
//!
//! A round is the plan's batch of `b` iterations, every op fired `b` ×
//! its `times` and every link moving `b` × its flow, or one iteration,
//! as [`round_size`] decides from the iterations done and left and the
//! run's fault plan.  Every stage asks it the same questions — the
//! run's fault, not only its own stage's — so every stage works the same
//! sequence of round sizes and a drain always finds exactly what its
//! producer's round published.
//!
//! # Inline first
//!
//! Starting and joining the workers costs a few hundred microseconds
//! whose length the host's scheduler decides.  A bare run therefore
//! begins in [`run_inline`]: the same rounds over the same channels, the
//! stages taking turns on the calling thread, and workers only for what
//! is left once [`INLINE_BUDGET`] has passed (`ParallelGraph::run`).
//!
//! # Supervision
//!
//! Three fault classes are contained here rather than leaking to the
//! caller as hangs or aborts:
//!
//! * **Faults** abort the whole pipeline: the failing worker stores the
//!   first error, raises the abort flag, and every wait loop checks the
//!   flag so no worker spins forever on a dead neighbour.
//! * **Panics** are contained at the stage boundary (each worker body
//!   runs under [`streamit_exec::driver::contain`]) and come back as
//!   [`ExecError::WorkerPanic`] with the stage's name and the panic
//!   payload; threads are named `rt-stage-N` so native backtraces
//!   attribute too.
//! * **Stalls** are detected by a watchdog thread (enabled by
//!   [`RunConfig::watchdog`]): each worker publishes a monotone
//!   progress counter (steady iterations completed) and a
//!   blocked-state word through cache-line-padded slots; when no
//!   counter moves for a full deadline the watchdog aborts the run
//!   with [`ExecError::Stalled`], carrying a per-stage snapshot of
//!   iteration counts and which link each worker was blocked on.
//!
//! Waiting itself is staged backoff — spin, then yield, then short
//! parks with escalating timeouts — so a blocked stage on an
//! oversubscribed host does not burn a core, and the park cap bounds
//! how stale an abort check can be.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use streamit_exec::driver::{contain, round_size, Driver, Schedule};
use streamit_exec::engine::Shard;
use streamit_exec::{panic_payload, ExecError, FaultPlan, StageSnapshot};

use crate::spsc::{CachePadded, Channel};
use crate::{Link, ParallelGraph};

/// Channel capacity in rounds of flow: enough headroom that a producer
/// a few rounds ahead is not throttled, small enough to bound memory
/// and keep the working set cache-resident.
const CHANNEL_ROUNDS: u64 = 4;

/// Per-run supervision knobs.  The default is a bare run: no watchdog,
/// no fault injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunConfig {
    /// Abort with [`ExecError::Stalled`] when no stage completes an
    /// iteration for this long.  `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// Chaos-harness fault injection; `None` in production.
    pub fault: Option<FaultPlan>,
}

// Staged-backoff schedule for `wait_until`: pure spins first (the
// common case — the peer publishes within nanoseconds), then yields
// (let the peer run on an oversubscribed host), then parks with an
// escalating timeout so a long-blocked stage costs ~0 CPU.  The park
// cap bounds the latency of noticing an abort.
const SPIN_LIMIT: u32 = 64;
const YIELD_LIMIT: u32 = SPIN_LIMIT + 32;
const PARK_MIN_US: u64 = 5;
const PARK_MAX_US: u64 = 500;

/// Wait until `ready()` with staged backoff.  Returns `false` when the
/// pipeline aborted.  Nobody unparks waiters, so `park_timeout` acts as
/// a bounded sleep: correctness never depends on a wake, only the
/// re-check loop.
fn wait_until(abort: &AtomicBool, mut ready: impl FnMut() -> bool) -> bool {
    let mut spins = 0u32;
    let mut park_us = PARK_MIN_US;
    loop {
        if ready() {
            return true;
        }
        if abort.load(Ordering::Acquire) {
            return false;
        }
        spins = spins.saturating_add(1);
        if spins < SPIN_LIMIT {
            std::hint::spin_loop();
        } else if spins < YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(Duration::from_micros(park_us));
            park_us = (park_us * 2).min(PARK_MAX_US);
        }
    }
}

// Blocked-state word per stage, polled by the watchdog to build the
// stall snapshot.  Small even values = blocked draining link c; small
// odd values = blocked publishing link c; the top values are the
// non-blocked states (a link index can never reach them: links are
// bounded by the plan's u16 tape addressing).
const STATE_RUNNING: u64 = u64::MAX;
const STATE_FINISHED: u64 = u64::MAX - 1;
const STATE_STALL_INJECTED: u64 = u64::MAX - 2;

fn state_draining(c: usize) -> u64 {
    (c as u64) * 2
}

fn state_publishing(c: usize) -> u64 {
    (c as u64) * 2 + 1
}

/// One stage's supervision slots, each on its own cache line so the
/// watchdog's polling never contends with a worker's hot loop.
struct StageStatus {
    /// Steady iterations completed (monotone; written by the worker).
    progress: CachePadded<AtomicU64>,
    /// Blocked-state word (see the `STATE_*` encoding).
    state: CachePadded<AtomicU64>,
    /// Scaled rounds the stage's driver ran, written when it finishes.
    scaled_rounds: AtomicU64,
}

impl StageStatus {
    fn new() -> StageStatus {
        StageStatus {
            progress: CachePadded(AtomicU64::new(0)),
            state: CachePadded(AtomicU64::new(STATE_RUNNING)),
            scaled_rounds: AtomicU64::new(0),
        }
    }
}

struct Pipeline<'p> {
    pg: &'p ParallelGraph,
    channels: Vec<Channel>,
    abort: AtomicBool,
    error: Mutex<Option<ExecError>>,
    status: Vec<StageStatus>,
    fault: Option<FaultPlan>,
    /// The stages take turns on one thread ([`run_inline`]): a link that
    /// is not ready will not become so by waiting.
    lockstep: bool,
    /// The plan's batch factor, 1 when it has none.
    batch: u32,
}

/// What a round of stage `s` works on: its ops, and the links it drains
/// before them and publishes after, each with its channel index.
struct StageLinks<'p> {
    sched: Schedule<'p>,
    ins: Vec<(usize, &'p Link)>,
    outs: Vec<(usize, &'p Link)>,
}

impl<'p> Pipeline<'p> {
    /// The pipeline for `k` iterations of `pg` under `fault`.
    fn new(pg: &'p ParallelGraph, fault: Option<FaultPlan>, k: u64) -> Pipeline<'p> {
        let batch = pg.plan().batch.as_ref().map_or(1, |b| b.k);
        let rounds = CHANNEL_ROUNDS * u64::from(round_size(batch, None, 0, k));
        Pipeline {
            pg,
            channels: pg
                .links()
                .iter()
                .map(|l| Channel::with_capacity(l.ty, l.flow.saturating_mul(rounds)))
                .collect(),
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
            status: (0..pg.stages()).map(|_| StageStatus::new()).collect(),
            fault,
            lockstep: false,
            batch,
        }
    }

    fn stage_links(&self, s: usize) -> StageLinks<'p> {
        let links_where = |pick: fn(&Link) -> usize| -> Vec<(usize, &'p Link)> {
            let links = self.pg.links().iter().enumerate();
            links.filter(|(_, l)| pick(l) == s).collect()
        };
        StageLinks {
            sched: self.pg.stage_schedule(s),
            ins: links_where(|l| l.dst_stage),
            outs: links_where(|l| l.src_stage),
        }
    }

    /// A worker waits for its neighbour; a lock-step round only looks.
    fn wait(&self, mut ready: impl FnMut() -> bool) -> bool {
        if self.lockstep {
            ready()
        } else {
            wait_until(&self.abort, ready)
        }
    }

    fn fail(&self, e: ExecError) {
        if let Ok(mut slot) = self.error.lock() {
            slot.get_or_insert(e);
        }
        self.abort.store(true, Ordering::Release);
    }

    /// Per-stage snapshot for the stall diagnostic: completed
    /// iterations plus what each worker was last observed doing.
    fn snapshot(&self) -> Vec<StageSnapshot> {
        self.status
            .iter()
            .enumerate()
            .map(|(s, st)| {
                let state = match st.state.0.load(Ordering::Relaxed) {
                    STATE_RUNNING => "running".to_string(),
                    STATE_FINISHED => "finished".to_string(),
                    STATE_STALL_INJECTED => "stalled (injected fault)".to_string(),
                    code => {
                        let c = (code / 2) as usize;
                        let verb = if code % 2 == 0 {
                            "draining"
                        } else {
                            "publishing"
                        };
                        match self.pg.links().get(c) {
                            Some(l) => format!(
                                "blocked {verb} link {c} (stage {} -> {})",
                                l.src_stage, l.dst_stage
                            ),
                            None => format!("blocked {verb} link {c}"),
                        }
                    }
                };
                StageSnapshot {
                    stage: s,
                    iterations: st.progress.0.load(Ordering::Relaxed),
                    state,
                }
            })
            .collect()
    }

    /// Watchdog body: poll every `deadline / 8` (clamped to 1–25 ms);
    /// when no stage's progress counter moves for a full deadline,
    /// abort the run with a [`ExecError::Stalled`] snapshot.  `done` is
    /// set by the coordinator after all workers joined.
    fn watchdog(&self, deadline: Duration, done: &AtomicBool) {
        let poll = (deadline / 8).clamp(Duration::from_millis(1), Duration::from_millis(25));
        let mut last: Vec<u64> = self
            .status
            .iter()
            .map(|s| s.progress.0.load(Ordering::Relaxed))
            .collect();
        let mut last_change = Instant::now();
        loop {
            std::thread::park_timeout(poll);
            if done.load(Ordering::Acquire) || self.abort.load(Ordering::Acquire) {
                return;
            }
            let now: Vec<u64> = self
                .status
                .iter()
                .map(|s| s.progress.0.load(Ordering::Relaxed))
                .collect();
            if now != last {
                last = now;
                last_change = Instant::now();
            } else if self
                .status
                .iter()
                .all(|s| s.state.0.load(Ordering::Relaxed) == STATE_FINISHED)
            {
                // Everyone finished; the coordinator is about to set
                // `done`.  Quiescence is not a stall.
                last_change = Instant::now();
            } else if last_change.elapsed() >= deadline {
                self.fail(ExecError::Stalled {
                    deadline_ms: deadline.as_millis() as u64,
                    stages: self.snapshot(),
                });
                return;
            }
        }
    }

    /// Worker `s`: `k` iterations of drain/fire/publish rounds under
    /// panic containment.  Returns the shard so the output tape survives the
    /// scope (an empty one after a panic).
    fn worker(&self, s: usize, shard: Shard, k: u64) -> Shard {
        contain(&format!("stage {s}"), || {
            let mut driver = Driver::new(vec![shard], s as u16, "stage", self.fault, None).primed();
            self.worker_iters(s, &mut driver, k);
            Ok(driver.into_parts().0.pop().unwrap_or_default())
        })
        .unwrap_or_else(|e| {
            self.fail(e);
            Shard::default()
        })
    }

    fn worker_iters(&self, s: usize, driver: &mut Driver, k: u64) {
        let links = self.stage_links(s);
        let mut done = 0;
        while done < k {
            let scale = round_size(self.batch, self.fault.map(|f| f.iteration), done, k - done);
            if !self.round(s, driver, &links, scale) {
                return;
            }
            done += u64::from(scale);
        }
        let status = &self.status[s];
        let scaled = driver.scaled_rounds();
        status.scaled_rounds.store(scaled, Ordering::Relaxed);
        status.state.0.store(STATE_FINISHED, Ordering::Relaxed);
    }

    /// One drain/fire/publish round of stage `s`, `scale` iterations
    /// long.  Returns `false` when the run must stop: the pipeline
    /// aborted, this stage failed (the error is recorded), or a
    /// lock-step round found a link not ready.
    fn round(&self, s: usize, driver: &mut Driver, links: &StageLinks<'_>, scale: u32) -> bool {
        let fault = |reason: String| ExecError::Fault {
            node: format!("stage {s}"),
            reason,
        };
        let status = &self.status[s];
        for &(c, l) in &links.ins {
            let ch = &self.channels[c];
            let n = l.flow * u64::from(scale);
            status.state.0.store(state_draining(c), Ordering::Relaxed);
            if !self.wait(|| ch.available() >= n) {
                return false;
            }
            if let Err(reason) = ch.consume_into_tape(driver.tape_mut(l.dst), n) {
                self.fail(fault(reason));
                return false;
            }
        }
        status.state.0.store(STATE_RUNNING, Ordering::Relaxed);
        match driver.iterate(&links.sched, scale) {
            Ok(true) => {}
            Ok(false) => {
                // An injected stall simulates a hung worker: publish
                // nothing and make no progress, but keep checking
                // the abort flag so the scope can always join us —
                // it must be detectable, never an actual test hang.
                status
                    .state
                    .0
                    .store(STATE_STALL_INJECTED, Ordering::Relaxed);
                while !self.abort.load(Ordering::Acquire) {
                    std::thread::park_timeout(Duration::from_millis(1));
                }
                return false;
            }
            Err(e) => {
                self.fail(e);
                return false;
            }
        }
        // The batch publishes atomically after the round, so consumers
        // only ever see completed rounds — late under an injected
        // delay, never partial.
        for &(c, l) in &links.outs {
            let ch = &self.channels[c];
            let n = l.flow * u64::from(scale);
            status.state.0.store(state_publishing(c), Ordering::Relaxed);
            if !self.wait(|| ch.free() >= n) {
                return false;
            }
            let tape = driver.tape_mut(l.staging);
            if let Err(reason) = ch.produce_from_tape(tape, n) {
                self.fail(fault(reason));
                return false;
            }
            tape.advance(n);
        }
        status.state.0.store(STATE_RUNNING, Ordering::Relaxed);
        let done = driver.iterations();
        status.progress.0.store(done, Ordering::Relaxed);
        true
    }
}

/// How long a bare run of several stages goes on in lock-step on the
/// calling thread before it starts workers: ten times what starting and
/// joining two of them costs (about 0.2 ms).
pub(crate) const INLINE_BUDGET: Duration = Duration::from_millis(2);

/// Run steady iterations of a cut plan on the calling thread, the
/// stages taking turns: stage 0's round, stage 1's, and so on, each
/// draining what the one before has just published.  Links only point
/// forward, so every drain finds its round there and every channel is
/// empty again when the round ends: the shards alone carry the run on,
/// here or in [`run_pipelined`].  Stops after `k` iterations, or after
/// the first round that ends past `budget`; returns the shards and how
/// many iterations ran.  The rounds are the workers' own
/// ([`Pipeline::round`]), so the output is the same items in the same
/// order.
pub(crate) fn run_inline(
    pg: &ParallelGraph,
    shards: Vec<Shard>,
    k: u64,
    budget: Duration,
) -> Result<(Vec<Shard>, u64), ExecError> {
    let pipe = Pipeline {
        lockstep: true,
        ..Pipeline::new(pg, None, k)
    };
    contain("inline stages", || {
        let mut stages: Vec<(Driver, StageLinks<'_>)> = shards
            .into_iter()
            .enumerate()
            .map(|(s, shard)| {
                let driver = Driver::new(vec![shard], s as u16, "stage", None, None).primed();
                (driver, pipe.stage_links(s))
            })
            .collect();
        let start = Instant::now();
        let mut done = 0;
        while done < k {
            let scale = round_size(pipe.batch, pipe.fault.map(|f| f.iteration), done, k - done);
            for (s, (driver, links)) in stages.iter_mut().enumerate() {
                if !pipe.round(s, driver, links, scale) {
                    let recorded = pipe.error.lock().ok().and_then(|mut slot| slot.take());
                    return Err(recorded.unwrap_or_else(|| ExecError::Fault {
                        node: format!("stage {s}"),
                        reason: "a lock-step round found a link not ready".into(),
                    }));
                }
            }
            done += u64::from(scale);
            if start.elapsed() >= budget {
                break;
            }
        }
        let shards = stages
            .into_iter()
            .map(|(driver, _)| driver.into_parts().0.pop().unwrap_or_default())
            .collect();
        Ok((shards, done))
    })
}

/// Run `k` steady iterations of a cut plan on one worker thread per
/// stage under `cfg`: [`run_workers`] on a fresh pipeline.
pub(crate) fn run_pipelined(
    pg: &ParallelGraph,
    shards: Vec<Shard>,
    k: u64,
    cfg: &RunConfig,
) -> Result<Vec<Shard>, ExecError> {
    run_workers(&Pipeline::new(pg, cfg.fault, k), shards, k, cfg.watchdog)
}

/// Run `k` steady iterations of `pipe` from `shards` on one worker
/// thread per stage, returning the shards (the caller extracts the
/// output tape) or the first fault.  Workers are named `rt-stage-N`,
/// panics are caught and attributed, and — given a `watchdog` deadline
/// — silent stalls become [`ExecError::Stalled`].
fn run_workers(
    pipe: &Pipeline<'_>,
    shards: Vec<Shard>,
    k: u64,
    watchdog: Option<Duration>,
) -> Result<Vec<Shard>, ExecError> {
    let done = AtomicBool::new(false);
    let done_ref = &done;
    let shards = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(s, shard)| {
                std::thread::Builder::new()
                    .name(format!("rt-stage-{s}"))
                    .spawn_scoped(scope, move || pipe.worker(s, shard, k))
            })
            .collect();
        // A failed spawn must abort *before* we join anything: the
        // workers already running may be blocked on the stage that
        // never started.
        if handles.iter().any(|h| h.is_err()) {
            pipe.fail(ExecError::Fault {
                node: "pipeline".into(),
                reason: "failed to spawn a worker thread".into(),
            });
        }
        let dog = watchdog.map(|deadline| scope.spawn(move || pipe.watchdog(deadline, done_ref)));
        let shards: Vec<Shard> = handles
            .into_iter()
            .map(|h| match h {
                Ok(h) => h.join().unwrap_or_else(|p| {
                    // Workers convert their own panics; reaching this
                    // arm means the conversion itself panicked.  Keep
                    // the contract anyway.
                    pipe.fail(ExecError::WorkerPanic {
                        stage: "pipeline".into(),
                        payload: panic_payload(p.as_ref()),
                    });
                    Shard::default()
                }),
                Err(_) => Shard::default(),
            })
            .collect();
        done.store(true, Ordering::Release);
        if let Some(d) = dog {
            let _ = d.join();
        }
        shards
    });
    if let Ok(mut slot) = pipe.error.lock() {
        if let Some(e) = slot.take() {
            return Err(e);
        }
    }
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::staged_pipeline;
    use streamit_exec::driver::read_output;
    use streamit_graph::FlatGraph;

    /// A fault on stage 1 of two at `f = 2b + 3`, in a run of `5b`
    /// iterations of a plan batching `b`: every stage's rounds go
    /// `0, b` scaled, `2b, 2b + 1, 2b + 2` unit, `f, f + b` scaled, and
    /// the last `b - 3` unit.  A round starts at `f`, so each fault
    /// lands on its own iteration, and both stages count the same four
    /// scaled rounds.
    #[test]
    fn a_fault_on_one_stage_caps_every_stage_round_at_its_iteration() {
        let pg = ParallelGraph::compile(&FlatGraph::from_stream(&staged_pipeline()), None, 2)
            .expect("accepts");
        assert_eq!(pg.stages(), 2);
        let b = pg.plan().batch.as_ref().map_or(1, |b| u64::from(b.k));
        assert!(b > 3, "batch {b}");
        let (f, n) = (2 * b + 3, 5 * b);
        let plan = |kind: &str| format!("{kind}@1:{f}").parse::<FaultPlan>().ok();
        let cfg = |kind, watchdog| RunConfig {
            watchdog,
            fault: plan(kind),
        };

        match pg.run(&[], n, &cfg("panic", None)) {
            Err(ExecError::WorkerPanic { stage, payload }) => {
                assert_eq!(stage, "stage 1");
                assert!(
                    payload.ends_with(&format!("stage 1 iteration {f}")),
                    "{payload}"
                );
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }

        let mut delay = plan("delay").expect("parses");
        delay.delay_ms = 1;
        let pipe = Pipeline::new(&pg, Some(delay), n);
        let shards = pg.initialized(&[], n).expect("initializes");
        let shards = run_workers(&pipe, shards, n, None).expect("runs");
        let bits = |out: Vec<f64>| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let delayed = read_output(&shards, pg.schedule().ext_out).expect("reads");
        let bare = pg.run_steady(&[], n).expect("runs");
        assert_eq!(bits(delayed), bits(bare));
        let scaled = pipe
            .status
            .iter()
            .map(|st| st.scaled_rounds.load(Ordering::Relaxed));
        assert_eq!(scaled.collect::<Vec<_>>(), [4, 4]);

        match pg.run(&[], n, &cfg("stall", Some(Duration::from_millis(100)))) {
            Err(ExecError::Stalled { stages, .. }) => {
                assert_eq!(stages[1].iterations, f, "{stages:?}");
                assert!(stages[1].state.contains("injected"), "{stages:?}");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }
}
