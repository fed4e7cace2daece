//! The steady-state driver: the one place the execution model — an
//! initialization schedule, then a repeated steady-state schedule — is
//! walked.
//!
//! A [`Driver`] owns a run's shards, its position (initialization done,
//! steady iterations completed) and its per-round hooks (an injected
//! [`FaultPlan`], an [`OpProfiler`]).  The op lists stay with the plan
//! that owns them and are lent per call as a [`Schedule`], so a
//! [`crate::Session`] can keep a driver beside its `Arc`'d graph and the
//! multicore runtime can swap plans between calls.  A one-shot run
//! [`preload`]s the input its `k` iterations read and calls
//! [`Driver::drive`]`(k)`; a session drives over bounded staging rings;
//! a multicore stage worker calls the ungated [`Driver::iterate`]
//! between its channel drain and publish.  All of them size every round
//! with [`round_size`].
//!
//! # Injected faults
//!
//! A fault fires at the start of the round that begins at the steady
//! iteration it names, on the driver whose shard base equals its stage.
//! `panic` panics (reported as [`ExecError::WorkerPanic`]); `delay`
//! sleeps after the round's ops, before anyone can see its outputs.
//! `stall` runs nothing and is surfaced — [`Stop::StallInjected`] from
//! `drive`, `false` from `iterate` — because what a stall *means*
//! belongs to the caller: a one-shot run has no peer to block on and
//! nobody watching, so it never arms one; a session stays frozen at
//! that iteration while its gate still says runnable (the signature a
//! supervising daemon evicts on); a stage worker parks until the run is
//! aborted (what the pipeline watchdog detects).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use streamit_graph::{DataType, Value};

use crate::bytecode::FilterCode;
use crate::engine::{run_ops, run_ops_profiled, Frame, LaneBank, OpProfiler, Shard};
use crate::plan::{Batch, Loc, Op, Stats, TapeSpec};
use crate::tape::Tape;
use crate::{panic_payload, ExecError, FaultKind, FaultPlan};

/// What a driver needs from a plan, borrowed from whichever plan owns
/// it.  One steady iteration is one walk of `steady`; `Loc`s resolve
/// against the driver's shards.
#[derive(Debug, Clone, Copy)]
pub struct Schedule<'p> {
    pub codes: &'p [FilterCode],
    pub tapes: &'p [Vec<TapeSpec>],
    pub frames: &'p [Vec<u32>],
    pub input_ty: DataType,
    pub stats: Stats,
    /// Where the external streams live; `None` when no node reads
    /// (writes) one, which also switches that side of the gate off.
    pub ext_in: Option<Loc>,
    pub ext_out: Option<Loc>,
    pub init: &'p [Op],
    pub steady: &'p [Op],
    /// The longer stride the plan proved for these op lists, when the
    /// lender wants it taken: [`build_shards`] then sizes the channel
    /// tapes for it and [`Driver::drive`] runs scaled rounds.
    pub batch: Option<&'p Batch>,
}

/// Why [`Driver::drive`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The requested iterations all ran.
    Budget,
    /// The external input ring is short this many items of the next
    /// phase's required window.
    NeedInput(u64),
    /// The external output ring is short this many free slots of the
    /// next phase's emissions.
    NeedOutputSpace(u64),
    /// An injected stall is holding the next iteration.
    StallInjected,
}

/// Iterations the next round runs, `done` run and `left` to go: the
/// batch's `k` while at least `k` are left and no armed fault
/// iteration `fault` lies strictly inside the round (`done < fault <
/// done + k`), one otherwise — so some round starts exactly at it.
pub fn round_size(k: u32, fault: Option<u64>, done: u64, left: u64) -> u32 {
    let inside = fault.is_some_and(|f| f > done && f - done < u64::from(k));
    if left >= u64::from(k) && !inside {
        k
    } else {
        1
    }
}

/// Run `f`, converting a panic into [`ExecError::WorkerPanic`]
/// attributed to `label`.  The engines' only `catch_unwind`.
pub fn contain<T>(label: &str, f: impl FnOnce() -> Result<T, ExecError>) -> Result<T, ExecError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        Err(ExecError::WorkerPanic {
            stage: label.to_string(),
            payload: panic_payload(p.as_ref()),
        })
    })
}

/// Materialize a run's shards: the external input ring holding `input`
/// (coerced to the plan's input type, like the reference machine's
/// feed) with room for at least `in_cap` items, the external output
/// ring with room for `out_cap`, every channel tape sized by the count
/// simulation (at the batch capacities when `s` lends a batch) and
/// preloaded with its initial items.  The external rings are as large
/// as the caller asks, so theirs is the allocation that can be refused:
/// [`ExecError::TooLarge`].
pub fn build_shards(
    s: &Schedule<'_>,
    input: &[f64],
    in_cap: u64,
    out_cap: u64,
) -> Result<Vec<Shard>, ExecError> {
    let external = |ty, what, items| {
        Tape::try_with_capacity(ty, items).ok_or(ExecError::TooLarge { what, items })
    };
    let tape = |here: Loc, spec: &TapeSpec| {
        if Some(here) == s.ext_in {
            let items = in_cap.max(input.len() as u64);
            let mut t = external(s.input_ty, "input ring", items)?;
            t.extend_from_f64(input);
            return Ok(t);
        }
        if Some(here) == s.ext_out {
            return external(DataType::Float, "output ring", out_cap);
        }
        let cap = s.batch.map_or(spec.cap, |b| {
            b.caps[here.shard as usize][here.slot as usize]
        });
        let mut t = Tape::with_capacity(spec.ty, cap);
        for v in &spec.initial {
            let _ = match v {
                Value::Int(x) => t.push_i(*x),
                Value::Float(x) => t.push_f(*x),
            };
        }
        Ok(t)
    };
    // Vectors of exactly the plan's sizes (collecting through a
    // `Result` would over-allocate, and a daemon holds thousands).
    let mut shards = Vec::with_capacity(s.tapes.len());
    for (shard, (specs, frames)) in s.tapes.iter().zip(s.frames).enumerate() {
        let mut tapes = Vec::with_capacity(specs.len());
        for (slot, spec) in specs.iter().enumerate() {
            let here = Loc {
                shard: shard as u16,
                slot: slot as u16,
            };
            tapes.push(tape(here, spec)?);
        }
        let frames = frames.iter().map(|&c| Frame::new(&s.codes[c as usize]));
        shards.push(Shard {
            tapes,
            frames: frames.collect(),
        });
    }
    Ok(shards)
}

/// The one-shot prelude: check `input` covers initialization plus `k`
/// steady iterations ([`ExecError::Starved`] otherwise), preload the
/// part of it they read — the first `required_input(k)` items, whatever
/// the caller's slice holds beyond — and size the output ring for
/// everything those iterations emit.  A run shorter than one batch gets
/// unit-capacity tapes: it could never take the scaled stride, and its
/// set-up is what a first output waits for.
pub fn preload(s: &Schedule<'_>, input: &[f64], k: u64) -> Result<Vec<Shard>, ExecError> {
    let (needed, have) = (s.stats.required_input(k), input.len() as u64);
    if have < needed {
        return Err(ExecError::Starved { needed, have });
    }
    let emitted = k.saturating_mul(s.stats.round_out);
    let out_cap = s.stats.init_out.saturating_add(emitted);
    let s = Schedule {
        batch: s.batch.filter(|b| k >= b.k.into()),
        ..*s
    };
    let read = &input[..needed as usize];
    contain("shard allocation", || build_shards(&s, read, 0, out_cap))
}

/// Copy out everything on the external output tape (empty when the
/// graph has no output site).
pub fn read_output(shards: &[Shard], ext_out: Option<Loc>) -> Result<Vec<f64>, ExecError> {
    let Some(l) = ext_out else {
        return Ok(Vec::new());
    };
    match &shards[l.shard as usize].tapes[l.slot as usize] {
        Tape::F(r) => Ok(r.to_vec()),
        Tape::I(_) => Err(ExecError::Fault {
            node: "output".into(),
            reason: "external output tape has wrong type".into(),
        }),
    }
}

/// One run's shards, position and hooks.  See the module docs.
#[derive(Debug)]
pub struct Driver {
    shards: Vec<Shard>,
    /// Shard index of `shards[0]` in the plan's `Loc` addressing.
    base: u16,
    /// Attributes panics caught by [`Driver::drive`].
    label: &'static str,
    init_done: bool,
    iterations: u64,
    /// Rounds run at a scale above one.
    scaled_rounds: u64,
    fault: Option<FaultPlan>,
    prof: Option<OpProfiler>,
    /// The lane mode's scratch, lent to every op this driver runs.
    lanes: LaneBank,
}

impl Driver {
    /// A driver at the start of a run, initialization pending.  `fault`
    /// is armed only if it targets this driver's stage (its shard
    /// base); `prof` is told about every steady round and times the
    /// ones it samples (initialization is never attributed).
    pub fn new(
        shards: Vec<Shard>,
        base: u16,
        label: &'static str,
        fault: Option<FaultPlan>,
        prof: Option<OpProfiler>,
    ) -> Driver {
        Driver {
            shards,
            base,
            label,
            init_done: false,
            iterations: 0,
            scaled_rounds: 0,
            fault: fault.filter(|f| f.stage == base),
            prof,
            lanes: LaneBank::default(),
        }
    }

    /// Mark initialization as already run elsewhere (a stage worker:
    /// initialization runs serially over all shards before they are
    /// dealt out).
    pub fn primed(mut self) -> Driver {
        self.init_done = true;
        self
    }

    /// Steady iterations completed.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Steady rounds completed at a scale above one.
    pub fn scaled_rounds(&self) -> u64 {
        self.scaled_rounds
    }

    pub fn tape(&self, l: Loc) -> &Tape {
        &self.shards[(l.shard - self.base) as usize].tapes[l.slot as usize]
    }

    pub fn tape_mut(&mut self, l: Loc) -> &mut Tape {
        &mut self.shards[(l.shard - self.base) as usize].tapes[l.slot as usize]
    }

    /// Give the shards (and the profiler, if one was attached) back.
    pub fn into_parts(self) -> (Vec<Shard>, Option<OpProfiler>) {
        (self.shards, self.prof)
    }

    /// Why the next phase (initialization, or one steady iteration)
    /// cannot run against the external rings as they stand, or `None`
    /// when it can.
    pub fn gate(&self, s: &Schedule<'_>) -> Option<Stop> {
        if self.init_done {
            self.short(s, s.stats.round_in_required, s.stats.round_out)
        } else {
            self.short(s, s.stats.init_in_required, s.stats.init_out)
        }
    }

    /// The shortfall of the external rings against a phase that needs
    /// `need_in` items staged and `need_out` slots free.
    fn short(&self, s: &Schedule<'_>, need_in: u64, need_out: u64) -> Option<Stop> {
        let staged = s.ext_in.map_or(u64::MAX, |l| self.tape(l).len());
        if staged < need_in {
            return Some(Stop::NeedInput(need_in - staged));
        }
        let free = s.ext_out.map_or(u64::MAX, |l| self.tape(l).free());
        if free < need_out {
            return Some(Stop::NeedOutputSpace(need_out - free));
        }
        None
    }

    /// Whether every tape has room for a scaled round of `b`
    /// ([`preload`] builds a short run's tapes at the unit capacities).
    fn holds(&self, b: &Batch) -> bool {
        let caps = b.caps.iter().skip(self.base as usize);
        self.shards.iter().zip(caps).all(|(shard, caps)| {
            let mut tapes = shard.tapes.iter().zip(caps);
            tapes.all(|(t, &cap)| t.capacity() >= cap)
        })
    }

    /// Run initialization once the gate admits it, then up to
    /// `max_iters` steady iterations while the gate keeps admitting
    /// them.  Returns how many ran and why it stopped.  Op faults come
    /// back as errors and so do panics, as [`ExecError::WorkerPanic`];
    /// after either the shards are in no defined state.
    ///
    /// Each round is [`round_size`] iterations long, hooks or none: `k`
    /// at a time when the schedule lends a batch the shards hold and
    /// the external rings cover all `k`, one otherwise, and it is the
    /// unit shortfall a [`Stop`] reports.
    pub fn drive(&mut self, s: &Schedule<'_>, max_iters: u64) -> Result<(u64, Stop), ExecError> {
        contain(self.label, || {
            if !self.init_done {
                if let Some(stop) = self.gate(s) {
                    return Ok((0, stop));
                }
                run_ops(
                    s.init,
                    &mut self.shards,
                    self.base,
                    s.codes,
                    1,
                    &mut self.lanes,
                )?;
                self.init_done = true;
            }
            let batch = s.batch.filter(|b| max_iters >= b.k.into() && self.holds(b));
            let armed = self.fault.map(|f| f.iteration);
            let mut ran = 0;
            while ran < max_iters {
                let scaled = batch.filter(|b| {
                    let emitted = s.stats.round_out.saturating_mul(b.k.into());
                    round_size(b.k, armed, self.iterations, max_iters - ran) == b.k
                        && self.short(s, b.round_in_required, emitted).is_none()
                });
                let scale = match scaled {
                    Some(b) => b.k,
                    None => match self.gate(s) {
                        Some(stop) => return Ok((ran, stop)),
                        None => 1,
                    },
                };
                if !self.iterate(s, scale)? {
                    return Ok((ran, Stop::StallInjected));
                }
                ran += u64::from(scale);
            }
            Ok((ran, Stop::Budget))
        })
    }

    /// `scale` ungated steady iterations as one round: hooks, then the
    /// steady ops, each fired `scale` × its `times`.  The caller sizes
    /// the round with [`round_size`], so an armed fault's iteration is
    /// always some round's first.  Returns `false`, having run nothing,
    /// when an injected stall holds this round.  Panics propagate: a
    /// caller other than [`Driver::drive`] [`contain`]s them at its
    /// thread boundary.
    pub fn iterate(&mut self, s: &Schedule<'_>, scale: u32) -> Result<bool, ExecError> {
        let inj = self.fault.filter(|f| f.iteration == self.iterations);
        match inj.map(|f| f.kind) {
            Some(FaultKind::Panic) => panic!(
                "injected fault: worker panic at stage {} iteration {}",
                self.base, self.iterations
            ),
            Some(FaultKind::Stall) => return Ok(false),
            Some(FaultKind::DelayPublish) | None => {}
        }
        let (codes, shards, lanes) = (s.codes, &mut self.shards, &mut self.lanes);
        match self.prof.as_mut() {
            Some(p) => run_ops_profiled(s.steady, shards, self.base, codes, scale, p, lanes)?,
            None => run_ops(s.steady, shards, self.base, codes, scale, lanes)?,
        }
        self.iterations += u64::from(scale);
        self.scaled_rounds += u64::from(scale > 1);
        if let Some(f) = inj {
            // Only a delay gets this far: the round is complete, late.
            std::thread::sleep(Duration::from_millis(f.delay_ms));
        }
        Ok(true)
    }
}
