//! The steady-state runtime: register frames, shards, the bytecode
//! dispatch loop, and the op executor.
//!
//! A [`Shard`] owns a set of tapes and filter frames.  Shard 0 holds the
//! external streams and every serial-stage resource; each split-join
//! branch owns one further shard so a worker thread can borrow it
//! disjointly.  Ops address resources by [`Loc`]; `run_ops` resolves
//! them against a shard slice starting at `base`, which lets the same
//! code run the serial stages (full slice, base 0) and a worker's chunk
//! (sub-slice, shifted base).  The op executor is crate-private: the
//! only code that walks a plan's op lists is [`crate::driver::Driver`].

use std::mem;
use std::time::Instant;

use streamit_graph::work::{
    float_arith, float_cmp, float_neg, float_not, int_abs, int_binop, int_unop,
};
use streamit_graph::{BinOp, Intrinsic, UnOp};

use crate::bytecode::{FilterCode, Inst, Program};
use crate::plan::{Loc, Op};
use crate::profile::ProfileReport;
use crate::tape::{move_items, Raw, Tape};
use crate::ExecError;

/// Backward jumps allowed per firing — the analogue of the reference
/// machine's per-firing statement budget, so runaway loop bounds fault
/// instead of hanging.
const MAX_BACK_JUMPS: u64 = 50_000_000;

/// One filter instance's mutable storage: the two register banks and
/// the two array arenas.  Persistent state lives in pinned low
/// registers / arena ranges and survives across firings; everything
/// else is scratch the bytecode re-writes before reading.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    pub i: Vec<i64>,
    pub f: Vec<f64>,
    pub ai: Vec<i64>,
    pub af: Vec<f64>,
    /// Native-kernel scratch (batched window / FFT real and imaginary
    /// work buffers).  Lazily sized on first kernel firing; per-frame
    /// so threaded shards never share them.
    pub kre: Vec<f64>,
    pub kim: Vec<f64>,
}

impl Frame {
    pub fn new(fc: &FilterCode) -> Frame {
        let mut fr = Frame {
            i: vec![0; fc.n_i as usize],
            f: vec![0.0; fc.n_f as usize],
            ai: vec![0; fc.arena_i as usize],
            af: vec![0.0; fc.arena_f as usize],
            kre: Vec::new(),
            kim: Vec::new(),
        };
        for &(r, v) in &fc.init_i {
            fr.i[r as usize] = v;
        }
        for &(r, v) in &fc.init_f {
            fr.f[r as usize] = v;
        }
        for (base, vs) in &fc.init_ai {
            fr.ai[*base as usize..*base as usize + vs.len()].copy_from_slice(vs);
        }
        for (base, vs) in &fc.init_af {
            fr.af[*base as usize..*base as usize + vs.len()].copy_from_slice(vs);
        }
        fr
    }
}

/// A disjointly borrowable bundle of tapes and frames.
#[derive(Debug, Default)]
pub struct Shard {
    pub tapes: Vec<Tape>,
    pub frames: Vec<Frame>,
}

#[inline]
fn take_tape(shards: &mut [Shard], loc: Loc, base: u16) -> Tape {
    mem::replace(tape_mut(shards, loc, base), Tape::placeholder())
}

#[inline]
fn tape_mut(shards: &mut [Shard], loc: Loc, base: u16) -> &mut Tape {
    &mut shards[(loc.shard - base) as usize].tapes[loc.slot as usize]
}

#[inline]
fn put_tape(shards: &mut [Shard], loc: Loc, base: u16, t: Tape) {
    *tape_mut(shards, loc, base) = t;
}

/// Two distinct tapes, both borrowed in place; `None` when `a == b` (or
/// either slot does not exist).
#[inline]
fn tape_pair(shards: &mut [Shard], a: Loc, b: Loc, base: u16) -> Option<(&mut Tape, &mut Tape)> {
    let (sa, sb) = ((a.shard - base) as usize, (b.shard - base) as usize);
    let (ia, ib) = (a.slot as usize, b.slot as usize);
    if sa == sb {
        let [x, y] = shards[sa].tapes.get_disjoint_mut([ia, ib]).ok()?;
        Some((x, y))
    } else {
        let [x, y] = shards.get_disjoint_mut([sa, sb]).ok()?;
        Some((&mut x.tapes[ia], &mut y.tapes[ib]))
    }
}

/// Execute one firing of a lowered body against a frame and its tapes.
/// Dynamic checks mirror the reference interpreter's runtime errors:
/// negative peek index, tape underflow, array bounds, division by zero,
/// and the post-firing declared-rate check.
fn exec_program(
    prog: &Program,
    fr: &mut Frame,
    input: Option<&mut Tape>,
    mut output: Option<&mut Tape>,
) -> Result<(), String> {
    let code = &prog.code[..];
    let mut pc = 0usize;
    let mut pops: u64 = 0;
    let mut pushes: u64 = 0;
    let mut back_jumps: u64 = 0;

    macro_rules! jump {
        ($t:expr) => {{
            let t = $t as usize;
            if t <= pc {
                back_jumps += 1;
                if back_jumps > MAX_BACK_JUMPS {
                    return Err("per-firing iteration budget exhausted".into());
                }
            }
            pc = t;
            continue;
        }};
    }

    while pc < code.len() {
        match code[pc] {
            Inst::ConstI { d, v } => fr.i[d as usize] = v,
            Inst::ConstF { d, v } => fr.f[d as usize] = v,
            Inst::MovI { d, s } => fr.i[d as usize] = fr.i[s as usize],
            Inst::MovF { d, s } => fr.f[d as usize] = fr.f[s as usize],
            Inst::CastIF { d, s } => fr.f[d as usize] = fr.i[s as usize] as f64,
            Inst::CastFI { d, s } => fr.i[d as usize] = fr.f[s as usize] as i64,
            Inst::BinI { op, d, a, b } => {
                fr.i[d as usize] =
                    int_binop(op, fr.i[a as usize], fr.i[b as usize]).ok_or("division by zero")?;
            }
            Inst::ArithF { op, d, a, b } => {
                fr.f[d as usize] = arith_f(op, fr.f[a as usize], fr.f[b as usize])?;
            }
            Inst::ArithFK { op, d, a, imm } => {
                fr.f[d as usize] = arith_f(op, fr.f[a as usize], imm)?;
            }
            Inst::ArithKF { op, d, b, imm } => {
                fr.f[d as usize] = arith_f(op, imm, fr.f[b as usize])?;
            }
            Inst::CmpF { op, d, a, b } => {
                fr.i[d as usize] = float_cmp(op, fr.f[a as usize], fr.f[b as usize])
                    .ok_or("non-comparison op in CmpF")?;
            }
            Inst::NegI { d, s } => fr.i[d as usize] = int_unop(UnOp::Neg, fr.i[s as usize]),
            Inst::NegF { d, s } => fr.f[d as usize] = float_neg(fr.f[s as usize]),
            Inst::NotI { d, s } => fr.i[d as usize] = int_unop(UnOp::Not, fr.i[s as usize]),
            Inst::NotF { d, s } => fr.i[d as usize] = float_not(fr.f[s as usize]),
            Inst::BitNotI { d, s } => fr.i[d as usize] = int_unop(UnOp::BitNot, fr.i[s as usize]),
            Inst::TruthyF { d, s } => fr.i[d as usize] = (fr.f[s as usize] != 0.0) as i64,
            Inst::Call1F { g, d, s } => {
                let x = fr.f[s as usize];
                fr.f[d as usize] = match g {
                    Intrinsic::Sin => x.sin(),
                    Intrinsic::Cos => x.cos(),
                    Intrinsic::Tan => x.tan(),
                    Intrinsic::Atan => x.atan(),
                    Intrinsic::Sqrt => x.sqrt(),
                    Intrinsic::Exp => x.exp(),
                    Intrinsic::Log => x.ln(),
                    Intrinsic::Floor => x.floor(),
                    Intrinsic::Ceil => x.ceil(),
                    Intrinsic::Round => x.round(),
                    _ => return Err("non-unary intrinsic in Call1F".into()),
                };
            }
            Inst::AbsI { d, s } => fr.i[d as usize] = int_abs(fr.i[s as usize]),
            Inst::AbsF { d, s } => fr.f[d as usize] = fr.f[s as usize].abs(),
            Inst::PowF { d, a, b } => fr.f[d as usize] = fr.f[a as usize].powf(fr.f[b as usize]),
            Inst::MinMaxI { max, d, a, b } => {
                let (a, b) = (fr.i[a as usize], fr.i[b as usize]);
                fr.i[d as usize] = if max { a.max(b) } else { a.min(b) };
            }
            Inst::MinMaxF { max, d, a, b } => {
                let (a, b) = (fr.f[a as usize], fr.f[b as usize]);
                fr.f[d as usize] = if max { a.max(b) } else { a.min(b) };
            }
            Inst::LoadI { d, base, len, idx } => {
                let k = arena_index(fr.i[idx as usize], len)?;
                fr.i[d as usize] = fr.ai[base as usize + k];
            }
            Inst::LoadF { d, base, len, idx } => {
                let k = arena_index(fr.i[idx as usize], len)?;
                fr.f[d as usize] = fr.af[base as usize + k];
            }
            Inst::StoreI { base, len, idx, s } => {
                let k = arena_index(fr.i[idx as usize], len)?;
                fr.ai[base as usize + k] = fr.i[s as usize];
            }
            Inst::StoreF { base, len, idx, s } => {
                let k = arena_index(fr.i[idx as usize], len)?;
                fr.af[base as usize + k] = fr.f[s as usize];
            }
            Inst::ZeroI { base, len } => {
                fr.ai[base as usize..(base + len) as usize].fill(0);
            }
            Inst::ZeroF { base, len } => {
                fr.af[base as usize..(base + len) as usize].fill(0.0);
            }
            Inst::PeekI { d, idx } => {
                let at = peek_offset(fr.i[idx as usize], pops)?;
                fr.i[d as usize] = peek_i(input.as_deref(), at)?;
            }
            Inst::PeekF { d, idx } => {
                let at = peek_offset(fr.i[idx as usize], pops)?;
                fr.f[d as usize] = peek_f(input.as_deref(), at)?;
            }
            Inst::PeekIK { d, k } => {
                fr.i[d as usize] = peek_i(input.as_deref(), pops + k as u64)?;
            }
            Inst::PeekFK { d, k } => {
                fr.f[d as usize] = peek_f(input.as_deref(), pops + k as u64)?;
            }
            Inst::DotPeekF { d, a, k, n, at } => match input.as_deref() {
                Some(Tape::F(r)) => {
                    let coef = prog
                        .pool
                        .get(at as usize..at as usize + n as usize)
                        .ok_or("constant pool index out of range")?;
                    let (head, tail) = r
                        .window(pops + k as u64, n as u64)
                        .ok_or("peek beyond available input")?;
                    // The sum stays in a machine register; taps are
                    // added in source order with separate roundings
                    // (never `mul_add`), exactly as `n` generic taps.
                    let (ch, ct) = coef.split_at(head.len());
                    let mut sum = fr.f[a as usize];
                    for (p, c) in head.iter().zip(ch) {
                        sum += p * c;
                    }
                    for (p, c) in tail.iter().zip(ct) {
                        sum += p * c;
                    }
                    fr.f[d as usize] = sum;
                }
                _ => return Err("float peek on non-float tape".into()),
            },
            Inst::Skip { n } => match input.as_deref() {
                Some(t) if pops + n as u64 <= t.len() => pops += n as u64,
                Some(_) => return Err("pop from empty tape".into()),
                None => return Err("pop without input tape".into()),
            },
            Inst::PopI { d } => match input.as_deref() {
                Some(Tape::I(r)) => {
                    fr.i[d as usize] = r.get(pops).ok_or("pop from empty tape")?;
                    pops += 1;
                }
                _ => return Err("int pop on non-int tape".into()),
            },
            Inst::PopF { d } => match input.as_deref() {
                Some(Tape::F(r)) => {
                    fr.f[d as usize] = r.get(pops).ok_or("pop from empty tape")?;
                    pops += 1;
                }
                _ => return Err("float pop on non-float tape".into()),
            },
            Inst::PushI { s } => {
                let out = output.as_deref_mut().ok_or("push without output tape")?;
                out.push_i(fr.i[s as usize])
                    .map_err(|()| "output tape capacity exceeded")?;
                pushes += 1;
            }
            Inst::PushF { s } => {
                let out = output.as_deref_mut().ok_or("push without output tape")?;
                out.push_f(fr.f[s as usize])
                    .map_err(|()| "output tape capacity exceeded")?;
                pushes += 1;
            }
            Inst::Jmp { target } => jump!(target),
            Inst::Jz { c, target } => {
                if fr.i[c as usize] == 0 {
                    jump!(target);
                }
            }
        }
        pc += 1;
    }

    if pops != prog.rates.pop || pushes != prog.rates.push {
        return Err(format!(
            "rate violation: declared pop {} push {}, performed pop {pops} push {pushes}",
            prog.rates.pop, prog.rates.push
        ));
    }
    if let Some(t) = input {
        t.advance(pops);
    }
    Ok(())
}

/// [`float_arith`], or the fault for an operator the lowering never
/// puts in an `ArithF*` instruction.
#[inline]
fn arith_f(op: BinOp, a: f64, b: f64) -> Result<f64, &'static str> {
    float_arith(op, a, b).ok_or("non-arithmetic op in float arithmetic")
}

#[inline]
fn arena_index(ix: i64, len: u32) -> Result<usize, String> {
    if ix < 0 || ix as u64 >= len as u64 {
        Err(format!("array index {ix} out of bounds (len {len})"))
    } else {
        Ok(ix as usize)
    }
}

/// The item `at` positions past the read cursor of an int tape.
#[inline]
fn peek_i(input: Option<&Tape>, at: u64) -> Result<i64, &'static str> {
    match input {
        Some(Tape::I(r)) => r.get(at).ok_or("peek beyond available input"),
        _ => Err("int peek on non-int tape"),
    }
}

#[inline]
fn peek_f(input: Option<&Tape>, at: u64) -> Result<f64, &'static str> {
    match input {
        Some(Tape::F(r)) => r.get(at).ok_or("peek beyond available input"),
        _ => Err("float peek on non-float tape"),
    }
}

#[inline]
fn peek_offset(ix: i64, pops: u64) -> Result<u64, String> {
    if ix < 0 {
        Err(format!("peek at negative index {ix}"))
    } else {
        Ok(pops + ix as u64)
    }
}

/// Amortized-sampling work-op profiler.
///
/// Counters are indexed by filter-code index (one per lowered filter
/// instance).  Sampling is decided per *steady iteration*, not per op:
/// the driver announces each iteration, and one iteration in `period`
/// is a *sampled* iteration during which every work-op invocation is
/// timed with the monotonic clock (the whole firing batch `times`
/// attributed to the sample).  Unsampled iterations execute through
/// plain `run_ops` calls — zero per-op bookkeeping — which keeps
/// profiler overhead flat even for graphs of many tiny filters.  Because a
/// steady iteration executes the same op list every time, per-code
/// firing totals scale exactly from the sampled iterations
/// (`recorded × iterations / sampled_iterations`).  The first
/// iteration is always sampled so short runs still cover every filter.
/// With no profiler attached the hot path (`run_ops`) is all that runs.
#[derive(Debug, Clone)]
pub struct OpProfiler {
    period: u32,
    /// Countdown to the next sampled iteration.
    tick: u32,
    /// Whether the current iteration is being sampled.
    sampling: bool,
    iterations: u64,
    sampled_iterations: u64,
    /// Firings observed during sampled iterations only.
    firings: Vec<u64>,
    sampled_firings: Vec<u64>,
    sampled_ns: Vec<u64>,
}

impl OpProfiler {
    /// `period = 1` times every iteration; larger periods time one
    /// iteration in `period`.
    pub fn new(n_codes: usize, period: u32) -> OpProfiler {
        OpProfiler {
            period: period.max(1),
            tick: 0,
            sampling: false,
            iterations: 0,
            sampled_iterations: 0,
            firings: vec![0; n_codes],
            sampled_firings: vec![0; n_codes],
            sampled_ns: vec![0; n_codes],
        }
    }

    /// Announce the start of a steady iteration and decide whether its
    /// work ops will be timed.  Must be called once per iteration,
    /// before any of that iteration's [`run_ops_profiled`] calls.
    #[inline]
    pub(crate) fn begin_iteration(&mut self) {
        self.iterations += 1;
        if self.tick == 0 {
            self.tick = self.period - 1;
            self.sampling = true;
            self.sampled_iterations += 1;
        } else {
            self.tick -= 1;
            self.sampling = false;
        }
    }

    /// The counters as a [`ProfileReport`], keyed by filter-code name.
    /// Firing counts recorded during sampled iterations are scaled to
    /// the full run; the scaling is exact because every steady
    /// iteration fires each filter the same number of times.
    pub fn report(&self, codes: &[FilterCode]) -> ProfileReport {
        let mut report = ProfileReport::default();
        for (c, fc) in codes.iter().enumerate() {
            if self.firings[c] == 0 {
                continue;
            }
            let total = if self.sampled_iterations > 0 {
                ((self.firings[c] as u128 * self.iterations as u128)
                    / self.sampled_iterations as u128) as u64
            } else {
                self.firings[c]
            };
            let p = report.filters.entry(fc.name.clone()).or_default();
            p.firings += total;
            p.sampled_firings += self.sampled_firings[c];
            p.sampled_ns += self.sampled_ns[c];
        }
        report
    }
}

/// [`run_ops`] with per-work-op timing recorded into `prof`.
///
/// During an unsampled iteration (see
/// [`OpProfiler::begin_iteration`]) the whole op list passes straight
/// through one [`run_ops`] call — no per-op work at all.  During a
/// sampled iteration each work op (steady body, not prework) is
/// dispatched alone so it can be bracketed by monotonic-clock reads,
/// with synchronization ops executed in contiguous batches between
/// samples.  Execution semantics are identical to `run_ops` — this
/// wrapper only decides when to look at the clock.
pub(crate) fn run_ops_profiled(
    ops: &[Op],
    shards: &mut [Shard],
    base: u16,
    codes: &[FilterCode],
    prof: &mut OpProfiler,
) -> Result<(), ExecError> {
    if !prof.sampling {
        return run_ops(ops, shards, base, codes, 1);
    }
    let mut start = 0;
    for (i, op) in ops.iter().enumerate() {
        if let Op::Work {
            code,
            times,
            prework: false,
            ..
        } = op
        {
            let c = *code as usize;
            if start < i {
                run_ops(&ops[start..i], shards, base, codes, 1)?;
            }
            let t0 = Instant::now();
            run_ops(std::slice::from_ref(op), shards, base, codes, 1)?;
            prof.sampled_ns[c] += t0.elapsed().as_nanos() as u64;
            prof.firings[c] += *times as u64;
            prof.sampled_firings[c] += *times as u64;
            start = i + 1;
        }
    }
    if start < ops.len() {
        run_ops(&ops[start..], shards, base, codes, 1)?;
    }
    Ok(())
}

/// Execute a flat op list against a shard slice whose first element is
/// shard `base`, firing each op `scale` × its `times` (1 for a unit
/// round, the plan's batch factor for a scaled one).
pub(crate) fn run_ops(
    ops: &[Op],
    shards: &mut [Shard],
    base: u16,
    codes: &[FilterCode],
    scale: u32,
) -> Result<(), ExecError> {
    let fault = |node: &str, reason: String| ExecError::Fault {
        node: node.to_string(),
        reason,
    };
    for op in ops {
        let times = op
            .times()
            .checked_mul(scale)
            .ok_or_else(|| fault("schedule", "firing count overflows at this scale".into()))?;
        match op {
            Op::Work {
                code,
                frame,
                input,
                output,
                prework,
                ..
            } => {
                let fc = &codes[*code as usize];
                let prog = if *prework {
                    fc.prework
                        .as_ref()
                        .ok_or_else(|| fault(&fc.name, "missing prework body".into()))?
                } else {
                    &fc.work
                };
                let mut in_t = input.map(|l| take_tape(shards, l, base));
                let mut out_t = output.map(|l| take_tape(shards, l, base));
                let fl = (frame.shard - base) as usize;
                let mut fr = mem::take(&mut shards[fl].frames[frame.slot as usize]);
                let mut res = Ok(());
                // A validated kernel replaces the bytecode VM for the
                // work body (never for prework).  Kernelized filters
                // always have both tapes — the planner gates on tape
                // types — so missing ones are a planner bug.
                if let (Some(kernel), false) = (&fc.kernel, *prework) {
                    res = match (in_t.as_mut(), out_t.as_mut()) {
                        (Some(i), Some(o)) => kernel.run(i, o, times, &mut fr.kre, &mut fr.kim),
                        _ => Err("kernel filter missing a tape".into()),
                    };
                } else {
                    for _ in 0..times {
                        if let Err(e) = exec_program(prog, &mut fr, in_t.as_mut(), out_t.as_mut()) {
                            res = Err(e);
                            break;
                        }
                    }
                }
                shards[fl].frames[frame.slot as usize] = fr;
                if let (Some(l), Some(t)) = (*input, in_t) {
                    put_tape(shards, l, base, t);
                }
                if let (Some(l), Some(t)) = (*output, out_t) {
                    put_tape(shards, l, base, t);
                }
                res.map_err(|reason| fault(&fc.name, reason))?;
            }
            Op::Dup { input, outputs, .. } => {
                // One output at a time, then release the input once:
                // each output sees the same items in the same order as
                // item-at-a-time duplication, and nothing is allocated.
                let mut src = take_tape(shards, *input, base);
                let mut res = Ok(());
                'outputs: for &l in outputs.iter() {
                    let out = tape_mut(shards, l, base);
                    for i in 0..times as u64 {
                        let Some(v) = src.get(i) else {
                            res = Err("duplicate splitter input underflow".to_string());
                            break 'outputs;
                        };
                        if out.push_raw(v).is_err() {
                            res = Err("duplicate splitter output overflow".to_string());
                            break 'outputs;
                        }
                    }
                }
                if res.is_ok() {
                    src.advance(times as u64);
                }
                put_tape(shards, *input, base, src);
                res.map_err(|reason| fault("duplicate splitter", reason))?;
            }
            Op::Moves { moves, .. } => {
                // Both tapes of a move are borrowed where they sit, so
                // no tape leaves its slot; items still go firing by
                // firing, move by move (a joiner interleaves its inputs
                // per firing).
                for _ in 0..times {
                    for m in moves.iter() {
                        tape_pair(shards, m.src, m.dst, base)
                            .ok_or_else(|| "move needs two distinct tapes".to_string())
                            .and_then(|(s, d)| move_items(s, d, m.n as u64))
                            .map_err(|reason| fault("roundrobin", reason))?;
                    }
                }
            }
            Op::Combine { inputs, output, .. } => {
                // Inputs are read in place and released once at the
                // end, so no tape leaves its slot and nothing is
                // allocated.
                let mut res = Ok(());
                'combine: for i in 0..times as u64 {
                    let mut acc: Option<Raw> = None;
                    for &l in inputs.iter() {
                        let Some(v) = tape_mut(shards, l, base).get(i) else {
                            res = Err("combine joiner input underflow".to_string());
                            break 'combine;
                        };
                        acc = Some(match acc {
                            None => v,
                            Some(Raw::I(a)) => Raw::I(a.wrapping_add(v.as_i64())),
                            Some(Raw::F(a)) => Raw::F(a + v.as_f64()),
                        });
                    }
                    if let Some(v) = acc {
                        if tape_mut(shards, *output, base).push_raw(v).is_err() {
                            res = Err("combine joiner output overflow".to_string());
                            break;
                        }
                    }
                }
                res.map_err(|reason| fault("combine joiner", reason))?;
                for &l in inputs.iter() {
                    tape_mut(shards, l, base).advance(times as u64);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::MoveSpec;
    use streamit_graph::DataType;

    /// An eight-slot tape of `ty` holding `items`.
    fn tape(ty: DataType, items: &[f64]) -> Tape {
        let mut t = Tape::with_capacity(ty, 8);
        assert_eq!(t.extend_from_f64(items), items.len());
        t
    }

    fn tape_f(items: &[f64]) -> Tape {
        tape(DataType::Float, items)
    }

    fn tape_i(items: &[f64]) -> Tape {
        tape(DataType::Int, items)
    }

    fn contents(shards: &[Shard]) -> Vec<Vec<f64>> {
        shards[0]
            .tapes
            .iter()
            .map(|t| match t {
                Tape::I(r) => r.to_vec().into_iter().map(|v| v as f64).collect(),
                Tape::F(r) => r.to_vec(),
            })
            .collect()
    }

    /// Run `op(times)` once with `times = 3`, once with `times = 1` at
    /// scale 3, and three times with `times = 1`: the batched and the
    /// scaled form must leave every tape exactly as item-at-a-time
    /// execution does.
    fn batched_matches_single(tapes: &[Tape], op: impl Fn(u32) -> Op) -> Vec<Vec<f64>> {
        let shard = || {
            vec![Shard {
                tapes: tapes.to_vec(),
                frames: Vec::new(),
            }]
        };
        let (mut batched, mut scaled, mut single) = (shard(), shard(), shard());
        run_ops(&[op(3)], &mut batched, 0, &[], 1).expect("batched runs");
        run_ops(&[op(1)], &mut scaled, 0, &[], 3).expect("scaled runs");
        for _ in 0..3 {
            run_ops(&[op(1)], &mut single, 0, &[], 1).expect("single runs");
        }
        assert_eq!(contents(&batched), contents(&single));
        assert_eq!(contents(&scaled), contents(&single));
        contents(&batched)
    }

    /// The fault `op` raises against `tapes`, which must name `node`.
    fn fault_reason(op: &Op, node: &str, tapes: Vec<Tape>) -> String {
        let mut shards = vec![Shard {
            tapes,
            frames: Vec::new(),
        }];
        match run_ops(std::slice::from_ref(op), &mut shards, 0, &[], 1) {
            Err(ExecError::Fault { node: n, reason }) => {
                assert_eq!(n, node);
                reason
            }
            other => panic!("expected a fault, got {other:?}"),
        }
    }

    #[test]
    fn batched_dup_matches_item_at_a_time_order() {
        let loc = |slot| Loc { shard: 0, slot };
        // A float input duplicated onto a float and an int output (the
        // int one coerces); one item stays behind on the input.
        let after = batched_matches_single(
            &[tape_f(&[1.5, -2.5, 3.5, 4.5]), tape_f(&[9.0]), tape_i(&[])],
            |times| Op::Dup {
                input: loc(0),
                outputs: vec![loc(1), loc(2)].into(),
                times,
            },
        );
        assert_eq!(
            after,
            vec![vec![4.5], vec![9.0, 1.5, -2.5, 3.5], vec![1.0, -2.0, 3.0]]
        );
    }

    #[test]
    fn batched_combine_matches_item_at_a_time_order() {
        let loc = |slot| Loc { shard: 0, slot };
        // The sum takes the first input's type (int, so the float input
        // is truncated per item) and is coerced onto the float output.
        let after = batched_matches_single(
            &[
                tape_i(&[1.0, 2.0, 3.0, 4.0]),
                tape_f(&[0.5, 1.5, 2.5]),
                tape_f(&[]),
            ],
            |times| Op::Combine {
                inputs: vec![loc(0), loc(1)].into(),
                output: loc(2),
                times,
            },
        );
        assert_eq!(after, vec![vec![4.0], vec![], vec![1.0, 3.0, 5.0]]);
    }

    #[test]
    fn dup_underflow_and_overflow_fault() {
        let loc = |slot| Loc { shard: 0, slot };
        let dup = Op::Dup {
            input: loc(0),
            outputs: vec![loc(1)].into(),
            times: 2,
        };
        let reason = |tapes| fault_reason(&dup, "duplicate splitter", tapes);
        assert_eq!(
            reason(vec![tape_f(&[1.0]), tape_f(&[])]),
            "duplicate splitter input underflow"
        );
        let full = tape_f(&[0.0; 7]);
        assert_eq!(
            reason(vec![tape_f(&[1.0, 2.0]), full]),
            "duplicate splitter output overflow"
        );
    }

    /// A 32-slot tape of `ty` holding `items`.
    fn roomy(ty: DataType, items: &[f64]) -> Tape {
        let mut t = Tape::with_capacity(ty, 32);
        assert_eq!(t.extend_from_f64(items), items.len());
        t
    }

    #[test]
    fn batched_moves_match_item_at_a_time_order() {
        let loc = |slot| Loc { shard: 0, slot };
        let halves = |n: usize| (0..n).map(|i| i as f64 + 0.5).collect::<Vec<_>>();
        let (f, i) = (DataType::Float, DataType::Int);
        // A roundrobin(2, 1, 3) splitter: a float input dealt onto a
        // float, an int (which truncates) and a float output that
        // already holds an item; one item stays behind on the input.
        let after = batched_matches_single(
            &[
                roomy(f, &halves(19)),
                roomy(f, &[]),
                roomy(i, &[]),
                roomy(f, &[9.0]),
            ],
            |times| Op::Moves {
                moves: [(1, 2), (2, 1), (3, 3)]
                    .map(|(dst, n)| MoveSpec {
                        src: loc(0),
                        dst: loc(dst),
                        n,
                    })
                    .into(),
                times,
            },
        );
        assert_eq!(after[0], vec![18.5]);
        assert_eq!(after[1], vec![0.5, 1.5, 6.5, 7.5, 12.5, 13.5]);
        assert_eq!(after[2], vec![2.0, 8.0, 14.0]);
        assert_eq!(after[3][..4], [9.0, 3.5, 4.5, 5.5]);
        // The matching joiner interleaves its inputs firing by firing.
        let after = batched_matches_single(
            &[
                roomy(f, &halves(7)),
                roomy(i, &[10.0, 20.0, 30.0]),
                roomy(f, &halves(9)),
                roomy(f, &[]),
            ],
            |times| Op::Moves {
                moves: [(0, 2), (1, 1), (2, 3)]
                    .map(|(src, n)| MoveSpec {
                        src: loc(src),
                        dst: loc(3),
                        n,
                    })
                    .into(),
                times,
            },
        );
        assert_eq!(after[..3], [vec![6.5], vec![], vec![]]);
        assert_eq!(
            after[3][..9],
            [0.5, 1.5, 10.0, 0.5, 1.5, 2.5, 2.5, 3.5, 20.0]
        );
        assert_eq!(after[3].len(), 18);
    }

    #[test]
    fn moves_underflow_and_overflow_fault() {
        let loc = |slot| Loc { shard: 0, slot };
        let mv = |src, dst, n| Op::Moves {
            moves: vec![MoveSpec {
                src: loc(src),
                dst: loc(dst),
                n,
            }]
            .into(),
            times: 2,
        };
        let reason = |op: &Op, tapes| fault_reason(op, "roundrobin", tapes);
        // The second firing finds one item where it needs two.
        assert_eq!(
            reason(&mv(0, 1, 2), vec![tape_f(&[1.0, 2.0, 3.0]), tape_f(&[])]),
            "tape underflow: need 2, have 1"
        );
        assert_eq!(
            reason(&mv(0, 1, 2), vec![tape_f(&[1.0; 4]), tape_f(&[0.0; 5])]),
            "tape overflow: need 2 free, have 1"
        );
        assert_eq!(
            reason(&mv(0, 0, 1), vec![tape_f(&[1.0; 4])]),
            "move needs two distinct tapes"
        );
    }

    #[test]
    fn a_scale_that_overflows_the_firing_count_faults() {
        let dup = Op::Dup {
            input: Loc { shard: 0, slot: 0 },
            outputs: Vec::new().into(),
            times: 1 << 31,
        };
        let mut shards = vec![Shard::default()];
        match run_ops(&[dup], &mut shards, 0, &[], 2) {
            Err(ExecError::Fault { node, .. }) => assert_eq!(node, "schedule"),
            other => panic!("expected a fault, got {other:?}"),
        }
    }
}
