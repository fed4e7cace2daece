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

use crate::bytecode::{FilterCode, Inst, Program, Rates};
use crate::plan::{Loc, MoveSpec, Op};
use crate::profile::ProfileReport;
use crate::tape::{copy_at, Raw, Ring, Tape};
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
    /// Native-kernel scratch (a staged window, FFT bins, outputs before
    /// their bulk write).  Lazily sized on first use; per-frame so
    /// threaded shards never share it.
    pub scratch: Vec<f64>,
}

impl Frame {
    pub fn new(fc: &FilterCode) -> Frame {
        let mut fr = Frame {
            i: vec![0; fc.n_i as usize],
            f: vec![0.0; fc.n_f as usize],
            ai: vec![0; fc.arena_i as usize],
            af: vec![0.0; fc.arena_f as usize],
            scratch: Vec::new(),
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
            Inst::TruthyF { d, s } => fr.i[d as usize] = truthy_f(fr.f[s as usize]),
            Inst::Call1F { g, d, s } => {
                fr.f[d as usize] =
                    call1_f(g, fr.f[s as usize]).ok_or("non-unary intrinsic in Call1F")?;
            }
            Inst::AbsI { d, s } => fr.i[d as usize] = int_abs(fr.i[s as usize]),
            Inst::AbsF { d, s } => fr.f[d as usize] = fr.f[s as usize].abs(),
            Inst::PowF { d, a, b } => fr.f[d as usize] = fr.f[a as usize].powf(fr.f[b as usize]),
            Inst::MinMaxI { max, d, a, b } => {
                fr.i[d as usize] = min_max_i(max, fr.i[a as usize], fr.i[b as usize]);
            }
            Inst::MinMaxF { max, d, a, b } => {
                fr.f[d as usize] = min_max_f(max, fr.f[a as usize], fr.f[b as usize]);
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
                    let (ch, ct) = coef.split_at(head.len());
                    let [sum] = dot_lanes([fr.f[a as usize]], head, 0, ch);
                    let [sum] = dot_lanes([sum], tail, 0, ct);
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

/// The one summation order of a dot product, for `L` independent sums
/// at once: lane `j` adds `x[j·stride + t] · c[t]` to `acc[j]` for
/// ascending `t`, each product and each sum rounded on its own (never
/// `mul_add`, never reassociated) — the order `n` generic taps add in.
/// Lanes only run side by side; no sum is split.  The caller has checked
/// that `x` holds `(L − 1)·stride + c.len()` items.
#[inline(always)]
pub(crate) fn dot_lanes<const L: usize>(
    mut acc: [f64; L],
    x: &[f64],
    stride: usize,
    c: &[f64],
) -> [f64; L] {
    // One check up front lets the compiler drop the ones in the loop.
    let span = (L - 1) * stride + 1;
    let x = &x[..span - 1 + c.len()];
    for (t, &c) in c.iter().enumerate() {
        let w = &x[t..][..span];
        for j in 0..L {
            acc[j] += w[j * stride] * c;
        }
    }
    acc
}

/// [`dot_lanes`] over windows one item apart (a pop-1 FIR's consecutive
/// firings, a dense row's): at stride 1 the compiler turns the `L` sums
/// into vector code.  The same code is compiled once more for AVX and
/// taken when the host has it: wider registers, the same roundings in
/// the same order.
#[inline]
pub(crate) fn dot_tile<const L: usize>(acc: [f64; L], x: &[f64], c: &[f64]) -> [f64; L] {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx") {
        // SAFETY: `dot_tile_avx` needs no more than AVX, which the line
        // above found on this host.
        return unsafe { dot_tile_avx(acc, x, c) };
    }
    dot_lanes(acc, x, 1, c)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn dot_tile_avx<const L: usize>(acc: [f64; L], x: &[f64], c: &[f64]) -> [f64; L] {
    dot_lanes(acc, x, 1, c)
}

/// Firings a lane group runs side by side (sixteen made bodies with
/// many pops slower); an op with fewer takes the VM.
pub(crate) const LANES: usize = 8;

/// Firings one pop-1 `DotPeekF` sums at a time: sixteen accumulators
/// are sixteen independent add chains.
pub(crate) const TILE: usize = 16;

/// Most groups in one chunk: the lane columns hold registers ×
/// `CHUNK × LANES` values, however many firings the op has.
const CHUNK: usize = 8;

type LaneI = [i64; LANES];
type LaneF = [f64; LANES];

/// The lane mode's scratch: register columns, an op's input window when
/// it wraps its ring, and a chunk's pushes when the ring's free slots
/// wrap.  One per [`Driver`] (so per shard set and per thread), lent to
/// every op it runs, and never part of a [`Frame`]: every run builds one
/// frame per filter before its first output, and five more `Vec`s there
/// made `fir-vm`'s first output about a third slower.
///
/// [`Driver`]: crate::driver::Driver
#[derive(Debug, Default)]
pub struct LaneBank {
    /// Register `r`'s group `g` of a chunk at `r·w + g`, `w` the op's
    /// chunk width in groups.
    i: Vec<LaneI>,
    f: Vec<LaneF>,
    /// The registers a chunk wrote, ints then floats.
    wrote: Vec<bool>,
    /// An op's input window, when it wraps its ring.
    wi: Vec<i64>,
    wf: Vec<f64>,
    /// A chunk's pushes, firing `l`'s `p`-th at `l·push + p`, when the
    /// ring's free slots wrap.
    oi: Vec<i64>,
    of: Vec<f64>,
    /// Firings run as lanes so far.
    pub laned: u64,
}

/// A run of firings' input window: firing `l` reads `x[l·pop + offset]`.
#[derive(Clone, Copy)]
enum Window<'a> {
    I(&'a [i64]),
    F(&'a [f64]),
    None,
}

/// `times` firings of `prog` against its frame and tapes: whole groups
/// of [`LANES`] as lanes while the body is lane-safe and each group's
/// checks hold, then the rest one by one on the VM, which raises any
/// fault at its own firing with its own text.
#[inline]
pub fn fire(
    prog: &Program,
    fr: &mut Frame,
    mut input: Option<&mut Tape>,
    mut output: Option<&mut Tape>,
    times: u32,
    bank: &mut LaneBank,
) -> Result<(), String> {
    let laned = if prog.lane_safe && times as usize >= LANES {
        lane_groups(prog, fr, &mut input, &mut output, times, bank)
    } else {
        0
    };
    for _ in laned..times {
        exec_program(prog, fr, input.as_deref_mut(), output.as_deref_mut())?;
    }
    Ok(())
}

/// [`fire`]'s lanes, out of the op loop's way.  One check up front finds
/// the whole groups whose windows are all staged and whose outputs all
/// fit, and one window staged for all of them is read in place (or
/// copied once, when it wraps the ring).  Chunks of up to [`CHUNK`]
/// groups then run in order through [`lane_chunk`], their pushes
/// written into the ring's free slots (staged where those wrap); the
/// groups a chunk finishes commit, the registers they wrote go to the
/// frame from the last firing, and the first group it refuses is left
/// untouched, with the frame as the VM would have it there.  Returns
/// the firings run.
#[inline(never)]
fn lane_groups(
    prog: &Program,
    fr: &mut Frame,
    input: &mut Option<&mut Tape>,
    output: &mut Option<&mut Tape>,
    times: u32,
    bank: &mut LaneBank,
) -> u32 {
    // Declared rates were `usize`s before they were `u64`s.
    let Rates { pop, window, push } = prog.rates;
    let (pop, window, push) = (pop as usize, window as usize, push as usize);
    // The whole groups whose windows are staged and whose pushes fit
    // (compared, not divided: an op of two groups is common).
    let staged = input.as_deref().map_or(usize::MAX, |t| t.len() as usize);
    let room = match (output.as_deref(), push) {
        (_, 0) => usize::MAX,
        (Some(o), _) => o.free() as usize,
        (None, _) => 0,
    };
    let mut firings = times as usize / LANES * LANES;
    while firings > 0 && ((firings - 1) * pop + window > staged || firings * push > room) {
        firings -= LANES;
    }
    if firings == 0 {
        return 0;
    }
    let span = (firings - 1) * pop + window;
    let x = match input.as_deref() {
        Some(Tape::I(r)) => stage(r, span, &mut bank.wi).map(Window::I),
        Some(Tape::F(r)) => stage(r, span, &mut bank.wf).map(Window::F),
        None => Some(Window::None),
    };
    let Some(x) = x else {
        return 0;
    };
    // Columns one chunk wide.  State is the one register a lane body
    // reads before writing it, and it never writes it: copied in once.
    let (w, ni, nf) = ((firings / LANES).min(CHUNK), fr.i.len(), fr.f.len());
    let (i, f) = (
        grown(&mut bank.i, ni * w, [0; LANES]),
        grown(&mut bank.f, nf * w, [0.0; LANES]),
    );
    let wrote = grown(&mut bank.wrote, ni + nf, false);
    for (r, &v) in fr.i.iter().enumerate().take(prog.state.0 as usize) {
        i[r * w..][..w].fill([v; LANES]);
    }
    for (r, &v) in fr.f.iter().enumerate().take(prog.state.1 as usize) {
        f[r * w..][..w].fill([v; LANES]);
    }
    // Groups run so far.
    let mut done = 0;
    while done < firings / LANES {
        let groups = (firings / LANES - done).min(w);
        let (n, per, shape) = (groups * LANES * push, LANES * push, (pop, window, push));
        wrote.fill(false);
        let mut chunk = |y: (&mut [i64], &mut [f64])| {
            let cols = (&mut *i, &mut *f, &mut *wrote, w);
            lane_chunk(prog, cols, (done * LANES * pop, groups), x, y, shape)
        };
        let ran = match output.as_deref_mut() {
            Some(Tape::I(r)) => into_ring(r, n, &mut bank.oi, per, |y| chunk((y, &mut []))),
            Some(Tape::F(r)) => into_ring(r, n, &mut bank.of, per, |y| chunk((&mut [], y))),
            None => chunk((&mut [], &mut [])),
        };
        if ran == 0 {
            break;
        }
        let (mi, mf) = wrote.split_at(ni);
        write_back(&mut fr.i, i, w, mi, ran - 1);
        write_back(&mut fr.f, f, w, mf, ran - 1);
        done += ran;
        if ran < groups {
            break;
        }
    }
    let done = done * LANES;
    if let Some(t) = input.as_deref_mut() {
        t.advance((done * pop) as u64);
    }
    bank.laned += done as u64;
    done as u32
}

/// The first `span` items of `r`, in place when they do not wrap and
/// copied into `buf` when they do; `None` unless all are present.
fn stage<'a, T: Copy + Default>(
    r: &'a Ring<T>,
    span: usize,
    buf: &'a mut Vec<T>,
) -> Option<&'a [T]> {
    let (head, tail) = r.window(0, span as u64)?;
    if tail.is_empty() {
        return Some(head);
    }
    buf.clear();
    buf.extend_from_slice(head);
    buf.extend_from_slice(tail);
    Some(buf)
}

/// `chunk` handed `n` slots for its pushes — `r`'s own free slots when
/// they do not wrap, else `buf` — and the first `per` × the groups it
/// returns of them published on `r`.
fn into_ring<T: Copy + Default>(
    r: &mut Ring<T>,
    n: usize,
    buf: &mut Vec<T>,
    per: usize,
    chunk: impl FnOnce(&mut [T]) -> usize,
) -> usize {
    if r.spare_mut().len() >= n {
        let ran = chunk(&mut r.spare_mut()[..n]);
        r.commit((ran * per) as u64);
        return ran;
    }
    let buf = grown(buf, n, T::default());
    let ran = chunk(buf);
    r.extend_from_slice(&buf[..ran * per]);
    ran
}

/// Each register in `frame` that `wrote` marks takes the value of the
/// last lane of group `g` of its column (`w` groups wide): the chunk's
/// last firing.
fn write_back<T: Copy>(frame: &mut [T], cols: &[[T; LANES]], w: usize, wrote: &[bool], g: usize) {
    for ((v, c), _) in frame
        .iter_mut()
        .zip(cols.chunks_exact(w))
        .zip(wrote)
        .filter(|m| *m.1)
    {
        *v = c[g][LANES - 1];
    }
}

/// The first `n` items of `v`, grown with `fill` to hold them (and
/// never shrunk, so that ops of different sizes do not refill it).
fn grown<T: Copy>(v: &mut Vec<T>, n: usize, fill: T) -> &mut [T] {
    if v.len() < n {
        v.resize(n, fill);
    }
    &mut v[..n]
}

/// One chunk of `groups` groups, firing `l = g·LANES + j` in lane `j` of
/// group `g`: every instruction runs once for the chunk, as one loop over
/// its firings, each lane through the VM's own scalar functions, and a
/// pop-1 `DotPeekF` in tiles of [`TILE`] firings.  Firing `l` reads `x`
/// from `base + l·pop` and writes its `p`-th push to `y[l·push + p]` (the int
/// or the float one, whichever is not empty); `wrote` marks each
/// register written.  The first group where the VM could fault or would
/// disagree — a `None` from the scalar table in any lane, a lane that
/// branches otherwise than the chunk's first firing — cuts the chunk
/// before it.  Returns the groups that finished the body: none when any
/// of them cannot, on a peek or pop outside the window, a push past
/// `push` or onto the wrong type, the back-jump budget spent, or pops
/// and pushes off the declared rates.
fn lane_chunk(
    prog: &Program,
    (ri, rf, wrote, w): (&mut [LaneI], &mut [LaneF], &mut [bool], usize),
    (base, mut groups): (usize, usize),
    x: Window<'_>,
    (yi, yf): (&mut [i64], &mut [f64]),
    (pop, window, push): (usize, usize, usize),
) -> usize {
    let (code, ni) = (&prog.code[..], ri.len() / w);
    let (mut pc, mut pops, mut pushes, mut back_jumps) = (0usize, 0usize, 0usize, 0u64);
    // Where in `x` the chunk's first firing's `n` items `k` past the
    // pops start, when they lie inside the window.
    let at = |pops: usize, k: usize, n: usize| {
        let at = pops.checked_add(k)?;
        (at.checked_add(n)? <= window).then_some(base + at)
    };
    // Register `r`'s group `g`.
    let ix = |r: u16, g: usize| r as usize * w + g;
    macro_rules! jump {
        ($t:expr) => {{
            let t = $t as usize;
            if t <= pc {
                back_jumps += 1;
                if back_jumps > MAX_BACK_JUMPS {
                    return 0;
                }
            }
            pc = t;
            continue;
        }};
    }
    // Register `d` of bank `ri` or `rf` written: its mark.
    macro_rules! mark {
        (ri, $d:expr) => {
            wrote[$d as usize] = true
        };
        (rf, $d:expr) => {
            wrote[ni + $d as usize] = true
        };
    }
    // Register `d` of bank `$r`, firing by firing (`g`, `j` its group
    // and lane), the chunk cut before the first group with a `None`.
    macro_rules! set {
        ($r:ident, $d:expr, |$g:ident, $j:ident| $val:expr) => {{
            'groups: for $g in 0..groups {
                for $j in 0..LANES {
                    match $val {
                        Some(v) => $r[ix($d, $g)][$j] = v,
                        None => {
                            groups = $g;
                            break 'groups;
                        }
                    }
                }
            }
            mark!($r, $d);
        }};
    }
    // `f` of register `a` of bank `$s`.
    macro_rules! map {
        ($r:ident, $d:expr, $s:ident, $a:expr, $f:expr) => {
            set!($r, $d, |g, j| Some($f($s[ix($a, g)][j])))
        };
    }
    // `f` of registers `a` and `b` of bank `$s`.
    macro_rules! zip {
        ($r:ident, $d:expr, $s:ident, $a:expr, $b:expr, $f:expr) => {
            set!($r, $d, |g, j| $f($s[ix($a, g)][j], $s[ix($b, g)][j]))
        };
    }
    // Item `k` past the pops of each firing's window, then `n` pops.
    macro_rules! peek {
        ($r:ident, $ty:ident, $d:expr, $k:expr, $n:expr) => {{
            let (Window::$ty(x), Some(at)) = (x, at(pops, $k as usize, 1)) else {
                return 0;
            };
            set!($r, $d, |g, j| Some(x[(g * LANES + j) * pop + at]));
            pops += $n;
        }};
    }
    // Item `idx` (a register) past the pops of each firing's window.
    macro_rules! peek_at {
        ($r:ident, $ty:ident, $d:expr, $idx:expr) => {{
            let Window::$ty(x) = x else { return 0 };
            set!($r, $d, |g, j| {
                let k = usize::try_from(ri[ix($idx, g)][j]).ok();
                k.and_then(|k| at(pops, k, 1))
                    .map(|at| x[(g * LANES + j) * pop + at])
            });
        }};
    }
    // Register `s` of bank `$r` as each firing's next push.
    macro_rules! put {
        ($r:ident, $y:ident, $s:expr) => {{
            if pushes >= push || $y.is_empty() {
                return 0;
            }
            for g in 0..groups {
                for (j, v) in $r[ix($s, g)].into_iter().enumerate() {
                    $y[(g * LANES + j) * push + pushes] = v;
                }
            }
            pushes += 1;
        }};
    }
    while pc < code.len() {
        if groups == 0 {
            return 0;
        }
        match code[pc] {
            Inst::ConstI { d, v } => set!(ri, d, |_g, _j| Some(v)),
            Inst::ConstF { d, v } => set!(rf, d, |_g, _j| Some(v)),
            Inst::MovI { d, s } => map!(ri, d, ri, s, |v| v),
            Inst::MovF { d, s } => map!(rf, d, rf, s, |v| v),
            Inst::CastIF { d, s } => map!(rf, d, ri, s, |v| v as f64),
            Inst::CastFI { d, s } => map!(ri, d, rf, s, |v| v as i64),
            Inst::BinI { op, d, a, b } => zip!(ri, d, ri, a, b, |a, b| int_binop(op, a, b)),
            Inst::ArithF { op, d, a, b } => zip!(rf, d, rf, a, b, |a, b| float_arith(op, a, b)),
            Inst::ArithFK { op, d, a, imm } => {
                set!(rf, d, |g, j| float_arith(op, rf[ix(a, g)][j], imm))
            }
            Inst::ArithKF { op, d, b, imm } => {
                set!(rf, d, |g, j| float_arith(op, imm, rf[ix(b, g)][j]))
            }
            Inst::CmpF { op, d, a, b } => zip!(ri, d, rf, a, b, |a, b| float_cmp(op, a, b)),
            Inst::NegI { d, s } => map!(ri, d, ri, s, |v| int_unop(UnOp::Neg, v)),
            Inst::NegF { d, s } => map!(rf, d, rf, s, float_neg),
            Inst::NotI { d, s } => map!(ri, d, ri, s, |v| int_unop(UnOp::Not, v)),
            Inst::NotF { d, s } => map!(ri, d, rf, s, float_not),
            Inst::BitNotI { d, s } => map!(ri, d, ri, s, |v| int_unop(UnOp::BitNot, v)),
            Inst::TruthyF { d, s } => map!(ri, d, rf, s, truthy_f),
            Inst::Call1F { g: h, d, s } => set!(rf, d, |g, j| call1_f(h, rf[ix(s, g)][j])),
            Inst::AbsI { d, s } => map!(ri, d, ri, s, int_abs),
            Inst::AbsF { d, s } => map!(rf, d, rf, s, f64::abs),
            Inst::PowF { d, a, b } => zip!(rf, d, rf, a, b, |a: f64, b| Some(a.powf(b))),
            Inst::MinMaxI { max, d, a, b } => {
                zip!(ri, d, ri, a, b, |a, b| Some(min_max_i(max, a, b)))
            }
            Inst::MinMaxF { max, d, a, b } => {
                zip!(rf, d, rf, a, b, |a, b| Some(min_max_f(max, a, b)))
            }
            Inst::PeekIK { d, k } => peek!(ri, I, d, k, 0),
            Inst::PeekFK { d, k } => peek!(rf, F, d, k, 0),
            Inst::PopI { d } => peek!(ri, I, d, 0, 1),
            Inst::PopF { d } => peek!(rf, F, d, 0, 1),
            Inst::Skip { n } => pops = pops.saturating_add(n as usize),
            Inst::PeekI { d, idx } => peek_at!(ri, I, d, idx),
            Inst::PeekF { d, idx } => peek_at!(rf, F, d, idx),
            Inst::DotPeekF { d, a, k, n, at: c } => {
                let (Window::F(x), Some(coef), Some(at)) = (
                    x,
                    prog.pool.get(c as usize..c as usize + n as usize),
                    at(pops, k as usize, n as usize),
                ) else {
                    return 0;
                };
                // Windows one item apart are summed a tile at a time.
                let (cols, end) = (rf.as_flattened_mut(), groups * LANES);
                let (src, dst, mut l) = (ix(a, 0) * LANES, ix(d, 0) * LANES, 0);
                while l < end {
                    let x = &x[l * pop + at..];
                    if pop == 1 && l + TILE <= end {
                        let acc = &cols[src + l..][..TILE];
                        let sum = dot_tile::<TILE>(std::array::from_fn(|j| acc[j]), x, coef);
                        cols[dst + l..][..TILE].copy_from_slice(&sum);
                        l += TILE;
                    } else {
                        let acc: LaneF = std::array::from_fn(|j| cols[src + l + j]);
                        let sum = match pop {
                            1 => dot_tile(acc, x, coef),
                            _ => dot_lanes(acc, x, pop, coef),
                        };
                        cols[dst + l..][..LANES].copy_from_slice(&sum);
                        l += LANES;
                    }
                }
                mark!(rf, d);
            }
            Inst::PushI { s } => put!(ri, yi, s),
            Inst::PushF { s } => put!(rf, yf, s),
            Inst::Jmp { target } => jump!(target),
            Inst::Jz { c, target } => {
                // Every firing must go the way the chunk's first goes.
                let zero = ri[ix(c, 0)][0] == 0;
                let apart = |g: &usize| ri[ix(c, *g)].iter().any(|&v| (v == 0) != zero);
                groups = (0..groups).find(apart).unwrap_or(groups);
                if zero {
                    jump!(target);
                }
            }
            Inst::LoadI { .. }
            | Inst::LoadF { .. }
            | Inst::StoreI { .. }
            | Inst::StoreF { .. }
            | Inst::ZeroI { .. }
            | Inst::ZeroF { .. } => return 0,
        }
        pc += 1;
    }
    if pops == pop && pushes == push {
        groups
    } else {
        0
    }
}

/// The value of a unary float intrinsic, `None` for any other.
#[inline]
fn call1_f(g: Intrinsic, x: f64) -> Option<f64> {
    Some(match g {
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
        _ => return None,
    })
}

#[inline]
fn min_max_i(max: bool, a: i64, b: i64) -> i64 {
    if max {
        a.max(b)
    } else {
        a.min(b)
    }
}

#[inline]
fn min_max_f(max: bool, a: f64, b: f64) -> f64 {
    if max {
        a.max(b)
    } else {
        a.min(b)
    }
}

/// `Value::is_truthy` on a float: NaN is truthy.
#[inline]
fn truthy_f(x: f64) -> i64 {
    (x != 0.0) as i64
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
/// instance).  Sampling is decided per *steady round*, not per op: the
/// driver hands every round to [`run_ops_profiled`] with its scale, and
/// one round in `period` is a *sampled* round during which every
/// work-op invocation is timed with the monotonic clock (the whole
/// firing batch, `scale` × `times`, attributed to the sample).
/// Unsampled rounds execute through plain `run_ops` calls — zero per-op
/// bookkeeping — which keeps profiler overhead flat even for graphs of
/// many tiny filters.  Because every steady iteration executes the same
/// op list, per-code firing totals scale exactly from the sampled
/// rounds (`recorded × iterations / sampled_iterations`, both counted
/// in iterations).  The first round is always sampled so short runs
/// still cover every filter.  With no profiler attached the hot path
/// (`run_ops`) is all that runs.
#[derive(Debug, Clone)]
pub struct OpProfiler {
    period: u32,
    /// Countdown to the next sampled round.
    tick: u32,
    iterations: u64,
    /// Iterations run inside sampled rounds.
    sampled_iterations: u64,
    /// Firings observed during sampled rounds only.
    firings: Vec<u64>,
    sampled_firings: Vec<u64>,
    sampled_ns: Vec<u64>,
}

impl OpProfiler {
    /// `period = 1` times every round; larger periods time one round
    /// in `period`.
    pub fn new(n_codes: usize, period: u32) -> OpProfiler {
        OpProfiler {
            period: period.max(1),
            tick: 0,
            iterations: 0,
            sampled_iterations: 0,
            firings: vec![0; n_codes],
            sampled_firings: vec![0; n_codes],
            sampled_ns: vec![0; n_codes],
        }
    }

    /// Count a round of `scale` iterations and say whether it is
    /// sampled.
    #[inline]
    fn begin_round(&mut self, scale: u32) -> bool {
        self.iterations += u64::from(scale);
        if self.tick > 0 {
            self.tick -= 1;
            return false;
        }
        self.tick = self.period - 1;
        self.sampled_iterations += u64::from(scale);
        true
    }

    /// The counters as a [`ProfileReport`], keyed by filter-code name.
    /// Firing counts recorded during sampled rounds are scaled to the
    /// full run; the scaling is exact because every steady iteration
    /// fires each filter the same number of times.
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

/// One round of `scale` iterations of [`run_ops`], with per-work-op
/// timing recorded into `prof`.
///
/// An unsampled round passes the whole op list straight through one
/// [`run_ops`] call — no per-op work at all.  In a sampled round each
/// work op (steady body, not prework) is dispatched alone so it can be
/// bracketed by monotonic-clock reads, its nanoseconds covering `scale`
/// × `times` firings, with synchronization ops executed in contiguous
/// batches between samples.  Execution semantics are identical to
/// `run_ops` — this wrapper only decides when to look at the clock.
pub(crate) fn run_ops_profiled(
    ops: &[Op],
    shards: &mut [Shard],
    base: u16,
    codes: &[FilterCode],
    scale: u32,
    prof: &mut OpProfiler,
    lanes: &mut LaneBank,
) -> Result<(), ExecError> {
    if !prof.begin_round(scale) {
        return run_ops(ops, shards, base, codes, scale, lanes);
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
                run_ops(&ops[start..i], shards, base, codes, scale, lanes)?;
            }
            let t0 = Instant::now();
            run_ops(std::slice::from_ref(op), shards, base, codes, scale, lanes)?;
            let fired = u64::from(*times) * u64::from(scale);
            prof.sampled_ns[c] += t0.elapsed().as_nanos() as u64;
            prof.firings[c] += fired;
            prof.sampled_firings[c] += fired;
            start = i + 1;
        }
    }
    if start < ops.len() {
        run_ops(&ops[start..], shards, base, codes, scale, lanes)?;
    }
    Ok(())
}

/// `times` firings of an [`Op::Moves`], which the planner builds as a
/// round-robin splitter (every move from one source) or joiner (every
/// move into one destination).  Each tape is checked once against the
/// op's totals before its items move; then all `times` firings' items
/// are copied to and from their offsets — past the cursors, which stay
/// put until the end — and every cursor moves once.  The offsets are
/// those of firing-by-firing execution, so a joiner interleaves its
/// inputs exactly as before; after a fault the shards are in no defined
/// state (see [`crate::driver::Driver::drive`]).  Out of line: inlined
/// into the op loop, builds of one source read 2.3–3.0 M items/s on
/// `sort-dispatch` depending on where the linker put that loop; out of
/// line, 2.8–2.9 M.
#[inline(never)]
fn move_op(shards: &mut [Shard], base: u16, moves: &[MoveSpec], times: u64) -> Result<(), String> {
    let Some(first) = moves.first() else {
        return Ok(());
    };
    let (mut width, mut split, mut join) = (0, true, true);
    for m in moves.iter() {
        width += u64::from(m.n);
        split &= m.src == first.src;
        join &= m.dst == first.dst;
    }
    if !(split || join) {
        return Err("moves neither from one tape nor into one".into());
    }
    let mut at = 0;
    for m in moves.iter() {
        let (s, d) =
            tape_pair(shards, m.src, m.dst, base).ok_or("move needs two distinct tapes")?;
        let n = u64::from(m.n);
        // Where firing `f` reads and writes, as (first offset, step per
        // firing): the shared side steps by the op's width, the move's
        // own by `n`.
        let (s_at, d_at) = if split {
            ((at, width), (0, n))
        } else {
            ((0, n), (at, width))
        };
        let (need, room) = (times * s_at.1, times * d_at.1);
        if s.len() < need {
            return Err(format!("tape underflow: need {need}, have {}", s.len()));
        }
        if d.free() < room {
            return Err(format!(
                "tape overflow: need {room} free, have {}",
                d.free()
            ));
        }
        copy_at(s, s_at, d, d_at, n, times);
        // Each move's own side settles now, the shared side once below.
        if split {
            d.commit(times * n);
        } else {
            s.advance(times * n);
        }
        at += n;
    }
    if split {
        tape_mut(shards, first.src, base).advance(times * width);
    } else {
        tape_mut(shards, first.dst, base).commit(times * width);
    }
    Ok(())
}

/// Execute a flat op list against a shard slice whose first element is
/// shard `base`, firing each op `scale` × its `times` (1 for a unit
/// round, the plan's batch factor for a scaled one), with `lanes` as the
/// lane mode's scratch.
pub(crate) fn run_ops(
    ops: &[Op],
    shards: &mut [Shard],
    base: u16,
    codes: &[FilterCode],
    scale: u32,
    lanes: &mut LaneBank,
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
                // A validated kernel replaces the bytecode VM for the
                // work body (never for prework).  Kernelized filters
                // always have both tapes — the planner gates on tape
                // types — so missing ones are a planner bug.
                let res = match (&fc.kernel, *prework) {
                    (Some(kernel), false) => match (in_t.as_mut(), out_t.as_mut()) {
                        (Some(i), Some(o)) => kernel.run(i, o, times, &mut fr.scratch),
                        _ => Err("kernel filter missing a tape".into()),
                    },
                    _ => fire(prog, &mut fr, in_t.as_mut(), out_t.as_mut(), times, lanes),
                };
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
                // The input is taken out of its slot, so an output that
                // is the input finds no room.  One copy of all `times`
                // items per output, then one release.
                let n = u64::from(times);
                let mut src = take_tape(shards, *input, base);
                let res = if src.len() < n {
                    Err("duplicate splitter input underflow")
                } else {
                    outputs.iter().try_for_each(|&l| {
                        let out = tape_mut(shards, l, base);
                        if out.free() < n {
                            return Err("duplicate splitter output overflow");
                        }
                        copy_at(&src, (0, 0), out, (0, 0), n, 1);
                        out.commit(n);
                        Ok(())
                    })
                };
                if res.is_ok() {
                    src.advance(n);
                }
                put_tape(shards, *input, base, src);
                res.map_err(|reason| fault("duplicate splitter", reason.into()))?;
            }
            Op::Moves { moves, .. } => {
                move_op(shards, base, moves, u64::from(times))
                    .map_err(|reason| fault("roundrobin", reason))?;
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
    use crate::bytecode::FilterCode;
    use crate::lowering::LoweringCache;
    use crate::plan::LowerOptions;
    use streamit_graph::builder::*;
    use streamit_graph::DataType;

    const F: DataType = DataType::Float;
    const I: DataType = DataType::Int;

    /// A tape of `ty` with room for `cap` items holding `items`, its
    /// cursors `skew` slots into the buffer so that the items can wrap.
    fn skewed(ty: DataType, cap: u64, skew: u64, items: &[f64]) -> Tape {
        let mut t = Tape::with_capacity(ty, cap);
        for _ in 0..skew {
            t.push_f(0.0).expect("fits");
        }
        t.advance(skew);
        assert_eq!(t.extend_from_f64(items), items.len());
        t
    }

    /// An eight-slot tape of `ty` holding `items`.
    fn tape(ty: DataType, items: &[f64]) -> Tape {
        skewed(ty, 8, 0, items)
    }

    fn tape_f(items: &[f64]) -> Tape {
        tape(F, items)
    }

    fn tape_i(items: &[f64]) -> Tape {
        tape(I, items)
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
        let lanes = &mut LaneBank::default();
        run_ops(&[op(3)], &mut batched, 0, &[], 1, lanes).expect("batched runs");
        run_ops(&[op(1)], &mut scaled, 0, &[], 3, lanes).expect("scaled runs");
        for _ in 0..3 {
            run_ops(&[op(1)], &mut single, 0, &[], 1, lanes).expect("single runs");
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
        match run_ops(
            std::slice::from_ref(op),
            &mut shards,
            0,
            &[],
            1,
            &mut LaneBank::default(),
        ) {
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
        let dup = |times| Op::Dup {
            input: loc(0),
            outputs: vec![loc(1), loc(2)].into(),
            times,
        };
        // A float input duplicated onto a float and an int output (the
        // int one coerces); one item stays behind on the input.  Every
        // tape's items cross the end of its buffer.
        let after = batched_matches_single(
            &[
                skewed(F, 8, 6, &[1.5, -2.5, 3.5, 4.5]),
                skewed(F, 8, 7, &[9.0]),
                skewed(I, 8, 6, &[]),
            ],
            dup,
        );
        assert_eq!(
            after,
            vec![vec![4.5], vec![9.0, 1.5, -2.5, 3.5], vec![1.0, -2.0, 3.0]]
        );
        // An int input onto a float and an int output, wrapping alike.
        let after = batched_matches_single(
            &[
                skewed(I, 8, 7, &[1.0, -2.0, 3.0]),
                skewed(F, 8, 5, &[]),
                skewed(I, 8, 6, &[5.0]),
            ],
            dup,
        );
        assert_eq!(
            after,
            vec![vec![], vec![1.0, -2.0, 3.0], vec![5.0, 1.0, -2.0, 3.0]]
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

    /// `roundrobin` moves from `src` to `dst` of the given weights.
    fn moves(edges: [(u16, u16, u32); 3], times: u32) -> Op {
        let loc = |slot| Loc { shard: 0, slot };
        Op::Moves {
            moves: edges
                .map(|(src, dst, n)| MoveSpec {
                    src: loc(src),
                    dst: loc(dst),
                    n,
                })
                .into(),
            times,
        }
    }

    #[test]
    fn batched_moves_match_item_at_a_time_order() {
        let halves = |n: usize| (0..n).map(|i| i as f64 + 0.5).collect::<Vec<_>>();
        // A 32-slot tape whose items start `skew` slots in.
        let roomy = |ty, skew, items: &[f64]| skewed(ty, 32, skew, items);
        // A roundrobin(2, 1, 3) splitter: a float input dealt onto a
        // float, an int (which truncates) and a float output that
        // already holds an item; one item stays behind on the input.
        let split = |times| moves([(0, 1, 2), (0, 2, 1), (0, 3, 3)], times);
        let after = batched_matches_single(
            &[
                roomy(F, 20, &halves(19)),
                roomy(F, 30, &[]),
                roomy(I, 31, &[]),
                roomy(F, 29, &[9.0]),
            ],
            split,
        );
        assert_eq!(after[0], vec![18.5]);
        assert_eq!(after[1], vec![0.5, 1.5, 6.5, 7.5, 12.5, 13.5]);
        assert_eq!(after[2], vec![2.0, 8.0, 14.0]);
        assert_eq!(after[3][..4], [9.0, 3.5, 4.5, 5.5]);
        // The same splitter dealing an int input onto float outputs.
        let ints: Vec<f64> = (0..19).map(f64::from).collect();
        let after = batched_matches_single(
            &[
                roomy(I, 25, &ints),
                roomy(F, 31, &[]),
                roomy(F, 17, &[]),
                roomy(I, 30, &[9.0]),
            ],
            split,
        );
        assert_eq!(after[0], vec![18.0]);
        assert_eq!(after[1], vec![0.0, 1.0, 6.0, 7.0, 12.0, 13.0]);
        assert_eq!(after[2], vec![2.0, 8.0, 14.0]);
        assert_eq!(after[3][..4], [9.0, 3.0, 4.0, 5.0]);
        // The matching joiner interleaves its inputs firing by firing,
        // onto a float output and onto an int one.
        let join = |times| moves([(0, 3, 2), (1, 3, 1), (2, 3, 3)], times);
        for (out, want) in [
            (F, [0.5, 1.5, 10.0, 0.5, 1.5, 2.5, 2.5, 3.5, 20.0]),
            (I, [0.0, 1.0, 10.0, 0.0, 1.0, 2.0, 2.0, 3.0, 20.0]),
        ] {
            let after = batched_matches_single(
                &[
                    roomy(F, 28, &halves(7)),
                    roomy(I, 31, &[10.0, 20.0, 30.0]),
                    roomy(F, 26, &halves(9)),
                    roomy(out, 27, &[]),
                ],
                join,
            );
            assert_eq!(after[..3], [vec![6.5], vec![], vec![]]);
            assert_eq!(after[3][..9], want);
            assert_eq!(after[3].len(), 18);
        }
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
        // The op is checked whole: two firings of two items each.
        assert_eq!(
            reason(&mv(0, 1, 2), vec![tape_f(&[1.0, 2.0, 3.0]), tape_f(&[])]),
            "tape underflow: need 4, have 3"
        );
        assert_eq!(
            reason(&mv(0, 1, 2), vec![tape_f(&[1.0; 4]), tape_f(&[0.0; 5])]),
            "tape overflow: need 4 free, have 3"
        );
        assert_eq!(
            reason(&mv(0, 0, 1), vec![tape_f(&[1.0; 4])]),
            "move needs two distinct tapes"
        );
        // A joiner's output must hold both firings of all its inputs.
        let join = moves([(0, 2, 1), (1, 2, 1), (3, 2, 0)], 2);
        let tapes = || vec![tape_f(&[1.0; 2]), tape_f(&[2.0; 2]), tape_f(&[0.0; 5])];
        let mut four = tapes();
        four.push(tape_f(&[]));
        assert_eq!(reason(&join, four), "tape overflow: need 4 free, have 3");
        let neither = moves([(0, 1, 1), (2, 3, 1), (0, 1, 1)], 1);
        let mut four = tapes();
        four.push(tape_f(&[]));
        assert_eq!(
            reason(&neither, four),
            "moves neither from one tape nor into one"
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
        match run_ops(&[dup], &mut shards, 0, &[], 2, &mut LaneBank::default()) {
            Err(ExecError::Fault { node, .. }) => assert_eq!(node, "schedule"),
            other => panic!("expected a fault, got {other:?}"),
        }
    }

    // ---- lane bodies -----------------------------------------------------

    /// What arithmetic on this machine makes of `0 / 0`: the one NaN
    /// pattern the engines produce.
    fn hardware_nan() -> f64 {
        std::hint::black_box(0.0f64) / std::hint::black_box(0.0)
    }

    /// Ordinary values in [-2, 2), and one draw in 64 from ±0, ±inf, ±
    /// a subnormal and the hardware NaN.
    struct Draw(proptest::rng::Rng);

    impl Draw {
        fn new(seed: u64) -> Draw {
            Draw(proptest::rng::Rng::from_name(&seed.to_string()))
        }

        fn value(&mut self) -> f64 {
            let specials = [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE / 8.0,
                -f64::MIN_POSITIVE / 3.0,
                hardware_nan(),
            ];
            let z = self.0.next_u64();
            if z.is_multiple_of(64) {
                specials[(z >> 8) as usize % specials.len()]
            } else {
                (z >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
            }
        }
    }

    /// `[let u = 2.5;] let s = acc0; s = s + peek(k)·c0; …; push(s);`
    /// then `pop` discarded pops, on float tapes: one dot product with
    /// one or two leading constants.
    fn fir(acc0: f64, k: usize, taps: &[f64], pop: usize, two_consts: bool) -> FilterCode {
        let taps = taps.to_vec();
        let f = FilterBuilder::new("fir", F)
            .rates((k + taps.len()).max(pop), pop, 1)
            .work(move |b| {
                let b = if two_consts {
                    b.let_("u", F, lit(2.5))
                } else {
                    b
                };
                let b = b.let_("s", F, lit(acc0));
                let b = taps.iter().enumerate().fold(b, |b, (t, &c)| {
                    b.set("s", var("s") + peek(lit((k + t) as i64)) * lit(c))
                });
                (0..pop).fold(b.push(var("s")), |b, _| b.pop_discard())
            })
            .build();
        lane_body(&f, F)
    }

    /// `f` lowered as written over `ty` tapes.
    fn lowered(f: &streamit_graph::Filter, ty: DataType) -> FilterCode {
        let opts = LowerOptions { opt_level: 0 };
        let lowering = LoweringCache::default().lower(f, &f.name, Some(ty), Some(ty), opts);
        lowering.expect("lowers").0
    }

    /// `f` lowered over `ty` tapes, which must mark it lane-safe.
    fn lane_body(f: &streamit_graph::Filter, ty: DataType) -> FilterCode {
        let fc = lowered(f, ty);
        assert!(fc.work.lane_safe, "not a lane body: {:?}", fc.work.code);
        fc
    }

    fn bits(t: &Tape) -> Vec<u64> {
        match t {
            Tape::F(r) => r.to_vec().iter().map(|v| v.to_bits()).collect(),
            Tape::I(r) => r.to_vec().iter().map(|&v| v as u64).collect(),
        }
    }

    fn regs(fr: &Frame) -> (Vec<u64>, Vec<i64>) {
        (fr.f.iter().map(|v| v.to_bits()).collect(), fr.i.clone())
    }

    /// An int tape of `cap` slots holding `items`, its cursors `skew`
    /// slots in.
    fn ints(cap: u64, skew: u64, items: &[i64]) -> Tape {
        let mut t = skewed(I, cap, skew, &[]);
        for &v in items {
            t.push_i(v).expect("fits");
        }
        t
    }

    /// `times` firings of `fc`'s work body from a fresh frame, once
    /// through [`fire`] and once on the VM alone, leave tapes and frame
    /// registers the same by bits, and fault alike.  Returns the firings
    /// the lanes ran, the VM's result and the output tape.
    fn lanes_against_vm(
        fc: &FilterCode,
        input: Tape,
        output: Tape,
        times: u32,
    ) -> (u64, Result<(), String>, Tape) {
        let (mut fr, mut inp, mut out) = (Frame::new(fc), input.clone(), output.clone());
        let mut bank = LaneBank::default();
        let laned = fire(
            &fc.work,
            &mut fr,
            Some(&mut inp),
            Some(&mut out),
            times,
            &mut bank,
        );
        let (mut vfr, mut vinp, mut vout) = (Frame::new(fc), input, output);
        let vm = (0..times)
            .try_for_each(|_| exec_program(&fc.work, &mut vfr, Some(&mut vinp), Some(&mut vout)));
        let what = format!("{} × {times}", fc.name);
        assert_eq!(laned, vm, "fault of {what}");
        assert_eq!(bits(&out), bits(&vout), "output of {what}");
        assert_eq!(bits(&inp), bits(&vinp), "input left by {what}");
        assert_eq!(regs(&fr), regs(&vfr), "frame after {what}");
        (bank.laned, vm, out)
    }

    /// One op of `times` firings of a FIR against `input` (on a ring of
    /// `cap` slots whose cursors start `skew` in) is `times` VM firings
    /// by bits.  Returns whether the lanes ran: every whole group of
    /// `LANES` must.
    fn lanes_match_vm(fc: &FilterCode, input: &[f64], cap: u64, skew: u64, times: u32) -> bool {
        let (input, output) = (skewed(F, cap, skew, input), skewed(F, 32, skew % 32, &[]));
        let (laned, vm, _) = lanes_against_vm(fc, input, output, times);
        vm.expect("VM fires");
        let groups = times as usize / LANES;
        assert_eq!(laned, (groups * LANES) as u64, "times {times}");
        groups > 0
    }

    /// Items a run of `times` firings reads: the last firing's window.
    fn span(pop: usize, k: usize, n: usize, times: u32) -> usize {
        (times as usize - 1) * pop + (k + n).max(pop)
    }

    #[test]
    fn lane_ops_match_single_firings_by_bits() {
        let mut draw = Draw::new(7);
        let mut laned = 0;
        for pop in 1..=3 {
            for k in [0, 2] {
                for n in 1..=80 {
                    let taps: Vec<f64> = (0..n).map(|_| draw.value()).collect();
                    let acc0 = if n % 4 == 0 { -0.0 } else { draw.value() };
                    let fc = fir(acc0, k, &taps, pop, n % 2 == 0);
                    for times in 1..=2 * LANES as u32 + 3 {
                        // A few items past the span, and the ring's
                        // cursors somewhere new each time.
                        let items = span(pop, k, n, times) + n % 3;
                        let input: Vec<f64> = (0..items).map(|_| draw.value()).collect();
                        let cap = (items as u64).next_power_of_two();
                        let skew = (n as u64 * 7 + u64::from(times) * 3) % cap;
                        laned += usize::from(lanes_match_vm(&fc, &input, cap, skew, times));
                    }
                }
            }
        }
        assert_eq!(laned, 3 * 2 * 80 * (LANES + 4));
    }

    #[test]
    fn lane_windows_wrapping_at_every_ring_offset_match_single_firings() {
        let mut draw = Draw::new(11);
        for (pop, k, n, times) in [(3, 2, 37, 19), (1, 0, 80, 8), (2, 1, 5, 11)] {
            let taps: Vec<f64> = (0..n).map(|_| draw.value()).collect();
            let fc = fir(draw.value(), k, &taps, pop, false);
            let items = span(pop, k, n, times);
            let input: Vec<f64> = (0..items).map(|_| draw.value()).collect();
            let cap = (items as u64).next_power_of_two();
            for skew in 0..cap {
                assert!(lanes_match_vm(&fc, &input, cap, skew, times));
            }
        }
    }

    /// Dot products at every pop (the pop-1 ones in tiles), at tap counts
    /// on either side of a lane group and of a tile, and at strides that
    /// end inside a group, on a group, on a tile and across a chunk: as
    /// one op they are the VM's firings by bits — tapes, frame registers
    /// and results — at four ring skews, with room for every output and
    /// with one slot short, where both fault alike.
    #[test]
    fn dot_products_in_the_lanes_match_the_vm_at_every_shape() {
        let mut draw = Draw::new(17);
        let mut laned = 0;
        for pop in 1..=3 {
            for n in [1, 7, 8, 16, 17, 64] {
                let taps: Vec<f64> = (0..n).map(|_| draw.value()).collect();
                let fc = fir(draw.value(), 1, &taps, pop, n % 2 == 1);
                for times in [1, 7, 8, 9, 16, 17, 128, 129] {
                    let items = span(pop, 1, n, times);
                    let input: Vec<f64> = (0..items).map(|_| draw.value()).collect();
                    let (cap, room) = ((items as u64).next_power_of_two(), 256);
                    for skew in [0, 1, cap / 2 + 3, cap - 1] {
                        let (inp, out) = (
                            skewed(F, cap, skew % cap, &input),
                            skewed(F, room, skew % room, &[]),
                        );
                        let (l, vm, _) = lanes_against_vm(&fc, inp.clone(), out, times);
                        vm.expect("VM fires");
                        laned += l;
                        let full = vec![0.0; (room - u64::from(times)) as usize + 1];
                        let out = skewed(F, room, skew % room, &full);
                        let (_, vm, _) = lanes_against_vm(&fc, inp, out, times);
                        assert_eq!(vm, Err("output tape capacity exceeded".into()));
                    }
                }
            }
        }
        // Every whole group of every run with room took the lanes.
        assert_eq!(laned, 3 * 6 * 4 * (8 + 8 + 16 + 16 + 128 + 128));
    }

    /// The tile on this host (the AVX copy when the host has AVX) and the
    /// portable one sum the same windows to the same bits, and each lane
    /// is the one-at-a-time sum, with ±0, ±∞, subnormals and the hardware
    /// NaN among the items, coefficients and starting sums.
    #[test]
    fn the_avx_tile_is_the_portable_tile_by_bits() {
        #[cfg(target_arch = "x86_64")]
        let avx = std::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        let avx = false;
        if !avx {
            eprintln!("no AVX on this host: only the portable tile is checked");
        }
        let mut draw = Draw::new(19);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
            -f64::MIN_POSITIVE / 3.0,
            hardware_nan(),
        ];
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [1, 7, 8, 16, 17, 64] {
            for case in 0..64 {
                // One value in five a special, at a place that moves.
                let mut value = |i: usize| match (i + case) % 5 {
                    0 => specials[(i + case) % specials.len()],
                    _ => draw.value(),
                };
                let x: Vec<f64> = (0..TILE - 1 + n).map(&mut value).collect();
                let c: Vec<f64> = (0..n).map(|i| value(i + 3)).collect();
                let acc: [f64; TILE] = std::array::from_fn(|j| value(j + 1));
                let tile = dot_tile(acc, &x, &c);
                assert_eq!(bits(&tile), bits(&dot_lanes(acc, &x, 1, &c)), "{n} taps");
                for (j, &sum) in tile.iter().enumerate() {
                    let [one] = dot_lanes([acc[j]], &x[j..], 0, &c);
                    assert_eq!(sum.to_bits(), one.to_bits(), "lane {j} of {n} taps");
                }
            }
        }
    }

    /// One item short of the span, or one output slot short: the lanes
    /// run the group that fits, and the VM faults at the firing that
    /// finds the gap, with its own text.
    #[test]
    fn a_lane_op_short_of_input_or_room_faults_where_the_vm_does() {
        let fc = fir(0.0, 1, &[0.5; 6], 2, false);
        let times = LANES as u32 + 1;
        let loc = |slot| Loc { shard: 0, slot };
        let op = Op::Work {
            code: 0,
            frame: loc(0),
            input: Some(loc(0)),
            output: Some(loc(1)),
            prework: false,
            times,
        };
        let fault = |input: Tape, output: Tape| {
            let (laned, vm, _) = lanes_against_vm(&fc, input.clone(), output.clone(), times);
            assert_eq!(laned, LANES as u64);
            let mut shards = vec![Shard {
                tapes: vec![input, output],
                frames: vec![Frame::new(&fc)],
            }];
            let codes = std::slice::from_ref(&fc);
            let mut bank = LaneBank::default();
            let err = run_ops(
                std::slice::from_ref(&op),
                &mut shards,
                0,
                codes,
                1,
                &mut bank,
            )
            .expect_err("the op must fault");
            assert_eq!(
                err,
                ExecError::Fault {
                    node: "fir".into(),
                    reason: vm.expect_err("the VM faults"),
                }
            );
            err
        };
        let short = vec![1.0; span(2, 1, 6, times) - 1];
        assert_eq!(
            fault(skewed(F, 32, 30, &short), skewed(F, 16, 0, &[])),
            ExecError::Fault {
                node: "fir".into(),
                reason: "peek beyond available input".into()
            }
        );
        let enough = vec![1.0; span(2, 1, 6, times)];
        assert_eq!(
            fault(skewed(F, 32, 30, &enough), skewed(F, 16, 0, &[0.0; 8])),
            ExecError::Fault {
                node: "fir".into(),
                reason: "output tape capacity exceeded".into()
            }
        );
    }

    /// `a / b` over popped pairs, trapping (`i64::MIN / -1`, then `/ 0`)
    /// in lane 5 of a later group: of the second group of a two-group
    /// chunk, of the sixth of an eight-group one, and of the fourth
    /// group of an op's second chunk.  The groups before it are laned,
    /// the rest is left to the VM, which faults at the trapping firing
    /// with its own text after the same outputs.
    #[test]
    fn a_trap_in_one_lane_faults_at_the_vm_firing() {
        let f = FilterBuilder::new("div", I)
            .rates(2, 2, 1)
            .work(|b| b.let_("a", I, pop()).push(var("a") / pop()))
            .build();
        let fc = lane_body(&f, I);
        for (times, group) in [(16, 1), (64, 5), (136, CHUNK + 3)] {
            let at = group * LANES + 5;
            for (a, b) in [(i64::MIN, -1), (7, 0)] {
                let mut items: Vec<i64> = (0..2 * times as i64)
                    .map(|j| if j % 2 == 0 { 1000 - 37 * j } else { 1 + j % 5 })
                    .collect();
                (items[2 * at], items[2 * at + 1]) = (a, b);
                let (cap, room) = (4 * u64::from(times), 2 * u64::from(times));
                let (laned, vm, out) =
                    lanes_against_vm(&fc, ints(cap, 41, &items), ints(room, 0, &[]), times);
                assert_eq!(laned, (group * LANES) as u64);
                assert_eq!(vm, Err("division by zero".to_string()));
                assert_eq!(out.len(), at as u64);
            }
        }
    }

    /// A body that reads int and float state it never writes is a lane
    /// body, and every chunk of a long op reads the frame's state: only
    /// the state columns are filled from the frame, the rest start as
    /// whatever the bank held.
    #[test]
    fn lane_bodies_read_the_frames_state_in_every_chunk() {
        let f = FilterBuilder::new("scale", F)
            .state("k", I, streamit_graph::Value::Int(3))
            .state("g", F, streamit_graph::Value::Float(-0.75))
            .rates(1, 1, 1)
            .work(|b| b.push(pop() * var("g") + var("k")))
            .build();
        let fc = lane_body(&f, F);
        let mut draw = Draw::new(23);
        for times in [8, 64, 136] {
            let input: Vec<f64> = (0..times).map(|_| draw.value()).collect();
            let (inp, out) = (skewed(F, 256, 5, &input), skewed(F, 256, 9, &[]));
            let (laned, vm, _) = lanes_against_vm(&fc, inp, out, times);
            vm.expect("VM fires");
            assert_eq!(laned, u64::from(times));
        }
    }

    /// A branch on a popped value goes one way in some lanes and the
    /// other way in others: such a body is not marked, and forced
    /// through the lanes it falls back to the VM at the first group
    /// whose lanes leave the way the chunk's first firing went — here
    /// the third group of a four-group chunk.
    #[test]
    fn a_branch_that_differs_per_lane_falls_back() {
        let f = FilterBuilder::new("branch", I)
            .rates(1, 1, 1)
            .work(|b| {
                b.let_("s", I, lit(0i64))
                    .let_("n", I, pop() & lit(3i64))
                    .if_(cmp(BinOp::Gt, var("n"), lit(1i64)), |b| {
                        b.set("s", var("n") * lit(5i64))
                    })
                    .push(var("s"))
            })
            .build();
        let mut fc = lowered(&f, I);
        assert!(!fc.work.lane_safe);
        fc.work.lane_safe = true;
        // Two groups that take the branch, then one of mixed ways.
        let mixed = [0, 1, 2, 3, 3, 2, 1, 0];
        let items: Vec<i64> = [[2; 8], [3; 8], mixed, [2; 8]].concat();
        let (laned, vm, out) = lanes_against_vm(&fc, ints(32, 3, &items), ints(32, 0, &[]), 32);
        vm.expect("VM fires");
        assert_eq!(laned, 2 * LANES as u64);
        assert_eq!(bits(&out)[16..24], [0, 0, 10, 15, 15, 10, 0, 0]);
    }

    /// `times` firings of a dense-kernel filter against `input` (on a
    /// ring of `cap` slots whose cursors start `skew` in) leave output
    /// and remaining input as `times` VM firings of its own bytecode do,
    /// by bits.
    fn dense_matches_vm(fc: &FilterCode, input: &[f64], cap: u64, skew: u64, times: u32) {
        let room = (fc.work.rates.push * u64::from(times)).next_power_of_two();
        let start = (
            skewed(F, cap, skew, input),
            skewed(F, room, skew % room, &[]),
        );
        let (mut inp, mut out) = start.clone();
        let kernel = fc.kernel.as_ref().expect("a kernel filter");
        kernel
            .run(&mut inp, &mut out, times, &mut Vec::new())
            .expect("kernel fires");
        let (mut vinp, mut vout) = start;
        let mut fr = Frame::new(fc);
        for _ in 0..times {
            exec_program(&fc.work, &mut fr, Some(&mut vinp), Some(&mut vout)).expect("VM fires");
        }
        let what = format!("{} × {times} at skew {skew}", fc.name);
        assert_eq!(bits(&out), bits(&vout), "output of {what}");
        assert_eq!(bits(&inp), bits(&vinp), "input left by {what}");
    }

    /// Every dense kernel the linear optimizer attaches under
    /// `Replacement` — to the corpus apps and to the linear suite — is
    /// its filter's bytecode, bit for bit, on either side of a lane
    /// group and wherever the ring wraps.  Each FIR program has a row
    /// that takes the lanes.
    #[test]
    fn dense_kernels_are_their_bytecode_by_bits() {
        use crate::kernel::KernelCode;
        use crate::CompiledGraph;
        use streamit_apps::{corpus, linear_suite::linear_suite};
        use streamit_graph::FlatGraph;
        use streamit_linear::{optimize_stream, LinearMode};

        let apps = corpus().iter().map(|a| (a.name, a.graph()));
        let mut draw = Draw::new(13);
        let mut kernels = 0;
        for (name, stream) in apps.chain(linear_suite()) {
            let (opt, _) = optimize_stream(&stream, LinearMode::Replacement);
            let Ok(cg) = CompiledGraph::compile(&FlatGraph::from_stream(&opt), opt.input_type())
            else {
                continue;
            };
            let mut banded = false;
            for fc in &cg.plan().codes {
                let Some(KernelCode::Dense(k)) = &fc.kernel else {
                    continue;
                };
                kernels += 1;
                banded |= k.banded_rows() > 0;
                for times in [1, 7, 8, 9, 16, 17] {
                    let items = k.pop * (times as usize - 1) + k.window;
                    let input: Vec<f64> = (0..items).map(|_| draw.value()).collect();
                    let cap = (items as u64).next_power_of_two();
                    for skew in [0, 1, cap / 2 + 3, cap - 1] {
                        dense_matches_vm(fc, &input, cap, skew % cap, times);
                    }
                }
            }
            let fir = ["fmradio", "filterbank", "beamformer"].contains(&name)
                || linear_suite().iter().any(|(n, _)| *n == name);
            assert!(
                !fir || banded,
                "{name}: no dense kernel row takes the lanes"
            );
        }
        assert!(kernels > 0);
    }
}
