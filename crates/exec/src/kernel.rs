//! Native kernels for optimizer-hinted filters.
//!
//! The linear optimizer attaches a [`KernelSpec`] to every filter it
//! materializes, describing the affine map the work function computes.
//! At plan time ([`crate::lowering`]) the hint is validated
//! against the node's declared rates and tape types and compiled into a
//! [`KernelCode`]; at run time the engine dispatches the kernel instead
//! of the bytecode VM — a tight loop over the ring tape's unboxed `f64`
//! window, with no per-instruction dispatch and no register traffic.
//!
//! Two kernels exist, matching the two hint shapes:
//!
//! * **Dense** — `y = A·x + b` in CSR form.  Every row is summed by
//!   [`crate::engine::dot_lanes`], the VM's own dot product, starting
//!   from the row's constant and adding the taps in hint order, which
//!   replicates the materialized work IR's accumulation exactly: dense
//!   output is *bit-identical* to interpreting the bytecode (and to the
//!   reference interpreter on the same graph), at every firing count.
//!   Rows whose taps are one ascending run of the window (banded FIR
//!   rows) read it in place, [`LANES`] firings side by side, or a
//!   [`TILE`] of them through [`crate::engine::dot_tile`] when the
//!   filter pops one item (its windows are one item apart); other rows
//!   gather their taps first.
//! * **Freq** — overlap-save FFT convolution of a block-expanded FIR:
//!   one real-input transform per block ([`RealFft::convolve`]) against
//!   the precomputed half spectrum of the taps.  FFT convolution
//!   reassociates the sums, so its output matches the time-domain
//!   reference within an ULP tolerance, not bitwise — callers compare
//!   accordingly.  Each block's output depends on its own window only,
//!   so it does not change with the number of firings one call runs.
//!
//! Both check their input and output room before they touch a tape, and
//! fault at the firing the bytecode would, with its text.  A hint that
//! fails validation is silently dropped: the filter simply runs its
//! bytecode, which is always present and always correct.

use std::ops::Range;

use streamit_graph::kernel::KernelSpec;
use streamit_linear::fft::RealFft;

use crate::engine::{dot_lanes, dot_tile, LANES, TILE};
use crate::tape::Tape;

/// Compiled form of [`KernelSpec::Linear`]: the affine map in CSR
/// layout (each row's taps are a range of `tap_idx` / `tap_coef`).
#[derive(Debug, Clone)]
pub struct DenseKernel {
    pub window: usize,
    pub pop: usize,
    rows: Vec<DenseRow>,
    tap_idx: Vec<u32>,
    tap_coef: Vec<f64>,
    /// The most taps of a row that gathers them (see [`DenseRow::band`]).
    gather: usize,
}

#[derive(Debug, Clone)]
struct DenseRow {
    taps: Range<usize>,
    constant: f64,
    /// The first window index when the row's taps are `first, first + 1,
    /// …` in hint order: the row reads the window in place.
    band: Option<usize>,
}

/// Compiled form of [`KernelSpec::FreqFir`]: the real-input plan, the
/// taps' half spectrum and the overlap-save geometry.
#[derive(Debug, Clone)]
pub struct FreqKernel {
    fft: RealFft,
    h_re: Vec<f64>,
    h_im: Vec<f64>,
    offset: f64,
    /// Tap count `N`; the window is `block + N - 1`.
    pub taps: usize,
    pub block: usize,
}

/// A validated, executable kernel attached to a `FilterCode`.
#[derive(Debug, Clone)]
pub enum KernelCode {
    Dense(DenseKernel),
    Freq(FreqKernel),
}

impl KernelCode {
    /// Compile a hint into an executable kernel.  The caller has
    /// already checked [`KernelSpec::matches_rates`] and that both
    /// tapes carry `f64`; this only builds the derived tables.
    pub fn build(spec: &KernelSpec) -> KernelCode {
        match spec {
            KernelSpec::Linear { peek, pop, rows } => {
                let mut tap_idx = Vec::new();
                let mut tap_coef = Vec::new();
                let rows = rows
                    .iter()
                    .map(|r| {
                        let lo = tap_idx.len();
                        tap_idx.extend(r.taps.iter().map(|&(i, _)| i));
                        tap_coef.extend(r.taps.iter().map(|&(_, c)| c));
                        let idx = &tap_idx[lo..];
                        let first = idx.first().map_or(0, |&i| i as usize);
                        let banded = idx
                            .iter()
                            .enumerate()
                            .all(|(t, &i)| i as usize == first + t);
                        DenseRow {
                            taps: lo..tap_idx.len(),
                            constant: r.constant,
                            band: banded.then_some(first),
                        }
                    })
                    .collect::<Vec<_>>();
                let gather = rows
                    .iter()
                    .filter(|r| r.band.is_none())
                    .map(|r| r.taps.len())
                    .max()
                    .unwrap_or(0);
                KernelCode::Dense(DenseKernel {
                    window: *peek,
                    pop: *pop,
                    rows,
                    tap_idx,
                    tap_coef,
                    gather,
                })
            }
            KernelSpec::FreqFir {
                taps,
                constant,
                block,
            } => {
                let n = taps.len();
                let fft = RealFft::new((n + block - 1).next_power_of_two().max(2));
                // Correlation as circular convolution: load the taps
                // reversed so the valid outputs sit at offset n-1 (the
                // same layout as `streamit_linear::freq::FreqFilter`).
                let reversed: Vec<f64> = taps.iter().rev().copied().collect();
                let (mut h_re, mut h_im) = (vec![0.0; fft.bins()], vec![0.0; fft.bins()]);
                fft.forward(&reversed, &mut h_re, &mut h_im);
                KernelCode::Freq(FreqKernel {
                    fft,
                    h_re,
                    h_im,
                    offset: *constant,
                    taps: n,
                    block: *block,
                })
            }
        }
    }

    /// Run `times` firings against the filter's tapes, using `scratch`
    /// as work space (sized here; contents are overwritten).  Pops are
    /// applied to `input` on success, exactly as the bytecode path does
    /// after a firing.
    pub fn run(
        &self,
        input: &mut Tape,
        output: &mut Tape,
        times: u32,
        scratch: &mut Vec<f64>,
    ) -> Result<(), String> {
        match self {
            KernelCode::Dense(k) => k.run(input, output, times as usize, scratch),
            KernelCode::Freq(k) => k.run(input, output, times, scratch),
        }
    }
}

impl DenseKernel {
    /// Rows whose taps read the window in place.
    #[cfg(test)]
    pub(crate) fn banded_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.band.is_some()).count()
    }

    fn run(
        &self,
        input: &mut Tape,
        output: &mut Tape,
        times: usize,
        scratch: &mut Vec<f64>,
    ) -> Result<(), String> {
        if times == 0 {
            return Ok(());
        }
        let (Tape::F(inp), Tape::F(_)) = (&mut *input, &*output) else {
            return Err("linear kernel on non-float tape".into());
        };
        // The whole span of `times` firings, in at most two runs of the
        // ring; a wrapped span is copied once.
        let (pop, push) = (self.pop, self.rows.len());
        let span = pop * (times - 1) + self.window;
        let Some((head, tail)) = inp.window(0, span as u64) else {
            return Err("peek beyond available input".into());
        };
        // The firings whose outputs fit run; the one after them is the
        // firing whose push would find the tape full.
        let fit = match push {
            0 => times,
            _ => times.min(output.free() as usize / push),
        };
        let staged = if tail.is_empty() { 0 } else { span };
        // Windows one item apart are summed a tile at a time.
        let step = if pop == 1 { TILE } else { LANES };
        scratch.resize(step * (push + self.gather) + staged, 0.0);
        let (y, rest) = scratch.split_at_mut(step * push);
        let (g, xs) = rest.split_at_mut(step * self.gather);
        let x = if tail.is_empty() {
            head
        } else {
            xs[..head.len()].copy_from_slice(head);
            xs[head.len()..].copy_from_slice(tail);
            &xs[..]
        };
        let mut t = 0;
        while t + step <= fit {
            match step {
                TILE => self.fire::<TILE>(&x[t * pop..], y, g),
                _ => self.fire::<LANES>(&x[t * pop..], y, g),
            }
            output.extend_from_f64(y);
            t += step;
        }
        let rest = fit - t;
        for r in 0..rest {
            self.fire::<1>(&x[(t + r) * pop..], &mut y[r * push..], g);
        }
        output.extend_from_f64(&y[..rest * push]);
        if fit < times {
            return Err("output tape capacity exceeded".into());
        }
        inp.advance((pop * times) as u64);
        Ok(())
    }

    /// `L` firings whose windows start `pop` apart at `x`: output row `j`
    /// of firing `l` goes to `y[l·push + j]`.
    #[inline(always)]
    fn fire<const L: usize>(&self, x: &[f64], y: &mut [f64], g: &mut [f64]) {
        let push = self.rows.len();
        for (j, row) in self.rows.iter().enumerate() {
            let coef = &self.tap_coef[row.taps.clone()];
            let sums = match row.band {
                Some(first) if self.pop == 1 => dot_tile([row.constant; L], &x[first..], coef),
                Some(first) => dot_lanes([row.constant; L], &x[first..], self.pop, coef),
                None => {
                    let idx = &self.tap_idx[row.taps.clone()];
                    let n = idx.len();
                    for (l, g) in g.chunks_exact_mut(n.max(1)).take(L).enumerate() {
                        for (v, &i) in g.iter_mut().zip(idx) {
                            *v = x[l * self.pop + i as usize];
                        }
                    }
                    dot_lanes([row.constant; L], g, n, coef)
                }
            };
            for (l, s) in sums.into_iter().enumerate() {
                y[l * push + j] = s;
            }
        }
    }
}

impl FreqKernel {
    fn run(
        &self,
        input: &mut Tape,
        output: &mut Tape,
        times: u32,
        scratch: &mut Vec<f64>,
    ) -> Result<(), String> {
        let (Tape::F(inp), Tape::F(_)) = (&mut *input, &*output) else {
            return Err("frequency kernel on non-float tape".into());
        };
        let window = self.block + self.taps - 1;
        let bins = self.fft.bins();
        scratch.resize(2 * bins + window + self.block, 0.0);
        let (re, rest) = scratch.split_at_mut(bins);
        let (im, rest) = rest.split_at_mut(bins);
        let (xs, y) = rest.split_at_mut(window);
        for _ in 0..times {
            let Some((head, tail)) = inp.window(0, window as u64) else {
                return Err("peek beyond available input".into());
            };
            if output.free() < self.block as u64 {
                return Err("output tape capacity exceeded".into());
            }
            let x = if tail.is_empty() {
                head
            } else {
                xs[..head.len()].copy_from_slice(head);
                xs[head.len()..].copy_from_slice(tail);
                &xs[..]
            };
            self.fft.convolve(x, &self.h_re, &self.h_im, re, im);
            self.emit(re, im, y);
            output.extend_from_f64(y);
            inp.advance(self.block as u64);
        }
        Ok(())
    }

    /// The block's outputs, samples `taps − 1 ..` of the convolution
    /// (packed by [`RealFft::convolve`]: sample `2k` in `re[k]`, `2k + 1`
    /// in `im[k]`) plus the offset, into `y`.
    #[inline]
    fn emit(&self, re: &[f64], im: &[f64], y: &mut [f64]) {
        let (first, off) = (self.taps - 1, self.offset);
        // An odd first sample is an `im`; after it they come in pairs.
        let (lead, y) = y.split_at_mut(first % 2);
        if let [v] = lead {
            *v = im[first / 2] + off;
        }
        let (k, last) = (first.div_ceil(2), first.div_ceil(2) + y.len() / 2);
        let mut pairs = y.chunks_exact_mut(2);
        for (p, (&r, &i)) in (&mut pairs).zip(re[k..].iter().zip(&im[k..])) {
            p[0] = r + off;
            p[1] = i + off;
        }
        if let [v] = pairs.into_remainder() {
            *v = re[last] + off;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Ring;
    use streamit_graph::kernel::KernelRow;

    fn float_tape(items: &[f64], cap: u64) -> Tape {
        let mut r: Ring<f64> = Ring::with_capacity(cap.max(items.len() as u64));
        for &v in items {
            r.push(v).expect("fits");
        }
        Tape::F(r)
    }

    fn drain(t: &Tape) -> Vec<f64> {
        match t {
            Tape::F(r) => r.to_vec(),
            Tape::I(_) => panic!("wrong tape type"),
        }
    }

    #[test]
    fn dense_kernel_computes_affine_rows() {
        // peek 3, pop 1, push 2: y0 = 2 + x0 - x2, y1 = 0.5*x1.
        let spec = KernelSpec::Linear {
            peek: 3,
            pop: 1,
            rows: vec![
                KernelRow {
                    taps: vec![(0, 1.0), (2, -1.0)],
                    constant: 2.0,
                },
                KernelRow {
                    taps: vec![(1, 0.5)],
                    constant: 0.0,
                },
            ],
        };
        let k = KernelCode::build(&spec);
        let mut input = float_tape(&[1.0, 2.0, 3.0, 4.0], 8);
        let mut out = float_tape(&[], 8);
        k.run(&mut input, &mut out, 2, &mut Vec::new())
            .expect("runs");
        assert_eq!(drain(&out), vec![0.0, 1.0, 0.0, 1.5]);
        assert_eq!(input.len(), 2);
    }

    #[test]
    fn dense_kernel_reports_underflow() {
        let spec = KernelSpec::Linear {
            peek: 4,
            pop: 1,
            rows: vec![KernelRow {
                taps: vec![(3, 1.0)],
                constant: 0.0,
            }],
        };
        let k = KernelCode::build(&spec);
        let mut input = float_tape(&[1.0, 2.0], 8);
        let mut out = float_tape(&[], 8);
        let err = k
            .run(&mut input, &mut out, 1, &mut Vec::new())
            .expect_err("underflows");
        assert!(err.contains("peek beyond"), "{err}");
    }

    #[test]
    fn freq_kernel_matches_time_domain_fir() {
        let taps: Vec<f64> = (0..24).map(|i| ((i as f64) * 0.3).sin()).collect();
        let block = 16usize;
        let spec = KernelSpec::FreqFir {
            taps: taps.clone(),
            constant: 0.25,
            block,
        };
        let k = KernelCode::build(&spec);
        let n = taps.len();
        let input: Vec<f64> = (0..96).map(|i| ((i as f64) * 0.11).cos()).collect();
        let mut in_t = float_tape(&input, 128);
        let mut out = float_tape(&[], 128);
        k.run(&mut in_t, &mut out, 3, &mut Vec::new())
            .expect("runs");
        let got = drain(&out);
        assert_eq!(got.len(), 3 * block);
        for (t, &y) in got.iter().enumerate() {
            let expect: f64 = 0.25 + (0..n).map(|i| taps[i] * input[t + i]).sum::<f64>();
            assert!((y - expect).abs() < 1e-9, "output {t}: {y} vs {expect}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A `taps`-tap FIR expanded to `block` outputs per firing.
    fn freq(taps: usize, block: usize) -> (KernelCode, Vec<f64>) {
        let h: Vec<f64> = (0..taps).map(|i| ((i as f64) * 0.7 + 0.2).sin()).collect();
        let spec = KernelSpec::FreqFir {
            taps: h.clone(),
            constant: -0.5,
            block,
        };
        (KernelCode::build(&spec), h)
    }

    /// `times` firings of `k` over `input` in one call, against a ring
    /// whose cursors start `skew` in, leaving the output stream.
    fn fire(
        k: &KernelCode,
        input: &[f64],
        skew: u64,
        times: u32,
        scratch: &mut Vec<f64>,
    ) -> Vec<f64> {
        let cap = (input.len() as u64 + 1).next_power_of_two();
        let mut r: Ring<f64> = Ring::with_capacity(cap);
        for _ in 0..skew % cap {
            r.push(0.0).expect("fits");
        }
        r.advance(skew % cap);
        for &v in input {
            r.push(v).expect("fits");
        }
        let mut in_t = Tape::F(r);
        let mut out = float_tape(&[], 4096);
        k.run(&mut in_t, &mut out, times, scratch).expect("runs");
        drain(&out)
    }

    /// A block's output depends on its own window only: sixteen firings
    /// in one call are sixteen single firings, bit for bit, wherever the
    /// ring wraps — and match the time-domain FIR.
    #[test]
    fn freq_kernel_firings_do_not_depend_on_the_call() {
        for (taps, block) in [(64, 65), (24, 16), (5, 4), (2, 1), (1, 1), (1, 8)] {
            let (k, h) = freq(taps, block);
            let window = block + taps - 1;
            let input: Vec<f64> = (0..15 * block + window)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0)
                .collect();
            for skew in [0, 3, 61, 200] {
                let mut scratch = Vec::new();
                let whole = fire(&k, &input, skew, 16, &mut scratch);
                let single: Vec<f64> = (0..16)
                    .flat_map(|f| {
                        fire(
                            &k,
                            &input[f * block..f * block + window],
                            skew + f as u64,
                            1,
                            &mut scratch,
                        )
                    })
                    .collect();
                assert_eq!(
                    bits(&whole),
                    bits(&single),
                    "taps {taps} block {block} skew {skew}"
                );
                for (t, &y) in whole.iter().enumerate() {
                    let want: f64 = -0.5 + (0..taps).map(|i| h[i] * input[t + i]).sum::<f64>();
                    assert!(
                        (y - want).abs() < 1e-9 * (1.0 + want.abs()),
                        "{taps}/{block} y[{t}] {y} vs {want}"
                    );
                }
            }
        }
    }

    /// One tap and one output per block: a 2-point transform whose half
    /// plan is the identity.
    #[test]
    fn tiny_freq_kernel_scales_its_input() {
        let spec = KernelSpec::FreqFir {
            taps: vec![3.0],
            constant: 1.0,
            block: 1,
        };
        let k = KernelCode::build(&spec);
        let mut in_t = float_tape(&[1.0, -2.0, 0.5], 4);
        let mut out = float_tape(&[], 4);
        k.run(&mut in_t, &mut out, 3, &mut Vec::new())
            .expect("runs");
        assert_eq!(drain(&out), vec![4.0, -5.0, 2.5]);
    }

    /// Short of input or of output room, both kernels fault with the
    /// bytecode's text at the firing that finds the gap, leaving the
    /// firings before it done.
    #[test]
    fn kernels_fault_at_the_firing_that_finds_the_gap() {
        let dense = KernelCode::build(&KernelSpec::Linear {
            peek: 2,
            pop: 1,
            rows: vec![KernelRow {
                taps: vec![(0, 1.0), (1, 1.0)],
                constant: 0.0,
            }],
        });
        let freq = KernelCode::build(&KernelSpec::FreqFir {
            taps: vec![1.0, 1.0],
            constant: 0.0,
            block: 1,
        });
        for k in [&dense, &freq] {
            let input: Vec<f64> = (0..20).map(f64::from).collect();
            // 19 firings read 20 items; the 20th finds one missing.
            let mut in_t = float_tape(&input, 32);
            let mut out = float_tape(&[], 32);
            let err = k
                .run(&mut in_t, &mut out, 20, &mut Vec::new())
                .expect_err("underflows");
            assert_eq!(err, "peek beyond available input");
            // An output ring with room for 10: firing 11 finds it full.
            let mut in_t = float_tape(&input, 32);
            let mut out = float_tape(&[0.0; 6], 16);
            let err = k
                .run(&mut in_t, &mut out, 12, &mut Vec::new())
                .expect_err("fills");
            assert_eq!(err, "output tape capacity exceeded");
            let done = drain(&out);
            assert_eq!(done.len(), 16);
            for (t, y) in done[6..].iter().enumerate() {
                assert!((y - (2 * t + 1) as f64).abs() < 1e-12, "output {t}: {y}");
            }
        }
    }
}
