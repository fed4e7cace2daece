//! Native kernels for optimizer-hinted filters.
//!
//! The linear optimizer attaches a [`KernelSpec`] to every filter it
//! materializes, describing the affine map the work function computes.
//! At plan time ([`crate::lowering`]) the hint is validated
//! against the node's declared rates and tape types and compiled into a
//! [`KernelCode`]; at run time the engine dispatches the kernel instead
//! of the bytecode VM — a tight loop over the ring tape's unboxed `f64`
//! window, with no per-instruction dispatch, no register traffic and no
//! bounds checks inside the hot loop.
//!
//! Two kernels exist, matching the two hint shapes:
//!
//! * **Dense** — `y = A·x + b` in CSR form.  Tap order replicates the
//!   materialized work IR's accumulation order exactly, so dense-kernel
//!   output is *bit-identical* to interpreting the bytecode (and to the
//!   reference interpreter on the same graph).
//! * **Freq** — overlap-save FFT convolution of a block-expanded FIR,
//!   reusing `streamit_linear`'s [`Fft`].  FFT convolution reassociates
//!   the sums, so its output matches the time-domain reference within
//!   an ULP tolerance, not bitwise — callers compare accordingly.
//!
//! A hint that fails validation is silently dropped: the filter simply
//! runs its bytecode, which is always present and always correct.

use streamit_graph::kernel::KernelSpec;
use streamit_linear::fft::{spectrum_mul, Fft};

use crate::tape::Tape;

/// Compiled form of [`KernelSpec::Linear`]: the affine map in CSR
/// layout (`row_off[j]..row_off[j+1]` index the taps of output row `j`).
#[derive(Debug, Clone)]
pub struct DenseKernel {
    pub window: usize,
    pub pop: usize,
    row_off: Vec<u32>,
    tap_idx: Vec<u32>,
    tap_coef: Vec<f64>,
    constant: Vec<f64>,
}

/// Compiled form of [`KernelSpec::FreqFir`]: precomputed kernel
/// spectrum plus the overlap-save geometry.
#[derive(Debug, Clone)]
pub struct FreqKernel {
    fft: Fft,
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
                let mut row_off = Vec::with_capacity(rows.len() + 1);
                let mut tap_idx = Vec::new();
                let mut tap_coef = Vec::new();
                let mut constant = Vec::with_capacity(rows.len());
                row_off.push(0u32);
                for r in rows {
                    for &(i, c) in &r.taps {
                        tap_idx.push(i);
                        tap_coef.push(c);
                    }
                    row_off.push(tap_idx.len() as u32);
                    constant.push(r.constant);
                }
                KernelCode::Dense(DenseKernel {
                    window: *peek,
                    pop: *pop,
                    row_off,
                    tap_idx,
                    tap_coef,
                    constant,
                })
            }
            KernelSpec::FreqFir {
                taps,
                constant,
                block,
            } => {
                let n = taps.len();
                let m = (n + block - 1).next_power_of_two().max(2);
                let fft = Fft::new(m);
                // Correlation as circular convolution: load the taps
                // reversed so the valid outputs sit at offset n-1 (the
                // same layout as `streamit_linear::freq::FreqFilter`).
                let mut h_re = vec![0.0; m];
                let mut h_im = vec![0.0; m];
                for i in 0..n {
                    h_re[i] = taps[n - 1 - i];
                }
                fft.forward(&mut h_re, &mut h_im);
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

    /// Run `times` firings against the filter's tapes, using `re`/`im`
    /// as per-frame scratch (lazily sized; contents are overwritten).
    /// Pops are applied to `input` on success, exactly as the bytecode
    /// path does after a firing.
    pub fn run(
        &self,
        input: &mut Tape,
        output: &mut Tape,
        times: u32,
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
    ) -> Result<(), String> {
        match self {
            KernelCode::Dense(k) => k.run(input, output, times, re),
            KernelCode::Freq(k) => k.run(input, output, times, re, im),
        }
    }
}

impl DenseKernel {
    fn run(
        &self,
        input: &mut Tape,
        output: &mut Tape,
        times: u32,
        scratch: &mut Vec<f64>,
    ) -> Result<(), String> {
        if times == 0 {
            return Ok(());
        }
        let (Tape::F(inp), Tape::F(out)) = (&mut *input, &mut *output) else {
            return Err("linear kernel on non-float tape".into());
        };
        // Batch the whole span of `times` firings out of the ring in at
        // most two memcpy segments, then index flat memory.
        let total = self.pop as u64 * (times as u64 - 1) + self.window as u64;
        if inp.len() < total {
            return Err("peek beyond available input".into());
        }
        scratch.resize(total as usize, 0.0);
        inp.copy_out(total, scratch);
        for t in 0..times as usize {
            let x = &scratch[t * self.pop..t * self.pop + self.window];
            for j in 0..self.constant.len() {
                let lo = self.row_off[j] as usize;
                let hi = self.row_off[j + 1] as usize;
                // Fold in hint order: bit-identical to the bytecode's
                // `acc = acc + x[i]*c` accumulation.
                let mut acc = self.constant[j];
                for k in lo..hi {
                    acc += x[self.tap_idx[k] as usize] * self.tap_coef[k];
                }
                out.push(acc)
                    .map_err(|()| "output tape capacity exceeded".to_string())?;
            }
        }
        inp.advance(self.pop as u64 * times as u64);
        Ok(())
    }
}

impl FreqKernel {
    fn run(
        &self,
        input: &mut Tape,
        output: &mut Tape,
        times: u32,
        re: &mut Vec<f64>,
        im: &mut Vec<f64>,
    ) -> Result<(), String> {
        let (Tape::F(inp), Tape::F(out)) = (&mut *input, &mut *output) else {
            return Err("frequency kernel on non-float tape".into());
        };
        let n = self.taps;
        let window = (self.block + n - 1) as u64;
        let m = self.fft.len();
        re.resize(m, 0.0);
        im.resize(m, 0.0);
        for _ in 0..times {
            if inp.len() < window {
                return Err("peek beyond available input".into());
            }
            inp.copy_out(window, &mut re[..window as usize]);
            re[window as usize..].fill(0.0);
            im.fill(0.0);
            self.fft.forward(re, im);
            spectrum_mul(re, im, &self.h_re, &self.h_im);
            self.fft.inverse(re, im);
            for t in 0..self.block {
                out.push(re[t + n - 1] + self.offset)
                    .map_err(|()| "output tape capacity exceeded".to_string())?;
            }
            inp.advance(self.block as u64);
        }
        Ok(())
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
        let (mut re, mut im) = (Vec::new(), Vec::new());
        k.run(&mut input, &mut out, 2, &mut re, &mut im)
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
        let (mut re, mut im) = (Vec::new(), Vec::new());
        let err = k
            .run(&mut input, &mut out, 1, &mut re, &mut im)
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
        let (mut re, mut im) = (Vec::new(), Vec::new());
        k.run(&mut in_t, &mut out, 3, &mut re, &mut im)
            .expect("runs");
        let got = drain(&out);
        assert_eq!(got.len(), 3 * block);
        for (t, &y) in got.iter().enumerate() {
            let expect: f64 = 0.25 + (0..n).map(|i| taps[i] * input[t + i]).sum::<f64>();
            assert!((y - expect).abs() < 1e-9, "output {t}: {y} vs {expect}");
        }
    }
}
