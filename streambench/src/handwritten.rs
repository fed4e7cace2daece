//! The yardstick: the three steady-state applications written the way a
//! Rust programmer would write them by hand, with slices, loops and
//! iterators and nothing from the stack under test.  ROADMAP's "within
//! 2x of handwritten" is measured against these, in the same run, on
//! the same input.
//!
//! Each is checked against the reference interpreter before it is
//! timed.  They keep the graphs' order of floating-point operations
//! (sum taps first to last, sum bands first to last), so the check is
//! bit-for-bit; a hand-fused version would be faster still but would
//! need a tolerance.

use std::f64::consts::PI;

/// Hamming-windowed sinc low-pass taps (`apps::common::lowpass_fir`).
fn lowpass(taps: usize, cutoff: f64) -> Vec<f64> {
    let m = (taps - 1) as f64;
    (0..taps)
        .map(|i| {
            let x = i as f64 - m / 2.0;
            let sinc = if x == 0.0 {
                2.0 * cutoff
            } else {
                (2.0 * PI * cutoff * x).sin() / (PI * x)
            };
            sinc * (0.54 - 0.46 * (2.0 * PI * i as f64 / m).cos())
        })
        .collect()
}

/// Band-pass taps as the difference of two low-passes
/// (`apps::common::bandpass_fir`).
fn bandpass(taps: usize, freq: f64, width: f64) -> Vec<f64> {
    let m = (taps - 1) as f64;
    (0..taps)
        .map(|i| {
            let x = i as f64 - m / 2.0;
            let lp = |c: f64| {
                if x == 0.0 {
                    2.0 * c
                } else {
                    (2.0 * PI * c * x).sin() / (PI * x)
                }
            };
            (lp(freq + width) - lp((freq - width).max(0.0)))
                * (0.54 - 0.46 * (2.0 * PI * i as f64 / m).cos())
        })
        .collect()
}

fn dot(window: &[f64], h: &[f64]) -> f64 {
    window.iter().zip(h).fold(0.0, |s, (x, c)| s + x * c)
}

/// Sliding FIR: one output per input position with a full window.
fn fir(x: &[f64], h: &[f64]) -> Vec<f64> {
    x.windows(h.len()).map(|w| dot(w, h)).collect()
}

/// `fmradio(bands, taps)`: low-pass, FM demodulator, `bands` band-pass
/// equalizer branches with gains, summed.  The taps are worked out
/// once, as the engines work theirs out when the graph is built.
pub struct FmRadio {
    front: Vec<f64>,
    /// Per band: taps and gain.
    equalizer: Vec<(Vec<f64>, f64)>,
}

impl FmRadio {
    pub fn new(bands: usize, taps: usize) -> FmRadio {
        FmRadio {
            front: lowpass(taps, 0.25),
            equalizer: (0..bands)
                .map(|i| {
                    let centre = (i as f64 + 0.5) / (2.0 * bands as f64);
                    let h = bandpass(taps, centre, 0.5 / (2.0 * bands as f64));
                    (h, 1.0 + 0.1 * i as f64)
                })
                .collect(),
        }
    }

    pub fn run(&self, input: &[f64]) -> Vec<f64> {
        let front = fir(input, &self.front);
        let demod: Vec<f64> = front
            .windows(2)
            .map(|w| (w[1] * w[0] * 0.5).atan())
            .collect();
        demod
            .windows(self.front.len())
            .map(|w| {
                self.equalizer
                    .iter()
                    .fold(0.0, |s, (h, gain)| s + dot(w, h) * gain)
            })
            .collect()
    }
}

/// `filterbank(m, taps)`: `m` branches of band-pass, decimate by `m`,
/// zero-stuff by `m`, low-pass; summed.
pub struct FilterBank {
    analysis: Vec<Vec<f64>>,
    synthesis: Vec<f64>,
}

impl FilterBank {
    pub fn new(m: usize, taps: usize) -> FilterBank {
        FilterBank {
            analysis: (0..m)
                .map(|i| {
                    let centre = (i as f64 + 0.5) / (2.0 * m as f64);
                    bandpass(taps, centre, 0.5 / (2.0 * m as f64))
                })
                .collect(),
            synthesis: lowpass(taps, 0.5 / m as f64),
        }
    }

    pub fn run(&self, input: &[f64]) -> Vec<f64> {
        let (m, taps) = (self.analysis.len(), self.synthesis.len());
        let mut out: Vec<f64> = Vec::new();
        for (i, analysis) in self.analysis.iter().enumerate() {
            // Only every m-th analysis output survives the decimator, so
            // only those are computed; the expander puts zeros back.
            let mut stuffed = vec![0.0; input.len().saturating_sub(taps - 1)];
            for (slot, w) in stuffed.iter_mut().zip(input.windows(taps)).step_by(m) {
                *slot = dot(w, analysis);
            }
            let band = fir(&stuffed[..stuffed.len() / m * m], &self.synthesis);
            if i == 0 {
                out = band.iter().map(|v| 0.0 + v).collect();
            } else {
                for (o, v) in out.iter_mut().zip(&band) {
                    *o += v;
                }
            }
        }
        out
    }
}

/// `bitonic_sort(n)`: every block of `n` integers sorted ascending by
/// the bitonic network (compare-exchange loops, in place).
pub fn bitonic_sort(input: &[f64], n: usize) -> Vec<f64> {
    let mut v: Vec<i64> = input.iter().map(|&x| x as i64).collect();
    for block in v.chunks_exact_mut(n) {
        let mut k = 2;
        while k <= n {
            let mut d = k / 2;
            while d >= 1 {
                for i in 0..n {
                    let j = i ^ d;
                    if j > i {
                        let ascending = i & k == 0;
                        if (block[i] > block[j]) == ascending {
                            block.swap(i, j);
                        }
                    }
                }
                d /= 2;
            }
            k *= 2;
        }
    }
    let whole = v.len() / n * n;
    v[..whole].iter().map(|&x| x as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::Rng;
    use crate::verify::{check_prefix, Tolerance};
    use streamit::graph::StreamNode;
    use streamit::{apps, Compiler};

    fn reference(stream: StreamNode, input: &[f64], n: usize) -> Vec<f64> {
        let p = Compiler::default().compile_stream(stream).unwrap();
        let mut out = p.run(input, n).unwrap();
        out.truncate(n);
        out
    }

    #[test]
    fn fmradio_matches_the_reference_bit_for_bit() {
        let input = Rng::new(3).signal(400);
        let want = reference(apps::fmradio::fmradio(4, 16), &input, 256);
        let got = FmRadio::new(4, 16).run(&input);
        check_prefix("fmradio", Tolerance::Bit, &got, &want, 256).unwrap();
    }

    #[test]
    fn filterbank_matches_the_reference_bit_for_bit() {
        let input = Rng::new(4).signal(600);
        let want = reference(apps::filterbank::filterbank(4, 16), &input, 256);
        let got = FilterBank::new(4, 16).run(&input);
        check_prefix("filterbank", Tolerance::Bit, &got, &want, 256).unwrap();
    }

    #[test]
    fn bitonic_matches_the_reference_and_sorts() {
        let input = Rng::new(5).integers(8 * 16);
        let want = reference(apps::bitonic::bitonic_sort(8), &input, 8 * 16);
        let got = bitonic_sort(&input, 8);
        check_prefix("bitonic", Tolerance::Bit, &got, &want, 128).unwrap();
        assert!(got.chunks(8).all(|b| b.windows(2).all(|w| w[0] <= w[1])));
    }
}
