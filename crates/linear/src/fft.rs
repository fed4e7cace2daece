//! A radix-2 iterative complex FFT, implemented from scratch as the
//! substrate for frequency translation, and the real-input transform
//! built on it.
//!
//! Sizes are powers of two; the transform is in-place over split
//! real/imaginary arrays (cache-friendlier than an array of structs for
//! the convolution workloads here), with precomputed twiddle tables and
//! the usual bit-reversal permutation.
//!
//! [`RealFft`] transforms `m` real samples with one complex transform of
//! size `m/2`: the samples are packed two to a complex number, and the
//! half-size spectrum is untangled into bins `0..=m/2` (the rest follow
//! by conjugate symmetry).  The inverse re-tangles a half spectrum and
//! runs the half-size inverse, so a real convolution costs two half-size
//! transforms instead of two full-size complex ones.

/// FFT plan for one size.
#[derive(Debug, Clone)]
pub struct Fft {
    n: usize,
    /// Bit-reversal permutation.
    rev: Vec<u32>,
    /// Forward twiddles `e^{-2πik/n}` laid out stage by stage: the stage
    /// whose butterflies span `2h` items reads its `h` factors,
    /// contiguously, at `h - 1 .. 2h - 1`.
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
}

impl Fft {
    /// Create a plan for size `n` (must be a power of two ≥ 2).
    pub fn new(n: usize) -> Fft {
        assert!(n.is_power_of_two() && n >= 2, "FFT size must be 2^k >= 2");
        Fft::plan(n)
    }

    /// [`Fft::new`] admitting the identity transform of size 1, which
    /// the half plan of a 2-point [`RealFft`] is.
    fn plan(n: usize) -> Fft {
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits().checked_shr(32 - bits).unwrap_or(0))
            .collect();
        // One table of `n/2` factors, read by each stage at stride
        // `n / span`; copied out per stage so a stage reads it
        // contiguously and every factor keeps its bits.
        let (cos, sin): (Vec<f64>, Vec<f64>) = (0..n / 2)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                (ang.cos(), ang.sin())
            })
            .unzip();
        let (mut tw_re, mut tw_im) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut half = 1;
        while half < n {
            let step = n / (2 * half);
            tw_re.extend((0..half).map(|k| cos[k * step]));
            tw_im.extend((0..half).map(|k| sin[k * step]));
            half *= 2;
        }
        Fft {
            n,
            rev,
            tw_re,
            tw_im,
        }
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate 0-size plan (never constructed; keeps
    /// clippy's `len-without-is-empty` convention satisfied).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn permute(&self, re: &mut [f64], im: &mut [f64]) {
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                re.swap(i, j);
                im.swap(i, j);
            }
        }
    }

    /// The butterfly stages over bit-reversed input, without scaling
    /// (decimation in time: natural order out).
    fn butterflies<const INVERSE: bool>(&self, re: &mut [f64], im: &mut [f64]) {
        let (re, im) = (&mut re[..self.n], &mut im[..self.n]);
        let mut half = 1;
        while half < self.n {
            self.stage::<false, INVERSE>(re, im, half);
            half *= 2;
        }
    }

    /// The forward butterfly stages in the reverse order over natural
    /// input (decimation in frequency: bit-reversed order out).
    fn butterflies_dif(&self, re: &mut [f64], im: &mut [f64]) {
        let (re, im) = (&mut re[..self.n], &mut im[..self.n]);
        let mut half = self.n / 2;
        while half >= 1 {
            self.stage::<true, false>(re, im, half);
            half /= 2;
        }
    }

    /// The stage whose butterflies span `2·half` items; the short
    /// stages get their span fixed at compile time, so that their inner
    /// loops unroll (the same arithmetic either way).
    #[inline(always)]
    fn stage<const DIF: bool, const INVERSE: bool>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        half: usize,
    ) {
        match half {
            1 => self.span::<DIF, INVERSE, 1>(re, im, 1),
            2 => self.span::<DIF, INVERSE, 2>(re, im, 2),
            4 => self.span::<DIF, INVERSE, 4>(re, im, 4),
            _ => self.span::<DIF, INVERSE, 0>(re, im, half),
        }
    }

    /// [`Fft::stage`] with `H` the half span when it is a constant, else 0.
    #[inline(always)]
    fn span<const DIF: bool, const INVERSE: bool, const H: usize>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        half: usize,
    ) {
        let half = if H > 0 { H } else { half };
        let wr = &self.tw_re[half - 1..2 * half - 1];
        let wi = &self.tw_im[half - 1..2 * half - 1];
        for (re, im) in re
            .chunks_exact_mut(2 * half)
            .zip(im.chunks_exact_mut(2 * half))
        {
            let (r0, r1) = re.split_at_mut(half);
            let (i0, i1) = im.split_at_mut(half);
            for k in 0..half {
                let (wr, wi) = (wr[k], if INVERSE { -wi[k] } else { wi[k] });
                let (ur, ui) = (r0[k], i0[k]);
                if DIF {
                    let (dr, di) = (ur - r1[k], ui - i1[k]);
                    r0[k] = ur + r1[k];
                    i0[k] = ui + i1[k];
                    r1[k] = dr * wr - di * wi;
                    i1[k] = dr * wi + di * wr;
                } else {
                    let (xr, xi) = (r1[k] * wr - i1[k] * wi, r1[k] * wi + i1[k] * wr);
                    r0[k] = ur + xr;
                    i0[k] = ui + xi;
                    r1[k] = ur - xr;
                    i1[k] = ui - xi;
                }
            }
        }
    }

    /// Forward in-place transform.
    pub fn forward(&self, re: &mut [f64], im: &mut [f64]) {
        assert_eq!(re.len(), self.n);
        assert_eq!(im.len(), self.n);
        self.permute(re, im);
        self.butterflies::<false>(re, im);
    }

    /// Inverse in-place transform (includes the 1/n scaling).
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        assert_eq!(re.len(), self.n);
        assert_eq!(im.len(), self.n);
        self.permute(re, im);
        self.butterflies::<true>(re, im);
        let s = 1.0 / self.n as f64;
        for v in re.iter_mut() {
            *v *= s;
        }
        for v in im.iter_mut() {
            *v *= s;
        }
    }

    /// Estimated FLOPs of one transform (the classic `5·n·log2 n`).
    pub fn flops(&self) -> u64 {
        5 * self.n as u64 * self.n.trailing_zeros() as u64
    }
}

/// Multiply two complex spectra element-wise: `a ← a · b`.
pub fn spectrum_mul(are: &mut [f64], aim: &mut [f64], bre: &[f64], bim: &[f64]) {
    for i in 0..are.len() {
        let (xr, xi) = (are[i], aim[i]);
        are[i] = xr * bre[i] - xi * bim[i];
        aim[i] = xr * bim[i] + xi * bre[i];
    }
}

/// A complex number as a pair, for the untangling arithmetic.
type C = (f64, f64);

#[inline(always)]
fn mul(a: C, b: C) -> C {
    (a.0 * b.0 - a.1 * b.1, a.0 * b.1 + a.1 * b.0)
}

/// Bins `k` and `n − k` of a real sequence's `2n`-point spectrum from
/// bins `a = Z[k]` and `b = Z[n − k]` of its packed `n`-point one:
/// `X[k] = E + W^k·O` and `X[n − k] = conj(E − W^k·O)`, with
/// `E = (a + conj b)/2` and `O = −i(a − conj b)/2`.
#[inline(always)]
fn untangle(a: C, b: C, w: C) -> (C, C) {
    let b = (b.0, -b.1);
    let e = (0.5 * (a.0 + b.0), 0.5 * (a.1 + b.1));
    let o = (0.5 * (a.1 - b.1), -0.5 * (a.0 - b.0));
    let t = mul(w, o);
    ((e.0 + t.0, e.1 + t.1), (e.0 - t.0, t.1 - e.1))
}

/// [`untangle`] undone and scaled by `2s`: packed bins `k` and `n − k`
/// from spectrum bins `x = Y[k]` and `y = Y[n − k]`, as `Ye + i·Yo` and
/// `conj(Ye) + i·conj(Yo)` with `Ye = (x + conj y)·s` and
/// `Yo = (x − conj y)·s·conj(W^k)`.
#[inline(always)]
fn retangle(x: C, y: C, w: C, s: f64) -> (C, C) {
    let b = (y.0, -y.1);
    let e = ((x.0 + b.0) * s, (x.1 + b.1) * s);
    let o = mul(((x.0 - b.0) * s, (x.1 - b.1) * s), (w.0, -w.1));
    ((e.0 - o.1, e.1 + o.0), (e.0 + o.1, o.0 - e.1))
}

/// FFT plan for `m` real samples, through one complex transform of
/// size `m/2`.
///
/// Spectra are half spectra: bins `0..=m/2` in two arrays of `m/2 + 1`
/// (bin `m/2 + k` is the conjugate of bin `m/2 − k`).  The time domain
/// of the inverse stays packed: sample `2k` in `re[k]`, sample `2k + 1`
/// in `im[k]`.
#[derive(Debug, Clone)]
pub struct RealFft {
    /// The complex plan of size `m/2` (size 1, the identity, for `m = 2`).
    half: Fft,
    /// `W^k = e^{-2πik/m}` for `k in 0..m/4`: the untangling factors of
    /// the bin pairs `(k, m/2 − k)`.
    w_re: Vec<f64>,
    w_im: Vec<f64>,
}

impl RealFft {
    /// Create a plan for `m` real samples (a power of two ≥ 2).
    pub fn new(m: usize) -> RealFft {
        assert!(m.is_power_of_two() && m >= 2, "FFT size must be 2^k >= 2");
        let (w_re, w_im) = (0..m / 4)
            .map(|k| {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / m as f64;
                (ang.cos(), ang.sin())
            })
            .unzip();
        RealFft {
            half: Fft::plan(m / 2),
            w_re,
            w_im,
        }
    }

    /// Bins of a half spectrum, `m/2 + 1`: the length `re` and `im`
    /// need in every call.
    pub fn bins(&self) -> usize {
        self.half.n + 1
    }

    /// Load `x` (at most `m` samples, zeros after them) two to a complex
    /// number and run the half-size forward transform, leaving the
    /// packed spectrum in bit-reversed order.
    fn pack(&self, x: &[f64], re: &mut [f64], im: &mut [f64]) {
        let n = self.half.n;
        assert!(x.len() <= 2 * n, "more than {} samples", 2 * n);
        assert!(re.len() > n && im.len() > n, "room for {} bins", n + 1);
        let pairs = x.chunks_exact(2);
        let last = pairs.remainder().first().map(|&v| (v, 0.0));
        let k = pairs.len();
        for ((r, i), p) in re.iter_mut().zip(im.iter_mut()).zip(pairs) {
            (*r, *i) = (p[0], p[1]);
        }
        for ((r, i), z) in re[k..n]
            .iter_mut()
            .zip(&mut im[k..n])
            .zip(last.into_iter().chain(std::iter::repeat((0.0, 0.0))))
        {
            (*r, *i) = z;
        }
        self.half.butterflies_dif(re, im);
    }

    /// Apply `f(k, Z[k], Z[n − k], W^k)` to the bin pairs `0 < k < n − k`
    /// in place, bin `k` at `at(k)`.
    #[inline(always)]
    fn pairs(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        at: impl Fn(usize) -> usize,
        f: impl Fn(usize, C, C, C) -> (C, C),
    ) {
        let n = self.half.n;
        for k in 1..n.div_ceil(2) {
            let w = (self.w_re[k], self.w_im[k]);
            let (i, j) = (at(k), at(n - k));
            let (x, y) = f(k, (re[i], im[i]), (re[j], im[j]), w);
            ((re[i], im[i]), (re[j], im[j])) = (x, y);
        }
    }

    /// Forward transform of `x` (at most `m` samples, zero-padded) into
    /// the half spectrum `re`/`im[..=m/2]`.
    pub fn forward(&self, x: &[f64], re: &mut [f64], im: &mut [f64]) {
        let n = self.half.n;
        self.pack(x, re, im);
        self.half.permute(re, im);
        // Bins 0 and m/2 are real: the sum and the difference of the
        // two halves of packed bin 0.  The middle bin is its own
        // partner: X[m/4] = conj Z[m/4].
        let (zr, zi) = (re[0], im[0]);
        (re[0], im[0], re[n], im[n]) = (zr + zi, 0.0, zr - zi, 0.0);
        self.pairs(re, im, |k| k, |_, a, b, w| untangle(a, b, w));
        if n >= 2 {
            im[n / 2] = -im[n / 2];
        }
    }

    /// Inverse transform of the half spectrum `re`/`im[..=m/2]`, scaled
    /// by `1/m`: sample `2k` lands in `re[k]`, sample `2k + 1` in `im[k]`.
    pub fn inverse(&self, re: &mut [f64], im: &mut [f64]) {
        let n = self.half.n;
        assert!(re.len() > n && im.len() > n, "room for {} bins", n + 1);
        let s = 0.5 / n as f64;
        (re[0], im[0]) = ((re[0] + re[n]) * s, (re[0] - re[n]) * s);
        self.pairs(re, im, |k| k, |_, x, y, w| retangle(x, y, w, s));
        if n >= 2 {
            let k = n / 2;
            (re[k], im[k]) = (2.0 * s * re[k], -2.0 * s * im[k]);
        }
        self.half.permute(re, im);
        self.half.butterflies::<true>(re, im);
    }

    /// Circular convolution of `x` (at most `m` samples, zero-padded)
    /// with the sequence whose half spectrum [`RealFft::forward`] left in
    /// `h_re`/`h_im`: [`forward`](RealFft::forward), times the spectrum,
    /// [`inverse`](RealFft::inverse), bit for bit, with no permutation
    /// pass (the bins stay in the bit-reversed order the forward
    /// butterflies leave and the inverse ones take) and the middle step
    /// fused, each bin pair read and written once.  The result is packed
    /// as `inverse` leaves it and depends on `x` alone.
    pub fn convolve(&self, x: &[f64], h_re: &[f64], h_im: &[f64], re: &mut [f64], im: &mut [f64]) {
        let n = self.half.n;
        assert!(
            h_re.len() > n && h_im.len() > n,
            "{} bins of spectrum",
            n + 1
        );
        self.pack(x, re, im);
        let s = 0.5 / n as f64;
        // Bin 0 sits at 0 and the middle bin at 1 in bit-reversed order.
        let (zr, zi) = (re[0], im[0]);
        let (y0, yn) = (
            mul((zr + zi, 0.0), (h_re[0], h_im[0])),
            mul((zr - zi, 0.0), (h_re[n], h_im[n])),
        );
        (re[0], im[0]) = ((y0.0 + yn.0) * s, (y0.0 - yn.0) * s);
        let rev = &self.half.rev;
        self.pairs(
            re,
            im,
            |k| rev[k] as usize,
            |k, a, b, w| {
                let (x, y) = untangle(a, b, w);
                let (x, y) = (
                    mul(x, (h_re[k], h_im[k])),
                    mul(y, (h_re[n - k], h_im[n - k])),
                );
                retangle(x, y, w, s)
            },
        );
        if n >= 2 {
            let y = mul((re[1], -im[1]), (h_re[n / 2], h_im[n / 2]));
            (re[1], im[1]) = (2.0 * s * y.0, -2.0 * s * y.1);
        }
        self.half.butterflies::<true>(re, im);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn dft_naive(re: &[f64], im: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = re.len();
        let mut or_ = vec![0.0; n];
        let mut oi = vec![0.0; n];
        for k in 0..n {
            for t in 0..n {
                let ang = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                or_[k] += re[t] * c - im[t] * s;
                oi[k] += re[t] * s + im[t] * c;
            }
        }
        (or_, oi)
    }

    #[test]
    fn matches_naive_dft() {
        for n in [2usize, 4, 8, 16, 32, 64, 128, 1024] {
            let fft = Fft::new(n);
            let re0: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
            let im0: Vec<f64> = (0..n).map(|i| ((i * 5 % 3) as f64) * 0.5).collect();
            let (er, ei) = dft_naive(&re0, &im0);
            let (mut re, mut im) = (re0.clone(), im0.clone());
            fft.forward(&mut re, &mut im);
            for i in 0..n {
                assert!((re[i] - er[i]).abs() < 1e-9, "n={n} re[{i}]");
                assert!((im[i] - ei[i]).abs() < 1e-9, "n={n} im[{i}]");
            }
        }
    }

    /// Samples with both signs, zeros and varied magnitudes.
    fn samples(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 13 % 7) as f64 - 3.0) * 0.5 + ((i * 7) as f64 * 0.37).sin())
            .collect()
    }

    /// Interleave a packed real result back into sample order.
    fn unpacked(re: &[f64], im: &[f64], m: usize) -> Vec<f64> {
        (0..m)
            .map(|t| if t % 2 == 0 { re[t / 2] } else { im[t / 2] })
            .collect()
    }

    #[test]
    fn real_transform_matches_naive_dft() {
        for m in [2usize, 4, 8, 16, 64, 128, 1024] {
            let rf = RealFft::new(m);
            assert_eq!(rf.bins(), m / 2 + 1);
            // Full length, and short inputs the plan zero-pads.
            for len in [m, m - 1, m / 2 + 1] {
                let x = samples(len);
                let mut padded = x.clone();
                padded.resize(m, 0.0);
                let (er, ei) = dft_naive(&padded, &vec![0.0; m]);
                let (mut re, mut im) = (vec![f64::NAN; m / 2 + 1], vec![f64::NAN; m / 2 + 1]);
                rf.forward(&x, &mut re, &mut im);
                let tol = 1e-12 * m as f64 * 8.0;
                for k in 0..=m / 2 {
                    assert!((re[k] - er[k]).abs() < tol, "m={m} len={len} re[{k}]");
                    assert!((im[k] - ei[k]).abs() < tol, "m={m} len={len} im[{k}]");
                }
                rf.inverse(&mut re, &mut im);
                let back = unpacked(&re, &im, m);
                for t in 0..m {
                    assert!(
                        (back[t] - padded[t]).abs() < 1e-12 * m as f64,
                        "m={m} x[{t}]"
                    );
                }
            }
        }
    }

    /// The inverse of a half spectrum the forward did not make: it
    /// reads the bins as given (bins 0 and m/2 by their real parts).
    #[test]
    fn real_inverse_matches_naive_inverse_dft() {
        for m in [2usize, 8, 128] {
            let rf = RealFft::new(m);
            let h = m / 2;
            let (mut re, mut im) = (samples(h + 1), samples(h + 3)[2..].to_vec());
            (im[0], im[h]) = (0.0, 0.0);
            // The full Hermitian spectrum, and its naive inverse.
            let full_re: Vec<f64> = (0..m)
                .map(|k| if k <= h { re[k] } else { re[m - k] })
                .collect();
            let full_im: Vec<f64> = (0..m)
                .map(|k| if k <= h { im[k] } else { -im[m - k] })
                .collect();
            let neg: Vec<f64> = full_im.iter().map(|v| -v).collect();
            let (yr, _) = dft_naive(&full_re, &neg);
            rf.inverse(&mut re, &mut im);
            let y = unpacked(&re, &im, m);
            for t in 0..m {
                assert!(
                    (y[t] - yr[t] / m as f64).abs() < 1e-12 * m as f64,
                    "m={m} y[{t}]"
                );
            }
        }
    }

    #[test]
    fn convolve_is_forward_times_spectrum_then_inverse_by_bits() {
        for (m, taps, len) in [
            (2usize, 1usize, 2usize),
            (4, 2, 3),
            (16, 5, 12),
            (128, 64, 127),
        ] {
            let rf = RealFft::new(m);
            let b = rf.bins();
            let (mut hr, mut hi) = (vec![0.0; b], vec![0.0; b]);
            rf.forward(&samples(taps + 3)[3..], &mut hr, &mut hi);
            let x: Vec<f64> = samples(len + 5)[5..].iter().map(|v| v * 1.7).collect();
            let (mut re, mut im) = (vec![0.0; b], vec![0.0; b]);
            rf.convolve(&x, &hr, &hi, &mut re, &mut im);
            let (mut er, mut ei) = (vec![0.0; b], vec![0.0; b]);
            rf.forward(&x, &mut er, &mut ei);
            spectrum_mul(&mut er, &mut ei, &hr, &hi);
            rf.inverse(&mut er, &mut ei);
            let bits = |v: &[f64]| v[..b - 1].iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!((bits(&re), bits(&im)), (bits(&er), bits(&ei)), "m={m}");
            // And it is the circular convolution.
            let h = samples(taps + 3)[3..].to_vec();
            for (t, y) in unpacked(&re, &im, m).into_iter().enumerate() {
                let want: f64 = (0..taps)
                    .map(|i| h[i] * x.get((t + m - i) % m).copied().unwrap_or(0.0))
                    .sum();
                assert!((y - want).abs() < 1e-12 * m as f64, "m={m} y[{t}]");
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let fft = Fft::new(16);
        let mut re = vec![0.0; 16];
        let mut im = vec![0.0; 16];
        re[0] = 1.0;
        fft.forward(&mut re, &mut im);
        for i in 0..16 {
            assert!((re[i] - 1.0).abs() < 1e-12);
            assert!(im[i].abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn rejects_non_power_of_two() {
        Fft::new(12);
    }

    proptest! {
        #[test]
        fn prop_roundtrip(
            vals in proptest::collection::vec(-100.0f64..100.0, 64),
        ) {
            let fft = Fft::new(64);
            let mut re = vals.clone();
            let mut im = vec![0.0; 64];
            fft.forward(&mut re, &mut im);
            fft.inverse(&mut re, &mut im);
            for i in 0..64 {
                prop_assert!((re[i] - vals[i]).abs() < 1e-9);
                prop_assert!(im[i].abs() < 1e-9);
            }
        }

        #[test]
        fn prop_parseval(
            vals in proptest::collection::vec(-10.0f64..10.0, 32),
        ) {
            let fft = Fft::new(32);
            let mut re = vals.clone();
            let mut im = vec![0.0; 32];
            let time: f64 = vals.iter().map(|v| v * v).sum();
            fft.forward(&mut re, &mut im);
            let freq: f64 =
                re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f64>() / 32.0;
            prop_assert!((time - freq).abs() < 1e-6 * (1.0 + time.abs()));
        }
    }
}
