//! Output checks.  Every workload compares a prefix of what the engine
//! under test produced with the reference interpreter's output for the
//! same input, outside the timed region.
//!
//! The policy is the repository's (`tests/support/tolerance.rs`): bit
//! identity everywhere, except downstream of a reassociating linear
//! rewrite, where 4096 ULPs or 1e-9 absolute is allowed.  It is restated
//! here, not included from the test tree, so the benchmark depends only
//! on the crates' public interfaces.

/// How two output streams may differ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// `to_bits` equality, signed zeros and NaN payloads included.
    Bit,
    /// Within `max_ulps` representable values or within `abs`.
    Approx { max_ulps: u64, abs: f64 },
}

/// The tolerance for the frequency-translated FIR (`fir-kernel`).
pub const REASSOCIATED: Tolerance = Tolerance::Approx {
    max_ulps: 4096,
    abs: 1e-9,
};

/// Number of representable `f64`s between `a` and `b`, counted through
/// zero (so `+0.0` and `-0.0` are the same point and the smallest
/// positive and negative subnormals are two apart).  NaN is at distance
/// 0 from NaN and `u64::MAX` from everything else.
pub fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.is_nan() || b.is_nan() {
        return if a.is_nan() && b.is_nan() {
            0
        } else {
            u64::MAX
        };
    }
    // Negative floats order backwards by bit pattern; mirror them below
    // zero so the integer line is monotone in the float's value.
    fn monotone(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    monotone(a).abs_diff(monotone(b))
}

impl Tolerance {
    pub fn matches(self, got: f64, want: f64) -> bool {
        match self {
            Tolerance::Bit => got.to_bits() == want.to_bits(),
            Tolerance::Approx { max_ulps, abs } => {
                (got - want).abs() <= abs || ulp_distance(got, want) <= max_ulps
            }
        }
    }
}

/// Compare the first `want.len().min(limit)` items; `got` must be at
/// least that long.  `Err` names the first miss.
pub fn check_prefix(
    what: &str,
    tol: Tolerance,
    got: &[f64],
    want: &[f64],
    limit: usize,
) -> Result<(), String> {
    let n = want.len().min(limit);
    if n == 0 {
        return Err(format!(
            "{what}: the reference produced no output to compare"
        ));
    }
    if got.len() < n {
        return Err(format!(
            "{what}: {} output items, the reference has {n}",
            got.len()
        ));
    }
    match (0..n).find(|&i| !tol.matches(got[i], want[i])) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: output [{i}] is {:?}, the reference says {:?} ({} ULPs apart)",
            got[i],
            want[i],
            ulp_distance(got[i], want[i])
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_on_zeros_subnormals_and_nan() {
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 3)), 3);
        let tiny = f64::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance(0.0, tiny), 1);
        assert_eq!(ulp_distance(-0.0, tiny), 1);
        assert_eq!(ulp_distance(tiny, -tiny), 2);
        assert_eq!(
            ulp_distance(f64::MIN_POSITIVE, f64::from_bits(1)),
            (1 << 52) - 1
        );
        assert_eq!(ulp_distance(f64::NAN, f64::NAN), 0);
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_distance(-1.0, f64::NAN), u64::MAX);
        assert_eq!(ulp_distance(f64::MAX, f64::INFINITY), 1);
        // Symmetric, and the extremes do not overflow.
        assert_eq!(ulp_distance(-3.5, 2.25), ulp_distance(2.25, -3.5));
        assert!(ulp_distance(f64::NEG_INFINITY, f64::INFINITY) > 1 << 62);
    }

    #[test]
    fn tolerances() {
        assert!(Tolerance::Bit.matches(0.5, 0.5));
        assert!(!Tolerance::Bit.matches(0.0, -0.0));
        assert!(REASSOCIATED.matches(0.0, -0.0));
        assert!(REASSOCIATED.matches(1.0, 1.0 + 1e-13));
        assert!(REASSOCIATED.matches(1e-15, -2e-15));
        assert!(!REASSOCIATED.matches(1.0, 1.001));
        assert!(!REASSOCIATED.matches(1.0, f64::NAN));
        assert!(REASSOCIATED.matches(f64::NAN, f64::NAN));
    }

    #[test]
    fn prefix_check_names_the_first_miss() {
        assert!(check_prefix("t", Tolerance::Bit, &[1.0, 2.0, 9.0], &[1.0, 2.0], 4096).is_ok());
        assert!(check_prefix("t", Tolerance::Bit, &[1.0, 9.0], &[1.0, 2.0], 1).is_ok());
        let e = check_prefix("t", Tolerance::Bit, &[1.0, 9.0], &[1.0, 2.0], 2).unwrap_err();
        assert!(e.contains("[1]"), "{e}");
        assert!(check_prefix("t", Tolerance::Bit, &[1.0], &[1.0, 2.0], 2).is_err());
        assert!(check_prefix("t", Tolerance::Bit, &[], &[], 2).is_err());
    }
}
