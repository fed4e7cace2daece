//! Offline property-testing shim.
//!
//! This crate vendors the small subset of the `proptest` API that the
//! workspace's tests use, so the tier-1 verify (`cargo build --release
//! && cargo test -q`) passes from a clean checkout with no network
//! access.  It is deliberately tiny: deterministic generation (seeded
//! from the test-function name), uniform strategies for numeric
//! ranges, tuples, vectors and a small regex subset for strings, and
//! the `proptest!` / `prop_assert*` macro family.
//!
//! It is *not* a full property-testing engine — there is no shrinking
//! and no persistence.  A failing case panics with the case number and
//! the generated inputs are reproducible from the fixed seed.

pub mod rng {
    /// Deterministic splitmix64 generator, seeded from a test name so
    /// every run of a property test sees the same case sequence.
    pub struct Rng(u64);

    impl Rng {
        pub fn from_name(name: &str) -> Self {
            // FNV-1a over the name gives a stable, well-mixed seed.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_0000_01b3);
            }
            Rng(h | 1)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`; returns 0 when `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    use crate::rng::Rng;

    /// A value generator.  The real proptest `Strategy` carries a
    /// shrinking value tree; this shim only generates.
    pub trait Strategy {
        type Value;
        fn generate(&self, rng: &mut Rng) -> Self::Value;
    }

    macro_rules! int_range_strategy {
        ($($t:ty)*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut Rng) -> $t {
                    let span = ((self.end as i128) - (self.start as i128)).max(1) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    ((self.start as i128) + off as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(i8 i16 i32 i64 isize u8 u16 u32 u64 usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut Rng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut Rng) -> f32 {
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    /// String strategies from a regex subset: `.`, `[a-z0-9_]` classes,
    /// literal characters, `\x` escapes, and `{m}` / `{m,n}` repetition
    /// on the preceding atom.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut Rng) -> String {
            crate::string::generate(self, rng)
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident)*) => {
            impl<$($name: Strategy),*> Strategy for ($($name,)*) {
                type Value = ($($name::Value,)*);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut Rng) -> Self::Value {
                    let ($($name,)*) = self;
                    ($($name.generate(rng),)*)
                }
            }
        };
    }
    tuple_strategy!(A B);
    tuple_strategy!(A B C);
    tuple_strategy!(A B C D);
    tuple_strategy!(A B C D E);
}

pub mod collection {
    use crate::rng::Rng;
    use crate::strategy::Strategy;

    /// Length specification for [`vec`]: an exact `usize` or a
    /// half-open `Range<usize>`.
    pub trait IntoLenRange {
        /// `(min, exclusive max)`.
        fn bounds(self) -> (usize, usize);
    }

    impl IntoLenRange for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self + 1)
        }
    }

    impl IntoLenRange for core::ops::Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end.max(self.start + 1))
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    pub fn vec<S: Strategy, L: IntoLenRange>(elem: S, len: L) -> VecStrategy<S> {
        let (min, max) = len.bounds();
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut Rng) -> Vec<S::Value> {
            let n = self.min + rng.below((self.max - self.min) as u64) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod string {
    use crate::rng::Rng;

    enum Atom {
        Any,
        Lit(char),
        Class(Vec<(char, char)>),
    }

    /// Generate a string from a regex-subset pattern.  Unsupported
    /// syntax falls back to emitting the offending character literally,
    /// which keeps generation total.
    pub fn generate(pattern: &str, rng: &mut Rng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = pattern.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let atom = match chars[i] {
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '[' => {
                    i += 1;
                    let mut ranges = Vec::new();
                    while i < chars.len() && chars[i] != ']' {
                        let lo = if chars[i] == '\\' && i + 1 < chars.len() {
                            i += 1;
                            chars[i]
                        } else {
                            chars[i]
                        };
                        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                            ranges.push((lo, chars[i + 2]));
                            i += 3;
                        } else {
                            ranges.push((lo, lo));
                            i += 1;
                        }
                    }
                    i += 1; // closing ']'
                    Atom::Class(ranges)
                }
                '\\' if i + 1 < chars.len() => {
                    i += 2;
                    Atom::Lit(chars[i - 1])
                }
                c => {
                    i += 1;
                    Atom::Lit(c)
                }
            };
            // Optional {m} / {m,n} quantifier.
            let (lo, hi) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..].iter().position(|&c| c == '}').map(|p| i + p);
                match close {
                    Some(close) => {
                        let body: String = chars[i + 1..close].iter().collect();
                        i = close + 1;
                        let mut parts = body.splitn(2, ',');
                        let m: usize = parts.next().unwrap_or("1").trim().parse().unwrap_or(1);
                        let n: usize = parts
                            .next()
                            .map(|s| s.trim().parse().unwrap_or(m))
                            .unwrap_or(m);
                        (m, n.max(m))
                    }
                    None => (1, 1),
                }
            } else {
                (1, 1)
            };
            let count = lo + rng.below((hi - lo + 1) as u64) as usize;
            for _ in 0..count {
                out.push(pick(&atom, rng));
            }
        }
        out
    }

    fn pick(atom: &Atom, rng: &mut Rng) -> char {
        match atom {
            Atom::Lit(c) => *c,
            Atom::Any => {
                // Mostly printable ASCII, with a sprinkling of awkward
                // characters (control, multi-byte, quotes) to stress
                // lexers the way real proptest's `.` does.
                const AWKWARD: &[char] = &[
                    '\0', '\n', '\t', '\r', '"', '\\', '\'', 'λ', '€', '文', '\u{7f}',
                ];
                if rng.below(10) == 0 {
                    AWKWARD[rng.below(AWKWARD.len() as u64) as usize]
                } else {
                    char::from_u32(0x20 + rng.below(0x5f) as u32).unwrap_or('?')
                }
            }
            Atom::Class(ranges) => {
                let total: u64 = ranges
                    .iter()
                    .map(|&(a, b)| (b as u64).saturating_sub(a as u64) + 1)
                    .sum();
                let mut k = rng.below(total.max(1));
                for &(a, b) in ranges {
                    let span = (b as u64).saturating_sub(a as u64) + 1;
                    if k < span {
                        return char::from_u32(a as u32 + k as u32).unwrap_or(a);
                    }
                    k -= span;
                }
                '?'
            }
        }
    }
}

/// Run-time configuration for a `proptest!` block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 128 }
    }
}

/// A failed `prop_assert*` inside a property body.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl core::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.0)
    }
}

#[macro_export]
macro_rules! proptest {
    ( #![proptest_config($cfg:expr)] $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                let mut __rng = $crate::rng::Rng::from_name(stringify!($name));
                for __case in 0..__cfg.cases {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::generate(&$strat, &mut __rng);
                    )*
                    let __result: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        })();
                    if let Err(e) = __result {
                        panic!(
                            "property {} failed at case {}/{}: {}",
                            stringify!($name),
                            __case + 1,
                            __cfg.cases,
                            e
                        );
                    }
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if !(*__a == *__b) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a),
                stringify!($b),
                __a,
                __b
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (__a, __b) = (&$a, &$b);
        if *__a == *__b {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($a),
                stringify!($b),
                __a
            )));
        }
    }};
}

pub mod prelude {
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
    pub use crate::{ProptestConfig, TestCaseError};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::rng::Rng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = Rng::from_name("bounds");
        for _ in 0..1000 {
            let v = crate::strategy::Strategy::generate(&(3i64..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = crate::strategy::Strategy::generate(&(-2.0f64..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_lengths_respect_spec() {
        let mut rng = Rng::from_name("lens");
        for _ in 0..200 {
            let v = crate::strategy::Strategy::generate(
                &crate::collection::vec(0u64..5, 2..6),
                &mut rng,
            );
            assert!((2..6).contains(&v.len()));
            let exact =
                crate::strategy::Strategy::generate(&crate::collection::vec(0u64..5, 4), &mut rng);
            assert_eq!(exact.len(), 4);
        }
    }

    #[test]
    fn identifier_pattern_generates_identifiers() {
        let mut rng = Rng::from_name("ident");
        for _ in 0..200 {
            let s = crate::string::generate("[a-zA-Z_][a-zA-Z0-9_]{0,20}", &mut rng);
            let mut cs = s.chars();
            let first = cs.next().unwrap();
            assert!(first.is_ascii_alphabetic() || first == '_', "{s:?}");
            assert!(s.len() <= 21);
            assert!(cs.all(|c| c.is_ascii_alphanumeric() || c == '_'), "{s:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The macro itself round-trips: generated args are in range.
        #[test]
        fn macro_generates_in_range(x in 1usize..9, v in crate::collection::vec(0i64..3, 1..4)) {
            prop_assert!((1..9).contains(&x));
            prop_assert!(!v.is_empty() && v.len() < 4);
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
