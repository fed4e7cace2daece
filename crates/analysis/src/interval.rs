//! The interval abstract domain over `i64`.
//!
//! Values are closed intervals `[lo, hi]`; the sentinels
//! [`Interval::NEG_INF`] / [`Interval::POS_INF`] stand for unbounded ends.
//! The concretisation is the usual one: `γ([lo, hi]) = {v | lo ≤ v ≤ hi}`.
//! Every operation here *over-approximates* its concrete counterpart,
//! which is what the soundness property of the analysis (interpreter
//! counts always fall inside computed intervals) rests on.
//!
//! The analysis computes two kinds of thing with it, and they do not
//! share arithmetic:
//!
//! * **Tape counters** (`pops`, `pushes`, `need`) count events.  They
//!   start at 0, only grow and never wrap: [`Interval::add`] saturates
//!   into the sentinels.
//! * **Program values** are what the machine computes, and the machine
//!   wraps.  [`Interval::binop`], [`Interval::unop`] and
//!   [`Interval::intrinsic`] are the abstract counterpart of
//!   [`streamit_graph::work`]'s table, one arm per operator, under one
//!   rule:
//!   1. operands that are all constants go through the concrete table
//!      itself ([`int_binop`], [`int_unop`], [`int_abs`]), so
//!      `[MAX, MAX] + [1, 1]` is `[MIN, MIN]`; the table's trap is ⊤;
//!   2. otherwise `+ - *` and unary `-` are the hull of the results at
//!      the ends, where a pair of *finite* ends whose result leaves `i64`
//!      makes the whole result ⊤, and an unbounded end stays unbounded.
//!      An end is unbounded when it is a sentinel of a non-constant
//!      interval; a constant is exact even at `i64::MIN` / `i64::MAX`.
//!
//!   What rule 2 assumes is that a value behind an unbounded end (a
//!   widened loop accumulator, tape data) does not itself sit at ±2⁶³,
//!   and that `abs` is not handed `i64::MIN` — DESIGN.md "Static
//!   work-function analysis" has the risk note and why the stricter
//!   rules are not used.

use streamit_graph::work::{int_abs, int_binop, int_unop};
use streamit_graph::{BinOp, Intrinsic, UnOp};

/// A closed, possibly unbounded interval of `i64` values.
///
/// Invariant: `lo <= hi` (the empty interval is not representable; the
/// analysis never needs it because every program point it visits is
/// reachable under the abstraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    pub lo: i64,
    pub hi: i64,
}

impl Interval {
    /// Sentinel for "unbounded below".
    pub const NEG_INF: i64 = i64::MIN;
    /// Sentinel for "unbounded above".
    pub const POS_INF: i64 = i64::MAX;

    /// The interval containing every value.
    pub const TOP: Interval = Interval {
        lo: Self::NEG_INF,
        hi: Self::POS_INF,
    };

    /// The singleton interval `[c, c]`.
    pub fn constant(c: i64) -> Interval {
        Interval { lo: c, hi: c }
    }

    /// The interval `[lo, hi]`; the bounds are reordered if necessary.
    pub fn range(lo: i64, hi: i64) -> Interval {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// `true` when the interval is a single point.
    pub fn is_constant(&self) -> bool {
        self.lo == self.hi
    }

    /// The single value, when constant.
    pub fn as_constant(&self) -> Option<i64> {
        if self.is_constant() {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Membership test.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound (interval hull).
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widening: bounds that grew since `prev` jump straight to ±∞,
    /// guaranteeing fixpoint termination for non-constant loops.
    pub fn widen(&self, prev: &Interval) -> Interval {
        Interval {
            lo: if self.lo < prev.lo {
                Self::NEG_INF
            } else {
                self.lo
            },
            hi: if self.hi > prev.hi {
                Self::POS_INF
            } else {
                self.hi
            },
        }
    }

    fn sat_add(a: i64, b: i64) -> i64 {
        // Infinities absorb; finite + finite saturates.
        if a == Self::NEG_INF || b == Self::NEG_INF {
            Self::NEG_INF
        } else if a == Self::POS_INF || b == Self::POS_INF {
            Self::POS_INF
        } else {
            a.saturating_add(b)
        }
    }

    /// Counter addition: saturates into the sentinels.  For tape counters
    /// only — a program value is [`Interval::binop`]'s.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: Self::sat_add(self.lo, other.lo),
            hi: Self::sat_add(self.hi, other.hi),
        }
    }

    /// Pointwise maximum: `max(a, b)` exactly, and how `need` grows.
    pub fn max(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Clamp below: `[max(lo, min), max(hi, min)]`.
    pub fn max_with(&self, min: i64) -> Interval {
        Interval {
            lo: self.lo.max(min),
            hi: self.hi.max(min),
        }
    }
}

/// One end of an interval as an extended integer; ordered as such.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum End {
    NegInf,
    Fin(i64),
    PosInf,
}

impl End {
    /// `a op b` for `+ - *` at one pair of ends; `None` when both are
    /// finite and the result leaves `i64`.  (`+` and `-` never meet two
    /// infinities that pull apart: lower ends are `NegInf` or finite,
    /// upper ends `PosInf` or finite.)
    fn arith(op: BinOp, a: End, b: End) -> Option<End> {
        use End::{Fin, NegInf, PosInf};
        if let (Fin(x), Fin(y)) = (a, b) {
            return match op {
                BinOp::Add => x.checked_add(y),
                BinOp::Sub => x.checked_sub(y),
                _ => x.checked_mul(y),
            }
            .map(Fin);
        }
        let down = match op {
            BinOp::Add => a == NegInf || b == NegInf,
            BinOp::Sub => a == NegInf || b == PosInf,
            _ if a == Fin(0) || b == Fin(0) => return Some(Fin(0)),
            _ => (a < Fin(0)) != (b < Fin(0)),
        };
        Some(if down { NegInf } else { PosInf })
    }

    fn raw(self) -> i64 {
        match self {
            End::NegInf => Interval::NEG_INF,
            End::Fin(v) => v,
            End::PosInf => Interval::POS_INF,
        }
    }
}

/// Three-valued truth of a condition interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Truth {
    True,
    False,
    Unknown,
}

impl Truth {
    fn of(known_true: bool, known_false: bool) -> Truth {
        match (known_true, known_false) {
            (true, _) => Truth::True,
            (_, true) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// The `[0, 1]`-valued interval of a comparison or logic result.
    fn interval(self) -> Interval {
        match self {
            Truth::True => Interval::constant(1),
            Truth::False => Interval::constant(0),
            Truth::Unknown => Interval::range(0, 1),
        }
    }
}

/// Program values: the abstract counterpart of `graph::work`'s integer
/// table (see the module docs for the rule).
impl Interval {
    /// The ends as extended integers.
    fn ends(&self) -> (End, End) {
        if self.is_constant() {
            return (End::Fin(self.lo), End::Fin(self.hi));
        }
        let lo = match self.lo {
            Self::NEG_INF => End::NegInf,
            v => End::Fin(v),
        };
        let hi = match self.hi {
            Self::POS_INF => End::PosInf,
            v => End::Fin(v),
        };
        (lo, hi)
    }

    /// Is the value non-zero, zero, or either?
    pub(crate) fn truth(&self) -> Truth {
        Truth::of(!self.contains(0), self.as_constant() == Some(0))
    }

    /// Integer `a op b`.
    pub fn binop(op: BinOp, a: Interval, b: Interval) -> Interval {
        if let (Some(x), Some(y)) = (a.as_constant(), b.as_constant()) {
            return int_binop(op, x, y).map_or(Interval::TOP, Interval::constant);
        }
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul => {
                let ((al, ah), (bl, bh)) = (a.ends(), b.ends());
                let pairs: &[(End, End)] = match op {
                    BinOp::Add => &[(al, bl), (ah, bh)],
                    BinOp::Sub => &[(al, bh), (ah, bl)],
                    _ => &[(al, bl), (al, bh), (ah, bl), (ah, bh)],
                };
                let (mut lo, mut hi) = (End::PosInf, End::NegInf);
                for &(x, y) in pairs {
                    let Some(r) = End::arith(op, x, y) else {
                        return Interval::TOP;
                    };
                    (lo, hi) = (lo.min(r), hi.max(r));
                }
                Interval {
                    lo: lo.raw(),
                    hi: hi.raw(),
                }
            }
            // `v % d` with a positive constant divisor stays within
            // `(-d, d)` (and `[0, d)` for a non-negative dividend) — the
            // idiom behind bounded peek indices like `pop() % N`.
            BinOp::Rem if b.as_constant().is_some_and(|d| d > 0) => {
                let d = b.lo;
                if a.lo >= 0 && a.hi < d {
                    a
                } else if a.lo >= 0 {
                    Interval::range(0, d - 1)
                } else {
                    Interval::range(-(d - 1), d - 1)
                }
            }
            BinOp::Div | BinOp::Rem => Interval::TOP,
            BinOp::Eq => Truth::of(false, a.hi < b.lo || b.hi < a.lo).interval(),
            BinOp::Ne => Truth::of(a.hi < b.lo || b.hi < a.lo, false).interval(),
            BinOp::Lt => Truth::of(a.hi < b.lo, a.lo >= b.hi).interval(),
            BinOp::Le => Truth::of(a.hi <= b.lo, a.lo > b.hi).interval(),
            BinOp::Gt => Truth::of(a.lo > b.hi, a.hi <= b.lo).interval(),
            BinOp::Ge => Truth::of(a.lo >= b.hi, a.hi < b.lo).interval(),
            // `&&`/`||` in the work IR evaluate both operands (no
            // short-circuit); their effects are the caller's business.
            BinOp::And => match (a.truth(), b.truth()) {
                (Truth::False, _) | (_, Truth::False) => Truth::False,
                (Truth::True, Truth::True) => Truth::True,
                _ => Truth::Unknown,
            }
            .interval(),
            BinOp::Or => match (a.truth(), b.truth()) {
                (Truth::True, _) | (_, Truth::True) => Truth::True,
                (Truth::False, Truth::False) => Truth::False,
                _ => Truth::Unknown,
            }
            .interval(),
            BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr => Interval::TOP,
        }
    }

    /// Integer `op a`.
    pub fn unop(op: UnOp, a: Interval) -> Interval {
        if let Some(x) = a.as_constant() {
            return Interval::constant(int_unop(op, x));
        }
        match op {
            UnOp::Neg => Interval::binop(BinOp::Sub, Interval::constant(0), a),
            UnOp::Not => match a.truth() {
                Truth::True => Truth::False,
                Truth::False => Truth::True,
                Truth::Unknown => Truth::Unknown,
            }
            .interval(),
            UnOp::BitNot => Interval::TOP,
        }
    }

    /// `g(args)` for the intrinsics that map integers to an integer —
    /// `abs`, `min`, `max` and the cast `int(..)`; `None` for the
    /// float-valued rest (and for a wrong argument count).
    pub fn intrinsic(g: Intrinsic, args: &[Interval]) -> Option<Interval> {
        Some(match (g, args) {
            (Intrinsic::ToInt, [a]) => *a,
            (Intrinsic::Abs, [a]) => match a.as_constant() {
                Some(x) => Interval::constant(int_abs(x)),
                None if a.lo >= 0 => *a,
                None => {
                    let neg = Interval::unop(UnOp::Neg, *a);
                    if a.hi <= 0 {
                        neg
                    } else {
                        Interval::range(0, neg.hi.max(a.hi))
                    }
                }
            },
            (Intrinsic::Min, [a, b]) => Interval {
                lo: a.lo.min(b.lo),
                hi: a.hi.min(b.hi),
            },
            (Intrinsic::Max, [a, b]) => a.max(b),
            _ => return None,
        })
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let end = |v: i64, f: &mut std::fmt::Formatter<'_>| match v {
            Self::NEG_INF => write!(f, "-inf"),
            Self::POS_INF => write!(f, "+inf"),
            _ => write!(f, "{v}"),
        };
        if self.is_constant() {
            end(self.lo, f)
        } else {
            write!(f, "[")?;
            end(self.lo, f)?;
            write!(f, ", ")?;
            end(self.hi, f)?;
            write!(f, "]")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_hull() {
        let a = Interval::range(1, 3);
        let b = Interval::range(5, 7);
        assert_eq!(a.join(&b), Interval::range(1, 7));
    }

    #[test]
    fn widen_jumps_to_infinity() {
        let prev = Interval::range(0, 4);
        let grown = Interval::range(0, 8);
        let w = grown.widen(&prev);
        assert_eq!(w.hi, Interval::POS_INF);
        assert_eq!(w.lo, 0);
    }

    #[test]
    fn arithmetic_saturates() {
        let top = Interval::TOP;
        let one = Interval::constant(1);
        assert_eq!(top.add(&one), Interval::TOP);
        let big = Interval::constant(i64::MAX - 1);
        assert_eq!(big.add(&big).hi, Interval::POS_INF);
    }

    fn mul(a: Interval, b: Interval) -> Interval {
        Interval::binop(BinOp::Mul, a, b)
    }

    #[test]
    fn mul_signs() {
        let a = Interval::range(-2, 3);
        let b = Interval::range(4, 5);
        assert_eq!(mul(a, b), Interval::range(-10, 15));
        assert_eq!(Interval::unop(UnOp::Neg, a), Interval::range(-3, 2));
    }

    #[test]
    fn mul_zero_absorbs_infinity() {
        let zero = Interval::constant(0);
        assert_eq!(mul(Interval::TOP, zero), Interval::constant(0));
    }

    #[test]
    fn values_wrap_where_counters_saturate() {
        let c = Interval::constant;
        let add = |a, b| Interval::binop(BinOp::Add, a, b);
        // Constants are the machine's, at the sentinels too.
        assert_eq!(add(c(i64::MAX), c(1)), c(i64::MIN));
        assert_eq!(mul(c(1 << 32), c(1 << 32)), c(0));
        assert_eq!(Interval::unop(UnOp::Neg, c(i64::MIN)), c(i64::MIN));
        assert_eq!(Interval::binop(BinOp::Div, c(1), c(0)), Interval::TOP);
        // Finite ends that leave `i64` say nothing.
        assert_eq!(add(Interval::range(0, i64::MAX - 1), c(2)), Interval::TOP);
        assert_eq!(mul(Interval::range(1, 1 << 32), c(1 << 32)), Interval::TOP);
        // An unbounded end stays unbounded; the finite one moves.
        assert_eq!(
            add(Interval::range(0, Interval::POS_INF), c(2)),
            Interval::range(2, Interval::POS_INF)
        );
        // A constant is never "unbounded": `[0, +inf] + MIN` has no
        // lower end to keep (every sum is negative, in fact).
        assert_eq!(
            add(Interval::range(0, Interval::POS_INF), c(i64::MIN)),
            Interval::TOP
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Interval::constant(3).to_string(), "3");
        assert_eq!(Interval::range(1, 2).to_string(), "[1, 2]");
        assert_eq!(Interval::TOP.to_string(), "[-inf, +inf]");
    }
}
