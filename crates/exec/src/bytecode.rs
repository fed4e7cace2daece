//! Lowering of work-function IR to flat register-based bytecode.
//!
//! The compiled engine executes each filter body as a linear instruction
//! stream over two unboxed register banks (`i64` and `f64`) plus two
//! flat array arenas — no AST recursion, no `HashMap` variable lookups,
//! no per-expression `Value` boxing.  Every instruction is statically
//! typed: the lowering infers each expression's type from declared
//! variable/state types and the tape element types (decidable because
//! the IR has no polymorphic bindings) and inserts explicit cast
//! instructions exactly where the reference interpreter's dynamic
//! `Value::coerce` / `as_f64` / `as_i64` conversions occur, so compiled
//! results are bit-identical to the tree-walker's.
//!
//! Lowering *selects* instructions from the expression tree rather than
//! emitting one generic instruction per node (DESIGN.md, "Instruction
//! selection"): a literal peek index, a float literal operand, the
//! `x + peek(k) * c` tap, whole runs of such taps and runs of discarded
//! pops each become one instruction.  Every rule keeps operand order and
//! evaluation order, so results stay bit-identical; shapes no rule
//! matches take the generic instructions.
//!
//! Anything outside the statically typable subset (teleport `send`,
//! variables whose type the interpreter would mutate dynamically,
//! unknown names that only fail at runtime) is rejected with a reason —
//! the engine then falls back to the reference interpreter.

use streamit_graph::{
    BinOp, DataType, Expr, Filter, Intrinsic, LValue, StateInit, Stmt, UnOp, Value,
};

/// One bytecode instruction.  `d` registers are destinations; `a`, `b`,
/// `s` are sources.  Register indices select the int (`i`) or float
/// (`f`) bank according to the instruction's static type.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    ConstI {
        d: u16,
        v: i64,
    },
    ConstF {
        d: u16,
        v: f64,
    },
    MovI {
        d: u16,
        s: u16,
    },
    MovF {
        d: u16,
        s: u16,
    },
    /// `f[d] = i[s] as f64` (`Value::as_f64`).
    CastIF {
        d: u16,
        s: u16,
    },
    /// `i[d] = f[s] as i64` (`Value::as_i64`, saturating like Rust `as`).
    CastFI {
        d: u16,
        s: u16,
    },
    /// Integer binary op, `int_binop` semantics (wrapping arithmetic,
    /// checked div/rem, comparisons and logic producing 0/1).
    BinI {
        op: BinOp,
        d: u16,
        a: u16,
        b: u16,
    },
    /// Float arithmetic (`Add..Rem`), float result.
    ArithF {
        op: BinOp,
        d: u16,
        a: u16,
        b: u16,
    },
    /// Float comparison (`Eq..Ge`), integer 0/1 result.
    CmpF {
        op: BinOp,
        d: u16,
        a: u16,
        b: u16,
    },
    NegI {
        d: u16,
        s: u16,
    },
    NegF {
        d: u16,
        s: u16,
    },
    /// `i[d] = (i[s] == 0) as i64` (logical not of an int).
    NotI {
        d: u16,
        s: u16,
    },
    /// `i[d] = (f[s] == 0.0) as i64` (logical not of a float).
    NotF {
        d: u16,
        s: u16,
    },
    /// `i[d] = !i[s]` (bitwise complement).
    BitNotI {
        d: u16,
        s: u16,
    },
    /// `i[d] = (f[s] != 0.0) as i64` (`Value::is_truthy` on a float).
    TruthyF {
        d: u16,
        s: u16,
    },
    /// Unary float intrinsic (sin, cos, …, round): `f[d] = g(f[s])`.
    Call1F {
        g: Intrinsic,
        d: u16,
        s: u16,
    },
    AbsI {
        d: u16,
        s: u16,
    },
    AbsF {
        d: u16,
        s: u16,
    },
    PowF {
        d: u16,
        a: u16,
        b: u16,
    },
    MinMaxI {
        max: bool,
        d: u16,
        a: u16,
        b: u16,
    },
    MinMaxF {
        max: bool,
        d: u16,
        a: u16,
        b: u16,
    },
    /// `i[d] = iarena[base + i[idx]]`, bounds-checked against `len`.
    LoadI {
        d: u16,
        base: u32,
        len: u32,
        idx: u16,
    },
    LoadF {
        d: u16,
        base: u32,
        len: u32,
        idx: u16,
    },
    StoreI {
        base: u32,
        len: u32,
        idx: u16,
        s: u16,
    },
    StoreF {
        base: u32,
        len: u32,
        idx: u16,
        s: u16,
    },
    /// Zero an arena range (a `LetArray` site re-creates its array).
    ZeroI {
        base: u32,
        len: u32,
    },
    ZeroF {
        base: u32,
        len: u32,
    },
    /// `i[d] = input[cursor + i[idx]]`; faults on a negative index or
    /// beyond the available window, like the interpreter.
    PeekI {
        d: u16,
        idx: u16,
    },
    PeekF {
        d: u16,
        idx: u16,
    },
    /// `i[d] = input[cursor + k]` for a literal `k >= 0`: no index
    /// register.  Faults beyond the available window like `PeekI`.
    PeekIK {
        d: u16,
        k: u32,
    },
    PeekFK {
        d: u16,
        k: u32,
    },
    /// `f[d] = f[a] op imm` — float arithmetic, literal on the right.
    ArithFK {
        op: BinOp,
        d: u16,
        a: u16,
        imm: f64,
    },
    /// `f[d] = imm op f[b]` — literal on the left.  A separate form
    /// because operands are never commuted (NaN payloads differ).
    ArithKF {
        op: BinOp,
        d: u16,
        b: u16,
        imm: f64,
    },
    /// `f[d] = f[a] + Σ_j input[cursor + k + j] * pool[at + j]` for
    /// `j < n` on a float tape, summed in ascending `j` with plain
    /// `sum += p * c` — the same roundings, in the same order, as `n`
    /// generic taps.  A lone tap is the `n == 1` case.
    DotPeekF {
        d: u16,
        a: u16,
        k: u16,
        n: u16,
        at: u32,
    },
    /// `n` pops whose values are discarded: moves the read cursor only.
    /// Faults like the first `Pop` that finds the tape empty would.
    Skip {
        n: u32,
    },
    PopI {
        d: u16,
    },
    PopF {
        d: u16,
    },
    /// Push `i[s]` to the output tape (already coerced by the lowering).
    PushI {
        s: u16,
    },
    PushF {
        s: u16,
    },
    Jmp {
        target: u32,
    },
    /// Jump when `i[c] == 0`.
    Jz {
        c: u16,
        target: u32,
    },
}

impl Inst {
    /// The register this instruction writes, if it writes one, and its
    /// bank.  Every such instruction reads its operands before writing,
    /// so the destination may be renamed to any register of that bank.
    fn dest_mut(&mut self) -> Option<(Ty, &mut u16)> {
        match self {
            Inst::ConstI { d, .. }
            | Inst::MovI { d, .. }
            | Inst::CastFI { d, .. }
            | Inst::BinI { d, .. }
            | Inst::CmpF { d, .. }
            | Inst::NegI { d, .. }
            | Inst::NotI { d, .. }
            | Inst::NotF { d, .. }
            | Inst::BitNotI { d, .. }
            | Inst::TruthyF { d, .. }
            | Inst::AbsI { d, .. }
            | Inst::MinMaxI { d, .. }
            | Inst::LoadI { d, .. }
            | Inst::PeekI { d, .. }
            | Inst::PeekIK { d, .. }
            | Inst::PopI { d } => Some((Ty::I, d)),
            Inst::ConstF { d, .. }
            | Inst::MovF { d, .. }
            | Inst::CastIF { d, .. }
            | Inst::ArithF { d, .. }
            | Inst::ArithFK { d, .. }
            | Inst::ArithKF { d, .. }
            | Inst::NegF { d, .. }
            | Inst::Call1F { d, .. }
            | Inst::AbsF { d, .. }
            | Inst::PowF { d, .. }
            | Inst::MinMaxF { d, .. }
            | Inst::LoadF { d, .. }
            | Inst::PeekF { d, .. }
            | Inst::PeekFK { d, .. }
            | Inst::DotPeekF { d, .. }
            | Inst::PopF { d } => Some((Ty::F, d)),
            Inst::StoreI { .. }
            | Inst::StoreF { .. }
            | Inst::ZeroI { .. }
            | Inst::ZeroF { .. }
            | Inst::PushI { .. }
            | Inst::PushF { .. }
            | Inst::Skip { .. }
            | Inst::Jmp { .. }
            | Inst::Jz { .. } => None,
        }
    }

    /// The registers this instruction reads, with their banks.
    fn reads(&self) -> [Option<(Ty, u16)>; 2] {
        let (i, f) = (|r| Some((Ty::I, r)), |r| Some((Ty::F, r)));
        match *self {
            Inst::MovI { s, .. }
            | Inst::CastIF { s, .. }
            | Inst::NegI { s, .. }
            | Inst::NotI { s, .. }
            | Inst::BitNotI { s, .. }
            | Inst::AbsI { s, .. }
            | Inst::PushI { s } => [i(s), None],
            Inst::MovF { s, .. }
            | Inst::CastFI { s, .. }
            | Inst::NegF { s, .. }
            | Inst::NotF { s, .. }
            | Inst::TruthyF { s, .. }
            | Inst::Call1F { s, .. }
            | Inst::AbsF { s, .. }
            | Inst::PushF { s } => [f(s), None],
            Inst::BinI { a, b, .. } | Inst::MinMaxI { a, b, .. } => [i(a), i(b)],
            Inst::ArithF { a, b, .. }
            | Inst::CmpF { a, b, .. }
            | Inst::PowF { a, b, .. }
            | Inst::MinMaxF { a, b, .. } => [f(a), f(b)],
            Inst::ArithFK { a, .. } | Inst::DotPeekF { a, .. } => [f(a), None],
            Inst::ArithKF { b, .. } => [f(b), None],
            Inst::LoadI { idx, .. }
            | Inst::LoadF { idx, .. }
            | Inst::PeekI { idx, .. }
            | Inst::PeekF { idx, .. } => [i(idx), None],
            Inst::StoreI { idx, s, .. } => [i(idx), i(s)],
            Inst::StoreF { idx, s, .. } => [i(idx), f(s)],
            Inst::Jz { c, .. } => [i(c), None],
            Inst::ConstI { .. }
            | Inst::ConstF { .. }
            | Inst::ZeroI { .. }
            | Inst::ZeroF { .. }
            | Inst::PeekIK { .. }
            | Inst::PeekFK { .. }
            | Inst::Skip { .. }
            | Inst::PopI { .. }
            | Inst::PopF { .. }
            | Inst::Jmp { .. } => [None, None],
        }
    }
}

/// Declared (pop, window, push) rates of one body, where `window` is
/// `peek.max(pop)` — the tape requirement the scheduler must satisfy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rates {
    pub pop: u64,
    pub window: u64,
    pub push: u64,
}

/// A lowered body: the instruction stream plus its declared rates (the
/// VM checks observed pops/pushes against them after each firing, like
/// the reference machine's rate-violation check).
#[derive(Debug, Clone)]
pub struct Program {
    pub code: Vec<Inst>,
    /// Float constants addressed by `DotPeekF { at, n }`.
    pub pool: Vec<f64>,
    pub rates: Rates,
    /// Set when the firings of one op are independent, so that the
    /// engine may run them side by side, one instruction for many
    /// (DESIGN.md "Execution scaling"): every instruction has a lane
    /// form (no array arena is touched), no state register is written,
    /// no other register is read before an instruction writes it (in
    /// program order), and every jump belongs to a loop with literal
    /// bounds.  So only state carries a value from one firing to the
    /// next.
    pub lane_safe: bool,
    /// The registers below these (int, float) hold persistent state.
    pub state: (u32, u32),
}

impl Program {
    /// The marking of [`Program::lane_safe`] for `code`, whose registers
    /// below `state` (int, float) hold persistent state.
    fn is_lane_safe(code: &[Inst], state: (u32, u32)) -> bool {
        let is_state = |(ty, r): (Ty, u16)| match ty {
            Ty::I => u32::from(r) < state.0,
            Ty::F => u32::from(r) < state.1,
        };
        // Written registers, the int and the float `r` at `2r` and `2r + 1`.
        let slot = |(ty, r): (Ty, u16)| 2 * usize::from(r) + usize::from(ty == Ty::F);
        let mut written = Vec::new();
        code.iter().all(|inst| {
            let reads_unwritten = inst
                .reads()
                .into_iter()
                .flatten()
                .any(|r| !is_state(r) && !written.get(slot(r)).is_some_and(|&w| w));
            let dest = inst.clone().dest_mut().map(|(ty, &mut d)| (ty, d));
            if let Some(s) = dest.map(slot) {
                written.resize(written.len().max(s + 1), false);
                written[s] = true;
            }
            !reads_unwritten
                && !dest.is_some_and(is_state)
                && !matches!(
                    inst,
                    Inst::LoadI { .. }
                        | Inst::LoadF { .. }
                        | Inst::StoreI { .. }
                        | Inst::StoreF { .. }
                        | Inst::ZeroI { .. }
                        | Inst::ZeroF { .. }
                )
        })
    }
}

/// Everything the VM needs to fire one filter node: bytecode for `work`
/// (and `prework`, sharing the same register file), register-bank and
/// arena sizes, and initial values for persistent state.
#[derive(Debug, Clone)]
pub struct FilterCode {
    pub name: String,
    pub work: Program,
    pub prework: Option<Program>,
    pub n_i: u32,
    pub n_f: u32,
    pub arena_i: u32,
    pub arena_f: u32,
    /// Initial values of persistent int/float state registers.
    pub init_i: Vec<(u16, i64)>,
    pub init_f: Vec<(u16, f64)>,
    /// Initial contents of persistent arena ranges.
    pub init_ai: Vec<(u32, Vec<i64>)>,
    pub init_af: Vec<(u32, Vec<f64>)>,
    /// Optional native kernel, validated against the declared rates and
    /// tape types by the planner; the engine dispatches it in place of
    /// `work` when present.  `work` remains correct and complete — a
    /// dropped kernel only costs speed, never output.
    pub kernel: Option<crate::kernel::KernelCode>,
}

/// Static type of a register: which bank it lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    I,
    F,
}

impl Ty {
    fn of(ty: DataType) -> Ty {
        match ty {
            DataType::Int => Ty::I,
            DataType::Float => Ty::F,
        }
    }
}

/// A name binding: scalar register or arena range (base, len).
#[derive(Debug, Clone, Copy)]
enum Sym {
    ScalarI(u16),
    ScalarF(u16),
    ArrayI(u32, u32),
    ArrayF(u32, u32),
}

const MAX_REGS: u32 = 60_000;
const MAX_ARENA: u32 = 1 << 20;
const MAX_CODE: usize = 1 << 20;

struct Lowerer {
    code: Vec<Inst>,
    pool: Vec<f64>,
    next_i: u32,
    next_f: u32,
    arena_i: u32,
    arena_f: u32,
    /// Lexical scopes, innermost last; scope 0 holds the filter state.
    /// Within a scope, later bindings shadow earlier ones (matching the
    /// interpreter's `HashMap::insert` replacement semantics).
    scopes: Vec<Vec<(String, Sym)>>,
    in_ty: Option<DataType>,
    out_ty: Option<DataType>,
    /// Set once the body has a jump whose direction may differ from one
    /// firing to the next: an `if`, or a loop whose bounds are not
    /// literals.
    data_jumps: bool,
}

impl Lowerer {
    fn ri(&mut self) -> Result<u16, String> {
        if self.next_i >= MAX_REGS {
            return Err("register bank exhausted".into());
        }
        self.next_i += 1;
        Ok((self.next_i - 1) as u16)
    }

    fn rf(&mut self) -> Result<u16, String> {
        if self.next_f >= MAX_REGS {
            return Err("register bank exhausted".into());
        }
        self.next_f += 1;
        Ok((self.next_f - 1) as u16)
    }

    fn reg(&mut self, ty: Ty) -> Result<u16, String> {
        match ty {
            Ty::I => self.ri(),
            Ty::F => self.rf(),
        }
    }

    fn emit(&mut self, i: Inst) -> Result<(), String> {
        if self.code.len() >= MAX_CODE {
            return Err("work function too large to compile".into());
        }
        self.code.push(i);
        Ok(())
    }

    fn alloc_arena(&mut self, ty: Ty, len: usize) -> Result<u32, String> {
        let len = u32::try_from(len).map_err(|_| "array too large".to_string())?;
        let bank = match ty {
            Ty::I => &mut self.arena_i,
            Ty::F => &mut self.arena_f,
        };
        let base = *bank;
        *bank = bank
            .checked_add(len)
            .filter(|&b| b <= MAX_ARENA)
            .ok_or_else(|| "array arena exhausted".to_string())?;
        Ok(base)
    }

    fn lookup(&self, name: &str) -> Option<Sym> {
        for scope in self.scopes.iter().rev() {
            for (n, s) in scope.iter().rev() {
                if n == name {
                    return Some(*s);
                }
            }
        }
        None
    }

    fn declare(&mut self, name: &str, sym: Sym) {
        if let Some(top) = self.scopes.last_mut() {
            top.push((name.to_string(), sym));
        }
    }

    /// Coerce a typed register to the int bank (`Value::as_i64`).
    fn coerce_i(&mut self, (r, ty): (u16, Ty)) -> Result<u16, String> {
        match ty {
            Ty::I => Ok(r),
            Ty::F => {
                let d = self.ri()?;
                self.emit(Inst::CastFI { d, s: r })?;
                Ok(d)
            }
        }
    }

    /// Coerce a typed register to the float bank (`Value::as_f64`).
    fn coerce_f(&mut self, (r, ty): (u16, Ty)) -> Result<u16, String> {
        match ty {
            Ty::F => Ok(r),
            Ty::I => {
                let d = self.rf()?;
                self.emit(Inst::CastIF { d, s: r })?;
                Ok(d)
            }
        }
    }

    fn coerce_ty(&mut self, r: (u16, Ty), ty: Ty) -> Result<u16, String> {
        match ty {
            Ty::I => self.coerce_i(r),
            Ty::F => self.coerce_f(r),
        }
    }

    /// Reduce a typed register to an int truthiness flag
    /// (`Value::is_truthy`): ints are used directly (`Jz` tests `!= 0`),
    /// floats go through `TruthyF` (NaN is truthy, as `f != 0.0` holds).
    fn truthy(&mut self, (r, ty): (u16, Ty)) -> Result<u16, String> {
        match ty {
            Ty::I => Ok(r),
            Ty::F => {
                let d = self.ri()?;
                self.emit(Inst::TruthyF { d, s: r })?;
                Ok(d)
            }
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<(u16, Ty), String> {
        match e {
            Expr::IntLit(v) => {
                let d = self.ri()?;
                self.emit(Inst::ConstI { d, v: *v })?;
                Ok((d, Ty::I))
            }
            Expr::FloatLit(v) => {
                let d = self.rf()?;
                self.emit(Inst::ConstF { d, v: *v })?;
                Ok((d, Ty::F))
            }
            Expr::Var(name) => match self.lookup(name) {
                Some(Sym::ScalarI(r)) => Ok((r, Ty::I)),
                Some(Sym::ScalarF(r)) => Ok((r, Ty::F)),
                Some(Sym::ArrayI(..)) | Some(Sym::ArrayF(..)) => {
                    Err(format!("array `{name}` used as a scalar"))
                }
                None => Err(format!("unknown variable `{name}`")),
            },
            Expr::Index(name, iexpr) => {
                // Interpreter order: index expression first, then lookup.
                let iv = self.lower_expr(iexpr)?;
                let idx = self.coerce_i(iv)?;
                match self.lookup(name) {
                    Some(Sym::ArrayI(base, len)) => {
                        let d = self.ri()?;
                        self.emit(Inst::LoadI { d, base, len, idx })?;
                        Ok((d, Ty::I))
                    }
                    Some(Sym::ArrayF(base, len)) => {
                        let d = self.rf()?;
                        self.emit(Inst::LoadF { d, base, len, idx })?;
                        Ok((d, Ty::F))
                    }
                    _ => Err(format!("unknown array `{name}[]`")),
                }
            }
            Expr::Peek(iexpr) => {
                let in_ty = self
                    .in_ty
                    .ok_or_else(|| "peek in a filter with no input".to_string())?;
                // Rule 1: a non-negative literal index is baked into the
                // instruction.  Negative literals keep the generic path
                // and its `peek at negative index` fault.
                let lit = match **iexpr {
                    Expr::IntLit(k) => u32::try_from(k).ok(),
                    _ => None,
                };
                let ty = Ty::of(in_ty);
                let (d, inst) = match lit {
                    Some(k) => {
                        let d = self.reg(ty)?;
                        (
                            d,
                            match ty {
                                Ty::I => Inst::PeekIK { d, k },
                                Ty::F => Inst::PeekFK { d, k },
                            },
                        )
                    }
                    None => {
                        let iv = self.lower_expr(iexpr)?;
                        let idx = self.coerce_i(iv)?;
                        let d = self.reg(ty)?;
                        (
                            d,
                            match ty {
                                Ty::I => Inst::PeekI { d, idx },
                                Ty::F => Inst::PeekF { d, idx },
                            },
                        )
                    }
                };
                self.emit(inst)?;
                Ok((d, ty))
            }
            Expr::Pop => {
                let in_ty = self
                    .in_ty
                    .ok_or_else(|| "pop in a filter with no input".to_string())?;
                match Ty::of(in_ty) {
                    Ty::I => {
                        let d = self.ri()?;
                        self.emit(Inst::PopI { d })?;
                        Ok((d, Ty::I))
                    }
                    Ty::F => {
                        let d = self.rf()?;
                        self.emit(Inst::PopF { d })?;
                        Ok((d, Ty::F))
                    }
                }
            }
            Expr::Unary(op, a) => {
                let v = self.lower_expr(a)?;
                match op {
                    UnOp::Neg => match v.1 {
                        Ty::I => {
                            let d = self.ri()?;
                            self.emit(Inst::NegI { d, s: v.0 })?;
                            Ok((d, Ty::I))
                        }
                        Ty::F => {
                            let d = self.rf()?;
                            self.emit(Inst::NegF { d, s: v.0 })?;
                            Ok((d, Ty::F))
                        }
                    },
                    UnOp::Not => {
                        let d = self.ri()?;
                        match v.1 {
                            Ty::I => self.emit(Inst::NotI { d, s: v.0 })?,
                            Ty::F => self.emit(Inst::NotF { d, s: v.0 })?,
                        }
                        Ok((d, Ty::I))
                    }
                    UnOp::BitNot => {
                        let s = self.coerce_i(v)?;
                        let d = self.ri()?;
                        self.emit(Inst::BitNotI { d, s })?;
                        Ok((d, Ty::I))
                    }
                }
            }
            Expr::Binary(op, a, b) => self.lower_binary(*op, a, b),
            Expr::Call(g, args) => self.lower_call(*g, args),
        }
    }

    /// `peek(k) * c` with literal `k` and `c`, read from a float tape:
    /// the FIR tap shape rules 3 and 5 select.
    fn tap(&self, e: &Expr) -> Option<(u16, f64)> {
        if self.in_ty != Some(DataType::Float) {
            return None;
        }
        let Expr::Binary(BinOp::Mul, p, c) = e else {
            return None;
        };
        match (&**p, &**c) {
            (Expr::Peek(i), Expr::FloatLit(c)) => match **i {
                Expr::IntLit(k) => Some((u16::try_from(k).ok()?, *c)),
                _ => None,
            },
            _ => None,
        }
    }

    fn lower_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<(u16, Ty), String> {
        let arith = matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        );
        // Rule 3: `x + peek(k) * c`.  `x` is lowered first, as in the
        // generic order, so its pops and faults still precede the peek.
        if let (BinOp::Add, Some((k, c))) = (op, self.tap(b)) {
            return Ok((self.dot(None, a, k, &[c])?, Ty::F));
        }
        // Rule 2: float arithmetic with a literal operand.  A float
        // literal makes the operation float whatever the other side is;
        // it stays on its own side of the operator.
        if let (true, Expr::FloatLit(imm)) = (arith, b) {
            let va = self.lower_expr(a)?;
            let a = self.coerce_f(va)?;
            let d = self.rf()?;
            self.emit(Inst::ArithFK {
                op,
                d,
                a,
                imm: *imm,
            })?;
            return Ok((d, Ty::F));
        }
        if let (true, Expr::FloatLit(imm)) = (arith, a) {
            let vb = self.lower_expr(b)?;
            let b = self.coerce_f(vb)?;
            let d = self.rf()?;
            self.emit(Inst::ArithKF {
                op,
                d,
                b,
                imm: *imm,
            })?;
            return Ok((d, Ty::F));
        }
        let va = self.lower_expr(a)?;
        let vb = self.lower_expr(b)?;
        if va.1 == Ty::I && vb.1 == Ty::I {
            // Both ints: `int_binop` for every operator.
            let d = self.ri()?;
            self.emit(Inst::BinI {
                op,
                d,
                a: va.0,
                b: vb.0,
            })?;
            return Ok((d, Ty::I));
        }
        // Mixed or float: `BinOp::eval` promotes both sides with `as_f64`.
        let fa = self.coerce_f(va)?;
        let fb = self.coerce_f(vb)?;
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let d = self.rf()?;
                self.emit(Inst::ArithF {
                    op,
                    d,
                    a: fa,
                    b: fb,
                })?;
                Ok((d, Ty::F))
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let d = self.ri()?;
                self.emit(Inst::CmpF {
                    op,
                    d,
                    a: fa,
                    b: fb,
                })?;
                Ok((d, Ty::I))
            }
            BinOp::And | BinOp::Or => {
                // ((a != 0.0) && (b != 0.0)): truthify each, then the
                // integer logic op (operands are already 0/1).
                let ta = self.ri()?;
                self.emit(Inst::TruthyF { d: ta, s: fa })?;
                let tb = self.ri()?;
                self.emit(Inst::TruthyF { d: tb, s: fb })?;
                let d = self.ri()?;
                self.emit(Inst::BinI {
                    op,
                    d,
                    a: ta,
                    b: tb,
                })?;
                Ok((d, Ty::I))
            }
            BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor | BinOp::Shl | BinOp::Shr => {
                // `BinOp::eval` falls back to `int_binop(a as i64, b as i64)`
                // — the cast goes *through f64* even for int operands, so
                // mixed-type bitwise stays bit-identical for huge ints.
                let ia = self.ri()?;
                self.emit(Inst::CastFI { d: ia, s: fa })?;
                let ib = self.ri()?;
                self.emit(Inst::CastFI { d: ib, s: fb })?;
                let d = self.ri()?;
                self.emit(Inst::BinI {
                    op,
                    d,
                    a: ia,
                    b: ib,
                })?;
                Ok((d, Ty::I))
            }
        }
    }

    fn lower_call(&mut self, g: Intrinsic, args: &[Expr]) -> Result<(u16, Ty), String> {
        if args.len() != g.arity() {
            return Err(format!("intrinsic {} arity mismatch", g.name()));
        }
        match g {
            Intrinsic::Sin
            | Intrinsic::Cos
            | Intrinsic::Tan
            | Intrinsic::Atan
            | Intrinsic::Sqrt
            | Intrinsic::Exp
            | Intrinsic::Log
            | Intrinsic::Floor
            | Intrinsic::Ceil
            | Intrinsic::Round => {
                let v = self.lower_expr(&args[0])?;
                let s = self.coerce_f(v)?;
                let d = self.rf()?;
                self.emit(Inst::Call1F { g, d, s })?;
                Ok((d, Ty::F))
            }
            Intrinsic::Abs => {
                let v = self.lower_expr(&args[0])?;
                match v.1 {
                    Ty::I => {
                        let d = self.ri()?;
                        self.emit(Inst::AbsI { d, s: v.0 })?;
                        Ok((d, Ty::I))
                    }
                    Ty::F => {
                        let d = self.rf()?;
                        self.emit(Inst::AbsF { d, s: v.0 })?;
                        Ok((d, Ty::F))
                    }
                }
            }
            Intrinsic::Pow => {
                let va = self.lower_expr(&args[0])?;
                let vb = self.lower_expr(&args[1])?;
                let a = self.coerce_f(va)?;
                let b = self.coerce_f(vb)?;
                let d = self.rf()?;
                self.emit(Inst::PowF { d, a, b })?;
                Ok((d, Ty::F))
            }
            Intrinsic::Min | Intrinsic::Max => {
                let max = g == Intrinsic::Max;
                let va = self.lower_expr(&args[0])?;
                let vb = self.lower_expr(&args[1])?;
                if va.1 == Ty::I && vb.1 == Ty::I {
                    let d = self.ri()?;
                    self.emit(Inst::MinMaxI {
                        max,
                        d,
                        a: va.0,
                        b: vb.0,
                    })?;
                    Ok((d, Ty::I))
                } else {
                    let a = self.coerce_f(va)?;
                    let b = self.coerce_f(vb)?;
                    let d = self.rf()?;
                    self.emit(Inst::MinMaxF { max, d, a, b })?;
                    Ok((d, Ty::F))
                }
            }
            Intrinsic::ToInt => {
                let v = self.lower_expr(&args[0])?;
                Ok((self.coerce_i(v)?, Ty::I))
            }
            Intrinsic::ToFloat => {
                let v = self.lower_expr(&args[0])?;
                Ok((self.coerce_f(v)?, Ty::F))
            }
        }
    }

    /// `acc = x + peek(k) * c` with `acc` a float scalar: one step of
    /// an accumulator chain, as `(acc, register, x, k, c)`.
    fn mac_stmt<'a>(&self, s: &'a Stmt) -> Option<(&'a str, u16, &'a Expr, u16, f64)> {
        let Stmt::Assign {
            target: LValue::Var(acc),
            value: Expr::Binary(BinOp::Add, x, t),
        } = s
        else {
            return None;
        };
        let Some(Sym::ScalarF(d)) = self.lookup(acc) else {
            return None;
        };
        let (k, c) = self.tap(t)?;
        Some((acc, d, x, k, c))
    }

    /// Rule 5: the accumulator chain at the front of `stmts` —
    /// `acc = x + peek(k) * c0` followed by `acc = acc + peek(k + j) * cj`
    /// for consecutive `j` — as `(acc's register, x, k, coefficients)`.
    /// A chain is a slice of one block, so no jump can land inside it.
    fn dot_run<'a>(&self, stmts: &'a [Stmt]) -> Option<(u16, &'a Expr, u16, Vec<f64>)> {
        let (acc, d, x, k0, c0) = self.mac_stmt(stmts.first()?)?;
        let mut cs = vec![c0];
        for s in &stmts[1..] {
            match self.mac_stmt(s) {
                Some((name, _, Expr::Var(v), k, c))
                    if name == acc
                        && v == acc
                        && k as usize == k0 as usize + cs.len()
                        && cs.len() < u16::MAX as usize =>
                {
                    cs.push(c)
                }
                _ => break,
            }
        }
        Some((d, x, k0, cs))
    }

    /// `f[d] = x + Σ_j peek(k + j) * cs[j]`, into `d` or a fresh
    /// temporary: rules 3 and 5's one instruction.  `x` is lowered
    /// first, as in the generic order, so its pops and faults still
    /// precede the peeks.
    fn dot(&mut self, d: Option<u16>, x: &Expr, k: u16, cs: &[f64]) -> Result<u16, String> {
        let at =
            u32::try_from(self.pool.len()).map_err(|_| "constant pool exhausted".to_string())?;
        self.pool.extend_from_slice(cs);
        let vx = self.lower_expr(x)?;
        let a = self.coerce_f(vx)?;
        let d = match d {
            Some(d) => d,
            None => self.rf()?,
        };
        self.emit(Inst::DotPeekF {
            d,
            a,
            k,
            n: cs.len() as u16,
            at,
        })?;
        Ok(d)
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), String> {
        let mut rest = stmts;
        while let Some(s) = rest.first() {
            // Rule 6: a maximal run of discarded pops.
            let pops = rest
                .iter()
                .take_while(|s| matches!(s, Stmt::Expr(Expr::Pop)))
                .count();
            if let (Some(_), Ok(n @ 1..)) = (self.in_ty, u32::try_from(pops)) {
                self.emit(Inst::Skip { n })?;
                rest = &rest[pops..];
            } else if let Some((d, x, k, cs)) = self.dot_run(rest) {
                self.dot(Some(d), x, k, &cs)?;
                rest = &rest[cs.len()..];
            } else {
                self.lower_stmt(s)?;
                rest = &rest[1..];
            }
        }
        Ok(())
    }

    /// Rule 4: `d = <value in s>`.  When `s` is a temporary allocated
    /// since `mark` and the instruction just emitted is the one that
    /// writes it, that instruction writes `d` directly; otherwise copy.
    fn store(&mut self, ty: Ty, d: u16, s: u16, mark: (u32, u32)) -> Result<(), String> {
        if self.is_fresh(ty, s, mark) {
            if let Some((t, r)) = self.code.last_mut().and_then(Inst::dest_mut) {
                if t == ty && *r == s {
                    *r = d;
                    return Ok(());
                }
            }
        }
        self.mov(ty, d, s)
    }

    fn mov(&mut self, ty: Ty, d: u16, s: u16) -> Result<(), String> {
        self.emit(match ty {
            Ty::I => Inst::MovI { d, s },
            Ty::F => Inst::MovF { d, s },
        })
    }

    /// The register-allocation high-water marks, for [`Self::is_fresh`].
    fn mark(&self) -> (u32, u32) {
        (self.next_i, self.next_f)
    }

    /// Was `r` allocated after `mark`?  Such a temporary is written by
    /// exactly one instruction and no name is bound to it.
    fn is_fresh(&self, ty: Ty, r: u16, mark: (u32, u32)) -> bool {
        match ty {
            Ty::I => r as u32 >= mark.0,
            Ty::F => r as u32 >= mark.1,
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), String> {
        match s {
            Stmt::Let { name, ty, init } => {
                let mark = self.mark();
                let v = self.lower_expr(init)?;
                let ty = Ty::of(*ty);
                let src = self.coerce_ty(v, ty)?;
                // Rule 4: a fresh temporary becomes the variable.  Any
                // other register may alias another variable's, so it is
                // copied into a dedicated one.
                let d = if self.is_fresh(ty, src, mark) {
                    src
                } else {
                    let d = self.reg(ty)?;
                    self.mov(ty, d, src)?;
                    d
                };
                self.declare(
                    name,
                    match ty {
                        Ty::I => Sym::ScalarI(d),
                        Ty::F => Sym::ScalarF(d),
                    },
                );
                Ok(())
            }
            Stmt::LetArray { name, ty, len } => {
                let ty = Ty::of(*ty);
                let base = self.alloc_arena(ty, *len)?;
                let len = *len as u32;
                match ty {
                    Ty::I => {
                        self.emit(Inst::ZeroI { base, len })?;
                        self.declare(name, Sym::ArrayI(base, len));
                    }
                    Ty::F => {
                        self.emit(Inst::ZeroF { base, len })?;
                        self.declare(name, Sym::ArrayF(base, len));
                    }
                }
                Ok(())
            }
            Stmt::Assign { target, value } => match target {
                LValue::Var(name) => {
                    let mark = self.mark();
                    let v = self.lower_expr(value)?;
                    match self.lookup(name) {
                        Some(Sym::ScalarI(d)) => {
                            let s = self.coerce_i(v)?;
                            self.store(Ty::I, d, s, mark)
                        }
                        Some(Sym::ScalarF(d)) => {
                            let s = self.coerce_f(v)?;
                            self.store(Ty::F, d, s, mark)
                        }
                        _ => Err(format!("assignment to unknown variable `{name}`")),
                    }
                }
                LValue::Index(name, iexpr) => {
                    // Interpreter order: value first, then the index.
                    let v = self.lower_expr(value)?;
                    let iv = self.lower_expr(iexpr)?;
                    let idx = self.coerce_i(iv)?;
                    match self.lookup(name) {
                        Some(Sym::ArrayI(base, len)) => {
                            let s = self.coerce_i(v)?;
                            self.emit(Inst::StoreI { base, len, idx, s })
                        }
                        Some(Sym::ArrayF(base, len)) => {
                            let s = self.coerce_f(v)?;
                            self.emit(Inst::StoreF { base, len, idx, s })
                        }
                        _ => Err(format!("assignment to unknown array `{name}[]`")),
                    }
                }
            },
            Stmt::Push(e) => {
                let out_ty = self
                    .out_ty
                    .ok_or_else(|| "push in a filter with no output".to_string())?;
                let v = self.lower_expr(e)?;
                match Ty::of(out_ty) {
                    Ty::I => {
                        let s = self.coerce_i(v)?;
                        self.emit(Inst::PushI { s })
                    }
                    Ty::F => {
                        let s = self.coerce_f(v)?;
                        self.emit(Inst::PushF { s })
                    }
                }
            }
            Stmt::Expr(e) => {
                self.lower_expr(e)?;
                Ok(())
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let literal = |e: &Expr| matches!(e, Expr::IntLit(_));
                self.data_jumps |= !(literal(from) && literal(to));
                // The interpreter would silently change the loop
                // variable's slot type if the body re-declares it in the
                // loop's own scope; that dynamic behavior has no static
                // lowering, so reject it (nested scopes are fine).
                if body.iter().any(|s| match s {
                    Stmt::Let { name, .. } | Stmt::LetArray { name, .. } => name == var,
                    _ => false,
                }) {
                    return Err(format!("loop variable `{var}` re-declared in loop body"));
                }
                let lo_v = self.lower_expr(from)?;
                let lo = self.coerce_i(lo_v)?;
                let hi_v = self.lower_expr(to)?;
                let hi = self.coerce_i(hi_v)?;
                // Copy bounds into stable registers: the body may assign
                // whatever variables `from`/`to` read.
                let ctr = self.ri()?;
                self.emit(Inst::MovI { d: ctr, s: lo })?;
                let lim = self.ri()?;
                self.emit(Inst::MovI { d: lim, s: hi })?;
                self.scopes.push(Vec::new());
                let var_reg = self.ri()?;
                self.emit(Inst::MovI { d: var_reg, s: ctr })?;
                self.declare(var, Sym::ScalarI(var_reg));
                let one = self.ri()?;
                self.emit(Inst::ConstI { d: one, v: 1 })?;
                let cond = self.ri()?;
                let head = self.code.len() as u32;
                self.emit(Inst::BinI {
                    op: BinOp::Lt,
                    d: cond,
                    a: ctr,
                    b: lim,
                })?;
                let exit_jz = self.code.len();
                self.emit(Inst::Jz {
                    c: cond,
                    target: u32::MAX,
                })?;
                // The loop variable is force-set each iteration, even if
                // the body assigned it.
                self.emit(Inst::MovI { d: var_reg, s: ctr })?;
                self.lower_stmts(body)?;
                self.emit(Inst::BinI {
                    op: BinOp::Add,
                    d: ctr,
                    a: ctr,
                    b: one,
                })?;
                self.emit(Inst::Jmp { target: head })?;
                let end = self.code.len() as u32;
                if let Some(Inst::Jz { target, .. }) = self.code.get_mut(exit_jz) {
                    *target = end;
                }
                self.scopes.pop();
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.data_jumps = true;
                let c = self.lower_expr(cond)?;
                let flag = self.truthy(c)?;
                let to_else = self.code.len();
                self.emit(Inst::Jz {
                    c: flag,
                    target: u32::MAX,
                })?;
                self.scopes.push(Vec::new());
                self.lower_stmts(then_body)?;
                self.scopes.pop();
                let to_end = self.code.len();
                self.emit(Inst::Jmp { target: u32::MAX })?;
                let else_at = self.code.len() as u32;
                if let Some(Inst::Jz { target, .. }) = self.code.get_mut(to_else) {
                    *target = else_at;
                }
                self.scopes.push(Vec::new());
                self.lower_stmts(else_body)?;
                self.scopes.pop();
                let end = self.code.len() as u32;
                if let Some(Inst::Jmp { target }) = self.code.get_mut(to_end) {
                    *target = end;
                }
                Ok(())
            }
            Stmt::Send { .. } => Err("teleport send in work function".into()),
        }
    }
}

/// Lower one filter node's bodies to bytecode.
///
/// `in_ty` is the element type of the tape the node actually reads
/// (`None` when the filter has no input connection), `out_ty` the type
/// pushes coerce to — the out-edge's type, or `Float` for the external
/// output stream (whose capture applies `Value::as_f64`).
pub fn lower_filter(
    f: &Filter,
    name: &str,
    in_ty: Option<DataType>,
    out_ty: Option<DataType>,
) -> Result<FilterCode, String> {
    let mut lw = Lowerer {
        code: Vec::new(),
        pool: Vec::new(),
        next_i: 0,
        next_f: 0,
        arena_i: 0,
        arena_f: 0,
        scopes: vec![Vec::new()],
        in_ty,
        out_ty,
        data_jumps: false,
    };

    // Persistent state: scalars become pinned registers, arrays arena
    // ranges; both are (re-)initialized when a run's frame is built.
    let mut init_i = Vec::new();
    let mut init_f = Vec::new();
    let mut init_ai = Vec::new();
    let mut init_af = Vec::new();
    for sv in &f.state {
        match (&sv.init, Ty::of(sv.ty)) {
            (StateInit::Scalar(v), Ty::I) => {
                let r = lw.ri()?;
                init_i.push((r, v.as_i64()));
                lw.declare(&sv.name, Sym::ScalarI(r));
            }
            (StateInit::Scalar(v), Ty::F) => {
                let r = lw.rf()?;
                init_f.push((r, v.as_f64()));
                lw.declare(&sv.name, Sym::ScalarF(r));
            }
            (StateInit::Array(vs), ty) => {
                let base = lw.alloc_arena(ty, vs.len())?;
                match ty {
                    Ty::I => {
                        init_ai.push((base, vs.iter().map(|v| v.as_i64()).collect()));
                        lw.declare(&sv.name, Sym::ArrayI(base, vs.len() as u32));
                    }
                    Ty::F => {
                        init_af.push((base, vs.iter().map(|v| v.as_f64()).collect()));
                        lw.declare(&sv.name, Sym::ArrayF(base, vs.len() as u32));
                    }
                }
            }
        }
    }
    let state_scope = lw.scopes[0].clone();
    let state_regs = lw.mark();

    // Work body: one fresh local scope above the state scope (work-level
    // `let`s land there, shadowing state like the interpreter's
    // `with_locals` top scope).
    lw.scopes.push(Vec::new());
    lw.lower_stmts(&f.work)
        .map_err(|e| format!("{name}: {e}"))?;
    lw.scopes.truncate(1);
    let program = |lw: &mut Lowerer, peek: usize, pop: usize, push: usize| {
        let code = std::mem::take(&mut lw.code);
        let rates = Rates {
            pop: pop as u64,
            window: peek.max(pop) as u64,
            push: push as u64,
        };
        Program {
            lane_safe: !std::mem::take(&mut lw.data_jumps)
                && Program::is_lane_safe(&code, state_regs),
            code,
            pool: std::mem::take(&mut lw.pool),
            rates,
            state: state_regs,
        }
    };
    let work = program(&mut lw, f.peek, f.pop, f.push);

    // Prework shares the register file and arenas (state registers must
    // line up) but has its own instruction stream and rates.
    let prework = match &f.prework {
        Some(pw) => {
            lw.scopes = vec![state_scope, Vec::new()];
            lw.lower_stmts(&pw.body)
                .map_err(|e| format!("{name} (prework): {e}"))?;
            Some(program(&mut lw, pw.peek, pw.pop, pw.push))
        }
        None => None,
    };

    Ok(FilterCode {
        name: name.to_string(),
        work,
        prework,
        n_i: lw.next_i,
        n_f: lw.next_f,
        arena_i: lw.arena_i,
        arena_f: lw.arena_f,
        init_i,
        init_f,
        init_ai,
        init_af,
        kernel: None,
    })
}

/// Initial items loaded onto an edge must already have the edge's type:
/// the reference machine stores them *uncoerced*, so a mismatch would
/// diverge between engines.
pub fn initial_items_typed(initial: &[Value], ty: DataType) -> Result<(), String> {
    if initial.iter().all(|v| v.data_type() == ty) {
        Ok(())
    } else {
        Err("feedback initial items differ from edge type".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamit_graph::builder::*;

    /// Lower a float→float (or int→int) work body and return its program.
    fn lower(ty: DataType, body: impl FnOnce(BlockBuilder) -> BlockBuilder) -> Program {
        let f = FilterBuilder::new("f", ty)
            .rates(8, 1, 1)
            .work(body)
            .build();
        lower_filter(&f, "f", Some(ty), Some(ty))
            .expect("lowers")
            .work
    }

    fn tap(k: i64, c: f64) -> Ex {
        peek(lit(k)) * lit(c)
    }

    #[test]
    fn literal_peek_takes_no_index_register() {
        let p = lower(DataType::Float, |b| b.push(peek(lit(2i64))));
        assert_eq!(p.code[0], Inst::PeekFK { d: 0, k: 2 });
        let p = lower(DataType::Int, |b| b.push(peek(lit(2i64))));
        assert_eq!(p.code[0], Inst::PeekIK { d: 0, k: 2 });
        // A negative literal keeps the generic instruction, whose
        // runtime check names the index.
        let p = lower(DataType::Float, |b| b.push(peek(lit(-1i64))));
        assert_eq!(
            p.code[..2],
            [Inst::ConstI { d: 0, v: -1 }, Inst::PeekF { d: 0, idx: 0 }]
        );
    }

    #[test]
    fn float_literal_stays_on_its_side_of_the_operator() {
        let p = lower(DataType::Float, |b| b.push(pop() - lit(1.5)));
        assert_eq!(
            p.code[1],
            Inst::ArithFK {
                op: BinOp::Sub,
                d: 1,
                a: 0,
                imm: 1.5
            }
        );
        let p = lower(DataType::Float, |b| b.push(lit(1.5) - pop()));
        assert_eq!(
            p.code[1],
            Inst::ArithKF {
                op: BinOp::Sub,
                d: 1,
                b: 0,
                imm: 1.5
            }
        );
        // An int operand is cast first: the literal makes the op float.
        let p = lower(DataType::Int, |b| b.push(pop() * lit(0.5)));
        assert!(matches!(p.code[1], Inst::CastIF { .. }));
        assert!(matches!(p.code[2], Inst::ArithFK { .. }));
    }

    #[test]
    fn tap_is_fused_only_in_source_operand_order() {
        let dot = |p: &Program| p.code.iter().any(|i| matches!(i, Inst::DotPeekF { .. }));
        let p = lower(DataType::Float, |b| b.push(pop() + tap(1, 2.0)));
        assert_eq!(
            p.code[1],
            Inst::DotPeekF {
                d: 1,
                a: 0,
                k: 1,
                n: 1,
                at: 0
            }
        );
        assert_eq!(p.pool, [2.0]);
        // Commuted forms are different float expressions (NaN payloads),
        // and an int tape's peek is cast before the multiply.
        assert!(!dot(&lower(DataType::Float, |b| b
            .push(pop() + lit(2.0) * peek(lit(1i64))))));
        assert!(!dot(
            &lower(DataType::Float, |b| b.push(tap(1, 2.0) + pop()))
        ));
        assert!(!dot(&lower(DataType::Int, |b| b.push(pop() + tap(1, 2.0)))));
    }

    #[test]
    fn stateless_bodies_with_literal_loops_only_are_lane_bodies() {
        use DataType::{Float as F, Int as I};
        let fir = |b: BlockBuilder| {
            b.let_("s", F, lit(-0.0))
                .set("s", var("s") + tap(0, 1.0))
                .set("s", var("s") + tap(1, 2.0))
        };
        // A dot product from a constant (the old lone lane shape), int
        // arithmetic with two pushes and a pop, intrinsics, and a loop
        // with literal bounds over a dynamic peek.
        let yes = [
            lower(F, |b| fir(b).push(var("s")).pop_discard()),
            lower(I, |b| {
                b.let_("x", I, pop())
                    .push(minf(var("x"), peek(lit(0i64))) / lit(3i64))
                    .push(abs(var("x")) * var("x"))
            }),
            lower(F, |b| b.push(sqrt(pop()) + cos(lit(1.0)))),
            lower(F, |b| {
                b.for_("i", lit(0i64), lit(3i64), |b| b.push(peek(var("i"))))
                    .pop_discard()
            }),
        ];
        for p in yes {
            assert!(p.lane_safe, "{:?}", p.code);
        }
        // A state write, a local array, an `if`, and a loop bounded by a
        // popped value each break the marking; a read of state does not.
        let stateful = |f: FilterBuilder, ty| {
            let f = f.rates(1, 1, 1).build();
            lower_filter(&f, "f", Some(ty), Some(ty))
                .expect("lowers")
                .work
        };
        let counter = FilterBuilder::new("f", I)
            .state("n", I, Value::Int(0))
            .work(|b| b.set("n", var("n") + pop()).push(var("n")));
        let gain = FilterBuilder::new("f", F)
            .state("g", F, Value::Float(0.5))
            .work(|b| b.push(pop() * var("g")));
        assert!(!stateful(counter, I).lane_safe);
        assert!(stateful(gain, F).lane_safe);
        let not = [
            lower(I, |b| {
                b.let_array("a", I, 2)
                    .set_idx("a", lit(0i64), pop())
                    .push(idx("a", lit(0i64)))
            }),
            lower(I, |b| b.if_(peek(lit(0i64)), |b| b).push(pop())),
            lower(I, |b| {
                b.let_("n", I, pop())
                    .for_("i", lit(0i64), var("n"), |b| b)
                    .push(var("n"))
            }),
        ];
        for p in not {
            assert!(!p.lane_safe, "{:?}", p.code);
        }
        // A `send` is never lowered at all, so never laned.
        let send = FilterBuilder::new("f", F)
            .rates(1, 1, 1)
            .work(|b| b.send("p", "h", vec![], (0, 0)).push(pop()))
            .build();
        assert!(lower_filter(&send, "f", Some(F), Some(F)).is_err());
    }

    /// A body that reads a temporary before any instruction writes it
    /// would see another firing's value: it is not lane-safe.  Reading
    /// state first, or writing the temporary first, is.
    #[test]
    fn a_body_that_reads_a_temporary_first_is_not_a_lane_body() {
        let sum = |a| Inst::ArithF {
            op: BinOp::Add,
            d: 1,
            a,
            b: 2,
        };
        let reads_first = [Inst::PeekFK { d: 2, k: 0 }, sum(1), Inst::PushF { s: 1 }];
        assert!(!Program::is_lane_safe(&reads_first, (0, 0)));
        let mut writes_first = reads_first.to_vec();
        writes_first.insert(0, Inst::ConstF { d: 1, v: 0.5 });
        assert!(Program::is_lane_safe(&writes_first, (0, 0)));
        let reads_state = [Inst::PeekFK { d: 2, k: 0 }, sum(0), Inst::PushF { s: 1 }];
        assert!(Program::is_lane_safe(&reads_state, (0, 1)));
        assert!(!Program::is_lane_safe(&reads_state, (0, 0)));
        // An int temporary read first as a peek index or a branch.
        let peek = [Inst::PeekI { d: 1, idx: 0 }, Inst::PushI { s: 1 }];
        assert!(!Program::is_lane_safe(&peek, (0, 0)));
        let branch = [Inst::Jz { c: 3, target: 1 }, Inst::Skip { n: 1 }];
        assert!(!Program::is_lane_safe(&branch, (0, 0)));
    }

    #[test]
    fn discarded_pops_become_one_skip_per_run() {
        let p = lower(DataType::Int, |b| {
            b.pop_discard()
                .pop_discard()
                .push(pop())
                .pop_discard()
                .if_(pop(), |b| b.pop_discard())
        });
        let skips: Vec<u32> = p
            .code
            .iter()
            .filter_map(|i| match i {
                Inst::Skip { n } => Some(*n),
                _ => None,
            })
            .collect();
        assert_eq!(skips, [2, 1, 1]);
        // Pops whose value is used stay pops.
        let pops = p.code.iter().filter(|i| matches!(i, Inst::PopI { .. }));
        assert_eq!(pops.count(), 2);
    }

    #[test]
    fn assignment_writes_the_variable_directly_unless_it_aliases() {
        let p = lower(DataType::Float, |b| {
            b.let_("x", DataType::Float, pop())
                .let_("y", DataType::Float, var("x"))
                .set("y", var("y") + lit(1.0))
                .set("x", var("y"))
                .push(var("x"))
        });
        assert_eq!(
            p.code,
            vec![
                Inst::PopF { d: 0 },
                // `y` must not share `x`'s register.
                Inst::MovF { d: 1, s: 0 },
                Inst::ArithFK {
                    op: BinOp::Add,
                    d: 1,
                    a: 1,
                    imm: 1.0
                },
                Inst::MovF { d: 0, s: 1 },
                Inst::PushF { s: 0 },
            ]
        );
    }

    #[test]
    fn accumulator_chain_becomes_one_dot_product() {
        let step = |b: BlockBuilder, k: i64, c: f64| b.set("s", var("s") + tap(k, c));
        let p = lower(DataType::Float, |b| {
            let b = b
                .let_("s", DataType::Float, lit(0.0))
                .set("s", lit(0.0) + tap(0, 1.0));
            let b = step(step(b, 1, 2.0), 2, 3.0);
            // A gap, a branch, and a descending index each end a chain.
            let b = step(step(b, 4, 4.0), 5, 5.0);
            let b = b.if_(pop(), |b| b);
            let b = step(step(b, 7, 7.0), 6, 6.0);
            b.push(var("s"))
        });
        let shape: Vec<&Inst> = p
            .code
            .iter()
            .filter(|i| matches!(i, Inst::DotPeekF { .. }))
            .collect();
        assert_eq!(
            shape,
            [
                &Inst::DotPeekF {
                    d: 0,
                    a: 1,
                    k: 0,
                    n: 3,
                    at: 0
                },
                &Inst::DotPeekF {
                    d: 0,
                    a: 0,
                    k: 4,
                    n: 2,
                    at: 3
                },
                &Inst::DotPeekF {
                    d: 0,
                    a: 0,
                    k: 7,
                    n: 1,
                    at: 5
                },
                &Inst::DotPeekF {
                    d: 0,
                    a: 0,
                    k: 6,
                    n: 1,
                    at: 6
                },
            ]
        );
        assert_eq!(p.pool, [1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 6.0]);
        assert!(!p.code.iter().any(|i| matches!(i, Inst::MovF { .. })));
    }
}
