//! Per-filter lowering — the admission gate, the mid-end optimizer and
//! bytecode lowering — done once per distinct filter body.
//!
//! The language is made of parameterized filters instantiated many
//! times (a bank of comparators, a band per channel, `[NofM]` fission
//! replicas), and the elaborator emits one body per instance.  What
//! lowering makes of a body depends on that body, its tape types and the
//! optimization level, and on nothing else: the instance name only
//! labels the code and its diagnostics.  [`LoweringCache`] therefore
//! lowers each distinct (body, tape types, options) once and hands every
//! instance a copy under its own name — within one graph, and across
//! every graph lowered through the same cache (a `CompiledProgram` keeps
//! one for the compiled engine, both of the parallel runtime's attempts
//! and every rung of the supervision ladder).
//!
//! The key is the input itself, written out by `Key` in an injective
//! encoding: floats by their bits (`0.0` and `-0.0`, NaN payloads and
//! `1` against `1.0` all differ), every string and list with its length,
//! every variant with its tag.  A hash picks the bucket; a hit needs the
//! whole key to be equal.  `Key` destructures the IR's structs and
//! matches its enums without a rest pattern, so a field or variant added
//! to the IR does not compile until the key covers it (operators and
//! intrinsics are written as their discriminant, distinct per variant).

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use streamit_analysis::{analyze_rates, optimize_filter, Severity};
use streamit_graph::{
    DataType, Expr, Filter, Handler, KernelRow, KernelSpec, LValue, PreWork, StateInit, StateVar,
    Stmt, Value,
};

use crate::bytecode::{lower_filter, FilterCode};
use crate::kernel::KernelCode;
use crate::plan::LowerOptions;

/// What lowering one body yields, with the instance name left out: the
/// code (named `""`) and why a kernel hint was dropped, if one was; or
/// the text that follows the instance name in the reason the engines
/// decline it.
type Lowered = Result<(FilterCode, Option<String>), String>;

/// Lowered bodies by their exact key.  Shareable across threads; filled
/// lazily, never evicted (it lives as long as its owner, one program).
#[derive(Debug, Default)]
pub struct LoweringCache {
    bodies: Mutex<HashMap<Vec<u8>, Lowered>>,
}

impl LoweringCache {
    /// Distinct bodies lowered through this cache so far.
    pub fn len(&self) -> usize {
        self.bodies().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gate, optimize and lower filter `f`, the instance `name`, whose
    /// input tape carries `in_ty` and output tape `out_ty` (`None` for an
    /// undeclared port).  Returns its code and its `L0701` note if the
    /// kernel hint was dropped, or why the compiled engines cannot run
    /// it.  A body this cache has lowered with the same tape types and
    /// options is not lowered again.
    pub fn lower(
        &self,
        f: &Filter,
        name: &str,
        in_ty: Option<DataType>,
        out_ty: Option<DataType>,
        opts: LowerOptions,
    ) -> Result<(FilterCode, Option<String>), String> {
        let key = Key::of(f, in_ty, out_ty, opts);
        let hit = self.bodies().get(&key).cloned();
        let lowered = match hit {
            Some(lowered) => lowered,
            None => {
                let lowered = lower_body(f, in_ty, out_ty, opts);
                self.bodies().entry(key).or_insert(lowered).clone()
            }
        };
        match lowered {
            Ok((mut code, dropped)) => {
                code.name = name.to_string();
                let note = dropped.map(|why| format!("warning[L0701] {name}: {why}"));
                Ok((code, note))
            }
            Err(rest) => Err(format!("{name}{rest}")),
        }
    }

    /// The map; a panic elsewhere while it was held cannot have left an
    /// entry half-written (entries are inserted whole), so a poisoned
    /// lock is used as is.
    fn bodies(&self) -> MutexGuard<'_, HashMap<Vec<u8>, Lowered>> {
        self.bodies.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The one lowering of a body.  Any analysis *error* (or the
/// rates-not-statically-provable lint L0605) means block execution
/// cannot be proved to match the reference firing by firing.
fn lower_body(
    f: &Filter,
    in_ty: Option<DataType>,
    out_ty: Option<DataType>,
    opts: LowerOptions,
) -> Lowered {
    let unsafe_rates = analyze_rates(f, "")
        .into_iter()
        .find(|x| x.severity == Severity::Error || x.code == "L0605");
    if let Some(x) = unsafe_rates {
        return Err(format!(
            ": work function not statically safe ({}: {})",
            x.code, x.message
        ));
    }
    let kernel = kernel_verdict(f, in_ty, out_ty);
    // The gate above ran on the author's IR; the optimizer preserves
    // rates, state and kernel hints, so lowering the optimized body is
    // covered by the same proof.  A filter whose hint is accepted runs
    // the kernel instead of its work bytecode, so that body is lowered
    // as written, the fallback that never runs.
    let optimized =
        (opts.opt_level >= 1 && !matches!(kernel, Some(Ok(_)))).then(|| optimize_filter(f).0);
    let mut code = lower_filter(optimized.as_ref().unwrap_or(f), "", in_ty, out_ty)?;
    let dropped = match kernel {
        Some(Ok(spec)) => {
            code.kernel = Some(KernelCode::build(spec));
            None
        }
        Some(Err(why)) => Some(why),
        None => None,
    };
    Ok((code, dropped))
}

/// An optimizer kernel hint is accepted only when it agrees with the
/// declared rates and both tapes carry unboxed f64.  Any disagreement
/// falls back to the (always correct) bytecode, with the reason the
/// `L0701` note gives.
fn kernel_verdict(
    f: &Filter,
    in_ty: Option<DataType>,
    out_ty: Option<DataType>,
) -> Option<Result<&KernelSpec, String>> {
    let spec = f.kernel.as_ref()?;
    let tape = |t: Option<DataType>| t.map_or("absent".into(), |t| format!("{t:?}").to_lowercase());
    Some(if !spec.matches_rates(f.peek, f.pop, f.push) {
        let kind = match spec {
            KernelSpec::Linear { .. } => "linear",
            KernelSpec::FreqFir { .. } => "freq-fir",
        };
        Err(format!(
            "kernel hint dropped: {kind} hint disagrees with declared rates (peek {}, pop {}, \
             push {}); falling back to bytecode",
            f.peek, f.pop, f.push
        ))
    } else if in_ty != Some(DataType::Float) {
        Err(format!(
            "kernel hint dropped: input tape is {}, not float; falling back to bytecode",
            tape(in_ty)
        ))
    } else if out_ty != Some(DataType::Float) {
        Err(format!(
            "kernel hint dropped: output tape is {}, not float; falling back to bytecode",
            tape(out_ty)
        ))
    } else {
        Ok(spec)
    })
}

/// The injective encoding of a lowering's inputs.  Every value is a tag
/// byte, a fixed-width little-endian word, or a length followed by that
/// many encoded items, so a decoder that knows the type at each position
/// recovers the input: two different inputs never share a key.
struct Key(Vec<u8>);

impl Key {
    fn of(
        f: &Filter,
        in_ty: Option<DataType>,
        out_ty: Option<DataType>,
        opts: LowerOptions,
    ) -> Vec<u8> {
        let LowerOptions { opt_level } = opts;
        let mut k = Key(Vec::with_capacity(512));
        k.tag(opt_level);
        k.opt_ty(in_ty);
        k.opt_ty(out_ty);
        k.filter(f);
        k.0
    }

    fn tag(&mut self, t: u8) {
        self.0.push(t);
    }

    fn word(&mut self, w: u64) {
        self.0.extend_from_slice(&w.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn int(&mut self, i: i64) {
        self.word(i as u64);
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.0.extend_from_slice(s.as_bytes());
    }

    fn ty(&mut self, t: DataType) {
        self.tag(match t {
            DataType::Int => 0,
            DataType::Float => 1,
        });
    }

    fn opt_ty(&mut self, t: Option<DataType>) {
        match t {
            Some(t) => self.ty(t),
            None => self.tag(2),
        }
    }

    fn value(&mut self, v: Value) {
        match v {
            Value::Int(i) => {
                self.tag(0);
                self.int(i);
            }
            Value::Float(x) => {
                self.tag(1);
                self.float(x);
            }
        }
    }

    fn filter(&mut self, f: &Filter) {
        let Filter {
            name: _,
            input,
            output,
            peek,
            pop,
            push,
            state,
            work,
            prework,
            handlers,
            kernel,
        } = f;
        self.opt_ty(*input);
        self.opt_ty(*output);
        self.len(*peek);
        self.len(*pop);
        self.len(*push);
        self.len(state.len());
        for StateVar { name, ty, init } in state {
            self.str(name);
            self.ty(*ty);
            match init {
                StateInit::Scalar(v) => {
                    self.tag(0);
                    self.value(*v);
                }
                StateInit::Array(vs) => {
                    self.tag(1);
                    self.len(vs.len());
                    for v in vs {
                        self.value(*v);
                    }
                }
            }
        }
        self.block(work);
        match prework {
            Some(PreWork {
                peek,
                pop,
                push,
                body,
            }) => {
                self.tag(1);
                self.len(*peek);
                self.len(*pop);
                self.len(*push);
                self.block(body);
            }
            None => self.tag(0),
        }
        self.len(handlers.len());
        for Handler { name, params, body } in handlers {
            self.str(name);
            self.len(params.len());
            for (param, ty) in params {
                self.str(param);
                self.ty(*ty);
            }
            self.block(body);
        }
        match kernel {
            Some(KernelSpec::Linear { peek, pop, rows }) => {
                self.tag(1);
                self.len(*peek);
                self.len(*pop);
                self.len(rows.len());
                for KernelRow { taps, constant } in rows {
                    self.len(taps.len());
                    for &(i, c) in taps {
                        self.word(i.into());
                        self.float(c);
                    }
                    self.float(*constant);
                }
            }
            Some(KernelSpec::FreqFir {
                taps,
                constant,
                block,
            }) => {
                self.tag(2);
                self.len(taps.len());
                for &c in taps {
                    self.float(c);
                }
                self.float(*constant);
                self.len(*block);
            }
            None => self.tag(0),
        }
    }

    fn block(&mut self, b: &[Stmt]) {
        self.len(b.len());
        for s in b {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { name, ty, init } => {
                self.tag(0);
                self.str(name);
                self.ty(*ty);
                self.expr(init);
            }
            Stmt::LetArray { name, ty, len } => {
                self.tag(1);
                self.str(name);
                self.ty(*ty);
                self.len(*len);
            }
            Stmt::Assign { target, value } => {
                self.tag(2);
                match target {
                    LValue::Var(name) => {
                        self.tag(0);
                        self.str(name);
                    }
                    LValue::Index(name, i) => {
                        self.tag(1);
                        self.str(name);
                        self.expr(i);
                    }
                }
                self.expr(value);
            }
            Stmt::Push(e) => {
                self.tag(3);
                self.expr(e);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                self.tag(4);
                self.str(var);
                self.expr(from);
                self.expr(to);
                self.block(body);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.tag(5);
                self.expr(cond);
                self.block(then_body);
                self.block(else_body);
            }
            Stmt::Expr(e) => {
                self.tag(6);
                self.expr(e);
            }
            Stmt::Send {
                portal,
                handler,
                args,
                latency_min,
                latency_max,
            } => {
                self.tag(7);
                self.str(portal);
                self.str(handler);
                self.len(args.len());
                for a in args {
                    self.expr(a);
                }
                self.int(*latency_min);
                self.int(*latency_max);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::IntLit(i) => {
                self.tag(0);
                self.int(*i);
            }
            Expr::FloatLit(x) => {
                self.tag(1);
                self.float(*x);
            }
            Expr::Var(name) => {
                self.tag(2);
                self.str(name);
            }
            Expr::Index(name, i) => {
                self.tag(3);
                self.str(name);
                self.expr(i);
            }
            Expr::Peek(i) => {
                self.tag(4);
                self.expr(i);
            }
            Expr::Pop => self.tag(5),
            Expr::Unary(op, a) => {
                self.tag(6);
                self.tag(*op as u8);
                self.expr(a);
            }
            Expr::Binary(op, a, b) => {
                self.tag(7);
                self.tag(*op as u8);
                self.expr(a);
                self.expr(b);
            }
            Expr::Call(g, args) => {
                self.tag(8);
                self.tag(*g as u8);
                self.len(args.len());
                for a in args {
                    self.expr(a);
                }
            }
        }
    }
}
