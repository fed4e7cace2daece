//! Semantics preservation for the analysis mid-end optimizer.
//!
//! Two independent checks:
//!
//! 1. A 512-case proptest runs each generated work body through the
//!    reference interpreter twice — once as written, once after
//!    [`streamit::analysis::optimize_filter`] — and requires the pushed
//!    streams (and consumed-item counts) to be bit-identical.  This
//!    isolates the optimizer from engine lowering entirely; the
//!    optimized body is lowered only to count which selected
//!    instructions the optimizer's output reaches.
//! 2. A metamorphic sweep over all fifteen benchmark apps: the compiled
//!    engine and the parallel runtime at 1/2/4 threads must produce
//!    bit-identical output at `--opt-level 0` and `--opt-level 1`, and
//!    must accept exactly the same graphs.

use std::collections::HashMap;

use streamit::analysis::optimize_filter;
use streamit::exec::bytecode::lower_filter;
use streamit::graph::builder::FilterBuilder;
use streamit::graph::{DataType, Filter, Value};
use streamit::interp::{eval_block_bounded, EvalCtx, RuntimeError};

#[path = "support/corpus.rs"]
mod corpus;
use corpus::varied_input;

#[path = "support/irgen.rs"]
mod irgen;

use irgen::{gen_block, selected, Gen, Scope, Selected, SELECTED};

// ---- 1. interpreter-level optimizer differential ----------------------

/// Concrete tape: reads from a fixed input, records pops and pushes.
struct Tape {
    input: Vec<Value>,
    pops: u64,
    out: Vec<Value>,
}

impl EvalCtx for Tape {
    fn node_name(&self) -> &str {
        "opt-prop"
    }
    fn peek(&mut self, i: u64) -> Result<Value, RuntimeError> {
        let at = (self.pops + i) as usize;
        self.input
            .get(at)
            .copied()
            .ok_or(RuntimeError::TapeUnderflow {
                node: "opt-prop".into(),
                needed: at as u64 + 1,
                had: self.input.len() as u64,
                declared: None,
            })
    }
    fn pop(&mut self) -> Result<Value, RuntimeError> {
        let v = self.peek(0)?;
        self.pops += 1;
        Ok(v)
    }
    fn push(&mut self, v: Value) -> Result<(), RuntimeError> {
        self.out.push(v);
        Ok(())
    }
    fn send(&mut self, _: &str, _: &str, _: Vec<Value>, _: (i64, i64)) -> Result<(), RuntimeError> {
        Ok(())
    }
}

/// Bit-exact key for a pushed value (floats compare by bits so NaN and
/// signed zero are distinguished, exactly like the engine differential).
fn bits(v: &Value) -> (u8, u64) {
    match v {
        Value::Int(i) => (0, *i as u64),
        v => (1, v.as_f64().to_bits()),
    }
}

/// Run one body for three consecutive firings over a long tape.
fn firings(f: &Filter, input: &[Value]) -> Result<(Vec<(u8, u64)>, u64), RuntimeError> {
    let mut ctx = Tape {
        input: input.to_vec(),
        pops: 0,
        out: Vec::new(),
    };
    for _ in 0..3 {
        let mut state = HashMap::new();
        eval_block_bounded(&f.work, &mut state, HashMap::new(), &mut ctx, 1_000_000)?;
    }
    Ok((ctx.out.iter().map(bits).collect(), ctx.pops))
}

enum Case {
    /// The body errors as written (tape underflow on the synthetic
    /// input); nothing to compare.
    Skipped,
    /// Optimizer had nothing to do (still compared).
    Unchanged,
    /// Optimizer rewrote the body and the streams matched.
    Optimized,
}

/// One case's outcome, and which of `irgen::SELECTED` the compared
/// optimized body lowers to (all false when skipped or not lowerable).
type Outcome = (Case, Selected);

fn run_case(seed: u64) -> Outcome {
    let mut g = Gen(seed | 1);
    let mut sc = Scope::default();
    let block = gen_block(&mut g, &mut sc, 2);
    // Int and float tapes lower peeks and mixed arithmetic differently.
    let ty = if g.below(2) == 0 {
        DataType::Int
    } else {
        DataType::Float
    };

    let body = block.clone();
    let f = FilterBuilder::new("gen", ty)
        .rates(0, 0, 0)
        .work(move |b| body.iter().cloned().fold(b, |b, s| b.stmt(s)))
        .build();
    let (of, stats) = optimize_filter(&f);

    let input: Vec<Value> = (0..65_536)
        .map(|i| Value::Int(((i * 37) % 101) as i64 - 50).coerce(ty))
        .collect();
    let Ok((want, want_pops)) = firings(&f, &input) else {
        return (Case::Skipped, Selected::default());
    };
    let (got, got_pops) = firings(&of, &input).unwrap_or_else(|e| {
        panic!("seed {seed}: optimized body errors where the original ran: {e}\n{block:#?}")
    });
    assert_eq!(
        got, want,
        "seed {seed}: optimizer changed the pushed stream\noriginal: {:#?}\noptimized: {:#?}",
        f.work, of.work
    );
    assert_eq!(
        got_pops, want_pops,
        "seed {seed}: optimizer changed the consumed-item count\noriginal: {:#?}\noptimized: {:#?}",
        f.work, of.work
    );
    let emitted = lower_filter(&of, "gen", Some(ty), Some(ty))
        .map(|fc| selected(&fc.work.code))
        .unwrap_or_default();
    let case = if stats.changed() {
        Case::Optimized
    } else {
        Case::Unchanged
    };
    (case, emitted)
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(512))]

    /// Optimizer soundness: for every generated body, interpreting the
    /// optimized IR produces the bit-identical stream and pop count.
    #[test]
    fn prop_optimized_ir_is_bit_identical(seed in 0u64..u64::MAX) {
        run_case(seed);
    }
}

/// Non-vacuity guard: over a fixed seed sweep the optimizer must both
/// rewrite a healthy fraction of bodies *and* leave some untouched, and
/// its output must reach every instruction-selection rule: each selected
/// instruction is in the lowering of at least 5 % of the sweep.
#[test]
fn optimizer_sweep_rewrites_a_healthy_fraction() {
    const SWEEP: u64 = 512;
    let (mut optimized, mut unchanged, mut skipped) = (0usize, 0usize, 0usize);
    let mut emitted = [0usize; SELECTED.len()];
    for seed in 0..SWEEP {
        let (case, seen) = run_case(seed);
        match case {
            Case::Optimized => optimized += 1,
            Case::Unchanged => unchanged += 1,
            Case::Skipped => skipped += 1,
        }
        for (n, hit) in emitted.iter_mut().zip(seen) {
            *n += hit as usize;
        }
    }
    eprintln!(
        "optimizer sweep: {optimized} rewritten, {unchanged} unchanged, {skipped} skipped, \
         emitted {emitted:?}"
    );
    assert!(
        optimized >= 64,
        "only {optimized} of {SWEEP} generated bodies were rewritten — the property is near-vacuous"
    );
    assert!(
        skipped <= 448,
        "{skipped} of {SWEEP} generated bodies failed to run at all"
    );
    for (name, n) in SELECTED.iter().zip(emitted) {
        assert!(
            n * 20 >= SWEEP as usize,
            "{name} was in the lowering of only {n} of {SWEEP} optimized bodies — \
             the optimizer's output no longer reaches its selection rule"
        );
    }
}

// ---- 2. metamorphic opt-0 == opt-1 over the benchmark corpus ----------

mod metamorphic {
    use streamit::exec::ExecError;
    use streamit::graph::StreamNode;
    use streamit::{apps, Compiler, Options};

    use super::varied_input;

    fn programs(name: &str, stream: &StreamNode) -> [streamit::CompiledProgram; 2] {
        [0u8, 1u8].map(|opt_level| {
            Compiler::new(Options {
                opt_level,
                ..Options::default()
            })
            .compile_stream(stream.clone())
            .unwrap_or_else(|e| panic!("{name}: app graph must compile: {e}"))
        })
    }

    /// The compiled engine agrees with itself across opt levels on every
    /// app it accepts, bit for bit — and accepts the same apps.
    #[test]
    fn compiled_engine_agrees_across_opt_levels() {
        let (mut compared, mut declined) = (0usize, 0usize);
        for app in apps::corpus() {
            let (name, n) = (app.name, app.prefix);
            let [p0, p1] = programs(name, &app.graph());
            let (cg0, cg1) = match (p0.compile_exec(), p1.compile_exec()) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(ExecError::Unsupported { .. }), Err(ExecError::Unsupported { .. })) => {
                    declined += 1;
                    continue;
                }
                (a, b) => panic!(
                    "{name}: opt levels disagree on acceptance: opt0 {:?}, opt1 {:?}",
                    a.err().map(|e| e.to_string()),
                    b.err().map(|e| e.to_string()),
                ),
            };
            let k = if n as u64 <= cg1.init_outputs() {
                0
            } else {
                (n as u64 - cg1.init_outputs()).div_ceil(cg1.outputs_per_iteration().max(1))
            };
            let input = varied_input(cg0.required_input(k).max(cg1.required_input(k)) as usize);
            let a = cg0
                .run_collect(&input, n)
                .unwrap_or_else(|e| panic!("{name}: opt0 run failed: {e}"));
            let b = cg1
                .run_collect(&input, n)
                .unwrap_or_else(|e| panic!("{name}: opt1 run failed: {e}"));
            let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "{name}: opt levels disagree on the compiled engine");
            compared += 1;
        }
        assert_eq!(compared + declined, apps::corpus().len());
        assert!(compared >= 8, "only {compared} apps were compared");
    }

    /// State initialisers take the declared type in every engine and in
    /// the optimizer's constant seeds: `float g = 1` holds 1.0, so
    /// `g / 2` is 0.5 (seeded as the int it folded to `x * 0`), and
    /// `int n = 2.9` holds 2, so `n / 4` is 0.  Reference, opt-0 and
    /// opt-1 agree bit for bit.
    #[test]
    fn state_initialisers_take_the_declared_type() {
        use streamit::graph::builder::*;
        use streamit::graph::DataType;
        let f = FilterBuilder::new("Scale", DataType::Float)
            .rates(1, 1, 1)
            .state("g", DataType::Float, 1i64)
            .state("n", DataType::Int, 2.9)
            .state_array("a", DataType::Float, vec![3i64.into()])
            .push(pop() * (var("g") / lit(2i64)) + var("n") / lit(4i64) + idx("a", 0) / lit(2i64))
            .build_node();
        let stream = pipeline("Main", vec![f]);
        let [p0, p1] = programs("state", &stream);
        let input = varied_input(16);
        let want: Vec<u64> = input
            .iter()
            .map(|x| (x * 0.5 + 0.0 + 1.5).to_bits())
            .collect();
        let bits = |out: Vec<f64>| out.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(p0.run(&input, 16).expect("reference runs")), want);
        for (level, p) in [p0, p1].iter().enumerate() {
            let cg = p.compile_exec().expect("compiled engine accepts it");
            let got = cg.run_collect(&input, 16).expect("compiled engine runs");
            assert_eq!(bits(got), want, "opt-{level} disagrees with the reference");
        }
    }

    /// The parallel runtime agrees with itself across opt levels at 1,
    /// 2 and 4 worker threads on every app it accepts, bit for bit.
    #[test]
    fn parallel_runtime_agrees_across_opt_levels() {
        let (mut compared, mut declined) = (0usize, 0usize);
        for app in apps::corpus() {
            let (name, n) = (app.name, app.prefix);
            let [p0, p1] = programs(name, &app.graph());
            for threads in [1usize, 2, 4] {
                let (pg0, pg1) = match (p0.compile_parallel(threads), p1.compile_parallel(threads))
                {
                    (Ok(a), Ok(b)) => (a, b),
                    (Err(ExecError::Unsupported { .. }), Err(ExecError::Unsupported { .. })) => {
                        declined += 1;
                        continue;
                    }
                    (a, b) => panic!(
                        "{name}@{threads}: opt levels disagree on acceptance: \
                         opt0 {:?}, opt1 {:?}",
                        a.err().map(|e| e.to_string()),
                        b.err().map(|e| e.to_string()),
                    ),
                };
                let k = if n as u64 <= pg1.init_outputs() {
                    0
                } else {
                    (n as u64 - pg1.init_outputs()).div_ceil(pg1.outputs_per_iteration().max(1))
                };
                let input = varied_input(pg0.required_input(k).max(pg1.required_input(k)) as usize);
                let a = pg0
                    .run_collect(&input, n)
                    .unwrap_or_else(|e| panic!("{name}@{threads}: opt0 run failed: {e}"));
                let b = pg1
                    .run_collect(&input, n)
                    .unwrap_or_else(|e| panic!("{name}@{threads}: opt1 run failed: {e}"));
                let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(
                    ab, bb,
                    "{name}@{threads}: opt levels disagree on the parallel runtime"
                );
                compared += 1;
            }
        }
        assert_eq!(compared + declined, 3 * apps::corpus().len());
        assert!(
            compared >= 8,
            "only {compared} app×thread cases were compared"
        );
    }
}
