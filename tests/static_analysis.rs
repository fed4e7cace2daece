//! Static work-function analysis: golden diagnostics for the hard
//! findings (E0601–E0603), each lint, the benchmark-corpus cleanliness
//! guarantee, and a proptest soundness check of the interval analysis
//! against interpreter-observed counts.

use streamit::analysis::{analyze_stream, Severity};
use streamit::{Compiler, DiagCategory};

#[path = "support/irgen.rs"]
mod irgen;

fn compile(src: &str) -> streamit::CompiledProgram {
    Compiler::default()
        .compile_source(src, "Main")
        .expect("source compiles (analysis findings do not fail the compile)")
}

// ---- golden hard diagnostics: E0601–E0603 with code and span ----------

#[test]
fn golden_e0601_push_mismatch_on_branch() {
    let p = compile(
        "int->int filter Liar() {\n\
         \x20   work pop 1 push 1 {\n\
         \x20       int v = pop();\n\
         \x20       if (v > 0) { push(v); }\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add Liar(); }\n",
    );
    assert!(p.analysis.has_errors());
    let diags = p.analysis_diags();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "E0601");
    assert_eq!(diags[0].category, DiagCategory::Analysis);
    assert_eq!(diags[0].exit_code(), 7);
    let span = diags[0].span.expect("work-decl span");
    assert_eq!(span.line, 2, "{diags:?}");
    assert!(diags[0].message.contains("Main/Liar"), "{diags:?}");
    assert!(diags[0].message.contains("push"), "{diags:?}");
}

#[test]
fn golden_e0601_pop_mismatch_on_branch() {
    let p = compile(
        "int->int filter Gulp() {\n\
         \x20   work peek 2 pop 1 push 1 {\n\
         \x20       if (peek(0) > 0) { pop(); pop(); } else { pop(); }\n\
         \x20       push(0);\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add Gulp(); }\n",
    );
    let diags = p.analysis_diags();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "E0601");
    assert!(diags[0].message.contains("pop"), "{diags:?}");
    assert_eq!(diags[0].span.expect("span").line, 2);
}

#[test]
fn golden_e0602_peek_beyond_window() {
    // The index is data-dependent (opaque to the straight-line checker),
    // but `abs(.) % 8` bounds it to [0, 7]: even the *minimum* possible
    // requirement (2 items: one popped, one peeked past it) exceeds the
    // declared window of 1.
    let p = compile(
        "int->int filter Reach() {\n\
         \x20   work pop 1 push 1 {\n\
         \x20       push(peek(abs(pop()) % 8));\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add Reach(); }\n",
    );
    let diags = p.analysis_diags();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "E0602");
    assert_eq!(diags[0].exit_code(), 7);
    assert_eq!(diags[0].span.expect("span").line, 2);
}

#[test]
fn golden_e0603_unprovable_peek_index() {
    let p = compile(
        "int->int filter Wild() {\n\
         \x20   work peek 4 pop 1 push 1 {\n\
         \x20       int v = pop();\n\
         \x20       push(peek(v));\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add Wild(); }\n",
    );
    let diags = p.analysis_diags();
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, "E0603");
    assert_eq!(diags[0].span.expect("span").line, 2);
    // The data-dependent requirement additionally warns, never errors.
    assert!(p.analysis.warnings().any(|f| f.code == "L0605"));
}

// ---- golden lints: each L-code with its path ---------------------------

fn warning_codes(p: &streamit::CompiledProgram) -> Vec<&'static str> {
    assert!(
        !p.analysis.has_errors(),
        "lint-only program: {:#?}",
        p.analysis.findings
    );
    p.analysis.warnings().map(|f| f.code).collect()
}

#[test]
fn golden_l0601_unused_state() {
    let p = compile(
        "int->int filter F() {\n\
         \x20   int dead;\n\
         \x20   work pop 1 push 1 { push(pop()); }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0601"]);
    let f = p.analysis.warnings().next().expect("one warning");
    assert_eq!(f.path, "Main/F");
    assert_eq!(f.severity, Severity::Warning);
    assert!(f.message.contains("dead"), "{f}");
}

#[test]
fn golden_l0602_unreachable_code() {
    let p = compile(
        "int->int filter F() {\n\
         \x20   work pop 1 push 1 {\n\
         \x20       if (0 > 1) { push(7); } else { push(pop()); }\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0602"]);
}

#[test]
fn golden_float_reads_never_decide_a_branch() {
    // `x * 0` is 0 for every integer but NaN for a float infinity, and
    // NaN is truthy.  Read from a float tape, float state or a float
    // array, `x * 0` must not fold the condition: no false L0602, no
    // exact-rate verdict, no admission to the compiled engine.  With the
    // branch undecided its arms push 2 and 1 items, which is the
    // static-rate violation the program really has (E0601).
    let cases = [
        ("", "", "pop() * 0"),
        ("float s;", "s = pop();", "s * 0"),
        ("float[2] a;", "a[1] = pop();", "a[1] * 0"),
    ];
    for (state, store, cond) in cases {
        let p = compile(&format!(
            "float->float filter Src() {{ work pop 1 push 1 {{ push(1.0 / (pop() * 0.0)); }} }}\n\
             float->float filter F() {{\n\
             \x20   {state}\n\
             \x20   work pop 1 push 1 {{\n\
             \x20       {store}\n\
             \x20       if ({cond}) {{ push(1.0); push(2.0); }} else {{ push(3.0); }}\n\
             \x20   }}\n\
             }}\n\
             float->float pipeline Main() {{ add Src(); add F(); }}\n"
        ));
        let codes: Vec<_> = p.analysis.findings.iter().map(|f| f.code).collect();
        assert!(!codes.contains(&"L0602"), "`{cond}`: {codes:?}");
        assert!(codes.contains(&"E0601"), "`{cond}`: {codes:?}");
        assert!(
            matches!(
                p.compile_exec(),
                Err(streamit::exec::ExecError::Unsupported { .. })
            ),
            "`{cond}`: the compiled engine must decline"
        );
        // `Src` feeds +inf: the condition is NaN, the `then` arm runs,
        // and the reference's rate check reports the fault.
        let e = p.run(&[1.0, 2.0], 1).expect_err("`then` arm pushes 2");
        assert_eq!(streamit::Diag::from(e).code, "E0405", "`{cond}`");
    }
}

#[test]
fn golden_l0602_is_per_arm_not_per_visit() {
    // An arm is unreachable when no visit of its `if` takes it.  In the
    // first loop each arm is skipped on two trips and runs on the other
    // two: no finding.  In the second the `else` arm is skipped on all six
    // trips: one finding, not six.
    let p = compile(
        "int->int filter F() {\n\
         \x20   work pop 1 push 1 {\n\
         \x20       int x = pop();\n\
         \x20       for (int i = 0; i < 4; i++) { if (i < 2) { x = x + 1; } else { x = x * 2; } }\n\
         \x20       push(x);\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), Vec::<&str>::new());
    let p = compile(
        "int->int filter F() {\n\
         \x20   work pop 1 push 1 {\n\
         \x20       int x = pop();\n\
         \x20       for (int i = 0; i < 6; i++) { if (i < 9) { x = x + 1; } else { x = x * 2; } }\n\
         \x20       push(x);\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0602"]);
    let f = p.analysis.warnings().next().expect("one warning");
    assert!(f.message.contains("`else` arm"), "{f}");
}

#[test]
fn golden_wrapping_product_decides_no_branch() {
    // `i * 2^32` is 0 on the first trip (`i` is `2^32` and the machine
    // wraps) and `2^32` on the second, so each arm runs once.  An interval
    // that saturates instead says `[+inf, +inf]`, "always true": a false
    // `L0602` per trip and a false `L0607`, and the optimizer pruned the
    // `else` arm (`tests/fault_injection.rs` holds the engines to the
    // reference on this program).  The `let` keeps the loop rolled.
    let p = compile(
        "int->int filter F() {\n\
         \x20   int x;\n\
         \x20   work pop 1 push 1 {\n\
         \x20       x = pop();\n\
         \x20       for (int i = 4294967296; i < 4294967298; i++) {\n\
         \x20           int d = 0;\n\
         \x20           if (i * 4294967296) { d = 1; } else { d = 2; }\n\
         \x20           x = x + d;\n\
         \x20       }\n\
         \x20       push(x);\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    // `int d = 0` really is overwritten on both arms.
    assert_eq!(warning_codes(&p), vec!["L0606"]);
    assert_eq!(p.run(&[5.0], 1).expect("runs"), vec![5.0 + 2.0 + 1.0]);
}

#[test]
fn golden_e0601_wrapping_product_of_state() {
    // `K * K` is `2^64`, which is 0: the body pops and pushes nothing
    // against a declared `pop 1 push 1`.  Saturated to `+inf` the
    // condition read as true, the rates as proved, and the engines'
    // run-time rate check was left to catch it (`E0702` / `E0405`).
    let p = compile(
        "int->int filter F() {\n\
         \x20   int K;\n\
         \x20   init { K = 4294967296; }\n\
         \x20   work pop 1 push 1 { if (K * K) { push(pop() + 7); } }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    let errors: Vec<_> = p.analysis.errors().map(|f| f.code).collect();
    assert_eq!(errors, vec!["E0601", "E0601"], "{:#?}", p.analysis.findings);
    let warnings: Vec<_> = p.analysis.warnings().map(|f| f.code).collect();
    assert_eq!(warnings, vec!["L0602", "L0607"]);
    // The run-time check is still there for whoever runs it anyway.
    let e = p.run(&[1.0], 1).expect_err("pops nothing");
    assert_eq!(streamit::Diag::from(e).code, "E0405");
}

#[test]
fn golden_l0603_tape_in_branch_condition() {
    let p = compile(
        "int->int filter F() {\n\
         \x20   work peek 2 pop 2 push 1 {\n\
         \x20       if (pop() > 0) { push(pop()); } else { push(pop()); }\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0603"]);
}

#[test]
fn golden_l0604_over_declared_window() {
    let p = compile(
        "int->int filter F() {\n\
         \x20   work peek 16 pop 1 push 1 {\n\
         \x20       push(peek(1));\n\
         \x20       pop();\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0604"]);
}

#[test]
fn golden_l0605_data_dependent_rates() {
    let p = compile(
        "int->int filter F() {\n\
         \x20   work pop 1 push 4 {\n\
         \x20       int n = pop();\n\
         \x20       for (int i = 0; i < n; i++) push(i);\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0605"]);
}

#[test]
fn golden_l0606_dead_store() {
    // Seeded mutant: the initializer of `x` is overwritten before any
    // read, so the store of 5 is dead.
    let p = compile(
        "int->int filter F() {\n\
         \x20   work pop 1 push 1 {\n\
         \x20       int x = 5;\n\
         \x20       x = pop();\n\
         \x20       push(x);\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0606"]);
    let f = p.analysis.warnings().next().expect("one warning");
    assert_eq!(f.path, "Main/F");
    assert!(f.message.contains("`x`"), "{f}");
    assert!(f.message.contains("never read"), "{f}");
}

#[test]
fn golden_l0607_constant_condition() {
    // Seeded mutant: `t` is provably 3 at the branch, so the condition
    // is constant *after propagation* (a literal condition like `0 > 1`
    // stays L0602-only; L0607 reports what constant propagation adds —
    // the abstract-interpretation walk also proves this arm dead, so
    // both codes fire).
    let p = compile(
        "int->int filter F() {\n\
         \x20   work pop 1 push 1 {\n\
         \x20       int t = 3;\n\
         \x20       if (t > 1) { push(pop()); } else { push(0 - pop()); }\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0602", "L0607"]);
    let f = p
        .analysis
        .warnings()
        .find(|f| f.code == "L0607")
        .expect("L0607 fires");
    assert_eq!(f.path, "Main/F");
    assert!(f.message.contains("always true"), "{f}");
    assert!(f.message.contains("else branch is dead"), "{f}");
}

#[test]
fn golden_l0608_loop_invariant_peek() {
    // Seeded mutant: `peek(2)` inside the loop reads the same item every
    // iteration (index ignores `i`, nothing in the body pops).
    let p = compile(
        "int->int filter F() {\n\
         \x20   work peek 3 pop 1 push 4 {\n\
         \x20       for (int i = 0; i < 4; i++) {\n\
         \x20           push(peek(2) + i);\n\
         \x20       }\n\
         \x20       pop();\n\
         \x20   }\n\
         }\n\
         int->int pipeline Main() { add F(); }\n",
    );
    assert_eq!(warning_codes(&p), vec!["L0608"]);
    let f = p.analysis.warnings().next().expect("one warning");
    assert_eq!(f.path, "Main/F");
    assert!(f.message.contains("`for i`"), "{f}");
    assert!(f.message.contains("invariant"), "{f}");
}

// ---- benchmark corpus: every app graph must lint clean ----------------

#[test]
fn evaluation_suite_is_lint_clean() {
    for b in streamit::apps::evaluation_suite() {
        let report = analyze_stream(&b.stream);
        assert!(report.is_clean(), "{}: {:#?}", b.name, report.findings);
    }
}

#[test]
fn beamformer_and_freqhop_are_lint_clean() {
    for (name, stream) in [
        (
            "BeamFormer",
            streamit::apps::beamformer::beamformer_with_io(4, 2, 8),
        ),
        (
            "FreqHopTeleport",
            streamit::apps::freqhop::freqhop_teleport_with_io(8, 4),
        ),
        (
            "FreqHopManual",
            streamit::apps::freqhop::freqhop_manual_with_io(8),
        ),
    ] {
        let report = analyze_stream(&stream);
        assert!(report.is_clean(), "{name}: {:#?}", report.findings);
    }
}

#[test]
fn dsl_sources_are_lint_clean() {
    use streamit::apps::dsl;
    for (name, src) in [
        ("fmradio.str", dsl::FMRADIO_STR),
        ("fibonacci.str", dsl::FIBONACCI_STR),
        ("filterbank.str", dsl::FILTERBANK_STR),
        ("combine.str", dsl::COMBINE_STR),
    ] {
        let p = streamit::Compiler::default()
            .compile_source(src, "Main")
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(p.analysis.is_clean(), "{name}: {:#?}", p.analysis.findings);
    }
    // FreqHop's Main takes a parameter; elaborate with an argument.
    let program = streamit::frontend::parse_program(dsl::FREQHOP_STR).unwrap();
    let out = streamit::frontend::elaborate_with_args(
        &program,
        "Main",
        &[streamit::graph::Value::Int(8)],
    )
    .unwrap();
    let report = analyze_stream(&out.stream);
    assert!(report.is_clean(), "freqhop.str: {:#?}", report.findings);
}

/// The on-disk `.str` copies under `examples/str/` (which CI lints via
/// the real `streamitc --lint` binary) must stay byte-identical to the
/// canonical DSL constants in `crates/apps/src/dsl.rs`.
#[test]
fn example_str_files_match_dsl_constants() {
    use streamit::apps::dsl;
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/str");
    for (file, konst) in [
        ("fmradio.str", dsl::FMRADIO_STR),
        ("fibonacci.str", dsl::FIBONACCI_STR),
        ("filterbank.str", dsl::FILTERBANK_STR),
        ("combine.str", dsl::COMBINE_STR),
    ] {
        let on_disk = std::fs::read_to_string(format!("{root}/{file}"))
            .unwrap_or_else(|e| panic!("examples/str/{file}: {e}"));
        // The raw-string constants open with `r#"` followed by a newline
        // that is not part of the file.
        let canonical = konst.strip_prefix('\n').unwrap_or(konst);
        assert_eq!(
            on_disk, canonical,
            "examples/str/{file} drifted from dsl.rs"
        );
    }
}

// ---- proptest soundness: observed counts fall inside the intervals ----
//
// A generator over the work-function IR produces random bodies (branches,
// constant and data-dependent loops, peeks, local variables); the
// interval analysis and the reference interpreter then run the same
// block, and the interpreter's observed pop count, push count and
// maximum tape requirement must lie inside the statically computed
// intervals.  This is the abstract-interpretation soundness property:
// every concretisation of the abstract state contains the concrete run.

mod soundness {
    use std::collections::HashMap;
    use streamit::analysis::analyze_block;
    use streamit::graph::Value;
    use streamit::interp::{eval_block_bounded, EvalCtx, RuntimeError};

    use super::irgen::{gen_block, Gen, Scope};

    /// Concrete tape context that records pops, pushes and the maximum
    /// input requirement (matching the analysis' `need` semantics).
    struct CountCtx {
        input: Vec<Value>,
        pops: u64,
        pushes: u64,
        need: u64,
    }

    impl EvalCtx for CountCtx {
        fn node_name(&self) -> &str {
            "prop"
        }
        fn peek(&mut self, i: u64) -> Result<Value, RuntimeError> {
            let at = (self.pops + i) as usize;
            self.need = self.need.max(at as u64 + 1);
            self.input
                .get(at)
                .copied()
                .ok_or(RuntimeError::TapeUnderflow {
                    node: "prop".into(),
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
        fn push(&mut self, _: Value) -> Result<(), RuntimeError> {
            self.pushes += 1;
            Ok(())
        }
        fn send(
            &mut self,
            _: &str,
            _: &str,
            _: Vec<Value>,
            _: (i64, i64),
        ) -> Result<(), RuntimeError> {
            Ok(())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Soundness: for every generated body, the interpreter-observed
        /// pop count, push count and maximum tape requirement lie inside
        /// the statically computed intervals.
        #[test]
        fn prop_observed_counts_inside_intervals(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed | 1);
            let mut sc = Scope::default();
            let block = gen_block(&mut g, &mut sc, 2);

            let analysis = analyze_block(&block, &HashMap::new());

            // Varied input (positives, negatives, zeros) so branches and
            // data-dependent loop bounds take different paths per seed.
            let input: Vec<Value> = (0..65_536)
                .map(|i| Value::Int((i as i64 * 7 + seed as i64 % 11) % 9 - 4))
                .collect();
            let mut ctx = CountCtx {
                input,
                pops: 0,
                pushes: 0,
                need: 0,
            };
            let mut state = HashMap::new();
            let run = eval_block_bounded(&block, &mut state, HashMap::new(), &mut ctx, 1_000_000);
            proptest::prop_assert!(
                run.is_ok(),
                "generated block must execute: {run:?}\n{block:#?}"
            );

            proptest::prop_assert!(
                analysis.pops.contains(ctx.pops as i64),
                "pops {} outside {}\n{block:#?}",
                ctx.pops,
                analysis.pops
            );
            proptest::prop_assert!(
                analysis.pushes.contains(ctx.pushes as i64),
                "pushes {} outside {}\n{block:#?}",
                ctx.pushes,
                analysis.pushes
            );
            proptest::prop_assert!(
                analysis.need.contains(ctx.need as i64),
                "need {} outside {}\n{block:#?}",
                ctx.need,
                analysis.need
            );
        }
    }
}

// ---- counted-loop summary: equal to the walk, or not taken -------------
//
// `absint` finishes a constant-bound loop in closed form when one pass
// over the loop variable's whole range shows every trip does the same
// thing.  The trip-by-trip walk it replaces stays callable
// (`walk_body(.., false)`) and is the oracle here: the two must agree on
// every field of the result and on the fuel left over, for generated
// bodies, for the loop shapes that must not be summarized, and for the
// block filters frequency translation writes.

mod summary {
    use streamit::analysis::absint::{walk_body, Walked};
    use streamit::analysis::{analyze_rates, Interval};
    use streamit::graph::builder::*;
    use streamit::graph::{DataType, Expr, Filter, Stmt};
    use streamit::linear::{freq, LinearRep};

    use super::irgen::{gen_block, Gen, Scope};

    fn filter(ty: DataType, work: Vec<Stmt>) -> Filter {
        let mut f = FilterBuilder::new("p", ty).build();
        f.work = work;
        f
    }

    /// Summary and walk over `f`'s work agree on everything the analysis
    /// reports and on the fuel left; returns the summarized run.
    fn agree(f: &Filter) -> Walked {
        let fast = walk_body(f, &f.work, true);
        let slow = walk_body(f, &f.work, false);
        assert_eq!(slow.skipped, 0, "the oracle walks every trip");
        assert_eq!(fast.analysis, slow.analysis, "{:#?}", f.work);
        assert_eq!(fast.fuel, slow.fuel, "{:#?}", f.work);
        fast
    }

    fn agree_on(work: impl FnOnce(BlockBuilder) -> BlockBuilder) -> Walked {
        agree(&filter(DataType::Int, work(BlockBuilder::new()).build()))
    }

    /// `levels` constant-bound loops around a generated body, with
    /// generated statements before, between and after them.  The loop
    /// variables are in scope as peek indices.
    fn nest(g: &mut Gen, sc: &mut Scope, levels: usize) -> Vec<Stmt> {
        if levels == 0 {
            return gen_block(g, sc, 2);
        }
        let mut out = Vec::new();
        if g.below(2) == 0 {
            out.extend(gen_block(g, sc, 1));
        }
        let var = format!("w{levels}");
        let from = g.below(3) as i64;
        let trips = [0, 1, 2, 3, 4, 5, 9, 17][g.below(8) as usize];
        let mut inner = sc.clone();
        inner.loop_vars.push(var.clone());
        let body = nest(g, &mut inner, levels - 1);
        sc.fresh = inner.fresh;
        out.push(Stmt::For {
            var,
            from: Expr::IntLit(from),
            to: Expr::IntLit(from + trips),
            body,
        });
        if g.below(2) == 0 {
            out.extend(gen_block(g, sc, 1));
        }
        out
    }

    /// The case a seed stands for: a generated body inside one to three
    /// counted loops, on an int tape or (one time in four) a float one.
    fn generated(seed: u64) -> Filter {
        let mut g = Gen(seed | 1);
        let levels = 1 + g.below(3) as usize;
        let ty = if g.below(4) == 0 {
            DataType::Float
        } else {
            DataType::Int
        };
        filter(ty, nest(&mut g, &mut Scope::default(), levels))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The summary equals the walk field for field, fuel included.
        #[test]
        fn prop_summary_equals_walk(seed in 0u64..u64::MAX) {
            agree(&generated(seed));
        }
    }

    /// The property above is about something: a fair share of the
    /// generated nests do get summarized, and a fair share do not.
    #[test]
    fn generated_nests_fall_on_both_sides() {
        let taken = (0..512u64)
            .filter(|seed| agree(&generated(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))).skipped > 0)
            .count();
        assert!((64..=448).contains(&taken), "{taken} of 512 summarized");
    }

    #[test]
    fn uniform_loops_are_summarized() {
        // The block filter's shape: Δ = one push, then pops.
        let r = agree_on(|b| {
            b.for_("t", 0, 100, |b| {
                b.let_("acc", DataType::Float, lit(0.0))
                    .for_("i", 0, 50, |b| {
                        b.set("acc", var("acc") + peek(var("t") + var("i")))
                    })
                    .push(var("acc"))
            })
            .for_("t", 0, 100, |b| b.pop_discard())
        });
        // 98 outer trips, 48 inner ones in each executed outer trip, 98 pops.
        assert_eq!(r.skipped, 98 + 2 * 48 + 98);
        assert_eq!(r.analysis.need, Interval::constant(149));
        assert_eq!(r.analysis.pushes, Interval::constant(100));
        assert!(r.analysis.exact);
        // An int local that is the same ⊤ on every trip.
        let r = agree_on(|b| {
            b.for_("t", 0, 10, |b| {
                b.let_("v", DataType::Int, pop() + peek(var("t")))
                    .push(var("v"))
            })
        });
        assert_eq!(r.skipped, 8);
        // A loop-carried integer that has reached its fixed point.
        let r = agree_on(|b| {
            b.let_("k", DataType::Int, lit(4i64)).for_("t", 0, 10, |b| {
                b.set("k", minf(var("k") + lit(1i64), lit(5i64)))
                    .push(peek(var("k")))
            })
        });
        assert_eq!(r.skipped, 8);
    }

    #[test]
    fn trip_counts_zero_to_three() {
        for trips in 0..=3i64 {
            let r =
                agree_on(|b| b.for_("t", 5, 5 + trips, |b| b.push(peek(var("t"))).pop_discard()));
            assert_eq!(r.skipped, u64::from(trips == 3), "{trips} trips");
            assert_eq!(r.analysis.pops, Interval::constant(trips));
        }
    }

    #[test]
    fn branch_on_the_loop_variable_is_walked() {
        let r = agree_on(|b| {
            b.for_("t", 0, 8, |b| {
                b.if_else(
                    cmp(streamit::graph::BinOp::Lt, var("t"), 3),
                    |t| t.push(pop()),
                    |e| e.push(peek(1)).pop_discard().pop_discard(),
                )
            })
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.pops, Interval::constant(3 + 2 * 5));
        // Each arm is skipped on some trips and runs on others: not dead.
        assert!(
            r.analysis.dead_code.is_empty(),
            "{:?}",
            r.analysis.dead_code
        );
        // Decided the same way over the whole range, with code in the
        // arm no trip takes: reported once, and still walked.
        let r = agree_on(|b| {
            b.for_("t", 0, 8, |b| {
                b.if_else(
                    cmp(streamit::graph::BinOp::Lt, var("t"), 100),
                    |t| t.push(pop()),
                    |e| e.pop_discard(),
                )
            })
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(
            r.analysis.dead_code,
            ["`else` arm of an `if` whose condition is statically true"]
        );
        // With nothing in the dead arm there is nothing to report.
        let r = agree_on(|b| {
            b.for_("t", 0, 8, |b| {
                b.if_(cmp(streamit::graph::BinOp::Lt, var("t"), 100), |t| {
                    t.push(pop())
                })
            })
        });
        assert_eq!(r.skipped, 6);
    }

    #[test]
    fn nested_bound_on_the_loop_variable_is_walked() {
        // for t in 0..9 { for j in 0..t { push(pop()) } }
        let r = agree_on(|b| b.for_("t", 0, 9, |b| b.for_("j", 0, var("t"), |b| b.push(pop()))));
        // Only the inner loops of four or more trips are summarized.
        assert_eq!(r.skipped, (3..9).map(|t| t - 2).sum::<u64>());
        assert_eq!(r.analysis.pops, Interval::constant(36));
        assert!(r.analysis.exact);
    }

    #[test]
    fn loop_carried_integer_is_walked() {
        // k = k + 1 used as a peek index: need follows k, not Δ.
        let r = agree_on(|b| {
            b.let_("k", DataType::Int, lit(0i64)).for_("t", 0, 9, |b| {
                b.push(peek(var("k") * var("k")))
                    .set("k", var("k") + lit(1i64))
            })
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.need, Interval::constant(65));
        // An integer that depends on the loop variable and is not a
        // constant over its range.
        let r = agree_on(|b| {
            b.for_("t", 0, 9, |b| {
                b.let_("j", DataType::Int, var("t") * lit(2i64))
                    .push(peek(var("j")))
            })
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.need, Interval::constant(17));
        // A counter nothing in the loop reads, read after it.
        let r = agree_on(|b| {
            b.let_("k", DataType::Int, lit(0i64))
                .for_("t", 0, 9, |b| b.set("k", var("k") + lit(1i64)))
                .push(peek(var("k")))
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.need, Interval::constant(10));
        // `(t < 1) * pop()` is ⊤ on the first trip and over the whole
        // range, but 0 on every later trip: `y` enters the last trip as
        // 0, not as the ⊤ the first trip left.
        let r = agree_on(|b| {
            b.let_("x", DataType::Int, pop())
                .let_("y", DataType::Int, lit(0i64))
                .for_("t", 0, 9, |b| {
                    b.set("y", var("x"))
                        .set("x", cmp(streamit::graph::BinOp::Lt, var("t"), 1) * pop())
                })
                .push(peek(maxf(var("y"), lit(0i64))))
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.need, Interval::constant(11));
    }

    #[test]
    fn first_trip_unlike_the_rest_is_walked() {
        // The first trip pops once, every later one twice: Δ is not the
        // first trip's.  The same for pushes.
        let r = agree_on(|b| {
            b.let_("k", DataType::Int, lit(1i64)).for_("t", 0, 9, |b| {
                b.for_("j", 0, var("k"), |b| b.pop_discard())
                    .set("k", lit(2i64))
            })
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.pops, Interval::constant(17));
        let r = agree_on(|b| {
            b.let_("k", DataType::Int, lit(1i64)).for_("t", 0, 9, |b| {
                b.for_("j", 0, var("k"), |b| b.push(lit(0i64)))
                    .set("k", lit(2i64))
            })
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.pushes, Interval::constant(17));
    }

    #[test]
    fn need_attained_on_neither_end_is_walked() {
        // peek(hi - 1 - t): the deepest read is the first trip's, and the
        // last trip's pops have not caught up with it — attained.
        let r = agree_on(|b| b.for_("t", 0, 9, |b| b.push(peek(lit(8i64) - var("t")))));
        assert_eq!(r.skipped, 7);
        assert_eq!(r.analysis.need, Interval::constant(9));
        // peek(t * (8 - t)) reaches deepest in the middle of the range.
        let r = agree_on(|b| {
            b.for_("t", 0, 9, |b| {
                b.push(peek(var("t") * (lit(8i64) - var("t"))))
            })
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.need, Interval::constant(17));
        // An index that is an interval: its upper end is the same on
        // every trip (attained), its lower end peaks mid-range.
        let r = agree_on(|b| {
            b.let_("x", DataType::Int, abs(pop()) % lit(101i64))
                .for_("t", 0, 9, |b| {
                    b.push(peek(maxf(var("t") * (lit(8i64) - var("t")), var("x"))))
                })
        });
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.need, Interval::range(18, 102));
    }

    #[test]
    fn index_negative_on_some_trips_is_walked() {
        let r = agree_on(|b| b.for_("t", 0, 9, |b| b.push(peek(var("t") - lit(4i64)))));
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.neg_peek, Some(Interval::range(-4, -1)));
        // Negative on the first trip only: the walk's hull is that trip's.
        let r = agree_on(|b| b.for_("t", -1, 9, |b| b.push(peek(var("t")))));
        assert_eq!(r.skipped, 0);
        assert_eq!(r.analysis.neg_peek, Some(Interval::constant(-1)));
    }

    #[test]
    fn bounds_near_the_unroll_limit_and_the_ends_of_i64() {
        for trips in [65_535i64, 65_536, 65_537] {
            let r = agree_on(|b| b.for_("t", 0, trips, |b| b.push(pop())));
            let unrolled = trips <= 65_536;
            assert_eq!(r.analysis.exact, unrolled, "{trips} trips");
            assert_eq!(r.skipped, if unrolled { trips as u64 - 2 } else { 0 });
        }
        let r = agree_on(|b| b.for_("t", i64::MAX - 5, i64::MAX, |b| b.push(pop())));
        assert_eq!(r.analysis.pops, Interval::constant(5));
        let r = agree_on(|b| b.for_("t", i64::MIN, i64::MIN + 5, |b| b.push(peek(var("t")))));
        assert_eq!(r.analysis.pushes, Interval::constant(5));
        let r = agree_on(|b| b.for_("t", i64::MIN, i64::MAX, |b| b.push(pop())));
        assert!(!r.analysis.exact);
    }

    #[test]
    fn fuel_runs_out_at_the_same_trip() {
        // 1500 * (3 + 2 * 700) steps is past the 2 M budget: some outer
        // trip finds too little left for its inner loop and widens.  The
        // summary must not skip past that trip, and must leave the same
        // fuel behind.
        let r = agree_on(|b| {
            b.for_("t", 0, 1500, |b| {
                b.for_("i", 0, 700, |b| b.push(peek(var("i"))))
                    .pop_discard()
            })
        });
        assert!(!r.analysis.exact);
        assert_eq!(r.analysis.pushes.hi, Interval::POS_INF);
        // One trip fewer fits: exact, and finished in closed form.
        let r = agree_on(|b| {
            b.for_("t", 0, 1400, |b| {
                b.for_("i", 0, 700, |b| b.push(peek(var("i"))))
                    .pop_discard()
            })
        });
        assert!(r.analysis.exact);
        assert_eq!(r.analysis.pushes, Interval::constant(1400 * 700));
        assert_eq!(r.skipped, 1398 + 2 * 698);
    }

    /// Every `(taps, block)` the `compile-corpus` benchmark translates
    /// (seed 1; the generated programs have fixed sizes), the corpus'
    /// own `plan_block` choices, and block sizes past the fuel budget.
    #[test]
    fn frequency_block_filters_keep_their_verdict() {
        let corpus = [
            (64, 64),
            (77, 128),
            (153, 256),
            (229, 256),
            (305, 512),
            (381, 512),
            (457, 512),
            (533, 1024),
            (609, 1024),
        ];
        for (n, block) in corpus {
            assert_eq!(freq::plan_block(n).map(|p| p.0), Some(block), "{n} taps");
            let taps: Vec<f64> = (0..n).map(|i| 1.0 / (i + 1) as f64).collect();
            let f = LinearRep::fir(&taps).materialize_freq("F", block);
            let r = agree(&f);
            assert_eq!(r.skipped as usize, 2 * (block - 2) + 2 * (n - 2));
            assert!(r.analysis.exact);
            assert_eq!(analyze_rates(&f, "F"), vec![], "{n} taps, block {block}");
        }
        // Past the budget the inner loop stops unrolling part-way through
        // the outer one: widened (L0605, so the engines decline), at the
        // same trip and with the same message as the walk.
        for (n, block) in [(609, 4096), (1024, 2048), (1024, 1024)] {
            let taps = vec![0.5; n];
            let f = LinearRep::fir(&taps).materialize_freq("F", block);
            let r = agree(&f);
            assert!(!r.analysis.exact, "{n} taps, block {block}");
            let findings = analyze_rates(&f, "F");
            assert!(
                !findings.is_empty() && findings.iter().all(|x| x.code == "L0605"),
                "{n} taps, block {block}: {findings:?}"
            );
        }
    }
}
