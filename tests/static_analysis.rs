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
