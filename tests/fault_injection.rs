//! Fault-injection harness: the compiler pipeline must never panic on
//! adversarial input, and every failure must surface as a typed
//! [`streamit::Diag`] with the documented code and exit status.
//!
//! Three layers of defence are exercised here:
//!
//! 1. **Totality** — a corpus of hostile sources (deep nesting, truncated
//!    programs, binary garbage, overflow-inducing literals) plus a
//!    property test over arbitrary strings, each run under
//!    `catch_unwind`, asserting zero panics.
//! 2. **Golden diagnostics** — malformed programs must produce the
//!    *specific* stable error code and a source span.
//! 3. **Resource bounds** — divergent or starved executions terminate
//!    with `Budget`/`Runtime` diagnostics instead of hanging.

use std::panic::{catch_unwind, AssertUnwindSafe};

use streamit::{
    CompiledProgram, Compiler, Diag, DiagCategory, Engine, OnEngineFault, Options, SupervisorConfig,
};

/// A small well-formed program used as the base for mutations.
const GOOD: &str = r#"
    float->float filter Gain(float g) {
        work pop 1 push 1 { push(pop() * g); }
    }
    float->float pipeline Main() {
        add Gain(2.0);
        add Gain(0.5);
    }
"#;

/// The reference interpreter under an explicit firing budget, so a
/// divergent program cannot hang the harness.
fn run_budgeted(
    p: &CompiledProgram,
    input: &[f64],
    n: usize,
    budget: u64,
) -> Result<Vec<f64>, Diag> {
    let cfg = SupervisorConfig {
        budget,
        ..SupervisorConfig::default()
    };
    p.run_supervised(Engine::Reference, input, n, &cfg)
        .map(|outcome| outcome.output)
}

/// One unsupervised run on a fast engine (no ladder: a decline or a
/// runtime fault is the result under test).
fn run_on(p: &CompiledProgram, engine: Engine, input: &[f64], n: usize) -> Result<Vec<f64>, Diag> {
    match engine {
        Engine::Reference => p.run(input, n).map_err(Diag::from),
        Engine::Compiled => Ok(p.compile_exec()?.run_collect(input, n)?),
        Engine::Parallel { threads } => Ok(p.compile_parallel(threads)?.run_collect(input, n)?),
    }
}

/// Compile `src` and return the diagnostic, if any.
fn compile_diag(src: &str) -> Option<Diag> {
    Compiler::default()
        .compile_source(src, "Main")
        .err()
        .map(Diag::from)
}

fn compile_strict_diag(src: &str) -> Option<Diag> {
    Compiler::new(Options {
        strict_verify: true,
        ..Options::default()
    })
    .compile_source(src, "Main")
    .err()
    .map(Diag::from)
}

// ---------------------------------------------------------------------
// 1. Totality: no adversarial input may panic the pipeline.
// ---------------------------------------------------------------------

/// Hostile corpus: every entry historically plausible as a panic vector.
fn adversarial_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = vec![
        // Empty / whitespace / garbage.
        String::new(),
        "   \t\n\r  ".into(),
        "\0\0\0\0".into(),
        "\u{7f}\u{1b}[31m".into(),
        "int".into(),
        "->".into(),
        "int->int".into(),
        // Truncated at every structural boundary.
        "int->int filter F".into(),
        "int->int filter F {".into(),
        "int->int filter F { work".into(),
        "int->int filter F { work pop 1 push 1 {".into(),
        "int->int filter F { work pop 1 push 1 { push(pop()".into(),
        "void->void pipeline Main() { add".into(),
        // Unbalanced delimiters.
        "}}}}}}}}".into(),
        "((((((((".into(),
        "int->int filter F { work pop 1 push 1 { push(pop()); } } }".into(),
        // Numeric edge cases: i64::MIN, overflow literals, huge floats.
        format!(
            "int->int filter F {{ work pop 1 push 1 {{ push(pop() + {}); }} }}
             int->int pipeline Main() {{ add F(); }}",
            i64::MIN
        ),
        "int->int filter F { work pop 1 push 1 { push(99999999999999999999999999); } }".into(),
        "int->int filter F { work pop 1 push 1 { int x = -9223372036854775807 - 1; \
         push(x * x); } } int->int pipeline Main() { add F(); }"
            .into(),
        "int->int filter F { work pop 1 push 1 { int x = -9223372036854775807 - 1; \
         push(x / -1); } } int->int pipeline Main() { add F(); }"
            .into(),
        "int->int filter F { work pop 1 push 1 { int x = -9223372036854775807 - 1; \
         push(x % -1); } } int->int pipeline Main() { add F(); }"
            .into(),
        "float->float filter F { work pop 1 push 1 { push(1e308 * 1e308); } } \
         float->float pipeline Main() { add F(); }"
            .into(),
        // i64::MIN reaching `abs`, unary `-`, `/ -1` and `% -1` from the
        // tape (the input starts at 0), where hand-copied arithmetic
        // tables once disagreed between the engines.
        "int->int filter F() { work pop 1 push 1 { \
         int x = pop() * 0 - 9223372036854775807 - 1; push(abs(x)); } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        "int->int filter F() { work pop 1 push 1 { \
         int x = pop() * 0 - 9223372036854775807 - 1; push(-x); } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        "int->int filter F() { work pop 1 push 1 { \
         int x = pop() * 0 - 9223372036854775807 - 1; push(x / -1); } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        "int->int filter F() { work pop 1 push 1 { \
         int x = pop() * 0 - 9223372036854775807 - 1; push(x % -1); } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        // Overflow inside the static estimators: a wrapping constant as
        // a peek index (rate inference), an absurd trip count (work
        // estimation; on a branch the non-negative input never takes).
        "int->int filter F() { work pop 1 push 1 { int a = 4611686018427387904; \
         int b = a * 4; push(peek(b)); pop(); } } int->int pipeline Main() { add F(); }"
            .into(),
        "int->int filter F() { work pop 1 push 1 { int v = pop(); int s = 0; \
         if (v < 0) { for (int i = 0; i < 9223372036854775807; i++) { s = s + 1; } } \
         push(v + s); } } int->int pipeline Main() { add F(); }"
            .into(),
        // A product that wraps to 0 deciding a branch.  `i * 2^32` from
        // `i = 2^32`, in a loop the `let` keeps rolled: a value-range
        // analysis that saturated where the machine wraps once called the
        // `else` arm dead, and the fast engines answered 2 where the
        // reference says 3.  Then the same product from state, guarding the only pop
        // (`E0601`; it used to be a proved rate and a run-time fault).
        "int->int filter F() { int x; work pop 1 push 1 { x = pop(); \
         for (int i = 4294967296; i < 4294967298; i++) { int d = 0; \
         if (i * 4294967296) { d = 1; } else { d = 2; } x = x + d; } push(x); } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        "int->int filter F() { int K; init { K = 4294967296; } \
         work pop 1 push 1 { if (K * K) { push(pop() + 7); } } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        // Loop bounds at both ends of `i64`, on a branch the input never
        // takes: the trip count `hi - lo` is not an `i64`, and the lints'
        // constant folder meets the loop whether or not an engine admits
        // the filter.
        "int->int filter F() { work pop 1 push 1 { int v = pop(); int s = 0; \
         if (v < 0) { for (int i = -9223372036854775807; i < 9223372036854775807; i++) \
         { s = s + 1; } } push(v + s); } } int->int pipeline Main() { add F(); }"
            .into(),
        // Division / modulo by zero in constant position.
        "int->int filter F { work pop 1 push 1 { push(1 / 0); } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        "int->int filter F { work pop 1 push 1 { push(1 % 0); } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        // Zero / negative / absurd rates and array sizes.
        "int->int filter F { work pop 0 push 0 { } } int->int pipeline Main() { add F(); }".into(),
        "int->int filter F(int N) { int[N] h; work pop 1 push 1 { push(pop()); } } \
         int->int pipeline Main() { add F(0); }"
            .into(),
        "int->int filter F { int[4294967295] h; work pop 1 push 1 { push(pop()); } } \
         int->int pipeline Main() { add F(); }"
            .into(),
        // Unknown names, self-reference, wrong arity.
        "void->void pipeline Main() { add Nowhere(); }".into(),
        "void->void pipeline Main() { add Main(); }".into(),
        "float->float pipeline Main() { add Gain(); } \
         float->float filter Gain(float g) { work pop 1 push 1 { push(pop() * g); } }"
            .into(),
        // Splitjoin with zero branches / null split.
        "int->int splitjoin Main() { split duplicate; join roundrobin; }".into(),
        // Runaway graph construction (bounded by the elaboration budget).
        "void->void pipeline Main() { for (int i = 0; i < 1000000000; i++) add Id(); } \
         int->int filter Id() { work pop 1 push 1 { push(pop()); } }"
            .into(),
    ];
    // Deep nesting at every recursive grammar production.
    corpus.push(format!(
        "int->int filter F {{ work pop 1 push 1 {{ push({}1{}); }} }}",
        "(".repeat(4000),
        ")".repeat(4000)
    ));
    corpus.push(format!(
        "int->int filter F {{ work pop 1 push 1 {{ push({}1); }} }}",
        "-".repeat(4000)
    ));
    corpus.push(format!(
        "int->int filter F {{ work pop 1 push 1 {{ {} push(pop()); {} }} }}",
        "if (1) {".repeat(2000),
        "}".repeat(2000)
    ));
    corpus.push(format!(
        "void->void pipeline Main() {{ {} add X(); {} }}",
        "if (1) {".repeat(2000),
        "}".repeat(2000)
    ));
    // Byte-level mutations of a good program: truncations and splices.
    for cut in (1..GOOD.len()).step_by(17) {
        if GOOD.is_char_boundary(cut) {
            corpus.push(GOOD[..cut].to_string());
        }
    }
    for (i, junk) in ["}", "(", "\0", "->", "push", "9999999999999999999"]
        .iter()
        .enumerate()
    {
        let cut = 20 + i * 31;
        if GOOD.is_char_boundary(cut) {
            corpus.push(format!("{}{}{}", &GOOD[..cut], junk, &GOOD[cut..]));
        }
    }
    corpus
}

#[test]
fn adversarial_corpus_never_panics() {
    for (i, src) in adversarial_corpus().into_iter().enumerate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            // Full pipeline: parse, elaborate, validate, verify — and the
            // static work estimate of whatever compiles.
            match Compiler::default().compile_source(&src, "Main") {
                Ok(p) => drop(p.work_graph()),
                Err(e) => drop(Diag::from(e)),
            }
            let _ = compile_strict_diag(&src);
        }));
        assert!(
            result.is_ok(),
            "pipeline panicked on adversarial input #{i}:\n{src}"
        );
    }
}

#[test]
fn adversarial_corpus_runs_never_panic() {
    // Programs that *do* compile must also run without panicking, under
    // a small firing budget so divergence cannot hang the harness.
    for (i, src) in adversarial_corpus().into_iter().enumerate() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(p) = Compiler::default().compile_source(&src, "Main") {
                let input: Vec<f64> = (0..256).map(|x| x as f64).collect();
                let _ = run_budgeted(&p, &input, 8, 10_000);
            }
        }));
        assert!(
            result.is_ok(),
            "execution panicked on adversarial input #{i}:\n{src}"
        );
    }
}

/// Is `code` an engine decline or input-shape error that the reference
/// interpreter does not share?  The compiled engines pull whole steady
/// iterations, so they may starve (`E0703`) or decline constructs
/// (`E0701`/`E0704`) that the demand-driven interpreter handles.
fn is_engine_shape_code(code: &str) -> bool {
    matches!(code, "E0701" | "E0703" | "E0704")
}

#[test]
fn adversarial_corpus_engines_never_panic_and_agree() {
    // Every corpus entry that compiles must also be total under the
    // serial compiled and parallel engines, and whenever an engine
    // succeeds alongside the reference interpreter the outputs must be
    // bit-identical.  Failures must be *typed* and code-equivalent:
    // engine errors are always E07xx, and an engine may only succeed
    // where the reference failed if the reference hit a budget bound.
    let engines = [Engine::Compiled, Engine::Parallel { threads: 2 }];
    for (i, src) in adversarial_corpus().into_iter().enumerate() {
        let Ok(p) = Compiler::default().compile_source(&src, "Main") else {
            continue;
        };
        let input: Vec<f64> = (0..256).map(|x| x as f64).collect();
        let reference = run_budgeted(&p, &input, 8, 10_000);
        for engine in engines {
            let got = catch_unwind(AssertUnwindSafe(|| run_on(&p, engine, &input, 8)));
            let Ok(got) = got else {
                panic!("{engine} engine panicked on adversarial input #{i}:\n{src}");
            };
            match (&reference, &got) {
                (Ok(want), Ok(out)) => assert_eq!(
                    want, out,
                    "{engine} engine diverged on adversarial input #{i}:\n{src}"
                ),
                (Ok(_), Err(d)) => assert!(
                    is_engine_shape_code(d.code),
                    "{engine} engine failed ({d}) where the reference \
                     succeeded on input #{i}:\n{src}"
                ),
                (Err(d), Ok(_)) => assert!(
                    matches!(d.code, "E0408" | "E0501" | "E0502"),
                    "{engine} engine succeeded where the reference hit a \
                     non-budget fault ({d}) on input #{i}:\n{src}"
                ),
                (Err(_), Err(d)) => assert!(
                    d.code.starts_with("E07"),
                    "{engine} engine error is not typed E07xx ({d}) on \
                     input #{i}:\n{src}"
                ),
            }
        }
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(256))]

    /// `parse_program` is total: arbitrary strings produce Ok or a
    /// positioned error, never a panic.
    #[test]
    fn prop_parse_never_panics(s in ".{0,300}") {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = streamit::frontend::parse_program(&s);
        }));
        proptest::prop_assert!(result.is_ok(), "parser panicked on: {s:?}");
    }

    /// Keyword soup stresses the grammar productions more than uniform
    /// noise; the whole frontend (parse + elaborate + validate) must
    /// stay total on it.
    #[test]
    fn prop_frontend_total_on_keyword_soup(s in "[a-z>\\-(){};0-9 ]{0,200}") {
        let soup = format!("int->int filter F {{ work pop 1 push 1 {{ {s} }} }}");
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = compile_diag(&soup);
        }));
        proptest::prop_assert!(result.is_ok(), "frontend panicked on: {soup:?}");
    }
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(64))]

    /// Keyword soup that survives the frontend must also be total under
    /// the compiled and parallel engines, and any output they produce
    /// must be bit-identical to the reference interpreter's.
    #[test]
    fn prop_engines_total_on_keyword_soup(s in "[a-z>\\-(){};0-9 ]{0,200}") {
        let soup = format!("int->int filter F {{ work pop 1 push 1 {{ {s} }} }}");
        let result = catch_unwind(AssertUnwindSafe(|| {
            let Ok(p) = Compiler::default().compile_source(&soup, "F") else {
                return;
            };
            let input: Vec<f64> = (0..64).map(|x| x as f64).collect();
            let reference = run_budgeted(&p, &input, 4, 10_000);
            for engine in [
                Engine::Compiled,
                Engine::Parallel { threads: 2 },
            ] {
                if let (Ok(want), Ok(out)) =
                    (&reference, &run_on(&p, engine, &input, 4))
                {
                    assert_eq!(want, out, "{engine} diverged on: {soup:?}");
                }
            }
        }));
        proptest::prop_assert!(result.is_ok(), "engines panicked on: {soup:?}");
    }
}

// ---------------------------------------------------------------------
// 2. Golden diagnostics: specific codes and spans for malformed input.
// ---------------------------------------------------------------------

#[test]
fn golden_lex_error_has_code_and_span() {
    let d = compile_diag("int->int filter F() { work pop 1 push 1 { push(`); } }")
        .expect("backtick is not a token");
    assert_eq!(d.code, "E0101", "{d}");
    assert_eq!(d.category, DiagCategory::Parse);
    assert_eq!(d.exit_code(), 2);
    let span = d.span.expect("lex errors carry a position");
    assert_eq!(span.line, 1);
}

#[test]
fn golden_syntax_error_has_code_and_span() {
    let d = compile_diag("int->int filter F() {\n  work pop 1 push 1 { push(pop(); }\n}")
        .expect("unbalanced call must fail");
    assert_eq!(d.code, "E0102", "{d}");
    assert_eq!(d.exit_code(), 2);
    assert_eq!(d.span.expect("syntax errors carry a position").line, 2);
}

#[test]
fn golden_truncated_program_is_syntax_error() {
    let d = compile_diag("float->float pipeline Main() { add ").expect("truncation must fail");
    assert_eq!(d.code, "E0102", "{d}");
    assert_eq!(d.exit_code(), 2);
    assert!(d.span.is_some());
}

#[test]
fn golden_depth_limit_is_distinct_code() {
    let src = format!(
        "int->int filter F() {{ work pop 1 push 1 {{ push({}1{}); }} }}",
        "(".repeat(5000),
        ")".repeat(5000)
    );
    let d = compile_diag(&src).expect("5000 nested parens must be rejected");
    assert_eq!(d.code, "E0103", "{d}");
    assert_eq!(d.category, DiagCategory::Parse);
    assert!(d.message.contains("depth limit"), "{d}");
    assert!(d.span.is_some());
}

#[test]
fn golden_unknown_stream_is_semantic_error() {
    let d = compile_diag("void->void pipeline Main() { add Nowhere(); }")
        .expect("unknown stream must fail");
    assert_eq!(d.code, "E0201", "{d}");
    assert_eq!(d.category, DiagCategory::Semantic);
    assert_eq!(d.exit_code(), 3);
    assert!(d.span.is_some());
}

#[test]
fn golden_oversized_array_is_semantic_error() {
    let d = compile_diag(
        "int->int filter F() { int[100000000] h; work pop 1 push 1 { push(pop()); } } \
         int->int pipeline Main() { add F(); }",
    )
    .expect("a 100M-element state array must be rejected");
    assert_eq!(d.code, "E0201", "{d}");
    assert_eq!(d.exit_code(), 3);
}

#[test]
fn golden_runaway_elaboration_is_semantic_error() {
    let d = compile_diag(
        "int->int filter Id() { work pop 1 push 1 { push(pop()); } } \
         void->void pipeline Main() { for (int i = 0; i < 1000000000; i++) add Id(); }",
    )
    .expect("unbounded graph construction must be rejected");
    assert_eq!(d.code, "E0201", "{d}");
    assert!(d.message.contains("budget"), "{d}");
}

#[test]
fn golden_runaway_init_is_semantic_error() {
    // An `init` block that never terminates is cut off by the
    // elaboration-time statement budget.
    let d = compile_diag(
        "int->int filter F() { int s; \
         init { for (int i = 0; i != 0 + 1; i = 0) s = s + 1; } \
         work pop 1 push 1 { push(pop()); } } \
         int->int pipeline Main() { add F(); }",
    )
    .expect("divergent init must be rejected");
    assert_eq!(d.code, "E0201", "{d}");
    assert_eq!(d.exit_code(), 3);
}

#[test]
fn golden_constant_arguments_mean_what_work_expressions_mean() {
    // A composite argument is evaluated at elaboration time, the same
    // text inside `work` at run time: one table, so one value.
    for expr in [
        "2.5 | 1",
        "7.5 % 2",
        "1 << 65",
        "-9223372036854775807 - 1",
        "~2.5",
        "!0.5",
        "abs(-9223372036854775807 - 1)",
    ] {
        let as_argument = format!(
            "float->float filter F(float k) {{ work pop 1 push 1 {{ push(pop() * 0.0 + k); }} }} \
             float->float pipeline Main() {{ add F({expr}); }}"
        );
        let in_work = format!(
            "float->float filter F() {{ work pop 1 push 1 {{ float k = {expr}; \
             push(pop() * 0.0 + k); }} }} float->float pipeline Main() {{ add F(); }}"
        );
        let run = |src: &str| -> Vec<u64> {
            let p = Compiler::default()
                .compile_source(src, "Main")
                .unwrap_or_else(|e| panic!("`{expr}` must compile: {}", Diag::from(e)));
            let out = p.run(&[1.0, 2.0], 2).expect("runs");
            out.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(run(&as_argument), run(&in_work), "`{expr}`");
    }
    // Defect (d): bitwise-on-float in constant position was refused as
    // a division by zero; it is 3, as at run time.
    let p = Compiler::default()
        .compile_source(
            "int->int filter F(int k) { work pop 1 push 1 { push(pop() * 0 + k); } } \
             int->int pipeline Main() { add F(2.5 | 1); }",
            "Main",
        )
        .expect("`2.5 | 1` is a constant");
    assert_eq!(p.run(&[0.0], 1).expect("runs"), vec![3.0]);
}

#[test]
fn golden_division_by_zero_in_constant_is_integer_only() {
    let with_arg = |arg: &str| {
        format!(
            "float->float filter F(float k) {{ work pop 1 push 1 {{ push(pop() + k); }} }}\n\
             float->float pipeline Main() {{ add F({arg}); }}"
        )
    };
    for arg in ["1 / 0", "1 % 0", "(-9223372036854775807 - 1) / -1"] {
        let d = compile_diag(&with_arg(arg)).expect("an integer division by zero is no constant");
        assert_eq!(d.code, "E0201", "{d}");
        assert_eq!(d.exit_code(), 3);
        assert!(d.message.contains("division by zero in constant"), "{d}");
        assert_eq!(d.span.map(|s| s.line), Some(2), "{d}");
    }
    // Float division and remainder are IEEE and total.
    for arg in ["1.0 / 0", "1 % 0.0", "2.5 | 1", "1.5 << 2"] {
        assert!(
            compile_diag(&with_arg(arg)).is_none(),
            "`{arg}` is a constant"
        );
    }
}

#[test]
fn golden_rate_inconsistency_is_semantic_error() {
    // One splitjoin branch doubles the item count: balance equations
    // have no solution.
    let sj = streamit::graph::builder::splitjoin(
        "sj",
        streamit::graph::Splitter::round_robin(2),
        vec![
            streamit::graph::builder::identity("a", streamit::graph::DataType::Int),
            streamit::graph::builder::FilterBuilder::new("dbl", streamit::graph::DataType::Int)
                .rates(1, 1, 2)
                .push(streamit::graph::builder::peek(0))
                .push(streamit::graph::builder::peek(0))
                .pop_discard()
                .build_node(),
        ],
        streamit::graph::Joiner::round_robin(2),
    );
    let flat = streamit::graph::FlatGraph::from_stream(&sj);
    let e = streamit::graph::repetition_vector(&flat).expect_err("rates are inconsistent");
    let d = Diag::from(e);
    assert_eq!(d.code, "E0203", "{d}");
    assert_eq!(d.exit_code(), 3);
}

#[test]
fn golden_strict_verification_failure() {
    // Under-primed feedback loop: the adder needs two items but only one
    // is enqueued, so one steady state can never complete.
    let src = r#"
        int->int filter Adder() {
            work peek 2 pop 1 push 1 { push(peek(0) + peek(1)); pop(); }
        }
        int->int filter Id() { work pop 1 push 1 { push(pop()); } }
        void->int feedbackloop Main() {
            join roundrobin(0, 1);
            body Adder();
            split duplicate;
            loop Id();
            enqueue 0;
            delay 1;
        }
    "#;
    let d = compile_strict_diag(src).expect("under-primed loop must fail strict verify");
    assert_eq!(d.code, "E0301", "{d}");
    assert_eq!(d.category, DiagCategory::Verify);
    assert_eq!(d.exit_code(), 4);
    assert!(d.message.contains("under-primed"), "{d}");
}

// ---------------------------------------------------------------------
// 3. Resource bounds: divergence and starvation terminate, typed.
// ---------------------------------------------------------------------

#[test]
fn starved_run_reports_e0408() {
    let p = Compiler::default().compile_source(GOOD, "Main").unwrap();
    // 4 items in, 100 demanded: the tape runs dry mid-run.
    let e = p.run(&[1.0; 4], 100).expect_err("input is too short");
    let d = Diag::from(e);
    assert_eq!(d.code, "E0408", "{d}");
    assert_eq!(d.category, DiagCategory::Runtime);
    assert_eq!(d.exit_code(), 5);
}

/// An integer division by zero in one branch of a fused split-join
/// (DESIGN.md "Horizontal fusion") faults on the fast engines under the
/// fused filter's name, which lists that branch; the ladder then
/// degrades to the reference interpreter, which runs the graph as
/// written and names the branch itself — as it does for the same
/// branch unfused.
#[test]
fn division_by_zero_in_a_fused_branch_names_the_branch() {
    let branches = "int->int filter Inc() { work pop 1 push 1 { push(pop() + 1); } }\n\
                    int->int filter Bad() { work pop 1 push 1 { push(100 / (pop() - 7)); } }\n\
                    int->int filter Id() { work pop 1 push 1 { push(pop()); } }\n";
    let fused = format!(
        "{branches}int->int splitjoin Bank() {{ split roundrobin; add Inc(); add Bad(); \
         join roundrobin; }}\nint->int pipeline Main() {{ add Id(); add Bank(); add Id(); }}"
    );
    let alone = format!("{branches}int->int pipeline Main() {{ add Id(); add Bad(); add Id(); }}");
    let p = Compiler::default().compile_source(&fused, "Main").unwrap();
    let q = Compiler::default().compile_source(&alone, "Main").unwrap();
    let names: Vec<&str> = p.fusion_report().iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["Main/Bank/Inc+Bad"]);
    assert!(q.fusion_report().is_empty());
    // Item 7 reaches `Bad` (odd positions) in both programs' first 16.
    let input: Vec<f64> = (0..64).map(|x| x as f64).collect();
    let fault = |p: &CompiledProgram, engine, on_fault| {
        let cfg = SupervisorConfig {
            on_fault,
            backoff_ms: 0,
            ..SupervisorConfig::default()
        };
        p.run_supervised(engine, &input, 16, &cfg)
            .expect_err("the branch divides by zero")
    };
    for engine in [Engine::Compiled, Engine::Parallel { threads: 2 }] {
        let d = fault(&p, engine, OnEngineFault::Error);
        assert_eq!(d.code, "E0702", "{d}");
        assert!(d.message.contains("Main/Bank/Inc+Bad"), "{d}");
        assert!(d.message.contains("division by zero"), "{d}");
        let e = fault(&q, engine, OnEngineFault::Error);
        assert_eq!(e.code, "E0702", "{e}");
        // Under the fallback policy both end on the reference rung, the
        // graph as written: the same E0404 naming the same branch.
        let d = fault(&p, engine, OnEngineFault::Fallback);
        let e = fault(&q, engine, OnEngineFault::Fallback);
        assert_eq!((d.code, e.code), ("E0404", "E0404"), "{d} / {e}");
        assert!(d.message.contains("Main/Bank/Bad"), "{d}");
        assert!(e.message.contains("Main/Bad"), "{e}");
    }
}

/// Past three branches the fused filter's name counts the rest
/// (`A+B+C+1more`), so the fast engines' fault names the split-join and
/// not the faulting branch: `fusion_report` resolves the name to every
/// branch, and the reference rung names the branch itself.
#[test]
fn a_fault_in_a_later_branch_of_a_wide_fused_bank_resolves_through_the_report() {
    let source = "int->int filter A() { work pop 1 push 1 { push(pop() + 1); } }\n\
                  int->int filter B() { work pop 1 push 1 { push(pop() + 2); } }\n\
                  int->int filter C() { work pop 1 push 1 { push(pop() + 3); } }\n\
                  int->int filter Bad() { work pop 1 push 1 { push(100 / (pop() - 7)); } }\n\
                  int->int filter Id() { work pop 1 push 1 { push(pop()); } }\n\
                  int->int splitjoin Bank() { split roundrobin; add A(); add B(); add C(); \
                  add Bad(); join roundrobin; }\n\
                  int->int pipeline Main() { add Id(); add Bank(); add Id(); }";
    let p = Compiler::default().compile_source(source, "Main").unwrap();
    let [bank] = p.fusion_report() else {
        panic!("{:?}", p.fusion_report());
    };
    assert_eq!(bank.name, "Main/Bank/A+B+C+1more");
    assert_eq!(bank.branches[3], "Main/Bank/Bad");
    // Item 7 is the fourth branch's second item.
    let input: Vec<f64> = (0..64).map(|x| x as f64).collect();
    for (on_fault, code, node) in [
        (OnEngineFault::Error, "E0702", bank.name.as_str()),
        (OnEngineFault::Fallback, "E0404", "Main/Bank/Bad"),
    ] {
        let cfg = SupervisorConfig {
            on_fault,
            backoff_ms: 0,
            ..SupervisorConfig::default()
        };
        let d = p
            .run_supervised(Engine::Compiled, &input, 16, &cfg)
            .expect_err("the branch divides by zero");
        assert_eq!(d.code, code, "{d}");
        assert!(d.message.contains(node), "{d}");
    }
}

#[test]
fn exhausted_firing_budget_reports_e0501() {
    let p = Compiler::default().compile_source(GOOD, "Main").unwrap();
    // Plenty of input, tiny budget: the fuel runs out first.
    let input: Vec<f64> = (0..100_000).map(|x| x as f64).collect();
    let d =
        run_budgeted(&p, &input, 90_000, 50).expect_err("50 firings cannot produce 90k outputs");
    assert_eq!(d.code, "E0501", "{d}");
    assert_eq!(d.category, DiagCategory::Budget);
    assert_eq!(d.exit_code(), 6);
}

#[test]
fn runaway_work_body_reports_e0502() {
    // A work function that loops forever must be stopped by the
    // per-firing statement budget, not hang the process.
    let src = r#"
        float->float filter Spin() {
            work pop 1 push 1 {
                float x = pop();
                for (int i = 0; i < 2000000000; i++) x = x + 1.0;
                push(x);
            }
        }
        float->float pipeline Main() { add Spin(); }
    "#;
    let p = Compiler::default().compile_source(src, "Main").unwrap();
    let mut m = streamit::interp::Machine::new(&p.flat);
    m.set_limits(streamit::interp::ExecLimits {
        max_steps_per_firing: 10_000,
        ..streamit::interp::ExecLimits::default()
    });
    m.feed((0..8).map(|_| streamit::graph::Value::Float(1.0)));
    let e = m
        .run_until_output(1, 1_000)
        .expect_err("spin must be cut off");
    let d = Diag::from(e);
    assert_eq!(d.code, "E0502", "{d}");
    assert_eq!(d.exit_code(), 6);
}

#[test]
fn channel_capacity_cap_reports_e0409() {
    // A 1->64 burst producer feeding a 64->1 consumer needs 64 buffered
    // items; capping the channel at 16 must produce a typed error.
    let src = r#"
        float->float filter Burst() {
            work pop 1 push 64 {
                float x = pop();
                for (int i = 0; i < 64; i++) push(x);
            }
        }
        float->float filter Squash() {
            work pop 64 push 1 {
                float s = 0.0;
                for (int i = 0; i < 64; i++) s = s + pop();
                push(s);
            }
        }
        float->float pipeline Main() { add Burst(); add Squash(); }
    "#;
    let p = Compiler::default().compile_source(src, "Main").unwrap();
    let mut m = streamit::interp::Machine::new(&p.flat);
    m.set_limits(streamit::interp::ExecLimits {
        max_channel_items: 16,
        ..streamit::interp::ExecLimits::default()
    });
    m.feed((0..8).map(|_| streamit::graph::Value::Float(1.0)));
    let e = m
        .run_until_output(1, 1_000)
        .expect_err("capacity must trip");
    let d = Diag::from(e);
    assert_eq!(d.code, "E0409", "{d}");
    assert_eq!(d.exit_code(), 5);
}

// ---------------------------------------------------------------------
// 4. streamitc exit codes, end to end.
// ---------------------------------------------------------------------

fn run_streamitc(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_streamitc"))
        .args(args)
        .output()
        .expect("streamitc binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("streamitc_fault_{name}_{}.str", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writable");
    path
}

#[test]
fn streamitc_exit_codes_are_documented_values() {
    // Usage error -> 2.
    let out = run_streamitc(&[]);
    assert_eq!(out.status.code(), Some(2), "usage");

    // Unreadable file -> 1 (I/O, not a diagnostic).
    let out = run_streamitc(&["/nonexistent/no/such/file.str"]);
    assert_eq!(out.status.code(), Some(1), "io");

    // Syntax error -> 2, with the code on stderr.
    let bad = write_temp("parse", "float->float pipeline Main() { add ");
    let out = run_streamitc(&[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "parse");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E0102"), "stderr: {stderr}");
    let _ = std::fs::remove_file(bad);

    // Semantic error -> 3.
    let bad = write_temp("sem", "void->void pipeline Main() { add Nowhere(); }");
    let out = run_streamitc(&[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "semantic");
    assert!(String::from_utf8_lossy(&out.stderr).contains("E0201"));
    let _ = std::fs::remove_file(bad);

    // Strict verification failure -> 4.
    let bad = write_temp(
        "verify",
        r#"
        int->int filter Adder() {
            work peek 2 pop 1 push 1 { push(peek(0) + peek(1)); pop(); }
        }
        int->int filter Id() { work pop 1 push 1 { push(pop()); } }
        void->int feedbackloop Main() {
            join roundrobin(0, 1);
            body Adder();
            split duplicate;
            loop Id();
            enqueue 0;
            delay 1;
        }
        "#,
    );
    let out = run_streamitc(&[bad.to_str().unwrap(), "--strict"]);
    assert_eq!(out.status.code(), Some(4), "verify");
    assert!(String::from_utf8_lossy(&out.stderr).contains("E0301"));
    let _ = std::fs::remove_file(bad);

    // Exhausted firing budget during --run -> 6: a "divergent" run (more
    // outputs demanded than the budget can produce) terminates with a
    // budget diagnostic instead of spinning.
    let good = write_temp("budget", GOOD);
    let out = run_streamitc(&[good.to_str().unwrap(), "--run", "64", "--budget", "10"]);
    assert_eq!(out.status.code(), Some(6), "budget");
    assert!(String::from_utf8_lossy(&out.stderr).contains("E0501"));
    let _ = std::fs::remove_file(good);

    // A good program still compiles and exits 0.
    let good = write_temp("good", GOOD);
    let out = run_streamitc(&[good.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "success");
    let _ = std::fs::remove_file(good);
}

/// `--run N` sizes the synthetic input (sixteen items per output) and
/// the one-shot output ring from `N` before a single firing.  An `N` no
/// host can hold — or one whose sixteen-fold wraps `usize` — is a typed
/// runtime diagnostic on every engine, not an allocator abort (SIGABRT,
/// which no `catch_unwind` sees) and not a wrapped length.
#[test]
fn streamitc_run_too_large_to_allocate_is_e0708_exit_5_on_every_engine() {
    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/str/fibonacci.str"
    );
    for engine in ["reference", "compiled", "parallel"] {
        for n in ["1000000000000", "18446744073709551615"] {
            let t0 = std::time::Instant::now();
            let out = run_streamitc(&[file, "--run", n, "--engine", engine]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(5), "{engine} --run {n}: {stderr}");
            assert!(stderr.contains("E0708"), "{engine} --run {n}: {stderr}");
            assert!(t0.elapsed().as_secs() < 2, "{engine} --run {n}");
        }
    }
}

// ---------------------------------------------------------------------
// 5. streamitc --engine selection, golden behavior.
// ---------------------------------------------------------------------

/// A program with teleport messaging: the compiled engine must decline
/// it (E0701) and the CLI must fall back to the reference interpreter.
const TELEPORT: &str = r#"
    float->float filter Mixer() {
        float freq;
        init { freq = 1.0; }
        work pop 1 push 1 { push(pop() * freq); }
        handler setFreq(float f) { freq = f; }
    }
    float->float filter Watch(int T) {
        int seen;
        work pop 1 push 1 {
            float v = pop();
            seen = seen + 1;
            if (seen == T) send hop.setFreq(0.5) [2, 2];
            push(v);
        }
    }
    float->float pipeline Main() {
        add Mixer() as mix;
        add Watch(3);
        register hop mix;
    }
"#;

#[test]
fn streamitc_engine_flag_selects_and_falls_back() {
    // Golden: both engines print identical y[i] lines for a supported
    // program, and each names the engine that actually ran.
    let good = write_temp("engine_good", GOOD);
    let reference = run_streamitc(&[good.to_str().unwrap(), "--run", "8"]);
    assert_eq!(reference.status.code(), Some(0), "reference run");
    let ref_stdout = String::from_utf8_lossy(&reference.stdout).to_string();
    assert!(
        ref_stdout.contains("(reference engine)"),
        "stdout: {ref_stdout}"
    );

    let compiled = run_streamitc(&[good.to_str().unwrap(), "--run", "8", "--engine", "compiled"]);
    assert_eq!(compiled.status.code(), Some(0), "compiled run");
    let comp_stdout = String::from_utf8_lossy(&compiled.stdout).to_string();
    assert!(
        comp_stdout.contains("(compiled engine)"),
        "stdout: {comp_stdout}"
    );
    let ys = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("y["))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(ys(&ref_stdout), ys(&comp_stdout), "engines disagree");
    assert_eq!(ys(&ref_stdout).len(), 8);
    let _ = std::fs::remove_file(good);

    // Explicit `--engine reference` is accepted and identical.
    let good = write_temp("engine_ref", GOOD);
    let out = run_streamitc(&[
        good.to_str().unwrap(),
        "--run",
        "8",
        "--engine",
        "reference",
    ]);
    assert_eq!(out.status.code(), Some(0), "explicit reference");
    assert_eq!(ys(&String::from_utf8_lossy(&out.stdout)), ys(&ref_stdout));
    let _ = std::fs::remove_file(good);

    // Unknown engine name -> usage error (2).
    let good = write_temp("engine_bad", GOOD);
    let out = run_streamitc(&[good.to_str().unwrap(), "--run", "8", "--engine", "turbo"]);
    assert_eq!(out.status.code(), Some(2), "unknown engine");
    let _ = std::fs::remove_file(good);
}

#[test]
fn streamitc_parallel_engine_flag_and_threads_parsing() {
    let ys = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.starts_with("y["))
            .map(str::to_string)
            .collect()
    };

    // Golden: the parallel engine names itself and prints the same
    // y[i] lines as the reference interpreter, at explicit thread
    // counts and with the auto default.
    let good = write_temp("engine_par", GOOD);
    let reference = run_streamitc(&[good.to_str().unwrap(), "--run", "8"]);
    assert_eq!(reference.status.code(), Some(0), "reference run");
    let ref_ys = ys(&String::from_utf8_lossy(&reference.stdout));
    for threads in ["1", "2", "4"] {
        let out = run_streamitc(&[
            good.to_str().unwrap(),
            "--run",
            "8",
            "--engine",
            "parallel",
            "--threads",
            threads,
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "parallel run ({threads} threads)"
        );
        let stdout = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(
            stdout.contains("(parallel engine)"),
            "stdout ({threads} threads): {stdout}"
        );
        assert_eq!(ys(&stdout), ref_ys, "engines disagree at {threads} threads");
    }
    let out = run_streamitc(&[good.to_str().unwrap(), "--run", "8", "--engine", "parallel"]);
    assert_eq!(out.status.code(), Some(0), "auto thread count");
    assert_eq!(ys(&String::from_utf8_lossy(&out.stdout)), ref_ys);

    // Malformed --threads values -> usage error (2).
    for bad in ["nope", "-1"] {
        let out = run_streamitc(&[
            good.to_str().unwrap(),
            "--run",
            "8",
            "--engine",
            "parallel",
            "--threads",
            bad,
        ]);
        assert_eq!(out.status.code(), Some(2), "--threads {bad}");
    }
    let out = run_streamitc(&[good.to_str().unwrap(), "--run", "8", "--threads"]);
    assert_eq!(out.status.code(), Some(2), "--threads without a value");
    let _ = std::fs::remove_file(good);
}

#[test]
fn streamitc_parallel_engine_declines_feedback_loops_gracefully() {
    // Feedback loops are outside the parallel subset (a back edge would
    // make a stage wait on a later stage): the CLI prints the E0701
    // diagnostic and degrades one rung down the engine ladder — to the
    // serial compiled engine, which handles primed feedback loops — and
    // still succeeds (exit 0) with correct output.
    let out = run_streamitc(&[
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/str/fibonacci.str"
        ),
        "--run",
        "6",
        "--engine",
        "parallel",
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "fallback must succeed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E0701"), "stderr: {stderr}");
    assert!(
        stderr.contains("falling back to the compiled engine"),
        "stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(compiled engine)"), "stdout: {stdout}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("y[")).count(), 6);
}

#[test]
fn streamitc_compiled_engine_falls_back_gracefully() {
    // Teleport messaging is outside the compiled subset: the CLI prints
    // the E0701 diagnostic, falls back, and still succeeds (exit 0).
    let tp = write_temp("engine_teleport", TELEPORT);
    let out = run_streamitc(&[tp.to_str().unwrap(), "--run", "6", "--engine", "compiled"]);
    assert_eq!(out.status.code(), Some(0), "fallback must succeed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E0701"), "stderr: {stderr}");
    assert!(
        stderr.contains("falling back to the reference engine"),
        "stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(reference engine)"), "stdout: {stdout}");
    assert_eq!(stdout.lines().filter(|l| l.starts_with("y[")).count(), 6);
    let _ = std::fs::remove_file(tp);
}

// ---------------------------------------------------------------------
// 6. streamitc supervision flags, golden behavior.
// ---------------------------------------------------------------------

#[test]
fn streamitc_supervision_flags_reject_bad_values() {
    let good = write_temp("supervision_flags", GOOD);
    let path = good.to_str().unwrap();

    // Malformed --watchdog-ms values -> usage error (2).
    for bad in ["abc", "-5", "1.5"] {
        let out = run_streamitc(&[path, "--run", "8", "--watchdog-ms", bad]);
        assert_eq!(out.status.code(), Some(2), "--watchdog-ms {bad}");
    }
    let out = run_streamitc(&[path, "--run", "8", "--watchdog-ms"]);
    assert_eq!(out.status.code(), Some(2), "--watchdog-ms without a value");

    // Unknown --on-engine-fault policy -> usage error (2).
    let out = run_streamitc(&[path, "--run", "8", "--on-engine-fault", "shrug"]);
    assert_eq!(out.status.code(), Some(2), "--on-engine-fault shrug");

    // Malformed --inject-fault plans -> usage error (2).
    for bad in ["bogus", "panic@x:1", "panic@0", "explode@0:1"] {
        let out = run_streamitc(&[path, "--run", "8", "--inject-fault", bad]);
        assert_eq!(out.status.code(), Some(2), "--inject-fault {bad}");
    }
    let _ = std::fs::remove_file(good);
}

#[test]
fn streamitc_injected_panic_degrades_to_reference_output() {
    // A worker panic injected into the parallel engine is caught,
    // attributed (E0705 with the payload text), and — under the default
    // fallback policy — the ladder lands on an engine that produces the
    // full output with exit 0.
    let good = write_temp("inject_panic", GOOD);
    let out = run_streamitc(&[
        good.to_str().unwrap(),
        "--run",
        "8",
        "--engine",
        "parallel",
        "--threads",
        "2",
        "--inject-fault",
        "panic@0:1",
    ]);
    assert_eq!(out.status.code(), Some(0), "fallback must succeed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E0705"), "stderr: {stderr}");
    assert!(
        stderr.contains("injected fault: worker panic at stage 0 iteration 1"),
        "panic payload must be extracted into the diagnostic; stderr: {stderr}"
    );
    assert!(stderr.contains("falling back to the"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(reference engine)"),
        "the fault plan follows the ladder down, so only the reference \
         rung completes; stdout: {stdout}"
    );
    assert_eq!(stdout.lines().filter(|l| l.starts_with("y[")).count(), 8);
    let _ = std::fs::remove_file(good);
}

#[test]
fn streamitc_injected_stall_under_error_policy_exits_5() {
    // An injected stall trips the watchdog within its deadline; under
    // --on-engine-fault error the E0706 diagnostic surfaces directly
    // with exit code 5 instead of degrading.
    let good = write_temp("inject_stall", GOOD);
    let out = run_streamitc(&[
        good.to_str().unwrap(),
        "--run",
        "8",
        "--engine",
        "parallel",
        "--threads",
        "2",
        "--watchdog-ms",
        "300",
        "--on-engine-fault",
        "error",
        "--inject-fault",
        "stall@0:1",
    ]);
    assert_eq!(out.status.code(), Some(5), "stall must surface as runtime");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("E0706"), "stderr: {stderr}");
    assert!(stderr.contains("stalled"), "stderr: {stderr}");
    let _ = std::fs::remove_file(good);
}
