//! Differential tests for the linear optimizer across engines: every
//! app compiled with `--linear` / `--frequency` must produce the same
//! stream on the compiled and parallel engines as the *unoptimized*
//! graph does on the reference interpreter.
//!
//! The comparison tolerance follows the optimizer's own report: a
//! graph with no reassociating rewrite (nothing extracted, no
//! frequency plans) must stay bit-identical; a reassociating rewrite
//! (collapsed combinations re-group the sums, FFT convolution
//! reassociates them wholesale) is held to a tight ULP bound instead
//! (see `support/tolerance.rs`).

use streamit::exec::ExecError;
use streamit::graph::StreamNode;
use streamit::linear::LinearMode;
use streamit::{apps, CompiledProgram, Compiler, Options};

#[path = "support/corpus.rs"]
mod corpus;
use corpus::varied_input;

#[path = "support/tolerance.rs"]
mod tolerance;

use tolerance::{approx, assert_streams_match, Tolerance};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn compile(name: &str, stream: StreamNode, linear: Option<LinearMode>) -> CompiledProgram {
    Compiler::new(Options {
        linear,
        ..Options::default()
    })
    .compile_stream(stream)
    .unwrap_or_else(|e| panic!("{name}: app graph must compile: {e}"))
}

/// Iterations of `eng_out`-sized steady states covering `n` outputs.
fn iterations_for(n: usize, init_out: u64, round_out: u64) -> u64 {
    if n as u64 <= init_out {
        0
    } else {
        (n as u64 - init_out).div_ceil(round_out.max(1))
    }
}

/// Run one app in one linear mode on every optimized engine and
/// compare against the unoptimized reference.  Returns the decline
/// reason when the compiled engine rejects the optimized graph.
fn differential(name: &str, stream: StreamNode, n: usize, mode: LinearMode) -> Option<String> {
    let baseline = compile(name, stream.clone(), None);
    let optimized = compile(name, stream, Some(mode));
    let report = optimized
        .linear_report
        .as_ref()
        .unwrap_or_else(|| panic!("{name}: linear report missing"));
    let tol = if report.reassociating() {
        approx()
    } else {
        Tolerance::Bit
    };

    let cg = match optimized.compile_exec() {
        Ok(cg) => cg,
        Err(ExecError::Unsupported { reason }) => {
            assert!(!reason.is_empty(), "{name}: empty decline reason");
            return Some(reason);
        }
        Err(e) => panic!("{name}: compile_exec failed with non-Unsupported error: {e}"),
    };

    // Size input from the optimized engine's requirement, with a
    // margin covering the unoptimized graph's (at most equal) priming.
    let k = iterations_for(n, cg.init_outputs(), cg.outputs_per_iteration());
    let input = varied_input(cg.required_input(k + 2).max(1024) as usize * 2);
    let mut reference = baseline
        .run(&input, n)
        .unwrap_or_else(|e| panic!("{name}: unoptimized reference run failed: {e}"));
    reference.truncate(n);

    let compiled = cg
        .run_collect(&input, n)
        .unwrap_or_else(|e| panic!("{name}/{mode:?}: compiled run failed: {e}"));
    assert_streams_match(
        &format!("{name}/{mode:?}/compiled ({} kernels)", cg.kernel_filters()),
        tol,
        &compiled,
        &reference,
    );

    for threads in THREAD_COUNTS {
        let pg = match optimized.compile_parallel(threads) {
            Ok(pg) => pg,
            Err(ExecError::Unsupported { reason }) => {
                assert!(!reason.is_empty(), "{name}: empty parallel decline reason");
                assert!(
                    !apps::THROUGHPUT_APPS.contains(&name),
                    "{name}/{mode:?} must run on the parallel engine at {threads} threads: {reason}"
                );
                continue;
            }
            Err(e) => panic!("{name}: unexpected parallel compile error: {e}"),
        };
        let kp = iterations_for(n, pg.init_outputs(), pg.outputs_per_iteration());
        let pin = varied_input(pg.required_input(kp + 2).max(input.len() as u64) as usize);
        let parallel = pg
            .run_collect(&pin, n)
            .unwrap_or_else(|e| panic!("{name}/{mode:?}: parallel run ({threads}) failed: {e}"));
        assert_streams_match(
            &format!(
                "{name}/{mode:?}/parallel@{threads} ({} kernels, {} stages)",
                pg.kernel_filters(),
                pg.stages()
            ),
            tol,
            &parallel,
            &reference,
        );
    }
    None
}

fn run_suite(mode: LinearMode) {
    let mut declined = Vec::new();
    let mut compared = 0;
    for app in apps::corpus() {
        let name = app.name;
        let Some(reason) = differential(name, app.graph(), app.prefix, mode) else {
            compared += 1;
            continue;
        };
        assert!(
            !apps::THROUGHPUT_APPS.contains(&name),
            "{name}/{mode:?} must run on the compiled engine, but it declined: {reason}"
        );
        declined.push((name, reason));
    }
    assert_eq!(compared + declined.len(), apps::corpus().len());
    eprintln!(
        "compiled engine declined {} of {} optimized ({mode:?}) apps: {declined:#?}",
        declined.len(),
        apps::corpus().len()
    );
    assert!(
        declined.len() <= 7,
        "compiled engine declined too many {mode:?}-optimized apps: {declined:#?}"
    );
}

/// Replacement mode: collapsed affine filters run as dense
/// matrix-multiply kernels on the compiled and parallel engines.
#[test]
fn replacement_mode_matches_reference_on_all_engines() {
    run_suite(LinearMode::Replacement);
}

/// Frequency mode: planned FIRs run as FFT spectrum-multiply kernels.
#[test]
fn frequency_mode_matches_reference_on_all_engines() {
    run_suite(LinearMode::Frequency);
}

/// Non-vacuity: the FIR-heavy apps must actually exercise the kernel
/// path — linear filters extracted, kernels attached and validated by
/// the planner, and (in frequency mode) FFT plans elected.
#[test]
fn optimized_apps_actually_run_kernels() {
    for (name, want_freq) in [
        ("fmradio", true),
        ("filterbank", false),
        ("beamformer", true),
    ] {
        let stream = apps::corpus_app(name).graph();
        let rep = compile(name, stream.clone(), Some(LinearMode::Replacement));
        let report = rep.linear_report.as_ref().unwrap();
        assert!(report.extracted > 0, "{name}: no linear filters extracted");
        let cg = rep.compile_exec().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            cg.kernel_filters() > 0,
            "{name}: replacement mode attached no dense kernels"
        );
        let pg = rep
            .compile_parallel(2)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            pg.kernel_filters() > 0,
            "{name}: kernels did not survive the parallel transforms"
        );

        let freq = compile(name, stream, Some(LinearMode::Frequency));
        let report = freq.linear_report.as_ref().unwrap();
        assert_eq!(
            !report.freq_plans.is_empty(),
            want_freq,
            "{name}: unexpected frequency planning ({} plans)",
            report.freq_plans.len()
        );
        let cg = freq
            .compile_exec()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            cg.kernel_filters() > 0,
            "{name}: frequency mode attached no kernels"
        );
    }
}

/// An invalid kernel hint must be dropped at plan time — the filter
/// falls back to its bytecode, and output stays correct.
#[test]
fn mismatched_kernel_hint_falls_back_to_bytecode() {
    use streamit::graph::builder::*;
    use streamit::graph::{DataType, KernelRow, KernelSpec};

    // The hint claims a different push rate than the filter declares.
    let f = FilterBuilder::new("bad_hint", DataType::Float)
        .rates(1, 1, 1)
        .work(|b| b.push(pop() * lit(2.0)))
        .kernel(KernelSpec::Linear {
            peek: 1,
            pop: 1,
            rows: vec![
                KernelRow {
                    taps: vec![(0, 2.0)],
                    constant: 0.0,
                },
                KernelRow {
                    taps: vec![(0, 3.0)],
                    constant: 0.0,
                },
            ],
        })
        .build_node();
    let p = Compiler::default().compile_stream(f).expect("compiles");
    let cg = p.compile_exec().expect("plans");
    assert_eq!(cg.kernel_filters(), 0, "invalid hint must be dropped");
    let out = cg.run_collect(&[1.0, 2.0, 3.0, 4.0], 4).expect("runs");
    assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0]);
}

// ---- golden CLI tests ---------------------------------------------------
//
// `streamitc --linear/--frequency` combined with `--engine`/`--threads`
// must run end to end: the optimizer line prints, the requested engine
// actually serves the run (no silent E0701 fallback), and the printed
// outputs match an unoptimized reference run within the ULP tolerance.

mod cli {
    use super::tolerance::{approx, assert_streams_match};

    fn fmradio_str() -> String {
        format!(
            "{}/../../examples/str/fmradio.str",
            env!("CARGO_MANIFEST_DIR")
        )
    }

    fn run_streamitc(args: &[&str]) -> (String, String, Option<i32>) {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_streamitc"))
            .args(args)
            .output()
            .expect("streamitc binary runs");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
            out.status.code(),
        )
    }

    /// Parse the `y[i] = v` lines of a `--run` transcript.
    fn parse_outputs(stdout: &str) -> Vec<f64> {
        stdout
            .lines()
            .filter_map(|l| l.split(" = ").nth(1))
            .filter_map(|v| v.trim().parse().ok())
            .collect()
    }

    #[test]
    fn linear_flags_serve_the_requested_engine() {
        let file = fmradio_str();
        for mode in ["--linear", "--frequency"] {
            for (engine_args, marker) in [
                (&["--engine", "compiled"][..], "(compiled engine)"),
                (
                    &["--engine", "parallel", "--threads", "2"][..],
                    "(parallel engine)",
                ),
            ] {
                let mut args = vec![file.as_str(), mode, "--run", "4"];
                args.extend_from_slice(engine_args);
                let (stdout, stderr, code) = run_streamitc(&args);
                assert_eq!(code, Some(0), "{mode} {engine_args:?}\nstderr: {stderr}");
                assert!(
                    stdout.contains("linear optimizer:"),
                    "{mode}: optimizer report missing\n{stdout}"
                );
                assert!(
                    stdout.contains(marker),
                    "{mode} {engine_args:?}: wrong engine served the run \
                     (E0701 fallback?)\nstdout: {stdout}\nstderr: {stderr}"
                );
                assert!(
                    !stderr.contains("E0701"),
                    "{mode} {engine_args:?}: engine declined the optimized graph\n{stderr}"
                );
            }
        }
    }

    #[test]
    fn optimized_cli_outputs_match_reference_within_ulps() {
        let file = fmradio_str();
        let (stdout, stderr, code) = run_streamitc(&[file.as_str(), "--run", "6"]);
        assert_eq!(code, Some(0), "reference run failed\nstderr: {stderr}");
        let reference = parse_outputs(&stdout);
        assert_eq!(reference.len(), 6, "reference transcript\n{stdout}");

        for mode in ["--linear", "--frequency"] {
            for engine in ["compiled", "parallel"] {
                let (stdout, stderr, code) =
                    run_streamitc(&[file.as_str(), mode, "--run", "6", "--engine", engine]);
                assert_eq!(code, Some(0), "{mode}/{engine}\nstderr: {stderr}");
                let got = parse_outputs(&stdout);
                assert_streams_match(
                    &format!("streamitc {mode} --engine {engine}"),
                    approx(),
                    &got,
                    &reference,
                );
            }
        }
    }
}
