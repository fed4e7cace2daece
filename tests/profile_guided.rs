//! The per-filter profiler's surface and the one characterization of the
//! static cost estimator: its ranking of the hottest filters against the
//! VM's per-filter loop steps, plus golden CLI tests for `--profile`.

use streamit::apps;
use streamit::exec::bytecode::Inst;
use streamit::exec::driver::{preload, read_output, Driver, Stop};
use streamit::exec::engine::OpProfiler;
use streamit::graph::repetition_vector;
use streamit::sched::WorkGraph;

#[path = "support/corpus.rs"]
mod corpus;
use corpus::compile;

/// The `count` costliest entries, costliest first (ties by name).
fn hottest(mut costs: Vec<(String, u64)>, count: usize) -> Vec<(String, u64)> {
    costs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    costs.truncate(count);
    costs
}

/// Loop steps one firing of `code` costs the VM: a dispatch per
/// instruction, and a fused dot product one in-register step per tap.
/// Exact for a straight-line body, which every body this file prices
/// is (a rolled loop would need its trip count).
fn loop_steps(name: &str, code: &[Inst]) -> u64 {
    let step = |i: &Inst| match i {
        Inst::DotPeekF { n, .. } => u64::from(*n),
        Inst::Jmp { .. } | Inst::Jz { .. } => {
            panic!("{name}: a branching body has no static count")
        }
        _ => 1,
    };
    code.iter().map(step).sum()
}

/// Characterization: on each throughput-benchmark app, the static
/// estimator's ranking of the hottest filters (`WorkGraph::from_flat`'s
/// `work` per steady state) is compared against what the VM executes for
/// them — `loop_steps` per firing, counted off the lowered bytecode,
/// times the filter's repetitions.  The estimator prices source
/// arithmetic and the VM pays per dispatch, so exact agreement is not
/// expected — but the two top-3 sets must share at least one filter,
/// and both are printed so a ranking regression shows up in the test
/// log.  Today the FIRs lead both rankings on fmradio, filterbank and
/// beamformer; bitonic's comparators, gathers and scatters tie in both,
/// so agreement there is by cost, not by name.  This is the baseline a
/// host cost model off the bytecode (ROADMAP, cost-model item) inherits.
#[test]
fn static_and_measured_hot_filter_rankings_overlap() {
    for name in apps::THROUGHPUT_APPS {
        let p = compile(name, apps::corpus_app(name).graph());
        let wg = WorkGraph::from_flat(&p.flat)
            .unwrap_or_else(|e| panic!("{name}: static work graph must build: {e}"));
        let reps =
            repetition_vector(&p.flat).unwrap_or_else(|e| panic!("{name}: no steady state: {e:?}"));
        let cg = p
            .compile_exec()
            .unwrap_or_else(|e| panic!("{name}: compiled engine must accept this app: {e}"));

        // Work-graph nodes are the flat graph's, index for index.
        let compute = || {
            wg.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| !n.sync && !n.io)
        };
        let static_work = |n: &str| {
            compute()
                .find(|(_, w)| w.name == n)
                .map_or(0, |(_, w)| w.work)
        };
        let vm_steps = |i: usize, n: &str| {
            let fc = cg.plan().codes.iter().find(|fc| fc.name == n);
            fc.map_or(0, |fc| loop_steps(n, &fc.work.code) * reps[i])
        };
        let top_static = hottest(
            compute().map(|(_, n)| (n.name.clone(), n.work)).collect(),
            3,
        );
        let top_steps = hottest(
            compute()
                .map(|(i, n)| (n.name.clone(), vm_steps(i, &n.name)))
                .collect(),
            3,
        );
        // Symmetric apps tie many filters at identical static cost
        // (filterbank's 16 Analysis/Synthesis bands are one filter
        // repeated), so compare by *cost*, not by name: a step-hot
        // filter agrees with the estimator when its static cost reaches
        // at least 90% of the static top-3 cutoff.
        let static_cutoff = top_static.last().map(|(_, w)| *w).unwrap_or(0);
        let agree = top_steps
            .iter()
            .filter(|(n, _)| static_work(n) * 10 >= static_cutoff * 9)
            .count();
        eprintln!(
            "{name}: top-3 static   {top_static:?}\n\
             {name}: top-3 VM steps {top_steps:?}\n\
             {name}: {agree}/3 step-hot filters are statically hot (cutoff {static_cutoff})"
        );
        assert!(
            agree >= 1,
            "{name}: the static estimate and the VM's step count disagree on every hot filter\n\
             static:   {top_static:?}\nVM steps: {top_steps:?}"
        );
    }
}

/// The profiler rides the production stride: a profiled `fmradio(10,
/// 64)` run of three sixteen-iteration batches and five more runs three
/// scaled rounds, is bit-identical to the unprofiled run, and counts
/// every filter's firings exactly — repetitions × iterations — whether
/// it times every round or one in 32.
#[test]
fn a_profiled_run_takes_the_scaled_rounds_and_counts_every_firing() {
    let p = compile("fmradio", apps::fmradio::fmradio(10, 64));
    let reps = repetition_vector(&p.flat).expect("steady state");
    let cg = p.compile_exec().expect("compiled engine accepts");
    assert_eq!(cg.batch_factor(), Some(16));
    let k = 3 * 16 + 5;
    let s = cg.plan().schedule();
    let input: Vec<f64> = (0..cg.required_input(k)).map(|i| (i % 17) as f64).collect();
    let bare = cg.run_steady(&input, k).expect("runs");
    for period in [1, 32] {
        let prof = OpProfiler::new(s.codes.len(), period);
        let shards = preload(&s, &input, k).expect("input suffices");
        let mut d = Driver::new(shards, 0, "profiled", None, Some(prof));
        assert_eq!(d.drive(&s, k), Ok((k, Stop::Budget)));
        assert_eq!(d.scaled_rounds(), 3, "period {period}");
        let (shards, prof) = d.into_parts();
        let out = read_output(&shards, s.ext_out).expect("reads");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&bare), "period {period}");
        let report = prof.expect("attached").report(s.codes);
        let mut filters = 0;
        for (i, node) in p.flat.nodes.iter().enumerate() {
            if let Some(f) = report.get(&node.name) {
                assert_eq!(f.firings, reps[i] * k, "{} at period {period}", node.name);
                filters += 1;
            }
        }
        assert_eq!(filters, report.filters.len(), "period {period}");
        assert!(filters >= 10, "{filters} filters at period {period}");
    }
}

// ---------------------------------------------------------------------
// Golden CLI tests.
// ---------------------------------------------------------------------

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
        .filter_map(|l| l.strip_prefix("y[").and_then(|l| l.split(" = ").nth(1)))
        .filter_map(|v| v.trim().parse().ok())
        .collect()
}

#[test]
fn profile_flag_prints_cost_table_and_identical_outputs() {
    let file = fmradio_str();
    let (plain, _, code) = run_streamitc(&[&file, "--run", "8", "--engine", "compiled"]);
    assert_eq!(code, Some(0), "plain run");
    let (profiled, _, code) = run_streamitc(&[&file, "--run", "8", "--profile"]);
    assert_eq!(code, Some(0), "profiled run");
    assert!(
        profiled.contains("== profile (compiled engine, 1-in-32 sampling) =="),
        "missing profile table header:\n{profiled}"
    );
    assert!(
        profiled.contains("ns/firing") || profiled.contains("ns_per_firing"),
        "profile table lacks a ns/firing column:\n{profiled}"
    );
    let a = parse_outputs(&plain);
    let b = parse_outputs(&profiled);
    assert!(!a.is_empty(), "plain run produced no outputs:\n{plain}");
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "profiled run is not bit-identical"
    );
}

#[test]
fn profile_flags_without_run_are_usage_errors() {
    let file = fmradio_str();
    let (_, _, code) = run_streamitc(&[&file, "--profile"]);
    assert_eq!(
        code,
        Some(2),
        "--profile without --run must be a usage error"
    );
    // A profile is a serial compiled-engine run: flags it would have to
    // ignore are rejected, not dropped.
    for extra in [
        &["--engine", "reference"][..],
        &["--engine", "parallel"][..],
        &["--threads", "2"][..],
        &["--watchdog-ms", "100"][..],
        &["--on-engine-fault", "error"][..],
        &["--inject-fault", "panic@0:1"][..],
    ] {
        let args = [&[&file[..], "--run", "4", "--profile"][..], extra].concat();
        let (out, err, code) = run_streamitc(&args);
        assert_eq!(
            code,
            Some(2),
            "--profile with {extra:?} must be a usage error"
        );
        assert!(
            err.contains(extra[0]),
            "stderr must name {}: {err}",
            extra[0]
        );
        assert!(!out.contains("y[0]"), "{extra:?}: nothing may run:\n{out}");
    }
    let (_, err, code) = run_streamitc(&[&file, "--run", "4", "--profile", "--engine", "compiled"]);
    assert_eq!(
        code,
        Some(0),
        "--engine compiled is what --profile runs: {err}"
    );
}

/// The measured-cost planner's flags are gone, not ignored.
#[test]
fn removed_planner_flags_are_usage_errors() {
    let file = fmradio_str();
    for flag in [
        &["--profile-in", "x"][..],
        &["--profile-out", "x"][..],
        &["--replan-threshold", "2"][..],
    ] {
        let args = [&[&file[..], "--run", "4", "--engine", "parallel"][..], flag].concat();
        let (_, _, code) = run_streamitc(&args);
        assert_eq!(code, Some(2), "{flag:?} must be a usage error");
    }
}
