//! Profile-guided scheduling: characterization of the static cost
//! estimator against the VM's per-filter loop steps, and golden CLI tests
//! for the profiling flags (`--profile`, `--profile-out`/`--profile-in`
//! round trip, `--replan-threshold`, and the `E0707` diagnostic).

use streamit::exec::bytecode::Inst;
use streamit::sched::{CostModel, FilterProfile, ProfileReport, WorkGraph};
use streamit::{apps, CompiledProgram, Compiler};

/// Deterministic varied input (same shape as the bench harness).
fn varied_input(len: usize) -> Vec<f64> {
    (0..len).map(|i| ((i * 37) % 101) as f64 - 50.0).collect()
}

fn compile(name: &str, stream: streamit::graph::StreamNode) -> CompiledProgram {
    Compiler::default()
        .compile_stream(stream)
        .unwrap_or_else(|e| panic!("{name}: app graph must compile: {e}"))
}

/// The `count` hottest compute filters of a work graph, by total
/// steady-state work, hottest first.
fn hottest(wg: &WorkGraph, count: usize) -> Vec<(String, u64)> {
    let mut nodes: Vec<(String, u64)> = wg
        .nodes
        .iter()
        .filter(|n| !n.sync && !n.io)
        .map(|n| (n.name.clone(), n.work))
        .collect();
    nodes.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    nodes.truncate(count);
    nodes
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
/// estimator's ranking of the hottest filters is compared against what
/// the VM executes for them — loop steps per firing, counted off the
/// lowered bytecode and fed through the measured-cost model as if a
/// step took a nanosecond.  (This used to rank by a profiled run's wall
/// clock and failed about one optimized run in ten; the count is what
/// the clock was estimating, without the host in it.)  The estimator
/// prices source arithmetic and the VM pays per dispatch, so exact
/// agreement is not expected — but the two top-3 sets must share at
/// least one filter, and both are printed so a ranking regression shows
/// up in the test log.  Today the FIRs lead both rankings on fmradio,
/// filterbank and beamformer; bitonic's comparators, gathers and
/// scatters tie in both, so agreement there is by cost, not by name.
#[test]
fn static_and_measured_hot_filter_rankings_overlap() {
    let bench_apps: Vec<(&str, streamit::graph::StreamNode)> = vec![
        ("fmradio", apps::fmradio::fmradio(10, 64)),
        ("filterbank", apps::filterbank::filterbank(8, 32)),
        ("beamformer", apps::beamformer::beamformer(12, 4, 32)),
        ("bitonic", apps::bitonic::bitonic_sort(32)),
    ];
    for (name, stream) in bench_apps {
        let p = compile(name, stream);
        let wg_static = WorkGraph::from_flat(&p.flat)
            .unwrap_or_else(|e| panic!("{name}: static work graph must build: {e}"));

        let cg = p
            .compile_exec()
            .unwrap_or_else(|e| panic!("{name}: compiled engine must accept this app: {e}"));
        let mut prof = ProfileReport::default();
        for fc in &cg.plan().codes {
            let steps = FilterProfile {
                firings: 1,
                sampled_firings: 1,
                sampled_ns: loop_steps(&fc.name, &fc.work.code),
            };
            prof.filters.insert(fc.name.clone(), steps);
        }
        let wg_measured = WorkGraph::from_flat_costed(&p.flat, &CostModel::Measured(prof))
            .unwrap_or_else(|e| panic!("{name}: measured work graph must build: {e}"));

        let top_static = hottest(&wg_static, 3);
        let top_measured = hottest(&wg_measured, 3);
        // Symmetric apps tie many filters at identical static cost
        // (filterbank's 16 Analysis/Synthesis bands are one filter
        // repeated), so compare by *cost*, not by name: a measured-hot
        // filter agrees with the estimator when its static cost reaches
        // at least 90% of the static top-3 cutoff.
        let static_cutoff = top_static.last().map(|(_, w)| *w).unwrap_or(0);
        let static_work = |n: &str| {
            wg_static
                .nodes
                .iter()
                .find(|w| w.name == n)
                .map(|w| w.work)
                .unwrap_or(0)
        };
        let agree = top_measured
            .iter()
            .filter(|(n, _)| static_work(n) * 10 >= static_cutoff * 9)
            .count();
        eprintln!(
            "{name}: top-3 static   {top_static:?}\n\
             {name}: top-3 measured {top_measured:?}\n\
             {name}: {agree}/3 measured-hot filters are statically hot (cutoff {static_cutoff})"
        );
        assert!(
            agree >= 1,
            "{name}: static and measured cost models disagree on every hot filter\n\
             static:   {top_static:?}\nmeasured: {top_measured:?}"
        );
    }
}

/// Measured costs must change at least one bench app's 4-thread
/// partition (otherwise profile-guided planning is a no-op and the
/// `opt` cells in BENCH_parallel.json measure nothing).
#[test]
fn measured_costs_move_at_least_one_partition() {
    let bench_apps: Vec<(&str, streamit::graph::StreamNode)> = vec![
        ("fmradio", apps::fmradio::fmradio(10, 64)),
        ("filterbank", apps::filterbank::filterbank(8, 32)),
        ("beamformer", apps::beamformer::beamformer(12, 4, 32)),
        ("bitonic", apps::bitonic::bitonic_sort(32)),
    ];
    let mut any_moved = false;
    for (name, stream) in bench_apps {
        let mut p = compile(name, stream);
        let cg = p
            .compile_exec()
            .unwrap_or_else(|e| panic!("{name}: compiled engine must accept this app: {e}"));
        let pg_static = p
            .compile_parallel(4)
            .unwrap_or_else(|e| panic!("{name}: static parallel plan must compile: {e}"));
        let k = 64u64;
        let n = (cg.init_outputs() + k * cg.outputs_per_iteration()) as usize;
        let input = varied_input(cg.required_input(k) as usize);
        let (_, prof) = p
            .profile_run(&input, n, 1)
            .unwrap_or_else(|e| panic!("{name}: profiling run failed: {e}"));
        p.set_profile(prof);
        let pg_measured = p
            .compile_parallel(4)
            .unwrap_or_else(|e| panic!("{name}: measured parallel plan must compile: {e}"));
        let moved = pg_static
            .plan()
            .stage_of_node
            .iter()
            .zip(&pg_measured.plan().stage_of_node)
            .filter(|(a, b)| a != b)
            .count();
        eprintln!(
            "{name}: measured costs moved {moved} of {} nodes",
            pg_static.plan().stage_of_node.len()
        );
        any_moved |= moved > 0;
    }
    assert!(
        any_moved,
        "measured costs left every bench app's 4-thread partition unchanged"
    );
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

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "streamitc_profile_{name}_{}.json",
        std::process::id()
    ))
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
fn profile_out_in_round_trip_is_bit_identical() {
    let file = fmradio_str();
    let path = temp_path("roundtrip");
    let path_s = path.to_str().expect("temp path is utf-8");

    let (out, err, code) = run_streamitc(&[&file, "--run", "8", "--profile-out", path_s]);
    assert_eq!(code, Some(0), "profile-out run: {err}");
    assert!(
        err.contains("wrote profile"),
        "missing profile-out confirmation: {err}"
    );
    let written = std::fs::read_to_string(&path).expect("profile file written");
    let report = streamit::sched::ProfileReport::from_json(&written)
        .unwrap_or_else(|e| panic!("written profile must parse: {e}"));
    assert!(!report.filters.is_empty(), "profile has no filters");
    let profiled_outputs = parse_outputs(&out);

    let (plain, _, code) = run_streamitc(&[
        &file,
        "--run",
        "8",
        "--engine",
        "parallel",
        "--threads",
        "2",
    ]);
    assert_eq!(code, Some(0), "plain parallel run");
    let (guided, err, code) = run_streamitc(&[
        &file,
        "--run",
        "8",
        "--engine",
        "parallel",
        "--threads",
        "2",
        "--profile-in",
        path_s,
    ]);
    assert_eq!(code, Some(0), "profile-in run: {err}");
    let a = parse_outputs(&plain);
    let b = parse_outputs(&guided);
    assert!(!a.is_empty(), "parallel run produced no outputs:\n{plain}");
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "profile-guided parallel run is not bit-identical"
    );
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        profiled_outputs
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "profiling run disagrees with the parallel engine"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn malformed_profile_file_is_e0707_exit_8() {
    let file = fmradio_str();
    let path = temp_path("malformed");
    std::fs::write(&path, "{\"version\": 1, \"filters\": [trailing garbage").unwrap();
    let (_, err, code) = run_streamitc(&[
        &file,
        "--run",
        "4",
        "--engine",
        "parallel",
        "--profile-in",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(8), "malformed profile must exit 8: {err}");
    assert!(err.contains("E0707"), "stderr must name E0707: {err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_profile_names_warn_but_run_succeeds() {
    let file = fmradio_str();
    let path = temp_path("stale");
    std::fs::write(
        &path,
        "{\"version\": 1, \"filters\": [{\"name\": \"NoSuchFilter\", \
         \"firings\": 10, \"sampled_firings\": 10, \"sampled_ns\": 5000}]}",
    )
    .unwrap();
    let (_, err, code) = run_streamitc(&[
        &file,
        "--run",
        "4",
        "--engine",
        "parallel",
        "--profile-in",
        path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stale names must only warn: {err}");
    assert!(
        err.contains("NoSuchFilter") && err.contains("matches no filter"),
        "stderr must warn about the stale name: {err}"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn replan_threshold_parses_and_rejects_bad_values() {
    let file = fmradio_str();
    let (plain, _, code) = run_streamitc(&[
        &file,
        "--run",
        "8",
        "--engine",
        "parallel",
        "--threads",
        "2",
    ]);
    assert_eq!(code, Some(0), "plain parallel run");
    let (replanned, err, code) = run_streamitc(&[
        &file,
        "--run",
        "8",
        "--engine",
        "parallel",
        "--threads",
        "2",
        "--replan-threshold",
        "1.5",
    ]);
    assert_eq!(code, Some(0), "replan-threshold run: {err}");
    let a = parse_outputs(&plain);
    let b = parse_outputs(&replanned);
    assert_eq!(
        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "re-planning run is not bit-identical"
    );

    for bad in ["0.5", "abc", "-1", "NaN"] {
        let (_, _, code) = run_streamitc(&[
            &file,
            "--run",
            "4",
            "--engine",
            "parallel",
            "--replan-threshold",
            bad,
        ]);
        assert_eq!(
            code,
            Some(2),
            "--replan-threshold {bad} must be a usage error"
        );
    }
}

#[test]
fn profile_flags_without_run_are_usage_errors() {
    let file = fmradio_str();
    for args in [
        &[&file[..], "--profile"][..],
        &[&file[..], "--profile-out", "/tmp/p.json"][..],
        &[&file[..], "--replan-threshold", "1.5"][..],
    ] {
        let (_, _, code) = run_streamitc(args);
        assert_eq!(
            code,
            Some(2),
            "{args:?} without --run must be a usage error"
        );
    }
}
