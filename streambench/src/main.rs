//! `streambench`: one benchmark for the whole stack.
//!
//! ```text
//! streambench run    [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//! streambench trace  [--workload NAME] [--seed N] [--seconds S] [--out FILE]
//! streambench check  [--seed N] [--seconds S]
//! streambench driver --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `run` prints every end-to-end metric of every workload and checks the
//! outputs; `trace` repeats the run with spans on, prints the per-layer
//! metrics and writes `target/streambench/trace.json`; `check` makes two
//! sets of runs (three runs each, a set reading their median) and fails
//! if the sets disagree by more than the bounds.
//! `driver` is the form `BENCHMARK.json` names: one workload, one mode,
//! in this process, the result as one JSON line.  The other three run
//! each workload through `driver` in a child process, so that
//! `peak_rss_mib` is the workload's own.  README.md has the rest.

mod compile;
mod compile_corpus;
mod corpus;
mod handwritten;
mod harness;
mod json;
mod metrics;
mod prng;
mod serve;
mod stats;
mod steady;
mod teleport;
mod trace;
mod verify;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::RunCfg;
use json::Json;
use metrics::{Better, MetricDef, Report, END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 7] = [
    "compile-corpus",
    "fir-vm",
    "fir-kernel",
    "sort-dispatch",
    "pipeline-par2",
    "teleport-fallback",
    "serve-closed",
];

/// `run_seconds` of `BENCHMARK.json`: the timed window when `--seconds`
/// is not given.
pub const RUN_SECONDS: f64 = 10.0;

/// Runs per set of `check`; a set reads their median, because single
/// runs on a shared host disagree by more than the bounds.
const CHECK_RUNS: usize = 3;

/// Run one workload in this process.
fn run_workload(cfg: &RunCfg) -> Report {
    let mut report = Report::default();
    match WORKLOADS[cfg.workload as usize] {
        "compile-corpus" => compile_corpus::run(cfg, &mut report),
        "teleport-fallback" => teleport::run(cfg, &mut report),
        "serve-closed" => serve::run(cfg, &mut report),
        name => match steady::SPECS.iter().find(|s| s.name == name) {
            Some(spec) => spec.run(cfg, &mut report),
            None => report.fail(format!("no workload `{name}`")),
        },
    }
    report
}

/// Write the traced run's spans as Chrome trace events, one per line,
/// where the `trace` command asked for them.
pub fn write_trace(cfg: &RunCfg, threads: &[Vec<trace::Span>]) {
    let Some(path) = &cfg.trace_out else {
        return;
    };
    let name = WORKLOADS[cfg.workload as usize];
    let mut text = String::new();
    for (tid, spans) in threads.iter().enumerate() {
        for event in trace::chrome_events(spans, tid as u32, name) {
            text.push_str(&event);
            text.push('\n');
        }
    }
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("streambench: cannot write {}: {e}", path.display());
    }
}

/// The command line after the subcommand.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "no workload `{value}` (one of: {})",
                        WORKLOADS.join(", ")
                    ));
                }
                a.workload = Some(value.clone());
            }
            "--seed" => a.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("bad window `{value}` (seconds, at most 60)"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            "--trace-out" => a.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(a)
}

/// `driver`: the contract of `BENCHMARK.json`.  A table for people
/// first, the result object as the last line.
fn driver(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("driver needs --workload")?;
    let index = WORKLOADS.iter().position(|w| *w == name).unwrap_or(0);
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        workload: index as u32,
        trace_out: args.trace_out.clone(),
    };
    let report = run_workload(&cfg);
    let defs = metrics::defs(cfg.trace);
    println!(
        "{name}: seed {} window {} s {}",
        cfg.seed,
        cfg.seconds,
        if cfg.trace { "traced" } else { "untraced" }
    );
    print!("{}", report.table(defs));
    println!(
        "  failed_share {} ({} of {})",
        metrics::number(report.failed as f64 / report.attempted.max(1) as f64),
        report.failed,
        report.attempted
    );
    for e in &report.errors {
        println!("  error: {e}");
    }
    println!("{}", report.result_line(defs));
    Ok(())
}

/// One child's result: the parsed last line of its output.
struct Outcome {
    workload: &'static str,
    line: String,
    result: Json,
}

impl Outcome {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    fn count(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn correct(&self) -> bool {
        self.result.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

/// Run one workload through `driver` in a child process; its table goes
/// to our output unless `quiet`.
fn child(
    workload: &'static str,
    args: &Args,
    trace: bool,
    trace_out: Option<&Path>,
    quiet: bool,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("driver")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(p) = trace_out {
        cmd.arg("--trace-out").arg(p);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("{workload}: cannot start: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let line = lines.pop().unwrap_or("").to_string();
    if !quiet {
        for l in &lines {
            println!("{l}");
        }
    }
    if !out.status.success() {
        return Err(format!(
            "{workload}: the child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let result = json::parse(&line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    Ok(Outcome {
        workload,
        line,
        result,
    })
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .copied()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect()
}

/// `run` and `trace`: every selected workload, each in its own child.
fn orchestrate(args: &Args, trace: bool) -> Result<(), String> {
    let dir = Path::new("target/streambench");
    if trace {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut outcomes = Vec::new();
    let mut events = Vec::new();
    for w in selected(args) {
        let part = dir.join(format!("trace-{w}.jsonl"));
        let o = child(w, args, trace, trace.then_some(part.as_path()), false)?;
        if trace {
            if let Ok(text) = std::fs::read_to_string(&part) {
                events.extend(text.lines().map(str::to_string));
            }
            let _ = std::fs::remove_file(&part);
        }
        outcomes.push(o);
    }
    if trace {
        let path = dir.join("trace.json");
        let text = format!("{{\"traceEvents\": [\n{}\n]}}\n", events.join(",\n"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} spans written to {}", events.len(), path.display());
    }
    if let Some(path) = &args.out {
        let rows: Vec<String> = outcomes
            .iter()
            .map(|o| format!("    {}: {}", json::quote(o.workload), o.line))
            .collect();
        let text = format!(
            "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"traced\": {trace},\n  \
             \"workloads\": {{\n{}\n  }}\n}}\n",
            args.seed,
            args.seconds,
            rows.join(",\n")
        );
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let wrong: Vec<&str> = outcomes
        .iter()
        .filter(|o| !o.correct() || o.count("failed") > 0.0)
        .map(|o| o.workload)
        .collect();
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "wrong output or failed operations on: {}",
            wrong.join(", ")
        ))
    }
}

/// `b` against `a`: the share of `a` by which `b` is worse (negative
/// when better).
fn worse_by(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// One set of `check`: per workload, the untraced and the traced runs.
type Set = Vec<(&'static str, Vec<Outcome>, Vec<Outcome>)>;

/// Median of a metric over the runs of one set.
fn median_of(runs: &[Outcome], name: &str) -> f64 {
    stats::median(&runs.iter().map(|o| o.metric(name)).collect::<Vec<f64>>())
}

/// Compare two sets of runs of the same code; returns what disagrees.
fn disagreements(sets: &[Set; 2]) -> Vec<String> {
    let mut bad = Vec::new();
    for (w, e1, t1) in &sets[0] {
        let Some((_, e2, t2)) = sets[1].iter().find(|(name, ..)| name == w) else {
            continue;
        };
        for o in e1.iter().chain(t1).chain(e2).chain(t2) {
            if !o.correct() {
                bad.push(format!("{w}: outputs are wrong"));
            }
            if o.count("failed") > 0.0 {
                bad.push(format!("{w}: {} operations failed", o.count("failed")));
            }
        }
        for d in END_TO_END {
            let (a, b) = (median_of(e1, d.name), median_of(e2, d.name));
            // Either set may have been the slow one.
            let gap = worse_by(d, a, b).max(worse_by(d, b, a));
            if gap > d.bound {
                bad.push(format!(
                    "{w}: {} reads {a} and {b} {}, {:.1} % apart, bound {:.0} %",
                    d.name,
                    d.unit,
                    gap * 100.0,
                    d.bound * 100.0
                ));
            }
        }
        for d in PER_LAYER.iter().filter(|d| d.exact) {
            let mut seen: Vec<f64> = t1.iter().chain(t2).map(|o| o.metric(d.name)).collect();
            seen.dedup();
            if seen.len() > 1 {
                bad.push(format!("{w}: the exact count {} reads {seen:?}", d.name));
            }
        }
        if *w == "compile-corpus" {
            for t in [t1, t2] {
                let coverage = median_of(t, "core.phase_coverage");
                if coverage < 0.9 {
                    bad.push(format!(
                        "{w}: the phase spans cover {:.1} % of a compile pass, under 90 %",
                        coverage * 100.0
                    ));
                }
            }
        }
    }
    bad
}

/// `check`: the whole set twice, the second time in reverse workload
/// order, [`CHECK_RUNS`] times over (a set's reading is its runs' median),
/// and compare the two sets.
fn check(args: &Args) -> Result<(), String> {
    let new_set = || -> Set {
        selected(args)
            .into_iter()
            .map(|w| (w, Vec::new(), Vec::new()))
            .collect()
    };
    let mut sets: [Set; 2] = [new_set(), new_set()];
    for round in 0..CHECK_RUNS {
        for (n, set) in sets.iter_mut().enumerate() {
            let mut order: Vec<usize> = (0..set.len()).collect();
            if n == 1 {
                order.reverse();
            }
            for i in order {
                let (w, e2e, layers) = &mut set[i];
                println!("round {} set {} {w}", round + 1, n + 1);
                e2e.push(child(w, args, false, None, true)?);
                layers.push(child(w, args, true, None, true)?);
            }
        }
    }
    let bad = disagreements(&sets);
    for b in &bad {
        println!("DISAGREE {b}");
    }
    if bad.is_empty() {
        println!("the two sets agree within the bounds");
        Ok(())
    } else {
        Err(format!("{} disagreements", bad.len()))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let result = parse_args(rest).and_then(|args| match command {
        "driver" => driver(&args),
        "run" => orchestrate(&args, false),
        "trace" => orchestrate(&args, true),
        "check" => check(&args),
        _ => Err(
            "usage: streambench run|trace|check|driver [--workload NAME] [--seed N] \
                  [--seconds S] [--out FILE]; see streambench/README.md"
                .into(),
        ),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("streambench: {e}");
            ExitCode::from(
                if command == "check" || command == "run" || command == "trace" {
                    1
                } else {
                    2
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&strings(&[
            "--workload",
            "fir-vm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("fir-vm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (1, RUN_SECONDS, false));
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--frobnicate", "1"])).is_err());
    }

    fn outcome(workload: &'static str, metrics: &[(&str, f64)]) -> Outcome {
        let mut r = Report {
            attempted: 5,
            ..Report::default()
        };
        let defs: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (name, v) in metrics {
            let d = defs
                .iter()
                .find(|d| d.name == *name)
                .expect("a listed metric");
            r.set(d.name, *v);
        }
        let all: Vec<MetricDef> = defs.into_iter().copied().collect();
        let line = r.result_line(&all);
        Outcome {
            workload,
            result: json::parse(&line).unwrap(),
            line,
        }
    }

    #[test]
    fn check_names_the_metric_and_the_workload() {
        let pair = |ips: f64, firings: f64| -> Set {
            vec![(
                "fir-vm",
                vec![outcome("fir-vm", &[("items_per_s", ips), ("setup_s", 1.0)])],
                vec![outcome("fir-vm", &[("exec.firings_per_iter", firings)])],
            )]
        };
        assert!(disagreements(&[pair(100.0, 7.0), pair(95.0, 7.0)]).is_empty());
        let bad = disagreements(&[pair(100.0, 7.0), pair(70.0, 8.0)]);
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(
            bad[0].contains("fir-vm") && bad[0].contains("items_per_s"),
            "{bad:?}"
        );
        assert!(bad[1].contains("exec.firings_per_iter"), "{bad:?}");
        // Worse in either direction counts: the first set may be the slow one.
        assert_eq!(disagreements(&[pair(70.0, 7.0), pair(100.0, 7.0)]).len(), 1);
    }

    #[test]
    fn check_reads_each_set_by_its_median() {
        let runs = |v: &[f64]| -> Set {
            let e2e = v
                .iter()
                .map(|x| outcome("fir-vm", &[("items_per_s", *x)]))
                .collect();
            vec![("fir-vm", e2e, Vec::new())]
        };
        // One stalled run out of three does not make a disagreement.
        let calm = disagreements(&[runs(&[100.0, 101.0, 40.0]), runs(&[99.0, 100.0, 102.0])]);
        assert!(calm.is_empty(), "{calm:?}");
        assert_eq!(
            disagreements(&[runs(&[100.0, 41.0, 40.0]), runs(&[99.0, 100.0, 102.0])]).len(),
            1
        );
    }

    #[test]
    fn check_wants_the_phases_to_cover_the_compile() {
        let set = |coverage: f64| -> Set {
            vec![(
                "compile-corpus",
                vec![outcome("compile-corpus", &[("compile_ms", 100.0)])],
                vec![outcome(
                    "compile-corpus",
                    &[("core.phase_coverage", coverage)],
                )],
            )]
        };
        assert!(disagreements(&[set(0.95), set(0.95)]).is_empty());
        let bad = disagreements(&[set(0.95), set(0.5)]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("90 %"), "{bad:?}");
    }

    /// One tiny-window pass of every workload, in both modes, emits
    /// every metric `BENCHMARK.json` names and no other, and is correct.
    #[test]
    fn every_workload_emits_exactly_the_listed_metrics() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            for trace in [false, true] {
                let cfg = RunCfg {
                    seed: 11,
                    seconds: 0.05,
                    trace,
                    workload: i as u32,
                    trace_out: None,
                };
                let report = run_workload(&cfg);
                assert!(report.correct(), "{w} trace {trace}: {:?}", report.errors);
                assert_eq!(report.failed, 0, "{w} trace {trace}");
                assert!(report.attempted >= 1, "{w} trace {trace}");
                let defs = metrics::defs(trace);
                for name in report.readings.keys() {
                    assert!(
                        defs.iter().any(|d| d.name == *name),
                        "{w} trace {trace}: `{name}` is not a listed metric"
                    );
                }
                if !trace {
                    for d in defs {
                        let v = report.get(d.name);
                        assert!(v > 0.0 && v.is_finite(), "{w}: {} reads {v}", d.name);
                    }
                }
                let v = json::parse(&report.result_line(defs)).unwrap();
                assert_eq!(
                    v.get("metrics").unwrap().as_object().unwrap().len(),
                    defs.len()
                );
            }
        }
    }
}
