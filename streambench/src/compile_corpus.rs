//! `compile-corpus`: the compiler as a product.  One pass compiles the
//! 39 programs of [`crate::corpus`] from source (or builder) to a
//! verified program, lowers each for the compiled engine and plans it
//! for two workers; the FIR subset is compiled a second time under
//! `LinearMode::Frequency`.  Frontend, analysis, linear, sdep,
//! `exec::plan` and `rt::plan` do all the work; the engines run nothing.

use streamit::linear::LinearMode;

use crate::compile::{self, PlanCounts};
use crate::corpus::{corpus, Program};
use crate::harness::{
    paired_window, peak_rss_mib, time_calls, window, window_in_rounds, HostClock, RunCfg, Setups,
};
use crate::metrics::Report;
use crate::prng::Rng;
use crate::stats::summarize;
use crate::trace::{totals_by_name, Tracer};
use crate::verify::{check_prefix, Tolerance};

/// Slices of the timed window (two seconds each by default: four or
/// five passes), and first-output probes per burst between them.
const ROUNDS: u32 = 5;
const PROBES: usize = 50;

/// Which engines took a program; must not change from pass to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Status {
    exec: bool,
    parallel: bool,
    /// Kernels lowered under `Frequency` (FIR subset only).
    kernels: Option<usize>,
}

fn compile_program(p: &Program, tr: &Tracer) -> Result<Status, String> {
    tr.span("program", || {
        let program = compile::compile_traced(&p.source, compile::options(None), tr)?;
        let exec = compile::lower(&program, tr).is_ok();
        let parallel = compile::plan_parallel(&program, 2, tr).is_ok();
        let kernels = if p.linear {
            let opts = compile::options(Some(LinearMode::Frequency));
            let translated = compile::compile_traced(&p.source, opts, tr)?;
            let graph = compile::lower(&translated, tr).map_err(|e| e.to_string())?;
            Some(graph.kernel_filters())
        } else {
            None
        };
        Ok(Status {
            exec,
            parallel,
            kernels,
        })
    })
}

/// The compiles of one pass again, phase by phase in spans of `tr`.
fn phases_pass(programs: &[Program], tr: &Tracer) -> Result<(), String> {
    tr.span("phases", || {
        for p in programs {
            compile::time_phases(&p.source, compile::options(None), tr)?;
            if p.linear {
                let opts = compile::options(Some(LinearMode::Frequency));
                compile::time_phases(&p.source, opts, tr)?;
            }
        }
        Ok(())
    })
}

/// One pass over the corpus; per-program seconds go to `each`.
fn pass(programs: &[Program], tr: &Tracer, each: &mut Vec<f64>) -> Vec<Result<Status, String>> {
    tr.span("pass", || {
        let mut clock = HostClock::start();
        programs
            .iter()
            .map(|p| {
                let (s, secs) = clock.time(|| compile_program(p, tr));
                each.push(secs);
                s
            })
            .collect()
    })
}

struct Ready {
    programs: Vec<Program>,
    /// The first, cold pass: what every later pass must repeat.
    first: Vec<Result<Status, String>>,
}

/// Generate the corpus and make the first pass, the one that fills
/// whatever the compiler keeps between compiles.
fn setup(rng: &Rng) -> Ready {
    let programs = corpus(rng);
    let first = pass(&programs, &Tracer::off(), &mut Vec::new());
    Ready { programs, first }
}

/// A timed pass is correct when every program compiles with the status
/// it had in the first pass.
fn compare(ready: &Ready, got: &[Result<Status, String>]) -> Result<(), String> {
    let mut bad = 0;
    let mut why = String::new();
    for ((p, first), now) in ready.programs.iter().zip(&ready.first).zip(got) {
        if now.is_err() || first != now {
            bad += 1;
            if why.is_empty() {
                why = format!("{}: {now:?}, first pass {first:?}", p.name);
            }
        }
    }
    if bad == 0 {
        Ok(())
    } else {
        Err(format!("{bad} programs failed or changed status; {why}"))
    }
}

/// The generated programs the compiled engine accepts must also compute
/// what the reference interpreter computes.
fn check_outputs(ready: &Ready, rng: &Rng, report: &mut Report) {
    let input = rng.fork(0xCC).signal(2048);
    for p in ready.programs.iter().filter(|p| p.name.starts_with("gen-")) {
        let checked = compile::compile(&p.source, compile::options(None)).and_then(|program| {
            let Ok(graph) = program.compile_exec() else {
                return Ok(());
            };
            let want = program.run(&input, 256).map_err(|e| e.to_string())?;
            let got = graph.run_collect(&input, 256).map_err(|e| e.to_string())?;
            check_prefix(&p.name, Tolerance::Bit, &got, &want, 256)
        });
        if let Err(e) = checked {
            report.fail(e);
        }
    }
}

/// Source text to first output item of one mid-sized corpus program.
fn first_output(ready: &Ready, input: &[f64]) -> Result<(), String> {
    let p = ready
        .programs
        .iter()
        .find(|p| p.name == "gen-fir-pipeline-3")
        .ok_or("the corpus lost its 16-stage FIR pipeline")?;
    let program = compile::compile(&p.source, compile::options(None))?;
    let graph = program.compile_exec().map_err(|e| e.to_string())?;
    let out = graph.run_collect(input, 1).map_err(|e| e.to_string())?;
    std::hint::black_box(out);
    Ok(())
}

pub fn run(cfg: &RunCfg, report: &mut Report) {
    let rng = Rng::new(cfg.seed);
    if cfg.trace {
        return run_traced(cfg, &rng, report);
    }
    let mut setups = Setups::default();
    let ready = setups.once(|| setup(&rng));
    if let Some((p, Err(e))) = ready
        .programs
        .iter()
        .zip(&ready.first)
        .find(|(_, s)| s.is_err())
    {
        report.fail(format!("{}: {e}", p.name));
    }
    check_outputs(&ready, &rng, report);

    // One more set-up and a burst of first-output probes after each
    // round of the window.
    let input = rng.fork(0xF0).signal(2048);
    let mut errors = Vec::new();
    let mut first = Vec::with_capacity(PROBES * ROUNDS as usize);
    let aside = |_| {
        drop(setups.once(|| setup(&rng)));
        first.extend(time_calls(PROBES, || {
            if let Err(e) = first_output(&ready, &input) {
                errors.push(e);
            }
        }));
    };

    let off = Tracer::off();
    let mut each = Vec::with_capacity(1 << 16);
    let programs = ready.programs.len();
    let batch = || {
        let got = pass(&ready.programs, &off, &mut each);
        compare(&ready, &got)
    };
    let w = window_in_rounds(cfg.seconds, ROUNDS, &mut report.errors, batch, aside);
    report.attempted = (w.seconds.len() * programs) as u64;
    report.failed = w.failed;
    report.set_timing("compile_ms", w.summary(), 1e3);
    report.set_rate("items_per_s", programs as f64, w.summary());
    // Per-program latency over every timed pass (the warm-up pass's
    // samples come first; drop them).
    report.set_tail(&each.split_off(programs));
    if let Some(e) = errors.first() {
        report.fail(format!("first output: {e}"));
    }
    report.set_timing("first_output_us", summarize(&first), 1e6);
    report.set_timing("setup_s", setups.summary(), 1.0);
    report.set("peak_rss_mib", peak_rss_mib());
}

fn run_traced(cfg: &RunCfg, rng: &Rng, report: &mut Report) {
    let tr = Tracer::on(cfg.workload, 1 << 17);
    let off = Tracer::off();
    let ready = setup(rng);
    let programs = ready.programs.len();

    // Untraced and traced passes alternate inside one window.
    let mut order = rng.fork(0x7A);
    let (w, plain, traced) =
        paired_window(cfg.share(0.7), &mut order, &mut report.errors, |traced| {
            let got = pass(
                &ready.programs,
                if traced { &tr } else { &off },
                &mut Vec::new(),
            );
            compare(&ready, &got)
        });
    report.attempted = (w.seconds.len() * programs) as u64;
    report.failed = w.failed;
    report.set_overhead(programs as f64, &plain, &traced);

    // The phases inside `core.compile`, timed in a window of their own.
    let ph = Tracer::on(cfg.workload, 1 << 15);
    window(cfg.share(0.15), &mut report.errors, || {
        phases_pass(&ready.programs, &ph)
    });

    // Exact counts over the corpus, and the optimizer-off lowering,
    // taken once outside the windows.
    let extra = Tracer::on(cfg.workload, 1 << 10);
    let mut counts = PlanCounts::default();
    let (mut nodes, mut replaced, mut stages, mut fissed) = (0usize, 0usize, 0usize, 0usize);
    let (mut exec_declined, mut rt_declined) = (0u32, 0u32);
    let mut source_kib = 0.0;
    for p in &ready.programs {
        source_kib += p.source.kib();
        let Ok(program) = compile::compile(&p.source, compile::options(None)) else {
            continue;
        };
        nodes += program.flat.nodes.len();
        match program.compile_exec() {
            Ok(g) => counts.add(PlanCounts::of(&g)),
            Err(_) => exec_declined += 1,
        }
        match program.compile_parallel(2) {
            Ok(pg) => {
                stages += pg.stages();
                fissed += pg.fission_report().len();
            }
            Err(_) => rt_declined += 1,
        }
        compile::lower_opt0(&program, &extra);
        if p.linear {
            let opts = compile::options(Some(LinearMode::Frequency));
            if let Ok(translated) = compile::compile(&p.source, opts) {
                replaced += translated.linear_report.map_or(0, |r| r.extracted);
            }
        }
    }
    counts.report(report);
    report.set("frontend.source_kib", source_kib);
    report.set("graph.flat_nodes", nodes as f64);
    report.set("linear.filters_replaced", replaced as f64);
    report.set("rt.stages", stages as f64);
    report.set("rt.fissed_regions", fissed as f64);
    report.set("exec.declined_programs", f64::from(exec_declined));
    report.set("rt.declined_programs", f64::from(rt_declined));
    report.set("exec.items_in_per_batch", programs as f64);
    report.set("exec.items_out_per_batch", programs as f64);

    // Milliseconds per pass in each phase, and how much of a traced
    // pass the phases add up to.  Each tracer's totals are per pass of
    // its own kind; no span name occurs in two of them.
    let per_pass = |tr: &Tracer, pass: &str| {
        let totals = totals_by_name(&tr.spans());
        let passes = totals.get(pass).map_or(1, |t| t.count.max(1)) as f64;
        move |name: &str| {
            totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e6 / passes)
        }
    };
    let (in_pass, in_phases, in_extra) = (
        per_pass(&tr, "pass"),
        per_pass(&ph, "phases"),
        per_pass(&extra, ""),
    );
    let phases_ms = compile::report_phases(report, |name| {
        in_pass(name) + in_phases(name) + in_extra(name)
    });
    report.set("core.phase_coverage", phases_ms / in_pass("pass"));
    crate::write_trace(cfg, &[tr.spans(), ph.spans(), extra.spans()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_repeats_its_statuses_and_the_outputs_check() {
        let rng = Rng::new(2);
        let ready = setup(&rng);
        assert_eq!(ready.programs.len(), 39);
        let again = pass(&ready.programs, &Tracer::off(), &mut Vec::new());
        compare(&ready, &again).unwrap();
        // The corpus is not vacuous: some programs run on each engine,
        // some are declined, and the FIR subset gets kernels.
        let ok: Vec<Status> = again.into_iter().map(Result::unwrap).collect();
        assert!(ok.iter().any(|s| s.exec) && ok.iter().any(|s| !s.exec));
        assert!(ok.iter().any(|s| s.parallel) && ok.iter().any(|s| !s.parallel));
        assert!(ok.iter().filter_map(|s| s.kernels).all(|k| k > 0));
        let mut r = Report::default();
        check_outputs(&ready, &rng, &mut r);
        assert!(r.correct(), "{:?}", r.errors);
        first_output(&ready, &rng.fork(1).signal(2048)).unwrap();
    }

    #[test]
    fn a_changed_status_fails_the_pass() {
        let mut ready = setup(&Rng::new(2));
        let again = pass(&ready.programs, &Tracer::off(), &mut Vec::new());
        if let Ok(s) = &mut ready.first[0] {
            s.exec = !s.exec;
        }
        assert!(compare(&ready, &again).is_err());
    }
}
