//! `teleport-fallback`: a frequency-hopping radio written as source
//! text with the paper's control messaging (`send`, `handler`,
//! `register`), run the way a user runs it: ask for the parallel engine
//! and let `run_supervised` find an engine that accepts the program.
//!
//! Today both fast engines decline teleport messaging (E0701), so the
//! reference interpreter under `sdep::ConstrainedExecutor` does all the
//! work.  Closing E0701 should move this workload and no other.

use streamit::graph::Value;
use streamit::interp::Machine;
use streamit::{CompiledProgram, Engine, SupervisorConfig};

use crate::compile::{self, Source};
use crate::harness::{
    paired_window, peak_rss_mib, time_calls, window, window_in_rounds, RunCfg, Setups,
};
use crate::metrics::Report;
use crate::prng::Rng;
use crate::stats::summarize;
use crate::steady::{CHECKED_PREFIX, PROBES, ROUNDS, SETUP_SHARE};
use crate::trace::Tracer;
use crate::verify::{check_prefix, Tolerance};

/// Output items per batch: about 2 ms on the interpreter, after the
/// 0.4 ms the two declined lowerings take on every call.
const BATCH_ITEMS: usize = 512;

/// Mixer, 16-tap low-pass, and a detector that looks at 64 items at a
/// time and retunes the mixer upstream of it after every look, the
/// message landing exactly four detector firings later.
fn radio(sends: bool) -> String {
    let (send_loud, send_quiet, register) = if sends {
        (
            "send hop.retune(0.5) [4, 4];",
            "send hop.retune(1.0) [4, 4];",
            "register hop rf;",
        )
    } else {
        ("", "", "")
    };
    format!(
        r#"
float->float filter Mixer() {{
    float gain;
    init {{ gain = 1.0; }}
    work pop 1 push 1 {{ push(pop() * gain); }}
    handler retune(float g) {{ gain = g; }}
}}
float->float filter LowPass(int N) {{
    float[N] h;
    init {{
        float m = N - 1.0;
        for (int i = 0; i < N; i++) {{
            float x = i - m / 2.0;
            float sinc = 0.6;
            if (x != 0.0)
                sinc = sin(2.0 * pi * 0.3 * x) / (pi * x);
            h[i] = sinc * (0.54 - 0.46 * cos(2.0 * pi * i / m));
        }}
    }}
    work peek N pop 1 push 1 {{
        float s = 0.0;
        for (int i = 0; i < N; i++) s += peek(i) * h[i];
        push(s);
        pop();
    }}
}}
float->float filter Detector(int W) {{
    work peek W pop W push W {{
        float e = 0.0;
        for (int i = 0; i < W; i++) e += abs(peek(i));
        if (e / W > 0.25) {{
            {send_loud}
        }} else {{
            {send_quiet}
        }}
        for (int i = 0; i < W; i++) push(pop());
    }}
}}
float->float pipeline Main() {{
    add Mixer() as rf;
    add LowPass(16);
    add Detector(64);
    {register}
}}
"#
    )
}

struct Ready {
    program: CompiledProgram,
    input: Vec<f64>,
    compile_s: f64,
}

fn setup(rng: &Rng) -> Result<Ready, String> {
    let t0 = std::time::Instant::now();
    let program = compile::compile(&Source::Text(radio(true)), compile::options(None))?;
    // What `run_supervised` will find out again on every call.
    let _ = program.compile_parallel(2);
    let _ = program.compile_exec();
    let compile_s = t0.elapsed().as_secs_f64();
    let input = rng
        .fork(0x7E)
        .signal(CHECKED_PREFIX.max(BATCH_ITEMS) + 1024);
    Ok(Ready {
        program,
        input,
        compile_s,
    })
}

fn supervised(ready: &Ready, n: usize) -> Result<streamit::RunOutcome, String> {
    let out = ready
        .program
        .run_supervised(
            Engine::Parallel { threads: 2 },
            &ready.input,
            n,
            &SupervisorConfig::default(),
        )
        .map_err(|e| e.to_string())?;
    if out.output.len() < n {
        return Err(format!("asked for {n} items, got {}", out.output.len()));
    }
    Ok(out)
}

fn check(ready: &Ready, report: &mut Report) {
    let checked = ready
        .program
        .run(&ready.input, CHECKED_PREFIX)
        .map_err(|e| format!("reference interpreter: {e}"))
        .and_then(|want| {
            let got = supervised(ready, CHECKED_PREFIX)?;
            check_prefix(
                "teleport-fallback",
                Tolerance::Bit,
                &got.output,
                &want,
                CHECKED_PREFIX,
            )?;
            // The messages must have had an effect, or the check above
            // compared two runs of a radio that never retuned.
            let untuned = compile::compile(&Source::Text(radio(false)), compile::options(None))?
                .run(&ready.input, CHECKED_PREFIX)
                .map_err(|e| e.to_string())?;
            if untuned[..CHECKED_PREFIX] == want[..CHECKED_PREFIX] {
                return Err("the radio never retuned: no message changed the output".into());
            }
            Ok(())
        });
    if let Err(e) = checked {
        report.fail(e);
    }
}

pub fn run(cfg: &RunCfg, report: &mut Report) {
    let rng = Rng::new(cfg.seed);
    if cfg.trace {
        return run_traced(cfg, &rng, report);
    }
    let mut compile_s = Vec::new();
    let mut setups = Setups::default();
    let mut set_up = || {
        let r = setup(&rng);
        if let Ok(r) = &r {
            compile_s.push(r.compile_s);
        }
        r
    };
    let ready = match setups.once(&mut set_up) {
        Ok(r) => r,
        Err(e) => return report.fail(format!("set-up: {e}")),
    };
    check(&ready, report);

    // Probes and set-ups in a burst after each of the window's rounds,
    // as in `steady.rs`.
    let mut first = Vec::with_capacity(PROBES * ROUNDS as usize);
    let aside = |_| {
        first.extend(time_calls(PROBES, || {
            let _ = std::hint::black_box(supervised(&ready, 1));
        }));
        setups.burst(cfg.share(SETUP_SHARE), &mut set_up);
    };
    let batch = || supervised(std::hint::black_box(&ready), BATCH_ITEMS).map(drop);
    let w = window_in_rounds(cfg.seconds, ROUNDS, &mut report.errors, batch, aside);
    report.attempted = w.seconds.len() as u64;
    report.failed = w.failed;
    report.set_rate("items_per_s", BATCH_ITEMS as f64, w.summary());
    report.set_tail(&w.seconds);
    report.set_timing("first_output_us", summarize(&first), 1e6);
    report.set_timing("setup_s", setups.summary(), 1.0);
    let compile_s = setups.corrected(&compile_s);
    report.set_timing("compile_ms", summarize(&compile_s), 1e3);
    report.set("peak_rss_mib", peak_rss_mib());
}

fn run_traced(cfg: &RunCfg, rng: &Rng, report: &mut Report) {
    let tr = Tracer::on(cfg.workload, 1 << 16);
    let ready = match tr.span("setup", || setup(rng)) {
        Ok(r) => r,
        Err(e) => return report.fail(format!("set-up: {e}")),
    };
    let phases = compile::phase_metrics(
        &Source::Text(radio(true)),
        compile::options(None),
        cfg.workload,
        report,
    );
    report.set("frontend.source_kib", Source::Text(radio(true)).kib());
    report.set("graph.flat_nodes", ready.program.flat.nodes.len() as f64);
    let declined = |yes: bool| if yes { 1.0 } else { 0.0 };
    report.set(
        "exec.declined_programs",
        declined(compile::declined(&ready.program.compile_exec())),
    );
    report.set(
        "rt.declined_programs",
        declined(compile::declined(&ready.program.compile_parallel(2))),
    );
    match supervised(&ready, BATCH_ITEMS) {
        Err(e) => report.fail(e),
        Ok(out) => {
            report.set("core.fallback_rungs", out.attempts.len() as f64);
            // 1 = parallel, 2 = compiled, 3 = reference (0: not run).
            let rung = match out.engine {
                Engine::Parallel { .. } => 1.0,
                Engine::Compiled => 2.0,
                Engine::Reference => 3.0,
            };
            report.set("core.final_engine_rung", rung);
        }
    }
    report.set("exec.items_in_per_batch", ready.input.len() as f64);
    report.set("exec.items_out_per_batch", BATCH_ITEMS as f64);

    let mut order = rng.fork(0x7A);
    let (w, plain, traced) =
        paired_window(cfg.share(0.5), &mut order, &mut report.errors, |traced| {
            let run = || supervised(&ready, BATCH_ITEMS).map(drop);
            if traced {
                tr.span("core.run_supervised", run)
            } else {
                run()
            }
        });
    report.attempted = w.seconds.len() as u64;
    report.failed = w.failed;
    report.set_overhead(BATCH_ITEMS as f64, &plain, &traced);

    // The layers under the ladder: the interpreter with the constraint
    // checks and live messages, then the bare machine on the same radio
    // with the sends taken out.
    let w = window(cfg.share(0.2), &mut report.errors, || {
        ready
            .program
            .run(&ready.input, BATCH_ITEMS)
            .map(drop)
            .map_err(|e| e.to_string())
    });
    report.set_rate(
        "sdep.constrained_items_per_s",
        BATCH_ITEMS as f64,
        w.summary(),
    );
    match compile::compile(&Source::Text(radio(false)), compile::options(None)) {
        Err(e) => report.fail(format!("radio without sends: {e}")),
        Ok(plain_radio) => {
            let w = window(cfg.share(0.2), &mut report.errors, || {
                let mut m = Machine::new(&plain_radio.flat);
                m.feed(ready.input.iter().map(|&v| Value::Float(v)));
                m.run_until_output(BATCH_ITEMS, u64::MAX)
                    .map_err(|e| e.to_string())?;
                if m.output().len() < BATCH_ITEMS {
                    return Err("the bare machine stopped early".into());
                }
                Ok(())
            });
            report.set_rate("interp.items_per_s", BATCH_ITEMS as f64, w.summary());
        }
    }
    crate::write_trace(cfg, &[tr.spans(), phases]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_radio_retunes_and_both_fast_engines_decline_it() {
        let ready = setup(&Rng::new(1)).unwrap();
        assert_eq!(ready.program.portals.len(), 1);
        assert!(compile::declined(&ready.program.compile_exec()));
        assert!(compile::declined(&ready.program.compile_parallel(2)));
        let mut r = Report::default();
        check(&ready, &mut r);
        assert!(r.correct(), "{:?}", r.errors);
        let out = supervised(&ready, 256).unwrap();
        assert_eq!(out.engine, Engine::Reference);
        assert_eq!(out.attempts.len(), 2);
    }
}
