//! The four steady-state workloads: one program, one engine, a fixed
//! batch of steady iterations repeated for the window.
//!
//! | workload | program | engine | what does the work |
//! |---|---|---|---|
//! | `fir-vm` | `fmradio(10, 64)`, linear off | compiled | `exec::bytecode` dispatch, tape reads |
//! | `fir-kernel` | same, `LinearMode::Frequency` | compiled | `exec::kernel` (CSR, overlap-save FFT) |
//! | `sort-dispatch` | `bitonic_sort(32)` | compiled | plan dispatch, per-firing entry, moves |
//! | `pipeline-par2` | `filterbank(8, 32)` | parallel, 2 workers | `rt` stages, `rt::spsc` |

use std::sync::Arc;

use streamit::exec::{CompiledGraph, ExecError, SessionConfig};
use streamit::graph::StreamNode;
use streamit::linear::LinearMode;
use streamit::rt::ParallelGraph;
use streamit::{apps, CompiledProgram};

use crate::compile::{self, PlanCounts, Source};
use crate::handwritten;
use crate::harness::{
    paired_window, peak_rss_mib, time_calls, window, window_in_rounds, RunCfg, Setups, Window,
};
use crate::metrics::Report;
use crate::prng::Rng;
use crate::stats::{summarize, typical};
use crate::trace::Tracer;
use crate::verify::{check_prefix, Tolerance, REASSOCIATED};

/// Output items every workload's prefix check compares.
pub const CHECKED_PREFIX: usize = 4096;

/// Slices of the timed window; a burst of probes and set-ups runs
/// after each.
pub const ROUNDS: u32 = 10;
/// First-output probes per burst.
pub const PROBES: usize = 200;
/// Share of the window's length one burst of set-ups may take.
pub const SETUP_SHARE: f64 = 0.01;

/// A handwritten version, ready to run on an input.
type Handwritten = Box<dyn Fn(&[f64]) -> Vec<f64>>;

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    build: fn() -> StreamNode,
    linear: Option<LinearMode>,
    /// `compile_parallel(2)` instead of `compile_exec`.
    parallel: bool,
    /// Output items per batch: about 1 ms on the serial engine, so that
    /// in an hour when the hypervisor takes the CPU away every few
    /// milliseconds a tenth of the batches still run undisturbed (see
    /// `Summary::reading`).  The parallel engine spawns its workers on
    /// every call (about 0.3 ms), so its batch is 3.5 ms.
    batch_items: u64,
    /// The program's tapes carry integers.
    ints: bool,
    tolerance: Tolerance,
    /// Builds the handwritten version (set-up outside the timed calls).
    handwritten: fn() -> Handwritten,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "fir-vm",
        build: || apps::fmradio::fmradio(10, 64),
        linear: None,
        parallel: false,
        batch_items: 128,
        ints: false,
        tolerance: Tolerance::Bit,
        handwritten: || {
            let radio = handwritten::FmRadio::new(10, 64);
            Box::new(move |x| radio.run(x))
        },
    },
    Spec {
        name: "fir-kernel",
        build: || apps::fmradio::fmradio(10, 64),
        linear: Some(LinearMode::Frequency),
        parallel: false,
        batch_items: 8192,
        ints: false,
        tolerance: REASSOCIATED,
        handwritten: || {
            let radio = handwritten::FmRadio::new(10, 64);
            Box::new(move |x| radio.run(x))
        },
    },
    Spec {
        name: "sort-dispatch",
        build: || apps::bitonic::bitonic_sort(32),
        linear: None,
        parallel: false,
        batch_items: 1024,
        ints: true,
        tolerance: Tolerance::Bit,
        handwritten: || Box::new(|x| handwritten::bitonic_sort(x, 32)),
    },
    Spec {
        name: "pipeline-par2",
        build: || apps::filterbank::filterbank(8, 32),
        linear: None,
        parallel: true,
        batch_items: 1024,
        ints: false,
        tolerance: Tolerance::Bit,
        handwritten: || {
            let bank = handwritten::FilterBank::new(8, 32);
            Box::new(move |x| bank.run(x))
        },
    },
];

/// The engine under test, behind the calls both engines share.
pub enum Engine {
    Serial(CompiledGraph),
    Parallel(ParallelGraph),
}

impl Engine {
    fn span_name(&self) -> &'static str {
        match self {
            Engine::Serial(_) => "exec.run_steady",
            Engine::Parallel(_) => "rt.run_steady",
        }
    }

    pub fn run_steady(&self, input: &[f64], k: u64) -> Result<Vec<f64>, ExecError> {
        match self {
            Engine::Serial(g) => g.run_steady(input, k),
            Engine::Parallel(g) => g.run_steady(input, k),
        }
    }

    pub fn run_collect(&self, input: &[f64], n: usize) -> Result<Vec<f64>, ExecError> {
        match self {
            Engine::Serial(g) => g.run_collect(input, n),
            Engine::Parallel(g) => g.run_collect(input, n),
        }
    }

    fn required_input(&self, k: u64) -> u64 {
        match self {
            Engine::Serial(g) => g.required_input(k),
            Engine::Parallel(g) => g.required_input(k),
        }
    }

    fn init_outputs(&self) -> u64 {
        match self {
            Engine::Serial(g) => g.init_outputs(),
            Engine::Parallel(g) => g.init_outputs(),
        }
    }

    fn outputs_per_iteration(&self) -> u64 {
        match self {
            Engine::Serial(g) => g.outputs_per_iteration(),
            Engine::Parallel(g) => g.outputs_per_iteration(),
        }
    }

    /// Steady iterations that produce at least `items` outputs.
    fn iterations_for(&self, items: u64) -> u64 {
        items
            .saturating_sub(self.init_outputs())
            .div_ceil(self.outputs_per_iteration().max(1))
    }

    /// Output items of a run of `k` steady iterations.
    fn outputs_of(&self, k: u64) -> u64 {
        self.init_outputs() + k * self.outputs_per_iteration()
    }

    /// Time batches of at least `items` outputs for `seconds`; returns
    /// the iterations and outputs of one batch and the window.
    fn timed_batches(
        &self,
        input: &[f64],
        items: u64,
        seconds: f64,
        errors: &mut Vec<String>,
    ) -> (u64, u64, Window) {
        let k = self.iterations_for(items).max(1);
        let w = window(seconds, errors, || {
            self.run_steady(input, k)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        (k, self.outputs_of(k), w)
    }
}

/// Everything a batch needs, ready to run.
pub struct Ready {
    pub program: CompiledProgram,
    pub engine: Engine,
    /// Steady iterations per batch.
    pub k: u64,
    pub input: Vec<f64>,
    /// Seconds of the set-up spent compiling (builder to engine).
    pub compile_s: f64,
}

impl Spec {
    fn source(&self) -> Source {
        Source::builder(self.build)
    }

    /// From nothing to ready-to-run: compile, lower or plan, size the
    /// batch, generate the input.
    pub fn setup(&self, rng: &Rng) -> Result<Ready, String> {
        let t0 = std::time::Instant::now();
        let program = compile::compile(&self.source(), compile::options(self.linear))?;
        let engine = if self.parallel {
            Engine::Parallel(program.compile_parallel(2).map_err(|e| e.to_string())?)
        } else {
            Engine::Serial(program.compile_exec().map_err(|e| e.to_string())?)
        };
        let compile_s = t0.elapsed().as_secs_f64();
        let k = engine.iterations_for(self.batch_items).max(1);
        // Long enough for a batch and for the checked prefix; the
        // reference interpreter may look a few windows further ahead.
        let need =
            engine.required_input(k.max(engine.iterations_for(CHECKED_PREFIX as u64))) + 1024;
        let mut r = rng.fork(0x51);
        let input = if self.ints {
            r.integers(need as usize)
        } else {
            r.signal(need as usize)
        };
        Ok(Ready {
            program,
            engine,
            k,
            input,
            compile_s,
        })
    }

    /// The program the reference interpreter runs: the one under test
    /// minus the linear rewrite (the interpreter never runs optimized
    /// work functions in any case).
    fn reference_program(&self) -> Result<CompiledProgram, String> {
        compile::compile(&self.source(), compile::options(None))
    }

    pub fn run(&self, cfg: &RunCfg, report: &mut Report) {
        let rng = Rng::new(cfg.seed);
        if cfg.trace {
            self.run_traced(cfg, &rng, report);
        } else {
            self.run_end_to_end(cfg, &rng, report);
        }
    }

    fn run_end_to_end(&self, cfg: &RunCfg, rng: &Rng, report: &mut Report) {
        let mut compile_s = Vec::new();
        let mut setups = Setups::default();
        let mut set_up = || {
            let r = self.setup(rng);
            if let Ok(r) = &r {
                compile_s.push(r.compile_s);
            }
            r
        };
        let ready = match setups.once(&mut set_up) {
            Ok(r) => r,
            Err(e) => return report.fail(format!("set-up: {e}")),
        };

        let checked = self
            .reference_program()
            .and_then(|p| reference_prefix(&p, &ready.input))
            .and_then(|want| {
                let got = ready
                    .engine
                    .run_collect(&ready.input, CHECKED_PREFIX)
                    .map_err(|e| e.to_string())?;
                check_prefix(self.name, self.tolerance, &got, &want, CHECKED_PREFIX)
            });
        if let Err(e) = checked {
            report.fail(e);
        }

        // The first-output probe gets the input of one iteration, not of
        // a batch: what `run_collect` does with the rest is not a first
        // output.  Probes and set-ups run in a burst after each round of
        // the window.
        let one = (ready.engine.required_input(1) as usize).min(ready.input.len());
        let mut first = Vec::with_capacity(PROBES * ROUNDS as usize);
        let aside = |_| {
            first.extend(time_calls(PROBES, || {
                let _ = std::hint::black_box(ready.engine.run_collect(&ready.input[..one], 1));
            }));
            setups.burst(cfg.share(SETUP_SHARE), &mut set_up);
        };
        let expect = ready.engine.outputs_of(ready.k);
        let batch = || {
            let out = ready
                .engine
                .run_steady(std::hint::black_box(&ready.input), ready.k)
                .map_err(|e| e.to_string())?;
            if out.len() as u64 != expect {
                return Err(format!("batch gave {} items, not {expect}", out.len()));
            }
            std::hint::black_box(out);
            Ok(())
        };
        let w = window_in_rounds(cfg.seconds, ROUNDS, &mut report.errors, batch, aside);
        report.attempted = w.seconds.len() as u64;
        report.failed = w.failed;
        report.set_rate("items_per_s", expect as f64, w.summary());
        report.set_tail(&w.seconds);
        report.set_timing("first_output_us", summarize(&first), 1e6);
        report.set_timing("setup_s", setups.summary(), 1.0);
        let compile_s = setups.corrected(&compile_s);
        report.set_timing("compile_ms", summarize(&compile_s), 1e3);
        report.set("peak_rss_mib", peak_rss_mib());
    }

    fn run_traced(&self, cfg: &RunCfg, rng: &Rng, report: &mut Report) {
        let tr = Tracer::on(cfg.workload, 1 << 16);
        let ready = match tr.span("setup", || self.setup(rng)) {
            Ok(r) => r,
            Err(e) => return report.fail(format!("set-up: {e}")),
        };
        // The serial lowering of the same program: the plan the counts
        // come from, and the engine the parallel run is compared with.
        let serial = match &ready.engine {
            Engine::Serial(g) => g.clone(),
            Engine::Parallel(_) => match ready.program.compile_exec() {
                Ok(g) => g,
                Err(e) => return report.fail(format!("serial lowering: {e}")),
            },
        };
        let par2 = match &ready.engine {
            Engine::Parallel(g) => Some(g.clone()),
            Engine::Serial(_) => ready.program.compile_parallel(2).ok(),
        };
        if let Some(pg) = &par2 {
            report.set("rt.stages", pg.stages() as f64);
            report.set("rt.fissed_regions", pg.fission_report().len() as f64);
        }
        report.set(
            "rt.declined_programs",
            if par2.is_none() { 1.0 } else { 0.0 },
        );
        report.set("graph.flat_nodes", ready.program.flat.nodes.len() as f64);
        if let Some(r) = &ready.program.linear_report {
            report.set("linear.filters_replaced", r.extracted as f64);
        }
        let counts = PlanCounts::of(&serial);
        counts.report(report);
        let phases = compile::phase_metrics(
            &self.source(),
            compile::options(self.linear),
            cfg.workload,
            report,
        );

        // Untraced and traced batches alternate inside one window, so
        // that drift in the host's speed falls on both alike.
        let expect = ready.engine.outputs_of(ready.k);
        report.set(
            "exec.items_in_per_batch",
            ready.engine.required_input(ready.k) as f64,
        );
        report.set("exec.items_out_per_batch", expect as f64);
        let name = ready.engine.span_name();
        let mut order = rng.fork(0x7A);
        let (w, plain, traced) =
            paired_window(cfg.share(0.4), &mut order, &mut report.errors, |traced| {
                let run = || ready.engine.run_steady(&ready.input, ready.k);
                let out = if traced { tr.span(name, run) } else { run() };
                match out {
                    Ok(o) if o.len() as u64 == expect => Ok(()),
                    Ok(o) => Err(format!("batch gave {} items, not {expect}", o.len())),
                    Err(e) => Err(e.to_string()),
                }
            });
        report.attempted = w.seconds.len() as u64;
        report.failed = w.failed;
        let plain_s = report.set_overhead(expect as f64, &plain, &traced);
        let engine_rate = expect as f64 / plain_s;

        // The serial engine on the same batch: cost per firing, and the
        // base of the parallel speed-up.
        let (serial_k, serial_s) = if self.parallel {
            let (k, items, w) = Engine::Serial(serial.clone()).timed_batches(
                &ready.input,
                self.batch_items,
                cfg.share(0.08),
                &mut report.errors,
            );
            let serial_rate = items as f64 / typical(&w.seconds);
            report.set("rt.serial_items_per_s", serial_rate);
            report.set("rt.speedup_vs_serial", engine_rate / serial_rate);
            self.parallel_layers(cfg, &ready, report);
            (k, typical(&w.seconds))
        } else {
            (ready.k, plain_s)
        };
        report.set(
            "exec.ns_per_firing",
            serial_s * 1e9 / (serial_k * counts.firings.max(1)) as f64,
        );
        self.profiled(cfg, &serial, serial_k, &ready.input, report);
        self.session(cfg, &serial, &ready.input, report);
        match self.reference_program() {
            Err(e) => report.fail(e),
            Ok(reference) => {
                self.interpreter(cfg, &reference, &ready.input, report);
                self.yardstick(cfg, &reference, &ready, engine_rate, report);
            }
        }
        if self.linear.is_some() {
            self.replacement(cfg, rng, report);
        }
        crate::write_trace(cfg, &[tr.spans(), phases]);
    }

    /// `exec.profiled_work_share`: how much of a profiled run's wall
    /// time the per-filter samples account for (the rest is dispatch and
    /// moves); `exec.top_filter_share`: the largest filter's part of it.
    fn profiled(&self, cfg: &RunCfg, g: &CompiledGraph, k: u64, input: &[f64], r: &mut Report) {
        let mut shares = Vec::new();
        let mut tops = Vec::new();
        let w = window(cfg.share(0.08), &mut r.errors, || {
            let t0 = std::time::Instant::now();
            let (_, prof) = g
                .run_steady_profiled(input, k, 32)
                .map_err(|e| e.to_string())?;
            let wall_ns = t0.elapsed().as_nanos() as f64;
            let per_filter: Vec<f64> = prof
                .filters
                .values()
                .filter(|f| f.sampled_firings > 0)
                .map(|f| f.sampled_ns as f64 / f.sampled_firings as f64 * f.firings as f64)
                .collect();
            let sum: f64 = per_filter.iter().sum();
            shares.push(sum / wall_ns);
            tops.push(per_filter.iter().fold(0.0f64, |a, &b| a.max(b)) / sum.max(1.0));
            Ok(())
        });
        drop(w);
        r.set_timing("exec.profiled_work_share", summarize(&shares), 1.0);
        r.set_timing("exec.top_filter_share", summarize(&tops), 1.0);
    }

    /// `exec.session_items_per_s`: the program through the incremental
    /// `Session` interface `streamd` serves: push 64, step, pull.
    fn session(&self, cfg: &RunCfg, g: &CompiledGraph, input: &[f64], r: &mut Report) {
        let graph = Arc::new(g.clone());
        let mut items = 0u64;
        let w = window(cfg.share(0.08), &mut r.errors, || {
            let mut s = graph
                .open_session(&SessionConfig::with_buffers(4096))
                .map_err(|e| e.to_string())?;
            items = 0;
            for chunk in input.chunks(64) {
                let mut rest = chunk;
                while !rest.is_empty() {
                    let took = s.push_input(rest);
                    rest = &rest[took..];
                    s.step(u64::MAX).map_err(|e| e.to_string())?;
                    items += s.pull_output(usize::MAX).len() as u64;
                }
            }
            Ok(())
        });
        r.set_rate("exec.session_items_per_s", items as f64, w.summary());
    }

    /// `interp.items_per_s`: the same program on the reference
    /// interpreter, the anchor every engine is a multiple of.
    fn interpreter(
        &self,
        cfg: &RunCfg,
        reference: &CompiledProgram,
        input: &[f64],
        r: &mut Report,
    ) {
        let n = 256;
        let w = window(cfg.share(0.08).min(2.0), &mut r.errors, || {
            reference.run(input, n).map(drop).map_err(|e| e.to_string())
        });
        r.set_rate("interp.items_per_s", n as f64, w.summary());
    }

    /// `yardstick.*`: the handwritten version, checked, then timed on
    /// the same input in the same run.
    fn yardstick(
        &self,
        cfg: &RunCfg,
        reference: &CompiledProgram,
        ready: &Ready,
        engine_rate: f64,
        r: &mut Report,
    ) {
        let input = &ready.input[..ready.engine.required_input(ready.k) as usize];
        let handwritten = (self.handwritten)();
        let checked = reference_prefix(reference, &ready.input).and_then(|want| {
            let got = handwritten(&ready.input);
            check_prefix("handwritten", Tolerance::Bit, &got, &want, CHECKED_PREFIX)
        });
        if let Err(e) = checked {
            r.fail(e);
        }
        let mut items = 0usize;
        let w = window(cfg.share(0.08), &mut r.errors, || {
            items = std::hint::black_box(handwritten(std::hint::black_box(input))).len();
            Ok(())
        });
        r.set_rate(
            "yardstick.handwritten_items_per_s",
            items as f64,
            w.summary(),
        );
        let hand = r.get("yardstick.handwritten_items_per_s");
        r.set("yardstick.vs_handwritten", engine_rate / hand.max(1e-9));
    }

    /// `exec.kernel.replacement_items_per_s`: the same graph under
    /// `LinearMode::Replacement` (CSR kernels, no FFT).
    fn replacement(&self, cfg: &RunCfg, rng: &Rng, r: &mut Report) {
        let spec = Spec {
            linear: Some(LinearMode::Replacement),
            ..*self
        };
        let ready = match spec.setup(rng) {
            Ok(x) => x,
            Err(e) => return r.fail(format!("replacement mode: {e}")),
        };
        let (_, items, w) = ready.engine.timed_batches(
            &ready.input,
            self.batch_items,
            cfg.share(0.08).min(2.0),
            &mut r.errors,
        );
        r.set_rate(
            "exec.kernel.replacement_items_per_s",
            items as f64,
            w.summary(),
        );
    }

    /// `rt.par1_items_per_s` and `rt.spsc_items_per_s`.
    fn parallel_layers(&self, cfg: &RunCfg, ready: &Ready, r: &mut Report) {
        match ready.program.compile_parallel(1) {
            Err(e) => r.fail(format!("compile_parallel(1): {e}")),
            Ok(pg) => {
                let (_, items, w) = Engine::Parallel(pg).timed_batches(
                    &ready.input,
                    self.batch_items,
                    cfg.share(0.08),
                    &mut r.errors,
                );
                r.set_rate("rt.par1_items_per_s", items as f64, w.summary());
            }
        }
        let secs = time_calls(5, || spsc_transfer(1 << 22, 64));
        r.set_rate("rt.spsc_items_per_s", (1u64 << 22) as f64, summarize(&secs));
    }
}

/// The checked prefix of the reference interpreter's output.
fn reference_prefix(program: &CompiledProgram, input: &[f64]) -> Result<Vec<f64>, String> {
    let mut want = program
        .run(input, CHECKED_PREFIX)
        .map_err(|e| format!("reference interpreter: {e}"))?;
    want.truncate(CHECKED_PREFIX);
    Ok(want)
}

/// Two threads move `total` floats through one `rt::spsc` ring of 4096
/// slots in batches of `batch`.
fn spsc_transfer(total: u64, batch: u64) {
    let ring = streamit::rt::spsc::Spsc::<f64>::with_capacity(4096);
    let sum = std::thread::scope(|s| {
        s.spawn(|| {
            let mut sent = 0u64;
            while sent < total {
                if ring.free() >= batch {
                    ring.produce_with(batch, |i| (sent + i) as f64);
                    sent += batch;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut got = 0u64;
        let mut sum = 0.0;
        while got < total {
            if ring.available() >= batch {
                ring.consume_with(batch, |_, v| sum += v);
                got += batch;
            } else {
                std::hint::spin_loop();
            }
        }
        sum
    });
    // Every item arrived once: 0 + 1 + ... + (total - 1).
    assert_eq!(
        sum,
        (total * (total - 1) / 2) as f64,
        "spsc lost or repeated an item"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spsc_transfer_moves_every_item() {
        spsc_transfer(1 << 12, 64);
    }

    #[test]
    fn batches_are_sized_in_output_items() {
        let rng = Rng::new(1);
        for spec in &SPECS {
            let ready = spec.setup(&rng).unwrap();
            let items =
                ready.engine.init_outputs() + ready.k * ready.engine.outputs_per_iteration();
            assert!(items >= spec.batch_items, "{}", spec.name);
            assert!(
                items < spec.batch_items + ready.engine.outputs_per_iteration().max(1),
                "{}",
                spec.name
            );
            assert!(ready.input.len() as u64 >= ready.engine.required_input(ready.k));
        }
    }
}
