//! `paper host`: the host timings `streambench` does not already
//! report by name, every one through `streamit_bench::Timing::measure`,
//! written as one JSON report.  What `streambench` does report is not
//! measured a second time: the reference interpreter's throughput is
//! its `interp.items_per_s`, the compiled engine against the
//! interpreter and a handwritten loop its `fir-vm` workload, compile
//! time by phase the `*_ms` metrics of `compile-corpus`.
//!
//! Every contract a cell depends on — an optimized engine bit-identical
//! to the reference interpreter (or inside the ULP bound where the
//! linear optimizer reassociated), kernels attached wherever it ran,
//! admission refused past the limit, a bounded resident set, every cell
//! measured — is checked here, and a broken one is exit status 1.

use std::hint::black_box;
use std::sync::atomic::Ordering;

use streamit::apps;
use streamit::exec::{CompiledGraph, ExecError};
use streamit::graph::StreamNode;
use streamit::linear::{extract_linear, freq::best_block, FreqFilter, LinearMode, LinearRep};
use streamit::rt::ParallelGraph;
use streamit::{geomean, CompiledProgram, Compiler, Options};
use streamit_bench::{
    number, object, quantile, quoted, report, timed, varied_input, Cell, Side, Timing,
};
use streamit_streamd::{Daemon, DaemonConfig, InstanceBudget};

/// How far an engine running a reassociating rewrite (collapsed
/// combinations, FFT convolution) may sit from the reference stream.
const ULP_BOUND: u64 = 4096;

/// The cells of one run in the order they were measured, and every
/// contract one of them broke.
struct Host {
    timing: Timing,
    cells: Vec<(String, String)>,
    broken: usize,
}

impl Host {
    /// Record one cell, and print it as the run's progress.
    fn cell(&mut self, name: String, json: String) {
        println!("{name:<44} {json}");
        self.cells.push((name, json));
    }

    /// Report the cells of one `measure` call as `{group}.{label}`, and
    /// every one after the first also as a multiple of the first,
    /// `{group}.{label}_over_{first}`.  Returns those ratios' medians.
    fn compare(&mut self, group: &str, unit: &str, labels: &[&str], cells: &[Cell]) -> Vec<f64> {
        let base = format!("{group}.{}", labels[0]);
        let mut gains = Vec::new();
        for (i, (label, c)) in labels.iter().zip(cells).enumerate() {
            let name = format!("{group}.{label}");
            self.require(c.median > 0.0, || format!("{name}: nothing ran"));
            self.cell(name.clone(), c.json(unit, None));
            if i > 0 {
                let gain = c.ratio_to(&cells[0]);
                gains.push(gain.median);
                self.cell(
                    format!("{name}_over_{}", labels[0]),
                    gain.json("x", Some(&base)),
                );
            }
        }
        gains
    }

    /// Something counted or checked, not timed.
    fn fact(&mut self, name: String, fields: &[(&str, String)]) {
        self.cell(name, object(fields));
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("paper host: CONTRACT BROKEN: {}", what());
            self.broken += 1;
        }
    }

    /// [`Host::compare`] items per second of `k` steady iterations on
    /// each graph, all interleaved in one measurement.
    fn steady(&mut self, group: &str, labels: &[&str], graphs: &[&dyn Steady]) -> Vec<f64> {
        let mut runs: Vec<_> = graphs.iter().map(|&g| steady_side(g)).collect();
        let mut sides: Vec<Side> = runs.iter_mut().map(|r| r as Side).collect();
        let cells = self.timing.measure(&mut sides);
        self.compare(group, "items/s", labels, &cells)
    }
}

/// What the serial and the parallel engine both offer a measurement.
trait Steady {
    fn required_input(&self, k: u64) -> u64;
    fn run_steady(&self, input: &[f64], k: u64) -> Result<Vec<f64>, ExecError>;
}

impl Steady for CompiledGraph {
    fn required_input(&self, k: u64) -> u64 {
        CompiledGraph::required_input(self, k)
    }
    fn run_steady(&self, input: &[f64], k: u64) -> Result<Vec<f64>, ExecError> {
        CompiledGraph::run_steady(self, input, k)
    }
}

impl Steady for ParallelGraph {
    fn required_input(&self, k: u64) -> u64 {
        ParallelGraph::required_input(self, k)
    }
    fn run_steady(&self, input: &[f64], k: u64) -> Result<Vec<f64>, ExecError> {
        ParallelGraph::run_steady(self, input, k)
    }
}

/// `k` steady iterations of `g` per call.  The input is regenerated
/// only when `k` grows, which calibration does and a repetition never.
fn steady_side<'a>(g: &'a dyn Steady) -> impl FnMut(u64) -> u64 + 'a {
    let mut input = Vec::new();
    move |k| {
        let need = g.required_input(k) as usize;
        if input.len() < need {
            input = varied_input(need);
        }
        let out = g.run_steady(&input[..need], k);
        out.unwrap_or_else(|e| panic!("steady run failed: {e}"))
            .len() as u64
    }
}

/// `stream` compiled at `opt_level` (1 is the default) under `linear`.
fn program(
    name: &str,
    stream: StreamNode,
    opt_level: u8,
    linear: Option<LinearMode>,
) -> CompiledProgram {
    let options = Options {
        opt_level,
        linear,
        ..Options::default()
    };
    Compiler::new(options)
        .compile_stream(stream)
        .unwrap_or_else(|e| panic!("{name}: graph must compile: {e}"))
}

fn corpus_program(name: &str, opt_level: u8, linear: Option<LinearMode>) -> CompiledProgram {
    program(name, apps::corpus_app(name).graph(), opt_level, linear)
}

fn exec(name: &str, p: &CompiledProgram) -> CompiledGraph {
    p.compile_exec()
        .unwrap_or_else(|e| panic!("{name}: the compiled engine must accept this graph: {e}"))
}

fn parallel(name: &str, p: &CompiledProgram, threads: usize) -> ParallelGraph {
    p.compile_parallel(threads)
        .unwrap_or_else(|e| panic!("{name}: the parallel engine must accept this graph: {e}"))
}

/// ULP distance between two floats (`u64::MAX` for a NaN against a
/// number; +0.0 and -0.0 are the same point).
fn ulp_diff(a: f64, b: f64) -> u64 {
    let monotone = |x: f64| match x.to_bits() as i64 {
        bits if bits < 0 => i64::MIN - bits,
        bits => bits,
    };
    match (a.is_nan(), b.is_nan()) {
        (false, false) => monotone(a).abs_diff(monotone(b)),
        (true, true) => 0,
        _ => u64::MAX,
    }
}

/// How two output streams differ: the largest ULP distance (1 at most
/// inside an absolute floor of 1e-9 around zero, where ULP distance
/// explodes; `u64::MAX` when the lengths differ) and whether they are
/// the same bits.
fn distance(got: &[f64], want: &[f64]) -> (u64, bool) {
    if got.len() != want.len() {
        return (u64::MAX, false);
    }
    let pairs = || got.iter().zip(want);
    let ulp = |(&a, &b): (&f64, &f64)| match (a - b).abs() <= 1e-9 {
        true => ulp_diff(a, b).min(1),
        false => ulp_diff(a, b),
    };
    (
        pairs().map(ulp).max().unwrap_or(0),
        pairs().all(|(a, b)| a.to_bits() == b.to_bits()),
    )
}

/// [`distance`] of `cg`'s first outputs from those of the reference
/// interpreter on `base`, the same app compiled without optimization.
fn vs_reference(base: &CompiledProgram, cg: &CompiledGraph) -> (u64, bool) {
    let k = 4u64;
    let n = (cg.init_outputs() + k * cg.outputs_per_iteration()) as usize;
    // Generous margin: the interpreter's priming can consume a little
    // more than the compiled engine's exact requirement.
    let input = varied_input(cg.required_input(k + 2) as usize * 2 + 1024);
    let got = cg.run_collect(&input, n).expect("compiled check run");
    let mut want = base.run(&input, n).expect("reference check run");
    want.truncate(n);
    distance(&got, &want)
}

/// Opt-level 0 against 1 on the compiled engine.
fn opt(h: &mut Host) {
    let mut gains = Vec::new();
    for name in apps::THROUGHPUT_APPS {
        let programs = [0, 1].map(|opt_level| corpus_program(name, opt_level, None));
        let cgs = programs.each_ref().map(|p| exec(name, p));
        for (level, cg) in cgs.iter().enumerate() {
            let (_, same_bits) = vs_reference(&programs[0], cg);
            h.require(same_bits, || {
                format!("opt.{name}: opt-{level} differs from the reference interpreter")
            });
        }
        let group = format!("opt.{name}");
        gains.extend(h.steady(&group, &["opt0", "opt1"], &[&cgs[0], &cgs[1]]));
    }
    h.fact(
        "opt.geomean_opt1_over_opt0".into(),
        &[("geomean_of_medians", number(geomean(gains)))],
    );
}

const MODES: [(&str, Option<LinearMode>); 3] = [
    ("off", None),
    ("replacement", Some(LinearMode::Replacement)),
    ("frequency", Some(LinearMode::Frequency)),
];

/// The linear-mode × engine matrix over the FIR-heavy apps, each
/// optimized configuration checked against the *unoptimized* reference
/// stream.
fn linear(h: &mut Host) {
    let modes = MODES.map(|(mode, _)| mode);
    for name in ["fmradio", "filterbank", "beamformer"] {
        let programs = MODES.map(|(_, linear)| corpus_program(name, 1, linear));
        let cgs = programs.each_ref().map(|p| exec(name, p));
        let pgs = programs.each_ref().map(|p| parallel(name, p, 0));
        for (i, mode) in modes.iter().enumerate() {
            let report = programs[i].linear_report.as_ref();
            let reassociating = report.is_some_and(|r| r.reassociating());
            let (max_ulp, same_bits) = vs_reference(&programs[0], &cgs[i]);
            let within = match reassociating {
                true => max_ulp <= ULP_BOUND,
                false => same_bits,
            };
            h.require(within, || {
                format!("linear.{name}.{mode}: {max_ulp} ULP from the unoptimized reference")
            });
            let kernels = cgs[i].kernel_filters();
            h.require((kernels > 0) == (i > 0), || {
                format!("linear.{name}.{mode}: {kernels} native kernels attached")
            });
            let comparison = if reassociating { "ulp" } else { "bit" };
            h.fact(
                format!("linear.{name}.check.{mode}"),
                &[
                    ("comparison", quoted(comparison)),
                    ("max_ulp", max_ulp.to_string()),
                    ("kernels", kernels.to_string()),
                    (
                        "freq_plans",
                        report.map_or(0, |r| r.freq_plans.len()).to_string(),
                    ),
                    ("parallel_threads", pgs[i].threads().to_string()),
                ],
            );
        }
        let compiled: Vec<_> = cgs.iter().map(|g| g as &dyn Steady).collect();
        let threaded: Vec<_> = pgs.iter().map(|g| g as &dyn Steady).collect();
        h.steady(&format!("linear.{name}.compiled"), &modes, &compiled);
        h.steady(&format!("linear.{name}.parallel"), &modes, &threaded);
    }
}

/// The measured side of `paper linear`: each graph of its suite on the
/// compiled engine, unoptimized bytecode against dense/FFT kernels.
fn linear_suite(h: &mut Host) {
    let mut gains = Vec::new();
    for (name, stream) in apps::linear_suite::linear_suite() {
        let [off, freq] = [None, Some(LinearMode::Frequency)]
            .map(|linear| exec(name, &program(name, stream.clone(), 1, linear)));
        let group = format!("linear_suite.{name}");
        gains.extend(h.steady(&group, &["off", "frequency"], &[&off, &freq]));
    }
    h.fact(
        "linear_suite.geomean_frequency_over_off".into(),
        &[("geomean_of_medians", number(geomean(gains)))],
    );
}

/// The parallel engine at 1/2/4/8 worker threads against the serial
/// compiled engine, every configuration bit-identical to it on an
/// equal-length output prefix (the fissed graph's steady state may
/// differ in size).
fn threads(h: &mut Host) {
    for name in apps::THROUGHPUT_APPS {
        let p = corpus_program(name, 1, None);
        let cg = exec(name, &p);
        let pgs = [1, 2, 4, 8].map(|t| parallel(name, &p, t));
        let k = 8u64;
        let n = (cg.init_outputs() + k * cg.outputs_per_iteration()) as usize;
        for pg in &pgs {
            let input = varied_input(cg.required_input(k).max(pg.required_input(k)) as usize);
            let want = cg.run_collect(&input, n).expect("serial check run");
            let got = pg.run_collect(&input, n).expect("parallel check run");
            h.require(distance(&got, &want).1, || {
                let threads = pg.threads();
                format!("threads.{name}.t{threads}: output differs from the serial engine's")
            });
        }
        let mut graphs: Vec<&dyn Steady> = vec![&cg];
        graphs.extend(pgs.iter().map(|pg| pg as &dyn Steady));
        let labels = ["serial", "t1", "t2", "t4", "t8"];
        h.steady(&format!("threads.{name}"), &labels, &graphs);
    }
}

const BATCH: u64 = 32;
const MAX_OUT: usize = 128;
const DRIVERS: usize = 4;

/// The shared deterministic input stream every instance consumes, each
/// from its own cursor.
fn item(seq: u64) -> f64 {
    ((seq * 31 % 2003) as f64) / 20.0 - 50.0
}

/// Resident set size in MiB via `/proc/self/statm` (0 where absent).
fn rss_mib() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages = statm.split_whitespace().nth(1).and_then(|f| f.parse().ok());
    pages.unwrap_or(0u64) as f64 * 4096.0 / (1024.0 * 1024.0)
}

/// One served instance as its driver sees it.  The cursor is how much
/// of the shared stream the daemon has accepted, so items it refused
/// (backpressure) are offered again; every eighth instance keeps its
/// output for the bit-identity check (keeping all 10 000 would dominate
/// the run).
struct Instance {
    id: u64,
    cursor: u64,
    kept: Option<Vec<f64>>,
}

/// One driver thread's share of a tier, and how long each of its
/// `feed`s took.
#[derive(Default)]
struct Driver {
    instances: Vec<Instance>,
    feed_s: Vec<f64>,
}

impl Driver {
    fn pass(&mut self, daemon: &Daemon) {
        let mut batch = Vec::with_capacity(BATCH as usize);
        for inst in &mut self.instances {
            batch.clear();
            batch.extend((inst.cursor..inst.cursor + BATCH).map(item));
            let (fed, s) = timed(|| daemon.feed(inst.id, &batch, MAX_OUT));
            self.feed_s.push(s);
            let fed = fed.unwrap_or_else(|e| panic!("feed {}: {e}", inst.id));
            inst.cursor += fed.accepted as u64;
            if let Some(out) = &mut inst.kept {
                out.extend(fed.output);
            }
        }
    }
}

/// `streamd` in process (no sockets: admission, per-instance sessions,
/// supervision, metrics) at `n` instances of FMRadio(4, 16).  One
/// repetition is `rounds` passes of [`DRIVERS`] threads over all
/// instances; every `feed` is timed here and the quantiles come from
/// the sorted samples of all repetitions.
fn streamd_tier(h: &mut Host, n: usize, rounds: usize) {
    const APP: &str = "fmradio-small";
    let mut daemon = Daemon::new(DaemonConfig {
        max_instances: n,
        budget: InstanceBudget {
            in_capacity: 64,
            out_capacity: 64,
            ..InstanceBudget::default()
        },
        stall_ms: None,
    });
    let p = program(APP, apps::fmradio::fmradio(4, 16), 1, None);
    daemon
        .add_program(APP, &p)
        .unwrap_or_else(|e| panic!("{APP}: {e}"));
    let reference = exec(APP, &p);

    let mut drivers: Vec<Driver> = (0..DRIVERS).map(|_| Driver::default()).collect();
    for i in 0..n {
        let opened = daemon.open(APP, None);
        let opened = opened.unwrap_or_else(|e| panic!("open under the limit: {e}"));
        drivers[i % DRIVERS].instances.push(Instance {
            id: opened.id,
            cursor: 0,
            kept: (i % 8 == 0).then(Vec::new),
        });
    }
    let refused = daemon.open(APP, None);
    h.require(refused.is_err_and(|d| d.code == "E0801"), || {
        format!("streamd.i{n}: instance {} admitted past the limit", n + 1)
    });

    let items_out = || daemon.metrics.items_out.load(Ordering::Relaxed);
    let mut rates = Vec::new();
    for _ in 0..h.timing.reps {
        let before = items_out();
        let ((), s) = timed(|| {
            std::thread::scope(|scope| {
                for d in &mut drivers {
                    scope.spawn(|| (0..rounds).for_each(|_| d.pass(&daemon)));
                }
            })
        });
        rates.push((items_out() - before) as f64 / s.max(1e-9));
    }
    let rss = rss_mib();

    // Each kept instance consumed a prefix of the shared stream; the
    // one-shot run over the same prefix must agree bit for bit.
    for inst in drivers.iter().flat_map(|d| &d.instances) {
        let Some(out) = &inst.kept else { continue };
        let input: Vec<f64> = (0..inst.cursor).map(item).collect();
        let want = reference.run_collect(&input, out.len());
        let same = distance(out, &want.unwrap_or_else(|e| panic!("one-shot run: {e}"))).1;
        h.require(same, || {
            let id = inst.id;
            format!("streamd.i{n}: instance {id} diverged from the one-shot run")
        });
    }
    h.require(rss < 2048.0, || {
        format!("streamd.i{n}: resident set {rss:.0} MiB")
    });

    let mut feed_s: Vec<f64> = drivers
        .iter()
        .flat_map(|d| d.feed_s.iter().copied())
        .collect();
    feed_s.sort_by(f64::total_cmp);
    let (p50, p99) = (quantile(&feed_s, 0.5) * 1e6, quantile(&feed_s, 0.99) * 1e6);
    let group = format!("streamd.i{n}");
    h.compare(
        &group,
        "items/s",
        &["items_out"],
        &[Cell::from_samples(rates)],
    );
    h.fact(
        format!("{group}.feed"),
        &[
            ("p50_us", number(p50)),
            ("p99_us", number(p99)),
            ("samples", feed_s.len().to_string()),
            ("batch_items", BATCH.to_string()),
            ("driver_threads", DRIVERS.to_string()),
            ("rss_mib", number(rss)),
        ],
    );
    daemon.close_all();
}

/// DESIGN.md's two ✎ ablations that run on this host: the direct
/// sliding dot product against overlap-save over an 8192-sample stream
/// (the crossover behind the frequency-translation cost model), and
/// what linear extraction costs as the filter grows.
fn ablations(h: &mut Host) {
    let x: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.003).cos()).collect();
    for taps in [16usize, 64, 256, 1024] {
        let coeffs: Vec<f64> = (0..taps).map(|i| 1.0 / (i + 1) as f64).collect();
        let rep = LinearRep::fir(&coeffs);
        let ff = FreqFilter::new(&rep, best_block(taps).0);
        let mut direct = |n: u64| (0..n).map(|_| black_box(rep.apply(&x)).len() as u64).sum();
        let mut overlap = |n: u64| (0..n).map(|_| black_box(ff.apply(&x)).len() as u64).sum();
        let cells = h.timing.measure(&mut [&mut direct, &mut overlap]);
        let group = format!("crossover.taps{taps}");
        h.compare(&group, "samples/s", &["direct", "overlap_save"], &cells);
    }
    for taps in [8usize, 64, 256] {
        let coeffs: Vec<f64> = (0..taps).map(|i| i as f64).collect();
        let filter = LinearRep::fir(&coeffs).materialize("fir");
        let mut extract = |n: u64| {
            (0..n).for_each(|_| drop(black_box(extract_linear(black_box(&filter)))));
            n
        };
        let cells = h.timing.measure(&mut [&mut extract]);
        h.compare("extraction", "filters/s", &[&format!("taps{taps}")], &cells);
    }
}

/// Measure everything, write the report to `out`, and exit 1 if a
/// contract broke.
pub fn run(quick: bool, out: &str) {
    let mut h = Host {
        timing: Timing::new(quick),
        cells: Vec::new(),
        broken: 0,
    };
    opt(&mut h);
    linear(&mut h);
    linear_suite(&mut h);
    threads(&mut h);
    // The 10 000-instance tier is the full run's only.
    let tiers: &[(usize, usize)] = match quick {
        true => &[(100, 4), (1000, 2)],
        false => &[(100, 32), (1000, 8), (10_000, 2)],
    };
    for &(n, rounds) in tiers {
        streamd_tier(&mut h, n, rounds);
    }
    ablations(&mut h);

    let text = report(quick, h.timing, &h.cells);
    std::fs::write(out, text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");
    if h.broken > 0 {
        eprintln!("paper host: {} contracts broken", h.broken);
        std::process::exit(1);
    }
}
