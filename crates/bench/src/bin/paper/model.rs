//! The model subcommands: one function per row of DESIGN.md's
//! per-experiment index.  Each prints a table that is a pure function
//! of the source — `rawsim` cycle counts, static work estimates,
//! verification verdicts — so `results/*.txt` holds its output byte for
//! byte (`crates/bench/tests/paper.rs`).

use streamit::apps;
use streamit::graph::builder::*;
use streamit::graph::{DataType, FlatGraph, Joiner, Splitter, StreamNode, Value};
use streamit::linear::{optimize_stream, LinearMode, LinearReport};
use streamit::rawsim::{simulate, simulate_single_core, MachineConfig};
use streamit::sched::{Strategy, WorkGraph};
use streamit::{geomean, map_strategy, CompiledProgram, Compiler};

/// Compile one benchmark, panicking with its name on failure.
fn compile(name: &str, stream: StreamNode) -> CompiledProgram {
    Compiler::default()
        .compile_stream(stream)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The twelve-application evaluation suite, compiled.
fn suite() -> Vec<(&'static str, CompiledProgram)> {
    let compiled = |b: apps::Benchmark| (b.name, compile(b.name, b.stream));
    apps::evaluation_suite().into_iter().map(compiled).collect()
}

/// Speedup of strategy `s` over one core on `tiles` tiles of `cfg`.
fn speedup_on(p: &CompiledProgram, s: Strategy, cfg: &MachineConfig, tiles: usize) -> f64 {
    let wg = p.work_graph().expect("schedulable");
    let base = simulate_single_core(&wg, cfg);
    simulate(&map_strategy(&wg, s, tiles), cfg).speedup_over(&base)
}

/// [`speedup_on`] the evaluation's machine: 16 tiles (4×4) at 450 MHz,
/// peak 7200 MFLOPS, as in the paper.
fn speedup(p: &CompiledProgram, s: Strategy) -> f64 {
    let cfg = MachineConfig::default();
    speedup_on(p, s, &cfg, cfg.n_tiles())
}

fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// A table's column heads between two rules.
fn heads(width: usize, heads: &str) {
    rule(width);
    println!("{heads}");
    rule(width);
}

/// E1, Figure `benchchar`: filter counts (total / peeking / stateful),
/// shortest and longest source-to-sink path, the static computation-
/// to-communication ratio per steady state and the share of work in
/// stateful filters, rows ascending by stateful work as in the paper.
pub fn benchchar() {
    let mut rows: Vec<_> = suite()
        .iter()
        .map(|(name, p)| p.characterize(name).expect("characterize"))
        .collect();
    rows.sort_by(|a, b| {
        let by_stateful_work = a.stateful_work_pct.total_cmp(&b.stateful_work_pct);
        by_stateful_work.then(a.name.cmp(&b.name))
    });

    println!("Figure `benchchar`: benchmark characteristics (16-tile target)");
    heads(
        92,
        "Benchmark        Filters  Peeking  Stateful ShortPath  LongPath   Comp/Comm  StatefulWork",
    );
    for r in &rows {
        println!(
            "{:<16} {:>7} {:>8} {:>9} {:>9} {:>9} {:>11.1} {:>12.1}%",
            r.name,
            r.filters,
            r.peeking,
            r.stateful,
            r.shortest_path,
            r.longest_path,
            r.comp_comm,
            r.stateful_work_pct
        );
    }
    rule(92);
    println!("(paper shape: 6 stateless+non-peeking apps; FilterBank/FMRadio/ChannelVocoder peek;");
    println!(" MPEG2's stateful work insignificant; Radar dominated by stateful work)");
}

/// E2, Figure `maingraph`: speedup over one core for Task, Task + Data
/// and Task + Data + Software Pipelining, with geometric means.
pub fn main_comp() {
    let strategies = [Strategy::Task, Strategy::TaskData, Strategy::TaskDataSwp];
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); strategies.len()];

    println!("Figure `maingraph`: speedup over single-core (16 tiles)");
    heads(
        72,
        "Benchmark                Task      Task+Data        Task+Data+SWP",
    );
    for (name, p) in suite() {
        print!("{name:<16}");
        for (col, &s) in strategies.iter().enumerate() {
            let x = speedup(&p, s);
            columns[col].push(x);
            print!(" {x:>11.2}x");
            if col == 2 {
                print!("       ");
            }
        }
        println!();
    }
    rule(72);
    let gms: Vec<f64> = columns.iter().map(|c| geomean(c.iter().copied())).collect();
    println!(
        "{:<16} {:>11.2}x {:>13.2}x {:>19.2}x",
        "geomean", gms[0], gms[1], gms[2]
    );
    rule(72);
    println!("paper:            2.27x          9.90x       +1.45x over data");
    println!(
        "measured ratios: data/task = {:.2}x, combined/data = {:.2}x",
        gms[1] / gms[0],
        gms[2] / gms[1]
    );
}

/// E3, Figure `fine-dup`: replicate every stateless filter across all
/// tiles without coarsening, against coarse-grained data parallelism.
pub fn fine_dup() {
    println!("Figure `fine-dup`: fine- vs coarse-grained data parallelism");
    heads(
        72,
        "Benchmark          Fine-Grained   Coarse (T+D)    Coarse/Fine",
    );
    let mut ratios = Vec::new();
    for (name, p) in suite() {
        let sf = speedup(&p, Strategy::FineGrainedData);
        let sc = speedup(&p, Strategy::TaskData);
        ratios.push(sc / sf);
        println!(
            "{:<16} {:>13.2}x {:>13.2}x {:>13.2}x",
            name,
            sf,
            sc,
            sc / sf
        );
    }
    rule(72);
    println!("geomean coarse/fine advantage: {:.2}x", geomean(ratios));
    println!("(paper reference: DCT 14.6x coarse vs 4.0x fine)");
}

/// E4, Figure `softpipe_graph`: Task and Task + Software Pipelining
/// normalized to one core.
pub fn softpipe() {
    println!("Figure `softpipe_graph`: task and task + software pipelining");
    heads(
        72,
        "Benchmark                Task       Task+SWP       SWP/Task",
    );
    let (mut tasks, mut swps) = (Vec::new(), Vec::new());
    for (name, p) in suite() {
        let st = speedup(&p, Strategy::Task);
        let ss = speedup(&p, Strategy::SoftwarePipeline);
        tasks.push(st);
        swps.push(ss);
        println!(
            "{:<16} {:>11.2}x {:>13.2}x {:>13.2}x",
            name,
            st,
            ss,
            ss / st
        );
    }
    rule(72);
    let (gt, gs) = (geomean(tasks), geomean(swps));
    println!(
        "{:<16} {:>11.2}x {:>13.2}x {:>13.2}x",
        "geomean",
        gt,
        gs,
        gs / gt
    );
    println!("(paper: SWP 7.7x over single core, 3.4x over task)");
}

/// E5, Figure `thruput`: compute utilization and MFLOPS of the
/// combined technique per benchmark.
pub fn thruput() {
    let cfg = MachineConfig::default();
    println!(
        "Figure `thruput`: Task + Data + SWP utilization and MFLOPS (peak {:.0})",
        cfg.peak_mflops()
    );
    heads(
        78,
        "Benchmark         cycles/steady  utilization     MFLOPS   bottleneck",
    );
    let mut healthy = 0;
    for (name, p) in suite() {
        let wg = p.work_graph().expect("schedulable");
        let r = simulate(
            &map_strategy(&wg, Strategy::TaskDataSwp, cfg.n_tiles()),
            &cfg,
        );
        if r.utilization >= 0.60 {
            healthy += 1;
        }
        println!(
            "{:<16} {:>14} {:>11.0}% {:>10.0} {:>12}",
            name,
            r.cycles_per_steady,
            r.utilization * 100.0,
            r.mflops,
            r.bottleneck
        );
    }
    rule(78);
    println!("benchmarks at >= 60% utilization: {healthy}/12 (paper: 7/12)");
    println!("(integer benchmarks — BitonicSort, DES, Serpent — execute no FLOPs)");
}

/// E6, Figure `vs_space`: the combined technique against the ASPLOS'02
/// space-multiplexing baseline (one fused filter per tile, pipelined
/// over the static network), plus the paper's quoted stateful case.
pub fn vs_space() {
    println!("Figure `vs_space`: combined technique vs space multiplexing");
    heads(
        84,
        "Benchmark              Space         T+D        T+D+SWP    T+D vs Sp T+D+SWP vs Sp",
    );
    let mut rows = suite();
    let beamformer = apps::beamformer::beamformer_with_io(12, 4, 32);
    rows.push(("BeamFormer", compile("BeamFormer", beamformer)));
    for (name, p) in rows {
        let ss = speedup(&p, Strategy::SpaceMultiplex);
        let sd = speedup(&p, Strategy::TaskData);
        let sc = speedup(&p, Strategy::TaskDataSwp);
        println!(
            "{:<16} {:>10.2}x {:>10.2}x {:>13.2}x {:>11.0}% {:>11.0}%",
            name,
            ss,
            sd,
            sc,
            (sd / ss - 1.0) * 100.0,
            (sc / ss - 1.0) * 100.0
        );
    }
    rule(84);
    println!("(paper: BeamFormer T+D -19% / T+D+SP +38% vs space;");
    println!("        Vocoder    T+D -18% / T+D+SP +30% vs space)");
}

fn estimated_cycles(s: &StreamNode) -> u64 {
    let flat = FlatGraph::from_stream(s);
    WorkGraph::from_flat(&flat)
        .expect("consistent rates")
        .total_work()
        .max(1)
}

/// Remaining-cost factor of the planned frequency translations.
/// Planned nodes dominate their graphs (single-filter FIR shapes), so
/// scale by the direct/freq cost ratio averaged over the plans.
fn freq_factor(report: &LinearReport) -> f64 {
    if report.freq_plans.is_empty() {
        return 1.0;
    }
    let costs = report.freq_plans.iter();
    costs
        .map(|p| p.direct_cost / p.freq_cost)
        .product::<f64>()
        .powf(1.0 / report.freq_plans.len() as f64)
}

/// E7, the abstract's headline: the static work estimate (cycles per
/// steady state at matched output rates) before and after linear
/// replacement, and the modeled effect of frequency translation where
/// the cost model elects it.  What the same rewrite does to wall-clock
/// throughput on this host is `paper host`'s `linear_suite` cells.
pub fn linear() {
    println!("Linear optimization results (abstract: ~400% average improvement)");
    heads(100, "Benchmark      Filters    Linear  Before(cyc)   After(cyc)   Speedup  FreqPlans    w/Freq  Collapsed");
    let mut speedups = Vec::new();
    for (name, stream) in apps::linear_suite::linear_suite() {
        let before = estimated_cycles(&stream);
        // Replacement preserves the graph's I/O rates, so before/after
        // cycles compare directly.
        let (replaced, report) = optimize_stream(&stream, LinearMode::Replacement);
        let after = estimated_cycles(&replaced);
        let replacement_speedup = before as f64 / after as f64;
        // Frequency translation rewrites firing granularity (block
        // filters), so its effect is modeled from the planner's cost
        // ratios rather than re-estimated on the rewritten graph.
        let (_, freq_report) = optimize_stream(&stream, LinearMode::Frequency);
        let with_freq = replacement_speedup * freq_factor(&freq_report);
        speedups.push(with_freq);
        println!(
            "{:<14} {:>7} {:>9} {:>12} {:>12} {:>8.2}x {:>10} {:>8.2}x {:>10}",
            name,
            report.total_filters,
            report.extracted,
            before,
            after,
            replacement_speedup,
            freq_report.freq_plans.len(),
            with_freq,
            report.collapsed_pipelines + report.collapsed_splitjoins,
        );
    }
    rule(100);
    let gm = geomean(speedups);
    println!(
        "geometric-mean speedup: {:.2}x  ({:.0}% improvement; paper reports ~400% average)",
        gm,
        (gm - 1.0) * 100.0
    );
}

/// E8, the conclusion's teleport-messaging result: the frequency-
/// hopping radio with teleport messaging against the manual
/// feedback-loop encoding of control, as simulated steady-state
/// throughput plus the manual version's structural overheads.
pub fn teleport() {
    let cfg = MachineConfig::default();
    let n = 16;
    println!(
        "Teleport messaging vs manual feedback control (freq-hopping radio, {n}-sample rounds)"
    );
    heads(
        86,
        "Implementation           words/steady  cycles (SWP)       speedup           messages",
    );
    let mut cycles = Vec::new();
    for (name, stream, messages) in [
        (
            "teleport",
            apps::freqhop::freqhop_teleport_with_io(n, 2),
            "out-of-band portal",
        ),
        (
            "manual feedback",
            apps::freqhop::freqhop_manual_with_io(n),
            "in-band loop token",
        ),
    ] {
        let wg = compile(name, stream).work_graph().expect("schedulable");
        let base = simulate_single_core(&wg, &cfg);
        let mapped = map_strategy(&wg, Strategy::SoftwarePipeline, cfg.n_tiles());
        let r = simulate(&mapped, &cfg);
        cycles.push(r.cycles_per_steady);
        println!(
            "{:<22} {:>14} {:>13} {:>12.2}x {:>18}",
            name,
            wg.total_comm(),
            r.cycles_per_steady,
            r.speedup_over(&base),
            messages
        );
    }
    rule(86);
    println!(
        "teleport throughput improvement: {:.0}%  (paper: 49% on a cluster of workstations)",
        (cycles[1] as f64 / cycles[0] as f64 - 1.0) * 100.0
    );
    println!("(the manual loop's feedback recurrence also caps software pipelining,");
    println!(" which the simulator models as the recurrence bound)");
}

fn fib_loop(delay: usize) -> StreamNode {
    feedback_loop(
        "fib",
        Joiner::RoundRobin(vec![0, 1]),
        FilterBuilder::new("adder", DataType::Int)
            .rates(2, 1, 1)
            .push(peek(0) + peek(1))
            .pop_discard()
            .build_node(),
        Splitter::Duplicate,
        identity("lb", DataType::Int),
        delay,
        |i| Value::Int(i as i64),
    )
}

fn rate_mismatch() -> StreamNode {
    let doubler = FilterBuilder::new("dbl", DataType::Int)
        .rates(1, 1, 2)
        .push(peek(0))
        .push(peek(0))
        .pop_discard()
        .build_node();
    splitjoin(
        "sj",
        Splitter::round_robin(2),
        vec![identity("a", DataType::Int), doubler],
        Joiner::round_robin(2),
    )
}

/// E9, §Program Verification: deadlock and overflow analysis over the
/// benchmark suite plus constructed positive cases (the paper's
/// `max`/`min`-based checks).
pub fn verify() {
    let report = |name: &str, stream: &StreamNode| {
        let r = streamit::sdep::verify_graph(&FlatGraph::from_stream(stream));
        let verdict = if r.is_ok() {
            "OK (deadlock-free, bounded buffers)".to_string()
        } else if !r.overflows.is_empty() {
            format!("OVERFLOW: {}", r.overflows[0])
        } else {
            format!("DEADLOCK: {}", r.deadlocks[0])
        };
        println!("{name:<24} {verdict}");
    };
    println!("Program verification (deadlock & overflow detection)");
    rule(100);
    for bench in apps::evaluation_suite() {
        report(bench.name, &bench.stream);
    }
    report("FreqHopManual", &apps::freqhop::freqhop_manual_with_io(16));
    rule(100);
    println!("constructed counter-examples:");
    report("Fibonacci(delay=2)", &fib_loop(2));
    report("Fibonacci(delay=1)", &fib_loop(1));
    report("Fibonacci(delay=0)", &fib_loop(0));
    report("SplitJoinRateMismatch", &rate_mismatch());
    rule(100);
    println!("(the loop check is the paper's maxloop identity; the split-join check is its");
    println!(" production-rate divergence condition — both via the balance equations)");
}

/// A1: sweep the machine's cost of synchronization (send/receive
/// occupancy per word) and watch the fine-grained strawman degrade
/// while the coarsened strategy holds — the mechanism behind E3.
pub fn granularity() {
    println!("Ablation: synchronization cost vs data-parallel granularity");
    heads(
        76,
        "occupancy (cyc/word)        benchmark   fine-grained   coarse (T+D)",
    );
    let programs = [
        ("BitonicSort", apps::bitonic::bitonic_sort_with_io(32)),
        ("DES", apps::des::des_with_io(16)),
    ]
    .map(|(name, app)| (name, compile(name, app)));
    for occ in [0u64, 1, 2, 4, 8] {
        let cfg = MachineConfig {
            send_occupancy: occ,
            recv_occupancy: occ,
            ..MachineConfig::default()
        };
        for (name, p) in &programs {
            println!(
                "{:<26} {:>10} {:>13.2}x {:>13.2}x",
                occ,
                name,
                speedup_on(p, Strategy::FineGrainedData, &cfg, 16),
                speedup_on(p, Strategy::TaskData, &cfg, 16)
            );
        }
    }
    rule(76);
    println!("(coarsening eliminates internal channels entirely, so its speedup is");
    println!(" insensitive to per-word cost; fine-grained replication pays it everywhere)");
}

/// A2: the combined technique from 2 to 64 tiles on a stateless, a
/// peeking and a stateful benchmark — where each class stops scaling.
pub fn scaling() {
    println!("Ablation: combined-technique speedup vs tile count");
    heads(66, "tiles               DES        FMRadio          Radar");
    let programs = [
        ("DES", apps::des::des_with_io(16)),
        ("FMRadio", apps::fmradio::fmradio_with_io(10, 64)),
        ("Radar", apps::radar::radar_with_io(12, 4)),
    ]
    .map(|(name, app)| compile(name, app));
    for (rows, cols) in [(1usize, 2usize), (2, 2), (2, 4), (4, 4), (4, 8), (8, 8)] {
        let cfg = MachineConfig {
            rows,
            cols,
            ..MachineConfig::default()
        };
        let tiles = rows * cols;
        let mut row = format!("{tiles:<8}");
        for p in &programs {
            let x = speedup_on(p, Strategy::TaskDataSwp, &cfg, tiles);
            row.push_str(&format!(" {x:>13.2}x"));
        }
        println!("{row}");
    }
    rule(66);
    println!("(stateless DES tracks the machine; Radar saturates at its stateful");
    println!(" pipeline depth — the paper's motivation for combining techniques)");
}
