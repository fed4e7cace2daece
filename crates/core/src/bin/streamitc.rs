//! `streamitc` — the StreamIt-rs command-line compiler driver.
//!
//! ```text
//! streamitc <file.str> [--main NAME] [--linear | --frequency]
//!           [--outline] [--dot] [--verify] [--lint] [--opt-level 0|1]
//!           [--schedule [TILES]] [--run N] [--budget FIRINGS]
//!           [--engine ENGINE] [--threads N] [--watchdog-ms MS]
//!           [--on-engine-fault error|fallback]
//!           [--inject-fault KIND@STAGE:ITER]
//!           [--profile] [--strict]
//! ```
//!
//! * `--outline`   print the elaborated hierarchy
//! * `--dot`       print the flat graph in Graphviz syntax
//! * `--verify`    print the deadlock/overflow report (default on)
//! * `--lint`      print the full static-analysis report (all findings);
//!   without it, warnings still print and hard findings still gate
//! * `--schedule`  partition for TILES tiles (default 16; at least 1),
//!   laid out on the factor pair nearest to a square, with every
//!   strategy and print the simulated throughput table
//! * `--run N`     execute the program on a synthetic ramp input and
//!   print the first N outputs
//! * `--budget F`  firing budget for `--run` (default 5·10⁷): a
//!   divergent program exits with a budget diagnostic instead of spinning
//! * `--engine E`  execution engine for `--run`: `reference` (the
//!   interpreter, default), `compiled` (bytecode + ring-buffer tapes +
//!   data-parallel split-joins), or `parallel` (the compiled engine's
//!   plans fissed across worker threads and software-pipelined over
//!   lock-free channels).  When a compiled-family engine rejects a
//!   graph it prints the `E0701` diagnostic to stderr and falls back to
//!   the reference engine, exiting 0
//! * `--threads N` worker threads for `--engine parallel` (default 0 =
//!   one per available core)
//! * `--watchdog-ms MS`  stall-watchdog deadline for the parallel
//!   engine (default 5000; `0` disables).  A run making no progress for
//!   a full deadline aborts with the `E0706 Stalled` diagnostic and a
//!   per-stage snapshot instead of hanging
//! * `--on-engine-fault P`  what a runtime engine fault (worker panic,
//!   stall, engine fault) does: `fallback` (default) retries with
//!   backoff and then degrades down the engine ladder (parallel →
//!   compiled → reference), `error` exits with the fault's diagnostic
//! * `--inject-fault F`  chaos-harness fault injection:
//!   `panic@STAGE:ITER`, `stall@STAGE:ITER`, or `delay@STAGE:ITER`
//! * `--profile`   run `--run` on the compiled engine with the
//!   per-filter profiler and print a cost table (ns/firing, share of
//!   total) sorted hottest-first.  One steady round in 32 has every
//!   filter firing timed, at the stride an unprofiled run takes; the
//!   output stream is bit-identical.  It is a report on the serial
//!   compiled engine, so it cannot be combined with another `--engine`,
//!   `--threads`, `--watchdog-ms`, `--on-engine-fault` or
//!   `--inject-fault` (usage error)
//! * `--linear` / `--frequency`  enable the linear optimizer
//! * `--opt-level N`  work-IR optimization level for the
//!   compiled/parallel engines: `0` lowers work functions verbatim,
//!   `1` (default) runs the analysis mid-end (constant folding, branch
//!   pruning, dead-store elimination, copy propagation, loop unrolling)
//! * `--strict`    fail on verification errors
//!
//! Static work-function analysis always runs: lint warnings (`L06xx`)
//! print to stderr, and hard findings (`E0601`–`E0603`) abort with exit
//! code 7 before `--schedule`/`--run` execute anything.
//!
//! Exit codes are stable and scriptable:
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success |
//! | 1    | I/O error (file unreadable) |
//! | 2    | usage error, or lexical/syntax error (`E01xx`) |
//! | 3    | semantic error (`E02xx`) |
//! | 4    | verification failure under `--strict` (`E03xx`) |
//! | 5    | runtime error during `--run` (`E04xx`; a run too large to
//!   allocate, `E0708`; or an engine fault `E0702`, worker panic
//!   `E0705`, or stall `E0706` under `--on-engine-fault error`) |
//! | 6    | resource budget exhausted (`E05xx`) |
//! | 7    | static-analysis failure (`E06xx`) |
//! | 8    | engine selection failure (`E0701`; only via the library API —
//!   the CLI falls back to the reference engine instead) |

use streamit::linear::LinearMode;
use streamit::rawsim::MachineConfig;
use streamit::{evaluate_strategies, Compiler, Engine, OnEngineFault, Options, SupervisorConfig};

struct Args {
    file: String,
    main: String,
    linear: Option<LinearMode>,
    outline: bool,
    dot: bool,
    schedule: Option<usize>,
    run: Option<usize>,
    budget: u64,
    engine: Engine,
    threads: usize,
    watchdog_ms: Option<u64>,
    on_fault: OnEngineFault,
    inject_fault: Option<streamit::exec::FaultPlan>,
    strict: bool,
    lint: bool,
    opt_level: u8,
    profile: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: streamitc <file.str> [--main NAME] [--linear | --frequency] \
         [--outline] [--dot] [--lint] [--opt-level 0|1] [--schedule [TILES]] [--run N] \
         [--budget FIRINGS] [--engine reference|compiled|parallel] [--threads N] \
         [--watchdog-ms MS] [--on-engine-fault error|fallback] \
         [--inject-fault KIND@STAGE:ITER] [--profile] [--strict]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        file: String::new(),
        main: "Main".into(),
        linear: None,
        outline: false,
        dot: false,
        schedule: None,
        run: None,
        budget: streamit::interp::ExecLimits::default().max_firings,
        engine: Engine::default(),
        threads: 0,
        // Unlike the test-facing library default (off), streamitc runs
        // are interactive: a hang is strictly worse than a diagnostic.
        watchdog_ms: Some(5000),
        on_fault: OnEngineFault::default(),
        inject_fault: None,
        strict: false,
        lint: false,
        opt_level: 1,
        profile: false,
    };
    // Flags seen that `--profile` (a serial compiled-engine run) would
    // have to ignore.
    let mut beside_profile: Vec<&str> = Vec::new();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--main" => args.main = it.next().unwrap_or_else(|| usage()),
            "--linear" => args.linear = Some(LinearMode::Replacement),
            "--frequency" => args.linear = Some(LinearMode::Frequency),
            "--outline" => args.outline = true,
            "--dot" => args.dot = true,
            "--verify" => {} // always printed
            "--lint" => args.lint = true,
            "--opt-level" => {
                args.opt_level = it
                    .next()
                    .and_then(|s| s.parse::<u8>().ok())
                    .filter(|&n| n <= 1)
                    .unwrap_or_else(|| usage());
            }
            "--strict" => args.strict = true,
            "--schedule" => {
                let tiles = it
                    .peek()
                    .and_then(|s| s.parse::<usize>().ok())
                    .inspect(|_| {
                        it.next();
                    })
                    .unwrap_or(16);
                if tiles == 0 {
                    usage();
                }
                args.schedule = Some(tiles);
            }
            "--run" => {
                let n = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                args.run = Some(n);
            }
            "--budget" => {
                args.budget = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
            }
            "--engine" => {
                args.engine = it
                    .next()
                    .and_then(|s| s.parse::<Engine>().ok())
                    .unwrap_or_else(|| usage());
                if args.engine != Engine::Compiled {
                    beside_profile.push("--engine");
                }
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage());
                beside_profile.push("--threads");
            }
            "--watchdog-ms" => {
                let ms = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage());
                args.watchdog_ms = if ms == 0 { None } else { Some(ms) };
                beside_profile.push("--watchdog-ms");
            }
            "--on-engine-fault" => {
                args.on_fault = it
                    .next()
                    .and_then(|s| s.parse::<OnEngineFault>().ok())
                    .unwrap_or_else(|| usage());
                beside_profile.push("--on-engine-fault");
            }
            "--inject-fault" => {
                let plan = it
                    .next()
                    .and_then(|s| s.parse::<streamit::exec::FaultPlan>().ok())
                    .unwrap_or_else(|| usage());
                args.inject_fault = Some(plan);
                beside_profile.push("--inject-fault");
            }
            "--profile" => args.profile = true,
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') && args.file.is_empty() => args.file = f.to_string(),
            _ => usage(),
        }
    }
    if args.file.is_empty() {
        usage();
    }
    if args.profile && args.run.is_none() {
        eprintln!("streamitc: --profile requires --run");
        usage();
    }
    if args.profile && !beside_profile.is_empty() {
        eprintln!(
            "streamitc: --profile measures the serial compiled engine and cannot be \
             combined with {}",
            beside_profile.join(", ")
        );
        usage();
    }
    args
}

/// The input `--run n` feeds: a sine ramp sixteen times as long as the
/// output asked for.  `n` is the user's, so neither the length nor the
/// allocation may be assumed to succeed (`E0708` instead of an abort).
fn synthetic_ramp(n: usize) -> Result<Vec<f64>, streamit::Diag> {
    let too_large = |items| {
        let what = "synthetic input ramp";
        streamit::Diag::from(streamit::exec::ExecError::TooLarge { what, items })
    };
    let len = n
        .max(64)
        .checked_mul(16)
        .ok_or_else(|| too_large(u64::MAX))?;
    let mut ramp = Vec::new();
    ramp.try_reserve_exact(len)
        .map_err(|_| too_large(len as u64))?;
    ramp.extend((0..len).map(|i| (i as f64 * 0.1).sin()));
    Ok(ramp)
}

fn main() {
    let args = parse_args();
    let source = match std::fs::read_to_string(&args.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("streamitc: cannot read {}: {e}", args.file);
            std::process::exit(1);
        }
    };
    let compiler = Compiler::new(Options {
        linear: args.linear,
        strict_verify: args.strict,
        opt_level: args.opt_level,
    });
    let program = match compiler.compile_source(&source, &args.main) {
        Ok(p) => p,
        Err(e) => {
            let d = streamit::Diag::from(e);
            eprintln!("streamitc: {}: {d}", args.file);
            std::process::exit(d.exit_code());
        }
    };

    println!(
        "compiled `{}` ({} filters, {} flat nodes, {} channels)",
        args.main,
        program.stream.filter_count(),
        program.flat.nodes.len(),
        program.flat.edges.len()
    );
    if let Some(r) = &program.linear_report {
        println!(
            "linear optimizer: {}/{} filters linear, {} collapses, \
             {:.0} -> {:.0} FLOPs/steady ({} frequency plans)",
            r.extracted,
            r.total_filters,
            r.collapsed_pipelines + r.collapsed_splitjoins,
            r.flops_before,
            r.flops_after,
            r.freq_plans.len()
        );
    }

    // Verification report.
    if program.verify.is_ok() {
        let reps = program
            .verify
            .reps
            .as_ref()
            .map(|r| r.iter().sum::<u64>())
            .unwrap_or(0);
        println!("verify: OK (deadlock-free, bounded buffers; {reps} firings/steady state)");
    } else {
        for d in program
            .verify
            .overflows
            .iter()
            .chain(&program.verify.deadlocks)
        {
            println!("verify: {d}");
        }
    }

    // Static work-function analysis: full report under --lint, lint
    // warnings always, hard findings always gate with exit code 7.
    if args.lint {
        println!("\n== lint ==");
        if program.analysis.is_clean() {
            println!("lint: clean ({} filters)", program.stream.filter_count());
        }
        for f in program.analysis.warnings() {
            println!("{f}");
        }
        // Lowering notes (`L0701` dropped-kernel-hint warnings) come
        // from the compiled engine's planner; a graph the compiled
        // engine declines simply has no notes to report.
        if let Ok(cg) = program.compile_exec() {
            for note in cg.notes() {
                println!("{note}");
            }
        }
    } else {
        for f in program.analysis.warnings() {
            eprintln!("streamitc: {f}");
        }
    }
    if program.analysis.has_errors() {
        for d in program.analysis_diags() {
            eprintln!("streamitc: {}: {d}", args.file);
        }
        std::process::exit(streamit::DiagCategory::Analysis.exit_code());
    }

    if args.outline {
        println!("\n== outline ==");
        print!("{}", streamit::graph::display::outline(&program.stream));
    }
    if args.dot {
        println!("\n== dot ==");
        print!("{}", streamit::graph::display::dot(&program.flat));
    }

    if let Some(tiles) = args.schedule {
        let cfg = MachineConfig::with_tiles(tiles);
        match program.work_graph() {
            Ok(wg) => {
                let (base, results) = evaluate_strategies(&wg, &cfg);
                println!("\n== schedule ({} tiles) ==", cfg.n_tiles());
                println!("single core: {} cycles/steady", base.cycles_per_steady);
                for (s, r) in results {
                    println!(
                        "{:<20} {:>10} cycles  {:>6.2}x  util {:>4.0}%",
                        s.label(),
                        r.cycles_per_steady,
                        r.speedup_over(&base),
                        r.utilization * 100.0
                    );
                }
            }
            Err(e) => println!("schedule: {e}"),
        }
    }

    if let Some(n) = args.run {
        let input = synthetic_ramp(n).unwrap_or_else(|d| {
            eprintln!("streamitc: execution failed: {d}");
            std::process::exit(d.exit_code());
        });
        let engine = match args.engine {
            Engine::Parallel { .. } => Engine::Parallel {
                threads: args.threads,
            },
            e => e,
        };
        // A profiling run measures on the compiled serial engine and
        // prints its output stream (bit-identical to an unprofiled run).
        if args.profile {
            // Time every filter firing during one steady round in 32:
            // dense enough to rank filters reliably.  The rounds are the
            // unprofiled run's (DESIGN.md "Per-filter profiler").
            const SAMPLE_PERIOD: u32 = 32;
            match program.profile_run(&input, n, SAMPLE_PERIOD) {
                Ok((out, prof)) => {
                    println!("\n== profile (compiled engine, 1-in-{SAMPLE_PERIOD} sampling) ==");
                    print!("{}", prof.render_table());
                    println!("\n== first {n} outputs (compiled engine) ==");
                    for (i, v) in out.iter().take(n).enumerate() {
                        println!("y[{i}] = {v}");
                    }
                }
                Err(d) => {
                    eprintln!("streamitc: profiling failed: {d}");
                    std::process::exit(d.exit_code());
                }
            }
            return;
        }
        // Supervised execution: compile-time declines (E0701) and —
        // under the default `fallback` policy — runtime engine faults
        // (E0702/E0705/E0706) degrade down the engine ladder (parallel
        // -> compiled -> reference) so `--run` still succeeds; each
        // attempt's diagnostic and each transition is reported.
        let cfg = SupervisorConfig {
            watchdog_ms: args.watchdog_ms,
            on_fault: args.on_fault,
            fault_plan: args.inject_fault,
            budget: args.budget,
            ..SupervisorConfig::default()
        };
        match program.run_supervised(engine, &input, n, &cfg) {
            Ok(outcome) => {
                for (i, a) in outcome.attempts.iter().enumerate() {
                    eprintln!("streamitc: {}", a.diag);
                    let next = outcome
                        .attempts
                        .get(i + 1)
                        .map(|a| a.engine)
                        .unwrap_or(outcome.engine);
                    if next == a.engine {
                        eprintln!("streamitc: retrying on the {next} engine");
                    } else {
                        eprintln!("streamitc: falling back to the {next} engine");
                    }
                }
                println!("\n== first {n} outputs ({} engine) ==", outcome.engine);
                // The reference engine runs whole firings, so a block
                // filter (e.g. a frequency-translated FIR) can overshoot
                // the requested count; print exactly what was asked for.
                for (i, v) in outcome.output.iter().take(n).enumerate() {
                    println!("y[{i}] = {v}");
                }
            }
            Err(d) => {
                eprintln!("streamitc: execution failed: {d}");
                std::process::exit(d.exit_code());
            }
        }
    }
}
