//! `streamd` — the multi-tenant streaming daemon.
//!
//! ```text
//! streamd [PROGRAM...] [--listen ADDR] [--metrics ADDR]
//!         [--max-instances N] [--instance-budget FIRINGS]
//!         [--instance-buffer ITEMS] [--stall-ms MS] [--poll-ms MS]
//! ```
//!
//! Each `PROGRAM` is either a builtin benchmark name (`fmradio`,
//! `fmradio-small`, `filterbank`, `beamformer`, `bitonic`) or
//! `NAME=FILE.str` (optionally `NAME=FILE.str:MAIN`) compiled from
//! source at startup.  With no programs given, `fmradio` is served.
//!
//! * `--listen ADDR`  protocol endpoint, `ip:port` or `unix:PATH`
//!   (default `127.0.0.1:7777`; port `0` picks an ephemeral port,
//!   printed on startup)
//! * `--metrics ADDR` plaintext metrics endpoint (HTTP/1.0, so `curl`
//!   works); off by default
//! * `--max-instances N`   admission limit (default 1024; must be ≥ 1)
//! * `--instance-budget F` per-instance firing budget (default 5·10⁷,
//!   the `ExecLimits` default; must be ≥ 1)
//! * `--instance-buffer I` per-instance staging-ring capacity in items
//!   (default 1024; clamped up to the program's feasible minimum)
//! * `--stall-ms MS`  evict instances making no progress for MS ms
//!   (default 10000; `0` disables).  Like `streamitc --watchdog-ms`,
//!   the daemon default is *on* while the library default is *off* —
//!   see DESIGN.md's "Fault handling and supervision"
//! * `--poll-ms MS`   accept/read poll granularity (default 100)
//!
//! Configuration errors print a typed `error[E0807]` diagnostic and
//! exit 2; program compile errors print their own diagnostic and exit
//! with its documented code.  SIGTERM/SIGINT trigger a clean shutdown:
//! stop accepting, drain handlers, close every instance, exit 0.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use streamit::{CompiledProgram, Compiler, Diag};
use streamit_streamd::{
    config_error, Daemon, DaemonConfig, InstanceBudget, ListenAddr, Server, ServerConfig,
};

/// SIGTERM/SIGINT handling without a signal crate: register a handler
/// that raises an atomic flag (the only async-signal-safe thing it
/// does); the accept and poll loops observe the flag.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        #[cfg(unix)]
        unsafe {
            signal(2, on_signal); // SIGINT
            signal(15, on_signal); // SIGTERM
        }
    }
}

struct Args {
    programs: Vec<String>,
    listen: ListenAddr,
    metrics: Option<ListenAddr>,
    max_instances: usize,
    budget: InstanceBudget,
    stall_ms: Option<u64>,
    poll_ms: u64,
}

fn usage_hint() {
    eprintln!(
        "usage: streamd [PROGRAM...] [--listen ADDR] [--metrics ADDR] \
         [--max-instances N] [--instance-budget FIRINGS] [--instance-buffer ITEMS] \
         [--stall-ms MS] [--poll-ms MS]"
    );
}

fn config_fail(msg: String) -> ! {
    eprintln!("{}", config_error(msg));
    usage_hint();
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        programs: Vec::new(),
        listen: match "127.0.0.1:7777".parse() {
            Ok(a) => a,
            Err(_) => unreachable!("default listen address parses"),
        },
        metrics: None,
        max_instances: 1024,
        budget: InstanceBudget::default(),
        stall_ms: Some(10_000),
        poll_ms: 100,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => {
                let s = it
                    .next()
                    .unwrap_or_else(|| config_fail("--listen needs an address".into()));
                args.listen = s.parse().unwrap_or_else(|e: Diag| config_fail(e.message));
            }
            "--metrics" => {
                let s = it
                    .next()
                    .unwrap_or_else(|| config_fail("--metrics needs an address".into()));
                args.metrics = Some(s.parse().unwrap_or_else(|e: Diag| config_fail(e.message)));
            }
            "--max-instances" => {
                let s = it
                    .next()
                    .unwrap_or_else(|| config_fail("--max-instances needs a count".into()));
                let n = s.parse::<usize>().unwrap_or_else(|_| {
                    config_fail(format!("bad --max-instances `{s}` (expected an integer)"))
                });
                if n == 0 {
                    config_fail("--max-instances must be >= 1 (0 would admit nothing)".into());
                }
                args.max_instances = n;
            }
            "--instance-budget" => {
                let s = it.next().unwrap_or_else(|| {
                    config_fail("--instance-budget needs a firing count".into())
                });
                let n = s.parse::<u64>().unwrap_or_else(|_| {
                    config_fail(format!(
                        "bad --instance-budget `{s}` (expected a firing count)"
                    ))
                });
                if n == 0 {
                    config_fail("--instance-budget must be >= 1".into());
                }
                args.budget.max_firings = n;
            }
            "--instance-buffer" => {
                let s = it
                    .next()
                    .unwrap_or_else(|| config_fail("--instance-buffer needs an item count".into()));
                let n = s.parse::<u64>().unwrap_or_else(|_| {
                    config_fail(format!(
                        "bad --instance-buffer `{s}` (expected an item count)"
                    ))
                });
                args.budget.in_capacity = n;
                args.budget.out_capacity = n;
            }
            "--stall-ms" => {
                let s = it
                    .next()
                    .unwrap_or_else(|| config_fail("--stall-ms needs a deadline".into()));
                let ms = s.parse::<u64>().unwrap_or_else(|_| {
                    config_fail(format!("bad --stall-ms `{s}` (expected milliseconds)"))
                });
                args.stall_ms = if ms == 0 { None } else { Some(ms) };
            }
            "--poll-ms" => {
                let s = it
                    .next()
                    .unwrap_or_else(|| config_fail("--poll-ms needs milliseconds".into()));
                args.poll_ms = s.parse::<u64>().unwrap_or_else(|_| {
                    config_fail(format!("bad --poll-ms `{s}` (expected milliseconds)"))
                });
            }
            "--help" | "-h" => {
                usage_hint();
                std::process::exit(2);
            }
            f if !f.starts_with('-') => args.programs.push(f.to_string()),
            other => config_fail(format!("unknown flag `{other}`")),
        }
    }
    if args.programs.is_empty() {
        args.programs.push("fmradio".into());
    }
    args
}

/// The builtin programs: the four throughput apps at their
/// `apps::corpus()` parameters, plus a small FMRadio for dense tenancy.
fn builtin(name: &str) -> Option<streamit::graph::StreamNode> {
    use streamit::apps;
    match name {
        "fmradio-small" => Some(apps::fmradio::fmradio(4, 16)),
        _ if apps::THROUGHPUT_APPS.contains(&name) => Some(apps::corpus_app(name).graph()),
        _ => None,
    }
}

/// Resolve one PROGRAM argument to a (name, compiled program) pair.
fn load_program(spec: &str) -> Result<(String, CompiledProgram), i32> {
    if let Some(stream) = builtin(spec) {
        return match Compiler::default().compile_stream(stream) {
            Ok(p) => Ok((spec.to_string(), p)),
            Err(e) => {
                let d = Diag::from(e);
                eprintln!("streamd: builtin `{spec}`: {d}");
                Err(d.exit_code())
            }
        };
    }
    let Some((name, rest)) = spec.split_once('=') else {
        eprintln!(
            "{}",
            config_error(format!(
                "unknown program `{spec}` (builtins: fmradio, fmradio-small, filterbank, \
                 beamformer, bitonic; or NAME=FILE.str[:MAIN])"
            ))
        );
        return Err(2);
    };
    let (path, main) = match rest.rsplit_once(':') {
        Some((p, m)) if p.ends_with(".str") => (p, m),
        _ => (rest, "Main"),
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("streamd: cannot read `{path}`: {e}");
            return Err(1);
        }
    };
    match Compiler::default().compile_source(&source, main) {
        Ok(p) => Ok((name.to_string(), p)),
        Err(e) => {
            let d = Diag::from(e);
            eprintln!("streamd: `{path}`: {d}");
            Err(d.exit_code())
        }
    }
}

fn main() {
    let args = parse_args();
    let mut daemon = Daemon::new(DaemonConfig {
        max_instances: args.max_instances,
        budget: args.budget,
        stall_ms: args.stall_ms,
    });
    for spec in &args.programs {
        let (name, program) = match load_program(spec) {
            Ok(x) => x,
            Err(code) => std::process::exit(code),
        };
        if let Err(d) = daemon.add_program(&name, &program) {
            eprintln!("streamd: program `{name}`: {d}");
            std::process::exit(d.exit_code());
        }
    }
    let daemon = Arc::new(daemon);

    sig::install();
    let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
    // Bridge the process-global signal flag into the server's flag.
    {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || loop {
            if sig::SHUTDOWN.load(Ordering::SeqCst) {
                shutdown.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        });
    }

    let server = match Server::bind(
        Arc::clone(&daemon),
        ServerConfig {
            listen: args.listen,
            metrics: args.metrics,
            poll_ms: args.poll_ms,
            sweep_ms: 250,
        },
        Arc::clone(&shutdown),
    ) {
        Ok(s) => s,
        Err(d) => {
            eprintln!("{d}");
            usage_hint();
            std::process::exit(d.exit_code());
        }
    };

    println!(
        "streamd: serving programs: {}",
        daemon.program_names().join(", ")
    );
    println!("streamd: listening on {}", server.local_addr());
    if let Some(m) = server.metrics_addr() {
        println!("streamd: metrics on {m}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    server.run();

    let m = &daemon.metrics;
    println!(
        "streamd: shutdown complete (admitted {}, rejected {}, evicted {}, items in {}, items out {}, iterations {})",
        m.admitted.load(Ordering::Relaxed),
        m.rejected.load(Ordering::Relaxed),
        m.evicted_total(),
        m.items_in.load(Ordering::Relaxed),
        m.items_out.load(Ordering::Relaxed),
        m.iterations.load(Ordering::Relaxed),
    );
}
