//! `serve-closed`: `streamd` under a closed-loop load.
//!
//! An in-process `Server` on `127.0.0.1:0` serves `fmradio(4, 16)`; two
//! client connections each own 512 instances and walk them round-robin,
//! one `XFER` of 32 items (`max_out` 128) at a time, waiting for each
//! reply before sending the next request.  The loop is closed because
//! that is what a `streamd` connection is: request, response, next
//! request.  The 1024-instance table keeps the working set larger than
//! one instance's tapes, so every request finds its instance cold.
//!
//! What does the work: wire parsing and float formatting, the instance
//! table's locks, `exec::Session` staging, and thread-per-connection
//! scheduling; the engine itself runs about 32 iterations per request.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use streamit::exec::SessionConfig;
use streamit::{apps, CompiledProgram};
use streamit_streamd::server::handle_line;
use streamit_streamd::{Daemon, DaemonConfig, InstanceBudget, Server, ServerConfig};

use crate::compile::{self, PlanCounts, Source};
use crate::harness::{
    all_cpus, cpu_for, peak_rss_mib, rss_kib, set_affinity, thread_id, time_calls, window,
    HostClock, RunCfg, Setups,
};
use crate::metrics::Report;
use crate::prng::Rng;
use crate::stats::{median, percentile, sorted, summarize, typical};
use crate::steady::CHECKED_PREFIX;
use crate::trace::{Span, Tracer};
use crate::verify::{check_prefix, Tolerance};

const APP: &str = "fmradio";
const CONNECTIONS: usize = 2;
const INSTANCES_PER_CONNECTION: usize = 512;
/// Items per `XFER`, and the most the reply may carry.
const CHUNK: usize = 32;
const MAX_OUT: usize = 128;
/// Distinct chunks per connection before the payload repeats; the
/// checked prefix ends well before the first repeat.
const CHUNKS: usize = 192;
/// Instances per connection whose whole wire output is kept and checked.
const TRACKED: usize = 8;
/// Requests per second of the open-loop diagnostic, over both connections.
const OPEN_LOOP_RATE: f64 = 8000.0;
/// Closed-loop requests between two readings of the host's speed (20 us
/// of a client's time in every 5 ms).
const REQUESTS_PER_READING: usize = 64;
/// Whole set-ups (compile to 1024 resident instances) timed up front.
const SETUPS: usize = 5;
/// Slices of the closed-loop window; a burst of the other measurements
/// runs after each.
const ROUNDS: u32 = 5;
/// Compile-and-bind repetitions and new clients per burst.
const BINDS_PER_BURST: usize = 50;
const CLIENTS_PER_BURST: usize = 4;

fn program_source() -> Source {
    Source::builder(|| apps::fmradio::fmradio(4, 16))
}

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        // Room for the 1024 residents plus the first-output probe.
        max_instances: 2048,
        budget: InstanceBudget {
            max_firings: u64::MAX / 2,
            in_capacity: 64,
            out_capacity: 64,
        },
        stall_ms: None,
    }
}

/// One connection's input: the items, and each chunk as wire text.
struct Payload {
    items: Vec<f64>,
    text: Vec<String>,
}

impl Payload {
    fn new(rng: &Rng, connection: usize) -> Payload {
        let items = rng.fork(0x5E00 + connection as u64).signal(CHUNKS * CHUNK);
        let text = items
            .chunks(CHUNK)
            .map(|c| {
                let mut s = String::with_capacity(CHUNK * 24);
                for v in c {
                    s.push(' ');
                    s.push_str(&v.to_string());
                }
                s.push('\n');
                s
            })
            .collect();
        Payload { items, text }
    }

    fn chunk(&self, round: usize) -> &[f64] {
        let r = round % CHUNKS;
        &self.items[r * CHUNK..(r + 1) * CHUNK]
    }
}

/// A line-protocol client: one request out, one reply line back.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
    request: String,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            reply: String::new(),
            request: String::new(),
        })
    }

    /// Send `self.request` (newline-terminated) and read the reply line.
    fn round_trip(&mut self) -> Result<&str, String> {
        self.writer
            .write_all(self.request.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        self.reply.clear();
        match self.reader.read_line(&mut self.reply) {
            Ok(0) => Err("the server closed the connection".into()),
            Ok(_) if self.reply.starts_with("OK") => Ok(self.reply.trim_end()),
            Ok(_) => Err(self.reply.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn send(&mut self, line: &str) -> Result<&str, String> {
        self.request.clear();
        self.request.push_str(line);
        self.request.push('\n');
        self.round_trip()
    }

    fn open(&mut self) -> Result<u64, String> {
        let reply = self.send(&format!("OPEN {APP}"))?;
        reply
            .split_whitespace()
            .nth(1)
            .and_then(|id| id.parse().ok())
            .ok_or_else(|| format!("bad OPEN reply `{reply}`"))
    }

    /// One `XFER` of `payload` to instance `prefix` names; returns how
    /// many items were accepted and produced, and appends the produced
    /// items to `keep` when given.
    fn xfer(
        &mut self,
        prefix: &str,
        payload: &str,
        keep: Option<&mut Vec<f64>>,
    ) -> Result<(usize, usize), String> {
        self.request.clear();
        self.request.push_str(prefix);
        self.request.push_str(payload);
        let reply = self.round_trip()?;
        let mut tok = reply.split_ascii_whitespace().skip(1);
        let mut int = || tok.next().and_then(|t| t.parse::<usize>().ok());
        let (Some(accepted), Some(_ran), Some(n)) = (int(), int(), int()) else {
            return Err(format!("bad XFER reply `{reply}`"));
        };
        if let Some(keep) = keep {
            let before = keep.len();
            keep.extend(tok.filter_map(|t| t.parse::<f64>().ok()));
            if keep.len() - before != n {
                return Err(format!(
                    "XFER reply announced {n} items, carried {}",
                    keep.len() - before
                ));
            }
        }
        Ok((accepted, n))
    }
}

/// The in-process server and the thread that runs it.
struct Stack {
    addr: String,
    /// Kernel thread id of the accept loop, whose CPU mask the
    /// connection handlers it spawns inherit.
    accept_tid: Option<i32>,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// A server bound to its port, not yet accepting.
struct Bound {
    server: Server,
    shutdown: Arc<AtomicBool>,
}

/// Compile the program and bind a server for it: what `compile_ms`
/// times on this workload.
fn compile_and_bind(tr: &Tracer) -> Result<(CompiledProgram, Bound), String> {
    let program = compile::compile_traced(&program_source(), compile::options(None), tr)?;
    let mut daemon = Daemon::new(daemon_config());
    tr.span("streamd.add_program", || daemon.add_program(APP, &program))
        .map_err(|e| e.to_string())?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = tr
        .span("streamd.bind", || {
            Server::bind(
                Arc::new(daemon),
                ServerConfig::default(),
                Arc::clone(&shutdown),
            )
        })
        .map_err(|e| e.to_string())?;
    Ok((program, Bound { server, shutdown }))
}

impl Stack {
    /// Run the accept loop on a thread of its own.
    fn start(bound: Bound) -> Result<Stack, String> {
        let Bound { server, shutdown } = bound;
        let addr = server.local_addr();
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("streamd".into())
            .spawn(move || {
                let _ = tid_tx.send(thread_id());
                server.run()
            })
            .map_err(|e| e.to_string())?;
        Ok(Stack {
            addr,
            accept_tid: tid_rx.recv().ok().flatten(),
            shutdown,
            thread: Some(thread),
        })
    }
}

impl Drop for Stack {
    /// Raise the shutdown flag and wait for the server thread, which
    /// itself waits for its connection handlers.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One connection with its resident instances.
struct Connection {
    client: Client,
    /// `"XFER <id> <max_out>"` per instance, ready to take a payload.
    prefixes: Vec<String>,
    payload: Payload,
    /// The CPU both ends of this connection are pinned to.
    cpu: usize,
    /// Requests sent so far; request `q` goes to instance `q % 512` and
    /// carries chunk `q / 512`, so every instance sees the payload in
    /// order across warm-up and window.
    sent: usize,
    /// The whole wire output, up to the checked prefix, of the first
    /// `TRACKED` instances.
    tracked: Vec<Vec<f64>>,
}

struct Ready {
    // Declared before `stack` so the sockets close before the server is
    // asked to stop: its handlers then see end-of-file at once.
    connections: Vec<Connection>,
    stack: Stack,
    program: CompiledProgram,
    /// Seconds per `OPEN` round trip and resident KiB gained per instance.
    open_s: Vec<f64>,
    rss_kib_per_instance: f64,
}

/// From nothing to 1024 resident instances on two connections.
fn setup(rng: &Rng, tr: &Tracer) -> Result<Ready, String> {
    let (program, bound) = compile_and_bind(tr)?;
    let stack = Stack::start(bound)?;
    let rss_before = rss_kib();
    let mut open_s = Vec::with_capacity(CONNECTIONS * INSTANCES_PER_CONNECTION);
    let mut connections = Vec::new();
    for c in 0..CONNECTIONS {
        // Connection `c` lives on CPU `c`, both ends: the handler thread
        // inherits the accept loop's mask when it is spawned, and the
        // client thread pins itself in `drive`.  Left to the scheduler,
        // the four threads settle into one of several placements for a
        // whole run, and throughput and tail read 20 % to 100 % apart
        // between runs of the same code.
        set_affinity(stack.accept_tid, cpu_for(c));
        let mut client = Client::connect(&stack.addr)?;
        let mut prefixes = Vec::with_capacity(INSTANCES_PER_CONNECTION);
        let mut clock = HostClock::start();
        for _ in 0..INSTANCES_PER_CONNECTION {
            let (id, secs) = clock.time(|| tr.span("streamd.open", || client.open()));
            open_s.push(secs);
            prefixes.push(format!("XFER {} {MAX_OUT}", id?));
        }
        connections.push(Connection {
            client,
            prefixes,
            payload: Payload::new(rng, c),
            cpu: c,
            sent: 0,
            tracked: vec![Vec::new(); TRACKED],
        });
    }
    set_affinity(stack.accept_tid, all_cpus());
    let instances = (CONNECTIONS * INSTANCES_PER_CONNECTION) as f64;
    Ok(Ready {
        connections,
        stack,
        program,
        open_s,
        rss_kib_per_instance: (rss_kib() - rss_before) / instances,
    })
}

/// What one connection measured.
#[derive(Default)]
struct Tally {
    /// Seconds per request, in send order.
    seconds: Vec<f64>,
    /// How late each request left, open loop only.
    late: Vec<f64>,
    items_out: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<Span>,
}

impl Tally {
    /// Append a later slice's measurements on the same connection.
    fn absorb(&mut self, later: Tally) {
        self.seconds.extend(later.seconds);
        self.late.extend(later.late);
        self.items_out += later.items_out;
        self.failed += later.failed;
        self.errors.extend(later.errors);
        self.spans.extend(later.spans);
    }
}

/// How requests are paced.
#[derive(Clone, Copy)]
enum Pace {
    /// Send the next request when the reply arrives.
    Closed,
    /// Send request `i` at `i * period`, or at once if that has passed;
    /// time it from when it was due.
    Open { period: Duration },
}

/// Drive one connection until `seconds` have passed.  Odd requests run
/// inside a span when `tr` records.  Closed-loop samples are in seconds
/// of the nominal host (`harness::host_slowness`), the host's speed read
/// from this thread every [`REQUESTS_PER_READING`] requests; open-loop
/// samples are wall time, because a schedule is not work.
fn drive(conn: &mut Connection, pace: Pace, seconds: f64, start: &Barrier, tr: &Tracer) -> Tally {
    let mut t = Tally {
        seconds: Vec::with_capacity(1 << 19),
        ..Tally::default()
    };
    // A request the instance did not take whole would have to be sent
    // again; with 64-item rings and 32-item requests none is.
    let n = conn.prefixes.len();
    set_affinity(None, cpu_for(conn.cpu));
    start.wait();
    let mut clock = HostClock::start();
    let mut uncorrected = 0;
    let mut correct = |seconds: &mut Vec<f64>| {
        if matches!(pace, Pace::Closed) {
            let factor = clock.read();
            seconds[uncorrected..].iter_mut().for_each(|s| *s /= factor);
            uncorrected = seconds.len();
        }
    };
    let begin = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    for i in 0u32.. {
        if (i as usize).is_multiple_of(REQUESTS_PER_READING) {
            correct(&mut t.seconds);
        }
        let q = conn.sent;
        let (instance, round) = (q % n, q / n);
        let due = match pace {
            Pace::Closed => Instant::now(),
            Pace::Open { period } => {
                let due = begin + period * i;
                loop {
                    let now = Instant::now();
                    if now >= due {
                        t.late.push((now - due).as_secs_f64());
                        break;
                    }
                    if due - now > Duration::from_micros(150) {
                        std::thread::sleep(due - now - Duration::from_micros(100));
                    } else {
                        std::thread::yield_now();
                    }
                }
                due
            }
        };
        let keep = conn
            .tracked
            .get_mut(instance)
            .filter(|kept| kept.len() < CHECKED_PREFIX);
        let payload = &conn.payload.text[round % CHUNKS];
        let prefix = &conn.prefixes[instance];
        let client = &mut conn.client;
        let result = if i % 2 == 1 {
            tr.span("streamd.xfer", || client.xfer(prefix, payload, keep))
        } else {
            client.xfer(prefix, payload, keep)
        };
        let done = Instant::now();
        t.seconds.push((done - due).as_secs_f64());
        match result {
            Ok((accepted, produced)) if accepted == CHUNK => t.items_out += produced as u64,
            Ok((accepted, _)) => {
                t.failed += 1;
                t.errors
                    .push(format!("instance took {accepted} of {CHUNK} items"));
            }
            Err(e) => {
                t.failed += 1;
                if t.errors.len() < 4 {
                    t.errors.push(e);
                }
            }
        }
        conn.sent += 1;
        if done - begin >= limit {
            break;
        }
    }
    correct(&mut t.seconds);
    t.spans = tr.spans();
    t
}

/// Drive every connection from a thread of its own (two threads: the
/// whole load generator) and return their tallies.
fn drive_all(ready: &mut Ready, pace: Pace, seconds: f64, cfg: &RunCfg) -> Vec<Tally> {
    let start = Barrier::new(ready.connections.len());
    let trace = cfg.trace && matches!(pace, Pace::Closed);
    let workload = cfg.workload;
    std::thread::scope(|s| {
        let handles: Vec<_> = ready
            .connections
            .iter_mut()
            .map(|conn| {
                let start = &start;
                s.spawn(move || {
                    let tr = if trace {
                        Tracer::on(workload, 1 << 15)
                    } else {
                        Tracer::off()
                    };
                    drive(conn, pace, seconds, start, &tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load-generator thread panicked"))
            .collect()
    })
}

/// Compare every tracked instance's wire output with the reference
/// interpreter's output for the same connection's input.
fn check(ready: &Ready, report: &mut Report) {
    for (c, conn) in ready.connections.iter().enumerate() {
        let want = match ready.program.run(&conn.payload.items, CHECKED_PREFIX) {
            Ok(w) => w,
            Err(e) => return report.fail(format!("reference interpreter: {e}")),
        };
        for (i, got) in conn.tracked.iter().enumerate() {
            let what = format!("connection {c} instance {i}");
            let n = got.len().min(CHECKED_PREFIX);
            if let Err(e) = check_prefix(&what, Tolerance::Bit, got, &want[..n.min(want.len())], n)
            {
                report.fail(e);
            }
        }
    }
}

/// Fold the connections' tallies into the report's operation counts.
fn fold(tallies: &mut [Tally], report: &mut Report) {
    for t in tallies {
        report.attempted += t.seconds.len() as u64;
        report.failed += t.failed;
        report.errors.extend(t.errors.drain(..).take(4));
    }
}

/// Every connection's request seconds, sorted.
fn all_seconds(tallies: &[Tally]) -> Vec<f64> {
    sorted(
        tallies
            .iter()
            .flat_map(|t| t.seconds.iter().copied())
            .collect(),
    )
}

/// A new client's wait for its first output item: connect, `OPEN`,
/// `XFER` until an item comes back, `CLOSE`.
fn first_output(ready: &Ready) -> Result<(), String> {
    let mut client = Client::connect(&ready.stack.addr)?;
    let id = client.open()?;
    let prefix = format!("XFER {id} {MAX_OUT}");
    let payload = &ready.connections[0].payload;
    let mut produced = 0;
    for round in 0..CHUNKS {
        produced = client.xfer(&prefix, &payload.text[round], None)?.1;
        if produced > 0 {
            break;
        }
    }
    client.send(&format!("CLOSE {id}"))?;
    if produced == 0 {
        return Err("no output after the whole payload".into());
    }
    Ok(())
}

pub fn run(cfg: &RunCfg, report: &mut Report) {
    let rng = Rng::new(cfg.seed);
    if cfg.trace {
        return run_traced(cfg, &rng, report);
    }
    let off = Tracer::off();
    let mut setups = Setups::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        // The one before is dropped first: one stack at a time.
        drop(ready.take());
        match setups.once(|| setup(&rng, &off)) {
            Ok(r) => ready = Some(r),
            Err(e) => return report.fail(format!("set-up: {e}")),
        }
    }
    let Some(mut ready) = ready else { return };
    // Wall time and its median: three quarters of this set-up is two
    // waits for the accept loop's 100 ms poll, a timer (see below).
    report.set("setup_s", median(&setups.wall));

    // An untimed quarter second first: every instance runs its init
    // phase and the server's threads settle on their cores.
    drive_all(&mut ready, Pace::Closed, cfg.seconds.min(1.0) * 0.25, cfg);

    // The window in rounds.  After each: a burst of `compile_ms` samples
    // (program to bound server) and a few new clients' first outputs.
    // Those are wall time, uncorrected: what a new client waits for is
    // the accept loop's 100 ms poll, a timer no host speed changes.
    let (mut compile_s, mut first) = (Vec::new(), Vec::new());
    let mut tallies: Vec<Tally> = (0..CONNECTIONS).map(|_| Tally::default()).collect();
    for _ in 0..ROUNDS {
        let slice = drive_all(&mut ready, Pace::Closed, cfg.seconds / ROUNDS as f64, cfg);
        for (all, t) in tallies.iter_mut().zip(slice) {
            all.absorb(t);
        }
        compile_s.extend(time_calls(BINDS_PER_BURST, || {
            if let Err(e) = compile_and_bind(&off) {
                report.fail(format!("compile and bind: {e}"));
            }
        }));
        for _ in 0..CLIENTS_PER_BURST {
            let t0 = Instant::now();
            if let Err(e) = first_output(&ready) {
                report.fail(format!("first output: {e}"));
            }
            first.push(t0.elapsed().as_secs_f64());
        }
    }
    check(&ready, report);
    fold(&mut tallies, report);

    // Closed loop, no think time: a connection completes one request
    // per request latency, so the rate follows from the latencies.
    let items: u64 = tallies.iter().map(|t| t.items_out).sum();
    let all = all_seconds(&tallies);
    let per_round = CONNECTIONS as f64 * items as f64 / all.len().max(1) as f64;
    report.set_rate("items_per_s", per_round, summarize(&all));
    report.set_tail(&all);
    // The median, not the lower decile: the wait is a timer's period
    // (less for a client that happens to arrive late in one), and the
    // fastest tenth would read the luckiest arrival.
    report.set("first_output_us", median(&first) * 1e6);
    report.set_timing("compile_ms", summarize(&compile_s), 1e3);
    report.set("peak_rss_mib", peak_rss_mib());
}

fn run_traced(cfg: &RunCfg, rng: &Rng, report: &mut Report) {
    let tr = Tracer::on(cfg.workload, 1 << 12);
    let mut ready = match tr.span("setup", || setup(rng, &tr)) {
        Ok(r) => r,
        Err(e) => return report.fail(format!("set-up: {e}")),
    };
    let graph = match ready.program.compile_exec() {
        Ok(g) => Arc::new(g),
        Err(e) => return report.fail(format!("lowering: {e}")),
    };
    match ready.program.compile_parallel(2) {
        Ok(pg) => {
            report.set("rt.stages", pg.stages() as f64);
            report.set("rt.fissed_regions", pg.fission_report().len() as f64);
        }
        Err(_) => report.set("rt.declined_programs", 1.0),
    }
    let phases = compile::phase_metrics(
        &program_source(),
        compile::options(None),
        cfg.workload,
        report,
    );
    report.set("graph.flat_nodes", ready.program.flat.nodes.len() as f64);
    PlanCounts::of(&graph).report(report);
    report.set("exec.items_in_per_batch", CHUNK as f64);
    report.set("streamd.open_us", typical(&ready.open_s) * 1e6);
    report.set("streamd.rss_kib_per_instance", ready.rss_kib_per_instance);

    // Idle-connection floor: socket, handler wake-up, no engine; from
    // the connection's own CPU, as its requests will be.
    set_affinity(None, cpu_for(ready.connections[0].cpu));
    let client = &mut ready.connections[0].client;
    let ping = time_calls(2000, || {
        let _ = client.send("PING");
    });
    set_affinity(None, all_cpus());
    report.set_timing("streamd.tcp_ping_us", summarize(&ping), 1e6);

    // Closed loop, odd requests in spans, even ones not.
    drive_all(&mut ready, Pace::Closed, cfg.seconds.min(1.0) * 0.25, cfg);
    let began = Instant::now();
    let mut tallies = drive_all(&mut ready, Pace::Closed, cfg.share(0.35), cfg);
    let elapsed = began.elapsed().as_secs_f64();
    check(&ready, report);
    fold(&mut tallies, report);
    let all = all_seconds(&tallies);
    // Request 0 of each connection ran outside a span, request 1 inside.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for t in &tallies {
        plain.extend(t.seconds.iter().copied().step_by(2));
        traced.extend(t.seconds.iter().copied().skip(1).step_by(2));
    }
    let (plain_s, traced_s) = (typical(&plain), typical(&traced));
    let items: u64 = tallies.iter().map(|t| t.items_out).sum();
    // One output item per input item once an instance's windows are full.
    report.set(
        "exec.items_out_per_batch",
        (CHUNK as u64 / graph.inputs_per_iteration().max(1) * graph.outputs_per_iteration()) as f64,
    );
    report.set("trace.items_per_s", items as f64 / elapsed);
    report.set("trace.overhead_share", (traced_s - plain_s) / traced_s);
    report.set("streamd.req_p50_us", percentile(&all, 50.0) * 1e6);
    report.set("streamd.req_p99_us", percentile(&all, 99.0) * 1e6);
    report.set("streamd.req_p999_us", percentile(&all, 99.9) * 1e6);
    report.set(
        "streamd.req_max_us",
        all.last().copied().unwrap_or(0.0) * 1e6,
    );

    // Open loop at a fixed rate over the same two connections.
    let period = Duration::from_secs_f64(CONNECTIONS as f64 / OPEN_LOOP_RATE);
    let mut open = drive_all(
        &mut ready,
        Pace::Open { period },
        cfg.share(0.3).min(5.0),
        cfg,
    );
    let mut late = Vec::new();
    for t in &open {
        late.extend_from_slice(&t.late);
    }
    fold(&mut open, report);
    let open_all = all_seconds(&open);
    report.set(
        "streamd.open_loop_p50_us",
        percentile(&open_all, 50.0) * 1e6,
    );
    report.set(
        "streamd.open_loop_p99_us",
        percentile(&open_all, 99.0) * 1e6,
    );
    report.set(
        "streamd.open_loop_late_max_us",
        sorted(late).last().copied().unwrap_or(0.0) * 1e6,
    );

    replay_depths(&ready, &graph, report);

    // The engine alone: the same program through a `Session`, and on
    // the reference interpreter.
    let input = &ready.connections[0].payload.items;
    let mut items = 0usize;
    let w = window(cfg.share(0.1), &mut report.errors, || {
        let mut s = graph
            .open_session(&SessionConfig::with_buffers(64))
            .map_err(|e| e.to_string())?;
        items = 0;
        for chunk in input.chunks(CHUNK) {
            s.push_input(chunk);
            s.step(u64::MAX).map_err(|e| e.to_string())?;
            items += s.pull_output(MAX_OUT).len();
        }
        Ok(())
    });
    report.set_rate("exec.session_items_per_s", items as f64, w.summary());
    let w = window(cfg.share(0.1).min(2.0), &mut report.errors, || {
        ready
            .program
            .run(input, 256)
            .map(drop)
            .map_err(|e| e.to_string())
    });
    report.set_rate("interp.items_per_s", 256.0, w.summary());

    let mut spans = vec![tr.spans(), phases];
    spans.extend(tallies.into_iter().map(|t| t.spans));
    crate::write_trace(cfg, &spans);
}

/// The same recorded `XFER` requests replayed from one thread at three
/// depths of the stack; the differences are each layer's own time.
fn replay_depths(ready: &Ready, graph: &Arc<streamit::exec::CompiledGraph>, report: &mut Report) {
    const INSTANCES: usize = 64;
    const ROUNDS: usize = 32;
    let payload = &ready.connections[0].payload;
    let new_daemon = || {
        let mut d = Daemon::new(daemon_config());
        d.add_program(APP, &ready.program).map(|()| d)
    };
    let (wire, tenancy) = match (new_daemon(), new_daemon()) {
        (Ok(a), Ok(b)) => (a, b),
        _ => return report.fail("replay: the daemon refused the program".into()),
    };
    let mut ids = Vec::new();
    let mut lines = Vec::new();
    for _ in 0..INSTANCES {
        let reply = handle_line(&wire, &format!("OPEN {APP}"));
        let id: Option<u64> = reply.split_whitespace().nth(1).and_then(|t| t.parse().ok());
        match (id, tenancy.open(APP, None)) {
            (Some(id), Ok(info)) => {
                lines.push(format!("XFER {id} {MAX_OUT}"));
                ids.push(info.id);
            }
            _ => return report.fail("replay: OPEN failed".into()),
        }
    }
    let mut sessions = Vec::new();
    for _ in 0..INSTANCES {
        match graph.open_session(&SessionConfig::with_buffers(64)) {
            Ok(s) => sessions.push(s),
            Err(e) => return report.fail(format!("replay: {e}")),
        }
    }
    let (mut t_line, mut t_feed, mut t_session) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    let mut clock = HostClock::start();
    for round in 0..ROUNDS {
        let text = payload.text[round % CHUNKS].trim_end();
        let chunk = payload.chunk(round);
        for i in 0..INSTANCES {
            let line = format!("{}{}", lines[i], text);
            let (reply, secs) = clock.time(|| handle_line(&wire, &line));
            t_line.push(secs);
            failed += u64::from(!reply.starts_with("OK"));

            let (fed, secs) = clock.time(|| tenancy.feed(ids[i], chunk, MAX_OUT));
            t_feed.push(secs);
            failed += u64::from(fed.is_err());

            let s = &mut sessions[i];
            let (stepped, secs) = clock.time(|| {
                s.push_input(chunk);
                let stepped = s.step(u64::MAX);
                std::hint::black_box(s.pull_output(MAX_OUT));
                stepped
            });
            t_session.push(secs);
            failed += u64::from(stepped.is_err());
        }
    }
    if failed > 0 {
        report.fail(format!("replay: {failed} requests failed"));
    }
    let (line, feed, session) = (typical(&t_line), typical(&t_feed), typical(&t_session));
    report.set_timing("streamd.handle_line_us", summarize(&t_line), 1e6);
    report.set_timing("streamd.daemon_feed_us", summarize(&t_feed), 1e6);
    report.set_timing("exec.session_xfer_us", summarize(&t_session), 1e6);
    report.set("streamd.wire_us", (line - feed) * 1e6);
    report.set("streamd.tenancy_us", (feed - session) * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_text_round_trips_bit_for_bit() {
        let p = Payload::new(&Rng::new(3), 1);
        assert_eq!(p.text.len(), CHUNKS);
        let back: Vec<f64> = p.text[5]
            .split_ascii_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(back, p.chunk(5));
        assert_eq!(p.chunk(5), p.chunk(5 + CHUNKS));
        assert_ne!(Payload::new(&Rng::new(3), 0).items, p.items);
    }
}
