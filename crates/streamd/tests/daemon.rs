//! Integration tests for the tenancy core: admission control, budget
//! enforcement, supervision (panic/stall eviction with typed `E08xx`
//! diagnostics), bit-identity of incremental serving, and the
//! socket-free protocol surface.

use std::sync::Arc;

use streamit::exec::{CompiledGraph, FaultPlan};
use streamit::Compiler;
use streamit_streamd::{server, Daemon, DaemonConfig, InstanceBudget};

const APP: &str = "fmradio-small";

fn daemon_with(cfg: DaemonConfig) -> Daemon {
    let program = Compiler::default()
        .compile_stream(streamit::apps::fmradio::fmradio(4, 16))
        .expect("compiles");
    let mut d = Daemon::new(cfg);
    d.add_program(APP, &program).expect("exec-supported");
    d
}

fn reference() -> Arc<CompiledGraph> {
    let program = Compiler::default()
        .compile_stream(streamit::apps::fmradio::fmradio(4, 16))
        .expect("compiles");
    Arc::new(program.compile_exec().expect("exec-supported"))
}

fn input(n: u64) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 31 % 2003) as f64) / 20.0 - 50.0)
        .collect()
}

/// Drive one instance with chunked feeds until `want` output items have
/// accumulated; returns (items fed, output).
fn drive(d: &Daemon, id: u64, want: usize) -> (u64, Vec<f64>) {
    let stream = input(1 << 16);
    let mut fed = 0usize;
    let mut out = Vec::new();
    while out.len() < want {
        let t = d
            .feed(id, &stream[fed..fed + 17], 23)
            .unwrap_or_else(|e| panic!("feed: {e}"));
        fed += t.accepted;
        out.extend(t.output);
    }
    out.truncate(want);
    (fed as u64, out)
}

fn assert_bits_eq(want: &[f64], got: &[f64]) {
    assert_eq!(
        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
    );
}

#[test]
fn incremental_serving_is_bit_identical_to_one_shot() {
    let d = daemon_with(DaemonConfig::default());
    let id = d.open(APP, None).expect("admits").id;
    let (fed, got) = drive(&d, id, 96);
    let want = reference()
        .run_collect(&input(fed), got.len())
        .expect("reference runs");
    assert_bits_eq(&want, &got);
    d.close(id).expect("closes");
}

#[test]
fn admission_rejects_past_max_instances_with_e0801() {
    let d = daemon_with(DaemonConfig {
        max_instances: 2,
        ..DaemonConfig::default()
    });
    let a = d.open(APP, None).expect("first admits").id;
    let _b = d.open(APP, None).expect("second admits").id;
    let err = d.open(APP, None).expect_err("third rejected");
    assert_eq!(err.code, "E0801");
    assert_eq!(err.exit_code(), 8);
    assert_eq!(
        d.metrics
            .rejected
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // Capacity frees on close: admission is by live count, not history.
    d.close(a).expect("closes");
    d.open(APP, None).expect("admits after close");
}

#[test]
fn unknown_program_rejects_with_e0802() {
    let d = daemon_with(DaemonConfig::default());
    let err = d.open("no-such-app", None).expect_err("rejected");
    assert_eq!(err.code, "E0802");
    assert!(err.message.contains(APP), "lists served programs: {err}");
}

#[test]
fn exhausted_firing_budget_evicts_with_e0805() {
    let d = daemon_with(DaemonConfig {
        budget: InstanceBudget {
            max_firings: 1, // allowance clamps to one steady iteration
            ..InstanceBudget::default()
        },
        ..DaemonConfig::default()
    });
    let id = d.open(APP, None).expect("admits").id;
    let stream = input(4096);
    let mut iterations = 0;
    let err = loop {
        match d.feed(id, &stream, 64) {
            Ok(t) => iterations += t.iterations,
            Err(e) => break e,
        }
    };
    assert_eq!(err.code, "E0805");
    assert_eq!(iterations, 1, "allowance of one iteration was honored");
    assert_eq!(d.live(), 0, "evicted, not merely rejected");
    // The tombstone keeps answering with the real reason.
    assert_eq!(d.feed(id, &[], 8).expect_err("gone").code, "E0805");
    assert_eq!(
        d.metrics
            .evicted_budget
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

#[test]
fn stall_sweep_evicts_frozen_instance_with_e0804() {
    let d = daemon_with(DaemonConfig {
        stall_ms: Some(50),
        ..DaemonConfig::default()
    });
    let stalled = d
        .open(APP, Some("stall@0:0".parse::<FaultPlan>().expect("spec")))
        .expect("admits")
        .id;
    let healthy = d.open(APP, None).expect("admits").id;
    // The stalled instance has input and output space yet never
    // advances: runnable-looking, zero progress.
    let t = d.feed(stalled, &input(256), 64).expect("feed succeeds");
    assert_eq!(t.iterations, 0);
    std::thread::sleep(std::time::Duration::from_millis(120));
    // The healthy sibling keeps making progress, refreshing its stamp.
    assert!(d.feed(healthy, &input(256), 64).expect("feeds").iterations > 0);
    let evicted = d.sweep_stalled();
    assert_eq!(evicted, vec![stalled]);
    assert_eq!(d.feed(stalled, &[], 8).expect_err("gone").code, "E0804");
    assert!(d.feed(healthy, &[], 8).is_ok(), "sibling undisturbed");
}

#[test]
fn injected_panic_evicts_one_instance_and_spares_siblings() {
    let d = daemon_with(DaemonConfig::default());
    let left = d.open(APP, None).expect("admits").id;
    let victim = d
        .open(APP, Some("panic@0:2".parse::<FaultPlan>().expect("spec")))
        .expect("admits")
        .id;
    let right = d.open(APP, None).expect("admits").id;

    let err = loop {
        match d.feed(victim, &input(4096), 64) {
            Ok(_) => continue,
            Err(e) => break e,
        }
    };
    assert_eq!(err.code, "E0803");
    assert!(
        err.message.contains("injected fault"),
        "payload surfaces in the diagnostic: {err}"
    );
    assert_eq!(d.live(), 2, "only the victim is gone");
    assert_eq!(
        d.metrics
            .evicted_panic
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    // Siblings still serve, bit-identically to the one-shot reference.
    let reference = reference();
    for id in [left, right] {
        let (fed, got) = drive(&d, id, 64);
        let want = reference
            .run_collect(&input(fed), got.len())
            .expect("reference runs");
        assert_bits_eq(&want, &got);
    }
    // And the daemon still admits new work.
    d.open(APP, None).expect("admits after the panic");
}

#[test]
fn protocol_surface_round_trips_and_reports_typed_errors() {
    let d = daemon_with(DaemonConfig::default());
    assert_eq!(server::handle_line(&d, "PING"), "OK pong\n");
    let unknown = server::handle_line(&d, "FLOOP");
    assert!(
        unknown.starts_with("ERR E0806 unknown command"),
        "{unknown}"
    );
    assert!(server::handle_line(&d, "XFER 99 8").starts_with("ERR E0808 "));

    let open = server::handle_line(&d, &format!("OPEN {APP}"));
    assert!(open.starts_with("OK "), "{open}");
    let id: u64 = open
        .split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .expect("id");

    // Drive over the wire and in-process in lockstep; the text protocol
    // must not perturb a single bit.
    let twin = d.open(APP, None).expect("admits").id;
    let stream = input(512);
    let mut wire_out: Vec<f64> = Vec::new();
    let mut direct_out: Vec<f64> = Vec::new();
    let mut fed = 0usize;
    while direct_out.len() < 32 {
        use std::fmt::Write as _;
        let chunk = &stream[fed..fed + 19];
        let mut line = format!("XFER {id} 16");
        for v in chunk {
            let _ = write!(line, " {v}");
        }
        let resp = server::handle_line(&d, &line);
        let mut toks = resp.split_whitespace();
        assert_eq!(toks.next(), Some("OK"), "{resp}");
        let accepted: usize = toks.next().and_then(|t| t.parse().ok()).expect("accepted");
        let _ran = toks.next();
        let n: usize = toks.next().and_then(|t| t.parse().ok()).expect("count");
        let vals: Vec<f64> = toks.map(|t| t.parse().expect("float")).collect();
        assert_eq!(vals.len(), n);
        wire_out.extend(vals);

        let t = d.feed(twin, chunk, 16).expect("twin feeds");
        assert_eq!(t.accepted, accepted, "identical backpressure");
        direct_out.extend(t.output);
        fed += accepted;
    }
    assert_bits_eq(&direct_out, &wire_out);

    assert_eq!(
        server::handle_line(&d, &format!("CLOSE {id}")),
        "OK closed\n"
    );
    assert!(server::handle_line(&d, &format!("STATS {id}")).starts_with("ERR E0808 "));
    let metrics = server::handle_line(&d, "METRICS");
    assert!(metrics.starts_with("OK metrics "), "{metrics}");
    assert!(metrics.contains("streamd_instances_admitted_total 2"));
}

/// The accept loop waits *for a client*, not for its next tick: on an
/// idle server with a 500 ms poll a new connection is answered at once
/// (it used to wait out the rest of a `poll_ms` sleep), over TCP and a
/// unix socket alike, and the shutdown flag is still seen within a poll.
#[cfg(unix)]
#[test]
fn idle_server_accepts_a_connection_when_it_arrives() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};
    use streamit_streamd::{ListenAddr, Server, ServerConfig};

    fn ping(mut conn: impl Read + Write) -> String {
        conn.write_all(b"PING\n").expect("writes");
        let mut resp = String::new();
        BufReader::new(conn).read_line(&mut resp).expect("reads");
        resp
    }

    let sock = std::env::temp_dir().join(format!("streamd-accept-{}.sock", std::process::id()));
    let listens = [
        "127.0.0.1:0".parse::<ListenAddr>().expect("tcp address"),
        ListenAddr::Unix(sock),
    ];
    for listen in listens {
        let shutdown = Arc::new(AtomicBool::new(false));
        let cfg = ServerConfig {
            listen,
            poll_ms: 500,
            ..ServerConfig::default()
        };
        let server = Server::bind(
            Arc::new(daemon_with(DaemonConfig::default())),
            cfg,
            Arc::clone(&shutdown),
        )
        .expect("binds");
        let addr = server.local_addr();
        let serving = std::thread::spawn(move || server.run());
        // Let the loop find nobody waiting and go to sleep.
        std::thread::sleep(Duration::from_millis(100));

        let t0 = Instant::now();
        let resp = match addr.strip_prefix("unix:") {
            Some(path) => ping(std::os::unix::net::UnixStream::connect(path).expect("connects")),
            None => ping(std::net::TcpStream::connect(&addr).expect("connects")),
        };
        let waited = t0.elapsed();
        assert_eq!(resp, "OK pong\n");
        assert!(
            waited < Duration::from_millis(100),
            "{addr}: answered after {waited:?}"
        );

        let t0 = Instant::now();
        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("server thread joins");
        // One poll for the accept loop, one for the connection's reader.
        assert!(
            t0.elapsed() < Duration::from_millis(1500),
            "{addr}: shut down after {:?}",
            t0.elapsed()
        );
    }
}
