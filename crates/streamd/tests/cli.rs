//! Golden CLI tests for the `streamd` binary: every config error must
//! be a typed `error[E0807]` on stderr with exit code 2, and a live
//! daemon must serve the wire protocol to many instances over several
//! connections, account for them on its metrics endpoint, survive an
//! injected instance panic, and shut down cleanly on SIGTERM with exit
//! code 0.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn streamd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_streamd"))
}

/// Run `streamd` with `args`, expecting a config rejection: exit 2 and
/// a typed `error[E0807]` mentioning `needle` on stderr.
fn assert_config_error(args: &[&str], needle: &str) {
    let out = streamd().args(args).output().expect("spawns");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "args {args:?}: expected exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("error[E0807]"),
        "args {args:?}: stderr lacks typed diagnostic:\n{stderr}"
    );
    assert!(
        stderr.contains(needle),
        "args {args:?}: stderr lacks `{needle}`:\n{stderr}"
    );
}

#[test]
fn bad_listen_address_is_a_typed_config_error() {
    assert_config_error(&["--listen", "not-an-addr"], "not-an-addr");
    assert_config_error(&["--listen", "unix:"], "unix:");
    assert_config_error(&["--listen"], "--listen needs an address");
}

#[test]
fn zero_max_instances_is_rejected() {
    assert_config_error(&["--max-instances", "0"], "--max-instances must be >= 1");
    assert_config_error(&["--max-instances", "many"], "bad --max-instances");
}

#[test]
fn bad_instance_budget_is_rejected() {
    assert_config_error(&["--instance-budget", "lots"], "bad --instance-budget");
    assert_config_error(
        &["--instance-budget", "0"],
        "--instance-budget must be >= 1",
    );
    assert_config_error(&["--instance-buffer", "big"], "bad --instance-buffer");
}

#[test]
fn unknown_flags_and_programs_are_rejected() {
    assert_config_error(&["--frobnicate"], "unknown flag");
    assert_config_error(&["no-such-program"], "unknown program");
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: String,
    /// The daemon's metrics endpoint, when it was started with one.
    metrics: Option<String>,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        Conn {
            reader: BufReader::new(stream.try_clone().expect("clones")),
            writer: stream,
            addr: addr.to_string(),
            metrics: None,
        }
    }

    /// Send `line` in two pieces, `split` bytes and the rest, with a
    /// pause between them longer than the server's read timeout.
    fn request_split(&mut self, line: &str, split: usize) -> String {
        let (head, tail) = line.split_at(split);
        self.writer.write_all(head.as_bytes()).expect("writes");
        std::thread::sleep(Duration::from_millis(250));
        self.request(tail)
    }

    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("writes");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("reads");
        resp.trim_end().to_string()
    }
}

/// `OPEN …` and the id of the instance it admits.
fn open_id(conn: &mut Conn, spec: &str) -> u64 {
    let resp = conn.request(spec);
    assert!(resp.starts_with("OK "), "{resp}");
    resp.split_whitespace()
        .nth(1)
        .and_then(|t| t.parse().ok())
        .expect("id")
}

/// Spawn `streamd` on an ephemeral port and connect to it.  With
/// `--metrics` among `extra`, the connection knows that endpoint too.
fn spawn_daemon(extra: &[&str]) -> (Child, Conn) {
    let mut child = streamd()
        .args(["fmradio-small", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let mut next_line = |prefix: &str| loop {
        let line = lines
            .next()
            .expect("daemon prints its addresses before EOF")
            .expect("readable");
        if let Some(rest) = line.strip_prefix(prefix) {
            break rest.to_string();
        }
    };
    let addr = next_line("streamd: listening on ");
    let metrics = extra
        .contains(&"--metrics")
        .then(|| next_line("streamd: metrics on "));
    // Keep draining stdout so the daemon never blocks on a full pipe.
    let collector = std::thread::spawn(move || {
        let mut rest = Vec::new();
        for l in lines.map_while(Result::ok) {
            rest.push(l);
        }
        rest
    });
    let conn = Conn {
        metrics,
        ..Conn::connect(&addr)
    };
    // Stash the collector where teardown can find it.
    COLLECTORS.with(|c| c.borrow_mut().push(collector));
    (child, conn)
}

thread_local! {
    #[allow(clippy::type_complexity)]
    static COLLECTORS: std::cell::RefCell<Vec<std::thread::JoinHandle<Vec<String>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn sigterm_and_wait(mut child: Child) -> (i32, Vec<String>) {
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("kill runs")
        .success();
    assert!(ok, "kill -TERM delivered");
    let status = child.wait().expect("waits");
    let rest = COLLECTORS
        .with(|c| c.borrow_mut().pop())
        .map(|h| h.join().expect("collector joins"))
        .unwrap_or_default();
    (status.code().unwrap_or(-1), rest)
}

/// The metrics page, fetched the way any HTTP client would.
fn scrape(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connects");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("writes");
    let mut page = String::new();
    stream.read_to_string(&mut page).expect("reads");
    assert!(page.starts_with("HTTP/1.0 200 OK"), "{page}");
    page
}

#[test]
fn daemon_serves_protocol_and_shuts_down_cleanly_on_sigterm() {
    let (child, conn) = spawn_daemon(&["--metrics", "127.0.0.1:0"]);
    let metrics = conn.metrics.clone().expect("a metrics endpoint");
    let mut conns = vec![conn];
    for _ in 1..4 {
        conns.push(Conn::connect(&conns[0].addr));
    }
    assert_eq!(conns[0].request("PING"), "OK pong");

    // A hundred instances over four connections, each fed one transfer.
    let mut ids = Vec::new();
    for i in 0..100 {
        let conn = &mut conns[i % 4];
        let id = open_id(conn, "OPEN fmradio-small");
        let resp = conn.request(&format!(
            "XFER {id} 8 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16"
        ));
        assert!(resp.starts_with("OK 16 "), "{resp}");
        ids.push(id);
    }
    let unknown = conns[0].request("OPEN nope");
    assert!(
        unknown.starts_with("ERR E0802 ") && unknown.contains("fmradio-small"),
        "unknown program names the served ones: {unknown}"
    );
    let page = scrape(&metrics);
    for line in [
        "streamd_instances_admitted_total 100",
        "streamd_instances_evicted_total{reason=\"panic\"} 0",
    ] {
        assert!(page.lines().any(|l| l == line), "no `{line}` in:\n{page}");
    }
    for (i, id) in ids.into_iter().enumerate() {
        assert_eq!(conns[i % 4].request(&format!("CLOSE {id}")), "OK closed");
    }

    let (code, rest) = sigterm_and_wait(child);
    assert_eq!(code, 0, "clean shutdown exit code");
    assert!(
        rest.iter().any(|l| l.contains("shutdown complete")),
        "stdout tail: {rest:?}"
    );
}

#[test]
fn injected_panic_over_the_wire_spares_daemon_and_siblings() {
    let (child, mut conn) = spawn_daemon(&[]);
    let left = open_id(&mut conn, "OPEN fmradio-small");
    let victim = open_id(&mut conn, "OPEN fmradio-small fault=panic@0:1");
    let right = open_id(&mut conn, "OPEN fmradio-small");

    // Hammer the victim until the injected panic fires and evicts it.
    let feed = "XFER {} 64 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 \
                21 22 23 24 25 26 27 28 29 30 31 32";
    let err = loop {
        let resp = conn.request(&feed.replace("{}", &victim.to_string()));
        if resp.starts_with("ERR") {
            break resp;
        }
    };
    assert!(err.starts_with("ERR E0803 "), "{err}");

    // The daemon is still alive and the siblings produce identical
    // output streams (same program, same input ⇒ same bits).
    assert_eq!(conn.request("PING"), "OK pong");
    let mut outs = Vec::new();
    for id in [left, right] {
        let mut got = Vec::new();
        while got.len() < 24 {
            let resp = conn.request(&feed.replace("{}", &id.to_string()));
            assert!(resp.starts_with("OK "), "{resp}");
            got.extend(resp.split_whitespace().skip(4).map(|t| t.to_string()));
        }
        got.truncate(24);
        outs.push(got);
    }
    assert_eq!(outs[0], outs[1], "siblings bit-identical after the panic");

    let (code, rest) = sigterm_and_wait(child);
    assert_eq!(code, 0);
    assert!(rest.iter().any(|l| l.contains("shutdown complete")));
}

/// A request that straddles the server's read timeout (100 ms) is one
/// request: the bytes that arrived before the timeout used to be thrown
/// away, so `PI` … `NG` answered "unknown command `NG`" and a slow
/// `XFER` lost its head.
#[test]
fn request_split_across_a_read_timeout_is_served_whole() {
    let (child, mut conn) = spawn_daemon(&[]);
    assert_eq!(conn.request_split("PING", 2), "OK pong");

    // Two instances of one program fed the same items answer the same
    // bits; the second gets its `XFER` cut in the middle of a float.
    let ids = [0; 2].map(|_| open_id(&mut conn, "OPEN fmradio-small"));
    let items: Vec<String> = (0..64)
        .map(|i| format!("{}", i as f64 * 0.37 - 9.5))
        .collect();
    let xfer = |id: u64| format!("XFER {id} 64 {}", items.join(" "));
    let whole = conn.request(&xfer(ids[0]));
    assert!(whole.starts_with("OK 64 "), "{whole}");
    assert!(whole.split_whitespace().count() > 4, "some output: {whole}");
    let line = xfer(ids[1]);
    let mid_float = line.find('.').expect("the first item, -9.5") + 1;
    assert_eq!(conn.request_split(&line, mid_float), whole);

    let (code, _) = sigterm_and_wait(child);
    assert_eq!(code, 0);
}

/// A line that never ends is refused once it is longer than any request
/// the instance buffer could admit (64 B × 1024 items + 4 KiB), with a
/// typed error and a closed connection — not buffered without bound —
/// and other connections are not disturbed.
#[test]
fn overlong_line_is_refused_with_bounded_memory() {
    const CAP: usize = 64 * 1024 + 4096;
    let (child, mut conn) = spawn_daemon(&[]);

    // Exactly one byte too many, so the server has read all there is
    // and its close cannot overtake the reply.
    conn.writer.write_all(&vec![b'A'; CAP + 1]).expect("writes");
    let mut resp = String::new();
    conn.reader.read_line(&mut resp).expect("reads");
    assert!(
        resp.starts_with("ERR E0806 ") && resp.contains(&CAP.to_string()),
        "{resp}"
    );
    let mut rest = Vec::new();
    assert_eq!(conn.reader.read_to_end(&mut rest).unwrap_or(0), 0, "closed");

    // 64 MiB with no newline: the daemon stops listening to it after
    // `CAP` bytes (writes fail once it has hung up) and never holds more.
    let mut flood = Conn::connect(&conn.addr);
    let chunk = vec![b'A'; 1 << 20];
    for _ in 0..64 {
        if flood.writer.write_all(&chunk).is_err() {
            break;
        }
    }
    let mut sibling = Conn::connect(&conn.addr);
    assert_eq!(sibling.request("PING"), "OK pong");
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string(format!("/proc/{}/status", child.id()))
            .expect("daemon is running");
        let peak_kib: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next()?.parse().ok())
            .expect("VmHWM");
        assert!(peak_kib < 32 * 1024, "daemon peaked at {peak_kib} KiB");
    }

    let (code, _) = sigterm_and_wait(child);
    assert_eq!(code, 0);
}
