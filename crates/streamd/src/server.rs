//! The daemon's front door: a line-oriented protocol over TCP or unix
//! sockets, a plaintext HTTP-ish metrics endpoint, and the stall-sweep
//! watchdog thread.
//!
//! Connections are served thread-per-connection (the instance table,
//! not the connection count, is the scaling axis: one connection can
//! multiplex any number of instances, which is how the `serve-closed`
//! benchmark drives hundreds).  The accept loop waits on the listener for at most
//! `poll_ms` and every read uses the same short timeout, so a client is
//! served when it arrives and the shutdown flag is still seen promptly;
//! `Server::run` returns only after the accept loops have stopped, the
//! handlers have drained, and every instance has been closed — the
//! clean-shutdown contract the CLI tests assert over SIGTERM.
//!
//! ## Protocol
//!
//! One request per line, one response per line (space-separated
//! fields; floats in Rust's shortest round-trip form, so values survive
//! the wire bit-identically):
//!
//! ```text
//! PING                        -> OK pong
//! OPEN <app> [fault=SPEC]     -> OK <id> round_in=<n> round_out=<m>
//! PUSH <id> <v>...            -> OK <accepted> <ran> 0
//! PULL <id> <max>             -> OK 0 <ran> <n> <v>...
//! XFER <id> <max_out> <v>...  -> OK <accepted> <ran> <n> <v>...
//! STATS <id>                  -> OK app=<name> iterations=<i> ...
//! CLOSE <id>                  -> OK closed
//! METRICS                     -> OK metrics <len>\n<len raw bytes>
//! QUIT                        -> OK bye (connection closes)
//! ```
//!
//! Errors are `ERR <code> <message>` with an `E08xx` (or mapped
//! engine) code — see the crate docs for the taxonomy.  A request may
//! arrive in any number of pieces, however slowly; one longer than the
//! instance buffer could ever admit (`max_line_bytes`) is answered with
//! `E0806` and the connection is closed.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use streamit::Diag;

use crate::daemon::Daemon;

/// Where to listen: `ip:port` for TCP, `unix:PATH` for a unix socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl std::str::FromStr for ListenAddr {
    type Err = Diag;

    fn from_str(s: &str) -> Result<ListenAddr, Diag> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(crate::config_error("empty unix socket path in `unix:`"));
            }
            return Ok(ListenAddr::Unix(PathBuf::from(path)));
        }
        s.parse::<SocketAddr>().map(ListenAddr::Tcp).map_err(|_| {
            crate::config_error(format!(
                "bad listen address `{s}` (expected `ip:port` or `unix:PATH`)"
            ))
        })
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(a) => write!(f, "{a}"),
            ListenAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// Server policy knobs (the daemon policy lives in
/// [`crate::DaemonConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    pub listen: ListenAddr,
    /// Optional metrics endpoint (plaintext over HTTP/1.0, so `curl`
    /// works).
    pub metrics: Option<ListenAddr>,
    /// Read/accept poll granularity — bounds shutdown latency.
    pub poll_ms: u64,
    /// Stall-sweep cadence (the sweep itself is gated by
    /// `DaemonConfig::stall_ms`).
    pub sweep_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: ListenAddr::Tcp(
                "127.0.0.1:0"
                    .parse()
                    .unwrap_or(SocketAddr::from(([127, 0, 0, 1], 0))),
            ),
            metrics: None,
            poll_ms: 100,
            sweep_ms: 250,
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(d)),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(Some(d)),
        }
    }

    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
    }
}

impl Listener {
    fn bind(addr: &ListenAddr) -> Result<Listener, Diag> {
        match addr {
            ListenAddr::Tcp(a) => {
                let l = TcpListener::bind(a)
                    .map_err(|e| crate::config_error(format!("cannot bind {a}: {e}")))?;
                l.set_nonblocking(true)
                    .map_err(|e| crate::config_error(format!("cannot configure {a}: {e}")))?;
                Ok(Listener::Tcp(l))
            }
            #[cfg(unix)]
            ListenAddr::Unix(p) => {
                // A stale socket file from a previous run blocks bind.
                let _ = std::fs::remove_file(p);
                let l = UnixListener::bind(p).map_err(|e| {
                    crate::config_error(format!("cannot bind unix:{}: {e}", p.display()))
                })?;
                l.set_nonblocking(true).map_err(|e| {
                    crate::config_error(format!("cannot configure unix:{}: {e}", p.display()))
                })?;
                Ok(Listener::Unix(l, p.clone()))
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(p) => Err(crate::config_error(format!(
                "unix sockets unsupported on this platform: unix:{}",
                p.display()
            ))),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    /// Block until a connection is waiting (or the wait is interrupted),
    /// for at most `timeout`.
    #[cfg(unix)]
    fn wait(&self, timeout: Duration) {
        use std::os::fd::AsRawFd;
        let fd = match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l, _) => l.as_raw_fd(),
        };
        let mut fds = [sys::PollFd {
            fd,
            events: sys::POLLIN,
            revents: 0,
        }];
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `fds` is one initialised `pollfd` that outlives the
        // call, and the count passed is its length; `poll` writes only
        // `revents`.  The descriptor belongs to `self`, which is
        // borrowed for the whole call.  The result is not needed: ready,
        // timed out, interrupted or failed, the caller tries `accept`
        // again, and that reports what there is to report.
        unsafe { sys::poll(fds.as_mut_ptr(), 1, ms) };
    }

    #[cfg(not(unix))]
    fn wait(&self, timeout: Duration) {
        std::thread::sleep(timeout);
    }

    fn local_addr(&self) -> String {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".into()),
            #[cfg(unix)]
            Listener::Unix(_, p) => format!("unix:{}", p.display()),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// `poll(2)`, the one system call std has no wrapper for: wait on a
/// listener with a timeout.
#[cfg(unix)]
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 1;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
}

/// A bound (but not yet serving) daemon front door.  Binding is
/// separate from running so the caller can print the resolved address
/// (port 0 is the ephemeral-port idiom the tests use) before blocking.
pub struct Server {
    daemon: Arc<Daemon>,
    listener: Listener,
    metrics_listener: Option<Listener>,
    shutdown: Arc<AtomicBool>,
    cfg: ServerConfig,
}

impl Server {
    /// Bind the protocol (and optional metrics) listeners.  Bind
    /// failures are configuration errors (`E0807`).
    pub fn bind(
        daemon: Arc<Daemon>,
        cfg: ServerConfig,
        shutdown: Arc<AtomicBool>,
    ) -> Result<Server, Diag> {
        let listener = Listener::bind(&cfg.listen)?;
        let metrics_listener = match &cfg.metrics {
            Some(a) => Some(Listener::bind(a)?),
            None => None,
        };
        Ok(Server {
            daemon,
            listener,
            metrics_listener,
            shutdown,
            cfg,
        })
    }

    /// The resolved protocol address (with the ephemeral port filled
    /// in).
    pub fn local_addr(&self) -> String {
        self.listener.local_addr()
    }

    /// The resolved metrics address, when configured.
    pub fn metrics_addr(&self) -> Option<String> {
        self.metrics_listener.as_ref().map(|l| l.local_addr())
    }

    /// Serve until the shutdown flag is raised, then drain: stop
    /// accepting, wait for connection handlers to notice (bounded by
    /// their read timeout), and close every instance.
    pub fn run(self) {
        let poll = Duration::from_millis(self.cfg.poll_ms.max(10));
        let active = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();

        // Stall-sweep watchdog.
        {
            let daemon = Arc::clone(&self.daemon);
            let shutdown = Arc::clone(&self.shutdown);
            let sweep = Duration::from_millis(self.cfg.sweep_ms.max(10));
            threads.push(std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    daemon.sweep_stalled();
                    std::thread::sleep(sweep);
                }
            }));
        }

        // Metrics endpoint.
        if let Some(ml) = self.metrics_listener {
            let daemon = Arc::clone(&self.daemon);
            let shutdown = Arc::clone(&self.shutdown);
            threads.push(std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    match ml.accept() {
                        Ok(conn) => serve_metrics_once(&daemon, conn),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(20)),
                    }
                }
            }));
        }

        // Protocol accept loop.
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok(conn) => {
                    let daemon = Arc::clone(&self.daemon);
                    let shutdown = Arc::clone(&self.shutdown);
                    let active = Arc::clone(&active);
                    active.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_conn(&daemon, conn, &shutdown, poll);
                        active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                // Nobody waiting: sleep until somebody is, or `poll`
                // passes and the flag is due another look.
                Err(e) if e.kind() == ErrorKind::WouldBlock => self.listener.wait(poll),
                Err(_) => std::thread::sleep(poll),
            }
        }

        // Drain: handlers poll the flag at `poll` granularity; give
        // them a few cycles, then close whatever instances remain.
        let grace = std::time::Instant::now();
        while active.load(Ordering::SeqCst) > 0 && grace.elapsed() < Duration::from_secs(3) {
            std::thread::sleep(Duration::from_millis(20));
        }
        for t in threads {
            let _ = t.join();
        }
        self.daemon.close_all();
    }
}

fn serve_metrics_once(daemon: &Daemon, mut conn: Conn) {
    // Swallow whatever request head arrives (curl sends one; nc may
    // send nothing) without waiting long, then answer and close.
    let _ = conn.set_read_timeout(Duration::from_millis(50));
    let mut scratch = [0u8; 1024];
    let _ = conn.read(&mut scratch);
    let body = daemon.metrics.render(daemon.live());
    let resp = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = conn.write_all(resp.as_bytes());
    let _ = conn.flush();
}

/// Longest request line served, in bytes: several times the largest
/// `XFER` the instance buffer admits (an item in shortest round-trip
/// form is at most 25 bytes with its separator).
fn max_line_bytes(daemon: &Daemon) -> usize {
    let items = usize::try_from(daemon.config().budget.in_capacity).unwrap_or(usize::MAX);
    items.saturating_mul(64).saturating_add(4096)
}

fn handle_conn(daemon: &Daemon, conn: Conn, shutdown: &AtomicBool, poll: Duration) {
    if conn.set_read_timeout(poll).is_err() {
        return;
    }
    let mut writer = match conn.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(conn);
    let cap = max_line_bytes(daemon);
    // The request being received.  A read that times out keeps what has
    // arrived so far; only a served line is cleared.
    let mut line = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        // One byte past the cap is enough to see a line is too long.
        let room = (cap + 1).saturating_sub(line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // EOF
            Ok(_) if line.len() > cap && !line.ends_with(b"\n") => {
                let refusal =
                    crate::protocol_error(format!("request line longer than {cap} bytes"));
                let _ = writer.write_all(err_line(&refusal).as_bytes());
                return;
            }
            // A whole line, or the last one cut short by EOF.
            Ok(_) => {
                let resp = match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => None,
                    Ok(req) if req.eq_ignore_ascii_case("QUIT") => {
                        let _ = writer.write_all(b"OK bye\n");
                        return;
                    }
                    Ok(req) => Some(handle_line(daemon, req)),
                    Err(_) => Some(err_line(&crate::protocol_error(
                        "request is not valid UTF-8",
                    ))),
                };
                line.clear();
                if let Some(resp) = resp {
                    if writer.write_all(resp.as_bytes()).is_err() || writer.flush().is_err() {
                        return;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

fn err_line(d: &Diag) -> String {
    let msg: String = d
        .message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {} {}\n", d.code, msg)
}

fn parse_id(tok: Option<&str>) -> Result<u64, Diag> {
    tok.ok_or_else(|| crate::protocol_error("missing instance id"))?
        .parse::<u64>()
        .map_err(|_| crate::protocol_error("bad instance id (expected an integer)"))
}

fn parse_floats(toks: &[&str]) -> Result<Vec<f64>, Diag> {
    toks.iter()
        .map(|t| {
            t.parse::<f64>()
                .map_err(|_| crate::protocol_error(format!("bad item `{t}` (expected a number)")))
        })
        .collect()
}

fn fmt_values(out: &mut String, vs: &[f64]) {
    use std::fmt::Write as _;
    for v in vs {
        let _ = write!(out, " {v}");
    }
}

/// Execute one protocol line against the daemon and return the
/// complete response bytes (newline-terminated; `METRICS` responses
/// carry a framed body after the status line).  Public so tests can
/// exercise the protocol without sockets.
pub fn handle_line(daemon: &Daemon, line: &str) -> String {
    match handle_line_inner(daemon, line) {
        Ok(resp) => resp,
        Err(d) => err_line(&d),
    }
}

fn handle_line_inner(daemon: &Daemon, line: &str) -> Result<String, Diag> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let cmd = toks.first().copied().unwrap_or("");
    match cmd.to_ascii_uppercase().as_str() {
        "PING" => Ok("OK pong\n".into()),
        "OPEN" => {
            let app = toks
                .get(1)
                .ok_or_else(|| crate::protocol_error("OPEN needs a program name"))?;
            let mut fault = None;
            for t in &toks[2..] {
                match t.strip_prefix("fault=") {
                    Some(spec) => {
                        fault = Some(spec.parse().map_err(|e: String| {
                            crate::protocol_error(format!("bad fault spec: {e}"))
                        })?);
                    }
                    None => {
                        return Err(crate::protocol_error(format!(
                            "unexpected OPEN argument `{t}`"
                        )))
                    }
                }
            }
            let info = daemon.open(app, fault)?;
            Ok(format!(
                "OK {} round_in={} round_out={}\n",
                info.id, info.round_in, info.round_out
            ))
        }
        "PUSH" => {
            let id = parse_id(toks.get(1).copied())?;
            let items = parse_floats(&toks[2..])?;
            let t = daemon.feed(id, &items, 0)?;
            Ok(format!("OK {} {} 0\n", t.accepted, t.iterations))
        }
        "PULL" => {
            let id = parse_id(toks.get(1).copied())?;
            let max: usize = toks
                .get(2)
                .ok_or_else(|| crate::protocol_error("PULL needs a max item count"))?
                .parse()
                .map_err(|_| crate::protocol_error("bad max item count"))?;
            let t = daemon.feed(id, &[], max)?;
            let mut resp = format!("OK 0 {} {}", t.iterations, t.output.len());
            fmt_values(&mut resp, &t.output);
            resp.push('\n');
            Ok(resp)
        }
        "XFER" => {
            let id = parse_id(toks.get(1).copied())?;
            let max: usize = toks
                .get(2)
                .ok_or_else(|| crate::protocol_error("XFER needs a max output count"))?
                .parse()
                .map_err(|_| crate::protocol_error("bad max output count"))?;
            let items = parse_floats(&toks[3..])?;
            let t = daemon.feed(id, &items, max)?;
            let mut resp = format!("OK {} {} {}", t.accepted, t.iterations, t.output.len());
            fmt_values(&mut resp, &t.output);
            resp.push('\n');
            Ok(resp)
        }
        "STATS" => {
            let id = parse_id(toks.get(1).copied())?;
            let s = daemon.stats(id)?;
            Ok(format!(
                "OK app={} iterations={} items_in={} items_out={} staged={} available={}\n",
                s.app, s.iterations, s.items_in, s.items_out, s.staged_input, s.available_output
            ))
        }
        "CLOSE" => {
            let id = parse_id(toks.get(1).copied())?;
            daemon.close(id)?;
            Ok("OK closed\n".into())
        }
        "METRICS" => {
            let body = daemon.metrics.render(daemon.live());
            Ok(format!("OK metrics {}\n{}", body.len(), body))
        }
        "" => Err(crate::protocol_error("empty command")),
        other => Err(crate::protocol_error(format!(
            "unknown command `{other}` (PING OPEN PUSH PULL XFER STATS CLOSE METRICS QUIT)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_addr_parses_tcp_and_unix() {
        let a: ListenAddr = "127.0.0.1:7777".parse().expect("tcp parses");
        assert_eq!(a.to_string(), "127.0.0.1:7777");
        let a: ListenAddr = "unix:/tmp/x.sock".parse().expect("unix parses");
        assert_eq!(a.to_string(), "unix:/tmp/x.sock");
        let e = "not-an-addr".parse::<ListenAddr>().expect_err("rejects");
        assert_eq!(e.code, "E0807");
        assert_eq!(e.exit_code(), 2);
        let e = "localhost:99".parse::<ListenAddr>().expect_err("no dns");
        assert_eq!(e.code, "E0807");
        let e = "unix:".parse::<ListenAddr>().expect_err("empty path");
        assert_eq!(e.code, "E0807");
    }
}
