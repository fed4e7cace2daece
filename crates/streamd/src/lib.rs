//! # streamit-streamd
//!
//! `streamd`: a multi-tenant streaming daemon serving compiled StreamIt
//! graphs under load.  One daemon process loads one or more compiled
//! programs and serves *many concurrent stream instances* over them:
//! each instance is an incremental [`streamit::exec::Session`] driven
//! steady-iteration-at-a-time through bounded input/output staging
//! rings (backpressure, never unbounded queues).
//!
//! The crate splits into three layers:
//!
//! - [`daemon`] — the tenancy core: program registry, admission control
//!   against `--max-instances`, per-instance firing budgets reusing the
//!   [`streamit::interp::ExecLimits`] machinery, and supervision — a
//!   panicking or stalled instance is evicted with a typed `E08xx`
//!   diagnostic and never takes down the daemon or its neighbors.
//! - [`metrics`] — lock-free global counters and a log₂-bucket service
//!   latency histogram (p50/p99), rendered as plaintext
//!   `/metrics`-style text.
//! - [`server`] — the front door: a line-oriented protocol over TCP or
//!   unix sockets on a thread-per-connection pool, plus an HTTP-ish
//!   metrics endpoint and the stall-sweep watchdog thread.
//!
//! One binary ships with the crate: `streamd` (the daemon, with
//! `--listen`, `--max-instances`, `--instance-budget`, `--metrics`
//! flags).
//!
//! ## The E08xx taxonomy
//!
//! Daemon-surface faults map to the `E08xx` block of the workspace
//! diagnostic table (see `streamit::diag`).  All constructors live
//! here so code/category pairings cannot drift:
//!
//! | code  | surfaced as | meaning |
//! |-------|-------------|---------|
//! | E0801 | wire `ERR`  | admission rejected: instance table at `--max-instances` |
//! | E0802 | wire `ERR`  | unknown program name in an `OPEN` request |
//! | E0803 | wire `ERR`  | instance worker panicked; instance evicted |
//! | E0804 | wire `ERR`  | instance made no progress for the stall deadline; evicted |
//! | E0805 | wire `ERR`  | per-instance firing budget exhausted; evicted |
//! | E0806 | wire `ERR`  | malformed protocol command |
//! | E0807 | exit 2      | invalid daemon configuration (bad `--listen`, `--max-instances 0`, bad budget) |
//! | E0808 | wire `ERR`  | unknown instance id (never opened, closed, or already evicted) |

pub mod daemon;
pub mod metrics;
pub mod server;

pub use daemon::{Daemon, DaemonConfig, InstanceBudget, InstanceInfo, InstanceStats, Transfer};
pub use metrics::{LatencyHistogram, Metrics};
pub use server::{ListenAddr, Server, ServerConfig};

use streamit::{Diag, DiagCategory};

/// `E0801`: the instance table is at `--max-instances`; the `OPEN` was
/// rejected by admission control (the daemon itself is healthy).
pub fn admission_rejected(live: usize, max: usize) -> Diag {
    Diag::streamd(
        "E0801",
        DiagCategory::Engine,
        format!("admission rejected: {live} instances live, --max-instances {max}"),
    )
}

/// `E0802`: the `OPEN` named a program this daemon does not serve.
pub fn unknown_program(name: &str, served: &[String]) -> Diag {
    Diag::streamd(
        "E0802",
        DiagCategory::Engine,
        format!("unknown program `{name}` (serving: {})", served.join(", ")),
    )
}

/// `E0803`: the instance's worker panicked mid-iteration.  The panic
/// was caught at the session boundary; the instance was evicted and
/// every other instance (and the daemon) is unaffected.
pub fn instance_panicked(id: u64, payload: &str) -> Diag {
    Diag::streamd(
        "E0803",
        DiagCategory::Runtime,
        format!("instance {id} panicked and was evicted: {payload}"),
    )
}

/// `E0804`: the stall watchdog saw an instance that looked runnable —
/// input staged, output space free — yet made no progress for a full
/// deadline; the instance was evicted.
pub fn instance_stalled(id: u64, stalled_ms: u64) -> Diag {
    Diag::streamd(
        "E0804",
        DiagCategory::Runtime,
        format!("instance {id} made no progress for {stalled_ms} ms and was evicted"),
    )
}

/// `E0805`: the instance ran through its per-instance firing budget
/// (`--instance-budget`, the [`streamit::interp::ExecLimits`] unit)
/// and was evicted.
pub fn budget_exhausted(id: u64, fired: u64, budget: u64) -> Diag {
    Diag::streamd(
        "E0805",
        DiagCategory::Budget,
        format!("instance {id} exhausted its firing budget ({fired} fired, budget {budget})"),
    )
}

/// `E0806`: a protocol line the server cannot parse.
pub fn protocol_error(detail: impl Into<String>) -> Diag {
    Diag::streamd("E0806", DiagCategory::Runtime, detail.into())
}

/// `E0807`: invalid daemon configuration — a bad `--listen` address,
/// `--max-instances 0`, an unparsable budget.  The only `E08xx` code
/// that ends a process: `streamd` prints it and exits 2 (usage).
pub fn config_error(detail: impl Into<String>) -> Diag {
    Diag::streamd("E0807", DiagCategory::Parse, detail.into())
}

/// `E0808`: an instance id that is not in the table — never opened,
/// already closed, or evicted long enough ago that its tombstone (and
/// eviction reason) has been recycled.
pub fn unknown_instance(id: u64) -> Diag {
    Diag::streamd(
        "E0808",
        DiagCategory::Runtime,
        format!("unknown instance id {id}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_codes_and_exit_codes_are_stable() {
        assert_eq!(admission_rejected(8, 8).code, "E0801");
        assert_eq!(admission_rejected(8, 8).exit_code(), 8);
        assert_eq!(unknown_program("x", &["fmradio".into()]).code, "E0802");
        assert_eq!(instance_panicked(3, "boom").code, "E0803");
        assert_eq!(instance_panicked(3, "boom").exit_code(), 5);
        assert_eq!(instance_stalled(3, 500).code, "E0804");
        assert_eq!(budget_exhausted(3, 10, 10).code, "E0805");
        assert_eq!(budget_exhausted(3, 10, 10).exit_code(), 6);
        assert_eq!(protocol_error("bad line").code, "E0806");
        assert_eq!(config_error("bad addr").code, "E0807");
        assert_eq!(config_error("bad addr").exit_code(), 2);
        assert_eq!(unknown_instance(9).code, "E0808");
    }
}
