//! `magis-serve`: a supervised optimization service over the MAGIS
//! search.
//!
//! A long-lived daemon accepts optimization jobs (a named workload or
//! an inline graph record, plus budget/backend/objective/deadline
//! knobs) over a line-delimited JSON TCP protocol and runs them on a
//! bounded worker pool with supervision:
//!
//! * **Deadlines everywhere** — each job's `wall_limit_ms` /
//!   `max_candidates` thread into the search as a
//!   [`SearchBudget`](magis_core::SearchBudget) with cooperative
//!   cancellation; a deadline returns the best-so-far incumbent
//!   (anytime semantics), and a watchdog flags jobs whose
//!   candidate-eval heartbeat stalls.
//! * **Admission control** — a bounded queue with 429-style rejection
//!   when full, per-client concurrent-job caps, and load shedding
//!   while draining.
//! * **Crash safety** — every accepted job is journaled before it is
//!   acknowledged, searches checkpoint their frontier into the job
//!   directory, and on restart the journal is replayed so interrupted
//!   jobs resume trajectory-exactly from their last checkpoint.
//! * **Graceful shutdown** — SIGTERM/ctrl-c stops accepting, drains
//!   queued and running jobs, and checkpoints whatever the drain
//!   timeout cuts off.
//!
//! The crate is zero-dependency (workspace crates only) like the rest
//! of the repository. See `server` for the supervision tree and
//! `protocol` for the wire format.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod signals;

pub use client::{Client, ServeError, WaitOutcome};
pub use protocol::{JobResult, JobSpec};
pub use server::{Server, ServerHandle};

use magis_util::args::Args;
use std::path::PathBuf;

/// Daemon configuration; every field has a serviceable default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// State directory holding the job journal.
    pub state_dir: PathBuf,
    /// Worker threads running searches (the pool bound).
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before 429 rejection.
    pub queue_capacity: usize,
    /// Maximum queued+running jobs per client identity.
    pub client_cap: usize,
    /// Failed attempts are retried up to this many times.
    pub retry_cap: u32,
    /// First retry backoff; doubles per attempt.
    pub backoff_base_ms: u64,
    /// How long a drain waits for jobs before cancel-and-checkpoint.
    pub drain_timeout_ms: u64,
    /// Watchdog flags a running job after this long without an
    /// eval heartbeat.
    pub stall_after_ms: u64,
    /// Cross-request result-cache capacity (0 disables).
    pub result_cache: usize,
    /// When set, the bound address is written here after listen —
    /// lets scripts and tests find a port-0 daemon.
    pub port_file: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7787".into(),
            state_dir: PathBuf::from("magis-serve-state"),
            workers: 2,
            queue_capacity: 16,
            client_cap: 8,
            retry_cap: 2,
            backoff_base_ms: 50,
            drain_timeout_ms: 10_000,
            stall_after_ms: 5_000,
            result_cache: 64,
            port_file: None,
        }
    }
}

impl ServeConfig {
    /// The `--name value` flags [`Self::from_args`] reads, for the flag
    /// table of a command that starts a daemon.
    pub const FLAGS: &'static [&'static str] = &[
        "addr", "state-dir", "workers", "queue-capacity", "client-cap", "retry-cap",
        "backoff-base-ms", "drain-timeout-ms", "stall-after-ms", "result-cache", "port-file",
    ];

    /// The configuration `magis serve` and `magis-served` run under:
    /// the defaults, with each field replaced by its flag when given.
    pub fn from_args(args: &Args) -> Result<ServeConfig, String> {
        let d = ServeConfig::default();
        Ok(ServeConfig {
            addr: args.value_or("addr", d.addr)?,
            state_dir: args.value_or("state-dir", d.state_dir)?,
            workers: args.value_or("workers", d.workers)?.max(1),
            queue_capacity: args.value_or("queue-capacity", d.queue_capacity)?,
            client_cap: args.value_or("client-cap", d.client_cap)?,
            retry_cap: args.value_or("retry-cap", d.retry_cap)?,
            backoff_base_ms: args.value_or("backoff-base-ms", d.backoff_base_ms)?,
            drain_timeout_ms: args.value_or("drain-timeout-ms", d.drain_timeout_ms)?,
            stall_after_ms: args.value_or("stall-after-ms", d.stall_after_ms)?,
            result_cache: args.value_or("result-cache", d.result_cache)?,
            port_file: args.value("port-file")?,
        })
    }
}
