//! The supervised job server: admission control, worker pool, journal
//! replay, stall flags, and graceful drain.
//!
//! ## Supervision tree
//!
//! ```text
//! Server::run
//! ├── accept loop (main thread; refuses connections once draining,
//! │   │            flags stalled jobs every POLL)
//! │   └── one handler thread per connection (line protocol)
//! ├── N worker threads (bounded pool; pull jobs from the queue in order)
//! └── drain phase (after SIGTERM/shutdown: finish queued + running
//!     jobs, cancel + checkpoint whatever the drain timeout cuts off;
//!     flags stalled jobs every POLL)
//! ```
//!
//! ## One table
//!
//! Everything the daemon knows about its jobs sits in one table under
//! one mutex, paired with one condvar: each job's state and latest
//! search snapshot, the queue, and the result-cache index. A search's
//! progress sink stores into its job's entry and notifies; watchers
//! and waiting submits wait on the condvar and read the entry. Frames
//! are built under the lock and sent after it is released, so nothing
//! waits on a client while holding it.
//!
//! ## Job states
//!
//! ```text
//! Queued ──→ Running ──→ Done
//!               ├──────→ Failed        (run_job erred or panicked)
//!               └──────→ Interrupted   (drain cancel; journaled,
//!                                       resumed on next start)
//! ```
//!
//! A failed run settles as `Failed` at once. Every error `run_job` can
//! return fails the same way on every attempt — a bad graph record, a
//! seed that does not evaluate, a corrupt checkpoint, a panic — so
//! there is nothing to retry. Every transition that must survive
//! `kill -9` goes through the [`journal`] before it is acknowledged.

use crate::job::run_job;
use crate::journal;
use crate::protocol::{reply, JobResult, JobSpec};
use crate::signals;
use crate::ServeConfig;
use magis_core::budget::CancelToken;
use magis_core::optimizer::{ProgressSink, ProgressSnapshot};
use magis_obs::json::Json;
use magis_obs::metrics::{counter, gauge, histogram, Counter, Gauge, Histogram};
use magis_obs::trace::{self, JsonlSink};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// File name of the per-job JSONL trace inside a job directory. The
/// trace id is the job id: every record in the file (and every copy
/// routed to a `--trace-out` global sink) carries a `job` field, so
/// one job's lifecycle — admission, queue wait, the run, the
/// search's own spans — reads as a single correlated trace.
pub const TRACE_FILE: &str = "trace.jsonl";

/// How often blocked loops re-check for shutdown, progress and stalls.
const POLL: Duration = Duration::from_millis(20);
/// Cadence of `progress` events streamed to waiting clients.
const PROGRESS_EVERY: Duration = Duration::from_millis(200);

#[derive(Debug)]
enum JobState {
    Queued,
    Running { token: CancelToken, last_beats: u64, last_progress: Instant, stalled: bool },
    Done { result: JobResult, cached: bool },
    Failed { error: String },
    /// Cancelled by the drain timeout: journaled as in-flight, so the
    /// next daemon start replays and resumes it.
    Interrupted,
}

/// The [`ProgressSink`] handed to a job's search: stores each snapshot
/// in the job's table entry and wakes every condvar waiter (watch
/// streams, waiting submits). It never waits on a subscriber, so a
/// slow or disconnected watcher cannot stall or perturb the search.
struct JobProgress {
    inner: Arc<Inner>,
    id: u64,
}

impl ProgressSink for JobProgress {
    fn report(&self, snap: &ProgressSnapshot) {
        if let Some(j) = self.inner.table.lock().unwrap().jobs.get_mut(&self.id) {
            let seq = j.progress.as_ref().map_or(0, |p| p.0) + 1;
            j.progress = Some((seq, snap.clone()));
        }
        self.inner.cv.notify_all();
    }
}

/// Opens (append mode) a job's `trace.jsonl` sink. Best-effort: a job
/// whose trace file cannot be opened still runs, just untraced.
fn job_trace_sink(dir: &Path) -> Option<Arc<JsonlSink>> {
    JsonlSink::append(&dir.join(TRACE_FILE)).ok().map(Arc::new)
}

/// Routes this thread's trace records into the job's sink, tagging
/// every record (in every destination, global sink included) with a
/// `job` correlation field — the trace id is the job id.
fn scoped_job(sink: Arc<JsonlSink>, id: u64) -> trace::ScopedSinkGuard {
    trace::scoped(sink, vec![("job".to_string(), trace::FieldValue::U64(id))])
}

/// Records the `magis_serve` span `name` of job `id`, `dur` long, in
/// the job's trace.
fn job_span(sink: &Option<Arc<JsonlSink>>, id: u64, name: &str, dur: Duration) {
    let _g = sink.clone().map(|s| scoped_job(s, id));
    trace::span_with_dur(
        "magis_serve",
        name,
        dur,
        vec![("id".to_string(), trace::FieldValue::U64(id))],
    );
}

struct Job {
    /// Shared with the worker that runs it, which takes a reference,
    /// not a copy (an inline graph record runs to tens of KB), at the
    /// pop under the table lock.
    spec: Arc<JobSpec>,
    /// `spec.cache_key()`, rendered once when the job is made: the
    /// result cache compares these, under the table lock.
    key: u64,
    state: JobState,
    dir: PathBuf,
    /// Wall-clock admission (or replay) instant, for the queue-wait
    /// histogram.
    admitted: Instant,
    /// The search's latest progress snapshot and its sequence number,
    /// which counts snapshots from 1 so a subscriber detects news
    /// cheaply. It sits beside `state`, so the last frame outlives
    /// settlement.
    progress: Option<(u64, ProgressSnapshot)>,
    /// Per-job JSONL trace sink (`trace.jsonl` in the job dir). `None`
    /// when the file could not be opened — tracing is best-effort and
    /// must never fail a job — and once the job is done or failed.
    trace: Option<Arc<JsonlSink>>,
}

impl Job {
    /// A job entering the table now, with no progress yet.
    fn new(spec: JobSpec, state: JobState, dir: PathBuf, trace: Option<Arc<JsonlSink>>) -> Job {
        let key = spec.cache_key();
        let spec = Arc::new(spec);
        Job { spec, key, state, dir, admitted: Instant::now(), progress: None, trace }
    }
}

#[derive(Default)]
struct Table {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    /// The cross-request result cache, an index into settled jobs:
    /// `(JobSpec::cache_key, id)` of the first `Done` job per key,
    /// oldest first, at most `ServeConfig::result_cache` entries (0
    /// disables it). It is the service-level analogue of the search's
    /// structural-hash `EvalCache`: a repeat submission of the same job
    /// (same model, objective and budget knobs) is served that job's
    /// result without a search.
    ///
    /// Only deterministic results enter. A result whose stop reason is
    /// wall-clock dependent (`deadline` — the job's one wall-clock
    /// limit, `budget_ms`, ran out — or `cancelled`) differs run to
    /// run, and caching it would make a repeat's answer depend on which
    /// run filled the cache. Gated on `StopReason::is_deterministic`, a
    /// hit is bit-identical to what a fresh run would produce, so the
    /// same-job-twice contract holds whether a repeat hits or misses.
    /// The in-search `EvalCache` is deliberately not shared across
    /// concurrent jobs: its contents would depend on job interleaving,
    /// and per-job trajectories would stop being reproducible.
    cache: VecDeque<(u64, u64)>,
    running: usize,
    draining: bool,
    /// Set after the drain completes: waiters and connection handlers
    /// must give up promptly.
    closed: bool,
}

impl Table {
    /// The result of the cached job with `key` ([`JobSpec::cache_key`]),
    /// if any.
    fn cached(&self, key: u64) -> Option<JobResult> {
        let &(_, id) = self.cache.iter().find(|(k, _)| *k == key)?;
        match &self.jobs.get(&id)?.state {
            JobState::Done { result, .. } => Some(result.clone()),
            _ => None,
        }
    }

    /// Indexes settled job `id` unless a job with its key is indexed
    /// already (the first one wins), evicting the oldest entry past
    /// `capacity`. The caller applies the determinism gate.
    fn remember(&mut self, id: u64, capacity: usize) {
        if capacity == 0 {
            return;
        }
        let key = self.jobs[&id].key;
        if self.cache.iter().any(|&(k, _)| k == key) {
            return;
        }
        self.cache.push_back((key, id));
        if self.cache.len() > capacity {
            self.cache.pop_front();
        }
    }
}

/// `magis_serve_*` metrics, registered once per process.
struct Metrics {
    submitted: Counter,
    accepted: Counter,
    rejected_queue_full: Counter,
    rejected_client_cap: Counter,
    rejected_draining: Counter,
    completed: Counter,
    failed: Counter,
    replayed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    watchdog_stalls: Counter,
    queue_depth: Gauge,
    running: Gauge,
    drain_seconds: Gauge,
    job_seconds: Histogram,
    queue_wait_seconds: Histogram,
}

impl Metrics {
    fn new() -> Metrics {
        Metrics {
            submitted: counter("magis_serve_jobs_submitted"),
            accepted: counter("magis_serve_jobs_accepted"),
            rejected_queue_full: counter("magis_serve_rejected_queue_full"),
            rejected_client_cap: counter("magis_serve_rejected_client_cap"),
            rejected_draining: counter("magis_serve_rejected_draining"),
            completed: counter("magis_serve_jobs_completed"),
            failed: counter("magis_serve_jobs_failed"),
            replayed: counter("magis_serve_jobs_replayed"),
            cache_hits: counter("magis_serve_result_cache_hits"),
            cache_misses: counter("magis_serve_result_cache_misses"),
            watchdog_stalls: counter("magis_serve_watchdog_stalls"),
            queue_depth: gauge("magis_serve_queue_depth"),
            running: gauge("magis_serve_running"),
            drain_seconds: gauge("magis_serve_drain_seconds"),
            job_seconds: histogram("magis_serve_job_seconds"),
            queue_wait_seconds: histogram("magis_serve_queue_wait_seconds"),
        }
    }
}

struct Inner {
    cfg: ServeConfig,
    shutdown: AtomicBool,
    table: Mutex<Table>,
    cv: Condvar,
    next_id: AtomicU64,
    m: Metrics,
}

impl Inner {
    /// Shutdown has been requested for this server (its own flag or a
    /// process signal).
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signals::requested()
    }
}

/// A bound, journal-replayed server ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

/// A cloneable reference for controlling a running [`Server`] — used
/// by tests and by the signal-less programmatic shutdown path.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<Inner>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful drain-and-exit, exactly like SIGTERM (but
    /// scoped to this server instance).
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
    }
}

impl Server {
    /// Binds the listener, replays the journal (settled jobs become
    /// history, in-flight jobs are re-enqueued for resume), and writes
    /// the port file if configured. Accepting starts in [`Server::run`].
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;

        let (replayed, max_id) = journal::replay(&cfg.state_dir);
        let inner = Arc::new(Inner {
            shutdown: AtomicBool::new(false),
            table: Mutex::new(Table::default()),
            cv: Condvar::new(),
            next_id: AtomicU64::new(max_id + 1),
            m: Metrics::new(),
            cfg,
        });
        {
            let mut t = inner.table.lock().unwrap();
            for j in replayed {
                let mut tsink = None;
                let state = match j.settled {
                    Some(Ok(result)) => JobState::Done { result, cached: false },
                    Some(Err(error)) => JobState::Failed { error },
                    None => {
                        t.queue.push_back(j.id);
                        inner.m.replayed.inc();
                        // The resumed job's trace continues in the same
                        // file the previous daemon was writing.
                        tsink = job_trace_sink(&j.dir);
                        let _g = tsink.clone().map(|s| scoped_job(s, j.id));
                        magis_obs::event!("magis_serve", "replay", id = j.id);
                        JobState::Queued
                    }
                };
                t.jobs.insert(j.id, Job::new(j.spec, state, j.dir, tsink));
            }
            inner.m.queue_depth.set(t.queue.len() as f64);
        }
        if let Some(p) = &inner.cfg.port_file {
            journal::write_atomic(p, &format!("{}\n", listener.local_addr()?))?;
        }
        Ok(Server { listener, inner })
    }

    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for programmatic shutdown.
    pub fn handle(&self) -> io::Result<ServerHandle> {
        Ok(ServerHandle { inner: self.inner.clone(), addr: self.local_addr()? })
    }

    /// Serves until shutdown (SIGTERM/SIGINT or
    /// [`ServerHandle::shutdown`]), then drains: stops accepting,
    /// finishes queued and running jobs, and past the drain timeout
    /// cancels what is left — cancelled searches checkpoint and their
    /// journal entries resume on the next start. Returns once every
    /// worker has exited.
    pub fn run(self) -> io::Result<()> {
        signals::install();
        let inner = self.inner;
        let workers: Vec<_> = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let w = inner.clone();
                thread::spawn(move || worker_loop(&w))
            })
            .collect();

        // Accept until shutdown. Connection handlers are detached; they
        // exit on their own once the table is marked closed.
        while !inner.stopping() {
            flag_stalls(&inner, &mut inner.table.lock().unwrap(), Instant::now());
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let c = inner.clone();
                    thread::spawn(move || handle_conn(stream, &c));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
                Err(e) => {
                    let fields = magis_obs::fields!(error = e.to_string());
                    warn("accept_failed", fields, format_args!("accept failed: {e}"));
                    thread::sleep(POLL);
                }
            }
        }
        drop(self.listener); // refuse new connections while draining

        // Drain phase.
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(inner.cfg.drain_timeout_ms);
        {
            let mut t = inner.table.lock().unwrap();
            t.draining = true;
            let mut cancelled = false;
            loop {
                if t.queue.is_empty() && t.running == 0 {
                    break;
                }
                flag_stalls(&inner, &mut t, Instant::now());
                if Instant::now() >= deadline && !cancelled {
                    cancelled = true;
                    // Cut off: cancel running searches (they stop
                    // cooperatively and write a final frontier
                    // checkpoint) and park the still-queued jobs; all
                    // of them replay on the next start.
                    t.queue.clear();
                    inner.m.queue_depth.set(0.0);
                    for (&id, j) in t.jobs.iter_mut() {
                        let was = j.state.name();
                        match &j.state {
                            JobState::Queued => j.state = JobState::Interrupted,
                            JobState::Running { token, .. } => token.cancel(),
                            _ => continue,
                        }
                        let _g = j.trace.clone().map(|s| scoped_job(s, id));
                        magis_obs::event!("magis_serve", "drain_cancel", id = id, was = was);
                    }
                }
                let (guard, _) = inner.cv.wait_timeout(t, POLL).unwrap();
                t = guard;
            }
            t.closed = true;
        }
        inner.cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        inner.m.drain_seconds.set(t0.elapsed().as_secs_f64());
        // Deliberately field-less: the wall time lives in the
        // `magis_serve_drain_seconds` gauge, keeping the event's trace
        // identity bit-identical run to run (determinism contract).
        magis_obs::event!("magis_serve", "drained");
        Ok(())
    }
}

/// Admission control: bounded queue, per-client cap, shed while
/// draining. Journals the spec *before* acknowledging — an accepted
/// job is always recoverable.
fn admit(inner: &Inner, spec: JobSpec) -> Result<u64, Json> {
    inner.m.submitted.inc();
    // The cache key renders the whole spec: made here, before the lock.
    let mut job = Job::new(spec, JobState::Queued, PathBuf::new(), None);
    let spec = &job.spec;
    let mut t = inner.table.lock().unwrap();
    if t.draining || inner.stopping() {
        inner.m.rejected_draining.inc();
        return Err(reply::err(503, "server is draining"));
    }
    if t.queue.len() >= inner.cfg.queue_capacity {
        inner.m.rejected_queue_full.inc();
        return Err(reply::err(429, "job queue is full"));
    }
    let active = t
        .jobs
        .values()
        .filter(|j| {
            matches!(j.state, JobState::Queued | JobState::Running { .. })
                && j.spec.client == spec.client
        })
        .count();
    if active >= inner.cfg.client_cap {
        inner.m.rejected_client_cap.inc();
        return Err(reply::err(429, "per-client concurrent-job cap reached"));
    }
    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    let dir = match journal::record_admission(&inner.cfg.state_dir, id, spec) {
        Ok(d) => d,
        Err(e) => return Err(reply::err(500, &format!("journaling admission: {e}"))),
    };
    let tsink = job_trace_sink(&dir);
    {
        let _g = tsink.clone().map(|s| scoped_job(s, id));
        magis_obs::event!("magis_serve", "admitted", id = id, client = spec.client.clone());
    }
    (job.dir, job.trace) = (dir, tsink);
    t.jobs.insert(id, job);
    t.queue.push_back(id);
    inner.m.accepted.inc();
    inner.m.queue_depth.set(t.queue.len() as f64);
    drop(t);
    inner.cv.notify_all();
    Ok(id)
}

fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let mut t = inner.table.lock().unwrap();
        if t.closed {
            return;
        }
        let Some(id) = t.queue.pop_front() else {
            if inner.stopping() && t.running == 0 {
                return;
            }
            let _unused = inner.cv.wait_timeout(t, POLL).unwrap();
            continue;
        };
        let token = CancelToken::new();
        let j = t.jobs.get_mut(&id).expect("queued id is in the table");
        j.state = JobState::Running {
            token: token.clone(),
            last_beats: 0,
            last_progress: Instant::now(),
            stalled: false,
        };
        let (spec, key, dir, tsink, admitted) =
            (Arc::clone(&j.spec), j.key, j.dir.clone(), j.trace.clone(), j.admitted);
        // An identical submission that already completed
        // deterministically is served its result without a search.
        let hit = t.cached(key);
        t.running += 1;
        inner.m.queue_depth.set(t.queue.len() as f64);
        inner.m.running.set(t.running as f64);
        drop(t);

        let waited = admitted.elapsed();
        inner.m.queue_wait_seconds.observe(waited.as_secs_f64());
        job_span(&tsink, id, "queue_wait", waited);
        let state = match hit {
            Some(result) => {
                inner.m.cache_hits.inc();
                JobState::Done { result, cached: true }
            }
            None => {
                inner.m.cache_misses.inc();
                let progress: Arc<dyn ProgressSink> =
                    Arc::new(JobProgress { inner: inner.clone(), id });
                let run_t0 = Instant::now();
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    // The scoped guard lives inside the search thread:
                    // every span/event the optimizer emits lands in the
                    // job's trace.jsonl tagged `job = id`.
                    let _g = tsink.clone().map(|s| scoped_job(s, id));
                    run_job(&spec, &dir, token, Some(progress))
                }));
                let dur = run_t0.elapsed();
                inner.m.job_seconds.observe(dur.as_secs_f64());
                job_span(&tsink, id, "run", dur);
                match attempt {
                    Ok(Ok(res)) if res.stop_reason == "cancelled" => JobState::Interrupted,
                    Ok(Ok(result)) => JobState::Done { result, cached: false },
                    Ok(Err(error)) => JobState::Failed { error },
                    Err(p) => JobState::Failed { error: panic_text(p) },
                }
            }
        };
        settle(inner, id, &dir, state, tsink);
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    let text = p.downcast_ref::<&str>().copied().or(p.downcast_ref::<String>().map(String::as_str));
    text.map_or("worker panicked".into(), |s| format!("worker panicked: {s}"))
}

/// Settles running job `id` into `state` (`Done`, `Failed` or
/// `Interrupted`): journal first, then the in-memory transition, then
/// wake waiters.
fn settle(inner: &Inner, id: u64, dir: &Path, state: JobState, tsink: Option<Arc<JsonlSink>>) {
    // Every lifecycle event below is also routed (tagged `job = id`)
    // into the job's trace.jsonl; dropping the guard flushes it, so a
    // settled job's trace is complete on disk.
    let guard = tsink.map(|s| scoped_job(s, id));
    // Terminal journal writes happen outside the table lock; the job
    // is still in `Running` state so no other worker can touch it.
    match &state {
        JobState::Done { result, cached } => {
            if journal::record_result(dir, result).is_err() {
                // Still served, counted and cached; but a crash would
                // re-run this job.
                let msg = format_args!("job {id}: result journaling failed");
                warn("result_journal_failed", magis_obs::fields!(id = id), msg);
            }
            inner.m.completed.inc();
            let stop = if *cached { "cache-hit" } else { result.stop_reason.as_str() };
            magis_obs::event!("magis_serve", "job_done", id = id, stop = stop);
        }
        JobState::Failed { error } => {
            let _ = journal::record_failure(dir, error);
            inner.m.failed.inc();
            let fields = magis_obs::fields!(id = id, error = error.as_str());
            warn("job_failed", fields, format_args!("job {id} failed: {error}"));
        }
        // The journal entry stays unsettled: the next start resumes it
        // from the checkpoint the cancelled search just wrote.
        _ => magis_obs::event!("magis_serve", "job_interrupted", id = id),
    }
    // Flush before the state becomes visible: whoever sees the job
    // settled finds its complete trace on disk.
    drop(guard);
    let mut t = inner.table.lock().unwrap();
    let j = t.jobs.get_mut(&id).expect("a settling job is in the table");
    let deterministic = matches!(&state, JobState::Done { result, .. } if result.deterministic);
    if matches!(state, JobState::Done { .. } | JobState::Failed { .. }) {
        // A settled job records nothing more: release its sink, or the
        // daemon holds one open descriptor per job ever served.
        j.trace = None;
    }
    j.state = state;
    if deterministic {
        t.remember(id, inner.cfg.result_cache);
    }
    t.running -= 1;
    inner.m.running.set(t.running as f64);
    drop(t);
    inner.cv.notify_all();
}

/// Says one daemon warning in both places it is read: `msg` as a
/// `[warn magis_serve]` line on stderr, and the `magis_serve` trace
/// event `name` with `fields`, which a job's `trace.jsonl` keeps.
fn warn(name: &str, fields: Vec<(String, trace::FieldValue)>, msg: std::fmt::Arguments<'_>) {
    eprintln!("[warn magis_serve] {msg}");
    trace::event("magis_serve", name, fields);
}

/// Flags each running job whose candidate-eval heartbeat has not moved
/// for `stall_after_ms` as of `now`, once per stall, and clears the
/// flag when it moves again. A flag never kills a job — evaluation is
/// sandboxed and cancellation cooperative — it makes the stall
/// observable: `status` shows `"stalled":true`,
/// `magis_serve_watchdog_stalls` counts it, and a [`warn`] says it.
/// The accept loop and the drain loop call this every `POLL`.
fn flag_stalls(inner: &Inner, t: &mut Table, now: Instant) {
    let stall_after = Duration::from_millis(inner.cfg.stall_after_ms);
    for (&id, job) in t.jobs.iter_mut() {
        if let JobState::Running { token, last_beats, last_progress, stalled } = &mut job.state {
            let beats = token.beats();
            if beats != *last_beats {
                *last_beats = beats;
                *last_progress = now;
                *stalled = false;
            } else if !*stalled && now.duration_since(*last_progress) > stall_after {
                *stalled = true;
                inner.m.watchdog_stalls.inc();
                let msg = format_args!("job {id}: no eval heartbeat for {stall_after:?}");
                warn("watchdog_stall", magis_obs::fields!(id = id), msg);
            }
        }
    }
}

/// The longest request line the daemon buffers, newline excluded. It is
/// sized from the largest model the tests and the benchmark build: a
/// `submit` carrying BERT-base at scale 1.0 as an inline record is
/// 73,290 bytes, and the cap is 14.3× that. A longer line is refused
/// with a 400 and its connection closed, so a peer holds at most the
/// cap plus one read of buffer.
const MAX_LINE: usize = 1 << 20;

/// Buffered line reader over a read-timeout socket: tolerates timeouts
/// mid-line and checks `stop` between reads so handler threads exit
/// when the server closes. Each read's bytes are scanned for the
/// newline once.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `buf[..scanned]` holds no newline.
    scanned: usize,
}

impl LineReader {
    /// The next line, `None` at end of stream or on `stop`; an
    /// `InvalidData` error for a line longer than [`MAX_LINE`].
    fn read_line(&mut self, stop: &dyn Fn() -> bool) -> io::Result<Option<String>> {
        loop {
            let newline = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
            let len = newline.map_or(self.buf.len(), |at| self.scanned + at);
            if len > MAX_LINE {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "request line too long"));
            }
            if newline.is_some() {
                let line: Vec<u8> = self.buf.drain(..=len).collect();
                self.scanned = 0;
                return Ok(Some(String::from_utf8_lossy(&line).trim().to_string()));
            }
            self.scanned = self.buf.len();
            if stop() {
                return Ok(None);
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn send(out: &mut TcpStream, j: &Json) -> io::Result<()> {
    out.write_all((j.render() + "\n").as_bytes())?;
    out.flush()
}

/// An accepted connection as the handler uses it: the polling line
/// reader and the write half. Replies are small frames the client is
/// waiting on — a `submit` ack, later the result — so the socket sends
/// each at once (`TCP_NODELAY`) instead of holding the second until the
/// client's delayed ACK of the first, 40 ms on Linux.
fn open_conn(stream: TcpStream) -> io::Result<(LineReader, TcpStream)> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_nodelay(true)?;
    let out = stream.try_clone()?;
    Ok((LineReader { stream, buf: Vec::new(), scanned: 0 }, out))
}

/// Answers each request line with one reply and, for a waiting submit
/// or a watch, the job's frames after it. A line past [`MAX_LINE`] is
/// answered with a 400 and ends the connection.
fn handle_conn(stream: TcpStream, inner: &Inner) {
    let Ok((mut reader, mut out)) = open_conn(stream) else { return };
    let stop = || inner.table.lock().unwrap().closed;
    loop {
        let line = reader.read_line(&stop);
        let (reply, watch) = match &line {
            Ok(Some(line)) if line.is_empty() => continue,
            Ok(Some(line)) => answer(inner, line),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                (reply::err(400, &e.to_string()), None)
            }
            _ => return,
        };
        if send(&mut out, &reply).is_err()
            || line.is_err()
            || watch.is_some_and(|id| !stream_until_done(inner, id, &mut out))
        {
            return;
        }
    }
}

/// The reply to one request line, and the job whose frames follow it:
/// the job of a waiting submit or of a watch.
fn answer(inner: &Inner, line: &str) -> (Json, Option<u64>) {
    let req = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return (reply::err(400, &format!("bad request: {e}")), None),
    };
    let id = req.get("id").and_then(Json::as_u64);
    match req.get("cmd").and_then(Json::as_str).unwrap_or("") {
        "ping" => {
            let t = inner.table.lock().unwrap();
            let pong = reply::ok(vec![
                ("pong".into(), Json::Bool(true)),
                ("queued".into(), Json::UInt(t.queue.len() as u64)),
                ("running".into(), Json::UInt(t.running as u64)),
            ]);
            (pong, None)
        }
        "status" => match id {
            None => (reply::err(400, "status needs an 'id'"), None),
            Some(id) => (status_reply(inner, id), None),
        },
        "submit" => {
            let spec = match req.get("job").map(JobSpec::from_json) {
                Some(Ok(spec)) => spec,
                Some(Err(e)) => return (reply::err(400, &e), None),
                None => return (reply::err(400, "submit needs a 'job' object"), None),
            };
            match admit(inner, spec) {
                Ok(id) => {
                    let wait = matches!(req.get("wait"), Some(Json::Bool(true)));
                    (reply::ok(vec![("id".into(), Json::UInt(id))]), wait.then_some(id))
                }
                Err(rejection) => (rejection, None),
            }
        }
        // Mid-flight attach: an ack, then the frames a waiting submit
        // gets. Any number of watchers may follow one job.
        "watch" => match id {
            None => (reply::err(400, "watch needs an 'id'"), None),
            Some(id) if !inner.table.lock().unwrap().jobs.contains_key(&id) => {
                (reply::err(404, &format!("no such job {id}")), None)
            }
            Some(id) => {
                let ack =
                    vec![("id".into(), Json::UInt(id)), ("watching".into(), Json::Bool(true))];
                (reply::ok(ack), Some(id))
            }
        },
        // Prometheus text exposition of the whole process registry
        // (`magis_serve_*` plus any search metrics registered by jobs
        // run in-process).
        "metrics" => {
            let text = magis_obs::metrics::default_registry().render();
            (reply::ok(vec![("metrics".into(), Json::Str(text))]), None)
        }
        other => (reply::err(400, &format!("unknown cmd '{other}'")), None),
    }
}

fn status_reply(inner: &Inner, id: u64) -> Json {
    let t = inner.table.lock().unwrap();
    let Some(job) = t.jobs.get(&id) else {
        return reply::err(404, &format!("no such job {id}"));
    };
    let mut extra = vec![
        ("id".to_string(), Json::UInt(id)),
        ("state".into(), Json::Str(job.state.name().into())),
    ];
    if let JobState::Running { token, stalled, .. } = &job.state {
        extra.push(("beats".into(), Json::UInt(token.beats())));
        extra.push(("stalled".into(), Json::Bool(*stalled)));
    }
    extra.extend(job.state.outcome());
    reply::ok(extra)
}

impl JobState {
    /// The state's name on the wire (`status` replies, heartbeats).
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Done { .. } => "done",
            JobState::Failed { .. } => "failed",
            JobState::Interrupted => "interrupted",
        }
    }

    /// A settled job's outcome fields, as both the `status` reply and
    /// the `done` frame carry them: `cached` and `result` for a job
    /// that finished, `error` for one that failed, none otherwise.
    fn outcome(&self) -> Vec<(String, Json)> {
        match self {
            JobState::Done { result, cached } => {
                vec![("cached".into(), Json::Bool(*cached)), ("result".into(), result.to_json())]
            }
            JobState::Failed { error } => vec![("error".into(), Json::Str(error.clone()))],
            _ => Vec::new(),
        }
    }

    /// The `done` frame that ends a progress stream on this state, or
    /// `None` while the job has yet to settle and the server is open.
    fn done_frame(&self, id: u64, closed: bool) -> Option<Json> {
        let error = |e: &str| vec![("error".to_string(), Json::Str(e.into()))];
        let outcome = match self {
            JobState::Done { .. } | JobState::Failed { .. } => self.outcome(),
            JobState::Interrupted => error("interrupted by shutdown; journaled for restart"),
            _ if closed => error("server closed"),
            _ => return None,
        };
        let mut f = vec![
            ("event".to_string(), Json::Str("done".into())),
            ("id".into(), Json::UInt(id)),
            ("ok".into(), Json::Bool(matches!(self, JobState::Done { .. }))),
        ];
        f.extend(outcome);
        Some(Json::Obj(f))
    }

    /// The heartbeat `progress` frame: the state and, while running,
    /// the eval-beat counter.
    fn heartbeat(&self, id: u64, started: Instant) -> Json {
        let beats = match self {
            JobState::Running { token, .. } => token.beats(),
            _ => 0,
        };
        Json::Obj(vec![
            ("event".to_string(), Json::Str("progress".into())),
            ("id".into(), Json::UInt(id)),
            ("state".into(), Json::Str(self.name().into())),
            ("beats".into(), Json::UInt(beats)),
            ("elapsed_ms".into(), Json::UInt(started.elapsed().as_millis() as u64)),
        ])
    }
}

/// Renders one search-progress snapshot as a `progress` frame. The
/// snapshot fields are the deterministic expansion-boundary values from
/// [`ProgressSnapshot`]; `best_latency_bits` carries the exact float
/// bits so clients can compare incumbents bit-exactly.
fn snapshot_frame(id: u64, seq: u64, snap: &ProgressSnapshot, started: Instant) -> Json {
    let mut f = vec![
        ("event".to_string(), Json::Str("progress".into())),
        ("id".into(), Json::UInt(id)),
        ("state".into(), Json::Str("running".into())),
        ("seq".into(), Json::UInt(seq)),
        ("phase".into(), Json::Str(snap.phase.into())),
        ("expansion".into(), Json::UInt(snap.expansion)),
        ("evaluated".into(), Json::UInt(snap.evaluated)),
        ("best_peak_bytes".into(), Json::UInt(snap.best_peak_bytes)),
        ("best_latency".into(), Json::Float(snap.best_latency)),
        ("best_latency_bits".into(), Json::Str(format!("{:016x}", snap.best_latency.to_bits()))),
        ("frontier".into(), Json::UInt(snap.frontier_size)),
        ("pareto".into(), Json::UInt(snap.pareto_size)),
        ("eval_cache_hits".into(), Json::UInt(snap.eval_cache_hits)),
        ("elapsed_ms".into(), Json::UInt(started.elapsed().as_millis() as u64)),
    ];
    if let Some(p) = snap.best_planned_peak_bytes {
        f.push(("best_planned_peak_bytes".into(), Json::UInt(p)));
    }
    Json::Obj(f)
}

/// Streams `progress` events while the job runs and one final `done`
/// event. Returns `false` when the client went away.
///
/// Progress comes from two sources: whenever the job's entry holds a
/// newer search snapshot a full [`snapshot_frame`] goes out at once,
/// and while there is no search news (job still queued, search between
/// expansions) a heartbeat frame goes out every [`PROGRESS_EVERY`].
fn stream_until_done(inner: &Inner, id: u64, out: &mut TcpStream) -> bool {
    let started = Instant::now();
    let mut last_sent = started;
    let mut last_seq = 0u64;
    let mut t = inner.table.lock().unwrap();
    loop {
        // `(frame, whether it ends the stream)`.
        let next = match t.jobs.get(&id) {
            None => Some((reply::err(404, &format!("job {id} vanished")), true)),
            Some(job) => match &job.progress {
                // Any unseen search snapshot goes first, so the `done`
                // event never beats the job's last progress frame.
                Some((seq, snap)) if *seq > last_seq => {
                    last_seq = *seq;
                    Some((snapshot_frame(id, *seq, snap, started), false))
                }
                _ => match job.state.done_frame(id, t.closed) {
                    Some(done) => Some((done, true)),
                    None if last_sent.elapsed() >= PROGRESS_EVERY => {
                        Some((job.state.heartbeat(id, started), false))
                    }
                    None => None,
                },
            },
        };
        let Some((frame, last)) = next else {
            t = inner.cv.wait_timeout(t, POLL).unwrap().0;
            continue;
        };
        drop(t);
        last_sent = Instant::now();
        if send(out, &frame).is_err() {
            return false;
        }
        if last {
            return true;
        }
        t = inner.table.lock().unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_connections_send_each_frame_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let (reader, out) = open_conn(stream).unwrap();
        assert!(out.nodelay().unwrap() && reader.stream.nodelay().unwrap());
    }

    /// The `status` reply and the `done` frame for every job state, byte
    /// for byte: the wire format clients parse.
    #[test]
    fn status_replies_and_done_frames_are_pinned_per_state() {
        let state_dir = std::env::temp_dir()
            .join(format!("magis_serve_outcome_wire_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        let result = JobResult {
            peak_bytes: 4096,
            latency: 0.5,
            planned_peak_bytes: None,
            stop_reason: "eval-cap-reached".into(),
            deterministic: true,
            evaluated: 40,
            expanded: 3,
            resumed: false,
            pareto: vec![(4096, 0.5)],
            trajectory_digest: 7,
            timeline: Json::Null,
        };
        let r = result.to_json().render();
        let failed = r#""error":"loading checkpoint: bad \"magic\"""#;
        let closed = r#"{"event":"done","id":1,"ok":false,"error":"server closed"}"#;
        let running = JobState::Running {
            token: CancelToken::new(),
            last_beats: 0,
            last_progress: Instant::now(),
            stalled: false,
        };
        // (state, server closed, status reply, done frame)
        let cases: Vec<(JobState, bool, String, String)> = vec![
            (
                JobState::Done { result: result.clone(), cached: false },
                false,
                format!(r#"{{"ok":true,"id":1,"state":"done","cached":false,"result":{r}}}"#),
                format!(r#"{{"event":"done","id":1,"ok":true,"cached":false,"result":{r}}}"#),
            ),
            (
                JobState::Done { result, cached: true },
                false,
                format!(r#"{{"ok":true,"id":1,"state":"done","cached":true,"result":{r}}}"#),
                format!(r#"{{"event":"done","id":1,"ok":true,"cached":true,"result":{r}}}"#),
            ),
            (
                JobState::Failed { error: "loading checkpoint: bad \"magic\"".into() },
                false,
                format!(r#"{{"ok":true,"id":1,"state":"failed",{failed}}}"#),
                format!(r#"{{"event":"done","id":1,"ok":false,{failed}}}"#),
            ),
            (
                JobState::Interrupted,
                false,
                r#"{"ok":true,"id":1,"state":"interrupted"}"#.into(),
                r#"{"event":"done","id":1,"ok":false,"error":"interrupted by shutdown; journaled for restart"}"#.into(),
            ),
            (JobState::Queued, true, r#"{"ok":true,"id":1,"state":"queued"}"#.into(), closed.into()),
            (
                running,
                true,
                r#"{"ok":true,"id":1,"state":"running","beats":0,"stalled":false}"#.into(),
                closed.into(),
            ),
        ];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // The one frame a stream on a settled (or unknown) job sends.
        let done_line = |id: u64| {
            let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            let (mut out, _) = listener.accept().unwrap();
            assert!(stream_until_done(&server.inner, id, &mut out));
            drop(out);
            let mut frame = String::new();
            io::BufRead::read_line(&mut io::BufReader::new(client), &mut frame).unwrap();
            frame
        };
        for (state, closed, status, done) in cases {
            {
                let mut t = server.inner.table.lock().unwrap();
                t.closed = closed;
                t.jobs.insert(1, Job::new(JobSpec::default(), state, state_dir.clone(), None));
            }
            assert_eq!(status_reply(&server.inner, 1).render(), status);
            assert_eq!(done_line(1), done + "\n");
        }
        let missing = r#"{"ok":false,"code":404,"error":"no such job 2"}"#;
        assert_eq!(status_reply(&server.inner, 2).render(), missing);
        assert_eq!(done_line(2), "{\"ok\":false,\"code\":404,\"error\":\"job 2 vanished\"}\n");
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    /// Every reply a request line gets that is not a job's outcome, byte
    /// for byte: `ping`, the submit and watch acks, the 400s and 404s,
    /// and the frame that ends a watch when the server closes.
    #[test]
    fn request_replies_are_pinned() {
        let (server, state_dir) = bind("request_wire");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let mut lines = io::BufRead::lines(io::BufReader::new(client.try_clone().unwrap()));
        let cases = [
            (r#"{"cmd":"ping"}"#, r#"{"ok":true,"pong":true,"queued":0,"running":0}"#),
            (r#"{"cmd":"submit","job":{"workload":"unet"}}"#, r#"{"ok":true,"id":1}"#),
            (r#"{"cmd":"ping"}"#, r#"{"ok":true,"pong":true,"queued":1,"running":0}"#),
            (r#"{"cmd":"status","id":9}"#, r#"{"ok":false,"code":404,"error":"no such job 9"}"#),
            (r#"{"cmd":"watch","id":9}"#, r#"{"ok":false,"code":404,"error":"no such job 9"}"#),
            (r#"{"cmd":"status"}"#, r#"{"ok":false,"code":400,"error":"status needs an 'id'"}"#),
            (r#"{"cmd":"watch"}"#, r#"{"ok":false,"code":400,"error":"watch needs an 'id'"}"#),
            (
                r#"{"cmd":"submit"}"#,
                r#"{"ok":false,"code":400,"error":"submit needs a 'job' object"}"#,
            ),
            (
                r#"{"cmd":"submit","job":{"mode":"vibes","workload":"unet"}}"#,
                r#"{"ok":false,"code":400,"error":"unknown mode 'vibes' (expected memory|latency)"}"#,
            ),
            (r#"{"cmd":"dance"}"#, r#"{"ok":false,"code":400,"error":"unknown cmd 'dance'"}"#),
            (
                "{",
                r#"{"ok":false,"code":400,"error":"bad request: json error at byte 1: expected '\"'"}"#,
            ),
            (r#"{"cmd":"watch","id":1}"#, r#"{"ok":true,"id":1,"watching":true}"#),
        ];
        let replies: Vec<String> = thread::scope(|s| {
            s.spawn(|| handle_conn(conn, &server.inner));
            let mut replies = Vec::new();
            for (request, _) in cases {
                writeln!(&client, "{request}").unwrap();
                replies.push(lines.next().unwrap().unwrap());
            }
            server.inner.table.lock().unwrap().closed = true;
            server.inner.cv.notify_all();
            // Heartbeats carry wall-clock fields; the frame after them is pinned.
            replies.extend(
                lines.map(Result::unwrap).find(|l| !l.starts_with(r#"{"event":"progress""#)),
            );
            replies
        });
        let closed = r#"{"event":"done","id":1,"ok":false,"error":"server closed"}"#;
        let expected: Vec<&str> = cases.iter().map(|c| c.1).chain([closed]).collect();
        assert_eq!(replies, expected);
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    /// A server bound to a fresh state directory, never run.
    fn bind(name: &str) -> (Server, PathBuf) {
        let state_dir =
            std::env::temp_dir().join(format!("magis_serve_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.clone(),
            ..ServeConfig::default()
        };
        (Server::bind(cfg).unwrap(), state_dir)
    }

    /// A deterministic result, as a capped search returns it.
    fn capped_result(peak_bytes: u64) -> JobResult {
        JobResult {
            peak_bytes,
            latency: 0.5,
            planned_peak_bytes: None,
            stop_reason: "eval-cap-reached".into(),
            deterministic: true,
            evaluated: 40,
            expanded: 3,
            resumed: false,
            pareto: vec![(peak_bytes, 0.5)],
            trajectory_digest: 7,
            timeline: Json::Null,
        }
    }

    fn unet_at(scale: f64) -> JobSpec {
        JobSpec { workload: Some("unet".into()), scale, ..JobSpec::default() }
    }

    #[test]
    fn the_result_cache_keeps_the_first_job_per_key_and_evicts_the_oldest() {
        let mut t = Table::default();
        let peak = |t: &Table, scale| t.cached(unet_at(scale).cache_key()).map(|r| r.peak_bytes);
        let settle = |t: &mut Table, id, scale, peak_bytes| {
            let done = JobState::Done { result: capped_result(peak_bytes), cached: false };
            t.jobs.insert(id, Job::new(unet_at(scale), done, PathBuf::new(), None));
            t.remember(id, 2);
        };
        settle(&mut t, 1, 0.1, 10);
        settle(&mut t, 2, 0.1, 11);
        assert_eq!(peak(&t, 0.1), Some(10), "the first job per key wins");
        settle(&mut t, 3, 0.2, 20);
        settle(&mut t, 4, 0.3, 30);
        assert_eq!((peak(&t, 0.1), peak(&t, 0.2), peak(&t, 0.3)), (None, Some(20), Some(30)));
        assert_eq!(t.cache.len(), 2, "the oldest entry is evicted");
    }

    #[test]
    fn a_zero_result_cache_indexes_nothing() {
        let mut t = Table::default();
        let done = JobState::Done { result: capped_result(10), cached: false };
        t.jobs.insert(1, Job::new(unet_at(0.1), done, PathBuf::new(), None));
        t.remember(1, 0);
        assert!(t.cache.is_empty());
        assert_eq!(t.cached(unet_at(0.1).cache_key()), None);
    }

    /// The key a job is cached under is its spec's, rendered once at
    /// admission.
    #[test]
    fn an_admitted_job_keeps_its_specs_cache_key() {
        let (server, state_dir) = bind("keyed");
        let spec = JobSpec { client: "c".into(), ..unet_at(0.2) };
        let id = admit(&server.inner, spec.clone()).expect("admitted");
        assert_eq!(server.inner.table.lock().unwrap().jobs[&id].key, spec.cache_key());
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    fn running(token: CancelToken, since: Instant) -> JobState {
        JobState::Running { token, last_beats: 0, last_progress: since, stalled: false }
    }

    /// A finished job whose `result.json` cannot be written is still
    /// served with its own `cached` flag, counted as completed, and
    /// indexed in the result cache.
    #[test]
    fn a_done_job_whose_result_journal_fails_is_counted_and_cached() {
        let (server, state_dir) = bind("unjournaled");
        let inner = &server.inner;
        let spec = unet_at(0.15);
        {
            let mut t = inner.table.lock().unwrap();
            let job = Job::new(
                spec.clone(),
                running(CancelToken::new(), Instant::now()),
                state_dir.clone(),
                None,
            );
            t.jobs.insert(1, job);
            t.running = 1;
        }
        let result = capped_result(4096);
        let completed = inner.m.completed.get();
        let missing = state_dir.join("no-such-job-dir");
        settle(inner, 1, &missing, JobState::Done { result: result.clone(), cached: true }, None);
        assert!(!missing.join("result.json").exists());
        let status = status_reply(inner, 1).render();
        assert!(status.contains(r#""state":"done","cached":true"#), "{status}");
        assert_eq!(inner.m.completed.get() - completed, 1, "the served job is counted");
        assert_eq!(inner.table.lock().unwrap().cached(spec.cache_key()), Some(result));
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    /// The stall check, at explicit instants: a running job whose
    /// heartbeat never moves is flagged once after `stall_after_ms`,
    /// counted once, shown in `status`, and cleared by a beat.
    #[test]
    fn a_stalled_heartbeat_is_flagged_once_and_cleared_by_a_beat() {
        let (server, state_dir) = bind("stall");
        let inner = &server.inner;
        let token = CancelToken::new();
        let t0 = Instant::now();
        let job = Job::new(JobSpec::default(), running(token.clone(), t0), state_dir.clone(), None);
        inner.table.lock().unwrap().jobs.insert(1, job);
        let after = Duration::from_millis(inner.cfg.stall_after_ms);
        let ms = Duration::from_millis;
        let check = |now: Instant| flag_stalls(inner, &mut inner.table.lock().unwrap(), now);
        let stalled = || {
            let status = status_reply(inner, 1).render();
            assert!(status.contains(r#""state":"running""#), "{status}");
            status.contains(r#""stalled":true"#)
        };
        let stalls = inner.m.watchdog_stalls.get();
        check(t0 + after);
        assert!(!stalled(), "not flagged before stall_after_ms has passed");
        check(t0 + after + ms(1));
        assert!(stalled());
        check(t0 + after + ms(2));
        assert!(stalled());
        assert_eq!(inner.m.watchdog_stalls.get() - stalls, 1, "one stall counts once");
        token.beat();
        check(t0 + after + ms(3));
        assert!(!stalled(), "a beat clears the flag");
        check(t0 + after + after + ms(3));
        assert!(!stalled(), "the beat restarted the clock");
        check(t0 + after + after + ms(4));
        assert!(stalled(), "a second stall is flagged");
        assert_eq!(inner.m.watchdog_stalls.get() - stalls, 2);
        let _ = std::fs::remove_dir_all(&state_dir);
    }
}
