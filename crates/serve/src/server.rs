//! The supervised job server: admission control, worker pool,
//! watchdog, journal replay, and graceful drain.
//!
//! ## Supervision tree
//!
//! ```text
//! Server::run
//! ├── accept loop (main thread; refuses connections once draining)
//! │   └── one handler thread per connection (line protocol)
//! ├── N worker threads (bounded pool; pull due jobs from the queue)
//! ├── watchdog thread (flags running jobs whose heartbeat stalls)
//! └── drain phase (after SIGTERM/shutdown: finish queued + running
//!     jobs, cancel + checkpoint whatever the drain timeout cuts off)
//! ```
//!
//! ## Job states
//!
//! ```text
//! Queued ──→ Running ──→ Done
//!   ↑           │ └────→ Interrupted   (drain cancel; journaled,
//!   │           │                       resumed on next start)
//!   └─(backoff)─┴──────→ Failed        (retries exhausted)
//! ```
//!
//! A failed attempt (panic or error) re-queues the job with
//! exponential backoff (`backoff_base_ms · 2^(attempt-1)`) until the
//! retry cap, then settles as `Failed`. Every transition that must
//! survive `kill -9` goes through the [`journal`]
//! before it is acknowledged.

use crate::cache::ResultCache;
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// File name of the per-job JSONL trace inside a job directory. The
/// trace id is the job id: every record in the file (and every copy
/// routed to a `--trace-out` global sink) carries a `job` field, so
/// one job's lifecycle — admission, queue wait, run attempts, the
/// search's own spans — reads as a single correlated trace.
pub const TRACE_FILE: &str = "trace.jsonl";

/// How often blocked loops re-check for shutdown/progress.
const POLL: Duration = Duration::from_millis(20);
/// Cadence of `progress` events streamed to waiting clients.
const PROGRESS_EVERY: Duration = Duration::from_millis(200);

#[derive(Debug)]
enum JobState {
    Queued { not_before: Instant },
    Running { token: CancelToken, last_beats: u64, last_progress: Instant, stalled: bool },
    Done { result: JobResult, cached: bool },
    Failed { error: String },
    /// Cancelled by the drain timeout: journaled as in-flight, so the
    /// next daemon start replays and resumes it.
    Interrupted,
}

/// Latest progress snapshot for one job, shared between the worker
/// running its search and any number of `watch` subscribers. The
/// worker only stores and notifies — it never waits on subscribers —
/// so a slow or disconnected watcher cannot stall or perturb the
/// search.
#[derive(Default)]
struct ProgressCell {
    /// `(sequence number, latest snapshot)`; the sequence increments
    /// once per stored snapshot so subscribers detect news cheaply.
    latest: Mutex<(u64, Option<ProgressSnapshot>)>,
}

impl ProgressCell {
    fn store(&self, snap: &ProgressSnapshot) {
        let mut l = self.latest.lock().unwrap();
        l.0 += 1;
        l.1 = Some(snap.clone());
    }

    fn read(&self) -> (u64, Option<ProgressSnapshot>) {
        self.latest.lock().unwrap().clone()
    }
}

/// The per-job [`ProgressSink`] handed to the search: stores the
/// snapshot in the job's cell and wakes every condvar waiter (watch
/// streams, waiting submits).
struct JobProgress {
    cell: Arc<ProgressCell>,
    inner: Arc<Inner>,
}

impl ProgressSink for JobProgress {
    fn report(&self, snap: &ProgressSnapshot) {
        self.cell.store(snap);
        self.inner.cv.notify_all();
    }
}

/// Opens (append mode) a job's `trace.jsonl` sink. Best-effort: a job
/// whose trace file cannot be opened still runs, just untraced.
fn job_trace_sink(dir: &std::path::Path) -> Option<Arc<JsonlSink>> {
    JsonlSink::append(&dir.join(TRACE_FILE)).ok().map(Arc::new)
}

/// Routes this thread's trace records into the job's sink, tagging
/// every record (in every destination, global sink included) with a
/// `job` correlation field — the trace id is the job id.
fn scoped_job(sink: Arc<JsonlSink>, id: u64) -> trace::ScopedSinkGuard {
    trace::scoped(sink, vec![("job".to_string(), trace::FieldValue::U64(id))])
}

struct Job {
    spec: JobSpec,
    state: JobState,
    attempts: u32,
    dir: std::path::PathBuf,
    /// Wall-clock admission (or replay) instant, for the queue-wait
    /// histogram.
    admitted: Instant,
    /// Live progress broadcast cell (see [`ProgressCell`]).
    progress: Arc<ProgressCell>,
    /// Per-job JSONL trace sink (`trace.jsonl` in the job dir). `None`
    /// when the file could not be opened — tracing is best-effort and
    /// must never fail a job — and once the job is done or failed.
    trace: Option<Arc<JsonlSink>>,
}

#[derive(Default)]
struct Table {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    running: usize,
    draining: bool,
    /// Set after the drain completes: waiters and helper threads must
    /// give up promptly.
    closed: bool,
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
    retries: Counter,
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
            retries: counter("magis_serve_retries"),
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
    cache: Mutex<ResultCache>,
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
            cache: Mutex::new(ResultCache::new(cfg.result_cache)),
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
                        JobState::Queued { not_before: Instant::now() }
                    }
                };
                t.jobs.insert(
                    j.id,
                    Job {
                        spec: j.spec,
                        state,
                        attempts: 0,
                        dir: j.dir,
                        admitted: Instant::now(),
                        progress: Arc::new(ProgressCell::default()),
                        trace: tsink,
                    },
                );
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
    /// helper thread has exited.
    pub fn run(self) -> io::Result<()> {
        signals::install();
        let inner = self.inner;
        let mut helpers = Vec::new();
        for _ in 0..inner.cfg.workers.max(1) {
            let w = inner.clone();
            helpers.push(thread::spawn(move || worker_loop(&w)));
        }
        {
            let w = inner.clone();
            helpers.push(thread::spawn(move || watchdog_loop(&w)));
        }

        // Accept until shutdown. Connection handlers are detached; they
        // exit on their own once the table is marked closed.
        while !inner.stopping() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let c = inner.clone();
                    thread::spawn(move || handle_conn(stream, &c));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
                Err(e) => {
                    magis_obs::obs_warn!("magis_serve", "accept failed: {e}");
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
                if Instant::now() >= deadline && !cancelled {
                    cancelled = true;
                    // Cut off: cancel running searches (they stop
                    // cooperatively and write a final frontier
                    // checkpoint) and park the still-queued jobs; all
                    // of them replay on the next start.
                    while let Some(id) = t.queue.pop_front() {
                        if let Some(j) = t.jobs.get_mut(&id) {
                            j.state = JobState::Interrupted;
                            let _g = j.trace.clone().map(|s| scoped_job(s, id));
                            magis_obs::event!(
                                "magis_serve",
                                "drain_cancel",
                                id = id,
                                was = "queued"
                            );
                        }
                    }
                    for (&id, j) in t.jobs.iter() {
                        if let JobState::Running { token, .. } = &j.state {
                            token.cancel();
                            let _g = j.trace.clone().map(|s| scoped_job(s, id));
                            magis_obs::event!(
                                "magis_serve",
                                "drain_cancel",
                                id = id,
                                was = "running"
                            );
                        }
                    }
                    inner.m.queue_depth.set(0.0);
                }
                let (guard, _) = inner.cv.wait_timeout(t, POLL).unwrap();
                t = guard;
            }
            t.closed = true;
        }
        inner.cv.notify_all();
        for h in helpers {
            let _ = h.join();
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
            matches!(j.state, JobState::Queued { .. } | JobState::Running { .. })
                && j.spec.client == spec.client
        })
        .count();
    if active >= inner.cfg.client_cap {
        inner.m.rejected_client_cap.inc();
        return Err(reply::err(429, "per-client concurrent-job cap reached"));
    }
    let id = inner.next_id.fetch_add(1, Ordering::SeqCst);
    let dir = match journal::record_admission(&inner.cfg.state_dir, id, &spec) {
        Ok(d) => d,
        Err(e) => return Err(reply::err(500, &format!("journaling admission: {e}"))),
    };
    let tsink = job_trace_sink(&dir);
    {
        let _g = tsink.clone().map(|s| scoped_job(s, id));
        magis_obs::event!("magis_serve", "admitted", id = id, client = spec.client.clone());
    }
    t.jobs.insert(
        id,
        Job {
            spec,
            state: JobState::Queued { not_before: Instant::now() },
            attempts: 0,
            dir,
            admitted: Instant::now(),
            progress: Arc::new(ProgressCell::default()),
            trace: tsink,
        },
    );
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
        let now = Instant::now();
        let pos = t.queue.iter().position(|id| {
            matches!(t.jobs.get(id).map(|j| &j.state),
                Some(JobState::Queued { not_before }) if *not_before <= now)
        });
        let Some(pos) = pos else {
            if inner.stopping() && t.queue.is_empty() && t.running == 0 {
                return;
            }
            let _unused = inner.cv.wait_timeout(t, POLL).unwrap();
            continue;
        };
        let id = t.queue.remove(pos).expect("position came from the queue");
        let token = CancelToken::new();
        let (spec, dir, cell, tsink, admitted) = {
            let j = t.jobs.get_mut(&id).expect("queued id is in the table");
            j.state = JobState::Running {
                token: token.clone(),
                last_beats: 0,
                last_progress: now,
                stalled: false,
            };
            (j.spec.clone(), j.dir.clone(), j.progress.clone(), j.trace.clone(), j.admitted)
        };
        t.running += 1;
        inner.m.queue_depth.set(t.queue.len() as f64);
        inner.m.running.set(t.running as f64);
        drop(t);

        let waited = admitted.elapsed();
        inner.m.queue_wait_seconds.observe(waited.as_secs_f64());
        {
            let _g = tsink.clone().map(|s| scoped_job(s, id));
            trace::span_with_dur(
                "magis_serve",
                "queue_wait",
                waited,
                vec![("id".to_string(), trace::FieldValue::U64(id))],
            );
        }

        // Cross-request cache: identical submissions that already
        // completed deterministically are served without a search.
        let cached = inner.cache.lock().unwrap().get(spec.cache_key()).cloned();
        let outcome = match cached {
            Some(hit) => {
                inner.m.cache_hits.inc();
                Attempt::CacheHit(hit)
            }
            None => {
                inner.m.cache_misses.inc();
                let progress: Arc<dyn ProgressSink> =
                    Arc::new(JobProgress { cell, inner: inner.clone() });
                let run_t0 = Instant::now();
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    // The scoped guard lives inside the search thread:
                    // every span/event the optimizer emits lands in the
                    // job's trace.jsonl tagged `job = id`.
                    let _g = tsink.clone().map(|s| scoped_job(s, id));
                    run_job(&spec, &dir, token.clone(), Some(progress))
                }));
                let dur = run_t0.elapsed();
                inner.m.job_seconds.observe(dur.as_secs_f64());
                {
                    let _g = tsink.clone().map(|s| scoped_job(s, id));
                    trace::span_with_dur(
                        "magis_serve",
                        "run",
                        dur,
                        vec![("id".to_string(), trace::FieldValue::U64(id))],
                    );
                }
                match attempt {
                    Ok(Ok(res)) if res.stop_reason == "cancelled" => Attempt::Cancelled,
                    Ok(Ok(res)) => Attempt::Finished(res),
                    Ok(Err(e)) => Attempt::Failed(e),
                    Err(p) => Attempt::Failed(panic_text(p)),
                }
            }
        };
        settle(inner, id, &dir, outcome, tsink);
    }
}

enum Attempt {
    Finished(JobResult),
    CacheHit(JobResult),
    Cancelled,
    Failed(String),
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".into()
    }
}

/// Applies one attempt's outcome: journal first, then the in-memory
/// transition, then wake waiters.
fn settle(
    inner: &Inner,
    id: u64,
    dir: &std::path::Path,
    outcome: Attempt,
    tsink: Option<Arc<JsonlSink>>,
) {
    // Every lifecycle event below is also routed (tagged `job = id`)
    // into the job's trace.jsonl; dropping the guard flushes it, so a
    // settled job's trace is complete on disk.
    let guard = tsink.map(|s| scoped_job(s, id));
    // Terminal journal writes happen outside the table lock; the job
    // is still in `Running` state so no other worker can touch it.
    let state = match outcome {
        Attempt::Finished(res) | Attempt::CacheHit(res)
            if journal::record_result(dir, &res).is_err() =>
        {
            // Unjournalable success: still serve it to the waiting
            // client, but warn — a crash would re-run this job.
            magis_obs::obs_warn!("magis_serve", "job {id}: result journaling failed");
            JobState::Done { result: res, cached: false }
        }
        Attempt::Finished(res) => {
            if res.deterministic {
                let t = inner.table.lock().unwrap();
                let key = t.jobs.get(&id).map(|j| j.spec.cache_key());
                drop(t);
                if let Some(key) = key {
                    inner.cache.lock().unwrap().insert(key, res.clone());
                }
            }
            inner.m.completed.inc();
            magis_obs::event!("magis_serve", "job_done", id = id, stop = res.stop_reason.clone());
            JobState::Done { result: res, cached: false }
        }
        Attempt::CacheHit(res) => {
            inner.m.completed.inc();
            magis_obs::event!("magis_serve", "job_done", id = id, stop = "cache-hit");
            JobState::Done { result: res, cached: true }
        }
        Attempt::Cancelled => {
            // Journal entry stays unsettled: the next start resumes it
            // from the checkpoint the cancelled search just wrote.
            magis_obs::event!("magis_serve", "job_interrupted", id = id);
            JobState::Interrupted
        }
        Attempt::Failed(e) => {
            let mut t = inner.table.lock().unwrap();
            let job = t.jobs.get_mut(&id).expect("running id is in the table");
            job.attempts += 1;
            let attempt = job.attempts as u64;
            if job.attempts <= inner.cfg.retry_cap {
                let backoff = Duration::from_millis(
                    inner.cfg.backoff_base_ms.saturating_mul(1 << (job.attempts - 1).min(16)),
                );
                job.state = JobState::Queued { not_before: Instant::now() + backoff };
                t.queue.push_back(id);
                t.running -= 1;
                inner.m.retries.inc();
                inner.m.queue_depth.set(t.queue.len() as f64);
                inner.m.running.set(t.running as f64);
                magis_obs::event!(
                    "magis_serve",
                    "retry",
                    id = id,
                    attempt = attempt,
                    backoff_ms = backoff.as_millis() as u64
                );
                magis_obs::obs_warn!(
                    "magis_serve",
                    "job {id} attempt failed ({e}); retrying in {backoff:?}"
                );
                drop(t);
                inner.cv.notify_all();
                return;
            }
            drop(t);
            let _ = journal::record_failure(dir, &e);
            inner.m.failed.inc();
            magis_obs::event!("magis_serve", "job_failed", id = id);
            magis_obs::obs_warn!("magis_serve", "job {id} failed permanently: {e}");
            JobState::Failed { error: e }
        }
    };
    // Flush before the state becomes visible: whoever sees the job
    // settled finds its complete trace on disk.
    drop(guard);
    let mut t = inner.table.lock().unwrap();
    if let Some(j) = t.jobs.get_mut(&id) {
        if matches!(state, JobState::Done { .. } | JobState::Failed { .. }) {
            // A settled job records nothing more: release its sink, or
            // the daemon holds one open descriptor per job ever served.
            j.trace = None;
        }
        j.state = state;
    }
    t.running -= 1;
    inner.m.running.set(t.running as f64);
    drop(t);
    inner.cv.notify_all();
}

/// Flags running jobs whose candidate-eval heartbeat has stalled. The
/// watchdog never kills a job — evaluation is sandboxed and
/// cancellation cooperative — it makes the stall observable
/// (`magis_serve_watchdog_stalls`, a warn log, a trace event).
fn watchdog_loop(inner: &Inner) {
    let stall_after = Duration::from_millis(inner.cfg.stall_after_ms);
    loop {
        let t = inner.table.lock().unwrap();
        if t.closed {
            return;
        }
        let mut t = inner.cv.wait_timeout(t, POLL.max(Duration::from_millis(50))).unwrap().0;
        let now = Instant::now();
        for (&id, job) in t.jobs.iter_mut() {
            if let JobState::Running { token, last_beats, last_progress, stalled } =
                &mut job.state
            {
                let beats = token.beats();
                if beats != *last_beats {
                    *last_beats = beats;
                    *last_progress = now;
                    *stalled = false;
                } else if !*stalled && now.duration_since(*last_progress) > stall_after {
                    *stalled = true;
                    inner.m.watchdog_stalls.inc();
                    magis_obs::obs_warn!(
                        "magis_serve",
                        "job {id}: no eval heartbeat for {stall_after:?}"
                    );
                    magis_obs::event!("magis_serve", "watchdog_stall", id = id);
                }
            }
        }
    }
}

/// Buffered line reader over a read-timeout socket: tolerates timeouts
/// mid-line and checks `stop` between reads so handler threads exit
/// when the server closes.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl LineReader {
    fn read_line(&mut self, stop: &dyn Fn() -> bool) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(Some(String::from_utf8_lossy(&line).trim().to_string()));
            }
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
    Ok((LineReader { stream, buf: Vec::new() }, out))
}

fn handle_conn(stream: TcpStream, inner: &Inner) {
    let Ok((mut reader, mut out)) = open_conn(stream) else { return };
    let stop = || inner.table.lock().unwrap().closed;
    while let Ok(Some(line)) = reader.read_line(&stop) {
        if line.is_empty() {
            continue;
        }
        let req = match Json::parse(&line) {
            Ok(j) => j,
            Err(e) => {
                let _ = send(&mut out, &reply::err(400, &format!("bad request: {e}")));
                continue;
            }
        };
        let cmd = req.get("cmd").and_then(Json::as_str).unwrap_or("");
        match cmd {
            "ping" => {
                let t = inner.table.lock().unwrap();
                let r = reply::ok(vec![
                    ("pong".into(), Json::Bool(true)),
                    ("queued".into(), Json::UInt(t.queue.len() as u64)),
                    ("running".into(), Json::UInt(t.running as u64)),
                ]);
                drop(t);
                if send(&mut out, &r).is_err() {
                    return;
                }
            }
            "status" => {
                let r = match req.get("id").and_then(Json::as_u64) {
                    None => reply::err(400, "status needs an 'id'"),
                    Some(id) => status_reply(inner, id),
                };
                if send(&mut out, &r).is_err() {
                    return;
                }
            }
            "submit" => {
                let wait = matches!(req.get("wait"), Some(Json::Bool(true)));
                let spec = match req.get("job").ok_or("submit needs a 'job' object") {
                    Ok(j) => match JobSpec::from_json(j) {
                        Ok(s) => s,
                        Err(e) => {
                            let _ = send(&mut out, &reply::err(400, &e));
                            continue;
                        }
                    },
                    Err(e) => {
                        let _ = send(&mut out, &reply::err(400, e));
                        continue;
                    }
                };
                match admit(inner, spec) {
                    Err(rejection) => {
                        if send(&mut out, &rejection).is_err() {
                            return;
                        }
                    }
                    Ok(id) => {
                        let ack =
                            reply::ok(vec![("id".to_string(), Json::UInt(id))]);
                        if send(&mut out, &ack).is_err() {
                            return;
                        }
                        if wait && !stream_until_done(inner, id, &mut out) {
                            return;
                        }
                    }
                }
            }
            "watch" => {
                // Mid-flight attach: ack with the current state, then
                // stream the same progress/done frames a waiting submit
                // gets. Any number of watchers may subscribe; each gets
                // its own frame stream off the job's progress cell.
                match req.get("id").and_then(Json::as_u64) {
                    None => {
                        let _ = send(&mut out, &reply::err(400, "watch needs an 'id'"));
                    }
                    Some(id) => {
                        let known = inner.table.lock().unwrap().jobs.contains_key(&id);
                        if !known {
                            let _ =
                                send(&mut out, &reply::err(404, &format!("no such job {id}")));
                            continue;
                        }
                        let ack = reply::ok(vec![
                            ("id".to_string(), Json::UInt(id)),
                            ("watching".into(), Json::Bool(true)),
                        ]);
                        if send(&mut out, &ack).is_err() {
                            return;
                        }
                        if !stream_until_done(inner, id, &mut out) {
                            return;
                        }
                    }
                }
            }
            "metrics" => {
                // Prometheus text exposition of the whole process
                // registry (`magis_serve_*` plus any search metrics
                // registered by jobs run in-process).
                let text = magis_obs::metrics::default_registry().render();
                let r = reply::ok(vec![("metrics".to_string(), Json::Str(text))]);
                if send(&mut out, &r).is_err() {
                    return;
                }
            }
            other => {
                let _ = send(&mut out, &reply::err(400, &format!("unknown cmd '{other}'")));
            }
        }
    }
}

fn status_reply(inner: &Inner, id: u64) -> Json {
    let t = inner.table.lock().unwrap();
    let Some(job) = t.jobs.get(&id) else {
        return reply::err(404, &format!("no such job {id}"));
    };
    let mut extra = vec![("id".to_string(), Json::UInt(id))];
    match &job.state {
        JobState::Queued { .. } => extra.push(("state".into(), Json::Str("queued".into()))),
        JobState::Running { token, stalled, .. } => {
            extra.push(("state".into(), Json::Str("running".into())));
            extra.push(("beats".into(), Json::UInt(token.beats())));
            extra.push(("stalled".into(), Json::Bool(*stalled)));
        }
        JobState::Done { result, cached } => {
            extra.push(("state".into(), Json::Str("done".into())));
            extra.push(("cached".into(), Json::Bool(*cached)));
            extra.push(("result".into(), result.to_json()));
        }
        JobState::Failed { error } => {
            extra.push(("state".into(), Json::Str("failed".into())));
            extra.push(("error".into(), Json::Str(error.clone())));
        }
        JobState::Interrupted => {
            extra.push(("state".into(), Json::Str("interrupted".into())));
        }
    }
    reply::ok(extra)
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
        (
            "best_latency_bits".into(),
            Json::Str(format!("{:016x}", snap.best_latency.to_bits())),
        ),
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
/// Progress comes from two sources: whenever the job's
/// [`ProgressCell`] holds a newer search snapshot a full
/// [`snapshot_frame`] goes out immediately, and while there is no
/// search news (job still queued, search between expansions) a
/// heartbeat frame with the eval-beat counter goes out every
/// [`PROGRESS_EVERY`].
fn stream_until_done(inner: &Inner, id: u64, out: &mut TcpStream) -> bool {
    let started = Instant::now();
    let mut last_sent = Instant::now();
    let mut last_seq = 0u64;
    let cell = {
        let t = inner.table.lock().unwrap();
        t.jobs.get(&id).map(|j| j.progress.clone())
    };
    let mut t = inner.table.lock().unwrap();
    loop {
        // Flush any unseen search snapshot first, so the final `done`
        // event never beats the job's last progress frame to the wire.
        let news = cell
            .as_ref()
            .map(|c| c.read())
            .filter(|(seq, snap)| *seq > last_seq && snap.is_some());
        if let Some((seq, Some(snap))) = news {
            last_seq = seq;
            last_sent = Instant::now();
            let frame = snapshot_frame(id, seq, &snap, started);
            drop(t);
            if send(out, &frame).is_err() {
                return false;
            }
            t = inner.table.lock().unwrap();
            continue;
        }
        let final_event = match t.jobs.get(&id).map(|j| &j.state) {
            Some(JobState::Done { result, cached }) => Some(Json::Obj(vec![
                ("event".to_string(), Json::Str("done".into())),
                ("id".into(), Json::UInt(id)),
                ("ok".into(), Json::Bool(true)),
                ("cached".into(), Json::Bool(*cached)),
                ("result".into(), result.to_json()),
            ])),
            Some(JobState::Failed { error }) => Some(Json::Obj(vec![
                ("event".to_string(), Json::Str("done".into())),
                ("id".into(), Json::UInt(id)),
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::Str(error.clone())),
            ])),
            Some(JobState::Interrupted) => Some(Json::Obj(vec![
                ("event".to_string(), Json::Str("done".into())),
                ("id".into(), Json::UInt(id)),
                ("ok".into(), Json::Bool(false)),
                (
                    "error".into(),
                    Json::Str("interrupted by shutdown; journaled for restart".into()),
                ),
            ])),
            None => Some(reply::err(404, &format!("job {id} vanished"))),
            Some(_) if t.closed => Some(Json::Obj(vec![
                ("event".to_string(), Json::Str("done".into())),
                ("id".into(), Json::UInt(id)),
                ("ok".into(), Json::Bool(false)),
                ("error".into(), Json::Str("server closed".into())),
            ])),
            Some(state) => {
                if last_sent.elapsed() >= PROGRESS_EVERY {
                    last_sent = Instant::now();
                    let (name, beats) = match state {
                        JobState::Running { token, .. } => ("running", token.beats()),
                        _ => ("queued", 0),
                    };
                    let progress = Json::Obj(vec![
                        ("event".to_string(), Json::Str("progress".into())),
                        ("id".into(), Json::UInt(id)),
                        ("state".into(), Json::Str(name.into())),
                        ("beats".into(), Json::UInt(beats)),
                        (
                            "elapsed_ms".into(),
                            Json::UInt(started.elapsed().as_millis() as u64),
                        ),
                    ]);
                    drop(t);
                    if send(out, &progress).is_err() {
                        return false;
                    }
                    t = inner.table.lock().unwrap();
                }
                None
            }
        };
        if let Some(ev) = final_event {
            drop(t);
            return send(out, &ev).is_ok();
        }
        let (guard, _) = inner.cv.wait_timeout(t, POLL).unwrap();
        t = guard;
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
}
