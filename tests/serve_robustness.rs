//! Robustness suite for the `magis-serve` supervision layer:
//! deadlines return best-so-far, full queues shed load without
//! perturbing running jobs, identical jobs are bit-identical, drains
//! journal interrupted work, and a `kill -9`'d daemon resumes
//! mid-flight jobs bit-exactly after restart.

use magis::core::budget::CancelToken;
use magis::obs::json::Json;
use magis::serve::job::run_job;
use magis::serve::{journal, Client, JobResult, JobSpec, ServeConfig, ServeError, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};
use magis_util::prop::prelude::*;

fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("magis_serve_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A small UNet job with a deterministic stop (candidate cap).
fn unet_spec(max_candidates: usize) -> JobSpec {
    JobSpec {
        workload: Some("unet".into()),
        scale: 0.15,
        max_candidates: Some(max_candidates),
        budget_ms: 3_600_000, // the wall-clock limit must never fire here
        threads: 1,
        checkpoint_every: 2,
        ..JobSpec::default()
    }
}

/// Boots an in-process server on a free port and runs it on a thread.
fn start(
    mut cfg: ServeConfig,
) -> (magis::serve::ServerHandle, thread::JoinHandle<std::io::Result<()>>) {
    cfg.addr = "127.0.0.1:0".into();
    let server = Server::bind(cfg).expect("bind");
    let handle = server.handle().expect("handle");
    let join = thread::spawn(move || server.run());
    (handle, join)
}

/// Polls `status` until the job settles (done/failed/interrupted).
fn wait_settled(addr: SocketAddr, id: u64, timeout: Duration) -> Json {
    let t0 = Instant::now();
    loop {
        let mut c = Client::connect(addr).expect("connect");
        let st = c.status(id).expect("status");
        let state = st.get("state").and_then(Json::as_str).unwrap_or("");
        if matches!(state, "done" | "failed" | "interrupted") {
            return st;
        }
        assert!(t0.elapsed() < timeout, "job {id} did not settle within {timeout:?}");
        thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn deadline_job_returns_valid_best_so_far() {
    let state = scratch("deadline");
    let (handle, join) =
        start(ServeConfig { state_dir: state.clone(), workers: 1, ..ServeConfig::default() });
    let mut spec = unet_spec(0);
    spec.max_candidates = None; // only the deadline stops this job
    spec.budget_ms = 200;

    let mut c = Client::connect(handle.addr()).expect("connect");
    let out = c.submit_and_wait(&spec).expect("submit");
    let r = out.result.expect("deadline is a successful anytime stop, not a failure");
    assert_eq!(r.stop_reason, "deadline");
    assert!(!r.deterministic, "a deadline stop must not enter the result cache");
    assert!(r.peak_bytes > 0, "best-so-far incumbent is a real state");
    assert!(r.latency > 0.0);
    assert!(r.evaluated >= 1, "the search made progress before the deadline");
    assert!(!r.pareto.is_empty(), "pareto front accompanies the incumbent");

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn full_queue_rejects_without_perturbing_running_jobs() {
    let state = scratch("queuefull");
    let (handle, join) = start(ServeConfig {
        state_dir: state.clone(),
        workers: 1,
        queue_capacity: 1,
        client_cap: 64,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // One running + one queued fills the single-worker server.
    let mut c = Client::connect(addr).expect("connect");
    let running_id = c.submit_nowait(&unet_spec(60)).expect("first accepted");
    // Give the worker a beat to pull the first job off the queue.
    let t0 = Instant::now();
    loop {
        let p = c.ping().expect("ping");
        if p.get("running").and_then(Json::as_u64) == Some(1) {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(30), "first job never started");
        thread::sleep(Duration::from_millis(10));
    }
    let queued_id = c.submit_nowait(&unet_spec(61)).expect("second accepted (queued)");

    // The next submission must bounce with a 429-style rejection.
    let mut c2 = Client::connect(addr).expect("connect");
    match c2.submit_nowait(&unet_spec(62)) {
        Err(ServeError::Rejected { code, error }) => {
            assert_eq!(code, 429, "backpressure uses a 429-style code");
            assert!(error.contains("queue"), "reason names the queue: {error}");
        }
        other => panic!("expected a queue-full rejection, got {other:?}"),
    }

    // The rejection must not have perturbed the admitted jobs.
    for id in [running_id, queued_id] {
        let st = wait_settled(addr, id, Duration::from_secs(120));
        let state_str = st.get("state").and_then(Json::as_str).unwrap();
        assert_eq!(state_str, "done", "admitted job {id} completes normally");
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn per_client_cap_rejects_excess_concurrency() {
    let state = scratch("clientcap");
    let (handle, join) = start(ServeConfig {
        state_dir: state.clone(),
        workers: 1,
        queue_capacity: 16,
        client_cap: 1,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr()).expect("connect");
    let mut spec = unet_spec(40);
    spec.client = "greedy".into();
    let first = c.submit_nowait(&spec).expect("first accepted");
    let mut second_spec = unet_spec(41);
    second_spec.client = "greedy".into();
    match c.submit_nowait(&second_spec) {
        Err(ServeError::Rejected { code, error }) => {
            assert_eq!(code, 429);
            assert!(error.contains("client"), "reason names the client cap: {error}");
        }
        other => panic!("expected a client-cap rejection, got {other:?}"),
    }
    // A different client identity is unaffected.
    let mut other_spec = unet_spec(41);
    other_spec.client = "patient".into();
    let second = c.submit_nowait(&other_spec).expect("other client accepted");
    for id in [first, second] {
        wait_settled(handle.addr(), id, Duration::from_secs(120));
    }
    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn same_job_twice_concurrently_is_bit_identical() {
    let state = scratch("samejob");
    let (handle, join) = start(ServeConfig {
        state_dir: state.clone(),
        workers: 2,
        result_cache: 0, // force both submissions to run a fresh search
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let spec = unet_spec(30);

    let submit = |spec: JobSpec| {
        thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            c.submit_and_wait(&spec).expect("submit").result.expect("job succeeds")
        })
    };
    let a = submit(spec.clone());
    let b = submit(spec);
    let (ra, rb) = (a.join().unwrap(), b.join().unwrap());

    assert_eq!(ra.identity_key(), rb.identity_key(), "same job → bit-identical result");
    assert_eq!(
        ra.trajectory_digest, rb.trajectory_digest,
        "the full search trajectories match, not just the endpoints"
    );
    assert!(ra.deterministic, "candidate-cap stop is deterministic");

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn deterministic_results_are_served_from_the_result_cache() {
    let state = scratch("cachehit");
    let (handle, join) =
        start(ServeConfig { state_dir: state.clone(), workers: 1, ..ServeConfig::default() });
    let mut c = Client::connect(handle.addr()).expect("connect");
    let first = c.submit_and_wait(&unet_spec(20)).expect("first");
    assert!(!first.cached);
    let second = c.submit_and_wait(&unet_spec(20)).expect("second");
    assert!(second.cached, "repeat deterministic submission hits the cache");
    let (ra, rb) = (first.result.unwrap(), second.result.unwrap());
    assert_eq!(ra.identity_key(), rb.identity_key());
    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

/// Open descriptors of this process that point below `dir` (other
/// tests of this binary run concurrently and open their own files).
#[cfg(target_os = "linux")]
fn open_fds_under(dir: &std::path::Path) -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|e| std::fs::read_link(e.ok()?.path()).ok())
        .filter(|target| target.starts_with(dir))
        .count()
}

/// A long-lived daemon must not hold a descriptor per job it ever
/// served: a settled job's trace sink is released, and its trace is
/// complete on disk by the time the client sees the result.
#[cfg(target_os = "linux")]
#[test]
fn settled_jobs_release_their_trace_descriptor() {
    let state = scratch("fdleak");
    let (handle, join) =
        start(ServeConfig { state_dir: state.clone(), workers: 1, ..ServeConfig::default() });
    let mut c = Client::connect(handle.addr()).expect("connect");
    // Every fifth job searches; the rest are result-cache hits, which
    // open a trace sink all the same.
    let serve = |c: &mut Client, n: usize| -> u64 {
        (0..n)
            .map(|k| {
                let out = c.submit_and_wait(&unet_spec(4 + k % 5)).expect("served");
                out.result.expect("job completes");
                out.id
            })
            .last()
            .expect("n > 0")
    };
    serve(&mut c, 10);
    let after_10 = open_fds_under(&state);
    let last = serve(&mut c, 50);
    let after_60 = open_fds_under(&state);
    assert!(
        after_60 <= after_10 + 2,
        "descriptors below the state dir grew with jobs served: {after_10} after 10, {after_60} after 60"
    );

    // What `magis trace-check --expect-job` checks, on a settled job:
    // every line parses, carries `job = id`, and the terminal event made
    // it to disk before the result was visible.
    let trace = state.join(format!("jobs/job-{last}")).join(magis::serve::server::TRACE_FILE);
    let text = std::fs::read_to_string(&trace).expect("settled job has a trace");
    let mut names = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let ev = magis::obs::trace::TraceEvent::parse_line(line).expect("record parses");
        let tagged = ev.fields.iter().any(|(k, v)| {
            k == "job" && matches!(v, magis::obs::trace::FieldValue::U64(n) if *n == last)
        });
        assert!(tagged, "record {}/{} carries no job={last} field", ev.target, ev.name);
        names.push(ev.name);
    }
    assert!(names.iter().any(|n| n == "job_done"), "terminal event on disk: {names:?}");

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

#[test]
fn drain_journals_interrupted_jobs_and_restart_completes_them() {
    let state = scratch("drain");
    // Tiny drain timeout: shutdown cancels the running search almost
    // immediately; the cancelled search checkpoints its frontier.
    let (handle, join) = start(ServeConfig {
        state_dir: state.clone(),
        workers: 1,
        drain_timeout_ms: 50,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let mut c = Client::connect(addr).expect("connect");
    // ~0.5 s of search in a release build, against the ~50 ms the
    // shutdown below leaves it once its first checkpoint is on disk.
    let id = c.submit_nowait(&unet_spec(1500)).expect("accepted");
    // Pull the plug once the job has started: its first checkpoint
    // (every 2 evaluations) is written at its first expansion boundary.
    let ckpt = journal::job_dir(&state, id).join(journal::CKPT_FILE);
    let t0 = Instant::now();
    while !ckpt.exists() {
        assert!(t0.elapsed() < Duration::from_secs(60), "job {id} never checkpointed");
        thread::sleep(Duration::from_millis(2));
    }
    handle.shutdown();
    join.join().unwrap().unwrap();

    // The journal must hold the spec, unsettled.
    let (replayed, _) = journal::replay(&state);
    let entry = replayed.iter().find(|j| j.id == id).expect("journal entry survives");
    assert!(entry.settled.is_none(), "interrupted job is journaled as in-flight");

    // A restarted server replays and completes it.
    let (handle2, join2) =
        start(ServeConfig { state_dir: state.clone(), workers: 1, ..ServeConfig::default() });
    let st = wait_settled(handle2.addr(), id, Duration::from_secs(300));
    assert_eq!(st.get("state").and_then(Json::as_str), Some("done"));
    let result = st.get("result").expect("done status carries the result");
    assert_eq!(
        result.get("deterministic"),
        Some(&Json::Bool(true)),
        "the replayed job ran to its deterministic stop"
    );
    handle2.shutdown();
    join2.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&state);
}

/// A job whose run fails fails the same way every time, so it settles
/// `failed` on its first attempt: one `run` span in its trace, one
/// failure counted, and one `job_failed` event carrying the error the
/// `status` reply shows. The failure here is a corrupt checkpoint in a
/// journaled job's directory, which the replay at start-up runs into.
#[test]
fn a_failed_job_settles_on_its_first_attempt() {
    let state = scratch("fail_once");
    let dir = journal::record_admission(&state, 1, &unet_spec(40)).expect("journaled");
    std::fs::write(dir.join(journal::CKPT_FILE), "not a checkpoint\n").unwrap();
    let failed = magis::obs::metrics::counter("magis_serve_jobs_failed");
    let before = failed.get();

    let (handle, join) =
        start(ServeConfig { state_dir: state.clone(), workers: 1, ..ServeConfig::default() });
    let st = wait_settled(handle.addr(), 1, Duration::from_secs(60));
    assert_eq!(st.get("state").and_then(Json::as_str), Some("failed"));
    let error = st.get("error").and_then(Json::as_str).unwrap_or_default();
    assert!(error.contains("loading checkpoint"), "{error}");
    assert_eq!(failed.get(), before + 1);
    handle.shutdown();
    join.join().unwrap().unwrap();

    let trace = std::fs::read_to_string(dir.join(magis::serve::server::TRACE_FILE)).expect("trace");
    let serve_records = |name: &str| {
        trace
            .lines()
            .filter_map(|l| magis::obs::trace::TraceEvent::parse_line(l).ok())
            .filter(|ev| ev.target == "magis_serve" && ev.name == name)
            .collect::<Vec<_>>()
    };
    assert_eq!(serve_records("run").len(), 1, "the job ran more than once:\n{trace}");
    let failures = serve_records("job_failed");
    assert_eq!(failures.len(), 1, "{trace}");
    let recorded = failures[0].fields.iter().find(|(k, _)| k == "error").map(|(_, v)| v);
    assert_eq!(recorded, Some(&magis::obs::trace::FieldValue::Str(error.to_string())), "{trace}");
    let _ = std::fs::remove_dir_all(&state);
}

/// The headline crash-safety contract: `kill -9` the daemon (a real
/// `magis serve` process) mid-job, restart it on the same state
/// directory, and the journal replay resumes the search from its last
/// checkpoint to a result bit-identical to an uninterrupted run.
#[test]
fn kill_dash_nine_restart_resumes_bit_identical() {
    let state = scratch("kill9");
    std::fs::create_dir_all(&state).unwrap();
    let port_file = state.join("port");
    let spawn_daemon = || {
        std::process::Command::new(env!("CARGO_BIN_EXE_magis"))
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--state-dir",
                state.to_str().unwrap(),
                "--workers",
                "1",
                "--port-file",
                port_file.to_str().unwrap(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("daemon spawns")
    };
    let read_addr = || -> SocketAddr {
        let t0 = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    return addr;
                }
            }
            assert!(t0.elapsed() < Duration::from_secs(30), "daemon never wrote its port");
            thread::sleep(Duration::from_millis(25));
        }
    };

    // A job long enough to survive until the kill lands: checkpoint
    // after every expansion, several hundred candidates of work.
    let mut spec = unet_spec(400);
    spec.checkpoint_every = 1;

    let mut daemon = spawn_daemon();
    let addr = read_addr();
    let mut c = Client::connect(addr).expect("connect");
    let id = c.submit_nowait(&spec).expect("accepted");
    drop(c);

    // Wait for the first frontier checkpoint, then kill -9.
    let ckpt = journal::job_dir(&state, id).join(journal::CKPT_FILE);
    let t0 = Instant::now();
    while !ckpt.exists() {
        assert!(t0.elapsed() < Duration::from_secs(120), "no checkpoint appeared");
        thread::sleep(Duration::from_millis(10));
    }
    daemon.kill().expect("kill -9");
    daemon.wait().expect("reaped");
    assert!(
        !journal::job_dir(&state, id).join(journal::RESULT_FILE).exists(),
        "the job must not have finished before the kill — raise the candidate cap if it did"
    );

    // Restart on the same state dir: the journal replays the job.
    let _ = std::fs::remove_file(&port_file);
    let mut daemon2 = spawn_daemon();
    let addr2 = read_addr();
    let st = wait_settled(addr2, id, Duration::from_secs(600));
    assert_eq!(st.get("state").and_then(Json::as_str), Some("done"));
    let resumed = JobResult::from_json(st.get("result").expect("result")).expect("parses");
    assert!(resumed.resumed, "the restarted daemon resumed from the checkpoint");

    // Reference: the same spec run uninterrupted, in-process.
    let ref_dir = scratch("kill9_ref");
    std::fs::create_dir_all(&ref_dir).unwrap();
    let reference =
        run_job(&spec, &ref_dir, CancelToken::new(), None).expect("uninterrupted reference run");
    assert!(!reference.resumed);
    assert_eq!(
        resumed.identity_key(),
        reference.identity_key(),
        "crash + journal replay is bit-identical to never crashing"
    );

    // Shut the second daemon down gracefully (the SIGTERM drain path).
    unsafe {
        kill(daemon2.id() as i32, 15);
    }
    let t0 = Instant::now();
    loop {
        match daemon2.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "drained daemon exits cleanly: {status:?}");
                break;
            }
            None if t0.elapsed() > Duration::from_secs(60) => {
                daemon2.kill().unwrap();
                panic!("daemon did not drain after SIGTERM");
            }
            None => thread::sleep(Duration::from_millis(50)),
        }
    }
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&ref_dir);
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// The daemon's request-line cap (`MAX_LINE` in `magis-serve`'s
/// server), newline excluded.
const LINE_CAP: usize = 1 << 20;

/// The `submit` line of a job carrying `g` as an inline record.
fn inline_submit_line(g: &magis::graph::Graph, max_candidates: usize) -> String {
    let spec = JobSpec {
        graph: Some(magis::graph::io::to_record(g)),
        max_candidates: Some(max_candidates),
        threads: 1,
        ..JobSpec::default()
    };
    let req = Json::Obj(vec![
        ("cmd".to_string(), Json::Str("submit".into())),
        ("wait".into(), Json::Bool(false)),
        ("job".into(), spec.to_json()),
    ]);
    req.render()
}

#[test]
fn the_line_cap_holds_the_largest_request_sent() {
    let bert = magis::models::Workload::BertBase.build(1.0).graph;
    let line = inline_submit_line(&bert, 1).len();
    // The ratio the server's `MAX_LINE` doc states.
    assert_eq!((LINE_CAP * 10 / line) as f64 / 10.0, 14.3, "BERT-base submit line: {line} bytes");
}

/// One request of [`request_lines_in_any_chunks_get_a_typed_reply`] and
/// what its reply must read.
enum Expect {
    Ok,
    /// `ok: false` with this code and an error starting with this text.
    Err(u64, &'static str),
}

proptest! {
    // Each case sends ~2 MiB through one connection of a fresh daemon.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Requests written in random chunk splits, up to a line of exactly
    /// the cap, each get their own typed reply in order; a line past the
    /// cap gets a typed 400 and a closed connection without its newline
    /// ever arriving — the daemon buffers at most the cap plus one read.
    #[test]
    fn request_lines_in_any_chunks_get_a_typed_reply(
        seed in any::<u64>(),
        lines in 1usize..8,
        over in 0usize..3,
        with_newline in any::<bool>(),
    ) {
        use magis::models::{random_dnn, RandomDnnConfig};
        use magis_util::rng::{Rng, SeedableRng, SmallRng};
        use std::io::{BufRead, BufReader, Write};
        let mut rng = SmallRng::seed_from_u64(seed);
        let tiny = random_dnn(&RandomDnnConfig { cells: 1, blocks: 1, ..RandomDnnConfig::default() }, seed);
        let mut sent: Vec<u8> = Vec::new();
        let mut expect = Vec::new();
        for _ in 0..lines {
            let (line, e) = match rng.gen_range(0..5u32) {
                0 => (r#"{"cmd":"ping"}"#.to_string(), Expect::Ok),
                1 => ("{\"cmd\":".to_string(), Expect::Err(400, "bad request")),
                2 => (r#"{"cmd":"teleport"}"#.to_string(), Expect::Err(400, "unknown cmd")),
                3 => (inline_submit_line(&tiny, 1), Expect::Ok),
                _ => ("x".repeat(LINE_CAP), Expect::Err(400, "bad request")),
            };
            sent.extend_from_slice(line.as_bytes());
            sent.push(b'\n');
            expect.push(e);
        }
        // `over` 1 and 2: a line one byte, or one read and more, past the cap.
        let too_long = [0, 1, 4096 + rng.gen_range(1..4096usize)][over];
        if too_long > 0 {
            sent.extend(std::iter::repeat_n(b'y', LINE_CAP + too_long));
            if with_newline {
                sent.push(b'\n');
            }
            expect.push(Expect::Err(400, "request line too long"));
        }

        let state = scratch(&format!("lines_{seed:x}"));
        let (handle, join) =
            start(ServeConfig { state_dir: state.clone(), workers: 1, ..ServeConfig::default() });
        let stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        let chunks: Vec<usize> = (0..sent.len()).map(|_| rng.gen_range(1..20_000usize)).collect();
        let write = thread::spawn(move || {
            let mut rest = &sent[..];
            for n in chunks {
                let n = n.min(rest.len());
                if n == 0 || writer.write_all(&rest[..n]).is_err() {
                    break; // the daemon closed a connection it refused
                }
                rest = &rest[n..];
            }
        });
        let mut reader = BufReader::new(stream);
        for (i, e) in expect.iter().enumerate() {
            let mut reply = String::new();
            prop_assert!(reader.read_line(&mut reply).is_ok_and(|n| n > 0), "reply {i}: none");
            let reply = Json::parse(reply.trim()).expect("a reply is one JSON object");
            let ok = match reply.get("ok") {
                Some(Json::Bool(ok)) => Some(*ok),
                _ => None,
            };
            match e {
                Expect::Ok => prop_assert_eq!(ok, Some(true), "reply {i}: {reply:?}"),
                Expect::Err(code, what) => {
                    prop_assert_eq!(ok, Some(false), "reply {i}");
                    prop_assert_eq!(reply.get("code").and_then(Json::as_u64), Some(*code));
                    let error = reply.get("error").and_then(Json::as_str).unwrap_or("");
                    prop_assert!(error.starts_with(what), "reply {i}: {error}");
                }
            }
        }
        if too_long > 0 {
            let mut tail = String::new();
            prop_assert!(!reader.read_line(&mut tail).is_ok_and(|n| n > 0), "refused, then closed");
        }
        drop(reader);
        write.join().unwrap();
        handle.shutdown();
        join.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&state);
    }
}
