//! Service-level observability: the `magis_serve_*` metric registry
//! stays in lock-step with its DESIGN.md documentation, `watch`
//! subscribers can attach mid-flight and stream monotone progress
//! frames, and watchers — connected, disconnected, or absent — never
//! perturb the search result.

use magis::obs::json::Json;
use magis::obs::metrics::default_registry;
use magis::serve::{Client, JobResult, JobSpec, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::thread;
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("magis_sobs_{}_{name}", std::process::id()));
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
        ..JobSpec::default()
    }
}

fn start(
    mut cfg: ServeConfig,
) -> (magis::serve::ServerHandle, thread::JoinHandle<std::io::Result<()>>) {
    cfg.addr = "127.0.0.1:0".into();
    let server = Server::bind(cfg).expect("bind");
    let handle = server.handle().expect("handle");
    let join = thread::spawn(move || server.run());
    (handle, join)
}

/// Polls `status` until the job settles; returns its [`JobResult`].
fn wait_done(addr: &str, id: u64) -> JobResult {
    let mut c = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let st = c.status(id).expect("status");
        match st.get("state").and_then(Json::as_str) {
            Some("done") => {
                return JobResult::from_json(st.get("result").expect("result"))
                    .expect("result parses")
            }
            Some("failed") | Some("interrupted") => {
                panic!("job {id} settled badly: {}", st.render())
            }
            _ => {
                assert!(Instant::now() < deadline, "job {id} never settled");
                thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Every `magis_serve_*` metric documented in DESIGN.md exists in the
/// live registry, every registered one is documented, and all of them
/// follow the `magis_<crate>_<noun>` naming convention.
#[test]
fn design_doc_and_registry_agree_on_serve_metrics() {
    // Binding a server registers the full magis_serve_* family.
    let dir = scratch("parity");
    let (handle, join) = start(ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        ..ServeConfig::default()
    });

    let snap = default_registry().snapshot();
    let mut registered: Vec<String> = snap
        .counters
        .keys()
        .chain(snap.gauges.keys())
        .chain(snap.histograms.keys())
        .filter(|k| k.starts_with("magis_serve_"))
        .map(|k| k.split('{').next().unwrap().to_string())
        .collect();
    registered.sort();
    registered.dedup();
    assert!(!registered.is_empty(), "server registered no magis_serve_* metrics");

    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md");
    let mut documented: Vec<String> = design
        .split('`')
        .filter(|tok| {
            tok.starts_with("magis_serve_")
                && tok.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
        .map(str::to_string)
        .collect();
    documented.sort();
    documented.dedup();
    // The doc prose may mention event names etc.; the metric names are
    // exactly the backticked magis_serve_ tokens, so the sets must
    // coincide in both directions.
    for name in &registered {
        assert!(
            documented.contains(name),
            "metric {name} is registered but not documented in DESIGN.md"
        );
    }
    for name in &documented {
        assert!(
            registered.contains(name),
            "DESIGN.md documents {name}, but the server does not register it"
        );
    }
    // Naming convention: magis_<crate>_<noun>, lower-snake throughout.
    for name in &registered {
        let noun = name.strip_prefix("magis_serve_").unwrap();
        assert!(!noun.is_empty() && !noun.starts_with('_') && !noun.ends_with('_'), "{name}");
        assert!(
            name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
            "{name} is not lower-snake"
        );
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Frames streamed to a mid-flight `watch` subscriber are monotone in
/// candidates evaluated, non-increasing in incumbent peak memory, and
/// at least two arrive before the final result.
#[test]
fn watch_attaches_mid_flight_and_frames_are_monotone() {
    let dir = scratch("watch");
    let (handle, join) = start(ServeConfig {
        state_dir: dir.clone(),
        workers: 1,
        result_cache: 0,
        ..ServeConfig::default()
    });
    let addr = handle.addr().to_string();

    let mut submitter = Client::connect(&addr).expect("connect");
    let id = submitter.submit_nowait(&unet_spec(60)).expect("submit");

    // Attach AFTER the job is in flight, from a separate connection.
    let mut watcher = Client::connect(&addr).expect("watch connect");
    let mut snaps: Vec<(u64, u64, u64)> = Vec::new(); // (seq, evaluated, best_peak)
    let out = watcher
        .watch(id, |frame| {
            if frame.get("phase").is_some() {
                snaps.push((
                    frame.get("seq").and_then(Json::as_u64).expect("seq"),
                    frame.get("evaluated").and_then(Json::as_u64).expect("evaluated"),
                    frame.get("best_peak_bytes").and_then(Json::as_u64).expect("peak"),
                ));
            }
        })
        .expect("watch stream");
    let result = out.result.expect("job succeeded");
    assert_eq!(result.stop_reason, "eval-cap-reached", "deterministic stop");

    assert!(
        snaps.len() >= 2,
        "a watched job must stream at least two snapshot frames, got {}",
        snaps.len()
    );
    for w in snaps.windows(2) {
        assert!(w[1].0 > w[0].0, "seq strictly increases: {w:?}");
        assert!(w[1].1 >= w[0].1, "candidates evaluated is monotone: {w:?}");
        assert!(w[1].2 <= w[0].2, "incumbent peak never regresses: {w:?}");
    }
    // The last frame is the search's terminal snapshot and agrees with
    // the result bit-exactly.
    assert_eq!(snaps.last().unwrap().1, result.evaluated);
    assert_eq!(snaps.last().unwrap().2, result.peak_bytes);

    handle.shutdown();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A watcher that disconnects mid-stream neither stalls nor perturbs
/// the worker: the job's result is bit-identical with 0 watchers and
/// with 3 (one of which drops its socket right after the first frame).
#[test]
fn disconnected_watchers_do_not_perturb_the_result() {
    let run = |watchers: usize| -> JobResult {
        let dir = scratch(&format!("perturb{watchers}"));
        let (handle, join) = start(ServeConfig {
            state_dir: dir.clone(),
            workers: 1,
            result_cache: 0,
            ..ServeConfig::default()
        });
        let addr = handle.addr().to_string();
        let mut c = Client::connect(&addr).expect("connect");
        let id = c.submit_nowait(&unet_spec(40)).expect("submit");

        let mut joins = Vec::new();
        for w in 0..watchers {
            let addr = addr.clone();
            joins.push(thread::spawn(move || {
                if w == 0 {
                    // Rude watcher: ask for the stream, read the ack
                    // and at most one frame, then vanish.
                    let stream = TcpStream::connect(&addr).expect("connect");
                    let mut rd = BufReader::new(stream.try_clone().unwrap());
                    let mut s = stream;
                    writeln!(s, "{}", format_args!("{{\"cmd\":\"watch\",\"id\":{id}}}"))
                        .expect("send");
                    let mut line = String::new();
                    rd.read_line(&mut line).expect("ack");
                    line.clear();
                    let _ = rd.read_line(&mut line);
                    // dropping the socket here = mid-stream disconnect
                } else {
                    let mut w = Client::connect(&addr).expect("connect");
                    let _ = w.watch(id, |_| {});
                }
            }));
        }
        let result = wait_done(&addr, id);
        for j in joins {
            j.join().expect("watcher thread");
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        result
    };

    let alone = run(0);
    let watched = run(3);
    assert_eq!(alone.identity_key(), watched.identity_key());
    assert_eq!(alone.trajectory_digest, watched.trajectory_digest);
}
