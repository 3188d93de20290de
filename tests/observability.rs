//! Observability determinism and round-trip properties.
//!
//! The determinism contract: every count-type metric and the trace
//! event *identity set* are bit-identical between `threads = 1` and
//! `threads = 4` on a seeded, eval-capped search; only wall-time
//! measurements (histogram sums, `ts_us` / `dur_us` / `thread` /
//! `elapsed_us` / `eval_time_us`) may differ.
//!
//! The metrics registry and trace sink are process-global, so every
//! test that touches them serializes on [`obs_lock`].

use magis::core::budget::SearchBudget;
use magis::core::checkpoint::SearchCheckpoint;
use magis::core::optimizer::{resume, CheckpointPolicy, OptimizeResult, OptimizerStats};
use magis::obs::metrics::default_registry;
use magis::obs::trace::{self, BufferSink, TraceEvent};
use magis::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

struct Capture {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histogram_counts: BTreeMap<String, u64>,
    identities: Vec<String>,
    events: Vec<TraceEvent>,
    res: OptimizeResult,
}

/// One seeded, eval-capped search with a fresh registry and an
/// in-memory trace sink. The generous budget guarantees the cap — not
/// the clock — ends the search, so timing never steers the trajectory.
fn traced_run(threads: usize) -> Capture {
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let cfg = OptimizerConfig::new(Objective::MinMemory { lat_limit: init.eval.latency * 1.10 })
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(48)
        .with_threads(threads);
    default_registry().reset();
    let sink = Arc::new(BufferSink::new());
    trace::install(sink.clone());
    let res = optimize(tg.graph.clone(), &cfg);
    trace::uninstall();
    let events = sink.take();
    let mut identities: Vec<String> = events.iter().map(TraceEvent::identity).collect();
    identities.sort();
    let snap = default_registry().snapshot();
    Capture {
        counters: snap.counters,
        gauges: snap.gauges,
        histogram_counts: snap.histograms.iter().map(|(k, &(n, _))| (k.clone(), n)).collect(),
        identities,
        events,
        res,
    }
}

#[test]
fn count_metrics_and_trace_set_identical_across_threads() {
    let _g = obs_lock();
    let serial = traced_run(1);
    let parallel = traced_run(4);

    // Every counter — including the per-(family, outcome) labeled ones
    // — is bit-identical, and so is every histogram *count* (only the
    // wall-time sums may differ).
    assert_eq!(serial.counters, parallel.counters);
    assert_eq!(serial.histogram_counts, parallel.histogram_counts);

    // The searches did real, observable work.
    assert!(serial.counters["magis_core_expansions"] > 0);
    assert!(serial.counters["magis_core_evaluated"] > 0);
    assert!(serial.counters["magis_core_queue_pushes"] > 0);
    assert!(serial.counters.keys().any(|k| k.starts_with("magis_core_candidate_outcomes{")));

    // The trace identity multiset (everything except ts/dur/thread) is
    // identical: same spans, same events, same deterministic payloads.
    assert_eq!(serial.identities, parallel.identities);
    assert!(!serial.identities.is_empty());

    // The taxonomy is present: spans for expansion, candidate
    // evaluation, the seed evaluation and the final polish; a stop
    // event.
    for prefix in [
        "span:magis_core/expansion[",
        "span:magis_core/candidate_eval[",
        "span:magis_core/seed_eval[",
        "span:magis_core/polish[",
        "event:magis_core/stop[",
    ] {
        assert!(
            serial.identities.iter().any(|id| id.starts_with(prefix)),
            "missing trace records with prefix {prefix}"
        );
    }

    // One recorder: everything a search records comes from
    // `magis_core`; the libraries below it are pure and register no
    // series at all. (The registry is process-wide and keeps names
    // through a reset, so the serve test's may sit in it at zero.)
    for ev in &serial.events {
        assert_eq!(ev.target, "magis_core", "foreign trace record {}", ev.identity());
    }
    let names =
        serial.counters.keys().chain(serial.gauges.keys()).chain(serial.histogram_counts.keys());
    for name in names {
        assert!(
            name.starts_with("magis_core_") || name.starts_with("magis_serve_"),
            "a layer below the optimizer registered {name}"
        );
    }

    // And the search results themselves still agree (the instrumented
    // build keeps the PR-1 determinism guarantee).
    assert_eq!(serial.res.best.cost(), parallel.res.best.cost());
    assert_eq!(serial.res.stats.evaluated, parallel.res.stats.evaluated);
}

/// `OptimizerStats` is the ledger and the registry a projection of it:
/// after a search every [`OptimizerStats::PUBLISHED`] counter holds the
/// value of the field it is projected from — for a fresh search, and
/// cumulatively for one killed at a frontier checkpoint and resumed
/// (in a new process, so from an empty registry) — on 1 and 4 threads
/// alike. The table itself is the list of cases.
#[test]
fn published_counters_equal_the_stats_they_are_projected_from() {
    let _g = obs_lock();
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let cfg = |limit: usize, threads: usize| {
        OptimizerConfig::new(Objective::MinMemory { lat_limit: init.eval.latency * 1.10 })
            .with_budget(Duration::from_secs(3600))
            .with_threads(threads)
            .with_search_budget(SearchBudget::UNLIMITED.with_candidate_limit(limit))
    };
    let projected = |res: &OptimizeResult| {
        let mut counters = default_registry().snapshot().counters;
        for (name, field) in OptimizerStats::PUBLISHED {
            assert_eq!(counters[name], field(&res.stats) as u64, "{name}");
        }
        // Labeled series register on first use and stay, at zero,
        // through a reset: compare what the search moved.
        counters.retain(|_, v| *v > 0);
        counters
    };
    let path = std::env::temp_dir().join(format!("magis_obs_ledger_{}.ckpt", std::process::id()));
    let per_threads = [1, 4].map(|threads| {
        default_registry().reset();
        let policy = CheckpointPolicy::new(path.clone()).with_every(16).with_frontier(true);
        let killed = optimize(tg.graph.clone(), &cfg(40, threads).with_checkpoint(policy));
        let fresh = projected(&killed);
        assert!(fresh["magis_core_evaluated"] >= 40 && fresh["magis_core_checkpoints_written"] > 0);

        default_registry().reset();
        let ckpt = SearchCheckpoint::read_from(&path).expect("the final frontier checkpoint parses");
        let resumed = resume(&ckpt, &cfg(120, threads)).expect("resumes");
        let cumulative = projected(&resumed);
        assert!(resumed.stats.resumed && resumed.stats.evaluated >= 120);
        // The resumed run has no checkpoint policy: what it publishes
        // here is the count its checkpoint carried.
        assert!(cumulative["magis_core_checkpoints_written"] > 0);
        (fresh, cumulative)
    });
    let _ = std::fs::remove_file(&path);
    assert_eq!(per_threads[0], per_threads[1], "snapshots differ between 1 and 4 threads");
}

/// The service extends the determinism contract across its worker
/// pool: the same job set run under pools of 1 and 4 workers produces
/// bit-identical count metrics (counters + histogram counts) and the
/// same trace identity multiset — only wall-time measurements differ.
#[test]
fn serve_counts_and_trace_set_identical_across_worker_pools() {
    use magis::serve::{Client, JobSpec, ServeConfig, Server};

    struct ServeCapture {
        counters: BTreeMap<String, u64>,
        histogram_counts: BTreeMap<String, u64>,
        identities: Vec<String>,
        results: Vec<String>,
    }

    fn serve_run(workers: usize) -> ServeCapture {
        let dir = std::env::temp_dir()
            .join(format!("magis_obs_pool{workers}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        default_registry().reset();
        let sink = Arc::new(BufferSink::new());
        trace::install(sink.clone());

        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: dir.clone(),
            workers,
            result_cache: 0,
            ..ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle().expect("handle");
        let join = std::thread::spawn(move || server.run());

        // Three distinct deterministic jobs (candidate-cap stops), all
        // in flight at once so a 4-worker pool actually overlaps them.
        let mut c = Client::connect(handle.addr()).expect("connect");
        let ids: Vec<u64> = [24usize, 32, 40]
            .iter()
            .map(|&cap| {
                let spec = JobSpec {
                    workload: Some("unet".into()),
                    scale: 0.15,
                    max_candidates: Some(cap),
                    budget_ms: 3_600_000,
                    threads: 1,
                    ..JobSpec::default()
                };
                c.submit_nowait(&spec).expect("submit")
            })
            .collect();
        let mut results = Vec::new();
        for id in ids {
            loop {
                let st = c.status(id).expect("status");
                match st.get("state").and_then(magis::obs::json::Json::as_str) {
                    Some("done") => {
                        let r = magis::serve::JobResult::from_json(
                            st.get("result").expect("result"),
                        )
                        .expect("result parses");
                        results.push(r.identity_key());
                        break;
                    }
                    Some("failed") | Some("interrupted") => {
                        panic!("job {id} settled badly: {}", st.render())
                    }
                    _ => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
        trace::uninstall();

        let mut identities: Vec<String> =
            sink.take().iter().map(TraceEvent::identity).collect();
        identities.sort();
        let snap = default_registry().snapshot();
        let _ = std::fs::remove_dir_all(&dir);
        ServeCapture {
            counters: snap.counters,
            histogram_counts: snap
                .histograms
                .iter()
                .map(|(k, &(n, _))| (k.clone(), n))
                .collect(),
            identities,
            results,
        }
    }

    let _g = obs_lock();
    let single = serve_run(1);
    let pooled = serve_run(4);

    // Count metrics: every counter (serve + core, labeled included)
    // and every histogram count is bit-identical.
    assert_eq!(single.counters, pooled.counters);
    assert_eq!(single.histogram_counts, pooled.histogram_counts);
    assert_eq!(single.counters["magis_serve_jobs_accepted"], 3);
    assert_eq!(single.counters["magis_serve_jobs_completed"], 3);
    assert_eq!(single.counters["magis_serve_result_cache_misses"], 3);
    assert_eq!(single.histogram_counts["magis_serve_job_seconds"], 3);
    assert_eq!(single.histogram_counts["magis_serve_queue_wait_seconds"], 3);

    // Trace identity multiset: same supervision events (admitted /
    // queue_wait / run / job_done, each tagged job = id) and the same
    // per-job search records, regardless of pool size.
    assert_eq!(single.identities, pooled.identities);
    for prefix in [
        "event:magis_serve/admitted[",
        "span:magis_serve/queue_wait[",
        "span:magis_serve/run[",
        "event:magis_serve/job_done[",
        "event:magis_serve/drained",
        "span:magis_core/expansion[",
    ] {
        assert!(
            single.identities.iter().any(|id| id.starts_with(prefix)),
            "missing trace records with prefix {prefix}"
        );
    }

    // And the job results themselves are bit-identical.
    assert_eq!(single.results, pooled.results);
}

#[test]
fn trace_events_round_trip_through_jsonl() {
    let _g = obs_lock();
    let cap = traced_run(2);
    assert!(!cap.events.is_empty());
    for ev in &cap.events {
        let line = ev.to_jsonl();
        let back = TraceEvent::parse_line(&line)
            .unwrap_or_else(|e| panic!("line failed to parse back: {e}\n{line}"));
        // Full fidelity: identity AND the volatile envelope survive.
        assert_eq!(back.identity(), ev.identity());
        assert_eq!(back.ts_us, ev.ts_us);
        assert_eq!(back.dur_us, ev.dur_us);
        assert_eq!(back.thread, ev.thread);
    }
}

#[test]
fn timeline_is_deterministic_and_serializes() {
    let _g = obs_lock();
    let serial = traced_run(1);
    let parallel = traced_run(4);
    let (a, b) = (&serial.res.timeline, &parallel.res.timeline);

    // Per-expansion points: every field but the wall-clock one agrees.
    assert_eq!(a.points.len(), b.points.len());
    assert!(!a.points.is_empty());
    for (p, q) in a.points.iter().zip(&b.points) {
        assert_eq!(
            (p.expansion, p.evaluated, p.best_peak_bytes, p.frontier_size, p.pareto_size),
            (q.expansion, q.evaluated, q.best_peak_bytes, q.frontier_size, q.pareto_size)
        );
        assert_eq!(p.best_latency.to_bits(), q.best_latency.to_bits());
    }
    assert_eq!(a.points.last().unwrap().expansion, serial.res.stats.expanded as u64);

    // Pareto evolution and the final memory profile are identical.
    assert_eq!(a.pareto.len(), b.pareto.len());
    for (p, q) in a.pareto.iter().zip(&b.pareto) {
        assert_eq!(p.expansion, q.expansion);
        assert_eq!(p.points, q.points);
    }
    assert_eq!(a.memory_profile, b.memory_profile);
    assert!(!a.memory_profile.is_empty());

    // Per-family stats: all counts and deltas agree; only the measured
    // evaluation time may differ.
    assert_eq!(a.families.keys().collect::<Vec<_>>(), b.families.keys().collect::<Vec<_>>());
    let mut proposed = 0u64;
    for (fam, fa) in &a.families {
        let fb = &b.families[fam];
        assert_eq!(
            (fa.proposed, fa.accepted, fa.rejected, fa.mem_delta_bytes),
            (fb.proposed, fb.accepted, fb.rejected, fb.mem_delta_bytes),
            "family {fam}"
        );
        assert_eq!(fa.lat_delta.to_bits(), fb.lat_delta.to_bits(), "family {fam}");
        proposed += fa.proposed;
    }
    assert!(proposed > 0);

    // The whole timeline serializes to JSON that parses back.
    let text = a.to_json().render();
    let parsed = magis::obs::json::parse(&text).expect("timeline JSON parses");
    let pts = parsed.get("points").and_then(|j| j.as_arr()).expect("points array");
    assert_eq!(pts.len(), a.points.len());
}
