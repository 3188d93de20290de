//! `serve_mixed`: an in-process `magis_serve::Server` under closed-loop
//! load from two client connections, timed from `submit` send to
//! result frame.

use crate::report::Report;
use crate::stats::{beside, fastest, median, percentile, single};
use crate::workloads::serve::*;
use crate::workloads::SERVE_MIXED;
use magis_core::budget::{CancelToken, SearchBudget};
use magis_core::optimizer::{try_optimize, Objective, OptimizeResult, OptimizerConfig};
use magis_core::state::{EvalContext, MState};
use magis_models::{random_dnn, RandomDnnConfig};
use magis_obs::json::Json;
use magis_serve::job::{run_job, workload_by_name};
use magis_serve::{Client, JobResult, JobSpec, ServeConfig, Server, ServerHandle};
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Set-up rounds per run; `setup_s` is read from the fastest instance
/// of each of a round's parts.
const SETUP_ROUNDS: usize = 5;

/// The distinct job specs of a run: the named jobs, then the inline
/// graphs generated from the seed. The daemon only ever sees these.
pub fn job_specs(seed: u64) -> Vec<JobSpec> {
    let base = JobSpec {
        max_candidates: Some(MAX_CANDIDATES),
        budget_ms: 600_000,
        ..JobSpec::default()
    };
    let named = NAMED.iter().map(|&(w, scale)| JobSpec {
        workload: Some(w.to_string()),
        scale,
        ..base.clone()
    });
    let inline = (0..INLINE_GRAPHS as u64).map(|k| JobSpec {
        graph: Some(magis_graph::io::to_record(&random_dnn(
            &RandomDnnConfig {
                cells: INLINE_CELLS,
                ..RandomDnnConfig::default()
            },
            seed.wrapping_add(k),
        ))),
        ..base.clone()
    });
    named.chain(inline).collect()
}

/// Requests per schedule block.
pub const BLOCK: usize = INLINE_GRAPHS * INLINE_EVERY;

/// A connection's endless request order, as indices into
/// [`job_specs`]: blocks of 20 in which every fifth request is an
/// inline graph (each graph once per block) and the other sixteen are
/// the named jobs, four times each, freshly shuffled per block.
pub struct Schedule {
    rng: SmallRng,
    block: Vec<usize>,
}

impl Schedule {
    pub fn new(seed: u64, connection: usize) -> Schedule {
        let stream = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(connection as u64);
        Schedule {
            rng: SmallRng::seed_from_u64(stream),
            block: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let mut named = named_slots();
        for i in (1..named.len()).rev() {
            named.swap(i, self.rng.gen_range(0..=i));
        }
        let mut named = named.into_iter();
        // Reversed: `next` pops from the back.
        self.block = (0..BLOCK)
            .rev()
            .map(|i| match (i + 1) % INLINE_EVERY {
                0 => NAMED.len() + i / INLINE_EVERY,
                _ => named.next().expect("sixteen named slots per block"),
            })
            .collect();
    }
}

/// The named-job requests of one block, unshuffled: every named job
/// the same number of times.
fn named_slots() -> Vec<usize> {
    (0..BLOCK - INLINE_GRAPHS)
        .map(|i| i % NAMED.len())
        .collect()
}

/// What every block asks for, as indices into [`job_specs`], order
/// aside.
fn block_content() -> Vec<usize> {
    let inline = NAMED.len()..NAMED.len() + INLINE_GRAPHS;
    named_slots().into_iter().chain(inline).collect()
}

impl Iterator for Schedule {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

/// A running in-process daemon on its own state directory.
pub struct Daemon {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
    state_dir: PathBuf,
}

impl Daemon {
    pub fn start(state_dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&state_dir);
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".into(),
            state_dir: state_dir.clone(),
            workers: WORKERS,
            result_cache: 0, // every request runs a real search
            ..ServeConfig::default()
        })
        .map_err(|e| format!("binding the daemon: {e}"))?;
        let handle = server.handle().map_err(|e| format!("daemon handle: {e}"))?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            handle,
            thread,
            state_dir,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.handle.addr()).map_err(|e| format!("connecting: {e}"))
    }

    /// Drains the daemon, waits for its threads and removes its state.
    pub fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        let ran = self
            .thread
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.state_dir);
        ran.map_err(|e| format!("the daemon did not drain cleanly: {e}"))
    }
}

/// One request as the client saw it.
pub struct Sample {
    pub spec: usize,
    pub latency_ms: f64,
    /// The result, or why there is none (refused, failed, transport).
    pub outcome: Result<JobResult, String>,
}

pub fn request(client: &mut Client, specs: &[JobSpec], spec: usize) -> Sample {
    let t0 = Instant::now();
    let outcome = match client.submit_and_wait(&specs[spec]) {
        Ok(out) => out.result,
        Err(e) => Err(e.to_string()),
    };
    Sample {
        spec,
        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
        outcome,
    }
}

/// One set-up round: a cold daemon, its connections and the warm-up
/// requests (every distinct spec once, the `unet` job first).
struct Ready {
    daemon: Daemon,
    clients: Vec<Client>,
    /// The round's parts in seconds: state directory, bind and
    /// connects first, then each warm-up request. Part `k` is the same
    /// work in every round.
    parts_s: Vec<f64>,
}

fn set_up(state_dir: PathBuf, specs: &[JobSpec]) -> Result<Ready, String> {
    let mut t = Instant::now();
    let mut parts_s = Vec::new();
    let mut lap = || {
        let now = Instant::now();
        parts_s.push((now - t).as_secs_f64());
        t = now;
    };
    let daemon = Daemon::start(state_dir)?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()?;
    lap();
    for i in 0..specs.len() {
        let s = request(&mut clients[i % CONNECTIONS], specs, i);
        s.outcome
            .map_err(|e| format!("warm-up request {i} failed: {e}"))?;
        lap();
    }
    Ok(Ready {
        daemon,
        clients,
        parts_s,
    })
}

/// `rss_peak_mb`: the process's peak memory with every worker of a
/// warmed-up daemon on the largest job of the mix at once. One copy of
/// the job per connection keeps every worker busy with it. How far
/// their transient allocations overlap is chance, but the peak is a
/// running maximum, so a few repeats bring it to its ceiling (over
/// twenty runs each, one repeat: 22.2-25.9 MiB; four: 25.3-26.3 but for
/// one run; eight: 25.5-26.2).
///
/// Without the probe the reading is chance: every worker thread has its
/// own allocator arena, sized by the largest job it happened to take,
/// and the warm-up alone leaves 18.7 or 22.0 MiB behind.
fn peak_memory_mb(clients: &mut [Client], specs: &[JobSpec]) -> Result<f64, String> {
    for _ in 0..RSS_PROBE_REPEATS {
        let jobs = clients
            .iter_mut()
            .map(|c| c.submit_nowait(&specs[LARGEST]))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("memory probe: {e}"))?;
        for (client, job) in clients.iter_mut().zip(jobs) {
            let done = client.watch(job, |_| {});
            done.map_err(|e| format!("memory probe: {e}"))?
                .result
                .map_err(|e| format!("memory probe: {e}"))?;
        }
    }
    Ok(crate::env::rss_peak_mb())
}

/// Element-wise minimum of equally long rows.
fn fastest_parts(rows: &[Vec<f64>]) -> Vec<f64> {
    let mut best = rows[0].clone();
    for row in rows {
        for (b, x) in best.iter_mut().zip(row) {
            *b = b.min(*x);
        }
    }
    best
}

/// A fresh evaluation context on the default backend, as `run_job`
/// makes for a spec that names none.
fn default_context(spec: &JobSpec) -> EvalContext {
    let registry = magis_sim::BackendRegistry::builtin();
    let backend = registry
        .get(magis_sim::DEFAULT_BACKEND)
        .expect("the default backend is built in");
    let mut ctx = EvalContext::for_backend(backend);
    ctx.mem_objective = spec.objective;
    ctx
}

/// Seed-state objective peak of a named job, for `peak_ratio`.
fn seed_peak(spec: &JobSpec) -> Result<u64, String> {
    let name = spec.workload.as_deref().ok_or("not a named job")?;
    let graph = workload_by_name(name)?.build(spec.scale).graph;
    Ok(MState::initial(graph, &default_context(spec)).cost().0)
}

/// The reference result of a spec: the same job run directly, with no
/// daemon, socket or journal replay in between.
pub fn direct_result(spec: &JobSpec, dir: &Path) -> Result<JobResult, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let r = run_job(spec, dir, CancelToken::new(), None);
    let _ = std::fs::remove_dir_all(dir);
    r
}

/// The search a job runs, without the job: the spec's graph, seed
/// evaluation and `optimize` under the configuration `run_job` builds,
/// minus the checkpoint policy and the cancel token. Returns the result
/// and the wall time of the whole.
pub fn bare_optimize(spec: &JobSpec) -> Result<(OptimizeResult, f64), String> {
    let t0 = Instant::now();
    let graph = match (&spec.workload, &spec.graph) {
        (Some(name), _) => workload_by_name(name)?.build(spec.scale).graph,
        (None, Some(record)) => magis_graph::io::from_record(record).map_err(|e| e.to_string())?,
        (None, None) => return Err("a job needs either 'workload' or 'graph'".into()),
    };
    let ctx = default_context(spec);
    let init = MState::try_initial(graph.clone(), &ctx).map_err(|e| e.to_string())?;
    let mut budget = SearchBudget::UNLIMITED;
    if let Some(n) = spec.max_candidates {
        budget = budget.with_candidate_limit(n);
    }
    let lat_limit = init.cost().1 * spec.limit.unwrap_or(crate::workloads::LAT_FACTOR);
    let mut cfg = OptimizerConfig::new(Objective::MinMemory { lat_limit })
        .with_budget(Duration::from_millis(spec.budget_ms))
        .with_threads(spec.threads)
        .with_search_budget(budget);
    cfg.ctx = default_context(spec);
    let res = try_optimize(graph, &cfg).map_err(|e| e.to_string())?;
    Ok((res, t0.elapsed().as_secs_f64()))
}

/// Every result served for a spec must carry the direct run's
/// `identity_key()`. Counts the requests that failed or disagreed.
pub fn check_samples(
    report: &mut Report,
    specs: &[JobSpec],
    samples: &[Sample],
    scratch: &Path,
) -> Vec<Option<JobResult>> {
    let direct: Vec<Option<JobResult>> = specs
        .iter()
        .enumerate()
        .map(
            |(i, spec)| match direct_result(spec, &scratch.join(format!("direct-{i}"))) {
                Ok(r) => Some(r),
                Err(e) => {
                    report.check(false, || format!("direct run_job of spec {i} failed: {e}"));
                    None
                }
            },
        )
        .collect();
    for s in samples {
        report.attempted += 1;
        let want = direct[s.spec].as_ref().map(JobResult::identity_key);
        match &s.outcome {
            Ok(r) if Some(r.identity_key()) == want => {}
            Ok(r) => {
                report.failed += 1;
                report.check(false, || {
                    format!(
                        "spec {} served {} but runs directly to {want:?}",
                        s.spec,
                        r.identity_key()
                    )
                });
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("request for spec {} failed: {e}", s.spec));
            }
        }
    }
    direct
}

/// What one connection's closed loop recorded: its requests and the
/// duration of each whole block of them.
struct ConnectionRun {
    samples: Vec<Sample>,
    block_s: Vec<f64>,
}

pub fn run_untraced(seed: u64, seconds: f64, out: &Path) -> Report {
    let mut report = Report::new(SERVE_MIXED, false, seed, seconds);
    match run_untraced_inner(&mut report, seed, seconds, out) {
        Ok(()) => {}
        Err(e) => {
            // Nothing could be measured: one attempted operation, failed.
            report.attempted = report.attempted.max(1);
            report.failed = report.attempted;
            report.check(false, || e);
        }
    }
    report
}

fn run_untraced_inner(
    report: &mut Report,
    seed: u64,
    seconds: f64,
    out: &Path,
) -> Result<(), String> {
    let scratch = out.join(format!("serve-state-{}", std::process::id()));
    let specs = job_specs(seed);

    let mut rounds = Vec::new();
    let mut ready = None;
    // Peak memory is read in the first round. Later it also depends on
    // which threads of which round's daemon reused which allocator
    // arena (36-47 MiB after the fifth round) and on the run's
    // throughput (the daemon keeps every job it served).
    let mut rss_mb = 0.0;
    for round in 0..SETUP_ROUNDS {
        if let Some(Ready { daemon, .. }) = ready.take() {
            daemon.stop()?;
        }
        let mut r = set_up(scratch.join(format!("round-{round}")), &specs)?;
        rounds.push(r.parts_s.clone());
        if round == 0 {
            rss_mb = peak_memory_mb(&mut r.clients, &specs)?;
        }
        ready = Some(r);
    }
    let Ready {
        daemon, clients, ..
    } = ready.expect("at least one set-up round");

    // The closed loops. A connection's requests come in blocks of
    // twenty with the same content in shuffled order (see `Schedule`),
    // so a block is to this workload what a repeat is to a search.
    let t_run = Instant::now();
    let loops: Vec<JoinHandle<ConnectionRun>> = clients
        .into_iter()
        .enumerate()
        .map(|(conn, mut client)| {
            let specs = specs.clone();
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                let mut block_s = Vec::new();
                let mut schedule = Schedule::new(seed, conn);
                'run: loop {
                    let t_block = Instant::now();
                    for _ in 0..BLOCK {
                        // At least one whole block, however short the run.
                        if !block_s.is_empty() && t_run.elapsed().as_secs_f64() >= seconds {
                            break 'run;
                        }
                        let spec = schedule.next().expect("the schedule is endless");
                        samples.push(request(&mut client, &specs, spec));
                    }
                    block_s.push(t_block.elapsed().as_secs_f64());
                }
                ConnectionRun { samples, block_s }
            })
        })
        .collect();
    let mut per_connection = Vec::new();
    for l in loops {
        let run = l
            .join()
            .map_err(|_| "a client thread panicked".to_string())?;
        per_connection.push((run.samples, run.block_s));
    }
    let wall_s = t_run.elapsed().as_secs_f64();
    daemon.stop()?;

    let block_s_json: Vec<Json> = per_connection
        .iter()
        .map(|(_, b)| Json::Arr(b.iter().map(|&x| Json::Float(x)).collect()))
        .collect();
    let raw: Vec<Json> = per_connection
        .iter()
        .map(|(samples, _)| {
            let pairs = samples
                .iter()
                .map(|s| Json::Arr(vec![Json::UInt(s.spec as u64), Json::Float(s.latency_ms)]));
            Json::Arr(pairs.collect())
        })
        .collect();
    let samples: Vec<Sample> = per_connection.into_iter().flat_map(|(s, _)| s).collect();

    let direct = check_samples(report, &specs, &samples, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);

    // Result quality over the named jobs only: their seed peaks do not
    // depend on `--seed`, so the figure compares across seeds.
    let mut log_ratio = 0.0;
    for (spec, result) in specs.iter().zip(&direct).take(NAMED.len()) {
        let result = result.as_ref().ok_or("a named job has no direct result")?;
        log_ratio += (result.peak_bytes as f64 / seed_peak(spec)? as f64).ln();
    }

    // Every timing is read from the fastest each distinct job was
    // served, for the reason a search's are read from its fastest
    // steps: a job is the same work every time it is asked for
    // (checked above: one identity key per spec), and the box's other
    // tenants only ever add time to some. The figures are those of one
    // block of the mix at these latencies on every connection; what the
    // whole run measured is in the output file.
    let latencies: Vec<Vec<f64>> = (0..specs.len())
        .map(|i| {
            let of_spec = samples.iter().filter(|s| s.spec == i);
            of_spec.map(|s| s.latency_ms).collect()
        })
        .collect();
    let fastest_ms: Vec<f64> = latencies.iter().map(|l| fastest(l).median).collect();
    let block = block_content();
    let block_ms: Vec<f64> = block.iter().map(|&i| fastest_ms[i]).collect();
    let block_s = block_ms.iter().sum::<f64>() / 1e3;
    let block_evaluated: u64 = block
        .iter()
        .map(|&i| direct[i].as_ref().map_or(0, |r| r.evaluated))
        .sum();
    let setup_parts = fastest_parts(&rounds);
    let round_s = |parts: &[f64]| parts.iter().sum::<f64>();
    let totals = |from: usize| -> Vec<f64> { rounds.iter().map(|r| round_s(&r[from..])).collect() };

    let all_ms: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    report.push("setup_s", beside(round_s(&setup_parts), &totals(0)));
    report.push(
        "cands_per_s",
        single((CONNECTIONS as u64 * block_evaluated) as f64 / block_s),
    );
    // First submit to a cold daemon until it has answered one job of
    // every kind: the warm-up requests, bind and connect left out.
    report.push(
        "time_to_target_s",
        beside(round_s(&setup_parts[1..]), &totals(1)),
    );
    report.push("peak_ratio", single((log_ratio / NAMED.len() as f64).exp()));
    report.push("req_per_s", single((CONNECTIONS * BLOCK) as f64 / block_s));
    report.push("req_p50_ms", single(median(&block_ms)));
    report.push("req_p95_ms", single(percentile(&block_ms, 95.0)));
    report.push("rss_peak_mb", single(rss_mb));
    let per_spec = latencies
        .iter()
        .zip(&fastest_ms)
        .map(|(l, &fastest)| {
            Json::Obj(vec![
                ("requests".into(), Json::UInt(l.len() as u64)),
                ("fastest_ms".into(), Json::Float(fastest)),
                ("p50_ms".into(), Json::Float(median(l))),
            ])
        })
        .collect();
    report.detail = vec![
        ("requests".into(), Json::UInt(samples.len() as u64)),
        (
            "whole_run_req_per_s".into(),
            Json::Float(samples.len() as f64 / wall_s),
        ),
        ("whole_run_p50_ms".into(), Json::Float(median(&all_ms))),
        (
            "whole_run_p95_ms".into(),
            Json::Float(percentile(&all_ms, 95.0)),
        ),
        ("per_spec".into(), Json::Arr(per_spec)),
        ("block_s".into(), Json::Arr(block_s_json)),
        ("samples".into(), Json::Arr(raw)),
    ];
    Ok(())
}
