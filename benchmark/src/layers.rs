//! The traced run: per-layer metrics, each named after the crate it
//! measures. Times come from spans recorded around calls into the
//! crates' public functions; counts come from the public results of
//! those calls and from the process metric registry.

use crate::replay;
use crate::report::Report;
use crate::search::{self, Prepared};
use crate::serve;
use crate::spans::Recorder;
use crate::stats::{median, ratio, single, summarize, Summary};
use crate::workloads::{serve as traffic, SearchSpec, SERVE_MIXED, UNET_SMALL};
use magis_core::checkpoint::SearchCheckpoint;
use magis_core::optimizer::{CheckpointPolicy, OptimizeResult};
use magis_core::state::MState;
use magis_graph::GraphView;
use magis_obs::json::Json;
use magis_serve::JobSpec;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Samples of the calls that are made once per search, not once per
/// candidate.
const ONCE_SAMPLES: usize = 5;
/// The checkpoint layer is measured on a checkpoint the search itself
/// wrote: a short search with the daemon's policy (every 16
/// evaluations, frontier included).
const CKPT_EVALS: usize = 48;
const CKPT_EVERY: usize = 16;
/// Share of the traced run's seconds the candidate replay may take.
const REPLAY_SHARE: f64 = 0.5;
/// ... and the most rounds it repeats its sample for (bounds the trace).
const REPLAY_ROUNDS: usize = 6;

fn us(rec: &Recorder, name: &str) -> Summary {
    summarize(&rec.durations_us(name))
}

fn ms(rec: &Recorder, name: &str) -> Summary {
    let v: Vec<f64> = rec.durations_us(name).iter().map(|d| d / 1e3).collect();
    summarize(&v)
}

/// The `magis_sim` delta counters: reused and recomputed roots of the
/// delta profile, reused and re-placed allocations of the delta plan.
fn delta_counters() -> [u64; 4] {
    let snapshot = magis_obs::metrics::default_registry().snapshot();
    [
        "magis_sim_delta_reused_roots",
        "magis_sim_delta_dirty_roots",
        "magis_sim_plan_delta_reused_allocs",
        "magis_sim_plan_delta_replanned_allocs",
    ]
    .map(|name| snapshot.counters.get(name).copied().unwrap_or(0))
}

/// `models`, `graph`, `core` rules/state/checkpoint, `sched`, `sim`,
/// `obs`: everything measured on one model graph.
fn graph_layers(
    report: &mut Report,
    rec: &mut Recorder,
    spec: &SearchSpec,
    seconds: f64,
    out: &Path,
) -> Prepared {
    let ctx = search::eval_context(spec);

    // Once-per-search layers.
    for _ in 0..ONCE_SAMPLES {
        let g = rec.time("models.build", 0, || spec.model.build(spec.scale).graph);
        let record = rec.time("graph.record_encode", 0, || magis_graph::io::to_record(&g));
        let back = rec.time("graph.record_decode", 0, || {
            magis_graph::io::from_record(&record)
        });
        report.check(back.is_ok_and(|b| b.len() == g.len()), || {
            "the model graph's record does not decode back".into()
        });
        rec.time("sched.full_schedule", 0, || {
            magis_sched::full_schedule(&g, &ctx.sched)
        });
        rec.time("core.seed_eval", 0, || {
            MState::initial(g, &search::eval_context(spec))
        });
    }
    let prep = search::prepare(spec);
    report.push("models.build_ms", ms(rec, "models.build"));
    report.push("models.nodes", single(prep.graph.len() as f64));
    report.push("graph.record_encode_us", us(rec, "graph.record_encode"));
    report.push("graph.record_decode_us", us(rec, "graph.record_decode"));
    report.push("sched.full_schedule_ms", ms(rec, "sched.full_schedule"));
    report.push("core.seed_eval_ms", ms(rec, "core.seed_eval"));

    // Per-candidate layers: the replay.
    let delta_before = delta_counters();
    let seed_state = MState::initial(prep.graph.clone(), &ctx);
    // The same descent, round after round on a fresh context, for as
    // long as another round fits the replay's share of the run: the
    // sample is the same every round, the timings add up to steadier
    // medians.
    let t_replay = Instant::now();
    let mut c = replay::Counts::default();
    let mut next_id = 0;
    let (mut perf_hits, mut perf_misses) = (0, 0);
    let mut rounds = 0;
    let last = loop {
        let t_round = Instant::now();
        let round_ctx = search::eval_context(spec);
        let last = replay::run(
            rec,
            MState::initial(prep.graph.clone(), &round_ctx),
            &round_ctx,
            prep.lat_limit(),
            spec.replay_depth,
            &mut next_id,
            &mut c,
        );
        let (hits, misses) = round_ctx.perf.stats();
        perf_hits += hits;
        perf_misses += misses;
        rounds += 1;
        let next_round_ends = t_replay.elapsed() + t_round.elapsed();
        if rounds == REPLAY_ROUNDS || next_round_ends.as_secs_f64() > seconds * REPLAY_SHARE {
            break last;
        }
    };
    for m in &c.mismatches {
        report.check(false, || m.clone());
    }
    report.check(c.evaluated > 0, || {
        "the replay evaluated no candidate".into()
    });
    report.attempted += c.evaluated;
    report.failed += c.mismatches.len() as u64;
    let [reused_roots, dirty_roots, reused_allocs, replanned_allocs] = {
        let after = delta_counters();
        [0, 1, 2, 3].map(|i| after[i] - delta_before[i])
    };

    // Time of the stage spans directly under `core.staged`, against
    // the reference's: what the stages leave unexplained.
    let spans = rec.spans();
    let staged_children: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].name == "core.staged"))
        .map(|s| s.dur_us())
        .sum();
    let reference = rec.total_us("core.candidate");
    report.push("graph.hash_us", us(rec, "graph.hash"));
    report.push("graph.reach_us", us(rec, "graph.reach"));
    report.push("core.analyze_us", us(rec, "core.analyze"));
    report.push("core.generate_us", us(rec, "core.generate"));
    report.push("core.apply_us", us(rec, "core.apply"));
    report.push(
        "core.apply_fail_ratio",
        single(ratio(c.apply_failed as f64, c.candidates as f64)),
    );
    report.push("core.overlay_us", us(rec, "core.overlay"));
    report.push("core.candidate_us", us(rec, "core.candidate"));
    report.push(
        "core.stage_residual_ratio",
        single(ratio(reference - staged_children, reference)),
    );
    report.push("sched.incremental_us", us(rec, "sched.incremental"));
    report.push("sched.interval_us", us(rec, "sched.interval"));
    report.push("sched.partition_us", us(rec, "sched.partition"));
    // A candidate's window may fall into several pieces, each with its
    // own task and DP: these two are per candidate, summed over pieces.
    report.push(
        "sched.task_build_us",
        summarize(&rec.durations_per_req_us("sched.task_build")),
    );
    report.push(
        "sched.dp_us",
        summarize(&rec.durations_per_req_us("sched.dp")),
    );
    report.push(
        "sched.dp_states_per_cand",
        single(ratio(c.dp_states as f64, c.evaluated as f64)),
    );
    report.push("sched.window_nodes_p50", single(median(&c.windows)));
    report.push(
        "sched.carried_won_ratio",
        single(ratio(c.carried_won as f64, c.evaluated as f64)),
    );
    report.push("sched.place_swaps_us", us(rec, "sched.place_swaps"));
    report.push("sim.profile_full_us", us(rec, "sim.profile_full"));
    report.push("sim.profile_delta_us", us(rec, "sim.profile_delta"));
    report.push(
        "sim.delta_reused_root_ratio",
        single(ratio(
            reused_roots as f64,
            (reused_roots + dirty_roots) as f64,
        )),
    );
    report.push(
        "sim.delta_diverged_ratio",
        single(ratio(
            (c.delta_profile_diverged + c.delta_plan_diverged) as f64,
            c.evaluated as f64,
        )),
    );
    report.push("sim.simulate_us", us(rec, "sim.simulate"));
    report.push(
        "sim.perf_cache_hit_ratio",
        single(ratio(perf_hits as f64, (perf_hits + perf_misses) as f64)),
    );
    report.push("sim.plan_full_us", us(rec, "sim.plan_full"));
    report.push("sim.plan_delta_us", us(rec, "sim.plan_delta"));
    report.push(
        "sim.plan_reused_alloc_ratio",
        single(ratio(
            reused_allocs as f64,
            (reused_allocs + replanned_allocs) as f64,
        )),
    );

    // The final polish, on the state the descent ended in.
    for _ in 0..ONCE_SAMPLES {
        rec.time("core.polish", 0, || last.rescheduled(&ctx));
    }
    report.push("core.polish_ms", ms(rec, "core.polish"));

    checkpoint_layer(report, rec, spec, &prep, out);
    observability_layers(report, spec, &prep, &seed_state, out);
    report
        .detail
        .push(("replayed_candidates".into(), Json::UInt(c.evaluated)));
    prep
}

/// `core` checkpoint: encode, decode and restore of a checkpoint the
/// search wrote under the daemon's policy.
fn checkpoint_layer(
    report: &mut Report,
    rec: &mut Recorder,
    spec: &SearchSpec,
    prep: &Prepared,
    out: &Path,
) {
    let path = out.join(format!("ckpt-{}-{}.ckpt", spec.name, std::process::id()));
    let cfg = search::config(spec, prep.lat_limit(), CKPT_EVALS).with_checkpoint(
        CheckpointPolicy::new(&path)
            .with_every(CKPT_EVERY)
            .with_frontier(true),
    );
    magis_core::optimizer::optimize(prep.graph.clone(), &cfg);
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    let mut restored = false;
    for _ in 0..ONCE_SAMPLES {
        let Ok(ckpt) = rec.time("core.ckpt_decode", 0, || SearchCheckpoint::decode(&text)) else {
            break;
        };
        let again = rec.time("core.ckpt_encode", 0, || ckpt.encode());
        restored = again == text
            && rec
                .time("core.ckpt_restore", 0, || ckpt.restore_state(&cfg.ctx))
                .is_ok();
    }
    report.check(restored, || {
        "the search's checkpoint does not decode, re-encode and restore".into()
    });
    report.push("core.ckpt_encode_ms", ms(rec, "core.ckpt_encode"));
    report.push("core.ckpt_decode_ms", ms(rec, "core.ckpt_decode"));
    report.push("core.ckpt_restore_ms", ms(rec, "core.ckpt_restore"));
    report.push("core.ckpt_bytes", single(text.len() as f64));
}

/// `obs.trace_sink_slowdown`: the search at a quarter of the cap with
/// the program's own JSONL trace sink installed, against without.
/// `bench.trace_overhead_ratio`: this benchmark's replay with its span
/// recorder on, against off.
fn observability_layers(
    report: &mut Report,
    spec: &SearchSpec,
    prep: &Prepared,
    seed_state: &MState,
    out: &Path,
) {
    let cap = spec.eval_cap / 4;
    let sink_path = out.join(format!(
        "obs-sink-{}-{}.jsonl",
        spec.name,
        std::process::id()
    ));
    let (mut plain, mut traced) = (f64::MAX, f64::MAX);
    for _ in 0..2 {
        plain = plain.min(search::run_once(spec, prep, cap).timing.wall_s);
        match magis_obs::trace::JsonlSink::create(&sink_path) {
            Ok(sink) => {
                magis_obs::trace::install(Arc::new(sink));
                traced = traced.min(search::run_once(spec, prep, cap).timing.wall_s);
                magis_obs::trace::uninstall();
            }
            Err(e) => report.check(false, || format!("{}: {e}", sink_path.display())),
        }
    }
    let _ = std::fs::remove_file(&sink_path);
    report.push("obs.trace_sink_slowdown", single(ratio(traced, plain)));

    let ctx = search::eval_context(spec);
    let (mut off, mut on) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        for enabled in [false, true] {
            let mut probe = Recorder::new(enabled, Instant::now());
            let t0 = Instant::now();
            replay::run_seed_only(&mut probe, seed_state, &ctx, prep.lat_limit());
            let wall = t0.elapsed().as_secs_f64();
            if enabled {
                on = on.min(wall);
            } else {
                off = off.min(wall);
            }
        }
    }
    report.push("bench.trace_overhead_ratio", single(ratio(on, off)));
}

/// `core` search: exact counts and the optimizer's own phase clocks,
/// from one search's public result.
fn search_layer(report: &mut Report, res: &OptimizeResult, wall_s: f64, evals_to_target: u64) {
    let s = &res.stats;
    let (proposed, accepted) = res
        .timeline
        .families
        .values()
        .fold((0, 0), |(p, a), f| (p + f.proposed, a + f.accepted));
    let eval_wall = s.eval_wall_time.as_secs_f64();
    report.push("core.evaluated", single(s.evaluated as f64));
    report.push("core.expanded", single(s.expanded as f64));
    report.push("core.generated", single(s.candidates as f64));
    report.push(
        "core.dup_filtered_ratio",
        single(ratio(s.filtered as f64, s.evaluated as f64)),
    );
    report.push(
        "core.eval_cache_hit_ratio",
        single(ratio(
            s.eval_cache_hits as f64,
            (s.eval_cache_hits + s.eval_cache_misses) as f64,
        )),
    );
    report.push(
        "core.accept_ratio",
        single(ratio(accepted as f64, proposed as f64)),
    );
    report.push(
        "core.invariant_reject_ratio",
        single(ratio(s.invariant_rejections as f64, s.evaluated as f64)),
    );
    report.push("core.evals_to_target", single(evals_to_target as f64));
    report.push("core.trans_s", single(s.trans_time.as_secs_f64()));
    report.push("core.sched_sim_s", single(s.sched_sim_time.as_secs_f64()));
    report.push("core.hash_s", single(s.hash_time.as_secs_f64()));
    report.push("core.eval_wall_share", single(ratio(eval_wall, wall_s)));
    report.push("core.driver_overhead_s", single(wall_s - eval_wall));
}

/// `core` threads: the same search on one thread and on two. Measured
/// on the `unet_small` pair, whose subject it is; 0 (`None`) elsewhere.
fn thread_layer(report: &mut Report, pair: Option<(&SearchSpec, &Prepared)>) {
    let mut m = [0.0; 3];
    if let Some((spec, prep)) = pair {
        let best_of_two = |threads: usize| {
            let spec = SearchSpec { threads, ..*spec };
            let (a, b) = (
                search::run_once(&spec, prep, spec.eval_cap),
                search::run_once(&spec, prep, spec.eval_cap),
            );
            if a.timing.wall_s <= b.timing.wall_s {
                a
            } else {
                b
            }
        };
        let (one, two) = (best_of_two(1), best_of_two(2));
        let cpu = |r: &search::Repeat| {
            let s = &r.result.stats;
            (s.trans_time + s.sched_sim_time + s.hash_time).as_secs_f64()
        };
        report.check(
            search::result_key(&one.result) == search::result_key(&two.result),
            || "one and two threads return different results".into(),
        );
        m = [
            ratio(one.timing.wall_s, two.timing.wall_s),
            ratio(cpu(&two), cpu(&one)),
            1.0 - ratio(
                two.result.stats.eval_wall_time.as_secs_f64(),
                two.timing.wall_s,
            ),
        ];
    }
    report.push("core.mt_speedup", single(m[0]));
    report.push("core.mt_cpu_inflation", single(m[1]));
    report.push("core.mt_serial_share", single(m[2]));
}

const SERVE_METRICS: [&str; 9] = [
    "serve.ping_us",
    "serve.spec_codec_us",
    "serve.journal_admit_ms",
    "serve.journal_result_ms",
    "serve.submit_ack_ms",
    "serve.run_job_ms",
    "serve.optimize_ms",
    "serve.supervision_ms",
    "serve.rejected_ratio",
];

fn finish(report: &mut Report, rec: &Recorder, out: &Path) {
    let path = out.join(format!("trace-{}.jsonl", report.workload));
    if let Err(e) = rec.write_jsonl(&path) {
        report.check(false, || format!("writing {}: {e}", path.display()));
    }
    // A traced run with nothing to count still attempted its checks.
    report.attempted = report.attempted.max(1);
}

pub fn run_traced_search(spec: &SearchSpec, seed: u64, seconds: f64, out: &Path) -> Report {
    let mut report = Report::new(spec.name, true, seed, seconds);
    let mut rec = Recorder::new(true, Instant::now());
    let prep = graph_layers(&mut report, &mut rec, spec, seconds, out);

    let run = search::run_once(spec, &prep, spec.eval_cap);
    let to_target = run.timing.target_step;
    report.check(to_target.is_some(), || {
        "the search never reached its target".into()
    });
    search_layer(
        &mut report,
        &run.result,
        run.timing.wall_s,
        to_target.map_or(0, |t| t.1),
    );
    search::check_incumbent(&mut report, spec, &prep, &run.result.best);
    thread_layer(
        &mut report,
        (spec.model == UNET_SMALL.model).then_some((spec, &prep)),
    );
    for name in SERVE_METRICS {
        report.push(name, single(0.0));
    }
    finish(&mut report, &rec, out);
    report
}

pub fn run_traced_serve(seed: u64, seconds: f64, out: &Path) -> Report {
    let mut report = Report::new(SERVE_MIXED, true, seed, seconds);
    let mut rec = Recorder::new(true, Instant::now());
    // The search inside a request, on the job the requests send most
    // often in its plainest form: `unet` at scale 0.15.
    let spec = SearchSpec {
        name: SERVE_MIXED,
        replay_depth: 3,
        ..UNET_SMALL
    };
    graph_layers(&mut report, &mut rec, &spec, seconds, out);
    thread_layer(&mut report, None);
    if let Err(e) = serve_layer(&mut report, &mut rec, seed, out) {
        report.check(false, || e);
        report.failed += 1;
        for name in SERVE_METRICS.iter().chain(&SEARCH_METRICS) {
            if !report.metrics.iter().any(|m| m.name == *name) {
                report.push(name, single(0.0));
            }
        }
    }
    finish(&mut report, &rec, out);
    report
}

/// The `core` search metrics `search_layer` reports.
const SEARCH_METRICS: [&str; 13] = [
    "core.evaluated",
    "core.expanded",
    "core.generated",
    "core.dup_filtered_ratio",
    "core.eval_cache_hit_ratio",
    "core.accept_ratio",
    "core.invariant_reject_ratio",
    "core.evals_to_target",
    "core.trans_s",
    "core.sched_sim_s",
    "core.hash_s",
    "core.eval_wall_share",
    "core.driver_overhead_s",
];

/// `serve`: traced requests against a daemon — `submit_nowait` for the
/// ack, `watch` for the result — and, per distinct spec, the same job
/// run directly (`run_job`) and as a bare `optimize` with the job's
/// configuration but no checkpoint policy.
fn serve_layer(
    report: &mut Report,
    rec: &mut Recorder,
    seed: u64,
    out: &Path,
) -> Result<(), String> {
    let scratch = out.join(format!("serve-trace-{}", std::process::id()));
    let specs = serve::job_specs(seed);
    let daemon = serve::Daemon::start(scratch.join("state"))?;
    let epoch = Instant::now();

    // Traced requests: two closed-loop connections, as in the timed run.
    let per_connection = traffic::TRACED_REQUESTS / traffic::CONNECTIONS;
    let loops: Vec<_> = (0..traffic::CONNECTIONS)
        .map(|conn| {
            let mut client = daemon.connect()?;
            let specs = specs.clone();
            Ok(std::thread::spawn(move || {
                let mut rec = Recorder::new(true, epoch);
                let mut samples = Vec::new();
                let schedule = serve::Schedule::new(seed, conn);
                for (i, spec) in schedule.take(per_connection).enumerate() {
                    let id = (conn * per_connection + i) as u64;
                    rec.time("serve.ping", id, || client.ping().is_ok());
                    let t0 = Instant::now();
                    rec.open("serve.request", id);
                    let ack = rec.time("serve.submit_ack", id, || {
                        client.submit_nowait(&specs[spec])
                    });
                    let outcome = match ack {
                        Ok(job) => {
                            match rec.time("serve.wait_result", id, || client.watch(job, |_| {})) {
                                Ok(done) => done.result,
                                Err(e) => Err(e.to_string()),
                            }
                        }
                        Err(e) => Err(e.to_string()),
                    };
                    rec.close();
                    samples.push(serve::Sample {
                        spec,
                        latency_ms: t0.elapsed().as_secs_f64() * 1e3,
                        outcome,
                    });
                }
                (rec, samples)
            }))
        })
        .collect::<Result<_, String>>()?;
    let mut samples = Vec::new();
    let mut request_rec = Recorder::new(true, epoch);
    for l in loops {
        let (r, s) = l
            .join()
            .map_err(|_| "a client thread panicked".to_string())?;
        request_rec.merge(r);
        samples.extend(s);
    }
    daemon.stop()?;
    let rejected = samples.iter().filter(|s| s.outcome.is_err()).count();
    serve::check_samples(report, &specs, &samples, &scratch);

    // Per distinct spec: the job without the daemon, and its search
    // without the job.
    let mut run_job_ms = Vec::new();
    let mut optimize_ms = Vec::new();
    let mut unet_search = None;
    for (i, spec) in specs.iter().enumerate() {
        let mut job = Vec::new();
        let mut bare = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            serve::direct_result(spec, &scratch.join(format!("job-{i}")))?;
            job.push(t0.elapsed().as_secs_f64() * 1e3);
            let (res, wall_s) = serve::bare_optimize(spec)?;
            bare.push(wall_s * 1e3);
            if i == 0 {
                unet_search = Some((res, wall_s));
            }
        }
        run_job_ms.push(median(&job));
        optimize_ms.push(median(&bare));
    }
    let (res, wall_s) = unet_search.ok_or("no specs")?;
    search_layer(report, &res, wall_s, 0);

    // Journal writes and the spec codec, on the first spec.
    let journal = scratch.join("journal");
    let result = serve::direct_result(&specs[0], &scratch.join("job-0"))?;
    for i in 0..20u64 {
        let dir = rec
            .time("serve.journal_admit", i, || {
                magis_serve::journal::record_admission(&journal, i + 1, &specs[0])
            })
            .map_err(|e| format!("journal admission: {e}"))?;
        rec.time("serve.journal_result", i, || {
            magis_serve::journal::record_result(&dir, &result)
        })
        .map_err(|e| format!("journal result: {e}"))?;
        let back = rec.time("serve.spec_codec", i, || {
            Json::parse(&specs[0].to_json().render()).map(|j| JobSpec::from_json(&j))
        });
        report.check(matches!(&back, Ok(Ok(s)) if *s == specs[0]), || {
            "a job spec does not survive its own codec".into()
        });
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let by_request =
        |per_spec: &[f64]| -> Vec<f64> { samples.iter().map(|s| per_spec[s.spec]).collect() };
    let supervision: Vec<f64> = samples
        .iter()
        .map(|s| s.latency_ms - run_job_ms[s.spec])
        .collect();
    report.push("serve.ping_us", us(&request_rec, "serve.ping"));
    report.push("serve.spec_codec_us", us(rec, "serve.spec_codec"));
    report.push("serve.journal_admit_ms", ms(rec, "serve.journal_admit"));
    report.push("serve.journal_result_ms", ms(rec, "serve.journal_result"));
    report.push("serve.submit_ack_ms", ms(&request_rec, "serve.submit_ack"));
    report.push("serve.run_job_ms", summarize(&by_request(&run_job_ms)));
    report.push("serve.optimize_ms", summarize(&by_request(&optimize_ms)));
    report.push("serve.supervision_ms", summarize(&supervision));
    report.push(
        "serve.rejected_ratio",
        single(ratio(rejected as f64, samples.len() as f64)),
    );
    rec.merge(request_rec);
    Ok(())
}
