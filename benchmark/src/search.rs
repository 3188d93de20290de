//! Search workloads, untraced: timed repeats of
//! `magis_core::optimizer::optimize` to an evaluation cap, and the
//! correctness checks on what it returns.

use crate::report::Report;
use crate::stats::{beside, fastest, median, percentile, single};
use crate::workloads::{SearchSpec, LAT_FACTOR, MCTS_SEED};
use magis_core::optimizer::{
    optimize, Objective, OptimizeResult, OptimizerConfig, ProgressSink, ProgressSnapshot,
};
use magis_core::state::{EvalContext, MState};
use magis_graph::graph::Graph;
use magis_graph::GraphView;
use magis_obs::json::Json;
use magis_sim::MemObjective;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up rounds per run; `setup_s` is read from the fastest instance
/// of each of a round's parts.
pub const SETUP_ROUNDS: usize = 5;
/// The warm-up search of a set-up round runs to this share of the cap.
const WARMUP_CAP_DIVISOR: usize = 8;

/// A fresh evaluation context, as a caller of `optimize` would make.
pub fn eval_context(spec: &SearchSpec) -> EvalContext {
    EvalContext {
        mem_objective: spec.mem,
        ..EvalContext::default()
    }
}

/// What one set-up round produces: the model graph and the seed
/// state's cost, which fixes the latency limit and the target.
pub struct Prepared {
    pub graph: Graph,
    pub seed_peak: u64,
    pub seed_latency: f64,
}

impl Prepared {
    pub fn lat_limit(&self) -> f64 {
        self.seed_latency * LAT_FACTOR
    }
}

pub fn prepare(spec: &SearchSpec) -> Prepared {
    let graph = spec.model.build(spec.scale).graph;
    let init = MState::initial(graph.clone(), &eval_context(spec));
    let (seed_peak, seed_latency) = init.cost();
    Prepared {
        graph,
        seed_peak,
        seed_latency,
    }
}

pub fn config(spec: &SearchSpec, lat_limit: f64, eval_cap: usize) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::new(Objective::MinMemory { lat_limit })
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(eval_cap)
        .with_threads(spec.threads)
        .with_driver(spec.driver);
    cfg.ctx = eval_context(spec);
    cfg.seed = MCTS_SEED;
    cfg
}

/// Watches the search from outside: it reports a snapshot at every
/// expansion boundary (and one after the final polish), and this
/// stamps each with the benchmark's own clock.
struct StampSink {
    t0: Instant,
    /// `(seconds since t0, evaluated so far, incumbent objective peak)`.
    stamps: Mutex<Vec<(f64, u64, u64)>>,
}

impl ProgressSink for StampSink {
    fn report(&self, s: &ProgressSnapshot) {
        let peak = s.best_planned_peak_bytes.unwrap_or(s.best_peak_bytes);
        self.stamps
            .lock()
            .expect("sink mutex is never held across a panic")
            .push((self.t0.elapsed().as_secs_f64(), s.evaluated, peak));
    }
}

/// Everything two runs of the same deterministic search must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultKey {
    pub objective_peak: u64,
    pub liveness_peak: u64,
    pub latency_bits: u64,
    pub evaluated: usize,
    pub trajectory_digest: u64,
}

/// Digest of the timeline's deterministic fields (wall-clock stamps
/// left out).
fn trajectory_digest(res: &OptimizeResult) -> u64 {
    let mut buf = Vec::new();
    for p in &res.timeline.points {
        for x in [
            p.expansion,
            p.evaluated,
            p.best_peak_bytes,
            p.best_latency.to_bits(),
            p.frontier_size,
            p.pareto_size,
        ] {
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
    magis_serve::protocol::fnv1a(&buf)
}

pub fn result_key(res: &OptimizeResult) -> ResultKey {
    ResultKey {
        objective_peak: res.best.eval.objective_peak(),
        liveness_peak: res.best.eval.peak_bytes,
        latency_bits: res.best.eval.latency.to_bits(),
        evaluated: res.stats.evaluated,
        trajectory_digest: trajectory_digest(res),
    }
}

pub struct Timing {
    pub wall_s: f64,
    /// The call's wall time cut at every progress snapshot: one segment
    /// per search step (an expansion; last, the polish) and a final
    /// one from the last snapshot to the return. Sums to `wall_s`.
    pub segments_s: Vec<f64>,
    /// `(step index, evaluations)` of the first snapshot with the
    /// incumbent at or below the target.
    pub target_step: Option<(usize, u64)>,
}

/// One timed `optimize()` call: how long it took and what it returned.
pub struct Repeat {
    pub timing: Timing,
    pub result: OptimizeResult,
}

impl Timing {
    /// Seconds from the call to the snapshot that met the target.
    pub fn to_target_s(&self) -> Option<f64> {
        self.target_step
            .map(|(i, _)| self.segments_s[..=i].iter().sum())
    }
}

/// One timed `optimize()` call to `eval_cap`.
pub fn run_once(spec: &SearchSpec, prep: &Prepared, eval_cap: usize) -> Repeat {
    let mut cfg = config(spec, prep.lat_limit(), eval_cap);
    let graph = prep.graph.clone();
    let sink = Arc::new(StampSink {
        t0: Instant::now(),
        stamps: Mutex::new(Vec::new()),
    });
    cfg = cfg.with_progress(sink.clone());
    let result = std::hint::black_box(optimize(graph, &cfg));
    let wall_s = sink.t0.elapsed().as_secs_f64();
    let stamps = std::mem::take(&mut *sink.stamps.lock().expect("search has ended"));
    let target_peak = (prep.seed_peak as f64 * spec.target) as u64;
    let target_step = stamps
        .iter()
        .position(|s| s.2 <= target_peak)
        .map(|i| (i, stamps[i].1));
    let cuts: Vec<f64> = std::iter::once(0.0)
        .chain(stamps.iter().map(|s| s.0))
        .chain([wall_s])
        .collect();
    let segments_s = cuts.windows(2).map(|w| w[1] - w[0]).collect();
    Repeat {
        timing: Timing {
            wall_s,
            segments_s,
            target_step,
        },
        result,
    }
}

/// Each segment at its fastest over the repeats. The searches are
/// deterministic, so segment `k` is the same work in every repeat;
/// what differs is what else the box was doing at that moment, and
/// that only ever adds time. Repeats whose segments do not line up
/// (a determinism failure, reported elsewhere) leave the fastest
/// repeat's own segments.
fn fastest_segments(repeats: &[Timing]) -> Vec<f64> {
    let fastest = repeats
        .iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("at least one timed repeat");
    let mut best = fastest.segments_s.clone();
    if repeats.iter().all(|r| r.segments_s.len() == best.len()) {
        for r in repeats {
            for (b, s) in best.iter_mut().zip(&r.segments_s) {
                *b = b.min(*s);
            }
        }
    }
    best
}

/// Checks the incumbent against oracles that share no state with the
/// search: structural validation, the latency limit, and a
/// from-scratch profile, plan and simulation of the schedule it
/// reports, on an uncached cost model.
pub fn check_incumbent(report: &mut Report, spec: &SearchSpec, prep: &Prepared, best: &MState) {
    let (g, order) = (&best.eval.graph, &best.eval.order);
    report.check(g.validate().is_ok(), || {
        "incumbent graph fails Graph::validate".into()
    });
    report.check(best.base.validate().is_ok(), || {
        "incumbent base graph fails validate".into()
    });
    report.check(magis_sched::validate_schedule(g, order).is_ok(), || {
        "incumbent schedule fails validate_schedule".into()
    });
    report.check(best.eval.latency <= prep.lat_limit(), || {
        format!(
            "incumbent latency {} over the limit {}",
            best.eval.latency,
            prep.lat_limit()
        )
    });
    let profile = magis_sim::memory_profile_checked(g, order);
    report.check(
        profile
            .as_ref()
            .is_ok_and(|p| p.peak_bytes == best.eval.peak_bytes),
        || {
            format!(
                "reported peak {} differs from a from-scratch profile {:?}",
                best.eval.peak_bytes,
                profile.as_ref().map(|p| p.peak_bytes)
            )
        },
    );
    let ctx = eval_context(spec);
    let sim = magis_sim::simulate_checked(g, order, &ctx.cost());
    report.check(
        sim.as_ref()
            .is_ok_and(|t| t.total.to_bits() == best.eval.latency.to_bits()),
        || {
            format!(
                "reported latency {} differs from a from-scratch simulation {:?}",
                best.eval.latency,
                sim.as_ref().map(|t| t.total)
            )
        },
    );
    if spec.mem == MemObjective::Planned {
        let plan = magis_sim::memory_plan(g, order);
        report.check(
            plan.as_ref()
                .is_ok_and(|p| p.planned_peak_bytes == best.eval.objective_peak()),
            || {
                format!(
                    "reported planned peak {} differs from a from-scratch plan {:?}",
                    best.eval.objective_peak(),
                    plan.as_ref().map(|p| p.planned_peak_bytes)
                )
            },
        );
    }
}

/// `unet_small_mt2` must return what `unet_small` returns: the same
/// search run inline on one thread is the reference.
pub fn check_against_single_thread(
    report: &mut Report,
    spec: &SearchSpec,
    prep: &Prepared,
    key: &ResultKey,
) {
    if spec.threads > 1 {
        let single = run_once(
            &SearchSpec {
                threads: 1,
                ..*spec
            },
            prep,
            spec.eval_cap,
        );
        let single_key = result_key(&single.result);
        report.check(*key == single_key, || {
            format!(
                "{} threads returned {key:?}, one thread {single_key:?}",
                spec.threads
            )
        });
    }
}

pub fn run_untraced(spec: &SearchSpec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new(spec.name, false, seed, seconds);

    // Set-up: everything a caller pays before its first search — model
    // build, seed evaluation — plus a short warm-up search that touches
    // every layer the timed repeats use.
    let mut setup = Vec::new();
    let mut prepare_s = Vec::new();
    let mut warm_ups = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_ROUNDS {
        let t0 = Instant::now();
        let p = prepare(spec);
        prepare_s.push(t0.elapsed().as_secs_f64());
        warm_ups.push(run_once(spec, &p, spec.eval_cap / WARMUP_CAP_DIVISOR).timing);
        setup.push(t0.elapsed().as_secs_f64());
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up round");
    // Read like every other timing: each part of a round — the
    // preparation, then every step of the warm-up search — at its
    // fastest over the rounds.
    let setup_s = fastest(&prepare_s).median + fastest_segments(&warm_ups).iter().sum::<f64>();

    // Only the first repeat's result is kept: holding them all would
    // make peak memory depend on how many repeats fit in the run.
    let mut repeats: Vec<Timing> = Vec::new();
    let mut first: Option<(ResultKey, OptimizeResult)> = None;
    let t_run = Instant::now();
    while repeats.is_empty() || t_run.elapsed().as_secs_f64() < seconds {
        let rep = run_once(spec, &prep, spec.eval_cap);
        report.attempted += 1;
        let k = result_key(&rep.result);
        let identical = first.as_ref().is_none_or(|(first, _)| *first == k);
        report.check(identical, || format!("timed repeats differ: {k:?}"));
        if !identical || rep.timing.target_step.is_none() {
            report.failed += 1;
        }
        first.get_or_insert((k, rep.result));
        repeats.push(rep.timing);
    }
    let (key, result) = first.expect("at least one timed repeat");
    let first = &repeats[0];

    check_incumbent(&mut report, spec, &prep, &result.best);
    check_against_single_thread(&mut report, spec, &prep, &key);

    // Timings are read from the fastest instance of every search step
    // (see `fastest_segments`); what the whole repeats measured is
    // reported beside them as min, max and count.
    let segments = fastest_segments(&repeats);
    let wall_s: f64 = segments.iter().sum();
    let steps = &segments[..segments.len() - 1];
    let step_ms: Vec<f64> = steps.iter().map(|s| s * 1e3).collect();
    let to_target_s = first
        .target_step
        .map_or(wall_s, |(i, _)| segments[..=i].iter().sum());
    let evaluated = key.evaluated as f64;
    report.push("setup_s", beside(setup_s, &setup));
    report.push(
        "cands_per_s",
        beside(
            evaluated / wall_s,
            &repeats
                .iter()
                .map(|r| evaluated / r.wall_s)
                .collect::<Vec<_>>(),
        ),
    );
    report.push(
        "time_to_target_s",
        beside(
            to_target_s,
            &repeats
                .iter()
                .filter_map(Timing::to_target_s)
                .collect::<Vec<_>>(),
        ),
    );
    report.push(
        "peak_ratio",
        single(key.objective_peak as f64 / prep.seed_peak as f64),
    );
    // A request, for a search, is one search step: what a watcher, a
    // deadline or a cancel waits for.
    report.push("req_per_s", single(steps.len() as f64 / wall_s));
    report.push("req_p50_ms", single(median(&step_ms)));
    report.push("req_p95_ms", single(percentile(&step_ms, 95.0)));
    report.push("rss_peak_mb", single(crate::env::rss_peak_mb()));
    report.detail = vec![
        ("nodes".into(), Json::UInt(prep.graph.len() as u64)),
        ("seed_peak_bytes".into(), Json::UInt(prep.seed_peak)),
        ("best_peak_bytes".into(), Json::UInt(key.objective_peak)),
        (
            "best_latency_bits".into(),
            Json::Str(format!("{:016x}", key.latency_bits)),
        ),
        ("evaluated".into(), Json::UInt(key.evaluated as u64)),
        (
            "evals_to_target".into(),
            Json::UInt(first.target_step.map_or(0, |t| t.1)),
        ),
        (
            "trajectory_digest".into(),
            Json::Str(format!("{:016x}", key.trajectory_digest)),
        ),
        (
            "stop_reason".into(),
            Json::Str(result.stats.stop_reason.to_string()),
        ),
        (
            "repeat_wall_s".into(),
            Json::Arr(repeats.iter().map(|r| Json::Float(r.wall_s)).collect()),
        ),
    ];
    report
}
