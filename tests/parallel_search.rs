//! Determinism and thread-safety of the parallel M-Optimizer.
//!
//! The parallel candidate-evaluation layer must be invisible in the
//! results: `threads = 1` and `threads = N` run the same search
//! trajectory — identical incumbent, identical progress history,
//! identical counters — because candidates are sorted by a total
//! order before the fan-out and merged back in that order.
//!
//! The eval cap (`max_evals`) is small and the wall-clock budget is
//! generous, so neither run can time out mid-batch; timing is then the
//! only nondeterministic input and it never influences the trajectory.

use magis::core::driver::DriverKind;
use magis::core::optimizer::ParanoiaLevel;
use magis::prelude::*;
use magis_util::fault::{FaultPlan, FaultSite};
use std::time::Duration;

/// A capped, never-timing-out configuration.
fn capped(objective: Objective, threads: usize) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(60)
        .with_threads(threads)
}

/// Runs one workload under one objective with the given thread count
/// and returns everything the trajectory determines.
#[derive(Debug, PartialEq)]
struct Run {
    best: (u64, f64),
    history: Vec<(u64, f64)>,
    evaluated: usize,
    expanded: usize,
    candidates: usize,
    filtered: usize,
    /// Hardening and cache counters, and the quarantine strikes.
    rejections: [usize; 4],
    cache: [usize; 4],
    strikes: Vec<(u8, u32)>,
}

fn run(tg: &Graph, objective: Objective, threads: usize) -> Run {
    run_with(tg, &capped(objective, threads))
}

fn run_with(tg: &Graph, cfg: &OptimizerConfig) -> Run {
    let res = optimize(tg.clone(), cfg);
    assert_eq!(res.stats.threads, cfg.threads);
    let s = &res.stats;
    Run {
        best: res.best.cost(),
        history: res.history.iter().map(|p| (p.peak_bytes, p.latency)).collect(),
        evaluated: s.evaluated,
        expanded: s.expanded,
        candidates: s.candidates,
        filtered: s.filtered,
        rejections: [s.panicked, s.cost_rejections, s.invariant_rejections, s.quarantined_candidates],
        cache: [s.eval_cache_hits, s.eval_cache_misses, s.eval_cache_evictions, s.eval_cache_purged],
        strikes: s.quarantine_strikes.clone(),
    }
}

fn assert_identical(w: Workload, scale: f64) {
    let tg = w.build(scale);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let objectives = [
        Objective::MinMemory { lat_limit: init.eval.latency * 1.10 },
        Objective::MinLatency {
            mem_limit: (init.eval.peak_bytes as f64 * 0.8) as u64,
        },
    ];
    for objective in objectives {
        let serial = run(&tg.graph, objective, 1);
        let parallel = run(&tg.graph, objective, 4);
        assert_eq!(
            serial.best, parallel.best,
            "{}: best (peak_bytes, latency) must not depend on thread count",
            w.label()
        );
        assert_eq!(
            serial.history.len(),
            parallel.history.len(),
            "{}: incumbent-improvement history length must match",
            w.label()
        );
        assert_eq!(serial.history, parallel.history, "{}: history points", w.label());
        assert_eq!(serial.evaluated, parallel.evaluated, "{}: evaluated", w.label());
        assert_eq!(serial.expanded, parallel.expanded, "{}: expanded", w.label());
        assert_eq!(serial.candidates, parallel.candidates, "{}: candidates", w.label());
        assert_eq!(serial.filtered, parallel.filtered, "{}: filtered", w.label());
        assert!(serial.evaluated > 0, "{}: the capped search did real work", w.label());
    }
}

#[test]
fn unet_is_deterministic_across_thread_counts() {
    assert_identical(Workload::UNet, 0.15);
}

#[test]
fn bert_is_deterministic_across_thread_counts() {
    assert_identical(Workload::BertBase, 0.1);
}

#[test]
fn resnet_is_deterministic_across_thread_counts() {
    assert_identical(Workload::ResNet50, 0.1);
}

#[test]
fn repeated_parallel_runs_are_identical() {
    // Beyond serial-vs-parallel: the parallel path replayed twice must
    // agree with itself (no hidden iteration-order dependence).
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    let a = run(&tg.graph, obj, 4);
    let b = run(&tg.graph, obj, 4);
    assert_eq!(a.best, b.best);
    assert_eq!(a.history, b.history);
}

#[test]
fn capped_faulty_and_rollout_batches_share_one_fan_out() {
    // The eval cap lands mid-batch (UNet expands ~60 candidates at a
    // time) and a fault plan fails candidates before it: bad costs are
    // dropped, corrupted rewrites strike their rule family. Inline, the
    // hand-out stops at the cap; threaded, workers run past it and the
    // merge discards the excess of every outcome kind — results, stats
    // counters and strikes must not tell the two apart.
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    let plan = FaultPlan::new(0xfa17)
        .with_rate(FaultSite::NanCost, 0.15)
        .with_rate(FaultSite::CorruptRewrite, 0.15);
    let faulty = |threads: usize, driver: DriverKind, max_evals: usize| {
        capped(obj, threads)
            .with_max_evals(max_evals)
            .with_fault_plan(plan)
            .with_paranoia(ParanoiaLevel::All)
            .with_quarantine_threshold(50)
            .with_driver(driver)
    };
    let serial = run_with(&tg.graph, &faulty(1, DriverKind::Greedy, 100));
    assert_eq!(serial.evaluated, 100, "the cap, not the frontier, ended the search");
    assert!(serial.rejections[1] > 0 && serial.rejections[2] > 0, "faults fired before the cap");
    assert!(!serial.strikes.is_empty());
    assert!(
        serial.candidates > serial.evaluated + serial.rejections.iter().sum::<usize>(),
        "the cap truncated the last batch"
    );
    for threads in [2, 4] {
        assert_eq!(serial, run_with(&tg.graph, &faulty(threads, DriverKind::Greedy, 100)), "{threads} threads");
    }

    // MCTS: full-batch expansions fan out, rollout steps evaluate one
    // candidate of a generated batch inline — through the same closure
    // and the same merge.
    let serial = run_with(&tg.graph, &faulty(1, DriverKind::Mcts, 150));
    assert!(serial.candidates > 3 * serial.evaluated, "rollouts generated batches to evaluate one");
    assert!(serial.rejections[1] > 0 && serial.rejections[2] > 0);
    assert_eq!(serial, run_with(&tg.graph, &faulty(2, DriverKind::Mcts, 150)));
}

#[test]
fn concurrent_optimize_calls_share_a_graph() {
    // Two searches from different threads over the same model must not
    // interfere: `optimize` holds no global mutable state, and the
    // shared `Graph` is only read.
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    let g = &tg.graph;
    let (a, b) = std::thread::scope(|s| {
        let ha = s.spawn(move || run(g, obj, 2));
        let hb = s.spawn(move || run(g, obj, 2));
        (ha.join().expect("first search"), hb.join().expect("second search"))
    });
    assert_eq!(a.best, b.best);
    assert_eq!(a.history, b.history);
    assert_eq!(a.evaluated, b.evaluated);
}

#[test]
fn search_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Graph>();
    assert_send_sync::<MState>();
    assert_send_sync::<EvalContext>();
    assert_send_sync::<OptimizerConfig>();
    assert_send_sync::<magis::sim::PerfCache>();
}
