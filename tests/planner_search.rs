//! Search-level contract of the `planned` memory objective: paranoid
//! bit-identity on the bench models and thread-count determinism.
//!
//! Under `--objective planned` every evaluated candidate carries a
//! [`magis::sim::MemoryPlan`] and the search steers on its
//! `planned_peak_bytes` instead of the liveness sum. The two contracts
//! mirror `incremental_eval.rs` and `parallel_search.rs`:
//!
//! * **paranoia** — with [`ParanoiaLevel::All`] every incremental
//!   evaluation (windowed reschedule, then the profile and plan of the
//!   chosen order) is cross-checked against a full re-evaluation, and
//!   `invariant_rejections == 0` over a whole search proves the plan a
//!   candidate carries is the from-scratch `memory_plan` of its order
//!   on every candidate the search visited;
//! * **determinism** — the planned peak, fragmentation ratio, and the
//!   whole accepted-candidate history are bit-identical for
//!   `threads = 1` and `threads = 4`.

use magis::core::driver::DriverKind;
use magis::core::optimizer::ParanoiaLevel;
use magis::prelude::*;
use magis::sim::{memory_plan, MemObjective};
use std::time::Duration;

/// A capped, never-timing-out planned-objective configuration (same
/// shape as the parallel-search harness: timing must never influence
/// the trajectory).
fn capped_planned(objective: Objective, threads: usize) -> OptimizerConfig {
    let mut cfg = OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(60)
        .with_threads(threads);
    cfg.ctx.mem_objective = MemObjective::Planned;
    cfg
}

/// Runs a paranoid planned-objective search and asserts every
/// candidate's carried plan matched its full re-evaluation.
fn assert_planned_paranoid(w: Workload, scale: f64) {
    let tg = w.build(scale);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let cfg = capped_planned(
        Objective::MinMemory { lat_limit: init.eval.latency * 1.25 },
        2,
    )
    .with_paranoia(ParanoiaLevel::All);
    let res = optimize(tg.graph.clone(), &cfg);
    assert!(res.stats.evaluated > 0, "{w:?}: search evaluated candidates");
    assert_eq!(
        res.stats.invariant_rejections, 0,
        "{w:?}: every carried plan matched its from-scratch re-plan bit-for-bit"
    );
    let plan = res.best.eval.plan.as_ref().unwrap_or_else(|| {
        panic!("{w:?}: planned objective carries a memory plan on the incumbent")
    });
    assert!(plan.planned_peak_bytes > 0, "{w:?}: planned peak is finite and positive");
    assert!(
        plan.planned_peak_bytes >= plan.liveness_peak_bytes,
        "{w:?}: planned peak dominates liveness peak"
    );
    assert_eq!(
        plan.liveness_peak_bytes, res.best.eval.peak_bytes,
        "{w:?}: the plan's liveness peak is the evaluation's liveness peak"
    );
    assert_eq!(
        res.best.eval.objective_peak(),
        plan.planned_peak_bytes,
        "{w:?}: the search steers on the planned peak"
    );
    assert!(plan.fragmentation_ratio().is_finite(), "{w:?}: fragmentation ratio finite");
}

#[test]
fn planned_paranoid_on_unet() {
    assert_planned_paranoid(Workload::UNet, 0.15);
}

#[test]
fn planned_paranoid_on_bert() {
    assert_planned_paranoid(Workload::BertBase, 0.1);
}

#[test]
fn planned_paranoid_on_resnet() {
    assert_planned_paranoid(Workload::ResNet50, 0.1);
}

#[test]
fn planned_paranoid_on_vit() {
    assert_planned_paranoid(Workload::VitBase, 0.1);
}

/// Everything a planned-objective trajectory determines.
struct Run {
    best_planned: u64,
    best_liveness: u64,
    best_latency_bits: u64,
    fragmentation_bits: u64,
    history: Vec<(u64, u64)>,
    evaluated: usize,
    expanded: usize,
    cache_hits: usize,
    cache_misses: usize,
}

fn run(tg: &Graph, threads: usize) -> Run {
    let init = MState::initial(tg.clone(), &EvalContext::default());
    let cfg = capped_planned(
        Objective::MinMemory { lat_limit: init.eval.latency * 1.25 },
        threads,
    );
    let res = optimize(tg.clone(), &cfg);
    assert_eq!(res.stats.threads, threads);
    let plan = res.best.eval.plan.as_ref().expect("planned objective carries a plan");
    Run {
        best_planned: plan.planned_peak_bytes,
        best_liveness: res.best.eval.peak_bytes,
        best_latency_bits: res.best.eval.latency.to_bits(),
        fragmentation_bits: plan.fragmentation_ratio().to_bits(),
        history: res.history.iter().map(|p| (p.peak_bytes, p.latency.to_bits())).collect(),
        evaluated: res.stats.evaluated,
        expanded: res.stats.expanded,
        cache_hits: res.stats.eval_cache_hits,
        cache_misses: res.stats.eval_cache_misses,
    }
}

#[test]
fn planned_objective_is_deterministic_across_thread_counts() {
    let tg = Workload::UNet.build(0.15);
    let serial = run(&tg.graph, 1);
    let parallel = run(&tg.graph, 4);
    assert_eq!(serial.best_planned, parallel.best_planned, "planned peak identical");
    assert_eq!(serial.best_liveness, parallel.best_liveness, "liveness peak identical");
    assert_eq!(serial.best_latency_bits, parallel.best_latency_bits, "latency bit-identical");
    assert_eq!(
        serial.fragmentation_bits, parallel.fragmentation_bits,
        "fragmentation ratio bit-identical"
    );
    assert_eq!(
        serial.history, parallel.history,
        "accepted-candidate sequence identical (objective peaks + latency bits)"
    );
    assert_eq!(serial.evaluated, parallel.evaluated, "evaluated");
    assert_eq!(serial.expanded, parallel.expanded, "expanded");
    assert_eq!(serial.cache_hits, parallel.cache_hits, "cache hits");
    assert_eq!(serial.cache_misses, parallel.cache_misses, "cache misses");
    assert!(serial.evaluated > 0, "the capped search did real work");
}

#[test]
fn planned_and_liveness_objectives_are_independently_cached() {
    // Running the two objectives back-to-back over the same graph must
    // not let one mode's cached evaluations leak into the other: a
    // planned-mode incumbent always carries a plan, a liveness-mode
    // incumbent never does.
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    let planned = optimize(tg.graph.clone(), &capped_planned(obj, 2));
    let liveness = optimize(
        tg.graph.clone(),
        &OptimizerConfig::new(obj)
            .with_budget(Duration::from_secs(3600))
            .with_max_evals(60)
            .with_threads(2),
    );
    assert!(planned.best.eval.plan.is_some(), "planned search carries a plan");
    assert!(liveness.best.eval.plan.is_none(), "liveness search carries no plan");
    assert!(
        planned.best.eval.plan.as_ref().unwrap().planned_peak_bytes
            >= planned.best.eval.peak_bytes,
        "planned incumbent dominates its own liveness peak"
    );
}

#[test]
fn the_incumbent_keeps_its_whole_plan_under_either_driver() {
    // A search keeps the planned peak alone on the states it retains
    // that do not lead; the incumbent it returns keeps every placement,
    // and a paranoid search, which re-checks every candidate's plan
    // against a fresh one, rejects none.
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.25 };
    for driver in [DriverKind::Greedy, DriverKind::Mcts] {
        for threads in [1, 2] {
            for paranoia in [ParanoiaLevel::Incumbent, ParanoiaLevel::All] {
                let what = format!("{driver:?}, {threads} threads, {paranoia:?}");
                let cfg = capped_planned(obj, threads)
                    .with_max_evals(300)
                    .with_driver(driver)
                    .with_paranoia(paranoia);
                let res = optimize(tg.graph.clone(), &cfg);
                assert!(res.history.len() >= 2, "{what}: the incumbent improved");
                // Hits of states that did not lead: under `All` a hit
                // is re-checked, and must still carry its placements.
                assert!(res.stats.eval_cache_hits > 0, "{what}: the search hit its cache");
                let best = &res.best.eval;
                let full = memory_plan(&best.graph, &best.order).expect("the incumbent's order plans");
                assert!(best.plan.as_ref() == Some(&full), "{what}: the incumbent's plan is its order's whole plan");
                let rejected = (res.stats.invariant_rejections, res.stats.panicked);
                assert_eq!(rejected, (0, 0), "{what}: no check rejected or panicked on a state");
            }
        }
    }
}
