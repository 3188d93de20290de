//! Unit tests of the M-Optimizer as a whole.

use super::candidate::{evaluate_candidate, Evaluated, Reject, Verdict};
use super::engine::{strike_family, Engine, Quarantine};
use super::*;
use crate::checkpoint::SearchCheckpoint;
use crate::driver::DriverKind;
use crate::eval_cache::EvalCache;
use crate::pareto::ParetoSet;
use crate::rules::{self, Transform};
use crate::state::{EvalContext, MState};
use magis_util::fault::{FaultPlan, FaultSite};
use magis_graph::graph::Graph;
use magis_sim::{memory_plan, MemObjective};
use std::sync::Arc;
use std::time::{Duration, Instant};
use magis_graph::builder::GraphBuilder;
use magis_graph::grad::{append_backward, TrainOptions};
use magis_graph::tensor::DType;

fn train_mlp(depth: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let mut cur = b.input([256, 128], "x");
    for i in 0..depth {
        let w = b.weight([128, 128], &format!("w{i}"));
        let h = b.matmul(cur, w);
        cur = b.gelu(h);
    }
    let wl = b.weight([128, 16], "wl");
    let logits = b.matmul(cur, wl);
    let y = b.label([256], "y");
    let loss = b.cross_entropy(logits, y);
    append_backward(b.finish(), loss, &TrainOptions::default()).unwrap().graph
}

fn quick_cfg(objective: Objective) -> OptimizerConfig {
    OptimizerConfig::new(objective)
        .with_budget(Duration::from_secs(20))
        .with_max_evals(400)
}

#[test]
fn memory_mode_reduces_peak_within_latency_budget() {
    let g = train_mlp(4);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let cfg = quick_cfg(Objective::MinMemory { lat_limit: init.eval.latency * 1.10 });
    let res = optimize(g, &cfg);
    assert!(
        res.best.eval.peak_bytes < init.eval.peak_bytes,
        "optimizer reduces peak: {} vs {}",
        res.best.eval.peak_bytes,
        init.eval.peak_bytes
    );
    assert!(res.best.eval.latency <= init.eval.latency * 1.10 * 1.0001);
    assert!(res.stats.evaluated > 0);
    assert!(res.history.len() >= 2, "incumbent improved at least once");
}

#[test]
fn optimize_from_an_evaluated_seed_equals_optimize() {
    // Every deterministic field of the result: the incumbent's
    // graphs, tree, schedule and cost bits, the improvement
    // history, and the timeline without its wall-clock fields.
    fn fingerprint(r: &OptimizeResult) -> String {
        use magis_graph::io::to_record;
        let tree: Vec<_> = r.best.ftree.nodes().iter().map(|n| (&n.spec, n.parent, n.level)).collect();
        let history: Vec<_> = r.history.iter().map(|p| (p.peak_bytes, p.latency.to_bits())).collect();
        let points: Vec<_> = r
            .timeline
            .points
            .iter()
            .map(|p| (p.expansion, p.evaluated, p.best_peak_bytes, p.best_latency.to_bits(), p.frontier_size, p.pareto_size))
            .collect();
        let families: Vec<_> = r
            .timeline
            .families
            .iter()
            .map(|(k, f)| (k, f.proposed, f.accepted, f.rejected, f.mem_delta_bytes, f.lat_delta.to_bits()))
            .collect();
        format!(
            "{} | {} | {tree:?} | {:?} | {:?} | {history:?} | {points:?} | {:?} | {families:?} | {:?} | {} {} {} {}",
            to_record(&r.best.base),
            to_record(&r.best.eval.graph),
            r.best.eval.order,
            (r.best.eval.peak_bytes, r.best.eval.latency.to_bits()),
            r.timeline.pareto,
            r.timeline.memory_profile,
            r.stats.expanded,
            r.stats.evaluated,
            r.stats.candidates,
            r.stats.analyses,
        )
    }
    let g = train_mlp(4);
    let seed = MState::initial(g.clone(), &EvalContext::default());
    let objective = Objective::MinMemory { lat_limit: seed.eval.latency * 1.10 };
    for driver in [DriverKind::Greedy, DriverKind::Mcts] {
        let cfg = quick_cfg(objective).with_max_evals(150).with_driver(driver);
        let from_graph = optimize(g.clone(), &cfg);
        let from_seed = optimize_from(seed.clone(), &cfg);
        assert_eq!(fingerprint(&from_seed), fingerprint(&from_graph), "{driver:?}");
        assert!(from_seed.stats.analyses > 0 && from_seed.stats.analyze_time > Duration::ZERO);
    }
}

#[test]
fn latency_mode_respects_memory_limit() {
    let g = train_mlp(4);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let limit = (init.eval.peak_bytes as f64 * 0.8) as u64;
    let cfg = quick_cfg(Objective::MinLatency { mem_limit: limit });
    let res = optimize(g, &cfg);
    assert!(
        res.best.eval.peak_bytes <= limit,
        "memory constraint met: {} <= {limit}",
        res.best.eval.peak_bytes
    );
}

#[test]
fn progress_snapshots_are_deterministic_across_thread_counts() {
    struct Collect(std::sync::Mutex<Vec<ProgressSnapshot>>);
    impl ProgressSink for Collect {
        fn report(&self, snap: &ProgressSnapshot) {
            self.0.lock().unwrap().push(snap.clone());
        }
    }
    let g = train_mlp(3);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    let run = |threads: usize| {
        let sink = Arc::new(Collect(std::sync::Mutex::new(Vec::new())));
        let cfg = quick_cfg(obj)
            .with_max_evals(60)
            .with_threads(threads)
            .with_progress(sink.clone());
        let res = optimize(g.clone(), &cfg);
        let snaps = sink.0.lock().unwrap().clone();
        (res, snaps)
    };
    let (res1, snaps1) = run(1);
    let (res4, snaps4) = run(4);
    assert!(snaps1.len() >= 2, "at least one boundary + the final snapshot");
    assert_eq!(snaps1, snaps4, "snapshot sequences are bit-identical");
    assert_eq!(res1.best.eval.peak_bytes, res4.best.eval.peak_bytes);
    // Snapshots are ordered: evaluated counts never decrease, the
    // incumbent objective never worsens, and the last is terminal.
    for w in snaps1.windows(2) {
        assert!(w[1].evaluated >= w[0].evaluated);
        assert!(w[1].best_peak_bytes <= w[0].best_peak_bytes);
    }
    assert_eq!(snaps1.last().unwrap().phase, "done");
    assert_eq!(snaps1.last().unwrap().best_peak_bytes, res1.best.eval.peak_bytes);
}

#[test]
fn hash_filter_counts_duplicates() {
    let g = train_mlp(3);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let cfg = quick_cfg(Objective::MinMemory { lat_limit: init.eval.latency * 1.5 });
    let res = optimize(g, &cfg);
    // Inverse rules (de-remat after remat etc.) guarantee revisits.
    assert!(res.stats.filtered > 0, "hash test filters duplicates");
}

#[test]
fn naive_fission_is_no_better() {
    let g = train_mlp(4);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    let smart = optimize(g.clone(), &quick_cfg(obj));
    let mut cfg = quick_cfg(obj);
    cfg.naive_fission = true;
    let naive = optimize(g, &cfg);
    // At toy scale random fission can get lucky within the eval
    // budget; the full ablation (Fig. 13) runs at realistic scale.
    // Here we only require the guided search to be competitive.
    assert!(
        smart.best.eval.peak_bytes as f64 <= naive.best.eval.peak_bytes as f64 * 1.15,
        "analysis-guided fission is competitive with random fission: {} vs {}",
        smart.best.eval.peak_bytes,
        naive.best.eval.peak_bytes
    );
}

#[test]
fn objective_keys_and_dominance() {
    let obj = Objective::MinLatency { mem_limit: 100 };
    // Below the limit, memory is saturated: latency decides.
    assert!(obj.better_than((80, 1.0), (90, 2.0), 1.0));
    assert!(!obj.better_than((80, 2.0), (90, 1.0), 1.0));
    // Above the limit, memory decides first.
    assert!(obj.better_than((120, 9.0), (150, 1.0), 1.0));
    // The relaxed test admits slightly worse states.
    assert!(obj.better_than((80, 1.05), (80, 1.0), 1.1));
    assert!(!obj.better_than((80, 1.2), (80, 1.0), 1.1));

    let obj = Objective::MinMemory { lat_limit: 1.0 };
    assert!(obj.better_than((50, 0.5), (80, 0.9), 1.0));
    assert!(obj.better_than((90, 0.9), (50, 2.0), 1.0), "latency blowout loses");
    assert!(obj.satisfied(123, 0.9));
    assert!(!obj.satisfied(123, 1.1));
}

#[test]
fn pareto_front_is_monotone() {
    let g = train_mlp(3);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let cfg = quick_cfg(Objective::MinMemory { lat_limit: init.eval.latency * 1.3 });
    let res = optimize(g, &cfg);
    let front = res.pareto.front();
    assert!(!front.is_empty());
    for w in front.windows(2) {
        assert!(w[0].0 < w[1].0 && w[0].1 > w[1].1);
    }
}

#[test]
fn quarantine_thresholds() {
    let mut q = Quarantine::new(2, &[]);
    assert!(!q.is_quarantined(4));
    q.strike(4);
    assert!(!q.is_quarantined(4));
    q.strike(4);
    assert!(q.is_quarantined(4));
    assert_eq!(q.quarantined_families(), vec![4]);
    assert_eq!(q.entries(), vec![(4, 2)]);
    // Threshold 0 disables quarantining entirely.
    let mut q = Quarantine::new(0, &[]);
    for _ in 0..10 {
        q.strike(7);
    }
    assert!(!q.is_quarantined(7));
}

#[test]
fn stop_reason_eval_cap() {
    let g = train_mlp(3);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let cfg = quick_cfg(Objective::MinMemory { lat_limit: init.eval.latency * 1.3 })
        .with_max_evals(30);
    let res = optimize(g, &cfg);
    assert_eq!(res.stats.stop_reason, StopReason::EvalCapReached);
    assert!(res.stats.evaluated <= 30);
}

#[test]
fn eval_cache_hits_on_duplicate_states() {
    // Inverse rules (remat / de-remat etc.) revisit graphs, so a
    // search long enough to filter duplicates must also score
    // cache hits — each one skipping schedule + simulate.
    let g = train_mlp(3);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let cfg = quick_cfg(Objective::MinMemory { lat_limit: init.eval.latency * 1.5 });
    let res = optimize(g, &cfg);
    assert!(res.stats.eval_cache_hits > 0, "duplicate states served from cache");
    assert!(res.stats.eval_cache_misses > 0);
    assert_eq!(
        res.stats.eval_cache_hits + res.stats.eval_cache_misses,
        res.stats.evaluated,
        "every evaluated candidate is either a hit or a miss"
    );
}

#[test]
fn eval_cache_disabled_matches_enabled_trajectory() {
    // Cache hits share previously evaluated states that are
    // bit-identical to re-evaluation, so caching must not change
    // the search trajectory at all.
    let g = train_mlp(3);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.2 };
    let on = optimize(g.clone(), &quick_cfg(obj).with_threads(1).with_max_evals(120));
    let off = optimize(
        g,
        &quick_cfg(obj).with_threads(1).with_max_evals(120).with_eval_cache(0),
    );
    assert_eq!(on.best.eval.peak_bytes, off.best.eval.peak_bytes);
    assert_eq!(on.best.eval.latency.to_bits(), off.best.eval.latency.to_bits());
    assert_eq!(on.stats.evaluated, off.stats.evaluated);
    assert_eq!(off.stats.eval_cache_hits, 0, "disabled cache never hits");
}

#[test]
fn quarantine_purges_eval_cache() {
    let g = train_mlp(2);
    let s = Arc::new(MState::initial(g, &EvalContext::default()));
    let mut cache = EvalCache::new(16);
    cache.insert(11, s.clone(), 4);
    cache.insert(12, s.clone(), 4);
    cache.insert(13, s, 5);
    let mut q = Quarantine::new(2, &[]);
    let mut stats = OptimizerStats::default();
    strike_family(&mut q, &mut cache, &mut stats, 4);
    assert_eq!(stats.eval_cache_purged, 0, "below threshold: no purge");
    assert!(cache.get(11).is_some());
    // Second strike quarantines family 4: its entries must go so a
    // later hash hit can't resurrect a distrusted rule's result.
    strike_family(&mut q, &mut cache, &mut stats, 4);
    assert_eq!(stats.eval_cache_purged, 2);
    assert!(cache.get(11).is_none() && cache.get(12).is_none());
    assert!(cache.get(13).is_some(), "other families keep their entries");
}

#[test]
fn paranoia_all_matches_default_when_healthy() {
    // With no faults, all paranoia levels must agree on the final
    // incumbent: validation only rejects corrupt states, and a
    // healthy pipeline produces none.
    let g = train_mlp(3);
    let init = MState::initial(g.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.2 };
    let mk = |p: ParanoiaLevel| {
        quick_cfg(obj).with_max_evals(120).with_threads(1).with_paranoia(p)
    };
    let off = optimize(g.clone(), &mk(ParanoiaLevel::Off));
    let inc = optimize(g.clone(), &mk(ParanoiaLevel::Incumbent));
    let all = optimize(g, &mk(ParanoiaLevel::All));
    assert_eq!(off.best.eval.peak_bytes, inc.best.eval.peak_bytes);
    assert_eq!(off.best.eval.latency.to_bits(), inc.best.eval.latency.to_bits());
    assert_eq!(off.best.eval.peak_bytes, all.best.eval.peak_bytes);
    assert_eq!(off.best.eval.latency.to_bits(), all.best.eval.latency.to_bits());
    assert_eq!(inc.stats.invariant_rejections, 0);
    assert_eq!(all.stats.invariant_rejections, 0);
}

/// An analyzed seed, its search config, and its first candidate whose
/// rewrite leaves the F-Tree stale (`stale`) or fresh, evaluated once
/// against an empty cache.
fn evaluated_candidate(stale: bool) -> (MState, OptimizerConfig, Transform, Evaluated) {
    let g = train_mlp(3);
    let cfg = quick_cfg(Objective::MinMemory { lat_limit: f64::INFINITY });
    let mut seed = MState::initial(g, &cfg.ctx);
    seed.analyze(cfg.max_level);
    let mut transforms = rules::generate(&seed, &cfg.rules);
    transforms.sort_by_key(Transform::sort_key);
    for t in transforms {
        if rules::apply(&seed, &t).is_ok_and(|a| a.tree_stale == stale) {
            if let Verdict::Evaluated(ev) = evaluate_candidate(&seed, &t, &cfg, &EvalCache::new(0), 0).verdict {
                return (seed, cfg, t, ev);
            }
        }
    }
    panic!("no candidate of the seed evaluates with tree_stale = {stale}");
}

fn evaluated(verdict: Verdict) -> Evaluated {
    match verdict {
        Verdict::Evaluated(ev) => ev,
        _ => panic!("the candidate did not evaluate"),
    }
}

#[test]
fn a_stale_lineage_flags_its_own_copy_of_a_hit() {
    // The cached state was reached along a lineage with a fresh F-Tree;
    // this candidate's rewrite leaves it stale. The candidate must be
    // re-analyzed before expansion, and the cached entry must not be.
    let (seed, cfg, t, ev) = evaluated_candidate(true);
    assert!(ev.child.tree_stale);
    let mut fresh = MState::clone(&ev.child);
    fresh.tree_stale = false;
    let fresh = Arc::new(fresh);
    let mut cache = EvalCache::new(4);
    cache.insert(ev.hash, Arc::clone(&fresh), 0);
    let hit = evaluated(evaluate_candidate(&seed, &t, &cfg, &cache, 0).verdict);
    assert!(hit.cache_hit);
    assert!(hit.child.tree_stale, "the candidate inherits its lineage's staleness");
    assert!(!Arc::ptr_eq(&hit.child, &fresh), "a flagged hit is the candidate's own copy");
    assert!(Arc::ptr_eq(cache.get(ev.hash).unwrap(), &fresh));
    assert!(!cache.get(ev.hash).unwrap().tree_stale, "the cached entry keeps its own flag");
    assert_eq!(hit.child.eval.order, fresh.eval.order);
}

#[test]
fn a_hit_shares_the_cached_allocation_and_injections_copy_it() {
    let (seed, cfg, t, ev) = evaluated_candidate(false);
    let cached = Arc::clone(&ev.child);
    let (order, latency) = (cached.eval.order.clone(), cached.eval.latency.to_bits());
    let mut cache = EvalCache::new(4);
    cache.insert(ev.hash, Arc::clone(&cached), 0);
    let clean = |cache: &EvalCache| {
        let entry = cache.get(ev.hash).unwrap();
        assert!(Arc::ptr_eq(entry, &cached));
        assert_eq!(entry.eval.order, order);
        assert_eq!(entry.eval.latency.to_bits(), latency);
    };
    let hit = evaluated(evaluate_candidate(&seed, &t, &cfg, &cache, 0).verdict);
    assert!(hit.cache_hit && !hit.tainted);
    assert!(Arc::ptr_eq(&hit.child, &cached), "a clean hit is the cached allocation");

    // A corrupted rewrite and a defective cost injected into a hit
    // reach the candidate, never the entry the next hit reads.
    let faulty = |site| cfg.clone().with_fault_plan(FaultPlan::new(1).with_rate(site, 1.0));
    let corrupt = evaluated(evaluate_candidate(&seed, &t, &faulty(FaultSite::CorruptRewrite), &cache, 0).verdict);
    assert!(corrupt.cache_hit && corrupt.tainted);
    assert_ne!(corrupt.child.eval.order, order, "the injection corrupted the candidate's order");
    clean(&cache);
    let nan = evaluate_candidate(&seed, &t, &faulty(FaultSite::NanCost), &cache, 0).verdict;
    assert!(matches!(nan, Verdict::Rejected(Reject::BadCost)));
    clean(&cache);
    let next = evaluated(evaluate_candidate(&seed, &t, &cfg, &cache, 0).verdict);
    assert!(next.cache_hit && !next.tainted && next.child.eval.latency.is_finite());
    assert!(Arc::ptr_eq(&next.child, &cached));
}

/// A fresh search's engine over `cfg`, with `best` as its incumbent.
fn engine(cfg: &OptimizerConfig, best: Arc<MState>) -> Engine<'_> {
    let stats = OptimizerStats { threads: cfg.threads.max(1), ..OptimizerStats::default() };
    Engine::new(cfg, Instant::now(), &SearchCheckpoint::default(), stats, ParetoSet::new(), Vec::new(), best)
}

#[test]
fn a_gate_violator_is_neither_cached_nor_retained() {
    let (seed, cfg, _, mut ev) = evaluated_candidate(false);
    assert!(!ev.cache_hit && !ev.tainted);
    // A defect the worker did not look for: the schedule runs one node
    // twice and another never.
    let order = &mut Arc::get_mut(&mut ev.child).expect("a fresh child is unshared").eval.order;
    let last = order.len() - 1;
    order[last] = order[0];
    // An incumbent every child beats, so the child meets the gate.
    let mut worst = seed;
    worst.eval.peak_bytes = u64::MAX;
    let mut engine = engine(&cfg, Arc::new(worst));
    let hash = ev.hash;
    let mut retained = 0;
    let verdict = engine.admit(0, 0, ev, true, &mut |_, _, _, _| {
        retained += 1;
        true
    });
    assert_eq!(verdict, Err(Reject::Invalid));
    assert!(engine.eval_cache.get(hash).is_none(), "the violator is not cached");
    assert_eq!((retained, engine.history.len()), (0, 0), "nor retained, nor the incumbent");
}

#[test]
fn a_retained_child_that_does_not_lead_keeps_its_planned_peak_alone() {
    let g = train_mlp(3);
    for threads in [1, 2] {
        let mut cfg = quick_cfg(Objective::MinMemory { lat_limit: f64::INFINITY }).with_threads(threads);
        cfg.ctx.mem_objective = MemObjective::Planned;
        let mut seed = Arc::new(MState::initial(g.clone(), &cfg.ctx));
        let mut engine = engine(&cfg, Arc::clone(&seed));
        let batch = engine.begin(&mut seed);
        let mut kept = Vec::new();
        let merged = engine.evaluate(&seed, &batch, None, true, &mut |_, child, _, _| {
            kept.push(child);
            true
        });
        assert_eq!(merged, kept.len(), "{threads} threads: every child is retained");
        // A child that led when it was admitted keeps its placements:
        // the incumbent, and each one it replaced.
        let whole = |s: &MState| s.eval.plan.as_ref().expect("planned objective").has_placements();
        let led = kept.iter().filter(|s| whole(s)).count();
        assert!(led > 0 && led < kept.len(), "{threads} threads: {led} of {} led", kept.len());
        assert_eq!(led, engine.history.len(), "{threads} threads");
        assert!(whole(&engine.best) && kept.iter().any(|s| Arc::ptr_eq(s, &engine.best)));
        for s in &kept {
            let plan = s.eval.plan.as_ref().unwrap();
            let full = memory_plan(&s.eval.graph, &s.eval.order).expect("a child's order plans");
            if plan.has_placements() {
                assert_eq!(*plan, full, "{threads} threads");
            } else {
                assert!(plan.allocations().is_empty());
                let peaks = |p: &magis_sim::MemoryPlan| (p.planned_peak_bytes, p.liveness_peak_bytes, p.steps());
                assert_eq!(peaks(plan), peaks(&full), "{threads} threads: the peaks stay");
            }
        }
    }
}
