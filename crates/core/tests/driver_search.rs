//! Driver-layer determinism and regression tests.
//!
//! Three contracts from DESIGN.md's "Search strategies" section are
//! enforced here, on real bench workloads rather than toy graphs:
//!
//! 1. the `SearchDriver` refactor left `GreedyDriver` bit-identical to
//!    the pre-refactor monolithic search loop (incumbent peak/latency
//!    and the headline counters pinned on four bench models),
//! 2. `MctsDriver` is thread-count independent (bit-identical
//!    trajectories under `threads = 1` and `threads = 4`),
//! 3. a killed `MctsDriver` search resumed from a frontier-bearing
//!    checkpoint replays the identical trajectory (same incumbent, bit
//!    for bit, as the uninterrupted run).

use magis_core::checkpoint::SearchCheckpoint;
use magis_core::driver::DriverKind;
use magis_core::optimizer::{
    optimize, resume, CheckpointPolicy, Objective, OptimizerConfig, StopReason,
};
use magis_core::state::{EvalContext, MState};
use magis_core::SearchBudget;
use magis_models::Workload;
use std::time::Duration;

/// The shared harness config: minimize memory under a 10% latency
/// leash, deterministic stop via the eval cap (the wall budget is set
/// far beyond any plausible runtime so it never fires).
fn config(g: &magis_graph::graph::Graph, driver: DriverKind, threads: usize) -> OptimizerConfig {
    let init = MState::initial(g.clone(), &EvalContext::default());
    OptimizerConfig::new(Objective::MinMemory { lat_limit: init.eval.latency * 1.10 })
        .with_budget(Duration::from_secs(3600))
        .with_max_evals(120)
        .with_threads(threads)
        .with_driver(driver)
}

/// Pins `GreedyDriver` to the exact incumbents the pre-refactor
/// monolithic search loop produced on four bench models (captured at
/// the commit before the `SearchDriver` extraction, threads = 1,
/// `max_evals = 120`). Any drift in peak bytes, latency bits, or the
/// headline counters means the refactor changed search behavior.
#[test]
fn greedy_driver_matches_pre_refactor_incumbents() {
    // (workload, scale, peak_bytes, latency_bits, evaluated, expanded, filtered)
    let golden: [(Workload, f64, u64, u64, usize, usize, usize); 4] = [
        (Workload::UNet, 0.15, 214_392_868, 0x3f74c7d5196af2bd, 120, 3, 2),
        (Workload::BertBase, 0.1, 34_313_604, 0x3f590766c9f2fa6e, 120, 4, 3),
        (Workload::VitBase, 0.1, 10_828_164, 0x3f629e383f446990, 120, 5, 3),
        (Workload::ResNet50, 0.1, 18_622_340, 0x3f69d1531301bd74, 120, 3, 1),
    ];
    for (w, scale, peak, lat_bits, evaluated, expanded, filtered) in golden {
        let g = w.build(scale).graph;
        let res = optimize(g.clone(), &config(&g, DriverKind::Greedy, 1));
        assert_eq!(res.best.eval.peak_bytes, peak, "{w:?}: incumbent peak drifted");
        assert_eq!(
            res.best.eval.latency.to_bits(),
            lat_bits,
            "{w:?}: incumbent latency drifted ({})",
            res.best.eval.latency
        );
        assert_eq!(res.stats.evaluated, evaluated, "{w:?}: evaluated count drifted");
        assert_eq!(res.stats.expanded, expanded, "{w:?}: expanded count drifted");
        assert_eq!(res.stats.filtered, filtered, "{w:?}: filtered count drifted");
        assert_eq!(res.stats.stop_reason, StopReason::EvalCapReached, "{w:?}");
    }
}

/// MCTS must produce bit-identical trajectories whatever the worker
/// thread count: candidate batches are sorted before the fan-out,
/// outcomes merge in candidate order on the driver thread, rollout RNG
/// draws happen only on the driver thread.
#[test]
fn mcts_is_thread_count_independent() {
    for w in [Workload::BertBase, Workload::UNet] {
        let g = w.build(0.1).graph;
        let a = optimize(g.clone(), &config(&g, DriverKind::Mcts, 1));
        let b = optimize(g.clone(), &config(&g, DriverKind::Mcts, 4));
        assert_eq!(
            a.best.eval.peak_bytes, b.best.eval.peak_bytes,
            "{w:?}: MCTS incumbent peak depends on thread count"
        );
        assert_eq!(
            a.best.eval.latency.to_bits(),
            b.best.eval.latency.to_bits(),
            "{w:?}: MCTS incumbent latency depends on thread count"
        );
        assert_eq!(a.stats.evaluated, b.stats.evaluated, "{w:?}");
        assert_eq!(a.stats.expanded, b.stats.expanded, "{w:?}");
        assert_eq!(a.stats.filtered, b.stats.filtered, "{w:?}");
        // The whole incumbent trajectory matches, not just the end.
        assert_eq!(a.history.len(), b.history.len(), "{w:?}");
        for (x, y) in a.history.iter().zip(&b.history) {
            assert_eq!(x.peak_bytes, y.peak_bytes, "{w:?}");
            assert_eq!(x.latency.to_bits(), y.latency.to_bits(), "{w:?}");
        }
        // And both runs improved on the seed at all (the search did work).
        let seed_peak = MState::initial(g, &EvalContext::default()).eval.peak_bytes;
        assert!(a.best.eval.peak_bytes <= seed_peak, "{w:?}: search regressed the seed");
    }
}

/// Kill/resume trajectory-exactness under `MctsDriver`: a search
/// stopped at a deterministic candidate-count boundary and resumed
/// from its frontier-bearing checkpoint must finish bit-identical to
/// an uninterrupted run — the v5 checkpoint restores the tree
/// (parents, visits, rewards, expansion flags) and the rollout RNG
/// stream exactly.
#[test]
fn mcts_kill_resume_is_trajectory_exact() {
    let g = Workload::BertBase.build(0.1).graph;
    let dir = std::env::temp_dir().join("magis-driver-mcts-resume");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt_path = dir.join("mcts.ckpt");

    // Uninterrupted reference: stop exactly at 90 evaluated candidates
    // (checked at the step boundary, so the trajectory is a pure
    // function of the limit).
    let full_cfg = config(&g, DriverKind::Mcts, 2)
        .with_max_evals(usize::MAX)
        .with_search_budget(SearchBudget::default().with_candidate_limit(90));
    let full = optimize(g.clone(), &full_cfg);

    // Killed run: same search, stopped at 40; the final checkpoint
    // carries the frontier + tree metadata.
    let killed_cfg = config(&g, DriverKind::Mcts, 2)
        .with_max_evals(usize::MAX)
        .with_search_budget(SearchBudget::default().with_candidate_limit(40))
        .with_checkpoint(CheckpointPolicy::new(&ckpt_path).with_every(10).with_frontier(true));
    let killed = optimize(g.clone(), &killed_cfg);
    assert!(killed.stats.evaluated >= 40, "killed run must reach its cap");
    assert!(killed.stats.evaluated < full.stats.evaluated);

    // Resume under the original 90-candidate limit; no further
    // checkpointing needed.
    let ckpt = SearchCheckpoint::read_from(&ckpt_path).unwrap();
    assert_eq!(ckpt.driver, DriverKind::Mcts, "checkpoint is driver-tagged");
    assert!(ckpt.mcts.is_some(), "MCTS frontier checkpoint carries the tree");
    let resume_cfg = config(&g, DriverKind::Greedy, 2) // config driver is ignored on resume
        .with_max_evals(usize::MAX)
        .with_search_budget(SearchBudget::default().with_candidate_limit(90));
    let resumed = resume(&ckpt, &resume_cfg).unwrap();

    assert_eq!(
        resumed.best.eval.peak_bytes, full.best.eval.peak_bytes,
        "resumed incumbent peak diverged from the uninterrupted run"
    );
    assert_eq!(
        resumed.best.eval.latency.to_bits(),
        full.best.eval.latency.to_bits(),
        "resumed incumbent latency diverged from the uninterrupted run"
    );
    assert_eq!(resumed.stats.evaluated, full.stats.evaluated);
    assert_eq!(resumed.stats.expanded, full.stats.expanded);

    std::fs::remove_file(&ckpt_path).ok();
}
