//! Entry points: [`optimize`] and its variants, [`resume`], and the
//! search loop both run.

use super::candidate::check_invariants;
use super::config::{OptimizerConfig, ParanoiaLevel, StopReason};
use super::engine::{analyze, Engine};
use super::stats::{core_obs, OptimizeResult, OptimizerStats, ProgressPoint};
use crate::checkpoint::{CheckpointError, SearchCheckpoint};
use crate::driver::{DriverKind, GreedyDriver, MctsDriver, SearchDriver, StepOutcome};
use crate::pareto::ParetoSet;
use crate::state::{EvalError, MState};
use magis_graph::graph::Graph;
use magis_obs::metrics::{counter, labeled};
use magis_sim::memory_profile_checked;
use std::sync::Arc;
use std::time::Instant;

/// Runs Algorithm 3 on `g`.
///
/// # Panics
///
/// Panics if the seed graph itself fails to evaluate (see
/// [`try_optimize`] for the fallible variant).
pub fn optimize(g: Graph, cfg: &OptimizerConfig) -> OptimizeResult {
    try_optimize(g, cfg).expect("seed graph evaluates")
}

/// [`optimize`] with seed-evaluation failures surfaced as a typed
/// [`EvalError`] instead of a panic.
pub fn try_optimize(g: Graph, cfg: &OptimizerConfig) -> Result<OptimizeResult, EvalError> {
    Ok(optimize_from(MState::try_initial(g, &cfg.ctx)?, cfg))
}

/// Runs Algorithm 3 from an already evaluated seed state, for callers
/// that need the seed's cost before they can state the objective
/// (a latency limit relative to the unoptimized graph, say). `init`
/// must come from [`MState::try_initial`] under `cfg.ctx`; the result
/// is then exactly [`try_optimize`]'s, without scheduling and
/// simulating the seed graph a second time.
pub fn optimize_from(init: MState, cfg: &OptimizerConfig) -> OptimizeResult {
    run_search(init, None, cfg)
}

/// Continues a search from a [`SearchCheckpoint`]: the incumbent is
/// restored (its base graph re-validated, its overlay rebuilt, its
/// schedule re-checked and re-simulated), the driver frontier /
/// seen-set / quarantine / counters are reloaded verbatim, and the
/// search resumes under the **caller's** config — budget, thread
/// count, and objective are taken from `cfg`, not from the checkpoint.
/// A checkpoint whose frontier is empty holds a finished search, and
/// resumes to its end.
///
/// # Errors
///
/// Returns a typed [`CheckpointError`] if the checkpoint is corrupt
/// (bad record, invalid schedule, defective re-simulated costs, an
/// MCTS checkpoint without a tree that pairs with its frontier).
pub fn resume(ckpt: &SearchCheckpoint, cfg: &OptimizerConfig) -> Result<OptimizeResult, CheckpointError> {
    let best = ckpt.restore_state(&cfg.ctx)?;
    // A restored frontier state is re-evaluated in full, but no gate
    // reads its plan (only children are admitted): like every state
    // the search retains that does not lead, it keeps the peaks alone.
    let frontier: Vec<(u64, Arc<MState>)> = ckpt
        .restore_frontier(&cfg.ctx)?
        .into_iter()
        .map(|(seq, mut state)| {
            if let Some(plan) = &mut state.eval.plan {
                plan.drop_placements();
            }
            (seq, Arc::new(state))
        })
        .collect();
    let driver: Box<dyn SearchDriver> = match ckpt.driver {
        DriverKind::Greedy => Box::new(GreedyDriver::new(cfg, frontier, ckpt.next_seq)),
        // An MCTS frontier is a tree: the metadata must pair one-to-one
        // with the restored states (dense node ids, in-range parent
        // links) or the driver cannot be rebuilt.
        DriverKind::Mcts => {
            let meta = ckpt.mcts.as_ref().filter(|m| {
                m.nodes.len() == frontier.len()
                    && frontier.iter().enumerate().all(|(i, (sq, _))| *sq == i as u64)
                    && m.nodes.iter().enumerate().all(|(i, n)| {
                        n.parent.map_or(i == 0, |p| (p as usize) < m.nodes.len() && p as usize != i)
                    })
            });
            let Some(meta) = meta else {
                return Err(CheckpointError::Parse {
                    line: 0,
                    msg: "mcts checkpoint has no tree metadata matching its frontier".to_string(),
                });
            };
            Box::new(MctsDriver::resume(frontier, meta))
        }
    };
    Ok(run_search(best, Some((ckpt, driver)), cfg))
}

/// [`search`], the one path [`optimize_from`] and [`resume`] share.
fn run_search(
    init: MState,
    resumed: Option<(&SearchCheckpoint, Box<dyn SearchDriver>)>,
    cfg: &OptimizerConfig,
) -> OptimizeResult {
    let result = search(init, resumed, cfg);
    // The engine and driver are dropped: hand the pages a threaded
    // search's worker freed into its own arena back (DESIGN D10).
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    if cfg.threads > 1 {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` releases only free memory.
        unsafe { malloc_trim(0) };
    }
    result
}

/// The search proper. `resumed` is the checkpoint to continue from
/// with the driver rebuilt from its frontier; a fresh search starts
/// from the blank checkpoint with a driver holding `init` alone.
fn search(
    mut init: MState,
    resumed: Option<(&SearchCheckpoint, Box<dyn SearchDriver>)>,
    cfg: &OptimizerConfig,
) -> OptimizeResult {
    let start = Instant::now();
    let obs = core_obs();
    counter(&labeled("magis_core_searches", &[("backend", cfg.ctx.backend_name())])).inc();
    let blank =
        SearchCheckpoint { seed_cost: init.cost(), driver: cfg.driver, ..SearchCheckpoint::default() };
    let (from, restored) = match resumed {
        Some((ckpt, driver)) => (ckpt, Some(driver)),
        None => (&blank, None),
    };
    let mut stats = OptimizerStats {
        threads: cfg.threads.max(1),
        driver: from.driver,
        resumed: restored.is_some(),
        ..OptimizerStats::default()
    };
    // Stats continue from the checkpointed counters (and are published
    // from zero), so a resumed run's snapshot covers the whole logical
    // search.
    stats.restore_counters(&from.counters);
    if restored.is_some() {
        obs.resumes.inc();
        magis_obs::event!(
            "magis_core",
            "resume",
            expanded = from.counters.expanded,
            evaluated = from.counters.evaluated,
        );
    } else {
        // A fresh seed is analyzed up front so that the incumbent
        // carries its F-Tree from the start.
        analyze(&mut init, cfg, &mut stats);
    }
    let mut pareto = ParetoSet::new();
    for &(m, l) in &from.pareto {
        pareto.insert(m, l);
    }
    let (init_peak, init_lat) = init.cost();
    // A checkpoint lists its incumbent's cost already (unless it was
    // re-simulated to another one, under another backend): observing
    // it a second time would make every checkpoint after a resume one
    // point longer than the uninterrupted run's.
    if !from.pareto.iter().any(|&(m, l)| (m, l.to_bits()) == (init_peak, init_lat.to_bits())) {
        pareto.insert(init_peak, init_lat);
    }
    let history = vec![ProgressPoint {
        elapsed: start.elapsed().as_secs_f64(),
        peak_bytes: init_peak,
        latency: init_lat,
    }];

    let best = Arc::new(init);
    // The driver owns the strategy state (greedy queue or MCTS tree);
    // everything else — evaluation, bookkeeping, observability,
    // checkpointing — lives on the engine below.
    let mut driver: Box<dyn SearchDriver> = match restored {
        Some(driver) => driver,
        None => match cfg.driver {
            DriverKind::Greedy => Box::new(GreedyDriver::new(cfg, vec![(0, Arc::clone(&best))], 0)),
            DriverKind::Mcts => Box::new(MctsDriver::new(cfg, Arc::clone(&best))),
        },
    };

    let mut engine = Engine::new(cfg, start, from, stats, pareto, history, best);

    // The stop check comes *before* the driver steps: a
    // deadline/budget/cap stop leaves the driver's frontier intact, so
    // a checkpoint written at the stop captures the complete resumable
    // state.
    while !engine.should_stop() && driver.step(&mut engine) == StepOutcome::Progress {}

    engine.stats.quarantine_strikes = engine.quarantine.entries();
    engine.stats.quarantined_families = engine.quarantine.quarantined_families();
    // When the frontier ran dry: if rule families were quarantined
    // along the way, faults shrank the reachable space — report a
    // fault storm. (Quarantined candidate *filtering* may never have
    // happened — a total storm kills every child before a second
    // expansion — so the family list, not the filter counter, is the
    // signal.)
    let ran_dry = match engine.stats.quarantined_families.is_empty() {
        true => StopReason::QueueExhausted,
        false => StopReason::FaultStorm,
    };
    engine.stats.stop_reason = engine.stop.unwrap_or(ran_dry);

    // Checkpoints are exact in-flight snapshots: the final one is
    // written *before* the polish below, and the resumed run
    // re-polishes at its own true end — that keeps kill/resume
    // trajectories bit-identical to the uninterrupted run.
    engine.write_checkpoint("final", &mut |lines| driver.frontier_snapshot(lines));
    // Final polish: reschedule the incumbent with the full-quality beam
    // and keep whichever is better.
    let polished = {
        let _span = magis_obs::span!("magis_core", "polish");
        engine.best.rescheduled(&cfg.ctx)
    };
    if cfg.objective.better_than(polished.cost(), engine.best.cost(), 1.0)
        && (cfg.paranoia == ParanoiaLevel::Off || check_invariants(&polished, &cfg.ctx).is_ok())
    {
        let (p_peak, p_lat) = polished.cost();
        engine.pareto.insert(p_peak, p_lat);
        engine.best = Arc::new(polished);
    }
    engine.stats.publish(&mut engine.published);
    magis_obs::event!(
        "magis_core",
        "stop",
        reason = engine.stats.stop_reason.to_string(),
        expanded = engine.stats.expanded,
        evaluated = engine.stats.evaluated,
    );
    obs.best_peak_bytes.set(engine.best.eval.peak_bytes as f64);
    obs.best_latency.set(engine.best.eval.latency);
    // Terminal snapshot: the post-polish incumbent. Deterministic like
    // every other snapshot — the polish itself is.
    engine.report_progress("done", driver.frontier_len(), engine.pareto.front().len() as u64);
    let best = &engine.best.eval;
    engine.timeline.memory_profile = memory_profile_checked(&best.graph, &best.order)
        .expect("the incumbent's order covers its graph")
        .step_bytes;
    // Planner outcome for the timeline: the winning state's allocator
    // high-water mark and fragmentation overhead (zeros = planner off).
    if let Some(plan) = &engine.best.eval.plan {
        engine.timeline.planned_peak_bytes = plan.planned_peak_bytes;
        engine.timeline.fragmentation_ratio = plan.fragmentation_ratio();
    }
    OptimizeResult {
        best: Arc::unwrap_or_clone(engine.best),
        pareto: engine.pareto,
        history: engine.history,
        stats: engine.stats,
        timeline: engine.timeline,
    }
}
