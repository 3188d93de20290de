//! What a search reports: [`OptimizerStats`], [`OptimizeResult`], and
//! the process-wide `magis_core_*` metric handles.

use super::config::StopReason;
use crate::checkpoint::CheckpointCounters;
use crate::driver::DriverKind;
use crate::pareto::ParetoSet;
use crate::rules;
use crate::state::MState;
use magis_obs::metrics::{labeled, Counter, Gauge, Histogram};
use magis_obs::timeline::SearchTimeline;
use std::sync::OnceLock;
use std::time::Duration;

/// Global metric handles (`magis_core_*`), looked up once. All of
/// these are updated exclusively on the merge thread, so their values
/// are bit-identical across `--threads 1` vs `N` (see the module docs'
/// determinism contract); only the `*_seconds` histograms carry
/// wall-clock values.
pub(super) struct CoreObs {
    pub(super) searches: Counter,
    pub(super) resumes: Counter,
    pub(super) expansions: Counter,
    pub(super) candidates: Counter,
    pub(super) evaluated: Counter,
    pub(super) filtered: Counter,
    pub(super) panicked: Counter,
    pub(super) cost_rejections: Counter,
    pub(super) invariant_rejections: Counter,
    pub(super) quarantined_candidates: Counter,
    pub(super) quarantined_families: Counter,
    pub(super) queue_pushes: Counter,
    pub(super) incumbent_improvements: Counter,
    pub(super) checkpoints_written: Counter,
    pub(super) checkpoint_failures: Counter,
    pub(super) eval_cache_hits: Counter,
    pub(super) eval_cache_misses: Counter,
    pub(super) eval_cache_evictions: Counter,
    pub(super) eval_cache_purged: Counter,
    pub(super) incremental_evals: Counter,
    pub(super) incremental_carried_wins: Counter,
    pub(super) incremental_window: Histogram,
    pub(super) expansion_seconds: Histogram,
    pub(super) best_peak_bytes: Gauge,
    pub(super) best_latency: Gauge,
    pub(super) frontier_size: Gauge,
    pub(super) eval_cache_size: Gauge,
}

pub(super) fn core_obs() -> &'static CoreObs {
    static OBS: OnceLock<CoreObs> = OnceLock::new();
    use magis_obs::metrics::{counter, gauge, histogram};
    OBS.get_or_init(|| CoreObs {
        searches: counter("magis_core_searches"),
        resumes: counter("magis_core_resumes"),
        expansions: counter("magis_core_expansions"),
        candidates: counter("magis_core_candidates"),
        evaluated: counter("magis_core_evaluated"),
        filtered: counter("magis_core_filtered"),
        panicked: counter("magis_core_panicked"),
        cost_rejections: counter("magis_core_cost_rejections"),
        invariant_rejections: counter("magis_core_invariant_rejections"),
        quarantined_candidates: counter("magis_core_quarantined_candidates"),
        quarantined_families: counter("magis_core_quarantined_families"),
        queue_pushes: counter("magis_core_queue_pushes"),
        incumbent_improvements: counter("magis_core_incumbent_improvements"),
        checkpoints_written: counter("magis_core_checkpoints_written"),
        checkpoint_failures: counter("magis_core_checkpoint_failures"),
        eval_cache_hits: counter("magis_core_eval_cache_hits"),
        eval_cache_misses: counter("magis_core_eval_cache_misses"),
        eval_cache_evictions: counter("magis_core_eval_cache_evictions"),
        eval_cache_purged: counter("magis_core_eval_cache_purged"),
        incremental_evals: counter("magis_core_incremental_evals"),
        incremental_carried_wins: counter("magis_core_incremental_carried_wins"),
        incremental_window: histogram("magis_core_incremental_window"),
        expansion_seconds: histogram("magis_core_expansion_seconds"),
        best_peak_bytes: gauge("magis_core_best_peak_bytes"),
        best_latency: gauge("magis_core_best_latency"),
        frontier_size: gauge("magis_core_frontier_size"),
        eval_cache_size: gauge("magis_core_eval_cache_size"),
    })
}

/// Per-(family, outcome) labeled counter, cached so the registry lock
/// is only taken on the first occurrence of each pair.
pub(super) fn outcome_counter(family: u8, outcome: &'static str) -> Counter {
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    static CACHE: Mutex<BTreeMap<(u8, &'static str), Counter>> = Mutex::new(BTreeMap::new());
    let mut cache = CACHE.lock().unwrap();
    cache
        .entry((family, outcome))
        .or_insert_with(|| {
            magis_obs::metrics::counter(&labeled(
                "magis_core_candidate_outcomes",
                &[("family", rules::family_name(family)), ("outcome", outcome)],
            ))
        })
        .clone()
}

/// Per-phase time accounting (Fig. 15) plus hardening counters.
#[derive(Debug, Clone, Default)]
pub struct OptimizerStats {
    /// Time spent in the M-Analyzer (Algorithm 1: D-Graph components,
    /// dominator trees, heat scores, the F-Tree): once on the seed and
    /// once per expansion of a state whose tree a rewrite left stale.
    /// Always on the driver thread, so it is wall-clock at any thread
    /// count and part of no other figure here.
    pub analyze_time: Duration,
    /// How many times the M-Analyzer ran.
    pub analyses: usize,
    /// Time spent generating and applying transformations; the clock
    /// starts after an expansion's analysis. With `threads > 1` this
    /// is CPU time summed over workers, not wall-clock.
    pub trans_time: Duration,
    /// Time spent building the fission overlay, (incrementally)
    /// scheduling and simulating. The paper separates "Sched." and
    /// "Simul."; our evaluation fuses them, so they are reported as one
    /// figure, of which [`Self::overlay_time`] is the overlay's part.
    /// CPU time summed over workers.
    pub sched_sim_time: Duration,
    /// The part of `sched_sim_time` spent in `build_overlay_graph`
    /// (applying every enabled fission region to the candidate's base
    /// graph). CPU time summed over workers.
    pub overlay_time: Duration,
    /// Time spent hashing/filtering duplicate graphs. CPU time summed
    /// over workers.
    pub hash_time: Duration,
    /// Wall-clock time spent inside candidate-evaluation fan-outs
    /// (compare against `trans_time + sched_sim_time + hash_time` to
    /// see the parallel speed-up).
    pub eval_wall_time: Duration,
    /// Worker threads the search was configured with.
    pub threads: usize,
    /// Which [`crate::driver::SearchDriver`] strategy ran the search (resumed runs
    /// report the checkpoint's driver, which wins over the config).
    pub driver: DriverKind,
    /// States popped from the queue.
    pub expanded: usize,
    /// Candidate transforms generated.
    pub candidates: usize,
    /// Candidates evaluated (scheduled + simulated).
    pub evaluated: usize,
    /// Duplicate states filtered by the hash test.
    pub filtered: usize,
    /// Why the search stopped.
    pub stop_reason: StopReason,
    /// Candidate evaluations that panicked (caught by the sandbox).
    pub panicked: usize,
    /// Candidates rejected by the always-on cost validation
    /// (NaN / infinite / negative latency).
    pub cost_rejections: usize,
    /// Candidates rejected by invariant enforcement (graph, schedule,
    /// or memory-accounting violations under [`super::ParanoiaLevel`]).
    pub invariant_rejections: usize,
    /// Candidates never evaluated because their rule family was
    /// quarantined.
    pub quarantined_candidates: usize,
    /// Final strike counts per rule family (`sort_key().0`).
    pub quarantine_strikes: Vec<(u8, u32)>,
    /// Rule families over the strike threshold at search end.
    pub quarantined_families: Vec<u8>,
    /// Checkpoints successfully written.
    pub checkpoints_written: usize,
    /// Checkpoint writes that failed (non-fatal; the search continues).
    pub checkpoint_failures: usize,
    /// Whether this search was resumed from a checkpoint.
    pub resumed: bool,
    /// Evaluated candidates served from the evaluation cache (the
    /// expensive schedule + simulate phases were skipped).
    pub eval_cache_hits: usize,
    /// Evaluated candidates that missed the cache (and, when caching
    /// is enabled, were inserted for future duplicates).
    pub eval_cache_misses: usize,
    /// Cache entries evicted by the FIFO capacity bound.
    pub eval_cache_evictions: usize,
    /// Cache entries purged because their rule family was quarantined.
    pub eval_cache_purged: usize,
}

impl OptimizerStats {
    /// The cumulative counters a checkpoint carries.
    pub(super) fn counters(&self) -> CheckpointCounters {
        CheckpointCounters {
            expanded: self.expanded as u64,
            evaluated: self.evaluated as u64,
            candidates: self.candidates as u64,
            filtered: self.filtered as u64,
            panicked: self.panicked as u64,
            cost_rejections: self.cost_rejections as u64,
            invariant_rejections: self.invariant_rejections as u64,
            quarantined_candidates: self.quarantined_candidates as u64,
            checkpoints_written: self.checkpoints_written as u64,
            checkpoint_failures: self.checkpoint_failures as u64,
        }
    }

    /// Continues from checkpointed counters: the stats fields and the
    /// process-wide `magis_core_*` counters alike (all zero, and so a
    /// no-op, for a fresh search).
    pub(super) fn restore_counters(&mut self, c: &CheckpointCounters) {
        let obs = core_obs();
        let load = |stat: &mut usize, metric: &Counter, n: u64| {
            *stat = n as usize;
            metric.add(n);
        };
        load(&mut self.expanded, &obs.expansions, c.expanded);
        load(&mut self.evaluated, &obs.evaluated, c.evaluated);
        load(&mut self.candidates, &obs.candidates, c.candidates);
        load(&mut self.filtered, &obs.filtered, c.filtered);
        load(&mut self.panicked, &obs.panicked, c.panicked);
        load(&mut self.cost_rejections, &obs.cost_rejections, c.cost_rejections);
        load(&mut self.invariant_rejections, &obs.invariant_rejections, c.invariant_rejections);
        load(&mut self.quarantined_candidates, &obs.quarantined_candidates, c.quarantined_candidates);
        load(&mut self.checkpoints_written, &obs.checkpoints_written, c.checkpoints_written);
        load(&mut self.checkpoint_failures, &obs.checkpoint_failures, c.checkpoint_failures);
    }
}

/// A point on the search's progress curve.
#[derive(Debug, Clone, Copy)]
pub struct ProgressPoint {
    /// Elapsed seconds when the incumbent improved.
    pub elapsed: f64,
    /// Incumbent peak memory.
    pub peak_bytes: u64,
    /// Incumbent latency.
    pub latency: f64,
}

/// Result of [`super::optimize`].
#[derive(Debug)]
pub struct OptimizeResult {
    /// The best state found.
    pub best: MState,
    /// All `(mem, latency)` observations (Pareto raw material).
    pub pareto: ParetoSet,
    /// Incumbent-improvement history (Fig. 13 curves).
    pub history: Vec<ProgressPoint>,
    /// Phase timing and counters (Fig. 15).
    pub stats: OptimizerStats,
    /// The recorded search timeline: per-expansion progress, Pareto
    /// evolution, per-rule-family stats, and the incumbent's final
    /// memory profile. Always recorded (the cost is a few vector
    /// pushes per expansion); serialize with
    /// [`SearchTimeline::to_json`].
    pub timeline: SearchTimeline,
}
