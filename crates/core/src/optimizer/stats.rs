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

/// Handles of the `magis_core_*` series that have no [`OptimizerStats`]
/// twin, plus the counters projected from it, looked up once. All are
/// written on the driver / merge thread only, so their values are
/// bit-identical across `--threads 1` vs `N` (see the module docs'
/// determinism contract); only the `*_seconds` histograms carry
/// wall-clock values.
pub(super) struct CoreObs {
    pub(super) resumes: Counter,
    pub(super) quarantined_families: Counter,
    pub(super) queue_pushes: Counter,
    pub(super) incumbent_improvements: Counter,
    pub(super) incremental_evals: Counter,
    pub(super) incremental_carried_wins: Counter,
    pub(super) incremental_window: Histogram,
    pub(super) expansion_seconds: Histogram,
    /// One observation per checkpoint: snapshot, encode and write.
    pub(super) checkpoint_seconds: Histogram,
    /// Size of the last checkpoint written (0 after a failed write).
    pub(super) checkpoint_bytes: Gauge,
    pub(super) best_peak_bytes: Gauge,
    pub(super) best_latency: Gauge,
    pub(super) frontier_size: Gauge,
    pub(super) eval_cache_size: Gauge,
    /// One counter per [`OptimizerStats::PUBLISHED`] row, in its order.
    published: [Counter; OptimizerStats::PUBLISHED.len()],
}

pub(super) fn core_obs() -> &'static CoreObs {
    static OBS: OnceLock<CoreObs> = OnceLock::new();
    use magis_obs::metrics::{counter, gauge, histogram};
    OBS.get_or_init(|| CoreObs {
        resumes: counter("magis_core_resumes"),
        quarantined_families: counter("magis_core_quarantined_families"),
        queue_pushes: counter("magis_core_queue_pushes"),
        incumbent_improvements: counter("magis_core_incumbent_improvements"),
        incremental_evals: counter("magis_core_incremental_evals"),
        incremental_carried_wins: counter("magis_core_incremental_carried_wins"),
        incremental_window: histogram("magis_core_incremental_window"),
        expansion_seconds: histogram("magis_core_expansion_seconds"),
        checkpoint_seconds: histogram("magis_core_checkpoint_seconds"),
        checkpoint_bytes: gauge("magis_core_checkpoint_bytes"),
        best_peak_bytes: gauge("magis_core_best_peak_bytes"),
        best_latency: gauge("magis_core_best_latency"),
        frontier_size: gauge("magis_core_frontier_size"),
        eval_cache_size: gauge("magis_core_eval_cache_size"),
        published: OptimizerStats::PUBLISHED.map(|(name, _)| counter(name)),
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

    /// Continues from checkpointed counters (all zero for a fresh
    /// search).
    pub(super) fn restore_counters(&mut self, c: &CheckpointCounters) {
        self.expanded = c.expanded as usize;
        self.evaluated = c.evaluated as usize;
        self.candidates = c.candidates as usize;
        self.filtered = c.filtered as usize;
        self.panicked = c.panicked as usize;
        self.cost_rejections = c.cost_rejections as usize;
        self.invariant_rejections = c.invariant_rejections as usize;
        self.quarantined_candidates = c.quarantined_candidates as usize;
        self.checkpoints_written = c.checkpoints_written as usize;
        self.checkpoint_failures = c.checkpoint_failures as usize;
    }

    /// The `magis_core_*` counters that are projections of a field of
    /// these stats: the stats are the ledger, and the search adds to
    /// each counter what its field gained, at every expansion boundary
    /// and when it ends. Counts restored from a checkpoint are
    /// published like any others, so a resumed run's registry covers
    /// the whole logical search.
    #[allow(clippy::type_complexity)] // a row is a name and the field it reads
    pub const PUBLISHED: [(&'static str, fn(&OptimizerStats) -> usize); 14] = [
        ("magis_core_expansions", |s| s.expanded),
        ("magis_core_candidates", |s| s.candidates),
        ("magis_core_evaluated", |s| s.evaluated),
        ("magis_core_filtered", |s| s.filtered),
        ("magis_core_panicked", |s| s.panicked),
        ("magis_core_cost_rejections", |s| s.cost_rejections),
        ("magis_core_invariant_rejections", |s| s.invariant_rejections),
        ("magis_core_quarantined_candidates", |s| s.quarantined_candidates),
        ("magis_core_checkpoints_written", |s| s.checkpoints_written),
        ("magis_core_checkpoint_failures", |s| s.checkpoint_failures),
        ("magis_core_eval_cache_hits", |s| s.eval_cache_hits),
        ("magis_core_eval_cache_misses", |s| s.eval_cache_misses),
        ("magis_core_eval_cache_evictions", |s| s.eval_cache_evictions),
        ("magis_core_eval_cache_purged", |s| s.eval_cache_purged),
    ];

    /// Adds to every [`Self::PUBLISHED`] counter the difference between
    /// its field now and in `published` (what this search last
    /// published), then remembers the new values there.
    pub(super) fn publish(&self, published: &mut [usize; Self::PUBLISHED.len()]) {
        let counters = &core_obs().published;
        for (((_, field), counter), last) in Self::PUBLISHED.iter().zip(counters).zip(published) {
            let now = field(self);
            counter.add((now - *last) as u64);
            *last = now;
        }
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
