//! The M-Optimizer: the top-level greedy best-first search of
//! Algorithm 3, coordinating graph transformations (M-Rules) with
//! incremental scheduling.
//!
//! Two optimization modes are supported, as in §6.2:
//! * minimize latency under a memory limit (the algorithm as printed),
//! * minimize memory under a latency limit (the symmetric ordering).
//!
//! Duplicate states are pruned with the Weisfeiler–Lehman graph hash;
//! a relaxed dominance test (`δ = 1.1`) decides which children remain
//! on the queue. Per-phase wall-clock accounting reproduces the
//! optimization-time breakdown of Fig. 15.
//!
//! # Incremental evaluation and the evaluation cache
//!
//! Candidate scheduling is incremental: a child derived from its
//! parent by one rewrite reuses the parent's schedule outside the
//! rewrite's dirty region (Algorithm 2 splicing in `magis_sched`). The
//! spliced order is then profiled, planned and simulated from scratch
//! (§6.2: "a simulator with an operator performance cache").
//! [`ParanoiaLevel::All`] (or any incumbent check under the default
//! level) re-evaluates the same order independently and compares peak
//! memory and latency bit-for-bit. [`crate::state::EvalMode::Full`] in
//! the [`EvalContext`] disables the schedule reuse for baseline
//! comparisons.
//!
//! On top of that, an [`EvalCache`] keyed by the overlay graph's
//! structural hash short-circuits duplicate candidates reached via
//! different rewrite paths: the hash is computed *before* scheduling,
//! and a hit reuses the previously evaluated state wholesale. Workers
//! read a cache frozen for the whole batch; hits are counted and new
//! entries inserted only at the merge, in candidate order, so caching
//! never perturbs the determinism contract below. The cache is not
//! persisted in checkpoints — a resumed search starts cold.
//!
//! # Parallel candidate evaluation
//!
//! Each expansion generates all candidate transforms, sorts them by
//! [`Transform::sort_key`], evaluates the batch (apply → hash → cache
//! lookup → incremental reschedule + simulate on a miss) across up to
//! [`OptimizerConfig::threads`] scoped threads, then merges the
//! results back **in candidate order**: queue pushes, incumbent
//! updates, sequence numbers, quarantine strikes, and the `max_evals`
//! cap are all applied single-threaded at the merge. The search
//! trajectory is therefore a pure function of the input — `threads =
//! 1` and `threads = N` produce identical results (given a wall-clock
//! budget generous enough that neither run times out mid-batch).
//!
//! # Hardening
//!
//! The search is designed to survive defective rewrite rules and cost
//! models rather than trusting them:
//!
//! * **Sandboxed evaluation** — every candidate runs under
//!   [`std::panic::catch_unwind`]; a panic quarantines the candidate
//!   (counted in [`OptimizerStats::panicked`]) and, after
//!   [`OptimizerConfig::quarantine_threshold`] strikes, the whole rule
//!   family stops being generated.
//! * **Cost validation** — every evaluated child's latency is checked
//!   for NaN / infinity / negativity (always on; rejects are counted
//!   in [`OptimizerStats::cost_rejections`]).
//! * **Invariant enforcement** — gated by [`ParanoiaLevel`]: graph
//!   validity, schedule validity (topological, exactly-once), and
//!   memory-accounting conservation are re-checked for every would-be
//!   incumbent (`Incumbent`, the default) or every candidate (`All`).
//! * **Fault injection** — an optional seeded
//!   [`magis_util::fault::FaultPlan`] deterministically injects
//!   panics, NaN/negative costs, and corrupted rewrites, keyed on
//!   `(expansion, candidate)` so injections are identical across
//!   thread counts.
//! * **Checkpoint/resume** — an optional [`CheckpointPolicy`]
//!   periodically serializes the search (incumbent, frontier,
//!   seen-set, quarantine, counters) through
//!   [`crate::checkpoint::SearchCheckpoint`]; [`resume`] continues a
//!   killed search from its last checkpoint.

use crate::budget::{CancelToken, SearchBudget};
use crate::checkpoint::{
    CheckpointCounters, CheckpointError, MctsCheckpoint, SearchCheckpoint,
};
use crate::driver::{DriverFrontier, DriverKind, GreedyDriver, MctsDriver, SearchDriver, StepOutcome};
use crate::eval_cache::EvalCache;
use crate::pareto::ParetoSet;
use crate::rules::{self, RuleConfig, Transform};
use crate::state::{build_overlay_graph, evaluate_overlay, EvalContext, EvalError, MState};
use magis_graph::algo::graph_hash;
use magis_graph::graph::Graph;
use magis_obs::metrics::{labeled, Counter, Gauge, Histogram};
use magis_obs::timeline::{SearchTimeline, TimelinePoint};
use magis_sched::validate_schedule;
use magis_sim::{evaluate_checked, memory_profile};
use magis_util::fault::{FaultPlan, FaultSite};
use magis_util::parallel;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Global metric handles (`magis_core_*`), looked up once. All of
/// these are updated exclusively on the merge thread, so their values
/// are bit-identical across `--threads 1` vs `N` (see the module docs'
/// determinism contract); only the `*_seconds` histograms carry
/// wall-clock values.
struct CoreObs {
    searches: Counter,
    resumes: Counter,
    expansions: Counter,
    candidates: Counter,
    evaluated: Counter,
    filtered: Counter,
    panicked: Counter,
    cost_rejections: Counter,
    invariant_rejections: Counter,
    quarantined_candidates: Counter,
    quarantined_families: Counter,
    queue_pushes: Counter,
    incumbent_improvements: Counter,
    checkpoints_written: Counter,
    checkpoint_failures: Counter,
    eval_cache_hits: Counter,
    eval_cache_misses: Counter,
    eval_cache_evictions: Counter,
    eval_cache_purged: Counter,
    incremental_evals: Counter,
    incremental_carried_wins: Counter,
    incremental_window: Histogram,
    expansion_seconds: Histogram,
    best_peak_bytes: Gauge,
    best_latency: Gauge,
    frontier_size: Gauge,
    eval_cache_size: Gauge,
}

fn core_obs() -> &'static CoreObs {
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
fn outcome_counter(family: u8, outcome: &'static str) -> Counter {
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

/// Optimization objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// Minimize latency subject to `peak_bytes ≤ mem_limit`.
    MinLatency {
        /// Peak-memory budget in bytes.
        mem_limit: u64,
    },
    /// Minimize peak memory subject to `latency ≤ lat_limit`.
    MinMemory {
        /// Latency budget in seconds.
        lat_limit: f64,
    },
}

impl Objective {
    /// Lexicographic key: smaller is better (`BetterThan`, Algorithm 3
    /// line 1, and its symmetric counterpart).
    pub(crate) fn key(&self, mem: u64, lat: f64) -> (f64, f64) {
        match *self {
            Objective::MinLatency { mem_limit } => (mem.max(mem_limit) as f64, lat),
            Objective::MinMemory { lat_limit } => (lat.max(lat_limit), mem as f64),
        }
    }

    /// `BetterThan(a, b, δ)`: is `a` better than `δ`-relaxed `b`?
    pub(crate) fn better_than(&self, a: (u64, f64), b: (u64, f64), delta: f64) -> bool {
        let ka = self.key(a.0, a.1);
        let kb = match *self {
            Objective::MinLatency { mem_limit } => {
                ((b.0 as f64 * delta).max(mem_limit as f64), b.1 * delta)
            }
            Objective::MinMemory { lat_limit } => {
                ((b.1 * delta).max(lat_limit), b.0 as f64 * delta)
            }
        };
        ka < kb
    }

    /// Whether a state satisfies the hard constraint.
    pub fn satisfied(&self, mem: u64, lat: f64) -> bool {
        match *self {
            Objective::MinLatency { mem_limit } => mem <= mem_limit,
            Objective::MinMemory { lat_limit } => lat <= lat_limit,
        }
    }
}

/// How much invariant re-checking the search performs on evaluated
/// candidates (see the module docs' *Hardening* section).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParanoiaLevel {
    /// Trust the rewrite/scheduling machinery; only the always-on cost
    /// validation runs.
    Off,
    /// Re-validate graph, schedule, and memory accounting for every
    /// candidate that would become the incumbent (the default: O(1)
    /// validations per incumbent improvement).
    #[default]
    Incumbent,
    /// Re-validate every evaluated candidate, in the worker (most
    /// expensive, catches corruption before it reaches the queue).
    All,
}

impl ParanoiaLevel {
    /// Parses the CLI spelling (`off` / `incumbent` / `all`).
    pub fn parse(s: &str) -> Option<ParanoiaLevel> {
        match s {
            "off" => Some(ParanoiaLevel::Off),
            "incumbent" => Some(ParanoiaLevel::Incumbent),
            "all" => Some(ParanoiaLevel::All),
            _ => None,
        }
    }
}

/// Why the search stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The priority queue ran dry: every reachable state within the
    /// relaxed-dominance frontier was explored.
    #[default]
    QueueExhausted,
    /// The wall-clock budget expired.
    BudgetExpired,
    /// The `max_evals` cap was reached.
    EvalCapReached,
    /// The queue ran dry *because* rule families were quarantined:
    /// faults (injected or real) shut down enough of the rule
    /// vocabulary that the search could no longer expand.
    FaultStorm,
    /// The hard [`SearchBudget::wall_limit`] deadline passed; the
    /// best-so-far incumbent was returned (anytime semantics).
    Deadline,
    /// An external [`CancelToken`] requested cancellation (e.g. a
    /// service draining for shutdown); the best-so-far incumbent was
    /// returned.
    Cancelled,
}

impl StopReason {
    /// Whether the search ran to a *deterministic* completion — the
    /// reachable space was exhausted or a candidate cap (a pure
    /// function of the trajectory, unlike wall clock) was hit. Results
    /// with a deterministic stop are safe to serve from caches keyed on
    /// the job spec; deadline/budget/cancel stops are anytime snapshots
    /// that depend on machine speed.
    pub fn is_deterministic(&self) -> bool {
        matches!(
            self,
            StopReason::QueueExhausted | StopReason::EvalCapReached | StopReason::FaultStorm
        )
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::QueueExhausted => write!(f, "queue-exhausted"),
            StopReason::BudgetExpired => write!(f, "budget-expired"),
            StopReason::EvalCapReached => write!(f, "eval-cap-reached"),
            StopReason::FaultStorm => write!(f, "fault-storm"),
            StopReason::Deadline => write!(f, "deadline"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Periodic checkpointing policy.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Where to write the checkpoint (atomically, via temp + rename).
    pub path: PathBuf,
    /// Write after every this many candidate evaluations (default 64).
    pub every_evals: usize,
    /// Capture the full priority-queue frontier in every checkpoint
    /// (default off). Frontier checkpoints are larger but resume
    /// **trajectory-exact**: the queue, seen-set, and sequence counter
    /// come back verbatim, so a killed run resumed under the same
    /// candidate cap finishes bit-identical to an uninterrupted one.
    /// The final checkpoint of a frontier policy is written *before*
    /// the incumbent's full-beam polish, so a resumed run re-applies
    /// the polish once, at its own true end, exactly like an
    /// uninterrupted run.
    pub frontier: bool,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every 64 evaluations.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { path: path.into(), every_evals: 64, frontier: false }
    }

    /// Replaces the evaluation interval (0 is treated as 1).
    pub fn with_every(mut self, every_evals: usize) -> Self {
        self.every_evals = every_evals.max(1);
        self
    }

    /// Enables (or disables) frontier capture for trajectory-exact
    /// resume.
    pub fn with_frontier(mut self, frontier: bool) -> Self {
        self.frontier = frontier;
        self
    }
}

/// Strike accounting for rule families (`Transform::sort_key().0`):
/// a family that panics or corrupts state `threshold` times stops
/// being generated for the rest of the search.
#[derive(Debug, Clone, Default)]
struct Quarantine {
    threshold: u32,
    strikes: BTreeMap<u8, u32>,
}

impl Quarantine {
    fn new(threshold: u32) -> Self {
        Quarantine { threshold, strikes: BTreeMap::new() }
    }

    fn load(&mut self, entries: &[(u8, u32)]) {
        for &(fam, n) in entries {
            self.strikes.insert(fam, n);
        }
    }

    fn strike(&mut self, family: u8) {
        *self.strikes.entry(family).or_insert(0) += 1;
    }

    fn is_quarantined(&self, family: u8) -> bool {
        self.threshold > 0
            && self.strikes.get(&family).copied().unwrap_or(0) >= self.threshold
    }

    fn entries(&self) -> Vec<(u8, u32)> {
        self.strikes.iter().map(|(&f, &n)| (f, n)).collect()
    }

    fn quarantined_families(&self) -> Vec<u8> {
        self.strikes
            .keys()
            .copied()
            .filter(|&f| self.is_quarantined(f))
            .collect()
    }
}

/// A deterministic search-progress snapshot, reported through a
/// [`ProgressSink`] at every expansion boundary (the search's only
/// synchronization point) and once more after the final polish.
///
/// Every field except `phase` mirrors the values recorded into the
/// [`SearchTimeline`] at the same instant, and all of them are taken
/// on the merge thread *after* the batch merged — the snapshot
/// contents are therefore bit-identical for every thread count, the
/// same way timeline points and count metrics are. Only the *timing*
/// of delivery varies run-to-run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressSnapshot {
    /// Expansion index (0-based, cumulative across resume).
    pub expansion: u64,
    /// Candidates evaluated so far (cumulative across resume).
    pub evaluated: u64,
    /// Incumbent peak memory (liveness accounting), bytes.
    pub best_peak_bytes: u64,
    /// Incumbent allocator-planned peak, when the search steers on the
    /// planned objective.
    pub best_planned_peak_bytes: Option<u64>,
    /// Incumbent simulated latency, seconds.
    pub best_latency: f64,
    /// Current frontier (queue) size.
    pub frontier_size: u64,
    /// Current Pareto-front size.
    pub pareto_size: u64,
    /// Eval-cache hits so far (cumulative across resume).
    pub eval_cache_hits: u64,
    /// Search phase: `"search"` while expanding, `"done"` for the
    /// final snapshot after the polish.
    pub phase: &'static str,
}

/// Consumer of [`ProgressSnapshot`]s. Implementations must be cheap
/// and non-blocking — `report` runs on the merge thread between
/// expansions, so a slow sink slows the search (but can never perturb
/// its trajectory: snapshots are taken after all merge-time decisions).
pub trait ProgressSink: Send + Sync {
    /// Consumes one snapshot.
    fn report(&self, snap: &ProgressSnapshot);
}

/// Cloneable handle wrapping a shared [`ProgressSink`] so it can ride
/// on the (`Clone + Debug`) [`OptimizerConfig`].
#[derive(Clone)]
pub struct ProgressHook(pub Arc<dyn ProgressSink>);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Optimizer configuration.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// What to optimize.
    pub objective: Objective,
    /// Wall-clock search budget (the paper uses 3 minutes; scaled-down
    /// budgets reproduce the same dynamics on the simulator).
    pub budget: Duration,
    /// Hard cap on candidate evaluations (tests / determinism).
    pub max_evals: usize,
    /// F-Tree max-level `L` (Algorithm 1; default 4 per §7.1).
    pub max_level: usize,
    /// Relaxed-push coefficient `δ` (Algorithm 3; 1.1 per §6.2).
    pub delta: f64,
    /// Rule generation knobs (hot-spot filter = `naïve-sch-rule`
    /// ablation, TASO on/off).
    pub rules: RuleConfig,
    /// Evaluation machinery.
    pub ctx: EvalContext,
    /// `naïve-fission` ablation (§7.2.5): replace Algorithm 1 with
    /// random fission candidates.
    pub naive_fission: bool,
    /// Random seed for the naïve-fission ablation.
    pub seed: u64,
    /// Worker threads for candidate evaluation. `1` evaluates inline
    /// (no threads spawned); the default is the machine's available
    /// parallelism. Results are identical for every value — see the
    /// module docs.
    pub threads: usize,
    /// Invariant-enforcement level (default: `Incumbent`).
    pub paranoia: ParanoiaLevel,
    /// Strikes before a rule family is quarantined (default 3;
    /// 0 disables quarantining).
    pub quarantine_threshold: u32,
    /// Deterministic fault injection (tests / chaos drills). `None`
    /// injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Periodic checkpointing. `None` writes no checkpoints.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Capacity of the structural-hash evaluation cache (evaluated
    /// states remembered so duplicate candidates reached via different
    /// rewrite paths skip scheduling + simulation). `0` disables
    /// caching. Default 1024.
    pub eval_cache: usize,
    /// Hard anytime deadline contract: wall-clock limit (stops with
    /// [`StopReason::Deadline`], checked before the soft `budget`) and
    /// candidate cap (combined with `max_evals` as the min). Default
    /// unlimited.
    pub search_budget: SearchBudget,
    /// Cooperative cancellation + heartbeat token. When set, the
    /// search polls it at expansion boundaries and inside the fan-out
    /// (stopping with [`StopReason::Cancelled`]) and bumps its
    /// heartbeat once per expansion and per merged evaluation. `None`
    /// disables both.
    pub cancel: Option<CancelToken>,
    /// Live progress reporting: when set, a [`ProgressSnapshot`] is
    /// delivered at every expansion boundary and once after the final
    /// polish. `None` reports nothing.
    pub progress: Option<ProgressHook>,
    /// Which search strategy drives the optimizer (default
    /// [`DriverKind::Greedy`], the paper's Algorithm 3). Checkpoints
    /// are tagged with the driver; [`resume`] restores the engine
    /// named by the checkpoint, not this field.
    pub driver: DriverKind,
}

impl OptimizerConfig {
    /// Defaults matching the paper's settings, for the given objective.
    pub fn new(objective: Objective) -> Self {
        OptimizerConfig {
            objective,
            budget: Duration::from_secs(10),
            max_evals: usize::MAX,
            max_level: 4,
            delta: 1.1,
            rules: RuleConfig::default(),
            ctx: EvalContext::default(),
            naive_fission: false,
            seed: 0x5eed,
            threads: parallel::available_threads(),
            paranoia: ParanoiaLevel::default(),
            quarantine_threshold: 3,
            fault_plan: None,
            checkpoint: None,
            eval_cache: 1024,
            search_budget: SearchBudget::UNLIMITED,
            cancel: None,
            progress: None,
            driver: DriverKind::default(),
        }
    }

    /// Replaces the time budget.
    pub fn with_budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Caps the number of candidate evaluations.
    pub fn with_max_evals(mut self, max_evals: usize) -> Self {
        self.max_evals = max_evals;
        self
    }

    /// Sets the evaluation worker-thread count (0 is treated as 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the invariant-enforcement level.
    pub fn with_paranoia(mut self, paranoia: ParanoiaLevel) -> Self {
        self.paranoia = paranoia;
        self
    }

    /// Enables deterministic fault injection.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Enables periodic checkpointing.
    pub fn with_checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Sets the quarantine strike threshold (0 disables quarantining).
    pub fn with_quarantine_threshold(mut self, threshold: u32) -> Self {
        self.quarantine_threshold = threshold;
        self
    }

    /// Sets the evaluation-cache capacity (0 disables caching).
    pub fn with_eval_cache(mut self, capacity: usize) -> Self {
        self.eval_cache = capacity;
        self
    }

    /// Sets the hard anytime deadline contract (wall limit and/or
    /// candidate cap).
    pub fn with_search_budget(mut self, budget: SearchBudget) -> Self {
        self.search_budget = budget;
        self
    }

    /// Attaches a cooperative cancellation/heartbeat token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Attaches a live progress sink (see [`ProgressSnapshot`]).
    pub fn with_progress(mut self, sink: Arc<dyn ProgressSink>) -> Self {
        self.progress = Some(ProgressHook(sink));
        self
    }

    /// Selects the search strategy (see [`DriverKind`]).
    pub fn with_driver(mut self, driver: DriverKind) -> Self {
        self.driver = driver;
        self
    }
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
    /// Which [`SearchDriver`] strategy ran the search (resumed runs
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
    /// or memory-accounting violations under [`ParanoiaLevel`]).
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

/// Result of [`optimize`].
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

/// One entry on the greedy best-first priority queue: ordered by the
/// objective key, then by sequence number (insertion order) so the pop
/// sequence is total and deterministic.
pub(crate) struct QueueEntry {
    pub(crate) key: (f64, f64),
    pub(crate) seq: usize,
    pub(crate) state: MState,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for best-first (smallest key).
        other
            .key
            .0
            .total_cmp(&self.key.0)
            .then_with(|| other.key.1.total_cmp(&self.key.1))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The outcome of evaluating one candidate transform. Produced by
/// workers (possibly out of order), consumed by the merge strictly in
/// candidate order.
enum CandOutcome {
    /// The wall-clock budget expired (or the serial eval cap was hit)
    /// before this candidate ran. The merge discards everything from
    /// the first such marker on, keeping the consumed prefix
    /// contiguous.
    Skipped,
    /// Apply or incremental evaluation failed; the candidate is
    /// dropped. In every variant `overlay` is the part of `sched_sim`
    /// spent building the overlay graph.
    Failed { trans: Duration, overlay: Duration, sched_sim: Duration },
    /// Evaluation panicked; the sandbox caught it. Counts a quarantine
    /// strike against the candidate's rule family at the merge.
    Panicked { trans: Duration },
    /// The evaluated cost failed validation (NaN / infinite /
    /// negative latency).
    BadCost { trans: Duration, overlay: Duration, sched_sim: Duration },
    /// Structural invariant violation caught in the worker
    /// ([`ParanoiaLevel::All`] only).
    Invalid { trans: Duration, overlay: Duration, sched_sim: Duration },
    /// A fully evaluated, hashed child state (boxed: this variant is
    /// ~20× the size of the others).
    Evaluated {
        child: Box<MState>,
        hash: u64,
        /// Served from the (batch-frozen) evaluation cache: schedule +
        /// simulate were skipped. Counted at the merge so the counters
        /// are deterministic across thread counts.
        cache_hit: bool,
        /// A post-evaluation fault injection mutated this child; it
        /// must never be inserted into the evaluation cache.
        tainted: bool,
        trans: Duration,
        overlay: Duration,
        sched_sim: Duration,
        hash_t: Duration,
    },
}

/// Re-checks the structural invariants of an evaluated state: the
/// overlay graph validates, the schedule is a topological exactly-once
/// cover of it, and — the cross-check — an independent evaluation of
/// the same order over the uncached cost model reproduces the state's
/// peak memory and latency **bit-for-bit**. The evaluation pipeline
/// and the memoizing `PerfCache` promise exactness, so any divergence
/// means one of them (or a rewrite) corrupted the state. Used by the
/// paranoia gates.
fn check_invariants(child: &MState, ctx: &EvalContext) -> Result<(), String> {
    child.eval.graph.validate().map_err(|e| format!("graph: {e}"))?;
    validate_schedule(&child.eval.graph, &child.eval.order)
        .map_err(|e| format!("schedule: {e}"))?;
    let full = evaluate_checked(&child.eval.graph, &child.eval.order, &ctx.cost())
        .map_err(|e| format!("memory: {e}"))?;
    if full.peak_bytes != child.eval.peak_bytes {
        return Err(format!(
            "cross-check: incremental peak_bytes {} != full {}",
            child.eval.peak_bytes, full.peak_bytes
        ));
    }
    if full.latency.to_bits() != child.eval.latency.to_bits() {
        return Err(format!(
            "cross-check: incremental latency {:e} != full {:e}",
            child.eval.latency, full.latency
        ));
    }
    // The planning stage gets the same treatment: the carried plan must
    // equal (full struct equality — offsets, intervals and peaks) a
    // fresh plan of the same order.
    if let Some(plan) = &child.eval.plan {
        let full_plan = magis_sim::memory_plan(&child.eval.graph, &child.eval.order)
            .map_err(|e| format!("plan: {e}"))?;
        if *plan != full_plan {
            return Err(format!(
                "cross-check: incremental plan diverged (planned peak {} != full {})",
                plan.planned_peak_bytes, full_plan.planned_peak_bytes
            ));
        }
    } else if ctx.mem_objective == magis_sim::MemObjective::Planned {
        return Err("planned objective but the state carries no memory plan".to_string());
    }
    Ok(())
}

/// Apply → hash → cache lookup → (on a miss) incremental reschedule +
/// simulate, with per-phase CPU-time attribution, wrapped in a panic
/// sandbox. Reads shared search state (`cache` is frozen for the whole
/// batch) but never writes it, so it is safe to run concurrently for
/// independent candidates.
///
/// `fault` is `(plan, key)` when fault injection is active: the key
/// is derived from the (expansion, candidate) pair, never from thread
/// identity or timing, so injections are bit-identical across thread
/// counts.
fn evaluate_candidate(
    state: &MState,
    t: &Transform,
    ctx: &EvalContext,
    cache: &EvalCache,
    fault: Option<(&FaultPlan, u64)>,
    paranoia: ParanoiaLevel,
) -> CandOutcome {
    // Observability is suppressed for the whole evaluation — on worker
    // threads AND on the inline path — because parallel workers may
    // over-evaluate past the `max_evals` cap (the merge discards the
    // excess). Anything the sim/sched layers would record here would
    // therefore differ across thread counts. The merge re-attributes
    // the measured durations on the coordinating thread instead.
    magis_obs::gate::suppress(|| {
        let t0 = Instant::now();
        // AssertUnwindSafe: the closure only reads `state`/`ctx`/`cache`
        // and builds fresh values; a panic can leave no broken shared
        // state behind.
        match catch_unwind(AssertUnwindSafe(|| {
            evaluate_candidate_inner(state, t, ctx, cache, fault, paranoia)
        })) {
            Ok(outcome) => outcome,
            Err(_) => CandOutcome::Panicked { trans: t0.elapsed() },
        }
    })
}

fn evaluate_candidate_inner(
    state: &MState,
    t: &Transform,
    ctx: &EvalContext,
    cache: &EvalCache,
    fault: Option<(&FaultPlan, u64)>,
    paranoia: ParanoiaLevel,
) -> CandOutcome {
    if let Some((plan, key)) = fault {
        if plan.should_inject(FaultSite::EvalPanic, key) {
            panic!("injected fault: candidate evaluation panic (key {key:#x})");
        }
    }
    let t0 = Instant::now();
    let applied = match rules::apply(state, t) {
        Ok(a) => a,
        Err(_) => {
            return CandOutcome::Failed {
                trans: t0.elapsed(),
                overlay: Duration::ZERO,
                sched_sim: Duration::ZERO,
            }
        }
    };
    let trans = t0.elapsed();

    // Build the overlay and hash it *before* scheduling: the same hash
    // keys both the seen-set duplicate filter and the evaluation
    // cache, so a candidate whose graph was already evaluated (via any
    // rewrite path) skips the expensive schedule + simulate phases.
    let t0 = Instant::now();
    let built = build_overlay_graph(&applied.base, &applied.ftree);
    let overlay = t0.elapsed();
    let Ok(graph) = built else {
        return CandOutcome::Failed { trans, overlay, sched_sim: overlay };
    };
    let t0 = Instant::now();
    let hash = graph_hash(&graph);
    let hash_t = t0.elapsed();

    let t0 = Instant::now();
    let (mut child, cache_hit) = match cache.get(hash, ctx.mem_objective) {
        Some(cached) => {
            // Hash-equal states are interchangeable to the search (the
            // equivalence the seen-set dedup already relies on), so the
            // cached state is reused wholesale; staleness is inherited
            // from every lineage so re-analysis is never skipped.
            let mut c = cached.clone();
            c.tree_stale = c.tree_stale || applied.tree_stale || state.tree_stale;
            (c, true)
        }
        None => {
            let eval = match evaluate_overlay(&applied.base, graph, Some(state), &applied.mutated, ctx)
            {
                Ok(e) => e,
                Err(EvalError::Apply(_)) => {
                    return CandOutcome::Failed { trans, overlay, sched_sim: overlay + t0.elapsed() }
                }
                Err(EvalError::Cost(_)) => {
                    return CandOutcome::BadCost { trans, overlay, sched_sim: overlay + t0.elapsed() }
                }
            };
            let child = MState {
                base: applied.base,
                ftree: applied.ftree,
                eval,
                tree_stale: applied.tree_stale || state.tree_stale,
            };
            (child, false)
        }
    };
    let sched_sim = overlay + t0.elapsed();

    let mut tainted = false;
    if let Some((plan, key)) = fault {
        // Simulates a buggy rewrite: the state's schedule no longer
        // covers the graph exactly once. Only invariant enforcement
        // can catch this — cost values stay plausible. Injected after
        // the cache lookup so cached clones replay the fault too.
        if plan.should_inject(FaultSite::CorruptRewrite, key) && child.eval.order.len() >= 2 {
            let first = child.eval.order[0];
            let last = child.eval.order.len() - 1;
            child.eval.order[last] = first;
            tainted = true;
        }
        // Simulates a defective cost model *after* the (real)
        // evaluation ran, so the defect reaches the always-on cost
        // validation below rather than being pre-empted by it.
        if plan.should_inject(FaultSite::NanCost, key) {
            child.eval.latency = f64::NAN;
            tainted = true;
        }
        if plan.should_inject(FaultSite::NegativeCost, key) {
            child.eval.latency = -child.eval.latency.abs() - 1.0;
            tainted = true;
        }
    }

    // Always-on cost validation: defective latencies must never reach
    // the objective, whatever the paranoia level.
    if !child.eval.latency.is_finite() || child.eval.latency < 0.0 {
        return CandOutcome::BadCost { trans, overlay, sched_sim };
    }

    if paranoia == ParanoiaLevel::All && check_invariants(&child, ctx).is_err() {
        return CandOutcome::Invalid { trans, overlay, sched_sim };
    }

    CandOutcome::Evaluated {
        child: Box::new(child),
        hash,
        cache_hit,
        tainted,
        trans,
        overlay,
        sched_sim,
        hash_t,
    }
}

// The fan-out shares states and the evaluation context across scoped
// threads; keep the core search types thread-safe by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MState>();
    assert_send_sync::<EvalContext>();
    assert_send_sync::<EvalCache>();
    assert_send_sync::<OptimizerConfig>();
    assert_send_sync::<Transform>();
    assert_send_sync::<FaultPlan>();
};

/// Pre-seeded search bookkeeping: zeroed for a fresh [`optimize`],
/// loaded from a [`SearchCheckpoint`] by [`resume`].
struct SearchSeed {
    seed_cost: (u64, f64),
    counters: CheckpointCounters,
    pareto: Vec<(u64, f64)>,
    seen: Vec<u64>,
    quarantine: Vec<(u8, u32)>,
    resumed: bool,
    /// Restored driver-frontier entries `(seq, state)` from a
    /// frontier-bearing checkpoint (queue entries for greedy, tree
    /// nodes for MCTS). Non-empty switches resume to trajectory-exact
    /// mode: the driver state and seen-set come back verbatim and the
    /// incumbent is not re-pushed.
    frontier: Vec<(u64, MState)>,
    /// The sequence counter to continue from in trajectory-exact mode.
    next_seq: u64,
    /// Which driver produced the checkpoint (fresh searches: the
    /// config's choice).
    driver: DriverKind,
    /// MCTS tree metadata from a frontier-bearing MCTS checkpoint.
    mcts: Option<MctsCheckpoint>,
}

impl SearchSeed {
    fn fresh(seed_cost: (u64, f64), driver: DriverKind) -> Self {
        SearchSeed {
            seed_cost,
            counters: CheckpointCounters::default(),
            pareto: Vec::new(),
            seen: Vec::new(),
            quarantine: Vec::new(),
            resumed: false,
            frontier: Vec::new(),
            next_seq: 0,
            driver,
            mcts: None,
        }
    }
}

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
    let seed = SearchSeed::fresh(init.cost(), cfg.driver);
    run_search(init, seed, cfg)
}

/// Continues a search from a [`SearchCheckpoint`]: the incumbent is
/// restored (both graphs re-validated, its schedule re-checked and
/// re-simulated), the frontier / seen-set / quarantine / counters are
/// reloaded, and the search resumes under the **caller's** config —
/// budget, thread count, and objective are taken from `cfg`, not from
/// the checkpoint.
///
/// # Errors
///
/// Returns a typed [`CheckpointError`] if the checkpoint is corrupt
/// (bad record, invalid schedule, defective re-simulated costs).
pub fn resume(ckpt: &SearchCheckpoint, cfg: &OptimizerConfig) -> Result<OptimizeResult, CheckpointError> {
    let best = ckpt.restore_state(&cfg.ctx)?;
    let frontier = ckpt.restore_frontier(&cfg.ctx)?;
    // An MCTS frontier is a tree: the metadata must pair one-to-one
    // with the restored states (dense node ids, in-range parent links)
    // or the driver cannot be rebuilt.
    if ckpt.driver == DriverKind::Mcts && !frontier.is_empty() {
        let ok = ckpt.mcts.as_ref().is_some_and(|m| {
            m.nodes.len() == frontier.len()
                && frontier.iter().enumerate().all(|(i, (sq, _))| *sq == i as u64)
                && m.nodes.iter().enumerate().all(|(i, n)| {
                    n.parent.map_or(i == 0, |p| (p as usize) < m.nodes.len() && p as usize != i)
                })
        });
        if !ok {
            return Err(CheckpointError::Parse {
                line: 0,
                msg: "mcts tree metadata does not match the frontier".to_string(),
            });
        }
    }
    let seed = SearchSeed {
        seed_cost: ckpt.seed_cost,
        counters: ckpt.counters,
        pareto: ckpt.pareto.clone(),
        seen: ckpt.seen.clone(),
        quarantine: ckpt.quarantine.clone(),
        resumed: true,
        frontier,
        next_seq: ckpt.next_seq,
        driver: ckpt.driver,
        mcts: ckpt.mcts.clone(),
    };
    Ok(run_search(best, seed, cfg))
}

#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    policy: &CheckpointPolicy,
    best: &MState,
    seed_cost: (u64, f64),
    rng_seed: u64,
    pareto: &ParetoSet,
    seen: &BTreeSet<u64>,
    quarantine: &Quarantine,
    stats: &OptimizerStats,
    driver: DriverKind,
    frontier: Option<DriverFrontier>,
) -> Result<(), CheckpointError> {
    let (best_order, ftree_nodes, base_record, eval_record) =
        SearchCheckpoint::snapshot_state(best);
    // Frontier capture: the driver serialized its complete strategy
    // state (queue entries or tree nodes + metadata) into the
    // snapshot; non-frontier checkpoints persist the incumbent only.
    let (next_seq, frontier, mcts) = match frontier {
        Some(f) => (f.next_seq, f.entries, f.mcts),
        None => (0, Vec::new(), None),
    };
    let ckpt = SearchCheckpoint {
        rng_seed,
        seed_cost,
        best_cost: best.cost(),
        counters: CheckpointCounters {
            expanded: stats.expanded as u64,
            evaluated: stats.evaluated as u64,
            candidates: stats.candidates as u64,
            filtered: stats.filtered as u64,
            panicked: stats.panicked as u64,
            cost_rejections: stats.cost_rejections as u64,
            invariant_rejections: stats.invariant_rejections as u64,
            quarantined_candidates: stats.quarantined_candidates as u64,
            checkpoints_written: stats.checkpoints_written as u64,
            checkpoint_failures: stats.checkpoint_failures as u64,
        },
        pareto: pareto.points().to_vec(),
        seen: seen.iter().copied().collect(),
        quarantine: quarantine.entries(),
        best_order,
        ftree_nodes,
        base_record,
        eval_record,
        next_seq,
        frontier,
        driver,
        mcts,
    };
    ckpt.write_to(&policy.path)
}

/// Strikes `family` and, once the family is quarantined, purges its
/// entries from the evaluation cache — a distrusted rule's cached
/// results must not resurrect through future hash hits. Returns the
/// number of cache entries purged.
fn strike_family(quarantine: &mut Quarantine, cache: &mut EvalCache, family: u8) -> usize {
    let before = quarantine.is_quarantined(family);
    quarantine.strike(family);
    let mut purged = 0;
    if quarantine.is_quarantined(family) {
        purged = cache.purge_family(family);
        if !before {
            core_obs().quarantined_families.inc();
            magis_obs::event!(
                "magis_core",
                "quarantine",
                family = rules::family_name(family),
            );
        }
    }
    purged
}

/// The strategy-agnostic search machinery handed to a
/// [`crate::driver::SearchDriver`]: deterministic candidate generation
/// and parallel evaluation, incumbent/Pareto/timeline bookkeeping,
/// quarantine, the evaluation cache, stop probes, progress reporting,
/// and checkpoint cadence. One engine lives for the duration of one
/// [`optimize`] / [`resume`] call; the driver calls
/// [`Engine::admit_pop`] (greedy dedup only), [`Engine::begin`],
/// [`Engine::evaluate`], and [`Engine::boundary`] for every expansion,
/// and the engine guarantees the determinism, sandboxing, and
/// observability contracts are identical for every strategy.
pub struct Engine<'a> {
    cfg: &'a OptimizerConfig,
    start: Instant,
    threads: usize,
    eval_cap: usize,
    candidate_limit: usize,
    seed_cost: (u64, f64),
    driver_kind: DriverKind,
    stats: OptimizerStats,
    timeline: SearchTimeline,
    pareto: ParetoSet,
    history: Vec<ProgressPoint>,
    best: MState,
    seen: BTreeSet<u64>,
    quarantine: Quarantine,
    eval_cache: EvalCache,
    evals_at_last_ckpt: usize,
    stop: Option<StopReason>,
    /// Start of the current expansion, for the wall-clock histogram
    /// and trace span emitted at the boundary.
    exp_t0: Instant,
    last_candidates: usize,
    last_merged: usize,
}

impl<'a> Engine<'a> {
    /// Cooperative stop probe shared by the loop head and the fan-out
    /// workers: cancellation, then the hard deadline, then the soft
    /// budget (the returned reason reflects that priority).
    fn probe_stop(cfg: &OptimizerConfig, start: Instant) -> Option<StopReason> {
        if cfg.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        let elapsed = start.elapsed();
        if cfg.search_budget.wall_limit.is_some_and(|w| elapsed > w) {
            return Some(StopReason::Deadline);
        }
        if elapsed > cfg.budget {
            return Some(StopReason::BudgetExpired);
        }
        None
    }

    /// Loop-head stop check: wall-clock probes first, then the
    /// evaluation caps. Records the stop reason for the post-loop
    /// accounting and returns `true` when the search must end.
    fn should_stop(&mut self) -> bool {
        if let Some(reason) = Self::probe_stop(self.cfg, self.start) {
            self.stop = Some(reason);
            return true;
        }
        if self.stats.evaluated >= self.eval_cap || self.stats.evaluated >= self.candidate_limit {
            self.stop = Some(StopReason::EvalCapReached);
            return true;
        }
        false
    }

    /// The active objective (drivers score and order states with it).
    pub fn objective(&self) -> Objective {
        self.cfg.objective
    }

    /// The seed state's `(peak, latency)` cost — the baseline for
    /// relative rewards.
    pub fn seed_cost(&self) -> (u64, f64) {
        self.seed_cost
    }

    /// Hashes a popped state and inserts it into the seen-set.
    /// Returns `false` (counting a filtered duplicate) when the state
    /// was already expanded — the greedy driver skips such pops
    /// without an expansion boundary. Drivers whose frontier never
    /// revisits states (MCTS) do not call this.
    pub fn admit_pop(&mut self, state: &MState) -> bool {
        let t0 = Instant::now();
        let h = graph_hash(&state.eval.graph);
        self.stats.hash_time += t0.elapsed();
        if !self.seen.insert(h) {
            self.stats.filtered += 1;
            core_obs().filtered.inc();
            return false;
        }
        true
    }

    /// Begins an expansion of `state`: counts it, beats the heartbeat,
    /// re-runs the F-Tree analysis if the state is stale, then
    /// generates the candidate batch — quarantine-filtered and sorted
    /// by [`Transform::sort_key`] so the fan-out order (and therefore
    /// the whole trajectory) is a pure function of the state.
    pub fn begin(&mut self, state: &mut MState) -> Vec<Transform> {
        let obs = core_obs();
        self.stats.expanded += 1;
        obs.expansions.inc();
        if let Some(tok) = &self.cfg.cancel {
            tok.beat();
        }
        self.exp_t0 = Instant::now();
        if state.tree_stale {
            analyze(state, self.cfg, &mut self.stats);
        }

        let t0 = Instant::now();
        let mut candidates = rules::generate(state, &self.cfg.rules);
        // Quarantined rule families stop being explored entirely.
        let before = candidates.len();
        candidates.retain(|t| !self.quarantine.is_quarantined(t.sort_key().0));
        let dropped = before - candidates.len();
        self.stats.quarantined_candidates += dropped;
        obs.quarantined_candidates.add(dropped as u64);
        // Fix the batch order before the fan-out: the merge in
        // `evaluate` consumes results in this order, making the
        // trajectory independent of thread count and generation order.
        candidates.sort_by_key(Transform::sort_key);
        self.stats.trans_time += t0.elapsed();
        self.stats.candidates += candidates.len();
        obs.candidates.add(candidates.len() as u64);
        for t in &candidates {
            self.timeline.family_mut(rules::family_name(t.sort_key().0)).proposed += 1;
        }
        self.last_candidates = candidates.len();
        candidates
    }

    /// Evaluates candidates of `state` and merges the outcomes in
    /// candidate order on this thread — incumbent updates, Pareto
    /// inserts, cache bookkeeping, quarantine strikes, and all metrics
    /// happen here, exactly as in the pre-driver monolithic loop.
    ///
    /// `only` evaluates a single candidate inline (MCTS rollouts);
    /// `None` fans the whole batch out across the configured worker
    /// threads. `dedup` rejects children whose graph hash is already
    /// in the seen-set (greedy); MCTS passes `false` because
    /// transpositions are legitimate tree branches.
    ///
    /// For every successfully evaluated child the `retain` callback
    /// decides whether the driver keeps it (queue push / tree node):
    /// it receives the candidate index, the child (by value), its
    /// cost, and the incumbent cost *after* any incumbent update from
    /// this child. Returning `true` records an accept (metrics, trace
    /// span, timeline); `false` records a `dominated` reject.
    ///
    /// Returns the number of merged (evaluated) candidates.
    pub fn evaluate(
        &mut self,
        state: &MState,
        candidates: &[Transform],
        only: Option<usize>,
        dedup: bool,
        retain: &mut dyn FnMut(usize, MState, (u64, f64), (u64, f64)) -> bool,
    ) -> usize {
        let obs = core_obs();
        let exp_no_u64 = self.stats.expanded as u64;
        let cfg = self.cfg;
        let start = self.start;
        // How many evaluations may still be merged under the cap
        // (saturating: an MCTS rollout chain may overshoot the cap
        // within one driver step before the loop head stops it).
        let remaining = self.eval_cap.saturating_sub(self.stats.evaluated);
        // Injection keys depend only on (expansion, candidate index):
        // identical across thread counts and across reruns.
        let plan = cfg.fault_plan.as_ref();
        let fault_for = |i: usize| plan.map(|p| (p, (exp_no_u64 << 20) | (i as u64 & 0xfffff)));
        let stop_now = move || Self::probe_stop(cfg, start);

        let t_wall = Instant::now();
        // The cache is frozen (shared borrow) for the whole fan-out:
        // workers see identical contents regardless of thread count or
        // completion order; insertions happen below, at the merge.
        let eval_cache = &self.eval_cache;
        let outcomes: Vec<(usize, CandOutcome)> = if let Some(i) = only {
            // Single-candidate path (rollouts): always inline on the
            // driver thread, whatever the thread count.
            let o = if stop_now().is_some() || remaining == 0 {
                CandOutcome::Skipped
            } else {
                evaluate_candidate(state, &candidates[i], &cfg.ctx, eval_cache, fault_for(i), cfg.paranoia)
            };
            vec![(i, o)]
        } else if self.threads > 1 {
            parallel::par_map(self.threads, candidates, |i, t| {
                if stop_now().is_some() {
                    CandOutcome::Skipped
                } else {
                    evaluate_candidate(state, t, &cfg.ctx, eval_cache, fault_for(i), cfg.paranoia)
                }
            })
            .into_iter()
            .enumerate()
            .collect()
        } else {
            // Inline path: identical semantics, but the eval cap can
            // stop work early instead of discarding results at merge.
            let mut out = Vec::with_capacity(candidates.len());
            let mut done = 0usize;
            for (i, t) in candidates.iter().enumerate() {
                if stop_now().is_some() || done >= remaining {
                    out.push(CandOutcome::Skipped);
                    break;
                }
                let o = evaluate_candidate(state, t, &cfg.ctx, eval_cache, fault_for(i), cfg.paranoia);
                if matches!(o, CandOutcome::Evaluated { .. }) {
                    done += 1;
                }
                out.push(o);
            }
            out.into_iter().enumerate().collect()
        };
        self.stats.eval_wall_time += t_wall.elapsed();

        // Deterministic merge: consume outcomes in candidate order on
        // this thread only. Incumbent updates, retain decisions,
        // quarantine strikes, the eval cap — and every metric, trace
        // record, and timeline entry — all happen here.
        let parent_cost = state.cost();
        let mut merged = 0usize;
        for (i, o) in outcomes {
            if matches!(o, CandOutcome::Skipped) {
                break;
            }
            if merged >= remaining {
                // Workers may over-evaluate past the cap; the merge
                // discards the excess — of *every* outcome kind, so
                // counters and quarantine strikes match `threads == 1`,
                // where post-cap candidates never run at all.
                break;
            }
            let family = candidates[i].sort_key().0;
            let fam_name = rules::family_name(family);
            // Re-attributes the worker-measured phase durations as a
            // merge-thread span, keeping the record set deterministic.
            let eval_span = |outcome: &'static str, dur: Duration| {
                if magis_obs::trace::enabled() {
                    magis_obs::trace::span_with_dur(
                        "magis_core",
                        "candidate_eval",
                        dur,
                        magis_obs::fields!(
                            expansion = exp_no_u64,
                            candidate = i,
                            family = fam_name,
                            outcome = outcome,
                        ),
                    );
                }
            };
            let timeline = &mut self.timeline;
            let mut reject = |reason: &'static str, dur: Duration| {
                outcome_counter(family, reason).inc();
                eval_span(reason, dur);
                magis_obs::event!(
                    "magis_core",
                    "reject",
                    expansion = exp_no_u64,
                    candidate = i,
                    family = fam_name,
                    reason = reason,
                );
                let f = timeline.family_mut(fam_name);
                f.rejected += 1;
                f.eval_time_us += dur.as_micros() as u64;
            };
            match o {
                CandOutcome::Skipped => unreachable!("handled above"),
                CandOutcome::Failed { trans, overlay, sched_sim } => {
                    self.stats.trans_time += trans;
                    self.stats.overlay_time += overlay;
                    self.stats.sched_sim_time += sched_sim;
                    reject("apply-failed", trans + sched_sim);
                }
                CandOutcome::Panicked { trans } => {
                    self.stats.trans_time += trans;
                    self.stats.panicked += 1;
                    obs.panicked.inc();
                    reject("panicked", trans);
                    let purged = strike_family(&mut self.quarantine, &mut self.eval_cache, family);
                    self.stats.eval_cache_purged += purged;
                    obs.eval_cache_purged.add(purged as u64);
                }
                CandOutcome::BadCost { trans, overlay, sched_sim } => {
                    self.stats.trans_time += trans;
                    self.stats.overlay_time += overlay;
                    self.stats.sched_sim_time += sched_sim;
                    self.stats.cost_rejections += 1;
                    obs.cost_rejections.inc();
                    reject("bad-cost", trans + sched_sim);
                }
                CandOutcome::Invalid { trans, overlay, sched_sim } => {
                    self.stats.trans_time += trans;
                    self.stats.overlay_time += overlay;
                    self.stats.sched_sim_time += sched_sim;
                    self.stats.invariant_rejections += 1;
                    obs.invariant_rejections.inc();
                    reject("invalid", trans + sched_sim);
                    let purged = strike_family(&mut self.quarantine, &mut self.eval_cache, family);
                    self.stats.eval_cache_purged += purged;
                    obs.eval_cache_purged.add(purged as u64);
                }
                CandOutcome::Evaluated {
                    child,
                    hash,
                    cache_hit,
                    tainted,
                    trans,
                    overlay,
                    sched_sim,
                    hash_t,
                } => {
                    self.stats.trans_time += trans;
                    self.stats.overlay_time += overlay;
                    self.stats.sched_sim_time += sched_sim;
                    self.stats.hash_time += hash_t;
                    merged += 1;
                    self.stats.evaluated += 1;
                    obs.evaluated.inc();
                    if let Some(tok) = &cfg.cancel {
                        tok.beat();
                    }
                    let eval_dur = trans + sched_sim + hash_t;

                    // Cache accounting + insertion happen here — on the
                    // merge thread, in candidate order — so the cache's
                    // contents and counters are deterministic.
                    if cache_hit {
                        self.stats.eval_cache_hits += 1;
                        obs.eval_cache_hits.inc();
                        // LRU refresh: recency only ever advances here,
                        // on the merge thread in candidate order, so
                        // eviction stays bit-identical across thread
                        // counts. No-op if a strike purged the entry
                        // earlier in this merge pass.
                        self.eval_cache.touch(hash, cfg.ctx.mem_objective);
                        magis_obs::event!(
                            "magis_core",
                            "eval_cache_hit",
                            expansion = exp_no_u64,
                            candidate = i,
                            family = fam_name,
                        );
                    } else {
                        self.stats.eval_cache_misses += 1;
                        obs.eval_cache_misses.inc();
                        // Candidates are evaluated with observability
                        // suppressed; the incremental-scheduling counters
                        // are recorded here (merge thread, candidate
                        // order -> deterministic).
                        if let Some(inc) = child.eval.inc {
                            obs.incremental_evals.inc();
                            if inc.carried_won {
                                obs.incremental_carried_wins.inc();
                            }
                            obs.incremental_window.observe(inc.window as f64);
                        }
                        // Tainted children (post-eval fault injections)
                        // and quarantined families are never cached.
                        if !tainted && !self.quarantine.is_quarantined(family) {
                            let evicted = self.eval_cache.insert(
                                hash,
                                (*child).clone(),
                                family,
                                cfg.ctx.mem_objective,
                            );
                            self.stats.eval_cache_evictions += evicted;
                            obs.eval_cache_evictions.add(evicted as u64);
                        }
                    }

                    // Cheap duplicate pre-filter before the retain
                    // decision (greedy only: MCTS treats transpositions
                    // as legitimate tree branches).
                    if dedup && self.seen.contains(&hash) {
                        self.stats.filtered += 1;
                        obs.filtered.inc();
                        reject("duplicate", eval_dur);
                        continue;
                    }

                    let cost = child.cost();
                    let leads = cfg.objective.better_than(cost, self.best.cost(), 1.0);
                    // Invariant gate: a state may only become the
                    // incumbent after its graph, schedule, and memory
                    // accounting re-validate. A violator is dropped
                    // entirely (not queued, not on the frontier) and
                    // strikes its rule family.
                    if leads
                        && cfg.paranoia == ParanoiaLevel::Incumbent
                        && check_invariants(&child, &cfg.ctx).is_err()
                    {
                        self.stats.invariant_rejections += 1;
                        obs.invariant_rejections.inc();
                        reject("invalid", eval_dur);
                        let purged = strike_family(&mut self.quarantine, &mut self.eval_cache, family);
                        self.stats.eval_cache_purged += purged;
                        obs.eval_cache_purged.add(purged as u64);
                        continue;
                    }
                    self.pareto.insert(cost.0, cost.1);
                    if leads {
                        self.best = (*child).clone();
                        self.history.push(ProgressPoint {
                            elapsed: start.elapsed().as_secs_f64(),
                            peak_bytes: cost.0,
                            latency: cost.1,
                        });
                        obs.incumbent_improvements.inc();
                        magis_obs::event!(
                            "magis_core",
                            "incumbent",
                            expansion = exp_no_u64,
                            peak_bytes = cost.0,
                            latency = cost.1,
                        );
                    }
                    // The driver decides retention; the incumbent cost
                    // it sees reflects any update from this very child
                    // (the greedy δ-test reads the incumbent as updated
                    // mid-batch, exactly like Algorithm 3).
                    let best_cost = self.best.cost();
                    if retain(i, *child, cost, best_cost) {
                        obs.queue_pushes.inc();
                        outcome_counter(family, "accept").inc();
                        eval_span("accept", eval_dur);
                        magis_obs::event!(
                            "magis_core",
                            "accept",
                            expansion = exp_no_u64,
                            candidate = i,
                            family = fam_name,
                            peak_bytes = cost.0,
                            latency = cost.1,
                        );
                        let f = self.timeline.family_mut(fam_name);
                        f.accepted += 1;
                        f.mem_delta_bytes += cost.0 as i64 - parent_cost.0 as i64;
                        f.lat_delta += cost.1 - parent_cost.1;
                        f.eval_time_us += eval_dur.as_micros() as u64;
                    } else {
                        // Evaluated but not retained by the driver
                        // (dominated by the δ-relaxed incumbent).
                        reject("dominated", eval_dur);
                    }
                }
            }
        }
        self.last_merged = merged;
        merged
    }

    /// Expansion-boundary bookkeeping: timeline point + Pareto record,
    /// gauges, the expansion histogram and trace span, the progress
    /// snapshot, and the periodic checkpoint (calling `snapshot` for
    /// the driver's frontier when the policy captures one). Drivers
    /// call this exactly once per completed step.
    pub fn boundary(&mut self, frontier_size: u64, snapshot: &mut dyn FnMut() -> DriverFrontier) {
        let obs = core_obs();
        let exp_no_u64 = self.stats.expanded as u64;
        let front = self.pareto.front();
        self.timeline.record_pareto(exp_no_u64, front.clone());
        self.timeline.record_point(TimelinePoint {
            expansion: exp_no_u64,
            evaluated: self.stats.evaluated as u64,
            best_peak_bytes: self.best.eval.peak_bytes,
            best_latency: self.best.eval.latency,
            frontier_size,
            pareto_size: front.len() as u64,
            elapsed_us: self.start.elapsed().as_micros() as u64,
        });
        obs.best_peak_bytes.set(self.best.eval.peak_bytes as f64);
        obs.best_latency.set(self.best.eval.latency);
        obs.frontier_size.set(frontier_size as f64);
        obs.eval_cache_size.set(self.eval_cache.len() as f64);
        obs.expansion_seconds.observe_duration(self.exp_t0.elapsed());
        if let Some(hook) = &self.cfg.progress {
            // Reported after the whole batch merged, on the merge
            // thread, outside any suppression gate — snapshot contents
            // are deterministic (see the determinism contract).
            hook.0.report(&ProgressSnapshot {
                expansion: exp_no_u64,
                evaluated: self.stats.evaluated as u64,
                best_peak_bytes: self.best.eval.peak_bytes,
                best_planned_peak_bytes: self.best.eval.plan.as_ref().map(|p| p.planned_peak_bytes),
                best_latency: self.best.eval.latency,
                frontier_size,
                pareto_size: front.len() as u64,
                eval_cache_hits: self.stats.eval_cache_hits as u64,
                phase: "search",
            });
        }
        if magis_obs::trace::enabled() {
            magis_obs::trace::span_with_dur(
                "magis_core",
                "expansion",
                self.exp_t0.elapsed(),
                magis_obs::fields!(
                    expansion = exp_no_u64,
                    candidates = self.last_candidates,
                    merged = self.last_merged,
                    frontier = frontier_size,
                ),
            );
        }

        if let Some(policy) = &self.cfg.checkpoint {
            if self.stats.evaluated - self.evals_at_last_ckpt >= policy.every_evals {
                self.evals_at_last_ckpt = self.stats.evaluated;
                let frontier = if policy.frontier { Some(snapshot()) } else { None };
                let ok = write_checkpoint(
                    policy,
                    &self.best,
                    self.seed_cost,
                    self.cfg.seed,
                    &self.pareto,
                    &self.seen,
                    &self.quarantine,
                    &self.stats,
                    self.driver_kind,
                    frontier,
                )
                .is_ok();
                if ok {
                    self.stats.checkpoints_written += 1;
                    obs.checkpoints_written.inc();
                } else {
                    // Non-fatal: a full disk must not kill the search.
                    self.stats.checkpoint_failures += 1;
                    obs.checkpoint_failures.inc();
                }
                magis_obs::event!(
                    "magis_core",
                    "checkpoint",
                    expansion = exp_no_u64,
                    ok = ok,
                );
            }
        }
    }
}

fn run_search(mut init: MState, seed: SearchSeed, cfg: &OptimizerConfig) -> OptimizeResult {
    let start = Instant::now();
    let threads = cfg.threads.max(1);
    let obs = core_obs();
    obs.searches.inc();
    let mut stats = OptimizerStats {
        threads,
        driver: seed.driver,
        resumed: seed.resumed,
        expanded: seed.counters.expanded as usize,
        candidates: seed.counters.candidates as usize,
        evaluated: seed.counters.evaluated as usize,
        filtered: seed.counters.filtered as usize,
        panicked: seed.counters.panicked as usize,
        cost_rejections: seed.counters.cost_rejections as usize,
        invariant_rejections: seed.counters.invariant_rejections as usize,
        quarantined_candidates: seed.counters.quarantined_candidates as usize,
        checkpoints_written: seed.counters.checkpoints_written as usize,
        checkpoint_failures: seed.counters.checkpoint_failures as usize,
        ..OptimizerStats::default()
    };
    if seed.resumed {
        // Continue cumulative metrics from the checkpointed counters so
        // a resumed run's snapshot covers the whole logical search.
        obs.resumes.inc();
        let c = &seed.counters;
        obs.expansions.add(c.expanded);
        obs.candidates.add(c.candidates);
        obs.evaluated.add(c.evaluated);
        obs.filtered.add(c.filtered);
        obs.panicked.add(c.panicked);
        obs.cost_rejections.add(c.cost_rejections);
        obs.invariant_rejections.add(c.invariant_rejections);
        obs.quarantined_candidates.add(c.quarantined_candidates);
        obs.checkpoints_written.add(c.checkpoints_written);
        obs.checkpoint_failures.add(c.checkpoint_failures);
        magis_obs::event!(
            "magis_core",
            "resume",
            expanded = c.expanded,
            evaluated = c.evaluated,
        );
    } else {
        // A fresh seed is analyzed up front so that the incumbent
        // carries its F-Tree from the start; a restored incumbent stays
        // stale until it is next expanded.
        analyze(&mut init, cfg, &mut stats);
    }
    let timeline = SearchTimeline::new();
    let mut pareto = ParetoSet::new();
    for (m, l) in seed.pareto {
        pareto.insert(m, l);
    }
    let mut history = Vec::new();

    let (init_peak, init_lat) = init.cost();
    pareto.insert(init_peak, init_lat);
    history.push(ProgressPoint {
        elapsed: start.elapsed().as_secs_f64(),
        peak_bytes: init_peak,
        latency: init_lat,
    });

    let best = init.clone();
    // Trajectory-exact resume: a frontier-bearing checkpoint restores
    // the driver frontier, seen-set, and sequence counter verbatim —
    // the incumbent is NOT re-pushed (its hash stays in the seen-set,
    // as it was already expanded when the checkpoint was written).
    let exact_resume = !seed.frontier.is_empty();
    // Read and written on the driver/merge thread only (pops, the
    // merge loop's duplicate probe, checkpoint writes); ordered, so a
    // checkpoint lists the hashes sorted.
    let mut seen: BTreeSet<u64> = seed.seen.into_iter().collect();
    if !exact_resume {
        // Frontier-free-resume trap: the incumbent's own hash is in
        // the checkpointed seen-set (it was inserted when first
        // expanded). Preloading it verbatim would make the first pop
        // filter the resumed incumbent as a duplicate and end the
        // search immediately.
        seen.remove(&graph_hash(&init.eval.graph));
    }
    let mut quarantine = Quarantine::new(cfg.quarantine_threshold);
    quarantine.load(&seed.quarantine);
    // Not restored on resume: checkpoints don't persist the cache, so
    // a resumed search starts cold (the first duplicate re-primes it).
    let eval_cache = EvalCache::new(cfg.eval_cache);

    // The driver owns the strategy state (greedy queue or MCTS tree);
    // everything else — evaluation, bookkeeping, observability,
    // checkpointing — lives on the engine below.
    let mut driver: Box<dyn SearchDriver> = match seed.driver {
        DriverKind::Greedy => Box::new(GreedyDriver::new(
            cfg,
            init,
            seed.frontier,
            seed.next_seq,
            exact_resume,
        )),
        DriverKind::Mcts => match (&seed.mcts, exact_resume) {
            // Trajectory-exact resume: tree topology, statistics, and
            // RNG state come back verbatim.
            (Some(meta), true) => Box::new(MctsDriver::resume(seed.frontier, meta)),
            // Fresh search (or frontier-free resume): a new tree
            // rooted at the incumbent, RNG reseeded from the config.
            _ => Box::new(MctsDriver::new(cfg, init)),
        },
    };

    let evals_at_last_ckpt = stats.evaluated;
    let mut engine = Engine {
        cfg,
        start,
        threads,
        // The legacy `max_evals` knob truncates evaluation batches
        // mid-expansion. The `SearchBudget` candidate limit
        // deliberately does NOT: it is checked only at expansion
        // boundaries (in `should_stop`), so every expansion merges
        // atomically and the evaluated count may overshoot the limit
        // by one expansion's batch. That boundary-only semantics is
        // what makes the limit the bit-exact kill/resume knob — a run
        // stopped at limit k and resumed to limit n passes through
        // exactly the same boundary states as an uninterrupted run to
        // n, whereas a mid-expansion truncation would discard sibling
        // candidates that the uninterrupted run evaluates.
        eval_cap: cfg.max_evals,
        candidate_limit: cfg.search_budget.candidate_limit.unwrap_or(usize::MAX),
        seed_cost: seed.seed_cost,
        driver_kind: seed.driver,
        stats,
        timeline,
        pareto,
        history,
        best,
        seen,
        quarantine,
        eval_cache,
        evals_at_last_ckpt,
        stop: None,
        exp_t0: start,
        last_candidates: 0,
        last_merged: 0,
    };

    loop {
        // Checked *before* the driver steps: a deadline/budget/cap
        // stop leaves the driver's frontier intact, so a checkpoint
        // written at the stop captures the complete resumable state.
        if engine.should_stop() {
            break;
        }
        if driver.step(&mut engine) == StepOutcome::Exhausted {
            break;
        }
    }

    engine.stats.stop_reason = engine.stop.unwrap_or_else(|| {
        // The frontier ran dry. If rule families were quarantined
        // along the way, faults shrank the reachable space: report a
        // fault storm. (Quarantined candidate *filtering* may never
        // have happened — a total storm kills every child before a
        // second expansion — so the family list, not the filter
        // counter, is the signal.)
        if engine.quarantine.quarantined_families().is_empty() {
            StopReason::QueueExhausted
        } else {
            StopReason::FaultStorm
        }
    });

    engine.stats.quarantine_strikes = engine.quarantine.entries();
    engine.stats.quarantined_families = engine.quarantine.quarantined_families();

    // Frontier checkpoints are exact in-flight snapshots: the final one
    // is written *before* the polish below, and the resumed run
    // re-polishes at its own true end — that keeps kill/resume
    // trajectories bit-identical to the uninterrupted run. Legacy
    // (non-frontier) policies keep recording the polished incumbent.
    let frontier_mode = cfg.checkpoint.as_ref().is_some_and(|p| p.frontier);
    if frontier_mode {
        let policy = cfg.checkpoint.as_ref().expect("frontier_mode implies a policy");
        let ok = write_checkpoint(
            policy,
            &engine.best,
            engine.seed_cost,
            cfg.seed,
            &engine.pareto,
            &engine.seen,
            &engine.quarantine,
            &engine.stats,
            engine.driver_kind,
            Some(driver.frontier_snapshot()),
        )
        .is_ok();
        if ok {
            engine.stats.checkpoints_written += 1;
            obs.checkpoints_written.inc();
        } else {
            engine.stats.checkpoint_failures += 1;
            obs.checkpoint_failures.inc();
        }
        magis_obs::event!("magis_core", "checkpoint", ok = ok, at = "final",);
    }

    // Final polish: reschedule the incumbent with the full-quality beam
    // and keep whichever is better.
    let polished = engine.best.rescheduled(&cfg.ctx);
    if cfg.objective.better_than(polished.cost(), engine.best.cost(), 1.0)
        && (cfg.paranoia == ParanoiaLevel::Off || check_invariants(&polished, &cfg.ctx).is_ok())
    {
        let (p_peak, p_lat) = polished.cost();
        engine.pareto.insert(p_peak, p_lat);
        engine.best = polished;
    }
    if !frontier_mode {
        if let Some(policy) = &cfg.checkpoint {
            let ok = write_checkpoint(
                policy,
                &engine.best,
                engine.seed_cost,
                cfg.seed,
                &engine.pareto,
                &engine.seen,
                &engine.quarantine,
                &engine.stats,
                engine.driver_kind,
                None,
            )
            .is_ok();
            if ok {
                engine.stats.checkpoints_written += 1;
                obs.checkpoints_written.inc();
            } else {
                engine.stats.checkpoint_failures += 1;
                obs.checkpoint_failures.inc();
            }
            magis_obs::event!("magis_core", "checkpoint", ok = ok, at = "final",);
        }
    }
    magis_obs::event!(
        "magis_core",
        "stop",
        reason = engine.stats.stop_reason.to_string(),
        expanded = engine.stats.expanded,
        evaluated = engine.stats.evaluated,
    );
    obs.best_peak_bytes.set(engine.best.eval.peak_bytes as f64);
    obs.best_latency.set(engine.best.eval.latency);
    if let Some(hook) = &cfg.progress {
        // Terminal snapshot: the post-polish incumbent. Deterministic
        // like every other snapshot — the polish itself is.
        hook.0.report(&ProgressSnapshot {
            expansion: engine.stats.expanded as u64,
            evaluated: engine.stats.evaluated as u64,
            best_peak_bytes: engine.best.eval.peak_bytes,
            best_planned_peak_bytes: engine.best.eval.plan.as_ref().map(|p| p.planned_peak_bytes),
            best_latency: engine.best.eval.latency,
            frontier_size: driver.frontier_len(),
            pareto_size: engine.pareto.front().len() as u64,
            eval_cache_hits: engine.stats.eval_cache_hits as u64,
            phase: "done",
        });
    }
    engine.timeline.memory_profile =
        memory_profile(&engine.best.eval.graph, &engine.best.eval.order).step_bytes;
    // Planner outcome for the timeline: the winning state's allocator
    // high-water mark and fragmentation overhead (zeros = planner off).
    if let Some(plan) = &engine.best.eval.plan {
        engine.timeline.planned_peak_bytes = plan.planned_peak_bytes;
        engine.timeline.fragmentation_ratio = plan.fragmentation_ratio();
    }
    OptimizeResult {
        best: engine.best,
        pareto: engine.pareto,
        history: engine.history,
        stats: engine.stats,
        timeline: engine.timeline,
    }
}

/// Runs the M-Analyzer on `state` and books it. Only ever called on
/// the driver thread, so the count and the attribution do not depend
/// on the thread count.
fn analyze(state: &mut MState, cfg: &OptimizerConfig, stats: &mut OptimizerStats) {
    let t0 = Instant::now();
    if cfg.naive_fission {
        state.ftree = crate::ftree::FTree::build_naive(&state.base, 12, cfg.seed);
        state.tree_stale = false;
    } else {
        state.analyze(cfg.max_level);
    }
    stats.analyze_time += t0.elapsed();
    stats.analyses += 1;
}

/// Convenience: optimize for minimum memory with a relative latency
/// budget `lat_factor` × the unoptimized latency (the §7.2.1 setting).
pub fn optimize_memory(g: Graph, lat_factor: f64, cfg_base: &OptimizerConfig) -> OptimizeResult {
    let init = MState::initial(g, &cfg_base.ctx);
    let mut cfg = cfg_base.clone();
    cfg.objective = Objective::MinMemory { lat_limit: init.eval.latency * lat_factor };
    optimize_from(init, &cfg)
}

/// Convenience: optimize for minimum latency with a relative memory
/// budget `mem_factor` × the unoptimized peak (the §7.2.2 setting).
pub fn optimize_latency(g: Graph, mem_factor: f64, cfg_base: &OptimizerConfig) -> OptimizeResult {
    let init = MState::initial(g, &cfg_base.ctx);
    let mut cfg = cfg_base.clone();
    cfg.objective = Objective::MinLatency {
        mem_limit: (init.eval.peak_bytes as f64 * mem_factor) as u64,
    };
    optimize_from(init, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::builder::GraphBuilder;
    use magis_graph::grad::{append_backward, TrainOptions};
    use magis_graph::tensor::DType;
    use std::collections::BinaryHeap;

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
    fn queue_orders_best_first() {
        let obj = Objective::MinMemory { lat_limit: 1.0 };
        let mut q: BinaryHeap<QueueEntry> = BinaryHeap::new();
        let g = train_mlp(2);
        let ctx = EvalContext::default();
        let s = MState::initial(g, &ctx);
        for (i, (m, l)) in [(100u64, 0.5), (50, 0.5), (70, 0.5)].iter().enumerate() {
            q.push(QueueEntry { key: obj.key(*m, *l), seq: i, state: s.clone() });
        }
        assert_eq!(q.pop().unwrap().key, obj.key(50, 0.5));
        assert_eq!(q.pop().unwrap().key, obj.key(70, 0.5));
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
        let mut q = Quarantine::new(2);
        assert!(!q.is_quarantined(4));
        q.strike(4);
        assert!(!q.is_quarantined(4));
        q.strike(4);
        assert!(q.is_quarantined(4));
        assert_eq!(q.quarantined_families(), vec![4]);
        assert_eq!(q.entries(), vec![(4, 2)]);
        // Threshold 0 disables quarantining entirely.
        let mut q = Quarantine::new(0);
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
        // Cache hits clone previously evaluated states that are
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
        let s = MState::initial(g, &EvalContext::default());
        let lv = magis_sim::MemObjective::Liveness;
        let mut cache = EvalCache::new(16);
        cache.insert(11, s.clone(), 4, lv);
        cache.insert(12, s.clone(), 4, lv);
        cache.insert(13, s, 5, lv);
        let mut q = Quarantine::new(2);
        assert_eq!(strike_family(&mut q, &mut cache, 4), 0, "below threshold: no purge");
        assert!(cache.get(11, lv).is_some());
        // Second strike quarantines family 4: its entries must go so a
        // later hash hit can't resurrect a distrusted rule's result.
        assert_eq!(strike_family(&mut q, &mut cache, 4), 2);
        assert!(cache.get(11, lv).is_none() && cache.get(12, lv).is_none());
        assert!(cache.get(13, lv).is_some(), "other families keep their entries");
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
}
