//! What a search is asked to do: the objective, the invariant level,
//! the checkpoint policy, the progress hook, [`OptimizerConfig`] — and
//! the reasons it stops.

use crate::budget::{CancelToken, SearchBudget};
use crate::driver::DriverKind;
use crate::rules::RuleConfig;
use crate::state::EvalContext;
use magis_util::fault::FaultPlan;
use magis_util::parallel;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

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
    /// The paper's way of stating a search, relative to the unoptimized
    /// graph: `mode` `"memory"` minimises peak memory under `limit` ×
    /// the seed's latency (§7.2.1, default 1.10), `"latency"` minimises
    /// latency under `limit` × the seed's peak memory (§7.2.2, default
    /// 0.8). `seed_cost` is the seed's [`crate::state::MState::cost`] —
    /// the figure the search compares against the limit under either
    /// memory objective. `None` for any other mode.
    pub fn relative(mode: &str, limit: Option<f64>, seed_cost: (u64, f64)) -> Option<Objective> {
        match mode {
            "memory" => {
                Some(Objective::MinMemory { lat_limit: seed_cost.1 * limit.unwrap_or(1.10) })
            }
            "latency" => Some(Objective::MinLatency {
                mem_limit: (seed_cost.0 as f64 * limit.unwrap_or(0.8)) as u64,
            }),
            _ => None,
        }
    }

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
    /// The `max_evals` cap was reached.
    EvalCapReached,
    /// The queue ran dry *because* rule families were quarantined:
    /// faults (injected or real) shut down enough of the rule
    /// vocabulary that the search could no longer expand.
    FaultStorm,
    /// The wall-clock [`OptimizerConfig::budget`] ran out; the
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
    /// the job spec; deadline and cancel stops are anytime snapshots
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
            StopReason::EvalCapReached => write!(f, "eval-cap-reached"),
            StopReason::FaultStorm => write!(f, "fault-storm"),
            StopReason::Deadline => write!(f, "deadline"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// The CLI's and the daemon's interval, in merged evaluations: a crash loses one at most.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 16;

/// Periodic checkpointing policy. Every checkpoint carries the driver
/// frontier, so every resume is **trajectory-exact**: the queue (or
/// tree), seen-set, and sequence counter come back verbatim, and a
/// killed run resumed under the same candidate cap finishes
/// bit-identical to an uninterrupted one. The final checkpoint is
/// written *before* the incumbent's full-beam polish, so a resumed run
/// re-applies the polish once, at its own true end, exactly like an
/// uninterrupted run.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Where to write the checkpoint (atomically, via temp + rename).
    pub path: PathBuf,
    /// Write after every this many evaluations ([`DEFAULT_CHECKPOINT_EVERY`] by default).
    pub every_evals: usize,
}

impl CheckpointPolicy {
    /// A policy writing to `path` every [`DEFAULT_CHECKPOINT_EVERY`] evaluations.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointPolicy { path: path.into(), every_evals: DEFAULT_CHECKPOINT_EVERY }
    }

    /// Replaces the evaluation interval (0 is treated as 1).
    pub fn with_every(mut self, every_evals: usize) -> Self {
        self.every_evals = every_evals.max(1);
        self
    }

    /// Kept for the benchmark harness, which asks for what every
    /// checkpoint now carries.
    #[doc(hidden)]
    pub fn with_frontier(self, frontier: bool) -> Self {
        debug_assert!(frontier, "every checkpoint carries the frontier");
        self
    }
}

/// A deterministic search-progress snapshot, reported through a
/// [`ProgressSink`] at every expansion boundary (the search's only
/// synchronization point) and once more after the final polish.
///
/// Every field except `phase` mirrors the values recorded into the
/// [`magis_obs::timeline::SearchTimeline`] at the same instant, and
/// all of them are taken on the merge thread *after* the batch merged
/// — the snapshot
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
    /// The search's one wall-clock limit (the paper uses 3 minutes;
    /// scaled-down budgets reproduce the same dynamics on the
    /// simulator). When it runs out the search stops with
    /// [`StopReason::Deadline`] and returns its best-so-far incumbent.
    pub budget: Duration,
    /// Hard cap on candidate evaluations (tests / determinism).
    pub max_evals: usize,
    /// F-Tree max-level `L` (Algorithm 1; default 4 per §7.1).
    pub max_level: usize,
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
    /// Boundary-checked candidate cap (combined with `max_evals` as the
    /// min). Default unlimited.
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
    /// are tagged with the driver; [`super::resume`] restores the engine
    /// named by the checkpoint, not this field.
    pub driver: DriverKind,
}

impl Default for OptimizerConfig {
    /// The paper's settings, minimising peak memory with no latency
    /// bound. A relative search replaces the objective with
    /// [`Objective::relative`] against its seed's cost and runs
    /// [`super::optimize_from`] from that seed.
    fn default() -> Self {
        OptimizerConfig {
            objective: Objective::MinMemory { lat_limit: f64::INFINITY },
            budget: Duration::from_secs(10),
            max_evals: usize::MAX,
            max_level: 4,
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
}

impl OptimizerConfig {
    /// Defaults matching the paper's settings, for the given objective.
    pub fn new(objective: Objective) -> Self {
        OptimizerConfig { objective, ..OptimizerConfig::default() }
    }

    /// Replaces the wall-clock limit.
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

    /// Sets the boundary-checked candidate cap.
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
