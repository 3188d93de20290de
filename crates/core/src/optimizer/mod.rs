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
//! the [`crate::state::EvalContext`] disables the schedule reuse for
//! baseline comparisons.
//!
//! On top of that, an [`crate::eval_cache::EvalCache`] keyed by the
//! overlay graph's structural hash short-circuits duplicate candidates
//! reached via different rewrite paths: the hash is computed *before*
//! scheduling, and a hit reuses the previously evaluated state
//! wholesale: the cache, the driver's frontier and the incumbent hold
//! one `Arc` of each evaluated state, and a writer copies it first.
//! Workers read a cache frozen for the whole batch; hits are
//! counted and new entries inserted only at the merge, in candidate
//! order, so caching never perturbs the determinism contract below. The cache is not
//! persisted in checkpoints — a resumed search starts cold, which is
//! the one place caching shows: a hit hands back a hash-equal state
//! that may have been reached through another lineage (another node
//! order, hence another float summation order), so a run resumed from
//! a checkpoint reproduces the uninterrupted run's incumbent,
//! counts and timeline exactly, and every Pareto point too only with
//! the cache off (`tests/checkpoint_resume.rs`).
//!
//! # Parallel candidate evaluation
//!
//! Each expansion generates all candidate transforms, sorts them by
//! [`crate::rules::Transform::sort_key`], evaluates the batch (apply → hash → cache
//! lookup → incremental reschedule + simulate on a miss) on up to
//! [`OptimizerConfig::threads`] workers (the search thread and scoped
//! threads beside it), then merges the
//! results back **in candidate order**: queue pushes, incumbent
//! updates, sequence numbers, quarantine strikes, and the `max_evals`
//! cap are all applied single-threaded at the merge. The search
//! trajectory is therefore a pure function of the input — `threads =
//! 1` and `threads = N` produce identical results (given a wall-clock
//! budget generous enough that neither run times out mid-batch).
//! There is one fan-out — `Engine::evaluate`'s `par_map` call — for
//! threaded batches, inline batches and MCTS rollout steps alike, and
//! one merge behind it.
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
//!   killed search from its last checkpoint on the same trajectory.
//!
//! # Layout
//!
//! `config` (what a search is asked to do, and why it stops), `stats`
//! (what it reports, and the metric handles), `candidate` (one
//! candidate evaluated in a sandbox), `engine` (the [`Engine`] a
//! [`crate::driver::SearchDriver`] steers: generation, fan-out, merge,
//! progress, checkpoints), `run` (the entry points and the loop).

mod candidate;
mod config;
mod engine;
mod run;
mod stats;
#[cfg(test)]
mod tests;

pub use config::{
    CheckpointPolicy, Objective, OptimizerConfig, ParanoiaLevel, ProgressHook, ProgressSink,
    ProgressSnapshot, StopReason, DEFAULT_CHECKPOINT_EVERY,
};
pub use engine::Engine;
pub use run::{optimize, optimize_from, resume, try_optimize};
pub use stats::{OptimizeResult, OptimizerStats, ProgressPoint};
