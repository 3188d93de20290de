//! The [`Engine`]: everything a search strategy shares — candidate
//! generation, the fan-out and its deterministic merge, incumbent /
//! Pareto / timeline bookkeeping, quarantine, progress snapshots and
//! the checkpoint writer.

use super::candidate::{
    check_invariants, evaluate_candidate, CandOutcome, Evaluated, ParentTables, PhaseTimes, Reject,
    Verdict,
};
use super::config::{Objective, OptimizerConfig, ParanoiaLevel, ProgressSnapshot, StopReason};
use super::stats::{core_obs, outcome_counter, OptimizerStats, ProgressPoint};
use crate::budget::CancelToken;
use crate::checkpoint::{SearchCheckpoint, StateRecord};
use crate::driver::DriverFrontier;
use crate::eval_cache::EvalCache;
use crate::pareto::ParetoSet;
use crate::rules::{self, Transform};
use crate::state::MState;
use magis_graph::algo::ParentDigests;
use magis_graph::io::RecordLines;
use magis_obs::timeline::{SearchTimeline, TimelinePoint};
use magis_util::parallel;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A driver's retain decision on one evaluated child (see
/// [`Engine::evaluate`]).
type Retain<'r> = dyn FnMut(usize, Arc<MState>, (u64, f64), (u64, f64)) -> bool + 'r;

/// Strike accounting for rule families (`Transform::sort_key().0`):
/// a family that panics or corrupts state `threshold` times stops
/// being generated for the rest of the search.
#[derive(Debug, Clone, Default)]
pub(super) struct Quarantine {
    threshold: u32,
    strikes: BTreeMap<u8, u32>,
}

impl Quarantine {
    /// `entries` are strikes already on record (a checkpoint's).
    pub(super) fn new(threshold: u32, entries: &[(u8, u32)]) -> Self {
        Quarantine { threshold, strikes: entries.iter().copied().collect() }
    }

    pub(super) fn strike(&mut self, family: u8) {
        *self.strikes.entry(family).or_insert(0) += 1;
    }

    pub(super) fn is_quarantined(&self, family: u8) -> bool {
        self.threshold > 0
            && self.strikes.get(&family).copied().unwrap_or(0) >= self.threshold
    }

    pub(super) fn entries(&self) -> Vec<(u8, u32)> {
        self.strikes.iter().map(|(&f, &n)| (f, n)).collect()
    }

    pub(super) fn quarantined_families(&self) -> Vec<u8> {
        self.strikes
            .keys()
            .copied()
            .filter(|&f| self.is_quarantined(f))
            .collect()
    }
}

/// Strikes `family` and, once the family is quarantined, purges its
/// entries from the evaluation cache — a distrusted rule's cached
/// results must not resurrect through future hash hits.
pub(super) fn strike_family(
    quarantine: &mut Quarantine,
    cache: &mut EvalCache,
    stats: &mut OptimizerStats,
    family: u8,
) {
    let before = quarantine.is_quarantined(family);
    quarantine.strike(family);
    if quarantine.is_quarantined(family) {
        let purged = cache.purge_family(family);
        stats.eval_cache_purged += purged;
        if !before {
            core_obs().quarantined_families.inc();
            magis_obs::event!(
                "magis_core",
                "quarantine",
                family = rules::family_name(family),
            );
        }
    }
}

/// The strategy-agnostic search machinery handed to a
/// [`crate::driver::SearchDriver`]: deterministic candidate generation
/// and parallel evaluation, incumbent/Pareto/timeline bookkeeping,
/// quarantine, the evaluation cache, stop probes, progress reporting,
/// and checkpoint cadence. One engine lives for the duration of one
/// [`super::optimize`] / [`super::resume`] call; the driver calls
/// [`Engine::admit_pop`] (greedy dedup only), [`Engine::begin`],
/// [`Engine::evaluate`], and [`Engine::boundary`] for every expansion,
/// and the engine guarantees the determinism, sandboxing, and
/// observability contracts are identical for every strategy.
pub struct Engine<'a> {
    pub(super) cfg: &'a OptimizerConfig,
    pub(super) start: Instant,
    pub(super) seed_cost: (u64, f64),
    pub(super) stats: OptimizerStats,
    pub(super) timeline: SearchTimeline,
    pub(super) pareto: ParetoSet,
    pub(super) history: Vec<ProgressPoint>,
    /// The incumbent: the same allocation as the evaluated child it
    /// was, which the cache and the frontier may hold too.
    pub(super) best: Arc<MState>,
    pub(super) seen: BTreeSet<u64>,
    /// The digests [`Engine::admit_pop`] hashed the state it admitted
    /// with, which that state's fan-out carries its children's from.
    pub(super) popped: Option<ParentDigests>,
    pub(super) quarantine: Quarantine,
    pub(super) eval_cache: EvalCache,
    pub(super) evals_at_last_ckpt: usize,
    pub(super) stop: Option<StopReason>,
    /// Start of the current expansion, for the wall-clock histogram
    /// and trace span emitted at the boundary.
    pub(super) exp_t0: Instant,
    pub(super) last_candidates: usize,
    pub(super) last_merged: usize,
    /// What [`OptimizerStats::publish`] last published for this search.
    pub(super) published: [usize; OptimizerStats::PUBLISHED.len()],
}

impl<'a> Engine<'a> {
    /// An engine that continues `from` (the blank checkpoint for a
    /// fresh search) with `best` as its incumbent: the seen-set and
    /// the quarantine strikes are the checkpoint's, the evaluation
    /// cache starts cold (checkpoints do not persist it; the first
    /// duplicate re-primes it).
    pub(super) fn new(
        cfg: &'a OptimizerConfig,
        start: Instant,
        from: &SearchCheckpoint,
        stats: OptimizerStats,
        pareto: ParetoSet,
        history: Vec<ProgressPoint>,
        best: Arc<MState>,
    ) -> Self {
        Engine {
            cfg,
            start,
            seed_cost: from.seed_cost,
            evals_at_last_ckpt: stats.evaluated,
            stats,
            timeline: SearchTimeline::new(),
            pareto,
            history,
            best,
            // Read and written on the driver/merge thread only (pops,
            // the merge loop's duplicate probe, checkpoint writes);
            // ordered, so a checkpoint lists the hashes sorted. A
            // resumed incumbent's hash stays in it: the incumbent was
            // expanded before the checkpoint was written, and is not
            // re-pushed.
            seen: from.seen.iter().copied().collect(),
            popped: None,
            quarantine: Quarantine::new(cfg.quarantine_threshold, &from.quarantine),
            eval_cache: EvalCache::new(cfg.eval_cache),
            stop: None,
            exp_t0: start,
            last_candidates: 0,
            last_merged: 0,
            published: Default::default(),
        }
    }

    /// Cooperative stop probe shared by the loop head and the fan-out
    /// workers: cancellation, then the wall-clock limit (the returned
    /// reason reflects that priority).
    fn probe_stop(cfg: &OptimizerConfig, start: Instant) -> Option<StopReason> {
        if cfg.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(StopReason::Cancelled);
        }
        (start.elapsed() > cfg.budget).then_some(StopReason::Deadline)
    }

    /// Loop-head stop check: wall-clock probes first, then the
    /// evaluation caps. Records the stop reason for the post-loop
    /// accounting and returns `true` when the search must end.
    pub(super) fn should_stop(&mut self) -> bool {
        if let Some(reason) = Self::probe_stop(self.cfg, self.start) {
            self.stop = Some(reason);
            return true;
        }
        // The legacy `max_evals` knob also truncates evaluation batches
        // mid-expansion (in `evaluate`). The `SearchBudget` candidate
        // limit deliberately does NOT: it is checked only here, at
        // expansion boundaries, so every expansion merges atomically
        // and the evaluated count may overshoot the limit by one
        // expansion's batch. That boundary-only semantics is what makes
        // the limit the bit-exact kill/resume knob — a run stopped at
        // limit k and resumed to limit n passes through exactly the
        // same boundary states as an uninterrupted run to n, whereas a
        // mid-expansion truncation would discard sibling candidates
        // that the uninterrupted run evaluates.
        let limit = self.cfg.search_budget.candidate_limit.unwrap_or(usize::MAX);
        if self.stats.evaluated >= self.cfg.max_evals.min(limit) {
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
    /// without an expansion boundary. An admitted state's digests are
    /// kept for its expansion's fan-out ([`Engine::evaluate`]), so it
    /// is hashed once. Drivers whose frontier never revisits states
    /// (MCTS) do not call this.
    pub fn admit_pop(&mut self, state: &MState) -> bool {
        let t0 = Instant::now();
        let digests = ParentDigests::of(&state.eval.graph);
        self.stats.hash_time += t0.elapsed();
        if !self.seen.insert(digests.digests().hash()) {
            self.stats.filtered += 1;
            return false;
        }
        self.popped = Some(digests);
        true
    }

    /// Begins an expansion of `state`: counts it, beats the heartbeat,
    /// re-runs the F-Tree analysis if the state is stale, then
    /// generates the candidate batch — quarantine-filtered and sorted
    /// by [`Transform::sort_key`] so the fan-out order (and therefore
    /// the whole trajectory) is a pure function of the state. The
    /// analysis writes to `state` alone: a state the evaluation cache
    /// (or anyone else) still shares is copied first.
    pub fn begin(&mut self, state: &mut Arc<MState>) -> Vec<Transform> {
        self.stats.expanded += 1;
        if let Some(tok) = &self.cfg.cancel {
            tok.beat();
        }
        self.exp_t0 = Instant::now();
        if state.tree_stale {
            analyze(Arc::make_mut(state), self.cfg, &mut self.stats);
        }

        let t0 = Instant::now();
        let mut candidates = rules::generate(state, &self.cfg.rules);
        // Quarantined rule families stop being explored entirely.
        let before = candidates.len();
        candidates.retain(|t| !self.quarantine.is_quarantined(t.sort_key().0));
        let dropped = before - candidates.len();
        self.stats.quarantined_candidates += dropped;
        // Fix the batch order before the fan-out: the merge in
        // `evaluate` consumes results in this order, making the
        // trajectory independent of thread count and generation order.
        candidates.sort_by_key(Transform::sort_key);
        self.stats.trans_time += t0.elapsed();
        self.stats.candidates += candidates.len();
        for t in &candidates {
            self.timeline.family_mut(rules::family_name(t.sort_key().0)).proposed += 1;
        }
        self.last_candidates = candidates.len();
        candidates
    }

    /// Evaluates candidates of `state` and merges the outcomes in
    /// candidate order on this thread — incumbent updates, Pareto
    /// inserts, cache bookkeeping, quarantine strikes, and all metrics
    /// happen at the merge.
    ///
    /// `only` evaluates a single candidate inline (MCTS rollouts);
    /// `None` fans the whole batch out across the configured worker
    /// threads. `dedup` rejects children whose graph hash is already
    /// in the seen-set (greedy); MCTS passes `false` because
    /// transpositions are legitimate tree branches.
    ///
    /// For every successfully evaluated child the `retain` callback
    /// decides whether the driver keeps it (queue push / tree node):
    /// it receives the candidate index, the child (the allocation the
    /// evaluation cache shares), its cost, and the incumbent cost
    /// *after* any incumbent update from this child. Returning `true`
    /// records an accept (metrics, trace span, timeline); `false`
    /// records a `dominated` reject.
    ///
    /// Returns the number of merged (evaluated) candidates.
    pub fn evaluate(
        &mut self,
        state: &MState,
        candidates: &[Transform],
        only: Option<usize>,
        dedup: bool,
        retain: &mut Retain<'_>,
    ) -> usize {
        let (cfg, start) = (self.cfg, self.start);
        let expansion = self.stats.expanded as u64;
        // How many evaluations may still be merged under the cap
        // (saturating: an MCTS rollout chain may overshoot the cap
        // within one driver step before the loop head stops it).
        let remaining = cfg.max_evals.saturating_sub(self.stats.evaluated);
        // A rollout is the batch call on a one-element slice, forced
        // inline whatever the thread count.
        let (first, batch, threads) = match only {
            Some(i) => (i, &candidates[i..=i], 1),
            None => (0, candidates, self.stats.threads),
        };
        // A batch's children carry their hash and latencies from the
        // parent's tables, built here once (the digests by `admit_pop`,
        // where it admitted `state`) and dropped with the batch; a
        // rollout step's one child computes both whole.
        let popped = self.popped.take();
        let tables = only.is_none().then(|| {
            let (tables, times) = ParentTables::of(state, &cfg.ctx, popped);
            self.stats.hash_time += times.hash;
            self.stats.sched_sim_time += times.sched_sim;
            tables
        });
        // The cache is frozen (shared borrow) for the whole fan-out:
        // workers see identical contents regardless of thread count or
        // completion order; insertions happen below, at the merge.
        let cache = &self.eval_cache;
        let done = AtomicUsize::new(0);
        let t_wall = Instant::now();
        let outcomes = parallel::par_map(threads, batch, |k, t| {
            // Handed out serially, `done` counts exactly the
            // evaluations before this candidate, so work stops at the
            // cap. Threaded workers stay cap-oblivious — one may not
            // skip candidate i because some j > i already evaluated —
            // and the merge discards what they evaluate past it.
            if Self::probe_stop(cfg, start).is_some()
                || (threads == 1 && done.load(Ordering::Relaxed) >= remaining)
            {
                return CandOutcome { times: PhaseTimes::default(), verdict: Verdict::Skipped };
            }
            // Injection keys depend only on (expansion, candidate
            // index): identical across thread counts and across reruns.
            let fault_key = (expansion << 20) | ((first + k) as u64 & 0xfffff);
            let o = evaluate_candidate(state, t, cfg, cache, tables.as_ref(), fault_key);
            if matches!(o.verdict, Verdict::Evaluated(_)) {
                done.fetch_add(1, Ordering::Relaxed);
            }
            o
        });
        self.stats.eval_wall_time += t_wall.elapsed();

        // Deterministic merge: consume outcomes in candidate order on
        // this thread only, up to the first skipped marker or the cap.
        // Past the cap *every* outcome kind is discarded, so counters
        // and quarantine strikes match `threads == 1`, where post-cap
        // candidates never run at all.
        let parent_cost = state.cost();
        let mut merged = 0usize;
        for (k, o) in outcomes.into_iter().enumerate() {
            if matches!(o.verdict, Verdict::Skipped) || merged >= remaining {
                break;
            }
            let i = first + k;
            merged += self.merge(i, candidates[i].sort_key().0, parent_cost, o, dedup, retain) as usize;
        }
        self.last_merged = merged;
        merged
    }

    /// Merges candidate `i`'s outcome: books the worker-measured phase
    /// times, resolves the verdict to an accept or a [`Reject`], and
    /// records it — every counter, trace record (the durations become
    /// a merge-thread span, keeping the record set deterministic) and
    /// timeline entry. Returns whether the outcome was an evaluation.
    fn merge(
        &mut self,
        i: usize,
        family: u8,
        parent_cost: (u64, f64),
        outcome: CandOutcome,
        dedup: bool,
        retain: &mut Retain<'_>,
    ) -> bool {
        let obs = core_obs();
        let expansion = self.stats.expanded as u64;
        let fam_name = rules::family_name(family);
        let CandOutcome { times, verdict } = outcome;
        self.stats.trans_time += times.trans;
        self.stats.overlay_time += times.overlay;
        self.stats.sched_sim_time += times.sched_sim;
        self.stats.hash_time += times.hash;
        let evaluated = matches!(verdict, Verdict::Evaluated(_));
        let resolved = match verdict {
            Verdict::Skipped => unreachable!("the merge stops at the first skipped marker"),
            Verdict::Rejected(reject) => Err(reject),
            Verdict::Evaluated(ev) => self.admit(i, family, ev, dedup, retain),
        };

        let label = resolved.map_or_else(Reject::reason, |_| "accept");
        let dur = times.total();
        outcome_counter(family, label).inc();
        if magis_obs::trace::enabled() {
            magis_obs::trace::span_with_dur(
                "magis_core",
                "candidate_eval",
                dur,
                magis_obs::fields!(
                    expansion = expansion,
                    candidate = i,
                    family = fam_name,
                    outcome = label,
                ),
            );
        }
        let f = self.timeline.family_mut(fam_name);
        f.eval_time_us += dur.as_micros() as u64;
        match resolved {
            Ok(cost) => {
                obs.queue_pushes.inc();
                magis_obs::event!(
                    "magis_core",
                    "accept",
                    expansion = expansion,
                    candidate = i,
                    family = fam_name,
                    peak_bytes = cost.0,
                    latency = cost.1,
                );
                f.accepted += 1;
                f.mem_delta_bytes += cost.0 as i64 - parent_cost.0 as i64;
                f.lat_delta += cost.1 - parent_cost.1;
            }
            Err(reject) => {
                magis_obs::event!(
                    "magis_core",
                    "reject",
                    expansion = expansion,
                    candidate = i,
                    family = fam_name,
                    reason = label,
                );
                f.rejected += 1;
                match reject {
                    Reject::Panicked => self.stats.panicked += 1,
                    Reject::BadCost => self.stats.cost_rejections += 1,
                    Reject::Invalid => self.stats.invariant_rejections += 1,
                    Reject::Duplicate => self.stats.filtered += 1,
                    Reject::ApplyFailed | Reject::Dominated => {}
                }
                if matches!(reject, Reject::Panicked | Reject::Invalid) {
                    strike_family(&mut self.quarantine, &mut self.eval_cache, &mut self.stats, family);
                }
            }
        }
        evaluated
    }

    /// Admits one evaluated child, in this order: evaluation and cache
    /// accounting, the incumbent gate, the placements of a child that
    /// does not lead, the cache insert, the duplicate filter, the
    /// incumbent update and the driver's retain decision. `Ok` carries
    /// the retained child's cost.
    pub(super) fn admit(
        &mut self,
        i: usize,
        family: u8,
        ev: Evaluated,
        dedup: bool,
        retain: &mut Retain<'_>,
    ) -> Result<(u64, f64), Reject> {
        let obs = core_obs();
        let cfg = self.cfg;
        let expansion = self.stats.expanded as u64;
        let Evaluated { mut child, hash, cache_hit, tainted } = ev;
        self.stats.evaluated += 1;
        if let Some(tok) = &cfg.cancel {
            tok.beat();
        }

        // Cache accounting and insertion happen here — on the merge
        // thread, in candidate order — so the cache's contents and
        // counters are deterministic.
        if cache_hit {
            self.stats.eval_cache_hits += 1;
            // LRU refresh: recency only ever advances here, so
            // eviction stays bit-identical across thread counts. No-op
            // if a strike purged the entry earlier in this merge pass.
            self.eval_cache.touch(hash);
            magis_obs::event!(
                "magis_core",
                "eval_cache_hit",
                expansion = expansion,
                candidate = i,
                family = rules::family_name(family),
            );
        } else {
            self.stats.eval_cache_misses += 1;
            if let Some(inc) = child.eval.inc {
                obs.incremental_evals.inc();
                if inc.carried_won {
                    obs.incremental_carried_wins.inc();
                }
                obs.incremental_window.observe(inc.window as f64);
            }
        }

        // Cheap duplicate pre-filter before the retain decision
        // (greedy only: MCTS treats transpositions as legitimate tree
        // branches). A duplicate never becomes the incumbent, so the
        // gate below skips it.
        let duplicate = dedup && self.seen.contains(&hash);
        let cost = child.cost();
        let leads = cfg.objective.better_than(cost, self.best.cost(), 1.0);
        // Invariant gate: a state may only become the incumbent after
        // its graph, schedule, and memory accounting re-validate. A
        // violator is dropped entirely (not cached, not queued, not on
        // the frontier) and strikes its rule family.
        if leads
            && !duplicate
            && cfg.paranoia == ParanoiaLevel::Incumbent
            && check_invariants(&child, &cfg.ctx).is_err()
        {
            return Err(Reject::Invalid);
        }
        // The incumbent only improves, so a child that does not lead
        // now never will: the search reads its planned peak alone, and
        // its placements go before the cache or the driver shares it
        // (a hit is shared already and keeps what it has). Under
        // `ParanoiaLevel::All` every hit is re-checked against a full
        // plan, so every state keeps its placements.
        if !leads && cfg.paranoia != ParanoiaLevel::All {
            if let Some(plan) = Arc::get_mut(&mut child).and_then(|c| c.eval.plan.as_mut()) {
                plan.drop_placements();
            }
        }
        // Tainted children (post-eval fault injections) and
        // quarantined families are never cached.
        if !cache_hit && !tainted && !self.quarantine.is_quarantined(family) {
            let evicted = self.eval_cache.insert(hash, Arc::clone(&child), family);
            self.stats.eval_cache_evictions += evicted;
        }
        if duplicate {
            return Err(Reject::Duplicate);
        }
        self.pareto.insert(cost.0, cost.1);
        if leads {
            self.best = Arc::clone(&child);
            self.history.push(ProgressPoint {
                elapsed: self.start.elapsed().as_secs_f64(),
                peak_bytes: cost.0,
                latency: cost.1,
            });
            obs.incumbent_improvements.inc();
            magis_obs::event!(
                "magis_core",
                "incumbent",
                expansion = expansion,
                peak_bytes = cost.0,
                latency = cost.1,
            );
        }
        // The driver decides retention; the incumbent cost it sees
        // reflects any update from this very child (the greedy δ-test
        // reads the incumbent as updated mid-batch, exactly like
        // Algorithm 3).
        if retain(i, child, cost, self.best.cost()) {
            Ok(cost)
        } else {
            Err(Reject::Dominated)
        }
    }

    /// Expansion-boundary bookkeeping: timeline point + Pareto record,
    /// gauges, the expansion histogram and trace span, the progress
    /// snapshot, the periodic checkpoint (calling `snapshot` for the
    /// driver's frontier), and the
    /// publication of the stats-projected counters. Drivers call this
    /// exactly once per completed step.
    pub fn boundary(
        &mut self,
        frontier_size: u64,
        snapshot: &mut dyn FnMut(&mut RecordLines) -> DriverFrontier,
    ) {
        let obs = core_obs();
        let expansion = self.stats.expanded as u64;
        let front = self.pareto.front();
        let pareto_size = front.len() as u64;
        self.timeline.record_pareto(expansion, front);
        self.timeline.record_point(TimelinePoint {
            expansion,
            evaluated: self.stats.evaluated as u64,
            best_peak_bytes: self.best.eval.peak_bytes,
            best_latency: self.best.eval.latency,
            frontier_size,
            pareto_size,
            elapsed_us: self.start.elapsed().as_micros() as u64,
        });
        obs.best_peak_bytes.set(self.best.eval.peak_bytes as f64);
        obs.best_latency.set(self.best.eval.latency);
        obs.frontier_size.set(frontier_size as f64);
        obs.eval_cache_size.set(self.eval_cache.len() as f64);
        obs.expansion_seconds.observe_duration(self.exp_t0.elapsed());
        self.report_progress("search", frontier_size, pareto_size);
        if magis_obs::trace::enabled() {
            magis_obs::trace::span_with_dur(
                "magis_core",
                "expansion",
                self.exp_t0.elapsed(),
                magis_obs::fields!(
                    expansion = expansion,
                    candidates = self.last_candidates,
                    merged = self.last_merged,
                    frontier = frontier_size,
                ),
            );
        }
        let due = self.cfg.checkpoint.as_ref().is_some_and(|policy| {
            self.stats.evaluated - self.evals_at_last_ckpt >= policy.every_evals
        });
        if due {
            self.evals_at_last_ckpt = self.stats.evaluated;
            self.write_checkpoint("boundary", snapshot);
        }
        self.stats.publish(&mut self.published);
    }

    /// Delivers a [`ProgressSnapshot`] of the incumbent to the progress
    /// hook, if any. Called on the merge thread after all merge-time
    /// decisions — snapshot contents are deterministic (see the
    /// determinism contract).
    pub(super) fn report_progress(&self, phase: &'static str, frontier_size: u64, pareto_size: u64) {
        if let Some(hook) = &self.cfg.progress {
            hook.0.report(&ProgressSnapshot {
                expansion: self.stats.expanded as u64,
                evaluated: self.stats.evaluated as u64,
                best_peak_bytes: self.best.eval.peak_bytes,
                best_planned_peak_bytes: self.best.eval.plan.as_ref().map(|p| p.planned_peak_bytes),
                best_latency: self.best.eval.latency,
                frontier_size,
                pareto_size,
                eval_cache_hits: self.stats.eval_cache_hits as u64,
                phase,
            });
        }
    }

    /// Writes the search state to the policy's path (a no-op without a
    /// policy): the incumbent and all bookkeeping, plus the driver's
    /// complete strategy state from `snapshot`. Every state of the
    /// checkpoint is recorded through one [`RecordLines`], made here
    /// and gone with the checkpoint. A failed write is counted, not
    /// fatal — a full disk must not kill the search.
    pub(super) fn write_checkpoint(
        &mut self,
        at: &'static str,
        snapshot: &mut dyn FnMut(&mut RecordLines) -> DriverFrontier,
    ) {
        let cfg = self.cfg;
        let Some(policy) = &cfg.checkpoint else { return };
        let t0 = Instant::now();
        let mut lines = RecordLines::default();
        let frontier = snapshot(&mut lines);
        let best = StateRecord::of(&self.best, &mut lines);
        let ckpt = SearchCheckpoint {
            rng_seed: cfg.seed,
            seed_cost: self.seed_cost,
            best_cost: self.best.cost(),
            counters: self.stats.counters(),
            pareto: self.pareto.points().to_vec(),
            seen: self.seen.iter().copied().collect(),
            quarantine: self.quarantine.entries(),
            lines: lines.into_lines(),
            best,
            next_seq: frontier.next_seq,
            frontier: frontier.entries,
            driver: self.stats.driver,
            mcts: frontier.mcts,
        };
        // The size is a function of the search state; a write that
        // failed left nothing behind.
        let written = ckpt.write_to(&policy.path);
        let bytes = written.as_ref().copied().unwrap_or(0);
        if written.is_ok() {
            self.stats.checkpoints_written += 1;
        } else {
            self.stats.checkpoint_failures += 1;
        }
        let obs = core_obs();
        obs.checkpoint_seconds.observe_duration(t0.elapsed());
        obs.checkpoint_bytes.set(bytes as f64);
        magis_obs::event!(
            "magis_core",
            "checkpoint",
            expansion = self.stats.expanded as u64,
            ok = written.is_ok(),
            at = at,
            bytes = bytes,
        );
    }
}

/// Runs the M-Analyzer on `state` and books it. Only ever called on
/// the driver thread, so the count and the attribution do not depend
/// on the thread count.
pub(super) fn analyze(state: &mut MState, cfg: &OptimizerConfig, stats: &mut OptimizerStats) {
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
