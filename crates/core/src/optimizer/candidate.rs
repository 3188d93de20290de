//! One candidate, evaluated: apply → overlay → hash → cache lookup →
//! incremental reschedule + simulate in a panic sandbox, and the
//! invariant re-check the paranoia gates use. Workers run this; the
//! engine's merge consumes the [`CandOutcome`]s. A fan-out's children
//! carry their hash and node latencies from [`ParentTables`].

use super::config::{OptimizerConfig, ParanoiaLevel};
use crate::eval_cache::EvalCache;
use crate::rules::{self, Transform};
use crate::state::{evaluate_overlay, EvalContext, EvalError, MState};
use magis_graph::algo::{child_hash, graph_hash, ParentDigests};
use magis_graph::GraphView;
use magis_sched::validate_schedule;
use magis_sim::{evaluate_checked, LatencyTable, MemoryPlan};
use magis_util::fault::{FaultPlan, FaultSite};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker-measured CPU time of one candidate's phases, booked into
/// [`OptimizerStats`] at the merge.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct PhaseTimes {
    pub(super) trans: Duration,
    /// The part of `sched_sim` spent building the overlay graph.
    pub(super) overlay: Duration,
    pub(super) sched_sim: Duration,
    pub(super) hash: Duration,
}

impl PhaseTimes {
    pub(super) fn total(&self) -> Duration {
        self.trans + self.sched_sim + self.hash
    }
}

/// Why a candidate was dropped: the first four in the worker, the last
/// two at the merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Reject {
    /// Apply or incremental evaluation failed.
    ApplyFailed,
    /// Evaluation panicked; the sandbox caught it. Strikes the
    /// candidate's rule family.
    Panicked,
    /// The evaluated cost failed validation (NaN / infinite /
    /// negative latency).
    BadCost,
    /// Structural invariant violation: caught in the worker under
    /// [`ParanoiaLevel::All`], at the incumbent gate under
    /// [`ParanoiaLevel::Incumbent`]. Strikes the rule family.
    Invalid,
    /// The child's graph hash is already in the seen-set.
    Duplicate,
    /// The driver did not retain the child (dominated by the
    /// δ-relaxed incumbent).
    Dominated,
}

impl Reject {
    /// The `outcome` / `reason` label in metrics and trace records.
    pub(super) fn reason(self) -> &'static str {
        match self {
            Reject::ApplyFailed => "apply-failed",
            Reject::Panicked => "panicked",
            Reject::BadCost => "bad-cost",
            Reject::Invalid => "invalid",
            Reject::Duplicate => "duplicate",
            Reject::Dominated => "dominated",
        }
    }
}

/// A fully evaluated, hashed child state.
pub(super) struct Evaluated {
    /// The child's one allocation: the evaluation cache and the
    /// driver's frontier hold this same `Arc`, and a cache hit is the
    /// cached entry's.
    pub(super) child: Arc<MState>,
    pub(super) hash: u64,
    /// Served from the (batch-frozen) evaluation cache: schedule +
    /// simulate were skipped. Counted at the merge so the counters
    /// are deterministic across thread counts.
    pub(super) cache_hit: bool,
    /// A post-evaluation fault injection mutated this child; it must
    /// never be inserted into the evaluation cache.
    pub(super) tainted: bool,
}

pub(super) enum Verdict {
    /// A stop probe fired (or the serial eval cap was hit) before this
    /// candidate ran. The merge discards everything from the first
    /// such marker on, keeping the consumed prefix contiguous.
    Skipped,
    Rejected(Reject),
    Evaluated(Evaluated),
}

/// The outcome of evaluating one candidate transform. Produced by
/// workers (possibly out of order), consumed by the merge strictly in
/// candidate order.
pub(super) struct CandOutcome {
    pub(super) times: PhaseTimes,
    pub(super) verdict: Verdict,
}

/// What each child of one fan-out reads from its parent's overlay
/// instead of recomputing it: the forward digests of the graph hash and
/// the node latencies. Built once per batch on the driver thread and
/// dropped after its merge, so no retained state grows.
pub(super) struct ParentTables<'c> {
    digests: ParentDigests,
    latencies: LatencyTable<'c>,
}

impl<'c> ParentTables<'c> {
    /// The tables of `parent`'s overlay, and the time each took;
    /// `digests`, where the caller has them, are `parent`'s already.
    pub(super) fn of(
        parent: &MState,
        ctx: &'c EvalContext,
        digests: Option<ParentDigests>,
    ) -> (Self, PhaseTimes) {
        let t0 = Instant::now();
        let digests = digests.unwrap_or_else(|| ParentDigests::of(&parent.eval.graph));
        let hash = t0.elapsed();
        let t0 = Instant::now();
        let latencies = ctx.perf.table(&parent.eval.graph);
        let times = PhaseTimes { sched_sim: t0.elapsed(), hash, ..PhaseTimes::default() };
        (ParentTables { digests, latencies }, times)
    }
}

/// Re-checks the structural invariants of an evaluated state: the
/// overlay graph validates, the schedule is a topological exactly-once
/// cover of it, and — the cross-check — an independent evaluation of
/// the same order over the uncached cost model reproduces the state's
/// peak memory and latency **bit-for-bit**. The evaluation pipeline
/// and the memoizing `PerfCache` promise exactness, so any divergence
/// means one of them (or a rewrite) corrupted the state. Used by the
/// paranoia gates.
pub(super) fn check_invariants(child: &MState, ctx: &EvalContext) -> Result<(), String> {
    // The search drops a child's placements only once it cannot lead,
    // and keeps them all under `ParanoiaLevel::All`: no gate reads a
    // plan without them.
    debug_assert!(
        child.eval.plan.as_ref().is_none_or(MemoryPlan::has_placements),
        "an invariant check read a plan whose placements were dropped"
    );
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
/// independent candidates — and records no metric or trace record:
/// workers may over-evaluate past the `max_evals` cap, so everything
/// observable is booked at the merge from the returned outcome.
///
/// `fault_key` keys the config's fault plan, if any: it is derived
/// from the (expansion, candidate) pair, never from thread identity or
/// timing, so injections are bit-identical across thread counts.
///
/// With `tables` (`state`'s), the child's hash and latencies are
/// carried from them over the slots where the two overlays differ;
/// without, or where that diff is no smaller than the child, both are
/// computed whole.
pub(super) fn evaluate_candidate(
    state: &MState,
    t: &Transform,
    cfg: &OptimizerConfig,
    cache: &EvalCache,
    tables: Option<&ParentTables<'_>>,
    fault_key: u64,
) -> CandOutcome {
    let t0 = Instant::now();
    let mut times = PhaseTimes::default();
    // AssertUnwindSafe: the closure only reads `state`/`cfg`/`cache`
    // and builds fresh values; a panic can leave no broken shared
    // state behind.
    let verdict = catch_unwind(AssertUnwindSafe(|| {
        evaluate_candidate_inner(state, t, cfg, cache, tables, fault_key, &mut times)
    }))
    .unwrap_or_else(|_| {
        times = PhaseTimes { trans: t0.elapsed(), ..PhaseTimes::default() };
        Verdict::Rejected(Reject::Panicked)
    });
    CandOutcome { times, verdict }
}

fn evaluate_candidate_inner(
    state: &MState,
    t: &Transform,
    cfg: &OptimizerConfig,
    cache: &EvalCache,
    tables: Option<&ParentTables<'_>>,
    fault_key: u64,
    times: &mut PhaseTimes,
) -> Verdict {
    let ctx = &cfg.ctx;
    let inject =
        |site| cfg.fault_plan.as_ref().is_some_and(|plan| plan.should_inject(site, fault_key));
    if inject(FaultSite::EvalPanic) {
        panic!("injected fault: candidate evaluation panic (key {fault_key:#x})");
    }
    let t0 = Instant::now();
    let applied = rules::apply(state, t);
    times.trans = t0.elapsed();
    let Ok(applied) = applied else { return Verdict::Rejected(Reject::ApplyFailed) };

    // Build the overlay and hash it *before* scheduling: the same hash
    // keys both the seen-set duplicate filter and the evaluation
    // cache, so a candidate whose graph was already evaluated (via any
    // rewrite path) skips the expensive schedule + simulate phases.
    let t0 = Instant::now();
    let built = state.child_overlay(&applied.base, &applied.ftree);
    times.overlay = t0.elapsed();
    times.sched_sim = times.overlay;
    let Ok(graph) = built else { return Verdict::Rejected(Reject::ApplyFailed) };
    let t0 = Instant::now();
    let parent = &state.eval.graph;
    let carry = tables
        .map(|tables| (tables, graph.rewritten_slots(parent)))
        .filter(|(_, rewritten)| rewritten.len() < graph.len());
    let from = carry.as_ref().map(|(tables, rewritten)| (&tables.digests, parent, &rewritten[..]));
    let hash = child_hash(&graph, from);
    times.hash = t0.elapsed();
    // The carried hash must be the full one: under `ParanoiaLevel::All`
    // every carried candidate is hashed again, whole.
    if carry.is_some() && cfg.paranoia == ParanoiaLevel::All && graph_hash(&graph) != hash {
        return Verdict::Rejected(Reject::Invalid);
    }

    let t0 = Instant::now();
    let tree_stale = applied.tree_stale || state.tree_stale;
    let looked_up = match cache.get(hash) {
        // Hash-equal states are interchangeable to the search (the
        // equivalence the seen-set dedup already relies on), so the
        // cached state is reused wholesale: the same allocation.
        Some(cached) => Ok((Arc::clone(cached), true)),
        None => {
            let (base, mutated) = (&applied.base, &applied.mutated);
            let eval = match &carry {
                Some((tables, rewritten)) => {
                    let latencies = tables.latencies.carry(&graph, rewritten);
                    evaluate_overlay(base, graph, Some(state), mutated, ctx, &latencies)
                }
                None => evaluate_overlay(base, graph, Some(state), mutated, ctx, ctx.perf.as_ref()),
            };
            let child = |eval| MState { base: applied.base, ftree: applied.ftree, eval, tree_stale };
            eval.map(|eval| (Arc::new(child(eval)), false))
        }
    };
    times.sched_sim += t0.elapsed();
    let (mut child, cache_hit) = match looked_up {
        Ok(found) => found,
        Err(EvalError::Apply(_)) => return Verdict::Rejected(Reject::ApplyFailed),
        Err(EvalError::Cost(_)) => return Verdict::Rejected(Reject::BadCost),
    };
    // Staleness is inherited from every lineage so re-analysis is never
    // skipped — on this candidate's own copy: the cached entry keeps its
    // flag.
    if tree_stale && !child.tree_stale {
        Arc::make_mut(&mut child).tree_stale = true;
    }

    // The injections below write to the candidate's own copy too
    // (`Arc::make_mut` copies a cache hit), never to the cached entry.
    let mut tainted = false;
    // Simulates a buggy rewrite: the state's schedule no longer covers
    // the graph exactly once. Only invariant enforcement can catch
    // this — cost values stay plausible. Injected after the cache
    // lookup so cache hits replay the fault too.
    if inject(FaultSite::CorruptRewrite) && child.eval.order.len() >= 2 {
        let order = &mut Arc::make_mut(&mut child).eval.order;
        let last = order.len() - 1;
        order[last] = order[0];
        tainted = true;
    }
    // Simulates a defective cost model *after* the (real) evaluation
    // ran, so the defect reaches the always-on cost validation below
    // rather than being pre-empted by it.
    if inject(FaultSite::NanCost) {
        Arc::make_mut(&mut child).eval.latency = f64::NAN;
        tainted = true;
    }
    if inject(FaultSite::NegativeCost) {
        let latency = &mut Arc::make_mut(&mut child).eval.latency;
        *latency = -latency.abs() - 1.0;
        tainted = true;
    }

    // Always-on cost validation: defective latencies must never reach
    // the objective, whatever the paranoia level.
    if !child.eval.latency.is_finite() || child.eval.latency < 0.0 {
        return Verdict::Rejected(Reject::BadCost);
    }
    if cfg.paranoia == ParanoiaLevel::All && check_invariants(&child, ctx).is_err() {
        return Verdict::Rejected(Reject::Invalid);
    }
    Verdict::Evaluated(Evaluated { child, hash, cache_hit, tainted })
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
