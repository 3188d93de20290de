//! M-State (§3): the optimizer's unit of search — a base computation
//! graph, its F-Tree, and the evaluation of the state (schedule,
//! latency, peak memory, hot-spots) on the simulator.
//!
//! Evaluation pipeline:
//!
//! 1. **Overlay** — clone the base graph and apply the representative-
//!    part overlay of every enabled F-Tree node (parents first).
//! 2. **Schedule** — memory-only re-ordering: full scheduling for the
//!    initial state, incremental scheduling (Algorithm 2) against the
//!    parent state afterwards.
//! 3. **Swap placement** — `Store` as early as possible, `Load` as
//!    late as its transfer can still be hidden (§6.2's re-ordering
//!    strategy for asynchronous swapping).
//! 4. **Simulate** — two-stream latency + step-level memory profile.

use magis_graph::{GraphTxn, GraphView, ScaleEdits, ScaleMemo};
use crate::fission::{apply_overlay_in, RegionWorkspace};
use crate::ftree::FTree;
use crate::rules::{Applied, ApplyError};
use magis_graph::graph::{Graph, NodeId};
use magis_graph::algo::reach::Reachability;
use magis_sched::{
    full_schedule, incremental_schedule_cached, IntervalParams, SchedConfig,
};
pub use magis_sched::schedule::place_swaps;
use magis_sim::{
    Backend, CostError, CostModel, Lifetimes, MemObjective, MemoryPlan, MemoryProfile, NodeCost,
    PerfCache,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Why evaluating a state failed: the transform/overlay machinery
/// rejected it, or the simulator produced a defective cost. Both are
/// recoverable — the optimizer drops the candidate and keeps searching.
#[derive(Debug, Clone)]
pub enum EvalError {
    /// Applying the overlay (or the transform that produced the state)
    /// failed validation.
    Apply(ApplyError),
    /// The cost model produced NaN/negative/overflowing values, or the
    /// schedule failed coverage/conservation checks.
    Cost(CostError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Apply(e) => write!(f, "apply: {e}"),
            EvalError::Cost(e) => write!(f, "cost: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ApplyError> for EvalError {
    fn from(e: ApplyError) -> Self {
        EvalError::Apply(e)
    }
}

impl From<CostError> for EvalError {
    fn from(e: CostError) -> Self {
        EvalError::Cost(e)
    }
}

/// How a candidate derived from a parent state is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Reuse the parent's schedule outside the rewrite's dirty region
    /// (incremental scheduling, Algorithm 2), then profile the
    /// resulting order from scratch. The default.
    #[default]
    Incremental,
    /// Re-schedule every candidate from scratch with the full-quality
    /// beam — the brute-force baseline the `eval_throughput` benchmark
    /// compares against.
    Full,
}

/// Shared evaluation machinery (cost model + scheduler tuning).
///
/// The cost model is held behind a shared [`PerfCache`] so per-operator
/// latencies are memoized across every candidate evaluation of a
/// search (the paper's "simulator with an operator performance cache",
/// §6.2). Construct with [`EvalContext::for_backend`] to target a
/// registry backend.
#[derive(Debug, Clone)]
pub struct EvalContext {
    /// Memoizing wrapper over the device cost model, shared by all
    /// evaluation workers. The cache stores exact model outputs, so
    /// results are bit-identical to querying the model directly.
    pub perf: Arc<PerfCache>,
    /// Scheduler beam for the initial full schedule (quality-first).
    pub sched: SchedConfig,
    /// Scheduler beam for per-candidate incremental rescheduling —
    /// narrower than `sched`, since the search evaluates thousands of
    /// candidates and Algorithm 2's windows keep problems small.
    pub sched_incremental: SchedConfig,
    /// `GetRescheduleInterval` constants.
    pub interval: IntervalParams,
    /// Whether derived candidates are evaluated incrementally
    /// (default) or from scratch.
    pub mode: EvalMode,
    /// Which peak-memory figure the search scores candidates by:
    /// liveness sum (default) or the allocator-planned high-water mark
    /// (adds the offset-assigning planning stage to every evaluation).
    pub mem_objective: MemObjective,
}

impl Default for EvalContext {
    fn default() -> Self {
        Self::with_cost(CostModel::default())
    }
}

impl EvalContext {
    /// An evaluation context over `cost`, with default scheduler
    /// tuning.
    fn with_cost(cost: CostModel) -> Self {
        EvalContext {
            perf: Arc::new(PerfCache::new(cost)),
            sched: SchedConfig::default(),
            sched_incremental: SchedConfig { beam_width: 8, node_budget: 96 },
            interval: IntervalParams::default(),
            mode: EvalMode::default(),
            mem_objective: MemObjective::default(),
        }
    }

    /// An evaluation context targeting a registry backend (see
    /// `magis_sim::BackendRegistry`): the analytic model for the
    /// backend's device and efficiency table, behind a fresh
    /// [`PerfCache`].
    pub fn for_backend(backend: &Backend) -> Self {
        Self::with_cost(CostModel::for_backend(backend))
    }

    /// The context's cost model itself, a [`magis_sim::NodeCost`] that
    /// bypasses the cache — the independent recomputation path
    /// for cross-checks, so a corrupted cache entry cannot corroborate
    /// itself.
    pub fn cost(&self) -> &CostModel {
        self.perf.uncached()
    }

    /// Registry name of the backend this context evaluates under.
    pub fn backend_name(&self) -> &str {
        self.cost().backend().name()
    }
}

/// The evaluated form of a state.
#[derive(Debug, Clone)]
pub struct Eval {
    /// The overlaid (fission-applied) graph actually simulated.
    pub graph: Graph,
    /// The schedule (a topological order of `graph`).
    pub order: Vec<NodeId>,
    /// End-to-end latency in seconds.
    pub latency: f64,
    /// Peak device memory in bytes.
    pub peak_bytes: u64,
    /// Memory hot-spots, restricted to base-graph nodes (overlay
    /// bookkeeping nodes filtered out).
    pub hotspots_base: BTreeSet<NodeId>,
    // Still named by `benchmark/src/replay.rs`, which passes it to
    // parameters nothing reads: always the empty table, since nothing
    // reads a state's lifetimes after its plan is built from them. Goes
    // when the benchmark stops naming it.
    #[doc(hidden)]
    pub lifetimes: Lifetimes,
    /// Offset-assigning memory plan of `order`, present when the
    /// context's objective is [`MemObjective::Planned`]. A search keeps
    /// the placements only where a full plan may be read: on the
    /// incumbent, on each child that led when it was admitted, on every
    /// child under `ParanoiaLevel::All`, and on states built outside a
    /// search ([`MState::initial`], [`MState::from_applied`]). The other
    /// states it retains (children that did not lead, a resumed
    /// search's frontier) keep the peaks and the step count alone
    /// ([`MemoryPlan::drop_placements`]).
    pub plan: Option<MemoryPlan>,
    /// Metadata from the incremental-scheduling path, when it produced
    /// this evaluation (`None` for full evaluations, initial states,
    /// and resumed incumbents). The optimizer records these at the
    /// merge, as the `magis_core_incremental_*` metrics.
    pub inc: Option<IncrementalEvalInfo>,
    /// Lazily-computed narrow-waist table of `graph` (one `u32` per
    /// slot), shared (via `Arc`) across clones. Every candidate derived
    /// from this state reads it for the reschedule-interval
    /// computation, so it is computed at most once per state instead of
    /// once per candidate.
    reach: Arc<OnceLock<Reachability>>,
    /// Lazily-computed position of each node in `order`, shared like
    /// `reach`: only states that get expanded read it.
    positions: Arc<OnceLock<Positions>>,
    /// Lazily-recorded scale edits of this state's own overlay, shared
    /// like `reach`: every candidate derived from the state builds its
    /// overlay through them ([`MState::child_overlay`]).
    scale_edits: Arc<OnceLock<ScaleEdits>>,
}

impl Eval {
    /// Narrow-waist table of [`Eval::graph`], computed on first use
    /// and cached for the state's lifetime.
    pub fn reachability(&self) -> &Reachability {
        self.reach.get_or_init(|| Reachability::compute_in_order(&self.graph, &self.order))
    }

    /// Position in [`Eval::order`] of each node, computed on first use
    /// (the schedule rules look base-graph nodes up in it).
    pub fn base_positions(&self) -> &Positions {
        self.positions.get_or_init(|| Positions::of(&self.order))
    }

    /// The peak-memory figure the active objective scores this state
    /// by: the allocator-planned high-water mark when the planning
    /// stage ran, the liveness peak otherwise.
    pub fn objective_peak(&self) -> u64 {
        match &self.plan {
            Some(p) => p.planned_peak_bytes,
            None => self.peak_bytes,
        }
    }
}

/// Each node's position in a schedule, as one `u32` per slot
/// (`u32::MAX`: the slot is not scheduled).
#[derive(Debug)]
pub struct Positions(Box<[u32]>);

impl Positions {
    fn of(order: &[NodeId]) -> Self {
        let slots = order.iter().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut table = vec![u32::MAX; slots];
        for (i, v) in order.iter().enumerate() {
            table[v.index()] = u32::try_from(i).expect("a schedule has fewer than 2^32 - 1 steps");
        }
        Positions(table.into_boxed_slice())
    }

    /// `v`'s position, if the schedule holds it.
    pub fn get(&self, v: NodeId) -> Option<usize> {
        self.0.get(v.index()).filter(|&&p| p != u32::MAX).map(|&p| p as usize)
    }
}

/// How one incremental evaluation short-circuited (see
/// [`Eval::inc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalEvalInfo {
    /// Width of the rescheduled window, in old-schedule steps.
    pub window: usize,
    /// Whether the carried-over parent order beat the rescheduled
    /// window.
    pub carried_won: bool,
}

/// An M-State.
#[derive(Debug, Clone)]
pub struct MState {
    /// The working graph: all transformations except fission applied.
    pub base: Graph,
    /// Fission tree over `base`.
    pub ftree: FTree,
    /// Simulation results.
    pub eval: Eval,
    /// Whether the F-Tree should be re-analyzed before expanding this
    /// state (a non-fission transform changed the graph).
    pub tree_stale: bool,
}

impl MState {
    /// Builds and evaluates the initial state of `g` (Algorithm 3,
    /// `InitState`): full schedule, then F-Tree construction from the
    /// discovered hot-spots.
    pub fn initial(g: Graph, ctx: &EvalContext) -> MState {
        // Safe for well-formed graphs under the default cost model: an
        // empty F-Tree has no overlay to reject, and analytic costs are
        // finite. `try_initial` is the fallible path for untrusted
        // graphs / cost models.
        Self::try_initial(g, ctx).expect("empty tree always evaluates")
    }

    /// [`Self::initial`] with evaluation failures surfaced as a typed
    /// [`EvalError`] instead of a panic (hardened entry point for
    /// untrusted graphs or exotic cost models).
    pub fn try_initial(g: Graph, ctx: &EvalContext) -> Result<MState, EvalError> {
        let empty = FTree::default();
        let _span = magis_obs::span!("magis_core", "seed_eval", nodes = g.len());
        let eval = evaluate_state(&g, &empty, None, &BTreeSet::new(), ctx)?;
        Ok(MState { base: g, ftree: empty, eval, tree_stale: true })
    }

    /// Re-analyzes the F-Tree (M-Analyzer, Algorithm 1), preserving
    /// enabled regions.
    pub fn analyze(&mut self, max_level: usize) {
        self.ftree = self.ftree.refreshed(&self.base, &self.eval.hotspots_base, max_level);
        self.tree_stale = false;
    }

    /// [`build_overlay_graph`] of a candidate derived from this state:
    /// the same graph, but a region node whose scale step starts from
    /// the allocation this state's overlay started from *is* this
    /// state's scaled node, not a copy of it.
    ///
    /// # Errors
    ///
    /// Propagates overlay validation failures.
    pub fn child_overlay(&self, base: &Graph, ftree: &FTree) -> Result<Graph, ApplyError> {
        let edits = self.eval.scale_edits.get_or_init(|| self.record_scale_edits());
        overlay_graph(base, ftree, &mut ScaleMemo::Reuse(edits))
    }

    /// The scale steps of this state's overlay, region by region, and
    /// nothing else of it: a node that a region's slices or merges
    /// rewire before a later region scales it is private to each build,
    /// so no build ever looks its entry up.
    fn record_scale_edits(&self) -> ScaleEdits {
        let mut edits = ScaleEdits::default();
        let mut txn = GraphTxn::begin(&self.base);
        let mut memo = ScaleMemo::Record { edits: &mut edits, like: &self.eval.graph };
        let specs = self.ftree.enabled_order().into_iter().map(|i| &self.ftree.node(i).spec);
        for (spec, (&v, &d)) in specs.flat_map(|spec| spec.dims.iter().map(move |dim| (spec, dim))) {
            // Each entry stands on its own, so at a node the spec cannot
            // scale (this state's overlay never built) the record just ends.
            if txn.slot(v.index()).is_none_or(|n| d > n.meta.shape.rank() as i32) {
                break;
            }
            txn.scale(v, spec.parts, d, &mut memo);
        }
        edits
    }

    /// Evaluates a transform application into a full child state using
    /// incremental scheduling against `parent`.
    ///
    /// # Errors
    ///
    /// Returns an error when the overlay no longer validates or the
    /// evaluation produces defective costs (the optimizer drops such
    /// candidates).
    pub fn from_applied(
        applied: Applied,
        parent: &MState,
        ctx: &EvalContext,
    ) -> Result<MState, EvalError> {
        let eval = evaluate_state(
            &applied.base,
            &applied.ftree,
            Some(parent),
            &applied.mutated,
            ctx,
        )?;
        Ok(MState {
            base: applied.base,
            ftree: applied.ftree,
            eval,
            tree_stale: applied.tree_stale || parent.tree_stale,
        })
    }

    /// Convenience: `(objective peak bytes, latency)` — the memory
    /// figure is the planned high-water mark when the planning stage
    /// ran, the liveness peak otherwise.
    pub fn cost(&self) -> (u64, f64) {
        (self.eval.objective_peak(), self.eval.latency)
    }

    /// Re-evaluates the state with a from-scratch full-beam schedule
    /// (the optimizer's final polish: search uses the narrow
    /// incremental beam for throughput, the winner gets the quality
    /// scheduler).
    pub fn rescheduled(&self, ctx: &EvalContext) -> MState {
        match evaluate_state(&self.base, &self.ftree, None, &BTreeSet::new(), ctx) {
            Ok(eval) => MState {
                base: self.base.clone(),
                ftree: self.ftree.clone(),
                eval,
                tree_stale: self.tree_stale,
            },
            Err(_) => self.clone(),
        }
    }
}

/// Builds the overlay graph of `base` + `ftree`.
///
/// # Errors
///
/// Propagates overlay validation failures.
pub fn build_overlay_graph(base: &Graph, ftree: &FTree) -> Result<Graph, ApplyError> {
    overlay_graph(base, ftree, &mut ScaleMemo::Cold)
}

/// One transaction and one region workspace for every enabled region,
/// parents first.
///
/// Every slice and merge takes a fresh slot from the first multiple of
/// 64 above the base's capacity up, never a base tombstone, so a
/// rewrite that adds or frees a base node leaves the overlay's ids
/// where its parent's were — the ids Algorithm 2's carried order, the
/// carried digests and latencies, and the pin table read — unless the
/// base crosses a 64-slot boundary. The ids stay a pure function of
/// the base and the tree, so a checkpoint restore rebuilds them.
fn overlay_graph(base: &Graph, ftree: &FTree, memo: &mut ScaleMemo<'_>) -> Result<Graph, ApplyError> {
    let mut txn = GraphTxn::begin(base);
    let mut ws = RegionWorkspace::default();
    let regions = ftree.enabled_order();
    if !regions.is_empty() {
        txn.fresh_slots_from((base.capacity() / 64 + 1) * 64);
    }
    for i in regions {
        apply_overlay_in(&mut ws, &mut txn, &ftree.node(i).spec, memo)
            .map_err(|e| ApplyError(e.to_string()))?;
    }
    Ok(txn.commit())
}

/// Restricts simulator hot-spots to base-graph nodes (overlay
/// bookkeeping nodes filtered out).
fn project_to_base(base: &Graph, hotspots: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
    hotspots
        .iter()
        .copied()
        .filter(|v| v.index() < base.capacity() && base.contains(*v))
        .collect()
}

fn evaluate_state(
    base: &Graph,
    ftree: &FTree,
    parent: Option<&MState>,
    mutated: &BTreeSet<NodeId>,
    ctx: &EvalContext,
) -> Result<Eval, EvalError> {
    let g = match parent {
        Some(p) => p.child_overlay(base, ftree)?,
        None => build_overlay_graph(base, ftree)?,
    };
    evaluate_overlay(base, g, parent, mutated, ctx, ctx.perf.as_ref())
}

/// Evaluates an already-built overlay graph — the optimizer hashes the
/// overlay for its evaluation cache *before* paying for scheduling and
/// simulation, then calls this on a miss.
///
/// With [`EvalMode::Incremental`] and a parent, the schedule comes
/// from Algorithm 2 splicing; the memory profile (and plan) of the
/// final order is always computed from scratch, by the scheduler when
/// swap placement leaves its order alone and here otherwise. Swap
/// placement and the simulation read node latencies from `cost`: the
/// context's [`PerfCache`], or a table of `g`'s latencies carried from
/// the parent's ([`magis_sim::LatencyTable`]), which answers the same.
pub(crate) fn evaluate_overlay<C: NodeCost + ?Sized>(
    base: &Graph,
    g: Graph,
    parent: Option<&MState>,
    mutated: &BTreeSet<NodeId>,
    ctx: &EvalContext,
    cost: &C,
) -> Result<Eval, EvalError> {
    let parent = match ctx.mode {
        EvalMode::Incremental => parent,
        EvalMode::Full => None,
    };
    let planned = ctx.mem_objective == MemObjective::Planned;
    // `measured`: the scheduler's own profile, lifetimes and plan, when
    // they are those of the placed order.
    let (placed, measured, inc_info) = match parent {
        Some(p) => {
            let s_old: BTreeSet<NodeId> =
                mutated.iter().copied().filter(|v| p.eval.graph.contains(*v)).collect();
            let inc = incremental_schedule_cached(
                &p.eval.graph,
                &g,
                &s_old,
                &p.eval.order,
                None,
                if planned { p.eval.plan.as_ref() } else { None },
                &ctx.sched_incremental,
                &ctx.interval,
                Some(p.eval.reachability()),
            )?;
            let info =
                IncrementalEvalInfo { window: inc.window, carried_won: inc.carried_won };
            let placed = place_swaps(&g, &inc.order, cost);
            let measured =
                (placed == inc.order).then_some((inc.profile, inc.lifetimes, inc.plan));
            (placed, measured, Some(info))
        }
        None => {
            let order = full_schedule(&g, &ctx.sched);
            (place_swaps(&g, &order, cost), None, None)
        }
    };
    evaluate_order(base, g, placed, measured, inc_info, ctx, cost)
}

/// The evaluation of `order` on `g`, the overlay of `base`: the memory
/// profile and tensor lifetimes of the order (unless the scheduler
/// `measured` them), its plan under [`MemObjective::Planned`], the
/// simulation, and the hot-spots restricted to `base`. The lifetime
/// table is dropped once planned from: the state keeps none. A
/// candidate's evaluation ends here, and so does a checkpointed
/// state's, whose stored order is re-simulated rather than
/// re-scheduled.
pub(crate) fn evaluate_order<C: NodeCost + ?Sized>(
    base: &Graph,
    g: Graph,
    order: Vec<NodeId>,
    measured: Option<(MemoryProfile, Lifetimes, Option<MemoryPlan>)>,
    inc: Option<IncrementalEvalInfo>,
    ctx: &EvalContext,
    cost: &C,
) -> Result<Eval, EvalError> {
    let (profile, lifetimes, plan) = match measured {
        Some(m) => m,
        None => {
            let (profile, lifetimes) = magis_sim::memory_profile_lifetimes(&g, &order)?;
            (profile, lifetimes, None)
        }
    };
    // The scheduler plans only when the parent carried a plan; a
    // planned search whose parent had none (a state resumed from a
    // liveness checkpoint) plans here.
    let plan = match plan {
        Some(plan) => Some(plan),
        None if ctx.mem_objective == MemObjective::Planned => {
            Some(magis_sim::plan_from_lifetimes(&g, &order, &lifetimes)?)
        }
        None => None,
    };
    let ev = magis_sim::evaluate_with_plan(&g, &order, cost, profile, plan.as_ref())?;
    let hotspots_base = project_to_base(base, &ev.memory.hotspots);
    Ok(Eval {
        graph: g,
        order,
        latency: ev.latency,
        peak_bytes: ev.peak_bytes,
        hotspots_base,
        lifetimes: Lifetimes::default(),
        plan,
        inc,
        reach: Arc::default(),
        positions: Arc::default(),
        scale_edits: Arc::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftree::FTreeMutation;
    use crate::rules::{apply, Transform};
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;

    fn mlp_state(depth: usize) -> MState {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([256, 64], "x");
        for i in 0..depth {
            let w = b.weight([64, 64], &format!("w{i}"));
            let h = b.matmul(cur, w);
            cur = b.relu(h);
        }
        MState::initial(b.finish(), &EvalContext::default())
    }

    #[test]
    fn initial_state_is_consistent() {
        let s = mlp_state(6);
        assert_eq!(s.eval.order.len(), s.eval.graph.len());
        assert!(s.eval.latency > 0.0);
        assert!(s.eval.peak_bytes > 0);
        assert!(!s.eval.hotspots_base.is_empty());
        assert!(s.tree_stale);
    }

    /// Small training graph: the workload class whose activation
    /// lifetimes fission actually targets.
    fn train_mlp_state(depth: usize) -> MState {
        use magis_graph::grad::{append_backward, TrainOptions};
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
        let tg = append_backward(b.finish(), loss, &TrainOptions::default()).unwrap();
        MState::initial(tg.graph, &EvalContext::default())
    }

    #[test]
    fn analyze_builds_tree() {
        let mut s = mlp_state(8);
        s.analyze(4);
        assert!(!s.ftree.is_empty());
        assert!(!s.tree_stale);
    }

    #[test]
    fn fission_reduces_memory_on_training_graph() {
        // Walk the search's canonical fission path (§5.1: "we actually
        // start enabling leaf nodes first and gradually move towards
        // nodes closer to the root"): Enable a leaf, Lift to the root,
        // then deepen with Mutate. Peak memory must fall well below the
        // baseline while latency rises.
        let mut s = train_mlp_state(4);
        s.analyze(4);
        assert!(!s.ftree.is_empty(), "training graph yields fission candidates");
        let ctx = EvalContext::default();
        let base_peak = s.eval.peak_bytes;
        let base_lat = s.eval.latency;
        let mut cur = s.clone();
        let enable = cur
            .ftree
            .legal_mutations(&cur.base)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .expect("a leaf enable");
        let applied = apply(&cur, &Transform::FTree(enable)).unwrap();
        cur = MState::from_applied(applied, &cur, &ctx).unwrap();
        assert!(cur.eval.graph.len() > cur.base.len(), "overlay nodes present");
        let mut best_peak = cur.eval.peak_bytes;
        while let Some(l) = cur
            .ftree
            .legal_mutations(&cur.base)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Lift(_)))
        {
            let applied = apply(&cur, &Transform::FTree(l)).unwrap();
            cur = MState::from_applied(applied, &cur, &ctx).unwrap();
            best_peak = best_peak.min(cur.eval.peak_bytes);
        }
        if let Some(m) = cur
            .ftree
            .legal_mutations(&cur.base)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Mutate(_)))
        {
            let applied = apply(&cur, &Transform::FTree(m)).unwrap();
            cur = MState::from_applied(applied, &cur, &ctx).unwrap();
            best_peak = best_peak.min(cur.eval.peak_bytes);
        }
        assert!(
            (best_peak as f64) < base_peak as f64 * 0.95,
            "fission path lowers peak by >5%: {best_peak} vs {base_peak}"
        );
        assert!(cur.eval.latency > base_lat, "fission costs latency");
    }

    /// A remat, swap or TASO child holds its parent's F-Tree node list
    /// itself, not a copy of it.
    #[test]
    fn a_graph_rewrite_shares_the_parents_ftree() {
        use crate::rules::{generate, RuleConfig};
        let ctx = EvalContext::default();
        let mut s = MState::initial(magis_models::Workload::BertBase.build(0.25).graph, &ctx);
        s.analyze(4);
        let enable = s
            .ftree
            .legal_mutations(&s.base)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .expect("a leaf enable");
        let parent = MState::from_applied(apply(&s, &Transform::FTree(enable)).unwrap(), &s, &ctx).unwrap();
        let transforms = generate(&parent, &RuleConfig::default());
        let picks: [fn(&Transform) -> bool; 3] = [
            |t| matches!(t, Transform::Remat { .. }),
            |t| matches!(t, Transform::Swap { .. }),
            |t| matches!(t, Transform::Taso(_)),
        ];
        for pick in picks {
            let (t, applied) = transforms
                .iter()
                .filter(|t| pick(t))
                .find_map(|t| apply(&parent, t).ok().map(|a| (t, a)))
                .unwrap_or_else(|| panic!("no applicable candidate among {}", transforms.len()));
            assert!(applied.ftree.shares_nodes_with(&parent.ftree), "{t}: applied copy");
            let child = MState::from_applied(applied, &parent, &ctx).unwrap();
            assert!(child.ftree.shares_nodes_with(&parent.ftree), "{t}: evaluated copy");
        }
    }

    #[test]
    fn analyze_preserves_enabled_regions() {
        let mut s = mlp_state(8);
        s.analyze(4);
        let ctx = EvalContext::default();
        let enable = s
            .ftree
            .legal_mutations(&s.base)
            .into_iter()
            .find(|m| matches!(m, FTreeMutation::Enable(_)))
            .unwrap();
        let applied = apply(&s, &Transform::FTree(enable)).unwrap();
        let mut child = MState::from_applied(applied, &s, &ctx).unwrap();
        let enabled_before = child.ftree.enabled_order().len();
        child.tree_stale = true;
        child.analyze(4);
        assert_eq!(child.ftree.enabled_order().len(), enabled_before);
    }

    #[test]
    fn place_swaps_moves_load_late_store_early() {
        // x -> a -> [store -> load] -> consumer at the very end.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([1024, 1024], "x");
        let a = b.relu(x);
        let mut cur = b.gelu(a);
        for _ in 0..20 {
            cur = b.gelu(cur);
        }
        let g0 = b.finish();
        use magis_graph::op::OpKind;
        let mut txn = magis_graph::GraphTxn::begin(&g0);
        let st = txn.add(OpKind::Store, &[a]).unwrap();
        let ld = txn.add(OpKind::Load, &[st]).unwrap();
        let last = cur;
        let fin = txn
            .add(OpKind::Binary(magis_graph::op::BinaryKind::Add), &[last, ld])
            .unwrap();
        let g = txn.commit();
        let order = magis_graph::algo::topo_order(&g);
        let placed = place_swaps(&g, &order, &CostModel::default());
        assert!(magis_graph::algo::is_topo_order(&g, &placed));
        let p = |v: NodeId| placed.iter().position(|&u| u == v).unwrap();
        // Store directly follows its producer.
        assert_eq!(p(st), p(a) + 1);
        // Load is before its consumer but not immediately after store.
        assert!(p(ld) < p(fin));
        assert!(p(ld) > p(st) + 1, "load delayed until needed");
    }

    #[test]
    fn incremental_eval_matches_full_eval_quality() {
        // Peak memory from the incremental path should be close to a
        // from-scratch full schedule of the same graph.
        let s = mlp_state(10);
        let ctx = EvalContext::default();
        let target = s
            .eval
            .hotspots_base
            .iter()
            .copied()
            .find(|&v| !s.base.suc(v).is_empty() && !s.base.node(v).op.is_input())
            .unwrap();
        let user = s.base.suc(target)[0];
        let applied =
            crate::rules::sched_rules::apply_remat(&s, target, user).unwrap_or_else(|_| {
                // producer/user may be unsuitable; fall back to a clone
                crate::rules::Applied {
                    base: s.base.clone(),
                    ftree: s.ftree.clone(),
                    mutated: BTreeSet::new(),
                    tree_stale: false,
                }
            });
        let child = MState::from_applied(applied.clone(), &s, &ctx).unwrap();
        let full = MState::initial(applied.base, &ctx);
        let ratio = child.eval.peak_bytes as f64 / full.eval.peak_bytes as f64;
        assert!(ratio < 1.2, "incremental within 20% of full: {ratio}");
    }
}
