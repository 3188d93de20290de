//! Incremental scheduling (Algorithm 2 of the paper).
//!
//! After a graph transformation mutates a small region, only a window
//! of the previous schedule around that region needs rescheduling. The
//! window is grown outwards until it hits nodes with low narrow-waist
//! values — natural cut points where the old prefix/suffix remain
//! near-optimal — then the window is partitioned and re-ordered with
//! the memory-DP, and the pieces are merged back into the old schedule.

use magis_graph::GraphView;
use crate::dp::SchedConfig;
use crate::schedule::{schedule_pieces, stabilize_order};
use crate::workspace::Workspace;
use magis_graph::algo::reach::Reachability;
use magis_graph::graph::{Graph, NodeId};
use magis_sim::{CostError, Lifetimes, MemoryPlan, MemoryProfile};
use std::collections::BTreeSet;

/// The empirical constants of `ExtendBound` (Algorithm 2 line 4); the
/// paper reports 20/10/4 "perform well in practice".
#[derive(Debug, Clone)]
pub struct IntervalParams {
    /// Maximum steps to extend in each direction (`l < 20`).
    pub max_steps: usize,
    /// Keep extending while the best NW seen exceeds this (`ŵ > 10`).
    pub high_nw: usize,
    /// Keep extending while the current NW is below this (`nw(v) < 4`).
    pub low_nw: usize,
}

impl Default for IntervalParams {
    fn default() -> Self {
        IntervalParams { max_steps: 20, high_nw: 10, low_nw: 4 }
    }
}

/// `GetRescheduleInterval`: the half-open index range `[beg, end)` of
/// `psi_old` that must be rescheduled, given the mutated nodes `s_old`.
///
/// Returns `None` when no mutated node appears in the old schedule
/// (e.g. the transformation only added nodes).
///
/// `reach` is an optional precomputed reachability of `g_old`. A
/// parent state's reachability is identical for every candidate
/// derived from it, so the search computes it once and hands it to
/// each evaluation instead of paying `Reachability::compute` per
/// candidate; with `None` it is computed here.
pub fn reschedule_interval_cached(
    g_old: &Graph,
    s_old: &BTreeSet<NodeId>,
    psi_old: &[NodeId],
    params: &IntervalParams,
    reach: Option<&Reachability>,
) -> Option<(usize, usize)> {
    let lo = psi_old.iter().position(|v| s_old.contains(v))?;
    let hi = psi_old.iter().rposition(|v| s_old.contains(v))?;
    let computed;
    let reach = match reach {
        Some(r) => r,
        None => {
            computed = Reachability::compute(g_old);
            &computed
        }
    };
    let nw = |i: usize| reach.narrow_waist(psi_old[i]);
    let extend = |mut i: usize, dir: i64| -> usize {
        let mut best = usize::MAX;
        let mut l = 0;
        loop {
            if l >= params.max_steps {
                break;
            }
            let w = nw(i);
            if !((best == usize::MAX || best > params.high_nw || w < params.low_nw) && w < best) {
                break;
            }
            best = w;
            let ni = i as i64 + dir;
            if ni < 0 || ni as usize >= psi_old.len() {
                break;
            }
            i = ni as usize;
            l += 1;
        }
        i
    };
    let beg = extend(lo, -1);
    let end = extend(hi, 1);
    Some((beg, end + 1))
}

/// Result of [`incremental_schedule_cached`]: the chosen order plus
/// the memory profile, lifetime table and (when asked for) memory plan
/// that were computed while choosing it — the evaluation pipeline
/// reuses them instead of profiling the order a second time.
#[derive(Debug, Clone)]
pub struct IncrementalSchedule {
    /// A valid topological order of the new graph.
    pub order: Vec<NodeId>,
    /// Memory profile of `order`.
    pub profile: MemoryProfile,
    /// Lifetime table of `order`.
    pub lifetimes: Lifetimes,
    /// Memory plan of `order` (`None` when planning is off).
    pub plan: Option<MemoryPlan>,
    /// Width of the rescheduled window (old-schedule steps).
    pub window: usize,
    /// Whether the carried-over old order beat the rescheduled window.
    pub carried_won: bool,
}

/// Incremental scheduling (Algorithm 2): derives a schedule for
/// `g_new` from the old schedule `psi_old` of `g_old` and the set of
/// old nodes `s_old` touched by the transformation, and returns the
/// chosen order *with* its memory profile and lifetime table
/// ([`magis_sim::memory_profile_lifetimes`] of that order).
///
/// The returned order is always a valid topological order of `g_new`.
///
/// `parent_plan: Some(_)` turns planning on: the rescheduled-vs-carried
/// guard compares `(planned_peak, liveness_peak)` of the two candidate
/// orders lexicographically, so the planned objective steers the choice
/// without the liveness path losing its tiebreak; an order is planned
/// ([`magis_sim::plan_from_lifetimes`]) only if its plan can change
/// that verdict. The
/// plan's contents and the fifth parameter (a parent lifetime table)
/// are not read; both stay in the signature for `benchmark/`'s replay,
/// which passes them positionally.
///
/// `reach_old` is an optional precomputed reachability of `g_old`
/// (see [`reschedule_interval_cached`]).
///
/// # Errors
///
/// Returns a typed [`CostError`] on coverage or memory-conservation
/// defects.
#[allow(clippy::too_many_arguments)]
pub fn incremental_schedule_cached(
    g_old: &Graph,
    g_new: &Graph,
    s_old: &BTreeSet<NodeId>,
    psi_old: &[NodeId],
    _: Option<&Lifetimes>,
    parent_plan: Option<&MemoryPlan>,
    cfg: &SchedConfig,
    params: &IntervalParams,
    reach_old: Option<&Reachability>,
) -> Result<IncrementalSchedule, CostError> {
    let (beg, end) = match reschedule_interval_cached(g_old, s_old, psi_old, params, reach_old) {
        Some(r) => r,
        // Pure additions: reschedule only the new nodes, appended where
        // their dependencies allow.
        None => (psi_old.len(), psi_old.len()),
    };
    let window = end.saturating_sub(beg);
    // The window is every node of `g_new` the old schedule does not
    // place outside `[beg, end)`. Old entries that died with the
    // rewrite stay in `desired`: stabilization skips stale ids.
    let (prefix, suffix) = (&psi_old[..beg], &psi_old[end..]);
    let mut ws = Workspace::new(g_new);
    ws.index(prefix.iter().chain(suffix).copied());
    let s_new: Vec<NodeId> = g_new.node_ids().filter(|&v| ws.local(v).is_none()).collect();
    let middle = schedule_pieces(g_new, &s_new, cfg, &mut ws);
    let desired = [prefix, &middle, suffix].concat();
    let rescheduled = stabilize_order(g_new, &desired);
    // Guard: rescheduling a window can occasionally lose to simply
    // carrying the old order over (boundary effects). Keep the better
    // of the two — a profile is far cheaper than the DP.
    let carried = stabilize_order(g_new, psi_old);
    // An order with its profile and lifetimes; planned only on demand.
    let profile = |order: Vec<NodeId>| -> Result<_, CostError> {
        let (profile, lifetimes) = magis_sim::memory_profile_lifetimes(g_new, &order)?;
        Ok((order, profile, lifetimes))
    };
    let plan = |(order, _, lifetimes): &(Vec<NodeId>, MemoryProfile, Lifetimes)| -> Result<_, CostError> {
        parent_plan.map(|_| magis_sim::plan_from_lifetimes(g_new, order, lifetimes)).transpose()
    };
    // Identical orders measure identically and the carried one wins
    // only when strictly better: skip the redundant half outright.
    let same = carried == rescheduled;
    let mut best = profile(rescheduled)?;
    let mut carried_won = false;
    let mut other = None;
    if !same {
        let old = profile(carried)?;
        // The carried order wins iff its `(planned, liveness)` peaks are
        // strictly lower (liveness alone when planning is off). The
        // order with the lower liveness peak — the rescheduled one on
        // a tie — is planned first.
        carried_won = old.1.peak_bytes < best.1.peak_bytes;
        other = Some(if carried_won { std::mem::replace(&mut best, old) } else { old });
    }
    let mut best_plan = plan(&best)?;
    // A plan never undercuts its order's liveness peak
    // (`planned_peak_dominates_liveness`), so an order whose liveness
    // peak reaches the first's planned peak has a planned peak that does
    // too: it loses on the first key, or ties on it with planned =
    // liveness on both sides and loses on the second, where it is no
    // lower (strictly higher if it is the rescheduled order, which a
    // full tie would keep). Its plan cannot change the verdict: skip it.
    let best_key = best_plan.as_ref().map(|p| (p.planned_peak_bytes, best.1.peak_bytes));
    if let Some((key, o)) = best_key.zip(other).filter(|(key, o)| o.1.peak_bytes < key.0) {
        let o_plan = plan(&o)?.expect("planning is on");
        let o_key = (o_plan.planned_peak_bytes, o.1.peak_bytes);
        // `carried_won` still says which order `best` is.
        if o_key < key || (carried_won && o_key == key) {
            (best, best_plan, carried_won) = (o, Some(o_plan), !carried_won);
        }
    }
    let ((order, profile, lifetimes), plan) = (best, best_plan);
    Ok(IncrementalSchedule { order, profile, lifetimes, plan, window, carried_won })
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::{is_topo_order, topo_order};
    use magis_graph::builder::GraphBuilder;
    use magis_graph::op::{OpKind, UnaryKind};
    use magis_graph::tensor::DType;

    fn chain_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(DType::F32);
        let mut cur = b.input([64], "x");
        for _ in 0..n {
            cur = b.relu(cur);
        }
        b.finish()
    }

    #[test]
    fn interval_covers_mutated_nodes() {
        let g = chain_graph(30);
        let psi = topo_order(&g);
        let s: BTreeSet<NodeId> = [psi[10], psi[12]].into_iter().collect();
        let (beg, end) =
            reschedule_interval_cached(&g, &s, &psi, &IntervalParams::default(), None).unwrap();
        assert!(beg <= 10 && end >= 13);
        // On a chain every nw is 0: the first extension step already
        // finds the minimum, so the window stays tight.
        assert!(end - beg <= 8, "window stayed small on a chain: {beg}..{end}");
    }

    #[test]
    fn incremental_after_node_insertion() {
        let g_old = chain_graph(20);
        let psi_old = topo_order(&g_old);
        // Mutate: re-materialize node 10's op (add a parallel recompute).
        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        let target = psi_old[10];
        let input = txn.pre(target)[0];
        let clone = txn.add(OpKind::Unary(UnaryKind::Relu), &[input]).unwrap();
        let user = txn.suc(target)[0];
        txn.replace_input(user, target, clone);
        let g_new = txn.commit().0;
        g_new.validate().unwrap();

        let s_old: BTreeSet<NodeId> = [target, user].into_iter().collect();
        let psi_new = incremental_schedule_cached(
            &g_old,
            &g_new,
            &s_old,
            &psi_old,
            None,
            None,
            &SchedConfig::default(),
            &IntervalParams::default(),
            None,
        )
        .expect("memory accounting conserved")
        .order;
        assert!(is_topo_order(&g_new, &psi_new));
        assert_eq!(psi_new.len(), g_new.len());
    }

    #[test]
    fn incremental_after_node_removal() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let dup = b.relu(x); // redundant twin to be removed
        let u1 = b.gelu(a);
        let u2 = b.gelu(dup);
        let _j = b.add_op(u1, u2);
        let g_old = b.finish();
        let psi_old = topo_order(&g_old);

        let mut txn = magis_graph::GraphTxn::begin(&g_old);
        txn.redirect_uses(dup, a);
        txn.remove(dup).unwrap();
        let g_new = txn.commit().0;
        let s_old: BTreeSet<NodeId> = [dup, u2].into_iter().collect();
        let psi_new = incremental_schedule_cached(
            &g_old,
            &g_new,
            &s_old,
            &psi_old,
            None,
            None,
            &SchedConfig::default(),
            &IntervalParams::default(),
            None,
        )
        .expect("memory accounting conserved")
        .order;
        assert!(is_topo_order(&g_new, &psi_new));
    }

    #[test]
    fn no_mutation_is_stable() {
        let g = chain_graph(5);
        let psi = topo_order(&g);
        let out = incremental_schedule_cached(
            &g,
            &g,
            &BTreeSet::new(),
            &psi,
            None,
            None,
            &SchedConfig::default(),
            &IntervalParams::default(),
            None,
        )
        .expect("memory accounting conserved")
        .order;
        assert_eq!(out, psi);
    }
}
