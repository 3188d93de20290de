//! XLA-like baseline (§7.1 baseline (4)): a compiler with a *greedy*
//! rematerialization pass — repeatedly recompute the cheapest-per-byte
//! hot tensor until the budget is met. The paper observes (§7.2.3)
//! that under tight budgets this cascades ("re-computing one operator
//! might depend on another operator's re-materialization"), producing
//! steep latency growth; the cascade emerges here naturally because a
//! recomputation extends its operands' lifetimes, creating new hot
//! spots that demand further recomputation.

use magis_graph::{GraphTxn, GraphView};
use crate::compilers::fused_latency;
use crate::BaselineResult;
use magis_graph::graph::{Graph, NodeId};
use magis_sched::stabilize_order;
use magis_sim::{memory_profile_checked, storage_root, NodeCost};

/// Maximum rematerializations before declaring the budget unreachable.
const MAX_REMATS: usize = 4000;

fn rematable(g: &Graph, v: NodeId) -> bool {
    let n = g.node(v);
    !n.op.is_input() && !n.op.is_swap() && !n.op.is_alias() && n.size_bytes() > 0
}

/// Runs the greedy rematerialization planner.
pub fn run<C: NodeCost + ?Sized>(g: &Graph, budget: Option<u64>, cm: &C) -> BaselineResult {
    let mut g = g.clone();
    let mut order = crate::pytorch::program_order(&g);
    let covered = "the program order, and each stabilized order, covers the graph";
    let mut prof = memory_profile_checked(&g, &order).expect(covered);
    let Some(b) = budget else {
        return BaselineResult {
            peak_bytes: prof.peak_bytes,
            latency: fused_latency(&g, &order, cm, 0.8),
            feasible: true,
        };
    };
    let mut remats = 0usize;
    // Peak plateaus span many steps: a single rematerialization rarely
    // moves the maximum, so greedy needs patience before giving up.
    let mut stuck = 0usize;
    let mut tried = vec![false; g.capacity()];
    while prof.peak_bytes > b && remats < MAX_REMATS && stuck < 48 {
        tried.resize(g.capacity(), false); // clones extend the arena
        // Greedy pick: hot-spot producer with multiple users (or one
        // far user) maximizing bytes saved per recompute second.
        let mut pos = vec![usize::MAX; g.capacity()];
        for (i, &v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        let n = order.len();
        let pick = prof
            .hotspots
            .iter()
            .copied()
            .map(|h| storage_root(&g, h))
            .filter(|&v| rematable(&g, v) && !tried[v.index()])
            .filter_map(|v| {
                let users = g.suc(v);
                let last = users.iter().copied().max_by_key(|u| pos[u.index()])?;
                let gap = pos[last.index()].saturating_sub(pos[v.index()]);
                if gap < n / 16 {
                    return None;
                }
                // The far-user cluster that will switch to the clone.
                let cut = pos[v.index()] + n / 10;
                let far: Vec<NodeId> =
                    users.iter().copied().filter(|u| pos[u.index()] > cut).collect();
                if far.is_empty() {
                    return None;
                }
                // XLA's greedy pass only recomputes an instruction whose
                // operands are *still live* at the recompute point — it
                // does not extend operand lifetimes to enable chains
                // (the §7.2.3 weakness: "re-computing one operator might
                // depend on another operator['s] re-materialization").
                let first_far = far.iter().map(|u| pos[u.index()]).min().expect("nonempty");
                let operands_live = g.pre_all(v).into_iter().all(|op| {
                    g.node(op).op.is_input()
                        || g.suc(op).iter().any(|u| pos[u.index()] >= first_far && *u != v)
                });
                if !operands_live {
                    return None;
                }
                let value = g.node(v).size_bytes() as f64 / cm.node_latency(&g, v).max(1e-9);
                Some((v, far, value))
            })
            .max_by(|a, b| a.2.total_cmp(&b.2));
        let Some((v, far, _)) = pick else { break };
        tried[v.index()] = true;
        let node = g.node(v).clone();
        let mut txn = GraphTxn::begin(&g);
        let Ok(clone) = txn.add_with_meta(node.op.clone(), node.inputs(), node.meta.clone())
        else {
            break;
        };
        let first = *far
            .iter()
            .min_by_key(|u| pos[u.index()])
            .expect("nonempty cluster");
        for &u in &far {
            txn.replace_input(u, v, clone);
        }
        g = txn.commit();
        remats += 1;
        // Desired position: clone right before its earliest user.
        let mut desired: Vec<NodeId> = Vec::with_capacity(order.len() + 1);
        for &o in &order {
            if o == first {
                desired.push(clone);
            }
            desired.push(o);
        }
        order = stabilize_order(&g, &desired);
        let new_prof = memory_profile_checked(&g, &order).expect(covered);
        if new_prof.peak_bytes >= prof.peak_bytes {
            stuck += 1;
        } else {
            stuck = 0;
        }
        prof = new_prof;
    }
    BaselineResult {
        peak_bytes: prof.peak_bytes,
        latency: fused_latency(&g, &order, cm, 0.8),
        feasible: prof.peak_bytes <= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_models::mlp::{mlp, MlpConfig};
    use magis_sim::CostModel;

    #[test]
    fn remat_meets_moderate_budget_with_latency_cost() {
        // Activation-dominated regime, as in the paper's workloads.
        let tg = mlp(&MlpConfig { batch: 2048, ..MlpConfig::default() });
        let cm = CostModel::default();
        let base = run(&tg.graph, None, &cm);
        let budget = (base.peak_bytes as f64 * 0.8) as u64;
        let r = run(&tg.graph, Some(budget), &cm);
        assert!(r.feasible, "80% budget reachable: {} <= {budget}", r.peak_bytes);
        assert!(r.latency > base.latency, "remat re-pays compute");
    }

    #[test]
    fn impossible_budget_reports_failure() {
        let tg = mlp(&MlpConfig::default());
        let cm = CostModel::default();
        let r = run(&tg.graph, Some(1024), &cm);
        assert!(!r.feasible);
    }

    #[test]
    fn tighter_budgets_cost_more_latency() {
        let tg = mlp(&MlpConfig { layers: 10, ..MlpConfig::default() });
        let cm = CostModel::default();
        let base = run(&tg.graph, None, &cm);
        let r90 = run(&tg.graph, Some((base.peak_bytes as f64 * 0.9) as u64), &cm);
        let r75 = run(&tg.graph, Some((base.peak_bytes as f64 * 0.75) as u64), &cm);
        if r90.feasible && r75.feasible {
            assert!(r75.latency >= r90.latency);
        }
    }
}
