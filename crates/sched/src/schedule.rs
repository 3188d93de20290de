//! Full-graph scheduling and order stabilization.

use magis_graph::GraphView;
use crate::dp::{dp_schedule, SchedConfig};
use crate::partition::partition_window;
use crate::task::SchedTask;
use crate::workspace::{ReadyRanks, Workspace};
use magis_graph::graph::{Graph, NodeId};
use magis_graph::pins::PinCounts;

/// Repairs a desired node sequence into a valid topological order of
/// `g`, staying as close to the desired order as dependencies allow
/// (stable Kahn: always emit the ready node that appears earliest in
/// the desired sequence).
///
/// Nodes of `g` missing from `desired` are appended by dependency
/// order; stale ids in `desired` are ignored.
pub fn stabilize_order(g: &Graph, desired: &[NodeId]) -> Vec<NodeId> {
    const NONE: u32 = u32::MAX;
    // In-degree + 1 of every live slot; 0 marks a dead one.
    let mut indeg = vec![0u32; g.capacity()];
    for (i, slot) in indeg.iter_mut().enumerate() {
        *slot = g.slot(i).map_or(0, |n| (n.inputs().len() + n.keepalive().len()) as u32 + 1);
    }
    // Rank = first position in `desired`; unlisted nodes rank after
    // everything listed, by id.
    let mut rank = vec![NONE; g.capacity()];
    let mut by_rank: Vec<NodeId> = Vec::with_capacity(g.len());
    let listed = desired.iter().copied().filter(|v| v.index() < indeg.len());
    for v in listed.chain((0..indeg.len()).map(NodeId::from_index)) {
        if indeg[v.index()] != 0 && rank[v.index()] == NONE {
            rank[v.index()] = by_rank.len() as u32;
            by_rank.push(v);
        }
    }
    // A merge waits on each of its pin groups as on one edge.
    let pins = g.pins();
    let mut groups = PinCounts::new(pins, |_| true, |m| indeg[m.index()] += 1);
    let mut ready = ReadyRanks::new(by_rank.len());
    (0..by_rank.len()).filter(|&r| indeg[by_rank[r].index()] == 1).for_each(|r| ready.push(r));
    let mut out = Vec::with_capacity(by_rank.len());
    let release = |indeg: &mut [u32], ready: &mut ReadyRanks, s: NodeId| {
        indeg[s.index()] -= 1;
        if indeg[s.index()] == 1 {
            ready.push(rank[s.index()] as usize);
        }
    };
    while let Some(r) = ready.pop() {
        let v = by_rank[r];
        out.push(v);
        // Raw successor list: one entry per edge, so each occurrence
        // decrements the in-degree exactly once.
        for &s in g.node(v).succs() {
            release(&mut indeg, &mut ready, s);
        }
        groups.ran(pins, v, |k| {
            pins.group(k).merges().iter().for_each(|&m| release(&mut indeg, &mut ready, m));
        });
    }
    debug_assert_eq!(out.len(), g.len(), "stabilize requires an acyclic graph");
    out
}

/// Narrow-waist partition of `window` (ascending id), then the memory
/// DP on each piece as its own window; the piece schedules concatenated
/// in partition order (`GraphPartition` + `DpSchedule`, Algorithm 2).
/// The result covers `window` exactly but is not yet a topological
/// order of `g`.
pub(crate) fn schedule_pieces(
    g: &Graph,
    window: &[NodeId],
    cfg: &SchedConfig,
    ws: &mut Workspace,
) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(window.len());
    for mut piece in partition_window(g, window, ws) {
        piece.sort_unstable();
        let task = SchedTask::build(g, piece, ws);
        out.extend(dp_schedule(&task, cfg).order.iter().map(|&i| task.nodes[i]));
    }
    out
}

/// Full-graph memory-aware scheduling: narrow-waist partition, then
/// per-piece memory DP, then stabilization. The result is guaranteed
/// to be no worse (in peak memory) than the deterministic program
/// order — partition-boundary approximations occasionally regress, in
/// which case the program order is returned instead.
///
/// This is the `InitState` scheduler of Algorithm 3 and the "full
/// scheduling (FS)" baseline of §7.3.
pub fn full_schedule(g: &Graph, cfg: &SchedConfig) -> Vec<NodeId> {
    let all: Vec<NodeId> = g.node_ids().collect();
    let dp_order = stabilize_order(g, &schedule_pieces(g, &all, cfg, &mut Workspace::new(g)));
    let fallback = magis_graph::algo::topo_order(g);
    let peak = |order: &[NodeId]| {
        let profile = magis_sim::memory_profile_checked(g, order);
        profile.expect("a stabilized or topological order covers the graph").peak_bytes
    };
    if peak(&dp_order) <= peak(&fallback) {
        dp_order
    } else {
        fallback
    }
}

/// Repositions swap operators per the paper's strategy (§6.2): every
/// `Store` directly after its producer, every `Load` as late as its
/// transfer time can still be hidden behind the intervening compute.
///
/// Generic over any [`magis_sim::NodeCost`] latency source — the raw
/// cost model for a registry backend, or the optimizer's shared
/// [`magis_sim::PerfCache`], whose memoized latencies make the
/// hide-the-transfer walk-back cheap across thousands of candidates
/// (bit-identical to the fronted model).
pub fn place_swaps<C: magis_sim::NodeCost + ?Sized>(
    g: &Graph,
    order: &[NodeId],
    cm: &C,
) -> Vec<NodeId> {
    use magis_graph::op::OpKind;
    let (swaps, stripped): (Vec<NodeId>, Vec<NodeId>) =
        order.iter().partition(|&&v| g.node(v).op.is_swap());
    if swaps.is_empty() {
        return stripped;
    }
    // Slot → index in `stripped` (`None` for swaps).
    let mut pos = vec![None; g.capacity()];
    for (i, &v) in stripped.iter().enumerate() {
        pos[v.index()] = Some(i);
    }
    // Insertion index in `stripped` -> nodes to place before that step.
    let mut inserts: Vec<(usize, NodeId)> = Vec::new();
    for &s in &swaps {
        match g.node(s).op {
            OpKind::Store => {
                let producer = g.pre(s)[0];
                let at = pos[producer.index()].map_or(0, |p| p + 1);
                inserts.push((at, s));
            }
            OpKind::Load => {
                // Earliest non-swap consumer.
                let consumer =
                    g.users(s).filter_map(|c| pos[c.index()]).min().unwrap_or(stripped.len());
                let need = cm.node_latency(g, s);
                let mut acc = 0.0;
                let mut at = consumer;
                while at > 0 && acc < need {
                    at -= 1;
                    acc += cm.node_latency(g, stripped[at]);
                }
                inserts.push((at, s));
            }
            _ => unreachable!("swaps filtered above"),
        }
    }
    inserts.sort_by_key(|&(at, v)| (at, v));
    let mut desired = Vec::with_capacity(order.len());
    let mut it = inserts.into_iter().peekable();
    for (i, &v) in stripped.iter().enumerate() {
        while matches!(it.peek(), Some(&(at, _)) if at <= i) {
            desired.push(it.next().expect("peeked").1);
        }
        desired.push(v);
    }
    desired.extend(it.map(|(_, v)| v));
    // Dependencies (Store after producer, Load after Store) are
    // restored by stabilization if the cost walk-back overshot.
    stabilize_order(g, &desired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use magis_graph::algo::{is_topo_order, topo_order};
    use magis_graph::builder::GraphBuilder;
    use magis_graph::tensor::DType;
    use magis_sim::memory_profile_checked;

    #[test]
    fn stabilize_fixes_violations() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(a);
        let g = b.finish();
        // Desired order is reversed: stabilization must repair it.
        let out = stabilize_order(&g, &[c, a, x]);
        assert!(is_topo_order(&g, &out));
        assert_eq!(out, vec![x, a, c]);
    }

    #[test]
    fn stabilize_preserves_valid_order() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(x);
        let j = b.add_op(a, c);
        let g = b.finish();
        let order = vec![x, c, a, j];
        assert!(is_topo_order(&g, &order));
        assert_eq!(stabilize_order(&g, &order), order);
    }

    #[test]
    fn stabilize_appends_missing_nodes() {
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([64], "x");
        let a = b.relu(x);
        let c = b.gelu(a);
        let g = b.finish();
        let out = stabilize_order(&g, &[x]);
        assert!(is_topo_order(&g, &out));
        assert_eq!(out.len(), 3);
        let _ = c;
    }

    #[test]
    fn full_schedule_no_worse_than_naive() {
        // Wide fan-out graph where naive order is suboptimal.
        let mut b = GraphBuilder::new(DType::F32);
        let x = b.input([1024], "x");
        let mut prods = Vec::new();
        for _ in 0..6 {
            prods.push(b.relu(x));
        }
        let mut acc = prods[0];
        for &p in &prods[1..] {
            acc = b.add_op(acc, p);
        }
        let g = b.finish();
        let naive_peak = memory_profile_checked(&g, &topo_order(&g)).unwrap().peak_bytes;
        let sched = full_schedule(&g, &SchedConfig::default());
        assert!(is_topo_order(&g, &sched));
        let peak = memory_profile_checked(&g, &sched).unwrap().peak_bytes;
        assert!(peak <= naive_peak);
    }
}
