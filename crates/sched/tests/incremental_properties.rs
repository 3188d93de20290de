//! Property coverage for incremental rescheduling (Algorithm 2):
//! random NASNet-like graphs, random mutations, and the two contracts
//! the optimizer relies on —
//!
//! 1. the merged order is always a valid topological order of the new
//!    graph, and
//! 2. the windowed re-ordering's peak memory stays within a small
//!    factor of rerunning the full scheduler from scratch.

use magis_graph::GraphView;
use magis_graph::algo::{is_topo_order, topo_order};
use magis_graph::graph::{Graph, NodeId};
use magis_models::{random_dnn, RandomDnnConfig};
use magis_sched::{
    full_schedule, incremental_schedule_cached, reschedule_interval_cached, IntervalParams,
    SchedConfig,
};
use magis_sim::memory_profile_checked;
use magis_util::prop::prelude::*;
use std::collections::BTreeSet;

fn small_dnn(seed: u64) -> Graph {
    let cfg = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells: 2, blocks: 3 };
    random_dnn(&cfg, seed)
}

/// A re-materialization-shaped mutation: clone a random interior node
/// (same op, same inputs) and route one of its users through the
/// clone. Returns the new graph plus the old-graph nodes touched.
fn remat_mutation(g: &Graph, pick: usize) -> Option<(Graph, BTreeSet<NodeId>)> {
    let cands: Vec<NodeId> = g
        .node_ids()
        .filter(|&v| !g.pre(v).is_empty() && !g.suc(v).is_empty())
        .collect();
    let v = *cands.get(pick % cands.len())?;
    let mut txn = magis_graph::GraphTxn::begin(g);
    let inputs = g.node(v).inputs().to_vec();
    let clone = txn.add(g.node(v).op.clone(), &inputs).ok()?;
    let user = g.suc(v)[0];
    txn.replace_input(user, v, clone);
    let g_new = txn.commit();
    g_new.validate().ok()?;
    Some((g_new, [v, user].into_iter().collect()))
}

proptest! {
    // Each case runs the scheduler on a real (small) DNN; keep the
    // count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn interval_covers_all_mutated_nodes(seed in 0u64..1000, a in 0usize..4096, b in 0usize..4096) {
        let g = small_dnn(seed);
        let psi = topo_order(&g);
        let s: BTreeSet<NodeId> =
            [psi[a % psi.len()], psi[b % psi.len()]].into_iter().collect();
        let (beg, end) =
            reschedule_interval_cached(&g, &s, &psi, &IntervalParams::default(), None).unwrap();
        prop_assert!(beg < end && end <= psi.len());
        for (i, v) in psi.iter().enumerate() {
            if s.contains(v) {
                prop_assert!(
                    beg <= i && i < end,
                    "mutated node at index {i} outside window {beg}..{end}"
                );
            }
        }
    }

    #[test]
    fn merged_order_is_topo_and_peak_competitive(seed in 0u64..1000, pick in 0usize..4096) {
        let g_old = small_dnn(seed);
        let cfg = SchedConfig::default();
        let psi_old = full_schedule(&g_old, &cfg);
        let mutation = remat_mutation(&g_old, pick);
        prop_assume!(mutation.is_some());
        let (g_new, s_old) = mutation.unwrap();

        let psi_new = incremental_schedule_cached(
            &g_old, &g_new, &s_old, &psi_old, None, None, &cfg, &IntervalParams::default(), None,
        )
        .expect("memory accounting conserved")
        .order;
        prop_assert!(is_topo_order(&g_new, &psi_new), "merged order is a valid topo order");
        prop_assert_eq!(psi_new.len(), g_new.len());

        let inc_peak = memory_profile_checked(&g_new, &psi_new).unwrap().peak_bytes;
        let full_peak =
            memory_profile_checked(&g_new, &full_schedule(&g_new, &cfg)).unwrap().peak_bytes;
        prop_assert!(
            inc_peak as f64 <= full_peak as f64 * 1.25,
            "windowed peak {inc_peak} within 1.25x of full rerun {full_peak}"
        );
    }

    #[test]
    fn reorder_without_mutation_never_hurts(seed in 0u64..1000, a in 0usize..4096, b in 0usize..4096) {
        // With an unchanged graph, rescheduling a window around two
        // arbitrary "touched" nodes must return a valid order that is
        // never worse than carrying the old schedule over (the merge
        // keeps the better of the two by construction — this pins that
        // contract down).
        let g = small_dnn(seed);
        let cfg = SchedConfig::default();
        let psi_old = full_schedule(&g, &cfg);
        let s: BTreeSet<NodeId> =
            [psi_old[a % psi_old.len()], psi_old[b % psi_old.len()]].into_iter().collect();
        let psi_new = incremental_schedule_cached(
            &g, &g, &s, &psi_old, None, None, &cfg, &IntervalParams::default(), None,
        )
        .expect("memory accounting conserved")
        .order;
        prop_assert!(is_topo_order(&g, &psi_new));
        let new_peak = memory_profile_checked(&g, &psi_new).unwrap().peak_bytes;
        let old_peak = memory_profile_checked(&g, &psi_old).unwrap().peak_bytes;
        prop_assert!(
            new_peak <= old_peak,
            "rescheduling never hurts: {new_peak} vs {old_peak}"
        );
    }
}
