//! The dense `DomTree` (RPO arrays, subtrees as preorder runs) against
//! the map-and-set tree it replaced, on random induced sub-DAGs. The
//! reference lives with the analyzer's other oracles in the root
//! package's `tests/ftree_identity/`.

#[path = "../../../tests/ftree_identity/dom_reference.rs"]
mod reference;

use magis_graph::algo::DomTree;
use magis_graph::builder::GraphBuilder;
use magis_graph::tensor::DType;
use magis_graph::{Graph, GraphTxn, GraphView, NodeId};
use magis_util::prop::prelude::*;
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeSet;

/// A random DAG of `n` elementwise nodes over one input, then — in one
/// transaction — a few forward keepalive edges (some doubling a data
/// edge) and the removal of every unused sink, which leaves tombstoned
/// slots below `capacity()`.
fn random_dag(rng: &mut SmallRng, n: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let mut ids = vec![b.input([4, 4], "x")];
    for _ in 1..n {
        // Recent nodes are likelier inputs: long chains with joins.
        let pick = |rng: &mut SmallRng, ids: &[NodeId]| ids[ids.len() - 1 - rng.gen_range(0..ids.len().min(6))];
        let a = pick(rng, &ids);
        let node = if rng.gen_range(0..3) == 0 { b.relu(a) } else { b.add_op(a, pick(rng, &ids)) };
        ids.push(node);
    }
    let g = b.finish();
    let mut txn = GraphTxn::begin(&g);
    for _ in 0..n / 4 {
        let to = rng.gen_range(1..ids.len());
        let from = rng.gen_range(0..to);
        txn.add_keepalive(ids[from], ids[to]).expect("forward edge between live nodes");
    }
    for &v in ids.iter().rev().take(n / 3) {
        if txn.node(v).succs().is_empty() && rng.gen_range(0..2) == 0 {
            txn.remove(v).expect("unused sink");
        }
    }
    txn.commit()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn dense_tree_equals_reference(seed in 0u64..100_000, n in 2usize..60, keep_of_8 in 1usize..=8) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_dag(&mut rng, n);
        // The induced sub-DAG: every node with probability keep_of_8/8
        // (8/8 = the whole graph, few = many entries and lone nodes).
        let set: BTreeSet<NodeId> = g.node_ids().filter(|_| rng.gen_range(0..8usize) < keep_of_8).collect();
        let (new, old) = (DomTree::compute(&g, &set), reference::DomTree::compute(&g, &set));

        prop_assert_eq!(new.roots(), old.roots());
        prop_assert!(new.nodes().eq(old.nodes()));
        prop_assert!(new.nodes().eq(set.iter().copied()));
        // Every slot of the arena and one past it: members, live
        // non-members, tombstones, and an id the graph never had.
        for v in (0..=g.capacity()).map(NodeId::from_index) {
            prop_assert_eq!(new.idom(v), old.idom(v), "idom of {}", v);
            prop_assert_eq!(new.children(v).collect::<Vec<_>>(), old.children(v), "children of {}", v);
            let des = old.descendants(v);
            prop_assert_eq!(&new.descendants(v), &des, "descendants of {}", v);
            prop_assert_eq!(new.descendants_slice(v).len(), des.len(), "region run of {}", v);
            prop_assert!(new.descendants_slice(v).iter().all(|d| des.contains(d)), "region run of {}", v);
            let mut region = des;
            region.insert(v);
            prop_assert_eq!(new.dominated_region(v), region, "dominated region of {}", v);
            for u in (0..=g.capacity()).map(NodeId::from_index) {
                prop_assert_eq!(new.dominates(u, v), old.dominates(u, v), "{} dominates {}", u, v);
            }
        }
    }
}
