//! `GraphTxn::add_keepalive_fan` against the loop it replaces: one
//! `add_keepalive` per (source, target) pair, sources outermost. The
//! fission overlay pins every region input to every region merge this
//! way, and the graph hash and the scheduler read the resulting
//! `keepalive` / `succs` vectors in order — so the bulk form must leave
//! exactly the vectors (and for a dead endpoint the error) the loop
//! leaves.

use magis_graph::builder::GraphBuilder;
use magis_graph::io::to_record;
use magis_graph::tensor::DType;
use magis_graph::{Graph, GraphError, GraphTxn, GraphView, NodeId};
use magis_util::prop::prelude::*;

/// `x → relu → relu → …`, `n` nodes, ids in chain order.
fn chain(n: usize) -> (Graph, Vec<NodeId>) {
    let mut b = GraphBuilder::new(DType::F32);
    let mut ids = vec![b.input([8], "x")];
    for _ in 1..n {
        ids.push(b.relu(*ids.last().expect("non-empty")));
    }
    (b.finish(), ids)
}

/// Every node's `inputs` / `keepalive` / `succs`, in slot order.
fn edges(txn: &GraphTxn) -> Vec<(NodeId, [Vec<NodeId>; 3])> {
    let lists = |v: NodeId| {
        let n = txn.node(v);
        (v, [n.inputs().to_vec(), n.keepalive().to_vec(), n.succs().to_vec()])
    };
    txn.node_ids().map(lists).collect()
}

fn pairwise(txn: &mut GraphTxn, from: &[NodeId], to: &[NodeId]) -> Result<(), GraphError> {
    for &u in from {
        for &m in to {
            txn.add_keepalive(u, m)?;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn fan_equals_pairwise_loop(
        from_picks in prop::collection::vec(0usize..8, 0..6),
        to_picks in prop::collection::vec(0usize..8, 0..6),
        // 0: every endpoint live; 1/2: a foreign id among the sources /
        // targets; 3/4: a node removed earlier in the transaction.
        dead in 0usize..5,
        dead_at in 0usize..6,
    ) {
        // Sources from the front half, targets from the back half (the
        // picks repeat, so both lists carry duplicates): edges point
        // forward and the result stays a DAG.
        let (g, ids) = chain(16);
        let mut from: Vec<NodeId> = from_picks.iter().map(|&i| ids[i]).collect();
        let mut to: Vec<NodeId> = to_picks.iter().map(|&i| ids[8 + i]).collect();
        let mut fan = GraphTxn::begin(&g);
        let mut looped = GraphTxn::begin(&g);
        let tail = ids[15];
        let ghost = match dead {
            1 | 2 => Some(NodeId::from_index(g.capacity() + 5)),
            3 | 4 => {
                fan.remove(tail).expect("chain tail has no users");
                looped.remove(tail).expect("chain tail has no users");
                Some(tail)
            }
            _ => None,
        };
        to.retain(|&m| dead == 0 || m != tail);
        if let Some(ghost) = ghost {
            let list = if dead % 2 == 1 { &mut from } else { &mut to };
            list.insert(dead_at.min(list.len()), ghost);
        }

        let before = edges(&fan);
        let a = fan.add_keepalive_fan(&from, &to);
        let b = pairwise(&mut looped, &from, &to);
        prop_assert_eq!(&a, &b, "outcome for {from:?} x {to:?}");
        // An empty side means no pair, so even a dead endpoint on the
        // other side goes unnoticed — by both.
        prop_assert_eq!(a.is_err(), ghost.is_some() && !from.is_empty() && !to.is_empty());
        if a.is_err() {
            // The loop stops half-way; the bulk form has changed nothing.
            prop_assert_eq!(edges(&fan), before);
            return Ok(());
        }
        let (fan, looped) = (fan.commit(), looped.commit());
        prop_assert_eq!(to_record(&fan), to_record(&looped));
        for v in fan.node_ids() {
            prop_assert_eq!(fan.node(v).keepalive(), looped.node(v).keepalive(), "keepalive of {v}");
            prop_assert_eq!(fan.node(v).succs(), looped.node(v).succs(), "succs of {v}");
        }
        fan.validate().map_err(|e| format!("fan result invalid: {e}"))?;
    }
}
