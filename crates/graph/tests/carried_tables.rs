//! A child's carried tables against a full pass over the child.
//!
//! Each case builds a random parent DAG with sealed free slots and
//! random pin fans, then a child of it by random edits: nodes added
//! (taking a free slot first), sinks removed, inputs rewired, repeats
//! and an input's extent rescaled, a producer cloned for one of its consumers, and now and
//! then a new fan. The diff `rewritten_slots` names must be exactly the
//! nodes that differ in more than their successors; the digests, sum
//! and hash carried from the parent must be `graph_digests` and
//! `graph_hash` of the child; and the latency table carried from the
//! parent's must be a full `PerfCache` table of the child, bit for bit.

use magis_graph::algo::{child_hash, graph_digests, graph_hash, topo_order, ParentDigests};
use magis_graph::builder::GraphBuilder;
use magis_graph::op::{OpKind, ReduceKind, UnaryKind};
use magis_graph::tensor::{DType, TensorMeta};
use magis_graph::{Graph, GraphTxn, GraphView, NodeId};
use magis_sim::PerfCache;
use magis_util::prop::prelude::*;
use magis_util::prop::run_cases;
use magis_util::rng::{Rng, SmallRng};

/// A random DAG of `n` ops over two inputs on `[16]` tensors, with
/// reshapes to `[4, 4]` (aliases), a third input `z` read only by
/// reductions (so its extent can change and theirs cannot), one to
/// three pin fans cut at a topological order, and some sinks removed
/// in a committed transaction, so their slots are free and sealed.
fn random_parent(rng: &mut SmallRng, n: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let (mut flat, mut square) = (vec![b.input([16], "x"), b.weight([16], "w")], Vec::new());
    for _ in 0..n {
        let p = flat[rng.gen_range(0..flat.len())];
        let q = flat[rng.gen_range(0..flat.len())];
        match rng.gen_range(0..6u32) {
            0 => flat.push(b.relu(p)),
            1 => flat.push(b.gelu(p)),
            2 | 3 => flat.push(b.add_op(p, q)),
            4 => square.push(b.reshape(p, [4, 4])),
            _ if !square.is_empty() => {
                let s = square[rng.gen_range(0..square.len())];
                square.push(b.sigmoid(s));
            }
            _ => flat.push(b.mul(p, q)),
        }
    }
    let z = b.input([16], "z");
    for _ in 0..rng.gen_range(1..3usize) {
        b.reduce(ReduceKind::Sum, z, &[0]);
    }
    let g = b.finish();
    let psi = topo_order(&g);
    let mut txn = GraphTxn::begin(&g);
    for _ in 0..rng.gen_range(1..4usize) {
        let cut = rng.gen_range(1..psi.len());
        let from = picks(rng, &psi[..cut], 4);
        let to = picks(rng, &psi[cut..], 4);
        txn.add_keepalive_fan(&from, &to).expect("live endpoints");
    }
    let g = txn.commit();
    let mut txn = GraphTxn::begin(&g);
    for v in g.graph_outputs() {
        if txn.len() > 4 && rng.gen_bool(0.4) {
            txn.remove(v).expect("a sink removes cleanly");
        }
    }
    txn.commit()
}

/// Picks `1..=max` entries of `pool`, duplicates allowed.
fn picks(rng: &mut SmallRng, pool: &[NodeId], max: usize) -> Vec<NodeId> {
    (0..rng.gen_range(1..=max)).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

/// A child of `parent` by one to four random edits.
fn random_child(rng: &mut SmallRng, parent: &Graph) -> Graph {
    let psi = topo_order(parent);
    let ops: Vec<NodeId> = psi.iter().copied().filter(|&v| !parent.node(v).op.is_input()).collect();
    let mut txn = GraphTxn::begin(parent);
    for _ in 0..rng.gen_range(1..5usize) {
        match rng.gen_range(0..7u32) {
            // Add: a fresh consumer, in the smallest free slot if any.
            0 => {
                let p = psi[rng.gen_range(0..psi.len())];
                if txn.contains(p) && txn.node(p).meta.shape.rank() == 1 {
                    txn.add(OpKind::Unary(UnaryKind::Tanh), &[p]).expect("live input");
                }
            }
            // Remove a sink.
            1 => {
                let sinks: Vec<NodeId> = txn.node_ids().filter(|&v| txn.suc(v).is_empty()).collect();
                if txn.len() > 4 {
                    txn.remove(sinks[rng.gen_range(0..sinks.len())]).expect("a sink removes cleanly");
                }
            }
            // Rewire one input of a node to an earlier node of its shape.
            2 => {
                let at = rng.gen_range(1..psi.len());
                let (u, new) = (psi[at], psi[rng.gen_range(0..at)]);
                let live = txn.contains(u) && txn.contains(new);
                if let Some(&old) = live.then(|| txn.pre(u).first()).flatten() {
                    if old != new && txn.node(old).meta == txn.node(new).meta {
                        txn.replace_input(u, old, new);
                    }
                }
            }
            // Rescale a node's repeat.
            3 => {
                let v = ops[rng.gen_range(0..ops.len())];
                if txn.contains(v) {
                    txn.set_cost_repeat(v, rng.gen_range(1..5u64));
                }
            }
            // Rescale `z`'s extent: its reductions keep their node, not
            // their latency.
            4 => {
                if let Some(z) = psi.iter().copied().find(|&v| txn.contains(v) && txn.node(v).name == "z") {
                    txn.set_meta(z, TensorMeta::new([rng.gen_range(1..5u64) * 8], DType::F32));
                }
            }
            // Remat: clone a producer for one of its consumers.
            5 => {
                let p = ops[rng.gen_range(0..ops.len())];
                let reads = |c: &NodeId| txn.pre(*c).contains(&p);
                let users: Vec<NodeId> = if txn.contains(p) { txn.suc(p).into_iter().filter(reads).collect() } else { Vec::new() };
                if let Some(&c) = users.first().filter(|_| users.len() > 1) {
                    let (op, inputs) = (txn.node(p).op.clone(), txn.pre(p).to_vec());
                    let clone = txn.add(op, &inputs).expect("the original's inputs are live");
                    txn.replace_input(c, p, clone);
                }
            }
            // A new fan: the child's pin table differs from the parent's.
            _ => {
                let cut = rng.gen_range(1..psi.len());
                let mut live = |pool: &[NodeId]| {
                    picks(rng, pool, 3).into_iter().filter(|&v| txn.contains(v)).collect::<Vec<_>>()
                };
                let (from, to) = (live(&psi[..cut]), live(&psi[cut..]));
                txn.add_keepalive_fan(&from, &to).expect("live endpoints");
            }
        }
    }
    txn.commit()
}

/// Whether slot `i` holds, in both graphs, nodes that differ at most in
/// their successors and names (or is dead in both).
fn same_but_succs(a: &Graph, b: &Graph, i: usize) -> bool {
    let v = NodeId::from_index(i);
    match (a.contains(v), b.contains(v)) {
        (true, true) => {
            let (x, y) = (a.node(v), b.node(v));
            x.op == y.op
                && x.meta == y.meta
                && x.inputs() == y.inputs()
                && x.keepalive() == y.keepalive()
                && x.cost_repeat == y.cost_repeat
                && x.alloc_with == y.alloc_with
        }
        (x, y) => !x && !y,
    }
}

fn check(rng: &mut SmallRng, carried: &mut usize) -> Result<(), String> {
    let n = rng.gen_range(4..40usize);
    let parent = random_parent(rng, n);
    let child = random_child(rng, &parent);
    child.validate().map_err(|e| format!("child invalid: {e}"))?;
    let rewritten = child.rewritten_slots(&parent);
    prop_assert!(rewritten.windows(2).all(|w| w[0] < w[1]), "the diff is ascending");
    for i in 0..parent.capacity().max(child.capacity()) {
        let listed = rewritten.binary_search(&NodeId::from_index(i)).is_ok();
        prop_assert_eq!(listed, !same_but_succs(&parent, &child, i), "slot {} listed {}", i, listed);
    }

    let table = ParentDigests::of(&parent);
    prop_assert_eq!(table.digests(), &graph_digests(&parent));
    let full = graph_digests(&child);
    if let Some(c) = table.carry(&parent, &child, &rewritten) {
        *carried += 1;
        prop_assert_eq!(c.digests.sum(), full.sum(), "carried sum");
        prop_assert_eq!(c.digests.hash(), graph_hash(&child), "carried hash");
        prop_assert_eq!(&c.digests, &full, "carried digests");
        prop_assert!(c.recomputed <= child.len());
    } else {
        let same_pins = parent.pins().groups() == child.pins().groups();
        prop_assert!(!same_pins || rewritten.len() >= child.len() / 2, "an equal pin table carries");
    }
    prop_assert_eq!(child_hash(&child, Some((&table, &parent, &rewritten))), graph_hash(&child));

    let perf = PerfCache::default();
    let carried_lat = perf.table(&parent).carry(&child, &rewritten);
    let full_lat = perf.table(&child);
    let bits = |t: &[f64]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(carried_lat.latencies()), bits(full_lat.latencies()), "carried latencies");
    Ok(())
}

#[test]
fn carried_tables_equal_a_full_pass_over_the_child() {
    let mut carried = 0;
    let cases = 300;
    run_cases(ProptestConfig::with_cases(cases), "carried_tables", |rng| check(rng, &mut carried));
    // Most children keep their parent's pin table, and those carry.
    assert!(carried * 2 > cases as usize, "only {carried} of {cases} children carried");
}
