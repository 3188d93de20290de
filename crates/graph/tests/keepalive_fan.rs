//! Pin groups against the keepalive edges they stand for.
//!
//! `GraphTxn::add_keepalive_fan` stores a fan as one pin group, and
//! every pass is to read the group as the edge from each of its inputs
//! to each of its merges. Each case builds a random DAG with aliases,
//! plain keepalive edges and random fans (duplicates included), and
//! keeps two copies: one with each fan as a group, one with the same
//! pairs written by `add_keepalive`, inputs outermost — the order a
//! graph record reads back. Everything a pass returns must agree
//! between the two, and for a dead endpoint the fan must return the
//! error the pairwise loop hits first, having changed nothing.

use magis_graph::algo::{
    graph_hash, is_topo_order, topo_order, topo_order_of, weakly_connected_components, DomTree,
    Reachability,
};
use magis_graph::builder::GraphBuilder;
use magis_graph::io::{from_record, to_dot, to_record, to_text};
use magis_graph::tensor::DType;
use magis_graph::{Graph, GraphError, GraphTxn, GraphView, NodeId};
use magis_sched::{
    dp_schedule, partition, stabilize_order, validate_schedule, SchedConfig, SchedTask,
};
use magis_sim::{memory_profile_checked, simulate_checked, CostModel};
use magis_util::prop::prelude::*;
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeSet;

/// A random DAG of `n` ops over two inputs: unary and binary ops on
/// `[16]` tensors, reshapes to `[4, 4]` (aliases) and ops on those,
/// with a few sinks removed so slots have holes.
fn random_dag(rng: &mut SmallRng, n: usize) -> Graph {
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
    let g = b.finish();
    let mut txn = GraphTxn::begin(&g);
    for v in g.graph_outputs().into_iter().filter(|_| rng.gen_bool(0.3)) {
        if txn.len() > 3 {
            txn.remove(v).expect("sink removes cleanly");
        }
    }
    txn.commit()
}

/// Picks `1..=max` entries of `pool`, duplicates allowed.
fn picks(rng: &mut SmallRng, pool: &[NodeId], max: usize) -> Vec<NodeId> {
    (0..rng.gen_range(1..=max)).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
}

/// The grouped and the plain copy of one random graph: forward plain
/// keepalive edges first, then forward fans, each fan cut at its own
/// point of one topological order so both copies stay acyclic.
fn both_copies(rng: &mut SmallRng, n: usize) -> (Graph, Graph) {
    let base = random_dag(rng, n);
    let psi = topo_order(&base);
    let (mut grouped, mut plain) = (GraphTxn::begin(&base), GraphTxn::begin(&base));
    for _ in 0..rng.gen_range(0..3usize) {
        let (a, b) = (rng.gen_range(0..psi.len()), rng.gen_range(0..psi.len()));
        if a < b {
            grouped.add_keepalive(psi[a], psi[b]).expect("live endpoints");
            plain.add_keepalive(psi[a], psi[b]).expect("live endpoints");
        }
    }
    for _ in 0..rng.gen_range(1..4usize) {
        let cut = rng.gen_range(1..psi.len());
        let from = picks(rng, &psi[..cut], 5);
        let to = picks(rng, &psi[cut..], 5);
        grouped.add_keepalive_fan(&from, &to).expect("live endpoints");
        for &u in &from {
            for &m in &to {
                plain.add_keepalive(u, m).expect("live endpoints");
            }
        }
    }
    (grouped.commit(), plain.commit())
}

fn random_subset(rng: &mut SmallRng, g: &Graph) -> BTreeSet<NodeId> {
    g.node_ids().filter(|_| rng.gen_bool(0.6)).collect()
}

/// `order` with some adjacent pairs swapped: often no longer
/// topological.
fn jostled(rng: &mut SmallRng, order: &[NodeId]) -> Vec<NodeId> {
    let mut out = order.to_vec();
    for _ in 0..rng.gen_range(0..4usize) {
        let i = rng.gen_range(0..out.len().max(2) - 1);
        if i + 1 < out.len() {
            out.swap(i, i + 1);
        }
    }
    out
}

/// A task's predecessor rows with each pin group read as its edges.
fn effective_preds(task: &SchedTask<'_>) -> Vec<Vec<usize>> {
    (0..task.len())
        .map(|i| {
            let groups = task.pins.merge_of(i).iter().flat_map(|&k| task.pins.inputs[k].iter());
            let mut row: Vec<usize> = task.preds[i].iter().chain(groups).copied().collect();
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect()
}

/// A task's root-user rows with each pin group read as its merges.
fn effective_root_users(task: &SchedTask<'_>) -> Vec<Vec<usize>> {
    (0..task.roots.len())
        .map(|r| {
            let pinned = if task.pins.is_empty() { &[][..] } else { &task.root_pins[r] };
            let groups = pinned.iter().flat_map(|&k| task.pins.merges[k].iter());
            let mut row: Vec<usize> = task.root_users[r].iter().chain(groups).copied().collect();
            row.sort_unstable();
            row.dedup();
            row
        })
        .collect()
}

/// Everything of a task but its edge layout, which the copies store
/// differently.
fn task_view(task: &SchedTask<'_>) -> impl PartialEq + std::fmt::Debug {
    let rows = |csr: &magis_sched::task::Csr| csr.iter().map(<[usize]>::to_vec).collect::<Vec<_>>();
    let roots: Vec<_> = task.roots.iter().map(|r| (r.bytes, r.freeable, r.alloc_at)).collect();
    (task.nodes.clone(), effective_preds(task), roots, effective_root_users(task), rows(&task.allocs), task.base)
}

fn assert_agree(grouped: &Graph, plain: &Graph, rng: &mut SmallRng) -> Result<(), String> {
    let what = |pass: &str| format!("{pass} differs between the pin groups and their edges");
    grouped.validate().map_err(|e| format!("grouped copy invalid: {e}"))?;
    prop_assert_eq!(graph_hash(grouped), graph_hash(plain), "{}", what("graph_hash"));
    // The outputs that show edges write a group as its pairs; a record
    // reads back as plain edges with the same hash.
    prop_assert_eq!(to_record(grouped), to_record(plain), "{}", what("to_record"));
    prop_assert_eq!(to_text(grouped), to_text(plain), "{}", what("to_text"));
    prop_assert_eq!(to_dot(grouped), to_dot(plain), "{}", what("to_dot"));
    let read = from_record(&to_record(grouped)).map_err(|e| e.to_string())?;
    prop_assert!(read.pins().is_empty());
    prop_assert_eq!(graph_hash(&read), graph_hash(grouped));
    // Successor lists as multisets: a rewrite appends what it moves, so
    // their order follows the history of edits, and no pass reads it.
    let expanded = grouped.expand_pins();
    let sorted = |ids: &[NodeId]| {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        ids
    };
    for v in plain.node_ids() {
        let (e, p) = (expanded.node(v), plain.node(v));
        prop_assert_eq!(e.keepalive(), p.keepalive(), "expand_pins: keepalive of {}", v);
        prop_assert_eq!(sorted(e.succs()), sorted(p.succs()), "expand_pins: succs of {}", v);
        prop_assert_eq!(grouped.use_count(v), plain.use_count(v), "{}", what("use_count"));
        prop_assert_eq!(grouped.suc(v), plain.suc(v), "{}", what("suc"));
        prop_assert_eq!(grouped.pre_all(v), plain.pre_all(v), "{}", what("pre_all"));
    }
    prop_assert_eq!(grouped.graph_inputs(), plain.graph_inputs());
    prop_assert_eq!(grouped.graph_outputs(), plain.graph_outputs());

    let psi = topo_order(grouped);
    prop_assert_eq!(&psi, &topo_order(plain), "{}", what("topo_order"));
    let (ra, rb) = (Reachability::compute(grouped), Reachability::compute(plain));
    for v in grouped.node_ids() {
        prop_assert!(ra.ancestors(v) == rb.ancestors(v), "{}", what("ancestors"));
        prop_assert!(ra.descendants(v) == rb.descendants(v), "{}", what("descendants"));
        prop_assert_eq!(ra.narrow_waist(v), rb.narrow_waist(v));
    }
    for _ in 0..3 {
        let set = random_subset(rng, grouped);
        prop_assert_eq!(topo_order_of(grouped, &set), topo_order_of(plain, &set), "{}", what("topo_order_of"));
        prop_assert_eq!(
            weakly_connected_components(grouped, &set),
            weakly_connected_components(plain, &set),
            "{}",
            what("components")
        );
        let (da, db) = (DomTree::compute(grouped, &set), DomTree::compute(plain, &set));
        for &v in &set {
            prop_assert_eq!(da.idom(v), db.idom(v), "{}", what("DomTree"));
        }
        prop_assert_eq!(partition(grouped, &set), partition(plain, &set), "{}", what("partition"));
        let (ta, tb) = (SchedTask::subset(grouped, &set), SchedTask::subset(plain, &set));
        prop_assert_eq!(task_view(&ta), task_view(&tb), "{}", what("SchedTask::subset"));
        for width in [1, 8, 64] {
            let cfg = SchedConfig { beam_width: width, ..SchedConfig::default() };
            let (a, b) = (dp_schedule(&ta, &cfg), dp_schedule(&tb, &cfg));
            prop_assert_eq!((a.order, a.peak, a.states_expanded), (b.order, b.peak, b.states_expanded));
        }
    }

    for _ in 0..3 {
        let mut desired = psi.clone();
        desired.reverse();
        let keep = rng.gen_range(0..=desired.len());
        let desired = jostled(rng, &desired[..keep]);
        let order = stabilize_order(grouped, &desired);
        prop_assert_eq!(&order, &stabilize_order(plain, &desired), "{}", what("stabilize_order"));
        let (pa, pb) = (memory_profile_checked(grouped, &order), memory_profile_checked(plain, &order));
        let peaks = |p: &magis_sim::MemoryProfile| (p.peak_bytes, p.step_bytes.clone(), p.hotspots.clone());
        prop_assert_eq!(pa.as_ref().map(peaks).ok(), pb.as_ref().map(peaks).ok(), "{}", what("memory profile"));
        let cm = CostModel::default();
        let times = |t: magis_sim::ExecTimeline| (t.total, t.finish);
        let (sa, sb) = (simulate_checked(grouped, &order, &cm), simulate_checked(plain, &order, &cm));
        prop_assert_eq!(sa.ok().map(times), sb.ok().map(times), "{}", what("simulate"));
        // Any order, topological or not: the same verdict, the same
        // first violation.
        let any = jostled(rng, &order);
        prop_assert_eq!(is_topo_order(grouped, &any), is_topo_order(plain, &any));
        prop_assert_eq!(validate_schedule(grouped, &any), validate_schedule(plain, &any), "{}", what("validate_schedule"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn every_pass_reads_a_group_as_its_edges(n in 4usize..36, seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (grouped, plain) = both_copies(&mut rng, n);
        assert_agree(&grouped, &plain, &mut rng)?;
        // Rewiring keeps the two in step: a redirect moves pins too, and
        // removing a merge drops it from its group.
        let (mut ga, mut pa) = (GraphTxn::begin(&grouped), GraphTxn::begin(&plain));
        let psi = topo_order(&grouped);
        let old = psi[rng.gen_range(0..psi.len())];
        let fresh = |t: &mut GraphTxn| t.add(magis_graph::op::OpKind::Unary(magis_graph::op::UnaryKind::Relu), &[psi[0]]);
        if grouped.node(psi[0]).meta == grouped.node(old).meta && old != psi[0] {
            let (na, nb) = (fresh(&mut ga).expect("live"), fresh(&mut pa).expect("live"));
            prop_assert_eq!(na, nb);
            ga.redirect_uses(old, na);
            pa.redirect_uses(old, nb);
        }
        for v in grouped.node_ids().filter(|_| rng.gen_bool(0.2)) {
            prop_assert_eq!(ga.remove(v), pa.remove(v), "remove {}", v);
        }
        assert_agree(&ga.commit(), &pa.commit(), &mut rng)?;
    }

    #[test]
    fn a_dead_endpoint_is_the_pairwise_loops_error(
        n in 4usize..20,
        seed in 0u64..u64::MAX,
        // 0: a foreign id; 1: a node removed earlier in the transaction.
        dead in 0usize..2,
        on_merges in any::<bool>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_dag(&mut rng, n);
        let psi = topo_order(&g);
        let cut = rng.gen_range(1..psi.len());
        let (mut from, mut to) = (picks(&mut rng, &psi[..cut], 4), picks(&mut rng, &psi[cut..], 4));
        let (mut fan, mut looped) = (GraphTxn::begin(&g), GraphTxn::begin(&g));
        let ghost = match dead {
            0 => NodeId::from_index(g.capacity() + 3),
            _ => {
                let sink = *g.graph_outputs().last().expect("a DAG has a sink");
                fan.remove(sink).expect("a sink has no users");
                looped.remove(sink).expect("a sink has no users");
                from.retain(|&v| v != sink);
                to.retain(|&v| v != sink);
                sink
            }
        };
        let list = if on_merges { &mut to } else { &mut from };
        let at = rng.gen_range(0..=list.len());
        list.insert(at, ghost);
        let before = to_record(&fan.clone().commit());
        let a = fan.add_keepalive_fan(&from, &to);
        let b: Result<(), GraphError> =
            from.iter().try_for_each(|&u| to.iter().try_for_each(|&m| looped.add_keepalive(u, m)));
        prop_assert_eq!(&a, &b, "outcome for {:?} x {:?}", from, to);
        // An empty side means no pair, so a dead endpoint on the other
        // side goes unnoticed — by both.
        prop_assert_eq!(a.is_err(), !from.is_empty() && !to.is_empty());
        let after = fan.commit();
        prop_assert!(a.is_ok() || (after.pins().is_empty() && to_record(&after) == before));
    }
}
