//! A fission overlay keeps its node ids across a base edit outside its
//! regions.
//!
//! Each case builds a random DAG, enables one or two F-Tree regions,
//! and edits the base outside them in one of three ways: a node added
//! in a fresh slot, a sink removed, or a node added in a sealed
//! tombstone. The overlays of the base before and after the edit
//! (`build_overlay_graph`, the search's builder) must give every slice
//! and merge the same id, differ in no slot but the edited one
//! (`Graph::rewritten_slots`), and carry the child's digests from the
//! parent's (`ParentDigests::carry` takes the child, equal to a full
//! pass). The one exception is an edit that moves the base's capacity
//! across a 64-slot boundary, which moves the overlay's floor; such a
//! case is skipped.

use magis_core::ftree::{FTree, FTreeMutation};
use magis_core::state::build_overlay_graph;
use magis_graph::algo::{graph_digests, ParentDigests};
use magis_graph::op::{OpKind, UnaryKind};
use magis_graph::{Graph, GraphTxn, GraphView, NodeId};
use magis_models::random_dnn::{random_dnn, RandomDnnConfig};
use magis_util::prop::prelude::*;
use magis_util::prop::run_cases;
use magis_util::rng::{Rng, SmallRng};
use std::collections::BTreeSet;

/// The base edits of a case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edit {
    Add,
    Remove,
    ReuseTombstone,
}

const EDITS: [Edit; 3] = [Edit::Add, Edit::Remove, Edit::ReuseTombstone];

/// `tree` with one or two more of its regions enabled, or `None`.
fn enable_regions(rng: &mut SmallRng, base: &Graph, mut tree: FTree) -> Option<FTree> {
    for _ in 0..rng.gen_range(1..3usize) {
        let enables: Vec<FTreeMutation> = tree
            .legal_mutations(base)
            .into_iter()
            .filter(|m| matches!(m, FTreeMutation::Enable(_)))
            .collect();
        if enables.is_empty() {
            break;
        }
        tree = tree.apply(base, enables[rng.gen_range(0..enables.len())]).ok()?.0;
    }
    (!tree.enabled_order().is_empty()).then_some(tree)
}

/// A node that reads no region member and that no region member reads,
/// so a consumer of it added or a sink of it removed leaves every
/// region's inputs, outputs and readers as they were.
fn outside(g: &Graph, regions: &BTreeSet<NodeId>, v: NodeId) -> bool {
    !regions.contains(&v) && g.pre(v).iter().all(|p| !regions.contains(p))
}

/// The base after `edit`, and the slot it edited; `None` where no node
/// qualifies.
fn edited(rng: &mut SmallRng, base: &Graph, regions: &BTreeSet<NodeId>, edit: Edit) -> Option<(Graph, NodeId)> {
    let mut txn = GraphTxn::begin(base);
    let slot = match edit {
        Edit::Add | Edit::ReuseTombstone => {
            let hosts: Vec<NodeId> = base.node_ids().filter(|&v| outside(base, regions, v)).collect();
            let host = *hosts.get(rng.gen_range(0..hosts.len().max(1)))?;
            txn.add(OpKind::Unary(UnaryKind::Relu), &[host]).expect("a live input")
        }
        Edit::Remove => {
            let sinks: Vec<NodeId> =
                base.graph_outputs().into_iter().filter(|&v| outside(base, regions, v)).collect();
            let sink = *sinks.get(rng.gen_range(0..sinks.len().max(1)))?;
            txn.remove(sink).expect("a sink removes cleanly");
            sink
        }
    };
    Some((txn.commit(), slot))
}

/// The overlay's own nodes: the slices and merges, live past the base.
fn overlay_nodes(overlay: &Graph, base: &Graph) -> Vec<(NodeId, OpKind, Vec<NodeId>)> {
    overlay
        .node_ids()
        .filter(|&v| v.index() >= base.capacity() || !base.contains(v))
        .map(|v| (v, overlay.node(v).op.clone(), overlay.pre(v).to_vec()))
        .collect()
}

fn check(rng: &mut SmallRng, edit: Edit) -> Result<bool, String> {
    let seed = rng.gen_range(0..10_000u64);
    let mut base = random_dnn(&RandomDnnConfig { cells: 2, blocks: 4, ..RandomDnnConfig::default() }, seed);
    let Some(tree) = enable_regions(rng, &base, FTree::build_naive(&base, 8, seed)) else { return Ok(false) };
    let regions: BTreeSet<NodeId> =
        tree.enabled_order().into_iter().flat_map(|i| tree.node(i).spec.set.iter().copied()).collect();
    if edit == Edit::ReuseTombstone {
        // A sealed tombstone for the edit to fill: a sink added and
        // removed in two committed transactions.
        let Some((with_sink, sink)) = edited(rng, &base, &regions, Edit::Add) else { return Ok(false) };
        let mut txn = GraphTxn::begin(&with_sink);
        txn.remove(sink).expect("a sink removes cleanly");
        base = txn.commit();
        prop_assert_eq!(base.free_slots(), 1);
    }
    let Some((child_base, slot)) = edited(rng, &base, &regions, edit) else { return Ok(false) };
    if edit == Edit::ReuseTombstone {
        prop_assert_eq!(child_base.capacity(), base.capacity(), "the add fills the tombstone");
    }
    if base.capacity() / 64 != child_base.capacity() / 64 {
        return Ok(false);
    }
    let Ok(parent) = build_overlay_graph(&base, &tree) else { return Ok(false) };
    let child = build_overlay_graph(&child_base, &tree).map_err(|e| format!("{edit:?}: child overlay: {e}"))?;

    let nodes = overlay_nodes(&parent, &base);
    prop_assert!(!nodes.is_empty(), "an enabled region adds slices or merges");
    prop_assert_eq!(nodes, overlay_nodes(&child, &child_base), "{:?}: every overlay node keeps its id", edit);
    prop_assert_eq!(child.pins().groups(), parent.pins().groups(), "{:?}: the pin table", edit);
    let rewritten = child.rewritten_slots(&parent);
    prop_assert_eq!(rewritten, vec![slot], "{:?}: the diff is the edited slot", edit);

    let carried = ParentDigests::of(&parent).carry(&parent, &child, &[slot]);
    let carried = carried.ok_or_else(|| format!("{edit:?}: the carry declined the child"))?;
    prop_assert_eq!(&carried.digests, &graph_digests(&child), "{:?}: carried digests", edit);
    Ok(true)
}

#[test]
fn a_base_edit_outside_the_regions_keeps_every_overlay_id() {
    for edit in EDITS {
        let mut checked = 0;
        let cases = 40;
        run_cases(ProptestConfig::with_cases(cases), &format!("overlay_ids {edit:?}"), |rng| {
            checked += usize::from(check(rng, edit)?);
            Ok(())
        });
        assert!(checked * 2 > cases as usize, "{edit:?}: only {checked} of {cases} cases checked");
    }
}
