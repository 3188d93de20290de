//! Identity of the region-linear fission overlay with the algorithm it
//! replaced (`overlay_identity/reference.rs`, the only place that
//! algorithm still exists).
//!
//! The search's trajectory hangs on the overlaid graph bit for bit: the
//! WL hash reads edge lists, the DP breaks ties by node id and position,
//! the memory profile reads metas, repeats and anchors. So "same graph"
//! here means the same canonical record *and* the same `inputs` /
//! `keepalive` / `succs` vectors in the same order on every node, the
//! same `cost_repeat` and `alloc_with`, the same inserted slice/merge
//! ids, the same transaction delta — and, for a rejected region, the
//! same error.

#[path = "overlay_identity/reference.rs"]
mod reference;

use magis::core::dgraph::{component_dims, DimGraph};
use magis::core::fission::{apply_overlay, FissionSpec};
use magis::core::ftree::{FTree, FTreeMutation};
use magis::core::state::build_overlay_graph;
use magis::graph::io::to_record;
use magis::graph::{GraphTxn, GraphView};
use magis::prelude::*;
use magis_models::random_dnn::{random_dnn, RandomDnnConfig};
use magis_util::prop::prelude::*;
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeSet;

/// Overlays `specs` in order with the rewritten and with the reference
/// algorithm, each in its own transaction on `base`, and holds every
/// step and the committed result to identity. Returns the graph, or
/// `None` when both rejected a region (the transaction is abandoned,
/// as `build_overlay_graph` does).
fn overlay_both(base: &Graph, specs: &[&FissionSpec], what: &str) -> Option<Graph> {
    let mut new = GraphTxn::begin(base);
    let mut old = GraphTxn::begin(base);
    for (k, spec) in specs.iter().enumerate() {
        let a = apply_overlay(&mut new, spec).map(|i| (i.slices, i.merges));
        let b = reference::apply_overlay(&mut old, spec).map(|i| (i.slices, i.merges));
        assert_eq!(a, b, "{what}: region {k}: overlay outcome");
        if a.is_err() {
            return None;
        }
    }
    let ((new, dn), (old, dold)) = (new.commit(), old.commit());
    assert_eq!(
        (&dn.added, &dn.removed, &dn.touched),
        (&dold.added, &dold.removed, &dold.touched),
        "{what}: transaction delta"
    );
    assert_eq!(to_record(&new), to_record(&old), "{what}: canonical record");
    assert_eq!(new.capacity(), old.capacity(), "{what}: capacity");
    for v in new.node_ids() {
        let (n, o) = (new.node(v), old.node(v));
        assert_eq!(n.inputs(), o.inputs(), "{what}: inputs of {v}");
        assert_eq!(n.keepalive(), o.keepalive(), "{what}: keepalive of {v}");
        assert_eq!(n.succs(), o.succs(), "{what}: succs of {v}");
        assert_eq!(n.cost_repeat, o.cost_repeat, "{what}: cost_repeat of {v}");
        assert_eq!(n.alloc_with, o.alloc_with, "{what}: alloc_with of {v}");
        assert_eq!(n.meta, o.meta, "{what}: meta of {v}");
    }
    Some(new)
}

/// The enabled regions of `tree`, parents first — what
/// `build_overlay_graph` applies.
fn enabled_specs(tree: &FTree) -> Vec<&FissionSpec> {
    tree.enabled_order().into_iter().map(|i| &tree.node(i).spec).collect()
}

/// Whether some enabled region lies strictly inside another.
fn has_nested_regions(tree: &FTree) -> bool {
    let specs = enabled_specs(tree);
    specs.iter().any(|a| {
        specs.iter().any(|b| b.set.len() < a.set.len() && b.set.is_subset(&a.set))
    })
}

/// Walks a seeded lineage of F-Tree mutations the way the search does —
/// enable a leaf, enable or lift towards the root, deepen with mutate —
/// checking the overlay of every tree on the way. Returns how many of
/// the checked trees had nested enabled regions.
fn walk_lineage(base: &Graph, mut tree: FTree, seed: u64, steps: usize, what: &str) -> usize {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut nested = 0;
    for step in 0..steps {
        let legal = tree.legal_mutations(base);
        // Growing the fission state is the interesting direction; a
        // disable is taken only when nothing else is legal.
        let growing: Vec<FTreeMutation> = legal
            .iter()
            .copied()
            .filter(|m| !matches!(m, FTreeMutation::Disable(_)))
            .collect();
        let pool = if growing.is_empty() { &legal } else { &growing };
        if pool.is_empty() {
            break;
        }
        let m = pool[rng.gen_range(0..pool.len())];
        tree = tree.apply(base, m).expect("legal mutation applies").0;
        let what = format!("{what} seed {seed} step {step} ({m:?})");
        let reference = overlay_both(base, &enabled_specs(&tree), &what);
        let built = build_overlay_graph(base, &tree).ok();
        assert_eq!(
            built.as_ref().map(to_record),
            reference.as_ref().map(to_record),
            "{what}: build_overlay_graph"
        );
        nested += usize::from(reference.is_some() && has_nested_regions(&tree));
    }
    nested
}

#[test]
fn bench_model_lineages_overlay_identically() {
    let ctx = EvalContext::default();
    let mut nested = 0;
    for (w, scale) in [(Workload::BertBase, 0.25), (Workload::UNet, 0.15), (Workload::ResNet50, 0.1)]
    {
        let mut state = MState::initial(w.build(scale).graph, &ctx);
        state.analyze(4);
        assert!(!state.ftree.is_empty(), "{}: the analyzer finds regions", w.label());
        for seed in [3u64, 17, 40] {
            nested += walk_lineage(&state.base, state.ftree.clone(), seed, 10, w.label());
        }
    }
    assert!(nested > 0, "no lineage ever nested one enabled region in another");
}

/// The stride-1 conv chain of `tests/halo_fission.rs`: splits along H
/// and W carry a sliding-window halo into the `PartSlice` nodes.
#[test]
fn halo_splits_overlay_identically() {
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([4, 16, 64, 64], "x");
    let mut convs = Vec::new();
    let mut cur = x;
    for i in 0..3 {
        let w = b.weight([16, 16, 3, 3], &format!("w{i}"));
        cur = b.conv2d(cur, w, magis::graph::op::Conv2dAttrs::same(1));
        convs.push(cur);
        cur = b.relu(cur);
        convs.push(cur);
    }
    let g = b.finish();
    let dg = DimGraph::build(&g);
    let spec_on = |nodes: &[NodeId], dim: i32, parts: u64| {
        let set: BTreeSet<NodeId> = nodes.iter().copied().collect();
        let comp = dg
            .components()
            .into_iter()
            .find(|c| c.contains(&(nodes[0], dim)))
            .expect("component of the split dim");
        let dims = component_dims(&comp, &set).expect("unique dims");
        FissionSpec { set, dims, parts }
    };
    for dim in [1, 3, 4] {
        let outer = spec_on(&convs, dim, 4);
        assert_eq!(outer.region_halo(&g), reference::region_halo(&outer, &g));
        assert_eq!(outer.input_slice_axes(&g), reference::input_slice_axes(&outer, &g));
        assert_eq!(outer.outputs(&g), reference::outputs(&outer, &g));
        assert_eq!(outer.region_halo(&g) > 0, dim > 1, "only H/W splits have a halo");
        overlay_both(&g, &[&outer], &format!("conv chain dim {dim}")).expect("valid split");
        // A nested split of the middle block, in the same transaction.
        let inner = spec_on(&convs[2..4], dim, 2);
        overlay_both(&g, &[&outer, &inner], &format!("conv chain dim {dim} nested"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random graphs, random valid regions (the naïve F-Tree ignores
    /// dominators and hot-spots), random part counts, applied largest
    /// first like `build_overlay_graph` — overlapping regions included,
    /// where the second application may be rejected.
    #[test]
    fn random_regions_overlay_identically(seed in 0u64..10_000, take in 1usize..4, deep in any::<bool>()) {
        let g = random_dnn(&RandomDnnConfig { cells: 3, ..RandomDnnConfig::default() }, seed);
        let tree = FTree::build_naive(&g, 8, seed);
        prop_assume!(!tree.is_empty());
        let mut specs: Vec<FissionSpec> =
            tree.nodes().iter().take(take).map(|n| n.spec.clone()).collect();
        for spec in &mut specs {
            spec.parts = if deep { 4 } else { 2 };
            prop_assert_eq!(spec.validate(&g), reference::validate(spec, &g));
        }
        specs.sort_by_key(|s| std::cmp::Reverse(s.set.len()));
        overlay_both(&g, &specs.iter().collect::<Vec<_>>(), &format!("random_dnn {seed}"));
    }
}
