//! Property-based tests of the fission machinery: for random MLP-like
//! training graphs and random valid fission specs, the representative-
//! part overlay must agree with full materialization on semantics-level
//! invariants (validity, shape restoration) and approximate it on
//! cost/memory.

use magis::core::dgraph::{component_dims, DimGraph};
use magis::core::fission::{apply_full, apply_overlay, FissionSpec};
use magis::prelude::*;
use magis::sim::evaluate_checked;
use magis_graph::algo::{topo_order, weakly_connected_components};
use magis_graph::{GraphTxn, GraphView};
use magis_util::prop::prelude::*;
use std::collections::BTreeSet;

/// Builds a small training MLP with proptest-chosen dimensions.
fn build_mlp(batch: u64, hidden: u64, depth: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let mut cur = b.input([batch, hidden], "x");
    for i in 0..depth {
        let w = b.weight([hidden, hidden], &format!("w{i}"));
        let h = b.matmul(cur, w);
        cur = b.gelu(h);
    }
    let wl = b.weight([hidden, 8], "wl");
    let logits = b.matmul(cur, wl);
    let y = b.label([batch], "y");
    let loss = b.cross_entropy(logits, y);
    append_backward(b.finish(), loss, &TrainOptions::default())
        .expect("backward")
        .graph
}

/// Enumerates valid fission specs of `g`: contiguous topo-order runs of
/// each D-Graph component with a unique per-node dim choice.
fn valid_specs(g: &Graph, parts: u64) -> Vec<FissionSpec> {
    let dg = DimGraph::build(g);
    let order = topo_order(g);
    let mut specs = Vec::new();
    for comp in dg.components() {
        let nodes: BTreeSet<NodeId> = comp.iter().map(|&(v, _)| v).collect();
        let comp_order: Vec<NodeId> =
            order.iter().copied().filter(|v| nodes.contains(v)).collect();
        for len in [2usize, 4, 7] {
            for start in (0..comp_order.len().saturating_sub(len)).step_by(3) {
                let set: BTreeSet<NodeId> =
                    comp_order[start..start + len].iter().copied().collect();
                // Skip sets split by the component restriction.
                if weakly_connected_components(g, &set).len() != 1 {
                    continue;
                }
                let Some(dims) = component_dims(&comp, &set) else { continue };
                let spec = FissionSpec { set, dims, parts };
                if spec.validate(g).is_ok() {
                    specs.push(spec);
                }
            }
        }
    }
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn overlay_and_full_agree(
        batch_exp in 5u32..8,
        hidden_exp in 5u32..7,
        depth in 2usize..4,
        parts in prop::sample::select(vec![2u64, 4]),
    ) {
        let g = build_mlp(1 << batch_exp, 1 << hidden_exp, depth);
        let cm = CostModel::default();
        let specs = valid_specs(&g, parts);
        prop_assert!(!specs.is_empty(), "training MLPs always have fissionable regions");
        for spec in specs.iter().take(4) {
            // Overlay path.
            let mut txn = GraphTxn::begin(&g);
            apply_overlay(&mut txn, spec).expect("validated spec overlays");
            let ov = txn.commit();
            ov.validate().expect("overlay graph well-formed");
            // Full materialization path.
            let full = apply_full(&g, spec).expect("validated spec materializes");
            full.validate().expect("full graph well-formed");
            // Node-count relationship: overlay is O(|S|); full is O(n·|S|).
            prop_assert!(full.len() > ov.len());
            // Latency agreement within 35%.
            let ev_o = evaluate_checked(&ov, &topo_order(&ov), &cm).unwrap();
            let ev_f = evaluate_checked(&full, &topo_order(&full), &cm).unwrap();
            let ratio = ev_o.latency / ev_f.latency;
            prop_assert!((0.65..1.55).contains(&ratio), "latency ratio {ratio}");
            // Both transforms keep every original graph output shape:
            // outputs of the region are merged back to full size.
            for &out in &spec.outputs(&g) {
                let orig = g.node(out).meta.clone();
                let restored = ov
                    .node_ids()
                    .any(|v| ov.node(v).meta == orig && !ov.node(v).op.is_input());
                prop_assert!(restored, "overlay restores {orig} somewhere");
            }
        }
    }

    #[test]
    fn overlay_fission_never_increases_region_tensor_sizes(
        batch_exp in 5u32..8,
        parts in prop::sample::select(vec![2u64, 4, 8]),
    ) {
        let g = build_mlp(1 << batch_exp, 64, 3);
        let specs = valid_specs(&g, parts);
        for spec in specs.iter().take(4) {
            let mut txn = GraphTxn::begin(&g);
            apply_overlay(&mut txn, spec).expect("overlay");
            let ov = txn.commit();
            for (&v, &d) in &spec.dims {
                let before = g.node(v).meta.size_bytes();
                let after = ov.node(v).meta.size_bytes();
                if d > 0 {
                    prop_assert!(after < before, "split node shrinks: {after} < {before}");
                } else {
                    prop_assert_eq!(after, before, "reduce-dim node keeps full shape");
                }
                prop_assert_eq!(ov.node(v).cost_repeat, parts);
            }
        }
    }
}

#[test]
fn nested_specs_compose_on_training_graph() {
    let g = build_mlp(128, 64, 3);
    let specs = valid_specs(&g, 2);
    // Find a nested pair: one spec strictly inside another.
    let pair = specs.iter().enumerate().find_map(|(i, a)| {
        specs
            .iter()
            .enumerate()
            .find(|(j, b)| i != *j && b.set.is_subset(&a.set) && b.set.len() < a.set.len())
            .map(|(_, b)| (a.clone(), b.clone()))
    });
    if let Some((outer, inner)) = pair {
        let mut txn = GraphTxn::begin(&g);
        apply_overlay(&mut txn, &outer).expect("outer overlay");
        if apply_overlay(&mut txn, &inner).is_ok() {
            let gg = txn.commit();
            gg.validate().expect("nested overlay well-formed");
            for &v in &inner.set {
                assert_eq!(gg.node(v).cost_repeat, 4, "2 x 2 nested parts");
            }
        }
    }
}
