//! Extension E1 (the paper's footnote-2 future work): fission along
//! sliding-window spatial axes with halo-overlap accounting. U-Net's
//! stride-1 double-convolutions over large feature maps are the target
//! case: splitting H shrinks every interior feature map while the
//! halo's extra reads appear as `PartSlice` traffic.

use magis::core::dgraph::{component_dims, DimGraph};
use magis::core::fission::{apply_overlay, FissionSpec};
use magis::prelude::*;
use magis::sim::evaluate_checked;
use magis_graph::algo::topo_order;
use magis_graph::{GraphTxn, GraphView};
use std::collections::BTreeSet;

/// A stride-1 conv chain (one U-Net double-conv block plus one more).
fn conv_chain() -> (Graph, Vec<NodeId>) {
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
    (b.finish(), convs)
}

fn h_spec(g: &Graph, nodes: &[NodeId], parts: u64) -> FissionSpec {
    let dg = DimGraph::build(g);
    let set: BTreeSet<NodeId> = nodes.iter().copied().collect();
    let comp = dg
        .components()
        .into_iter()
        .find(|c| c.contains(&(nodes[0], 3)))
        .expect("H component exists");
    let dims = component_dims(&comp, &set).expect("unique H dims");
    FissionSpec { set, dims, parts }
}

#[test]
fn h_axis_component_spans_conv_chain() {
    let (g, convs) = conv_chain();
    let dg = DimGraph::build(&g);
    let comp = dg
        .components()
        .into_iter()
        .find(|c| c.contains(&(convs[0], 3)))
        .expect("H component");
    // Every conv/relu H dim participates.
    for &c in &convs {
        assert!(comp.contains(&(c, 3)), "node {c} H in component");
    }
}

#[test]
fn h_split_validates_and_has_halo() {
    let (g, convs) = conv_chain();
    let spec = h_spec(&g, &convs, 4);
    spec.validate(&g).unwrap();
    // Three 3x3 convs: accumulated halo = 3 * (3 - 1) = 6.
    assert_eq!(spec.region_halo(&g), 6);
}

#[test]
fn h_split_overlay_annotates_halo_and_scales_interiors() {
    let (g, convs) = conv_chain();
    let cm = CostModel::default();
    let base = evaluate_checked(&g, &topo_order(&g), &cm).unwrap();
    let spec = h_spec(&g, &convs, 4);
    let mut txn = GraphTxn::begin(&g);
    let info = apply_overlay(&mut txn, &spec).unwrap();
    let ov = txn.commit();
    ov.validate().unwrap();
    // The input part-slice carries the halo annotation.
    let ps = info.slices[0];
    assert!(matches!(ov.node(ps).op, OpKind::PartSlice { halo: 6, .. }));
    let ev = evaluate_checked(&ov, &topo_order(&ov), &cm).unwrap();
    assert!(ev.latency > base.latency, "halo + utilization cost latency");
    // Interior shapes scaled along H only (dim 2 is H in NCHW).
    for &c in &convs {
        assert_eq!(ov.node(c).meta.shape.dim(2), 16, "H 64/4");
        assert_eq!(ov.node(c).meta.shape.dim(3), 64, "W untouched");
    }
}

/// On a plain chain, fission pins the region's input and output while
/// interiors were dying immediately anyway — it should NOT pay off. On
/// a chain whose activations stay live (a backward pass reads them),
/// it must. Splitting H captures exactly U-Net's high-resolution
/// regime.
#[test]
fn h_split_pays_off_with_long_lifetimes_only() {
    let cm = CostModel::default();
    // Plain chain: fission is counterproductive (honest negative).
    let (g, convs) = conv_chain();
    let base = evaluate_checked(&g, &topo_order(&g), &cm).unwrap();
    let mut txn = GraphTxn::begin(&g);
    apply_overlay(&mut txn, &h_spec(&g, &convs, 4)).unwrap();
    let ov = txn.commit();
    let ev = evaluate_checked(&ov, &topo_order(&ov), &cm).unwrap();
    assert!(
        ev.peak_bytes >= base.peak_bytes,
        "chain fission pins I/O without freeing anything"
    );

    // Chain with long skips: every activation is re-read at the end
    // (the U-Net/backward lifetime shape) — H fission shrinks the live
    // set.
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([4, 16, 64, 64], "x");
    let mut cur = x;
    let mut acts = Vec::new();
    for i in 0..4 {
        let w = b.weight([16, 16, 3, 3], &format!("w{i}"));
        cur = b.conv2d(cur, w, magis::graph::op::Conv2dAttrs::same(1));
        acts.push(cur);
        cur = b.relu(cur);
        acts.push(cur);
    }
    // Late re-reads, LIFO.
    let snapshot: Vec<NodeId> = acts.iter().rev().copied().collect();
    for a in snapshot {
        cur = b.add_op(cur, a);
        acts.push(cur);
    }
    let g = b.finish();
    let base = evaluate_checked(&g, &topo_order(&g), &cm).unwrap();
    let spec = h_spec(&g, &acts, 4);
    spec.validate(&g).unwrap();
    let mut txn = GraphTxn::begin(&g);
    apply_overlay(&mut txn, &spec).unwrap();
    let ov = txn.commit();
    ov.validate().unwrap();
    let ev = evaluate_checked(&ov, &topo_order(&ov), &cm).unwrap();
    assert!(
        ev.peak_bytes < base.peak_bytes,
        "H fission shrinks long-lived feature maps: {} < {}",
        ev.peak_bytes,
        base.peak_bytes
    );
}

#[test]
fn strided_conv_blocks_h_component() {
    // A stride-2 conv in the middle must break the H chain: its H dim
    // is unlinked, so no valid spec spans it.
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([2, 8, 32, 32], "x");
    let w1 = b.weight([8, 8, 3, 3], "w1");
    let c1 = b.conv2d(x, w1, magis::graph::op::Conv2dAttrs::same(1));
    let w2 = b.weight([8, 8, 3, 3], "w2");
    let c2 = b.conv2d(c1, w2, magis::graph::op::Conv2dAttrs::strided(2, 1));
    let g = b.finish();
    let dg = DimGraph::build(&g);
    let comp = dg.components().into_iter().find(|c| c.contains(&(c1, 3)));
    if let Some(comp) = comp {
        assert!(!comp.contains(&(c2, 3)), "strided conv H not in the chain");
    }
}

#[test]
fn unet_ftree_contains_spatial_candidates() {
    // With E1, the U-Net F-Tree should offer H/W splits in addition to
    // batch splits.
    let tg = Workload::UNet.build(0.3);
    let ctx = EvalContext::default();
    let mut s = MState::initial(tg.graph.clone(), &ctx);
    s.analyze(4);
    assert!(!s.ftree.is_empty());
    let spatial = s.ftree.nodes().iter().any(|n| {
        n.spec
            .dims
            .iter()
            .any(|(&v, &d)| d > 2 && tg.graph.node(v).meta.shape.rank() == 4)
    });
    let batch = s.ftree.nodes().iter().any(|n| n.spec.dims.values().any(|&d| d == 1));
    assert!(
        spatial || batch,
        "F-Tree offers spatial or batch candidates; got {} candidates",
        s.ftree.len()
    );
}
