//! Edge cases of the scheduling stack: degenerate windows, anchored
//! allocations, boundary tensors, and keepalive ordering.

use magis_graph::builder::GraphBuilder;
use magis_graph::graph::NodeId;
use magis_graph::GraphView;
use magis_graph::op::MergeKind;
use magis_graph::tensor::DType;
use magis_sched::{dp_schedule, full_schedule, SchedConfig, SchedTask};
use magis_sim::memory_profile_checked;
use std::collections::BTreeSet;

#[test]
fn single_node_window() {
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([4], "x");
    let a = b.relu(x);
    let g = b.finish();
    let set: BTreeSet<NodeId> = [a].into_iter().collect();
    let task = SchedTask::subset(&g, &set);
    let res = dp_schedule(&task, &SchedConfig::default());
    assert_eq!(task.to_node_ids(&res.order), vec![a]);
}

#[test]
fn window_with_anchored_allocation() {
    // A Merge anchored at the region head must charge its bytes from
    // the anchor's execution in the DP, matching the profiler.
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([256], "x");
    let a = b.relu(x);
    let m = b.merge(a, MergeKind::Concat, 0, 4);
    let mut txn = magis_graph::GraphTxn::begin(&b.finish());
    txn.set_alloc_with(m, a);
    let g = txn.commit();
    let task = SchedTask::whole_graph(&g);
    let res = dp_schedule(&task, &SchedConfig::default());
    let ids = task.to_node_ids(&res.order);
    let prof = memory_profile_checked(&g, &ids).unwrap();
    assert_eq!(res.peak, prof.peak_bytes, "DP accounting matches profiler");
}

#[test]
fn keepalive_constrains_order() {
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([4], "x");
    let a = b.relu(x);
    let c = b.gelu(x);
    let g = {
        let mut txn = magis_graph::GraphTxn::begin(&b.finish());
        // c must run after a even though no data flows.
        txn.add_keepalive(a, c).unwrap();
        txn.commit()
    };
    let order = full_schedule(&g, &SchedConfig::default());
    let pa = order.iter().position(|&v| v == a).unwrap();
    let pc = order.iter().position(|&v| v == c).unwrap();
    assert!(pa < pc, "keepalive respected");
}

#[test]
fn outside_users_pin_window_tensors() {
    // A window tensor read from outside must never be freed inside.
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([1024], "x");
    let a = b.relu(x);
    let inner = b.gelu(a);
    let _outside = b.tanh_like(inner);
    let g = b.finish();
    let set: BTreeSet<NodeId> = [a, inner].into_iter().collect();
    let task = SchedTask::subset(&g, &set);
    // `inner` has an outside user: not freeable.
    let pinned = task
        .roots
        .iter()
        .filter(|r| !r.freeable && r.alloc_at.is_some())
        .count();
    assert!(pinned >= 1, "window outputs pinned");
}

trait TanhLike {
    fn tanh_like(&mut self, x: NodeId) -> NodeId;
}
impl TanhLike for GraphBuilder {
    fn tanh_like(&mut self, x: NodeId) -> NodeId {
        self.unary(magis_graph::op::UnaryKind::Tanh, x)
    }
}

// ---------------------------------------------------------------------------
// Incremental-rescheduling edge cases: rewrites whose dirty window hits
// a schedule boundary (graph source / sink) or the peak-memory region
// itself. Each case checks the two contracts the evaluation pipeline
// depends on: the merged order is a valid topo order, and the
// profile, lifetime table and plan the scheduler returns are the
// chosen order's own.
// ---------------------------------------------------------------------------

use magis_graph::algo::is_topo_order;
use magis_graph::graph::Graph;
use magis_graph::op::{OpKind, UnaryKind};
use magis_sched::{incremental_schedule_cached, IntervalParams};
use magis_sim::memory_profile_lifetimes;

/// A linear chain with one fat interior activation so the peak-memory
/// step sits in the middle of the schedule.
fn chain_graph() -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([64], "x");
    let a = b.relu(x);
    let fat = b.reshape(a, [64]);
    let big = b.gelu(fat);
    let c = b.sigmoid(big);
    let _d = b.relu(c);
    b.finish()
}

/// Runs the incremental scheduler with planning on and asserts
/// validity, plus that the returned profile, lifetime table and plan
/// are those of the chosen order (not of the order that lost the
/// rescheduled-vs-carried guard).
fn check_incremental(g_old: &Graph, g_new: &Graph, s_old: &BTreeSet<NodeId>) {
    let cfg = SchedConfig::default();
    let psi_old = full_schedule(g_old, &cfg);
    let (_, lt_old) = memory_profile_lifetimes(g_old, &psi_old).expect("old profile");
    let plan_old = magis_sim::memory_plan(g_old, &psi_old).expect("old plan");
    let inc = incremental_schedule_cached(
        g_old,
        g_new,
        s_old,
        &psi_old,
        Some(&lt_old),
        Some(&plan_old),
        &cfg,
        &IntervalParams::default(),
        None,
    )
    .expect("incremental schedule");
    assert!(is_topo_order(g_new, &inc.order), "merged order is a valid topo order");
    assert_eq!(inc.order.len(), g_new.len(), "order covers the new graph");
    let (full_prof, full_lt) =
        memory_profile_lifetimes(g_new, &inc.order).expect("full recompute");
    assert_eq!(inc.profile.peak_bytes, full_prof.peak_bytes, "peak is the chosen order's");
    assert_eq!(inc.lifetimes, full_lt, "lifetime table is the chosen order's");
    let full_plan = magis_sim::memory_plan(g_new, &inc.order).expect("full re-plan");
    assert_eq!(inc.plan.as_ref(), Some(&full_plan), "memory plan is the chosen order's");
}

#[test]
fn rewrite_touching_graph_source() {
    // Insert a node directly after the graph input: the dirty window
    // starts at schedule position 0, so the re-ordered region has no
    // clean prefix to splice back.
    let g_old = chain_graph();
    let src = g_old.node_ids().find(|&v| g_old.pre(v).is_empty()).expect("source");
    let user = g_old.suc(src)[0];
    let mut txn = magis_graph::GraphTxn::begin(&g_old);
    let inserted =
        txn.add(OpKind::Unary(UnaryKind::Relu), &[src]).expect("insert after source");
    txn.replace_input(user, src, inserted);
    let g_new = txn.commit();
    g_new.validate().expect("valid mutation");
    let s_old: BTreeSet<NodeId> = [src, user].into_iter().collect();
    check_incremental(&g_old, &g_new, &s_old);
}

#[test]
fn rewrite_touching_graph_sink() {
    // Append a consumer of the final sink: the dirty window runs to the
    // end of the old schedule, so there is no clean suffix and the new
    // node must be placed after everything it depends on.
    let g_old = chain_graph();
    let sink = g_old.node_ids().find(|&v| g_old.suc(v).is_empty()).expect("sink");
    let mut txn = magis_graph::GraphTxn::begin(&g_old);
    txn.add(OpKind::Unary(UnaryKind::Tanh), &[sink]).expect("append after sink");
    let g_new = txn.commit();
    g_new.validate().expect("valid mutation");
    let s_old: BTreeSet<NodeId> = [sink].into_iter().collect();
    check_incremental(&g_old, &g_new, &s_old);
}

#[test]
fn fission_style_split_of_peak_region() {
    // An F-Trans-shaped rewrite of the node executing at the old
    // schedule's peak step: its output is recomputed as two half-sized
    // slices that are concatenated back, and the original consumer is
    // routed through the concat. The dirty window therefore covers the
    // exact region whose lifetimes defined the old peak.
    let g_old = chain_graph();
    let cfg = SchedConfig::default();
    let psi_old = full_schedule(&g_old, &cfg);
    let prof = memory_profile_checked(&g_old, &psi_old).unwrap();
    let peak_step = prof
        .step_bytes
        .iter()
        .enumerate()
        .max_by_key(|(_, &bytes)| bytes)
        .map(|(i, _)| i)
        .expect("non-empty profile");
    // Pick the node at the peak step, falling back to an interior node
    // when the peak lands on a boundary op with no inputs.
    let v = psi_old[peak_step.min(psi_old.len() - 1)];
    let v = if g_old.pre(v).is_empty() || g_old.suc(v).is_empty() {
        psi_old
            .iter()
            .copied()
            .find(|&u| !g_old.pre(u).is_empty() && !g_old.suc(u).is_empty())
            .expect("interior node")
    } else {
        v
    };
    let src = g_old.pre(v)[0];
    let user = g_old.suc(v)[0];
    let n = g_old.node(v).meta.shape.dims()[0];
    let mut txn = magis_graph::GraphTxn::begin(&g_old);
    let half = n / 2;
    let s0 = txn
        .add(OpKind::Slice { axis: 0, start: 0, len: half }, &[src])
        .expect("first half");
    let s1 = txn
        .add(OpKind::Slice { axis: 0, start: half, len: n - half }, &[src])
        .expect("second half");
    let r0 = txn.add(g_old.node(v).op.clone(), &[s0]).expect("part 0");
    let r1 = txn.add(g_old.node(v).op.clone(), &[s1]).expect("part 1");
    let cat = txn.add(OpKind::Concat { axis: 0 }, &[r0, r1]).expect("stitch");
    txn.replace_input(user, v, cat);
    let g_new = txn.commit();
    g_new.validate().expect("valid split");
    let s_old: BTreeSet<NodeId> = [src, v, user].into_iter().collect();
    check_incremental(&g_old, &g_new, &s_old);
}
