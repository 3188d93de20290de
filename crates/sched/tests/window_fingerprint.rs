//! Committed fingerprints of Algorithm 2's per-candidate passes, and
//! `stabilize_order`'s contract as properties.
//!
//! The search's trajectory hangs on every byte these passes produce:
//! `partition`'s pieces and their order, each piece's [`SchedTask`]
//! (what the DP sees), `dp_schedule`'s `(order, peak,
//! states_expanded)`, `stabilize_order`'s repair of the spliced
//! schedule, `place_swaps`, and the order and guard decision of
//! `incremental_schedule_cached`. One FNV-1a digest per case covers all
//! of them; the expected values were captured at the commit named at
//! [`EXPECTED`], before the passes moved to dense window-local
//! structures, and hold in debug and release builds alike (`ci.sh` runs
//! both). A digest that moves means a candidate somewhere would have
//! been scheduled differently.

use magis_graph::algo::{is_topo_order, topo_order};
use magis_graph::builder::GraphBuilder;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::op::OpKind;
use magis_graph::tensor::DType;
use magis_graph::{GraphTxn, GraphView};
use magis_models::{random_dnn, RandomDnnConfig, Workload};
use magis_sched::{
    dp_schedule, full_schedule, incremental_schedule_cached, partition, place_swaps,
    reschedule_interval_cached, stabilize_order, IntervalParams, SchedConfig, SchedTask,
};
use magis_sim::CostModel;
use magis_util::prop::prelude::*;
use magis_util::prop::run_cases;
use magis_util::rng::{Rng, SmallRng};
use std::collections::BTreeSet;

/// Digests captured at d4d467d95daba6b7fae9ba64c61aa4dd1cd5c06b (the
/// parent of the dense-workspace change), debug and release equal.
const EXPECTED: [(&str, u64); 4] = [
    ("random_dnn", 0xfb05_bd62_eb26_2575),
    ("unet@0.15", 0x4f96_0f98_36eb_310a),
    ("resnet50@0.25", 0x331b_d417_4627_c932),
    ("bert@1.0", 0x4286_d998_7719_3839),
];

/// FNV-1a over 64-bit words, a length in front of every sequence.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[NodeId]) {
        self.word(ids.len() as u64);
        ids.iter().for_each(|v| self.word(v.index() as u64));
    }

    /// A row of local indices, sorted: the order inside a row is not
    /// part of the contract, its contents are.
    fn row(&mut self, row: &[usize]) {
        let mut row = row.to_vec();
        row.sort_unstable();
        self.word(row.len() as u64);
        row.iter().for_each(|&i| self.word(i as u64));
    }
}

fn set_of(ids: impl IntoIterator<Item = NodeId>) -> BTreeSet<NodeId> {
    ids.into_iter().collect()
}

/// Everything the DP reads of `task`.
fn task_digest(h: &mut Fnv, task: &SchedTask<'_>) {
    h.ids(&task.nodes);
    for i in 0..task.len() {
        h.row(&task.preds[i]);
        h.row(&task.succs[i]);
        h.row(&task.allocs[i]);
        h.row(&task.uses[i]);
    }
    h.word(task.roots.len() as u64);
    for (i, r) in task.roots.iter().enumerate() {
        h.word(r.bytes);
        h.row(&task.root_users[i]);
        h.word(u64::from(r.freeable));
        h.word(r.alloc_at.map_or(u64::MAX, |a| a as u64));
    }
    h.word(task.base);
}

/// `partition` + per-piece task + DP of `window`, as `schedule_pieces`
/// runs them; returns the concatenated piece schedules.
fn window_digest(h: &mut Fnv, g: &Graph, window: &BTreeSet<NodeId>, cfg: &SchedConfig) -> Vec<NodeId> {
    let pieces = partition(g, window);
    h.word(pieces.len() as u64);
    let mut middle = Vec::with_capacity(window.len());
    for piece in pieces {
        h.ids(&piece);
        let task = SchedTask::subset(g, &set_of(piece));
        task_digest(h, &task);
        let dp = dp_schedule(&task, cfg);
        h.row(&[dp.states_expanded]);
        h.word(dp.peak);
        let order = task.to_node_ids(&dp.order);
        h.ids(&order);
        middle.extend(order);
    }
    middle
}

/// A sequence no caller would pass on purpose, derived from the valid
/// order `psi`: runs reversed, entries dropped and doubled, and `stale`
/// ids (tombstoned or out of range) sprinkled in.
fn hostile_desired(rng: &mut SmallRng, psi: &[NodeId], stale: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < psi.len() {
        let run = rng.gen_range(1..=8usize).min(psi.len() - i);
        let mut chunk = psi[i..i + run].to_vec();
        if rng.gen_bool(0.5) {
            chunk.reverse();
        }
        for v in chunk {
            match rng.gen_range(0..8u32) {
                0 => {}
                1 => out.extend([v, v]),
                2 if !stale.is_empty() => {
                    out.extend([stale[rng.gen_range(0..stale.len())], v]);
                }
                3 if !out.is_empty() => {
                    let at = rng.gen_range(0..out.len());
                    out.insert(at, v);
                    out.push(v);
                }
                _ => out.push(v),
            }
        }
        i += run;
    }
    out
}

/// A re-materialization-shaped mutation (`incremental_properties.rs`):
/// clone an interior node and route one of its users through the
/// clone. Returns the new graph, the touched old nodes, and `(node,
/// clone)`.
fn remat_mutation(g: &Graph, pick: usize) -> Option<(Graph, BTreeSet<NodeId>, (NodeId, NodeId))> {
    let cands: Vec<NodeId> =
        g.node_ids().filter(|&v| !g.pre(v).is_empty() && !g.suc(v).is_empty()).collect();
    let v = *cands.get(pick % cands.len())?;
    let mut txn = GraphTxn::begin(g);
    let inputs = g.node(v).inputs().to_vec();
    let clone = txn.add(g.node(v).op.clone(), &inputs).ok()?;
    let user = g.suc(v)[0];
    txn.replace_input(user, v, clone);
    let g_new = txn.commit().0;
    g_new.validate().ok()?;
    Some((g_new, set_of([v, user]), (v, clone)))
}

/// The inverse shape: every use of `v` moves to its twin `clone` and
/// `v` is removed, leaving a tombstoned slot mid-arena.
fn deremat_mutation(g: &Graph, v: NodeId, clone: NodeId) -> Option<(Graph, BTreeSet<NodeId>)> {
    let mut touched = set_of(g.suc(v));
    touched.insert(v);
    let mut txn = GraphTxn::begin(g);
    txn.redirect_uses(v, clone);
    txn.remove(v).ok()?;
    let g_new = txn.commit().0;
    g_new.validate().ok()?;
    Some((g_new, touched))
}

/// A swap-shaped mutation: `Store` + `Load` of an interior node's
/// output, its last user reading the reloaded copy. Returns the new
/// graph and the touched old nodes.
fn swap_mutation(g: &Graph, pick: usize) -> Option<(Graph, BTreeSet<NodeId>)> {
    let cands: Vec<NodeId> = g
        .node_ids()
        .filter(|&v| !g.node(v).op.is_input() && !g.node(v).op.is_alias() && g.suc(v).len() >= 2)
        .collect();
    let v = *cands.get(pick % cands.len().max(1))?;
    let user = *g.suc(v).last()?;
    let mut txn = GraphTxn::begin(g);
    let store = txn.add(OpKind::Store, &[v]).ok()?;
    let load = txn.add(OpKind::Load, &[store]).ok()?;
    txn.replace_input(user, v, load);
    let g_new = txn.commit().0;
    g_new.validate().ok()?;
    Some((g_new, set_of([v, user])))
}

/// Algorithm 2 from `(g_old, psi_old)` to `g_new`, through its public
/// parts and end to end: the interval, the spliced window's partition /
/// tasks / DP, both stabilizations, and
/// `incremental_schedule_cached`'s order, guard decision and window —
/// liveness-guarded and plan-guarded. Returns the chosen order.
fn incremental_digest(
    h: &mut Fnv,
    g_old: &Graph,
    g_new: &Graph,
    s_old: &BTreeSet<NodeId>,
    psi_old: &[NodeId],
    cfg: &SchedConfig,
) -> Vec<NodeId> {
    let params = IntervalParams::default();
    let (beg, end) = reschedule_interval_cached(g_old, s_old, psi_old, &params, None)
        .unwrap_or((psi_old.len(), psi_old.len()));
    h.row(&[beg, end]);
    let kept = |range: &[NodeId]| -> Vec<NodeId> {
        range.iter().copied().filter(|&v| g_new.contains(v)).collect()
    };
    let (prefix, suffix) = (kept(&psi_old[..beg]), kept(&psi_old[end..]));
    let outside = set_of(prefix.iter().chain(&suffix).copied());
    let window = set_of(g_new.node_ids().filter(|v| !outside.contains(v)));
    let middle = window_digest(h, g_new, &window, cfg);
    let desired: Vec<NodeId> = prefix.into_iter().chain(middle).chain(suffix).collect();
    let (rescheduled, carried) = (stabilize_order(g_new, &desired), stabilize_order(g_new, psi_old));
    h.ids(&rescheduled);
    h.ids(&carried);
    // The plan-guarded choice by its definition — both orders planned,
    // the carried one kept iff `(planned, liveness)` is strictly lower —
    // which `incremental_schedule_cached` must reach however few plans
    // it makes.
    let measured = |order: &[NodeId]| {
        let (profile, lifetimes) = magis_sim::memory_profile_lifetimes(g_new, order).expect("valid order");
        let plan = magis_sim::plan_from_lifetimes(g_new, order, &lifetimes).expect("plannable order");
        ((plan.planned_peak_bytes, profile.peak_bytes), plan)
    };
    let ((new_key, new_plan), (old_key, old_plan)) = (measured(&rescheduled), measured(&carried));
    let plan_both = if new_key > old_key { (&carried, true, old_plan) } else { (&rescheduled, false, new_plan) };

    let (_, lifetimes) = magis_sim::memory_profile_lifetimes(g_old, psi_old).expect("valid parent order");
    let plan = magis_sim::plan_from_lifetimes(g_old, psi_old, &lifetimes).expect("plannable parent");
    let mut chosen = Vec::new();
    for parent_plan in [None, Some(&plan)] {
        let inc = incremental_schedule_cached(
            g_old, g_new, s_old, psi_old, None, parent_plan, cfg, &params, None,
        )
        .expect("memory accounting conserved");
        assert!(is_topo_order(g_new, &inc.order));
        h.ids(&inc.order);
        h.row(&[inc.window, usize::from(inc.carried_won)]);
        h.word(inc.profile.peak_bytes);
        h.word(inc.plan.as_ref().map_or(0, |p| p.planned_peak_bytes));
        if parent_plan.is_some() {
            let got = (&inc.order, inc.carried_won, inc.plan.expect("planning is on"));
            assert_eq!(got, (plan_both.0, plan_both.1, plan_both.2.clone()), "guard differs from plan-both");
        }
        chosen = inc.order;
    }
    chosen
}

/// Windows of `g` drawn as a contiguous range of a topological order
/// and as a random subset, plus a hostile `stabilize_order` input.
fn drawn_windows_digest(h: &mut Fnv, rng: &mut SmallRng, g: &Graph, stale: &[NodeId], cfg: &SchedConfig) {
    let psi = topo_order(g);
    let (a, b) = (rng.gen_range(0..psi.len()), rng.gen_range(0..psi.len()));
    window_digest(h, g, &set_of(psi[a.min(b)..=a.max(b)].iter().copied()), cfg);
    let keep = rng.gen_range(1..=4u32);
    let subset = set_of(psi.iter().copied().filter(|_| rng.gen_range(0..=4u32) < keep));
    window_digest(h, g, &subset, cfg);
    let out = stabilize_order(g, &hostile_desired(rng, &psi, stale));
    assert!(is_topo_order(g, &out));
    h.ids(&out);
}

/// One mutation chain on `g0` scheduled as `psi0`: re-mat, then its
/// inverse (a tombstone and stale ids in the carried order), then a
/// swap with `place_swaps` on top.
fn chain_digest(h: &mut Fnv, rng: &mut SmallRng, g0: &Graph, psi0: &[NodeId], cfg: &SchedConfig) {
    let pick = rng.gen_range(0..4096usize);
    let Some((g1, s0, (v, clone))) = remat_mutation(g0, pick) else { return };
    let psi1 = incremental_digest(h, g0, &g1, &s0, psi0, cfg);
    let beyond = NodeId::from_index(g1.capacity() + 3);
    drawn_windows_digest(h, rng, &g1, &[beyond], cfg);
    if let Some((g2, s1)) = deremat_mutation(&g1, v, clone) {
        incremental_digest(h, &g1, &g2, &s1, &psi1, cfg);
        drawn_windows_digest(h, rng, &g2, &[v, beyond], cfg);
    }
    if let Some((g3, s1)) = swap_mutation(&g1, pick) {
        let psi3 = incremental_digest(h, &g1, &g3, &s1, &psi1, cfg);
        let placed = place_swaps(&g3, &psi3, &CostModel::default());
        assert!(is_topo_order(&g3, &placed));
        h.ids(&placed);
    }
}

fn random_dnn_digest() -> u64 {
    let mut h = Fnv::new();
    let cfg = SchedConfig::default();
    run_cases(ProptestConfig::with_cases(16), "window_fingerprint_random_dnn", |rng| {
        let dnn = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells: rng.gen_range(1..=3usize), blocks: 3 };
        let g0 = random_dnn(&dnn, rng.gen_range(0..1000u64));
        let psi0 = full_schedule(&g0, &cfg);
        h.ids(&psi0);
        chain_digest(&mut h, rng, &g0, &psi0, &cfg);
        Ok(())
    });
    h.0
}

/// A bench model: the whole graph as one window under the full beam
/// (`full_schedule`'s path), then mutation chains under the search's
/// incremental beam.
fn model_digest(name: &str, w: Workload, scale: f64, chains: u32) -> u64 {
    let mut h = Fnv::new();
    let g0 = w.build(scale).graph;
    let middle = window_digest(&mut h, &g0, &set_of(g0.node_ids()), &SchedConfig::default());
    let psi0 = stabilize_order(&g0, &middle);
    h.ids(&psi0);
    let cfg = SchedConfig { beam_width: 8, node_budget: 96 };
    run_cases(ProptestConfig::with_cases(chains), name, |rng| {
        chain_digest(&mut h, rng, &g0, &psi0, &cfg);
        Ok(())
    });
    h.0
}

#[test]
fn digests_match_the_committed_fingerprints() {
    let got = [
        ("random_dnn", random_dnn_digest()),
        ("unet@0.15", model_digest("unet", Workload::UNet, 0.15, 6)),
        ("resnet50@0.25", model_digest("resnet50", Workload::ResNet50, 0.25, 6)),
        ("bert@1.0", model_digest("bert", Workload::BertBase, 1.0, 4)),
    ];
    // Shown in full on failure, in `EXPECTED`'s own syntax.
    for (name, digest) in got {
        println!("(\"{name}\", {digest:#018x}),");
    }
    assert_eq!(got, EXPECTED, "a digest moved: some window is scheduled differently");
}

/// A random DAG of `n` unary / binary ops over one input, edges only
/// from lower to higher ids, with some tombstoned slots.
fn random_dag(rng: &mut SmallRng, n: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let mut pool = vec![b.input([16], "x")];
    for _ in 0..n {
        let p = pool[rng.gen_range(0..pool.len())];
        let q = pool[rng.gen_range(0..pool.len())];
        pool.push(match rng.gen_range(0..3u32) {
            0 => b.relu(p),
            1 => b.gelu(p),
            _ => b.add_op(p, q),
        });
    }
    let g = b.finish();
    // Drop a few sinks so `capacity() > len()` and ids have holes.
    let mut txn = GraphTxn::begin(&g);
    for v in g.graph_outputs().into_iter().filter(|_| rng.gen_bool(0.5)) {
        if txn.len() > 2 {
            txn.remove(v).expect("sink removes cleanly");
        }
    }
    txn.commit().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever `desired` holds, the result is a topological order
    /// covering the graph exactly once; unlisted nodes run in ascending
    /// id among themselves and only when nothing listed is ready.
    #[test]
    fn stabilize_order_repairs_any_sequence(n in 1usize..60, keep in 0u32..=4, shuffle in 0u64..u64::MAX) {
        let mut rng = <SmallRng as magis_util::rng::SeedableRng>::seed_from_u64(shuffle);
        let g = random_dag(&mut rng, n);
        let psi = topo_order(&g);
        let stale: Vec<NodeId> =
            (0..g.capacity() + 4).map(NodeId::from_index).filter(|&v| !g.contains(v)).collect();
        let listed: Vec<NodeId> =
            psi.iter().copied().filter(|_| rng.gen_range(0..4u32) < keep).collect();
        let desired = hostile_desired(&mut rng, &listed, &stale);
        let out = stabilize_order(&g, &desired);
        prop_assert!(is_topo_order(&g, &out), "valid topological order, each node once");

        let listed: BTreeSet<NodeId> = desired.iter().copied().filter(|&v| g.contains(v)).collect();
        let unlisted: Vec<NodeId> = out.iter().copied().filter(|v| !listed.contains(v)).collect();
        // An unlisted node is emitted only when no listed node is
        // ready, and then the lowest ready id goes first.
        let mut done: BTreeSet<NodeId> = BTreeSet::new();
        for &v in &out {
            let ready = |u: NodeId| {
                !done.contains(&u)
                    && g.node(u).inputs().iter().chain(g.node(u).keepalive()).all(|p| done.contains(p))
            };
            if !listed.contains(&v) {
                prop_assert!(!listed.iter().any(|&u| ready(u)), "{v} ran while a listed node was ready");
                let lowest = g.node_ids().find(|&u| ready(u));
                prop_assert_eq!(lowest, Some(v), "unlisted nodes run lowest ready id first");
            }
            done.insert(v);
        }
        prop_assert_eq!(unlisted.len() + listed.len(), g.len());
    }

    /// A `desired` that is already a valid order comes back unchanged.
    #[test]
    fn stabilize_order_keeps_a_valid_order(n in 1usize..60, seed in 0u64..u64::MAX) {
        let mut rng = <SmallRng as magis_util::rng::SeedableRng>::seed_from_u64(seed);
        let g = random_dag(&mut rng, n);
        // A valid order other than the min-id one: repair a reversal.
        let mut reversed = topo_order(&g);
        reversed.reverse();
        let valid = stabilize_order(&g, &reversed);
        prop_assert!(is_topo_order(&g, &valid));
        prop_assert_eq!(stabilize_order(&g, &valid), valid);
    }
}
