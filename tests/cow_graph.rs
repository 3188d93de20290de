//! Differential property suite for the copy-on-write graph
//! representation.
//!
//! A CoW clone (`Graph::clone`, an `Arc` bump per page vector) must be
//! observationally identical to a deep copy (a `to_record` /
//! `from_record` round-trip, which rebuilds every page from scratch
//! and shares nothing): same WL hash, same canonical record, same full
//! evaluation. Rewrites applied to one clone must never leak into a
//! sibling, and a randomized transform sequence replayed on deep
//! copies must track the CoW-evolved lineage bit for bit. Finally, the
//! structural clone-cost guard: cloning is O(1) in pages and a k-node
//! rewrite unshares O(k) pages, independent of how many untouched
//! nodes the graph holds.

use magis::core::rules::{self, RuleConfig};
use magis::graph::algo::graph_hash;
use magis::graph::builder::GraphBuilder;
use magis::graph::io::{from_record, to_record};
use magis::prelude::*;
use magis_util::rng::{Rng, SeedableRng, SmallRng};

/// Deep copy through the canonical record format: fresh pages, no
/// sharing with the source.
fn deep_copy(g: &Graph) -> Graph {
    let copy = from_record(&to_record(g)).expect("record round-trip");
    assert_eq!(copy.shared_pages_with(g), 0, "deep copy must share nothing");
    copy
}

/// Everything a full evaluation determines, in comparable form.
fn eval_fingerprint(g: &Graph) -> (u64, u64, Vec<NodeId>) {
    let s = MState::initial(g.clone(), &EvalContext::default());
    (s.eval.peak_bytes, s.eval.latency.to_bits(), s.eval.order.clone())
}

#[test]
fn cow_clone_matches_deep_copy_on_bench_models() {
    for (w, scale) in [
        (Workload::UNet, 0.15),
        (Workload::BertBase, 0.1),
        (Workload::ResNet50, 0.1),
    ] {
        let g = w.build(scale).graph;
        let cow = g.clone();
        assert_eq!(
            cow.shared_pages_with(&g),
            g.page_count(),
            "{}: an untouched clone shares every page",
            w.label()
        );
        let deep = deep_copy(&g);
        assert_eq!(graph_hash(&cow), graph_hash(&deep), "{}: WL hash", w.label());
        assert_eq!(to_record(&cow), to_record(&deep), "{}: canonical record", w.label());
        assert_eq!(
            eval_fingerprint(&cow),
            eval_fingerprint(&deep),
            "{}: full evaluation",
            w.label()
        );
    }
}

#[test]
fn randomized_rewrites_track_deep_copy_replay() {
    // Evolve two lineages with the same seeded transform choices: one
    // through CoW clones, one through deep copies. Every intermediate
    // graph must agree bit for bit, and every snapshot taken along the
    // CoW lineage must stay frozen while its descendants mutate.
    let ctx = EvalContext::default();
    let cfg = RuleConfig::default();
    for seed in [7u64, 23] {
        let g0 = magis::models::random_dnn(&Default::default(), seed);
        let mut cow_state = MState::initial(g0.clone(), &ctx);
        let mut deep_state = MState::initial(deep_copy(&g0), &ctx);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0);
        let mut snapshots: Vec<(Graph, String)> = Vec::new();
        for step in 0..5 {
            let cands = rules::generate(&cow_state, &cfg);
            let deep_cands = rules::generate(&deep_state, &cfg);
            assert_eq!(cands, deep_cands, "seed {seed} step {step}: candidate sets");
            if cands.is_empty() {
                break;
            }
            let pick = rng.gen_range(0..cands.len());
            let (Ok(a), Ok(b)) = (
                rules::apply(&cow_state, &cands[pick]),
                rules::apply(&deep_state, &deep_cands[pick]),
            ) else {
                continue;
            };
            // Snapshot the pre-rewrite CoW graph; later mutations of
            // the lineage must never show through the shared pages.
            snapshots.push((cow_state.base.clone(), to_record(&cow_state.base)));
            assert_eq!(
                to_record(&a.base),
                to_record(&b.base),
                "seed {seed} step {step}: rewritten graphs diverge"
            );
            a.base.validate().expect("rewritten CoW graph stays valid");
            cow_state = MState::initial(a.base, &ctx);
            deep_state = MState::initial(b.base, &ctx);
            assert_eq!(
                (cow_state.eval.peak_bytes, cow_state.eval.latency.to_bits()),
                (deep_state.eval.peak_bytes, deep_state.eval.latency.to_bits()),
                "seed {seed} step {step}: evaluations diverge"
            );
        }
        for (i, (snap, record)) in snapshots.iter().enumerate() {
            assert_eq!(
                &to_record(snap),
                record,
                "seed {seed}: snapshot {i} was mutated by a descendant rewrite"
            );
        }
    }
}

#[test]
fn thread_count_invisible_on_cow_representation() {
    let tg = Workload::UNet.build(0.15);
    let init = MState::initial(tg.graph.clone(), &EvalContext::default());
    let obj = Objective::MinMemory { lat_limit: init.eval.latency * 1.10 };
    let run = |threads: usize| {
        let cfg = OptimizerConfig::new(obj)
            .with_budget(std::time::Duration::from_secs(3600))
            .with_max_evals(40)
            .with_threads(threads);
        let res = optimize(tg.graph.clone(), &cfg);
        let history: Vec<(u64, u64)> =
            res.history.iter().map(|p| (p.peak_bytes, p.latency.to_bits())).collect();
        (res.best.cost(), history, res.stats.evaluated)
    };
    assert_eq!(run(1), run(4), "thread count must not change the trajectory");
}

/// Chain of `n` unary nodes: one page every `PAGE_LEN` nodes.
fn chain(n: usize) -> Graph {
    let mut b = GraphBuilder::new(DType::F32);
    let mut cur = b.input([256], "x");
    for _ in 0..n {
        cur = b.relu(cur);
    }
    b.finish()
}

#[test]
fn clone_cost_is_bounded_by_touched_nodes_not_graph_size() {
    // The structural form of the clone-cost guard: a clone shares all
    // pages, and appending one node to a 1k-node graph unshares the
    // same (small) number of pages as on a 2k-node graph — the cost
    // tracks the delta, not the untouched-node count.
    let unshared_after_append = |n: usize| -> (usize, usize) {
        let g = chain(n);
        let c = g.clone();
        assert_eq!(c.shared_pages_with(&g), g.page_count(), "clone shares all {n} nodes");
        let mut txn = GraphTxn::begin(&c);
        let tail = c.node_ids().last().expect("chain tail");
        txn.add(OpKind::Unary(magis::graph::op::UnaryKind::Gelu), &[tail])
            .expect("append to chain");
        let mutated = txn.commit();
        let unshared = mutated.page_count() - mutated.shared_pages_with(&g);
        (unshared, mutated.page_count())
    };
    let (small, small_pages) = unshared_after_append(1024);
    let (large, large_pages) = unshared_after_append(2048);
    assert!(small_pages >= 32 && large_pages > small_pages, "graphs actually differ in size");
    assert_eq!(small, large, "unshared pages must not scale with untouched nodes");
    assert!(
        small <= 3,
        "a one-node append unshares O(1) pages (tail succs + new slot), got {small}"
    );
}

#[test]
fn long_clone_chains_stay_identical() {
    // A graph reached through many generations of clones evaluates
    // exactly like the original: page sharing never decays into
    // staleness.
    let g = Workload::BertBase.build(0.1).graph;
    let mut cur = g.clone();
    for _ in 0..64 {
        cur = cur.clone();
    }
    assert_eq!(cur.shared_pages_with(&g), g.page_count());
    assert_eq!(graph_hash(&cur), graph_hash(&g));
    assert_eq!(eval_fingerprint(&cur), eval_fingerprint(&g));
}

/// A state whose F-Tree has one enabled region nested in another: a
/// leaf enabled, then its parent (Fig. 7 (a)), each step a real
/// candidate evaluation. Returns the state and the tree indices of the
/// outer and the inner region.
fn nested_fission_state(ctx: &EvalContext) -> (MState, usize, usize) {
    use magis::core::ftree::FTreeMutation;
    use magis::core::rules::Transform;
    let mut state = MState::initial(Workload::BertBase.build(0.25).graph, ctx);
    state.analyze(4);
    let step = |state: &MState, m: FTreeMutation| {
        let applied = rules::apply(state, &Transform::FTree(m)).expect("legal mutation applies");
        MState::from_applied(applied, state, ctx).expect("fission state evaluates")
    };
    for leaf in 0..state.ftree.len() {
        let Some(parent) = state.ftree.node(leaf).parent else { continue };
        if !state.ftree.is_legal(&state.base, FTreeMutation::Enable(leaf)) {
            continue;
        }
        let inner = step(&state, FTreeMutation::Enable(leaf));
        if inner.ftree.is_legal(&inner.base, FTreeMutation::Enable(parent)) {
            return (step(&inner, FTreeMutation::Enable(parent)), parent, leaf);
        }
    }
    panic!("no leaf of the F-Tree can be enabled under its parent");
}

/// Sharing is tested as sharing: a candidate's overlay must hold the
/// *same allocation* as its parent's overlay for every region node that
/// neither the rule (base allocation unchanged) nor the boundary
/// rewiring (overlay edges equal base edges) touched and whose regions
/// kept their part counts — and must still be a valid state.
#[test]
fn candidates_share_untouched_region_nodes_with_the_parent_overlay() {
    use magis::core::ftree::FTreeMutation;
    use magis::core::rules::Transform;
    let ctx = EvalContext::default();
    let (parent, outer, inner) = nested_fission_state(&ctx);
    let transforms = rules::generate(&parent, &RuleConfig::default());
    let first = |pick: &dyn Fn(&Transform) -> bool| {
        let applies = |t: &&Transform| pick(t) && rules::apply(&parent, t).is_ok();
        transforms.iter().find(applies).unwrap_or_else(|| panic!("no such candidate")).clone()
    };
    let picks = [
        first(&|t| matches!(t, Transform::Remat { .. })),
        first(&|t| matches!(t, Transform::Swap { .. })),
        first(&|t| matches!(t, Transform::Taso(_))),
        Transform::FTree(FTreeMutation::Mutate(inner)),
    ];
    for t in &picks {
        let applied = rules::apply(&parent, t).expect("picked as applicable");
        let child = MState::from_applied(applied, &parent, &ctx).expect("candidate evaluates");
        let (g, pg) = (&child.eval.graph, &parent.eval.graph);
        let mutated_inner = matches!(t, Transform::FTree(_));
        let (mut expected, mut members) = (0, 0);
        for &v in &child.ftree.node(outer).spec.set {
            members += 1;
            let in_inner = child.ftree.node(inner).spec.set.contains(&v);
            let (over, base) = (g.node(v), child.base.node(v));
            let unrewired = (over.inputs(), over.keepalive(), over.succs())
                == (base.inputs(), base.keepalive(), base.succs());
            let untouched = child.base.shares_node_with(&parent.base, v) && unrewired;
            if untouched && !(mutated_inner && in_inner) {
                expected += 1;
                assert!(g.shares_node_with(pg, v), "{t}: {v} is a private copy of an untouched region node");
            }
            if mutated_inner && in_inner {
                assert!(!g.shares_node_with(pg, v), "{t}: {v} of the mutated region is shared");
                assert_ne!(over.cost_repeat, pg.node(v).cost_repeat, "{t}: {v} kept its repeats");
            }
        }
        // A rule leaves most of the region alone; the mutated inner
        // region may be most of the outer one.
        let floor = if mutated_inner { 0 } else { members / 2 };
        assert!(expected > floor, "{t}: only {expected} of {members} region nodes could be shared");
        // Shared or not, both states stay what `check_invariants` wants.
        for state in [&parent, &child] {
            state.eval.graph.validate().expect("overlay validates");
            magis::sched::validate_schedule(&state.eval.graph, &state.eval.order).expect("schedule covers");
            let full = magis::sim::evaluate_checked(&state.eval.graph, &state.eval.order, ctx.cost())
                .expect("evaluates from scratch");
            assert_eq!((full.peak_bytes, full.latency.to_bits()), (state.eval.peak_bytes, state.eval.latency.to_bits()));
        }
    }
}
