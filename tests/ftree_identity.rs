//! Identity of the dense M-Analyzer with the algorithm it replaced
//! (`ftree_identity/reference.rs`, the only place that algorithm still
//! exists).
//!
//! Rule generation indexes F-Tree nodes, the MCTS driver draws from the
//! rule list, and every later state descends from those draws — so the
//! rewritten analyzer must return the same tree node for node: the same
//! region and dims, the same parent and children indices, the same
//! score level, in the same order. The D-Graph components it reads are
//! held to the same standard.

#[path = "ftree_identity/reference.rs"]
mod reference;

use magis::core::dgraph::DimGraph;
use magis::core::ftree::{FTree, FTreeMutation, FTreeNode};
use magis::core::rules::{self, RuleConfig, Transform};
use magis::prelude::*;
use magis_models::random_dnn::{random_dnn, RandomDnnConfig};
use magis_sim::memory_profile;
use magis_util::prop::prelude::*;
use magis_util::rng::{Rng, SeedableRng, SmallRng};
use std::collections::BTreeSet;

fn assert_same_nodes(new: &[FTreeNode], old: &[FTreeNode], what: &str) {
    assert_eq!(new.len(), old.len(), "{what}: candidate count");
    for (i, (n, o)) in new.iter().zip(old).enumerate() {
        assert_eq!(n.spec, o.spec, "{what}: spec of node {i}");
        assert_eq!(n.parent, o.parent, "{what}: parent of node {i}");
        assert_eq!(n.children, o.children, "{what}: children of node {i}");
        assert_eq!(n.level, o.level, "{what}: level of node {i}");
    }
}

/// Holds the D-Graph of `g` and the F-Tree built from `hotspots` to the
/// reference, at several stratum counts. Returns the `l = 4` tree size.
fn assert_analysis_identical(g: &Graph, hotspots: &BTreeSet<NodeId>, what: &str) -> usize {
    let (new, old) = (DimGraph::build(g), reference::DimGraph::build(g));
    assert_eq!(new.len(), old.len(), "{what}: D-Graph size");
    assert!(new.vertices().eq(old.vertices()), "{what}: D-Graph vertices");
    for v in old.vertices() {
        assert!(new.neighbours(v).eq(old.neighbours(v)), "{what}: neighbours of {v:?}");
    }
    assert_eq!(new.components(), old.components(), "{what}: D-Graph components");
    for l in [1, 3, 7] {
        let tree = FTree::build(g, hotspots, l);
        assert_same_nodes(tree.nodes(), &reference::build_ftree(g, hotspots, l), &format!("{what}, l = {l}"));
    }
    let tree = FTree::build(g, hotspots, 4);
    assert_same_nodes(tree.nodes(), &reference::build_ftree(g, hotspots, 4), what);
    tree.len()
}

/// `legal_mutations` is exactly the `is_legal` filter over every
/// mutation of every node, in node order.
fn assert_legal_is_filter(tree: &FTree, g: &Graph, what: &str) {
    use FTreeMutation::{Disable, Enable, Lift, Mutate};
    let filtered: Vec<FTreeMutation> = (0..tree.len())
        .flat_map(|i| [Enable(i), Lift(i), Disable(i), Mutate(i)])
        .filter(|&m| tree.is_legal(g, m))
        .collect();
    assert_eq!(tree.legal_mutations(g), filtered, "{what}: legal mutations");
    for m in [Enable(tree.len()), Lift(tree.len()), Disable(tree.len()), Mutate(tree.len())] {
        assert!(!tree.is_legal(g, m), "{what}: {m:?} is out of range");
    }
}

/// What a lineage has been through, to show the comparison met the
/// situations it is meant to cover.
#[derive(Default)]
struct Seen {
    analyses: usize,
    stale_with_enabled: usize,
    moved_hotspots: usize,
    keepalive: usize,
    tombstones: usize,
    families: BTreeSet<u8>,
}

/// Walks a seeded lineage the way the search does — re-analyze a stale
/// state, generate the rules, take one, evaluate the child — drawing
/// the rule family first so F-Tree, remat/swap and TASO steps mix.
/// Every analysis on the way is held to the reference.
fn walk_lineage(mut state: MState, ctx: &EvalContext, seed: u64, steps: usize, what: &str, seen: &mut Seen) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let seed_hotspots = state.eval.hotspots_base.clone();
    for step in 0..steps {
        let what = format!("{what} seed {seed} step {step}");
        if state.tree_stale {
            let enabled: Vec<_> =
                state.ftree.nodes().iter().filter(|n| n.enabled()).map(|n| n.spec.clone()).collect();
            assert_analysis_identical(&state.base, &state.eval.hotspots_base, &what);
            state.analyze(4);
            seen.analyses += 1;
            seen.stale_with_enabled += usize::from(!enabled.is_empty());
            for spec in &enabled {
                let kept = state.ftree.nodes().iter().any(|n| n.spec == *spec);
                assert!(kept || spec.validate(&state.base).is_err(), "{what}: enabled region dropped");
            }
        }
        // The search only ever analyzes base graphs, and no rule puts a
        // keepalive edge there. The overlaid graph of a state with an
        // enabled region has them (every region input pinned to every
        // merge), so it stands in as the analyzer's keepalive input.
        let overlaid = &state.eval.graph;
        if overlaid.node_ids().any(|v| !overlaid.node(v).keepalive().is_empty()) {
            let hot = memory_profile(overlaid, &state.eval.order).hotspots;
            assert_analysis_identical(overlaid, &hot, &format!("{what} (overlaid)"));
            seen.keepalive += 1;
        }
        let g = &state.base;
        seen.moved_hotspots += usize::from(state.eval.hotspots_base != seed_hotspots);
        seen.tombstones += usize::from(g.capacity() > g.len());
        assert_legal_is_filter(&state.ftree, g, &what);

        let candidates = rules::generate(&state, &RuleConfig::default());
        let families: Vec<u8> =
            candidates.iter().map(|t| t.sort_key().0).collect::<BTreeSet<_>>().into_iter().collect();
        let mut child = None;
        for _ in 0..8 {
            if families.is_empty() {
                break;
            }
            let family = families[rng.gen_range(0..families.len())];
            let pool: Vec<&Transform> = candidates.iter().filter(|t| t.sort_key().0 == family).collect();
            let t = pool[rng.gen_range(0..pool.len())];
            if let Some(c) = rules::apply(&state, t).ok().and_then(|a| MState::from_applied(a, &state, ctx).ok()) {
                seen.families.insert(family);
                child = Some(c);
                break;
            }
        }
        match child {
            Some(c) => state = c,
            None => break,
        }
    }
}

#[test]
fn bench_models_analyze_identically_at_the_seed_and_along_lineages() {
    let ctx = EvalContext::default();
    let mut seen = Seen::default();
    for w in Workload::all() {
        let state = MState::initial(w.build(0.1).graph, &ctx);
        let found = assert_analysis_identical(&state.base, &state.eval.hotspots_base, w.label());
        assert!(found > 0, "{}: the analyzer finds regions", w.label());
        for seed in [5u64, 23] {
            walk_lineage(state.clone(), &ctx, seed, 8, w.label(), &mut seen);
        }
    }
    assert!(seen.analyses > 14, "lineages re-analyzed only {} times", seen.analyses);
    assert!(seen.stale_with_enabled > 0, "no enabled region ever went through a re-analysis");
    assert!(seen.moved_hotspots > 0, "hot-spots never moved off the seed's");
    assert!(seen.keepalive > 0, "no analyzed graph carried a keepalive edge");
    assert!(seen.tombstones > 0, "no analyzed graph had a tombstoned slot");
    let kinds = |r: std::ops::Range<u8>| seen.families.iter().filter(|f| r.contains(f)).count();
    assert!(kinds(0..4) > 0 && kinds(4..8) > 0 && kinds(8..11) > 0, "families taken: {:?}", seen.families);
}

/// `x → relu → … ` with a side branch rejoining, `n` relus deep.
fn small_chain(n: usize) -> (Graph, NodeId) {
    let mut b = GraphBuilder::new(DType::F32);
    let x = b.input([64, 32], "x");
    let mut cur = x;
    for _ in 0..n {
        let l = b.relu(cur);
        let r = b.gelu(cur);
        cur = b.add_op(l, r);
    }
    (b.finish(), x)
}

#[test]
fn empty_hotspots_and_nonpositive_scores_yield_no_candidates() {
    let (g, x) = small_chain(4);
    // No hot-spot: every heat is zero and every region reads something.
    assert_eq!(assert_analysis_identical(&g, &BTreeSet::new(), "no hot-spots"), 0);
    // Only the input is hot. It is nobody's strict descendant, so heats
    // stay zero; the region below it reads only hot bytes and scores
    // exactly 0.0, every other region scores below — `smax <= 0`.
    assert_eq!(assert_analysis_identical(&g, &[x].into_iter().collect(), "hot input only"), 0);
    // The real hot-spots of the same graph do produce candidates.
    let hot = memory_profile(&g, &magis::graph::algo::topo_order(&g)).hotspots;
    assert!(assert_analysis_identical(&g, &hot, "profiled hot-spots") > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_dnns_analyze_identically(seed in 0u64..10_000, cells in 2usize..5, hot_every in 1usize..5) {
        let g = random_dnn(&RandomDnnConfig { cells, ..RandomDnnConfig::default() }, seed);
        let profiled = memory_profile(&g, &magis::graph::algo::topo_order(&g)).hotspots;
        assert_analysis_identical(&g, &profiled, &format!("random_dnn {seed}"));
        // An arbitrary hot set: strata and scores unlike a real profile's.
        let arbitrary: BTreeSet<NodeId> = g.node_ids().filter(|v| v.index() % hot_every == 0).collect();
        assert_analysis_identical(&g, &arbitrary, &format!("random_dnn {seed}, every {hot_every}th hot"));
    }
}
