//! Committed fingerprints of the fission overlay stage.
//!
//! The search's trajectory hangs on the overlaid graph bit for bit (the
//! WL hash reads edge lists, the DP breaks ties by id and position, the
//! profile reads metas, repeats and anchors), so a digest here covers a
//! graph's canonical record **and** every node's `inputs` / `keepalive`
//! / `succs` vectors in order, its `cost_repeat` and its `alloc_with`,
//! with each pin group written as its edges (`Graph::expand_pins`).
//! Per bench model, a capped greedy descent (the shape of
//! `benchmark/src/replay.rs`) yields two digests: `expanded`, over
//! `build_overlay_graph` of every state the descent expands, and
//! `candidates`, over the overlay of every candidate of those states
//! (or its error). Each candidate's overlay is built twice — cold, by
//! `build_overlay_graph`, and through its parent's recorded scale edits,
//! by `MState::child_overlay` — and the two must agree with each other
//! and with the committed value, which was captured at the commit named
//! at [`EXPECTED`], before the overlay moved to the dense region
//! workspace, re-captured once for the overlay's id rule, and holds in
//! debug and release builds alike.

use magis_core::rules::{self, RuleConfig, Transform};
use magis_core::state::{build_overlay_graph, EvalContext, MState};
use magis_graph::algo::graph_hash;
use magis_graph::graph::{Graph, NodeId};
use magis_graph::io::to_record;
use magis_graph::GraphView;
use magis_models::Workload;
use std::collections::BTreeSet;

/// `(model, expanded, candidates)`, debug and release equal. Captured
/// at 7b96e828741257d6f8d69f1a92c801671b26c1ab (the parent of the region
/// workspace change) and re-captured when the overlay's slices and
/// merges moved from the base's tombstones to fresh slots above a
/// 64-slot floor. That moved every candidate digest and BERT's
/// expanded one; the UNet and ResNet-50 descents expand no state with
/// an enabled region, so theirs held.
const EXPECTED: [(&str, u64, u64); 3] = [
    ("bert@1.0", 0xc1d5_7329_8571_30f4, 0x098b_4c88_c67b_fb86),
    ("unet@0.15", 0x5bfc_ae84_9d17_312f, 0x6426_7fd5_17cc_d1bc),
    ("resnet50@0.25", 0xc5fa_1620_9381_088c, 0x7fc8_ed18_c805_0486),
];

/// FNV-1a over bytes; 64-bit words little-endian, a length in front of
/// every sequence.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn ids(&mut self, ids: &[NodeId]) {
        self.word(ids.len() as u64);
        ids.iter().for_each(|v| self.word(v.index() as u64));
    }

    /// Everything of `g` a later stage can read, with each pin group
    /// written as the keepalive edges it stands for.
    fn graph(&mut self, g: &Graph) {
        let g = &g.expand_pins();
        let record = to_record(g);
        self.word(record.len() as u64);
        self.bytes(record.as_bytes());
        self.word(g.capacity() as u64);
        for v in g.node_ids() {
            let n = g.node(v);
            self.word(v.index() as u64);
            self.ids(n.inputs());
            self.ids(n.keepalive());
            self.ids(n.succs());
            self.word(n.cost_repeat);
            self.word(n.alloc_with.map_or(u64::MAX, |a| a.index() as u64));
        }
    }

    /// An overlay build's outcome: the graph, or the error's text.
    fn outcome<E: ToString>(&mut self, built: &Result<Graph, E>) {
        match built {
            Ok(g) => self.graph(g),
            Err(e) => {
                self.word(u64::MAX);
                self.bytes(e.to_string().as_bytes());
            }
        }
    }
}

/// How many enabled regions of `state` lie strictly inside another.
fn nested_regions(state: &MState) -> usize {
    let tree = &state.ftree;
    let enabled: Vec<_> = tree.enabled_order().into_iter().map(|i| &tree.node(i).spec.set).collect();
    enabled
        .iter()
        .filter(|a| enabled.iter().any(|b| b.len() > a.len() && a.is_subset(b)))
        .count()
}

/// The descent: from the seed of `w` at `scale`, expand the best child
/// not yet visited (inside the latency leash first, then lowest peak)
/// until `cap` candidates have been evaluated. Returns `(expanded,
/// candidates cold, candidates through the parent)` and how many
/// overlays digested had an enabled region / a nested one.
fn descent(w: Workload, scale: f64, cap: usize) -> ((u64, u64, u64), (usize, usize)) {
    let ctx = EvalContext::default();
    let mut state = MState::initial(w.build(scale).graph, &ctx);
    let lat_limit = state.eval.latency * 1.10;
    let (mut expanded, mut cold, mut warm) = (Fnv::new(), Fnv::new(), Fnv::new());
    let mut visited = BTreeSet::from([graph_hash(&state.eval.graph)]);
    let (mut evaluated, mut with_region, mut with_nested) = (0, 0, 0);
    while evaluated < cap {
        if state.tree_stale {
            state.analyze(4);
        }
        expanded.outcome(&build_overlay_graph(&state.base, &state.ftree));
        with_nested += usize::from(nested_regions(&state) > 0);
        let mut transforms = rules::generate(&state, &RuleConfig::default());
        transforms.sort_by_key(Transform::sort_key);
        let mut best: Option<((bool, u64), u64, MState)> = None;
        for t in transforms.iter().take(cap - evaluated) {
            evaluated += 1;
            let Ok(applied) = rules::apply(&state, t) else { continue };
            cold.outcome(&build_overlay_graph(&applied.base, &applied.ftree));
            with_region += usize::from(!applied.ftree.enabled_order().is_empty());
            warm.outcome(&state.child_overlay(&applied.base, &applied.ftree));
            let Ok(child) = MState::from_applied(applied, &state, &ctx) else { continue };
            let hash = graph_hash(&child.eval.graph);
            let rank = (child.eval.latency > lat_limit, child.eval.objective_peak());
            if !visited.contains(&hash) && best.as_ref().is_none_or(|(r, _, _)| rank < *r) {
                best = Some((rank, hash, child));
            }
        }
        let Some((_, hash, child)) = best else { break };
        visited.insert(hash);
        state = child;
    }
    ((expanded.0, cold.0, warm.0), (with_region, with_nested))
}

#[test]
fn digests_match_the_committed_fingerprints() {
    let models = [
        ("bert@1.0", Workload::BertBase, 1.0, 320),
        ("unet@0.15", Workload::UNet, 0.15, 400),
        ("resnet50@0.25", Workload::ResNet50, 0.25, 400),
    ];
    let mut got = Vec::new();
    let mut nested = 0;
    for (name, w, scale, cap) in models {
        let ((expanded, cold, warm), (with_region, with_nested)) = descent(w, scale, cap);
        assert_eq!(warm, cold, "{name}: an overlay built through its parent's recorded edits differs from the cold build");
        assert!(with_region > 0, "{name}: no candidate of the descent had an enabled region");
        nested += with_nested;
        // Shown in full on failure, in `EXPECTED`'s own syntax.
        println!("(\"{name}\", {expanded:#018x}, {cold:#018x}),");
        got.push((name, expanded, cold));
    }
    assert!(nested > 0, "no descent ever expanded a state with nested enabled regions");
    assert_eq!(got, EXPECTED, "a digest moved: some overlay graph is built differently");
}
