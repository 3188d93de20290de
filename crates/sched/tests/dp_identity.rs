//! Identity of the one-routine memory DP with the map-keyed DP it
//! replaced (`dp_identity/reference.rs`, the only place that code still
//! exists).
//!
//! The search's trajectory hangs on `dp_schedule` bit for bit: the
//! chosen order feeds stabilization, the memory profile and the
//! carried-vs-rescheduled guard, and `states_expanded` is a reported
//! count. So "same DP" here means the same order, the same peak and the
//! same number of generated transitions — on every executed-set key
//! type `dp_schedule` can pick (1, 2, 3, 4, 8 and 16 stack words, and
//! the boxed slice above 1024 nodes).

mod common;
#[path = "dp_identity/reference.rs"]
mod reference;

use magis_graph::algo::topo_order;
use magis_graph::graph::NodeId;
use magis_graph::GraphView;
use magis_models::{random_dnn, RandomDnnConfig, Workload};
use magis_sched::{dp_schedule, partition, SchedConfig, SchedTask};
use magis_util::prop::prelude::*;
use std::collections::BTreeSet;

const BEAM_WIDTHS: [usize; 4] = [1, 2, 8, 64];

/// Holds `dp_schedule` to the reference on `task` at every beam width,
/// with the width shrinking above `node_budget` nodes as configured.
fn assert_identical(task: &SchedTask<'_>, node_budget: usize, what: &str) {
    for beam_width in BEAM_WIDTHS {
        let cfg = SchedConfig { beam_width, node_budget };
        let got = dp_schedule(task, &cfg);
        let want = reference::dp_map_keyed(task, cfg.effective_width(task.len()));
        assert_eq!(
            (got.order, got.peak, got.states_expanded),
            want,
            "{what}: {} nodes, beam {beam_width}: (order, peak, states_expanded)",
            task.len()
        );
    }
}

#[test]
fn synthetic_windows_schedule_identically_on_every_key_width() {
    // Both sides of every key-width boundary, and two sizes past the
    // last stack key.
    let sizes = [1, 63, 64, 65, 128, 129, 192, 193, 256, 257, 400, 512, 513, 1024, 1025, 1100];
    for (seed, n) in sizes.into_iter().enumerate() {
        let g = common::chain_fanout_dag(n, seed as u64);
        let task = SchedTask::whole_graph(&g);
        assert_eq!(task.len(), n);
        // No budget shrink: the beam widths are the widths that run.
        assert_identical(&task, usize::MAX, "chain/fan-out DAG");
    }
}

#[test]
fn bench_model_pieces_schedule_identically() {
    let budget = SchedConfig::default().node_budget;
    // BERT-base at scale 1.0 is the seed evaluation at paper scale, its
    // widest piece (~930 nodes) on `[u64; 16]` keys; beam 64 under this
    // budget is the default `SchedConfig`.
    for (w, scale) in [
        (Workload::BertBase, 0.25),
        (Workload::ResNet50, 0.25),
        (Workload::UNet, 0.15),
        (Workload::BertBase, 1.0),
    ] {
        let g = w.build(scale).graph;
        let all: BTreeSet<NodeId> = g.node_ids().collect();
        for piece in partition(&g, &all) {
            let piece: BTreeSet<NodeId> = piece.into_iter().collect();
            let task = SchedTask::subset(&g, &piece);
            assert_identical(&task, budget, &format!("{w:?}@{scale} full_schedule piece"));
        }
    }
}

proptest! {
    // Each case schedules a window of a real (small) DNN eight times.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_dnn_windows_schedule_identically(
        seed in 0u64..1000,
        cells in 1usize..8,
        a in 0usize..4096,
        b in 0usize..4096,
    ) {
        let cfg = RandomDnnConfig { batch: 2, channels: 8, hw: 8, cells, blocks: 3 };
        let g = random_dnn(&cfg, seed);
        let psi = topo_order(&g);
        let (a, b) = (a % psi.len(), b % psi.len());
        let window: BTreeSet<NodeId> = psi[a.min(b)..=a.max(b)].iter().copied().collect();
        let task = SchedTask::subset(&g, &window);
        assert_identical(&task, SchedConfig::default().node_budget, "random_dnn window");
    }
}
