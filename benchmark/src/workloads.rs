//! The five workloads. Every constant here is part of the benchmark's
//! definition: changing one makes old and new results incomparable.

use magis_core::driver::DriverKind;
use magis_models::Workload;
use magis_sim::MemObjective;

/// Latency limit of every search, as a factor of the seed latency.
pub const LAT_FACTOR: f64 = 1.10;

/// `OptimizerConfig::seed` of the MCTS workload: the crate's default.
/// It is a constant and not taken from `--seed` because the MCTS
/// trajectory — peak ratio, evaluations to target — changes several
/// fold with it (measured: target reached after 74 to 1403
/// evaluations, or never, over five seeds), and results from different
/// `--seed` values have to stay comparable.
pub const MCTS_SEED: u64 = 0x5eed;

/// A workload that times `magis_core::optimizer::optimize` to an
/// evaluation cap on a prebuilt model graph.
#[derive(Debug, Clone, Copy)]
pub struct SearchSpec {
    pub name: &'static str,
    pub model: Workload,
    pub scale: f64,
    pub driver: DriverKind,
    pub mem: MemObjective,
    pub threads: usize,
    pub eval_cap: usize,
    /// `time_to_target_s` target: incumbent objective peak at or below
    /// this share of the seed's.
    pub target: f64,
    /// Greedy-descent depth of the traced candidate replay.
    pub replay_depth: usize,
}

pub const UNET_SMALL: SearchSpec = SearchSpec {
    name: "unet_small",
    model: Workload::UNet,
    scale: 0.15,
    driver: DriverKind::Greedy,
    mem: MemObjective::Liveness,
    threads: 1,
    eval_cap: 4000,
    target: 0.60,
    replay_depth: 12,
};

pub const UNET_SMALL_MT2: SearchSpec = SearchSpec {
    name: "unet_small_mt2",
    threads: 2,
    ..UNET_SMALL
};

pub const BERT_FULL: SearchSpec = SearchSpec {
    name: "bert_full",
    model: Workload::BertBase,
    scale: 1.0,
    driver: DriverKind::Greedy,
    mem: MemObjective::Liveness,
    threads: 1,
    eval_cap: 400,
    target: 0.40,
    replay_depth: 4,
};

pub const RESNET_PLANNED_MCTS: SearchSpec = SearchSpec {
    name: "resnet_planned_mcts",
    model: Workload::ResNet50,
    scale: 0.25,
    driver: DriverKind::Mcts,
    mem: MemObjective::Planned,
    threads: 1,
    eval_cap: 1500,
    target: 0.70,
    replay_depth: 12,
};

pub const SEARCH: [SearchSpec; 4] = [UNET_SMALL, UNET_SMALL_MT2, BERT_FULL, RESNET_PLANNED_MCTS];

pub const SERVE_MIXED: &str = "serve_mixed";

/// `serve_mixed`: daemon and traffic shape.
pub mod serve {
    /// Daemon worker threads and closed-loop client connections: one
    /// per core of the 2-core box, never more.
    pub const WORKERS: usize = 2;
    pub const CONNECTIONS: usize = 2;
    /// Candidate cap of every request.
    pub const MAX_CANDIDATES: usize = 40;
    /// Named jobs `(workload, scale)` the requests cycle over.
    pub const NAMED: [(&str, f64); 4] = [
        ("unet", 0.15),
        ("bert", 0.1),
        ("resnet", 0.1),
        ("gpt-neo", 0.05),
    ];
    /// The largest of `NAMED` in time and memory (`resnet`), and how
    /// often the `rss_peak_mb` probe runs it on every connection at
    /// once.
    pub const LARGEST: usize = 2;
    pub const RSS_PROBE_REPEATS: usize = 5;
    /// One request in this many carries an inline graph record.
    pub const INLINE_EVERY: usize = 5;
    /// Distinct inline graphs per run: `random_dnn(seed + k)` for `k`
    /// below this.
    pub const INLINE_GRAPHS: usize = 4;
    /// Cells of an inline `random_dnn` (its default is 6). With 3 the
    /// inline jobs are the fastest fifth of the mix for every seed; with
    /// 6 their latency straddled the named jobs' and the median request
    /// moved with the seed.
    pub const INLINE_CELLS: usize = 3;
    /// Requests of the traced run.
    pub const TRACED_REQUESTS: usize = 40;
}
