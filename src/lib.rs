//! # MAGIS — Memory Optimization via Coordinated Graph Transformation
//! # and Scheduling for DNN
//!
//! A from-scratch Rust reproduction of the ASPLOS'24 paper by Chen et
//! al. This facade crate re-exports the workspace members:
//!
//! * [`graph`] — computation-graph substrate (operators, autodiff,
//!   dominator trees, WL hashing, …),
//! * [`sim`] — RTX-3090-like cost model and memory/latency simulator,
//! * [`sched`] — memory-aware ordering DP, narrow-waist partitioning,
//!   incremental scheduling (Algorithm 2),
//! * [`core`] — the paper's contribution: D-Graphs, fission
//!   transformations, the F-Tree (Algorithm 1), M-Rules, and the
//!   M-Optimizer search (Algorithm 3),
//! * [`models`] — Table 2 workloads (ResNet-50, BERT, ViT, U-Net,
//!   U-Net++, GPT-Neo, BTLM) as training graphs,
//! * [`baselines`] — POFO/DTR/XLA/TVM/Torch-Inductor-like comparison
//!   systems,
//! * [`obs`] — zero-dependency structured tracing, metrics, and
//!   search-timeline observability,
//! * [`serve`] — supervised optimization service: a long-lived daemon
//!   with deadlines, backpressure, and crash-safe job recovery.
//!
//! ## Quickstart
//!
//! ```
//! use magis::prelude::*;
//! use std::time::Duration;
//!
//! // A small training workload.
//! let tg = magis::models::mlp::mlp(&Default::default());
//!
//! // Minimize peak memory, allowing 10% extra latency.
//! let seed = MState::initial(tg.graph, &EvalContext::default());
//! let seed_peak = seed.eval.peak_bytes;
//! let objective = Objective::relative("memory", Some(1.10), seed.cost()).unwrap();
//! let cfg = OptimizerConfig::new(objective)
//!     .with_budget(Duration::from_millis(500))
//!     .with_max_evals(60);
//! let result = optimize_from(seed, &cfg);
//! assert!(result.best.eval.peak_bytes <= seed_peak);
//! ```

pub use magis_baselines as baselines;
pub use magis_core as core;
pub use magis_graph as graph;
pub use magis_models as models;
pub use magis_obs as obs;
pub use magis_sched as sched;
pub use magis_serve as serve;
pub use magis_sim as sim;

/// The names most programs need.
pub mod prelude {
    pub use magis_core::optimizer::{optimize, optimize_from, Objective, OptimizerConfig};
    pub use magis_core::state::{EvalContext, MState};
    pub use magis_core::{FTree, FissionSpec};
    pub use magis_graph::builder::GraphBuilder;
    pub use magis_graph::grad::{append_backward, TrainOptions};
    pub use magis_graph::{DType, Graph, GraphTxn, GraphView, NodeId, OpKind, Shape, TensorMeta};
    pub use magis_models::Workload;
    pub use magis_sim::{CostModel, DeviceSpec};
}
